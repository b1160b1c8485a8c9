"""Synthetic mmWave radar scene-flow laboratory.

Simulates point clouds of moving bodies with a stepped-frequency radar
forward model, derives pseudo scene-flow labels from noisy skeletons, trains
a small scene-flow network on them, and feeds the flow into activity
recognition, body-part parsing, and body-part tracking.
"""

__version__ = "0.1.0"

from .errors import MilliflowError
from .geometry import RigidTransform, kabsch

__all__ = [
    "__version__",
    "MilliflowError",
    "RigidTransform",
    "kabsch",
]
