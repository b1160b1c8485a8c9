"""Exception types shared across the package, and the exact-length reads
that turn a truncated binary file into a typed error."""

import struct


class MilliflowError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(MilliflowError):
    """Rigid alignment is ill-posed (too few or collinear points)."""


class UnknownActivity(MilliflowError):
    """Activity id is not in the catalogue."""


class EmptyFrame(MilliflowError):
    """A radar frame has no usable points."""


class ShapeMismatch(MilliflowError):
    """Tensor/array shapes are inconsistent with the operation contract."""


class BadK(MilliflowError):
    """Requested sample count is outside [1, N]."""


class NoValidPoints(MilliflowError):
    """Loss cannot be computed: every label in the sample is masked out."""


class ProvenanceMissing(MilliflowError):
    """Frame lacks reflector-to-bone provenance needed for exact labels."""


class MissingFlowModel(MilliflowError):
    """Downstream strategy s1/s2 requires a flow checkpoint."""


class TooFewSubjects(MilliflowError):
    """Automatic subject split needs at least six subjects."""


class EmptyInput(MilliflowError):
    """Metric input is empty."""


class LengthMismatch(MilliflowError):
    """Paired metric inputs differ in length."""


class EmptyMask(MilliflowError):
    """Metric evaluation mask selects no points."""


class ConfigError(MilliflowError):
    """Run configuration is invalid."""


class TaskMismatch(ConfigError):
    """Checkpoint was trained for a different task or strategy."""


class MissingCheckpoint(ConfigError):
    """A referenced checkpoint file does not exist."""


class CorruptFile(MilliflowError):
    """A stored file is truncated or does not follow its format."""


def read_exact(f, n: int) -> bytes:
    """Read exactly ``n`` bytes from the binary file ``f`` or raise CorruptFile."""
    offset = f.tell()
    data = f.read(n)
    if len(data) != n:
        raise CorruptFile(
            f"{getattr(f, 'name', 'file')}: truncated, needs {n} bytes at offset "
            f"{offset} but {len(data)} remain"
        )
    return data


def read_struct(f, fmt: str) -> tuple:
    """Unpack the ``struct`` format ``fmt`` from ``f`` or raise CorruptFile."""
    return struct.unpack(fmt, read_exact(f, struct.calcsize(fmt)))
