"""Exception types shared across the package, and the file helpers that
keep stored files whole: exact-length reads that turn a truncated
checkpoint into a typed error, and atomic writes."""

import contextlib
import os
import struct
from pathlib import Path


class MilliflowError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(MilliflowError):
    """Rigid alignment is ill-posed (too few or collinear points)."""


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


class NonFiniteLoss(MilliflowError):
    """A training loss is NaN or infinite."""


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


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside ``path`` for writing.  When the block
    ends without error the file replaces ``path`` in one ``os.replace``; when
    it raises, the temporary file is removed and ``path`` keeps its previous
    contents.  The data is synced to disk before the rename."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
            # the data must reach the disk before the rename does, or a
            # crash of the machine can leave ``path`` empty
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
