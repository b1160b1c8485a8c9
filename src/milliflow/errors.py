"""Exception types shared across the package, and the helpers for stored
files: `fits`, the one check of a stored value's kind (configs, manifests,
frame and label records, checkpoint headers), exact-length reads that turn
a truncated checkpoint into a typed error, and atomic writes."""

import contextlib
import itertools
import math
import os
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


def fits(value, kind) -> bool:
    """Whether a JSON value is of `kind`: a type, [kind] for a list of values
    of that kind, a dict of keys each with the kind of its value, or a tuple
    of kinds any of which fits (a dict's key may be absent where NoneType
    fits).  A bool is not a number, and a float is a finite number that a
    float holds (JSON readers take NaN, Infinity and integers of any size)."""
    if type(kind) is tuple:
        return any(fits(value, k) for k in kind)
    if type(kind) is dict:
        return type(value) is dict and all(fits(value.get(k), t) for k, t in kind.items())
    if type(kind) is not list:
        return fits([value], [kind]) if kind in (int, bool, float) else isinstance(value, kind)
    (item,) = kind
    if type(value) is not list:
        return False
    # the fast paths, for the long number lists of frame and label records
    if type(item) is list:  # rows, checked as one list
        return (set(map(type, value)) <= {list}
                and fits(list(itertools.chain.from_iterable(value)), item))
    if item in (int, bool):
        return set(map(type, value)) <= {item}
    if item is not float:
        return all(fits(v, item) for v in value)
    try:
        return set(map(type, value)) <= {int, float} and all(map(math.isfinite, value))
    except OverflowError:  # an integer that no float holds
        return False


def read_exact(f, n: int) -> bytes:
    """Read exactly ``n`` bytes from the binary file ``f`` or raise
    CorruptFile; ``n`` is checked against the bytes the file has left before
    any is read, so a size no file holds is refused without being allocated."""
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    if n > left:
        raise CorruptFile(
            f"{getattr(f, 'name', 'file')}: truncated, needs {n} bytes at offset "
            f"{offset} but {left} remain"
        )
    return f.read(n)


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
