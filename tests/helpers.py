"""Shared test utilities: finite-difference gradient checking, checkpoint
header bit flips, a rotation check, a subject's reflectors in motion, and
test runs on another BLAS kernel."""

import functools
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import milliflow
from milliflow.autodiff import Tensor
from milliflow.errors import MilliflowError
from milliflow.radar import RadarConfig, sample_bone_local_reflectors
from milliflow.skeleton import ActivitySpec, generate_motion, make_subject


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def jitter_params(tensors: dict[str, Tensor], rng, scale: float = 0.05):
    """Nudge parameters off their initial values before a finite-difference
    check.  Zero-initialized biases put ReLU kinks exactly at the evaluation
    point, where one-sided slopes and the subgradient legitimately disagree."""
    for t in tensors.values():
        t.data = t.data + rng.normal(scale=scale, size=t.shape)


def check_param_grads(
    loss_fn,
    tensors: dict[str, Tensor],
    h: float = 1e-5,
    tol: float = 1e-4,
    max_entries: int = 6,
    seed: int = 0,
    zero: dict | None = None,
) -> float:
    """Compare analytic gradients against central finite differences.

    `loss_fn` rebuilds the scalar loss from scratch; `tensors` maps names to
    the leaf tensors to check.  A few entries per tensor are probed.  Returns
    the worst relative error observed (asserting it stays below `tol`).

    `zero` maps names to boolean masks (True for all) of the entries whose
    true gradient is exactly 0, such as a bias that feeds a softmax (a
    softmax does not move when all its inputs do).  A finite difference
    there measures only the loss's rounding, so those entries are held to
    their known value instead, within 1e-12 of the largest gradient, and
    the others are probed.
    """
    for t in tensors.values():
        t.zero_grad()
    loss = loss_fn()
    loss.backward()
    assert np.isfinite(float(loss.data))

    rng = np.random.default_rng(seed)
    worst = 0.0
    largest = max(np.abs(t.grad).max() for t in tensors.values() if t.grad is not None)
    for name, t in tensors.items():
        assert t.grad is not None, f"no gradient reached {name}"
        free = t.data.size
        if zero and name in zero:
            known = np.broadcast_to(zero[name], t.shape).reshape(-1)
            assert np.all(np.abs(t.grad.reshape(-1)[known]) <= 1e-12 * largest), name
            free = np.flatnonzero(~known)
        flat = t.data.reshape(-1)
        idxs = rng.choice(free, size=min(max_entries, np.size(free)), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = t.grad.reshape(-1)[i]
            err = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
            worst = max(worst, err)
            assert err < tol, (
                f"{name}[{i}]: analytic={analytic:.8g} numeric={numeric:.8g} "
                f"rel={err:.3g}"
            )
    return worst


def is_rotation(r, tol: float = 1e-9) -> bool:
    """Whether the 3x3 matrix `r` is orthonormal with determinant +1, to
    within `tol`."""
    r = np.asarray(r, dtype=np.float64)
    return bool(np.allclose(r.T @ r, np.eye(3), atol=tol)
                and abs(np.linalg.det(r) - 1.0) <= tol)


def param_signature(named: dict[str, Tensor]) -> dict:
    """{name: (shape, dtype)} of named parameter tensors."""
    return {k: (t.shape, t.dtype) for k, t in named.items()}


def flip_header_bits(path, load) -> int:
    """Flip bit 1 of each byte of the checkpoint at `path` up to the end of
    its JSON header, one byte at a time, and load it with `load(path)`,
    which returns a parameter signature.  Each flip must raise a
    MilliflowError or give the signature of the unflipped file.  Returns how
    many flips loaded."""
    whole = path.read_bytes()
    want = load(path)
    (header_len,) = struct.unpack("<I", whole[4:8])
    loaded = 0
    for at in range(8 + header_len):
        path.write_bytes(whole[:at] + bytes([whole[at] ^ 0b10]) + whole[at + 1:])
        try:
            got = load(path)
        except MilliflowError:
            continue
        assert got == want, f"a flip at byte {at} loaded another model"
        loaded += 1
    return loaded


# the ways checkpoint values can fail to fit the model their config describes
MISFITS = ("unread", "flow entry", "missing", "misshapen")


def misfit(values: dict, change: str) -> dict:
    """A copy of a checkpoint's `values` with one `change` of MISFITS: an
    entry no parameter reads, a `flow.` copy of a parameter (which only an s2
    task checkpoint reads), a parameter left out, or one of another shape."""
    values = dict(values)
    name = sorted(values)[0]
    if change == "unread":
        values["unread.w0"] = np.zeros(2)
    elif change == "flow entry":
        values[f"flow.{name}"] = values[name]
    elif change == "missing":
        del values[name]
    else:
        values[name] = np.zeros(values[name].size + 1)
    return values


def no_draws(*args, **kwargs):
    """Stands in for `np.random.default_rng` where nothing may be drawn."""
    raise AssertionError("a random generator was made")


def assert_same_params(got: dict, want: dict):
    """Two named-parameter dicts hold the same names, dtypes and bytes."""
    assert sorted(got) == sorted(want)
    for name, t in want.items():
        assert got[name].dtype == t.dtype, name
        np.testing.assert_array_equal(got[name].data, t.data, err_msg=name)


@functools.cache
def reflector_motion(subject: int, activity: str):
    """(model, 12 poses, bone-local reflector coordinates) of one subject."""
    model = make_subject(subject)
    local = sample_bone_local_reflectors(model, RadarConfig(), subject)
    return model, generate_motion(model, ActivitySpec(activity), 12), local


def uses_openblas() -> bool:
    """Whether numpy is linked to OpenBLAS, whose kernels OPENBLAS_CORETYPE picks."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


on_openblas = pytest.mark.skipif(
    not uses_openblas(),
    reason="numpy is not linked to OpenBLAS, so OPENBLAS_CORETYPE picks no other kernel")


def pytest_on_kernel(core: str, *tests: str) -> subprocess.CompletedProcess:
    """pytest on `tests` in a fresh interpreter told to use the OpenBLAS
    core type `core`: OpenBLAS built with DYNAMIC_ARCH picks its kernels at
    load time, so another kernel needs another process."""
    src = str(Path(milliflow.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=core,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *tests], env=env, capture_output=True, text=True)
