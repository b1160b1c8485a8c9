"""The autodiff, layer and network checks on other BLAS kernels.

OpenBLAS rounds a matrix product differently on each kernel it can pick, so
a check that holds only on the kernel it was written on is held to
rounding, not to the mathematics.  These rerun the checks under the
`Haswell` and `Prescott` core types.
"""

from pathlib import Path

import pytest
from helpers import on_openblas, pytest_on_kernel

CHECKS = ("test_autodiff.py", "test_layers.py", "test_network_oracle.py")


@on_openblas
@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_network_checks_pass_on_another_kernel(core):
    here = Path(__file__).parent
    proc = pytest_on_kernel(core, *(str(here / name) for name in CHECKS))
    assert proc.returncode == 0, proc.stdout + proc.stderr
