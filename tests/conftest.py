"""Shared fixtures.

The BLAS and OpenMP thread pools are pinned to one thread here, before
anything imports numpy, as perfbench pins them: a product's last bits
then do not depend on how a BLAS call splits its work between threads.
pyproject.toml filters FastDetectorWarning by its message, not by its
class, so that pytest does not import edgeqet, and numpy with it,
before this file runs."""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

#: whether numpy had loaded before the thread pools were pinned
NUMPY_BEFORE_PINNING = "numpy" in sys.modules

import pytest  # noqa: E402

from edgeqet import params as P  # noqa: E402


@pytest.fixture(scope="session")
def params():
    """The quoted-experiment defaults used throughout the suite."""
    return P.default_paper_params()
