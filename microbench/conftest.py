import os
import sys

import pytest

# OpenBLAS reads its thread count once, when numpy loads it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_configure(config):
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned and "numpy" in sys.modules:
        raise pytest.UsageError(
            "numpy was loaded before BLAS could be pinned to one thread; "
            "run with OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1"
        )
    for v in unpinned:
        os.environ[v] = "1"
