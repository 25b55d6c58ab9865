import os
import sys
from pathlib import Path

# Pin BLAS to one thread unless the caller chose otherwise.  OpenBLAS reads
# the variable once, when numpy loads it, and numpy is not loaded yet here.
# Pinned, the experiments run their seeds, or one seed's independent arms, in
# parallel (see pipeline._blas_workers); the worker-count tests set their
# subprocesses' variables themselves and so still cover the unpinned path.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

# make tests/helpers.py importable regardless of pytest's import mode
sys.path.insert(0, str(Path(__file__).parent))
