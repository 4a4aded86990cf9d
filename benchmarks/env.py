"""Process set-up shared by the benchmark and its tests; import before numpy.

BLAS and OpenMP read their thread counts when numpy loads, so ``prepare``
pins them to one thread first and puts the checkout's ``src`` ahead of any
installed copy of the package.  It also pins the process, and the children
it starts, to one CPU, so the speed gauge and the timed work share a core.
"""

import os
import sys

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def prepare():
    """Pin threads and expose ``src``; raise if the sources are missing."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    if not os.path.isfile(os.path.join(SRC, "multlab", "__init__.py")):
        raise FileNotFoundError(f"no multlab sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
