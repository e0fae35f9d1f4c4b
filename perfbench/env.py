"""Process set-up shared by the benchmark's scripts.

Call `prepare()` before anything imports numpy: it pins every BLAS and
OpenMP pool to one thread and puts the checkout's own `src/` first on
`sys.path`, so the benchmark measures the source tree it sits in and
never an installed copy. `import_pinned()` loads the frozen copy that
timings are taken relative to (see pinned/README.md).
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"
REFERENCE_DIR = BENCH_DIR / "reference"
PINNED_DIR = BENCH_DIR / "pinned"

# numpy's BLAS (OpenBLAS, MKL, BLIS, Accelerate) and any OpenMP runtime
# read these at load time; one thread keeps timings free of pool start-up
# and of pool threads competing with other processes for the cores
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class MissingProgram(RuntimeError):
    """The checkout holds no ehrelay source tree to benchmark."""


def prepare():
    """Pin thread pools, import ehrelay from the checkout and return it."""
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    os.environ.update(THREAD_ENV)
    if not (SRC / "ehrelay" / "__init__.py").is_file():
        raise MissingProgram(f"no ehrelay package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ehrelay
    import ehrelay.cli
    if Path(ehrelay.__file__).resolve().parent != SRC / "ehrelay":
        raise MissingProgram(f"imported ehrelay from {ehrelay.__file__}, not from {SRC}")
    return ehrelay


def import_pinned():
    """The frozen copy of ehrelay that timings are taken relative to."""
    sys.path.insert(0, str(PINNED_DIR))
    import ehrelay_pinned
    import ehrelay_pinned.cli
    return ehrelay_pinned
