"""Process set-up shared by the benchmark's entry scripts.

Call `pin_blas_threads` before anything imports numpy: OpenBLAS reads its
thread count once, when it loads.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_greenlite():
    """Import greenlite from this checkout's src/, never from an installed copy."""
    package = SRC / "greenlite"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no greenlite sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import greenlite

    if Path(greenlite.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported greenlite from {greenlite.__file__}, not {package}")
    return greenlite


def _openblas_threads(np) -> int | None:
    """The thread count OpenBLAS reports, when numpy bundles an OpenBLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(np),
        "machine": platform.machine(),
    }
