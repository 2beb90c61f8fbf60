"""Machine facts recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

import numpy as np
import yaml

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if that is the BLAS in use."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def facts() -> dict:
    import qisflow

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "qisflow_backend": qisflow.BACKEND,
        "pyyaml": yaml.__version__,
        "pyyaml_libyaml": bool(yaml.__with_libyaml__),
        "executable": os.path.basename(sys.executable),
    }
