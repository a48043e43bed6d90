"""The environment a result was measured in, recorded beside every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

# thread-count variables that BLAS and OpenMP builds read at load time
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads(n: int) -> None:
    """Set every BLAS thread variable to n; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(n)


def _loaded_openblas() -> list[dict]:
    """Name, config and live thread count of each OpenBLAS in this process."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    out = []
    for path in paths:
        entry = {"library": Path(path).name}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            out.append(entry)
            continue
        for prefix in ("scipy_openblas_", "openblas_", ""):
            for suffix in ("64_", ""):
                getn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getn is None or conf is None:
                    continue
                getn.restype, getn.argtypes = ctypes.c_int, []
                conf.restype, conf.argtypes = ctypes.c_char_p, []
                entry["threads"] = getn()
                entry["config"] = conf().decode(errors="replace")
                break
            if "threads" in entry:
                break
        out.append(entry)
    return out


def _blas_build() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {}


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "--git-dir", str(root / ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "blas_loaded": _loaded_openblas(),
        "blas_threads_requested": blas_threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "seed": seed,
        "argv": sys.argv[1:],
    }
