"""Machine and library context recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

# OpenBLAS thread queries, plain and in the symbol-prefixed builds that
# numpy and scipy wheels ship
_THREAD_QUERIES = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_openblas() -> list[str]:
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if found."""
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _THREAD_QUERIES:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def blas_version() -> str:
    import numpy as np

    try:
        deps = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def git_commit(root: Path) -> str:
    """The commit checked out at ``root``, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def context(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version(),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
    }
