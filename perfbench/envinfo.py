"""Environment record printed with every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

# lines in src/ when the benchmark was defined; every result reports the net
# change against it
SRC_LINES_AT_DEFINITION = 2278
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine(root: Path) -> dict:
    """CPU count, Python version, git SHA and net src/ line count."""
    lines = sum(len(path.read_bytes().splitlines()) for path in (root / "src").rglob("*.py"))
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "src_lines": lines,
        "src_lines_net": lines - SRC_LINES_AT_DEFINITION,
    }


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def numerics() -> dict:
    """numpy version, its BLAS library and the BLAS thread count in this process."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        library = "unknown"
    return {
        "numpy": numpy.__version__,
        "blas": library,
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


def _openblas_threads() -> int | None:
    """Ask the loaded OpenBLAS how many threads it uses; None if there is none."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None
