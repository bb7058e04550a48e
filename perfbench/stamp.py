"""Provenance stamped on every result: revision, host, stack, inputs."""

from __future__ import annotations

import ctypes
import json
import os
import pathlib
import platform
import subprocess
import sys


def _git(root: pathlib.Path, *args: str) -> str | None:
    # The ceiling keeps git from adopting a repository above the
    # checkout when the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", *args], cwd=root, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def revision(root: pathlib.Path) -> dict:
    """Git revision and dirty flag, or ``None`` outside a git checkout."""
    rev = _git(root, "rev-parse", "HEAD")
    if rev is None:
        return {"revision": None, "dirty": None}
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"revision": rev, "dirty": bool(status)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS (NumPy's and SciPy's)."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[pathlib.Path(path).name] = fn()
                break
    return out


def stack() -> dict:
    import numpy
    import scipy

    def blas_version(mod) -> str | None:
        try:
            return mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": blas_threads(),
    }


def tuning_table() -> dict:
    """Whether ``method="auto"`` loaded the committed tuning table.

    The planner reads ``results/TUNE_host.json`` relative to the working
    directory and ignores it when its host fingerprint differs; a plan
    flip from that is not a speed change.
    """
    from repro.perfmodel import planner

    path = pathlib.Path(planner.DEFAULT_TUNE_PATH)
    info = {"path": str(path), "this_host": planner.host_fingerprint(),
            "table_host": None}
    if not path.is_file():
        info["status"] = "missing"
        return info
    try:
        info["table_host"] = json.loads(path.read_text()).get("host")
    except (OSError, ValueError):
        info["status"] = "unreadable"
        return info
    info["status"] = ("loaded" if planner.default_table() is not None
                      else "ignored")
    return info


def host() -> dict:
    return {"cpu": cpu_model(), "nproc": os.cpu_count(),
            "kernel": platform.release(), "platform": sys.platform}
