"""Provenance stamped on every record: code identity, host, libraries."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
from typing import Any, Dict, Optional


def git_sha(root: str) -> Optional[str]:
    """HEAD of the checkout, or None unless ``root`` is a git top level."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def tree_hash(root: str) -> str:
    """sha256 over the paths and bytes of every ``.py`` file under src/.

    Identifies the measured code where the checkout is not a git tree.
    """
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS numpy loaded (None if not found)."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def runtime() -> Dict[str, Any]:
    """What the measuring interpreter sees (call after numpy is imported)."""
    import numpy

    return {
        "python": platform.python_version(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "run_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {key: os.environ[key] for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ},
        # The workloads never use the SRAM tier; this records whether the
        # compiled kernel *would* be available, without building it.
        "native_sram": not os.environ.get("H3DFACT_NO_NATIVE")
        and any(shutil.which(c) for c in (os.environ.get("CC"), "cc", "gcc",
                                          "clang") if c),
    }


def host(root: str) -> Dict[str, Any]:
    """Code identity and core count, from the parent process."""
    return {
        "git_sha": git_sha(root),
        "src_tree_sha256": tree_hash(root),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
    }
