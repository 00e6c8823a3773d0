"""Machine fingerprint and process memory, recorded with every result."""

from __future__ import annotations

import glob
import multiprocessing
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List


def fingerprint(root: Path) -> Dict[str, str]:
    """``nproc``, CPU, Python, numpy, array backend, start method and commit."""
    import numpy

    from repro.compression.backend import get_backend

    return {
        "nproc": str(os.cpu_count() or 1),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "array_backend": get_backend().name,
        "start_method": multiprocessing.get_context().get_start_method(),
        "commit": _commit(root),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    # The ceiling keeps git from adopting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _status_kib(pid: str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children() -> List[str]:
    pids: List[str] = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path, encoding="ascii") as fh:
                pids.extend(fh.read().split())
        except OSError:
            pass
    return pids


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live child (MiB)."""
    own = _status_kib(str(os.getpid()), "VmHWM")
    if own == 0:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_status_kib(pid, "VmHWM") for pid in _children())) / 1024.0
