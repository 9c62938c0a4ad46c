"""Facts about the machine and software a result depends on."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

BANDWIDTH_FACTOR = 4   # a working set must exceed 4x the LLC before a bandwidth claim


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes():
    """{level: bytes} of the unified/data caches of cpu0, from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        out[f"L{level}"] = int(size.rstrip("KMG")) * mult
    return out


def _blas():
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                if blas.get(k) is not None}
    except (TypeError, AttributeError):
        return "unavailable"


def git_rev(root):
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def facts(root, workload, env):
    import numpy
    import scipy
    caches = _cache_bytes()
    llc = caches[max(caches)] if caches else None
    largest = workload.largest_array_bytes
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(),
        "env": {k: env.get(k) for k in ("SISPACE_THREADS", "OPENBLAS_NUM_THREADS")},
        "workload_env": workload.env,
        "git_rev": git_rev(root),
        "executable": sys.executable,
        "largest_array_bytes": largest,
        "largest_array": workload.largest_array_note,
        "llc_bytes": llc,
        # below BANDWIDTH_FACTOR x LLC the working set may stay cache resident,
        # so no memory-bandwidth claim is made from this workload
        "bandwidth_claim_possible": bool(llc) and largest > BANDWIDTH_FACTOR * llc,
    }
