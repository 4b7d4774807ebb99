"""Shared helpers: statistics, memory, the run fingerprint and output."""

from __future__ import annotations

import asyncio
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

#: where runs leave their results and scratch directories (git-ignored)
OUT_DIR = ".perfbench"


def pct(values, q: float) -> float:
    """``q``-th percentile (0 for an empty sample)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def windowed_pct(values, q: float, min_per_window: int = 1000,
                 max_windows: int = 16) -> float:
    """Median over consecutive windows of each window's ``q``-th percentile.

    One stall (a neighbour's burst, a page-cache flush) moves one
    window's tail, not the median of several; each window holds at
    least ``min_per_window`` samples so its p99 has ten beyond it.
    """
    values = np.asarray(values, dtype=np.float64)
    windows = max(1, min(max_windows, len(values) // min_per_window))
    if windows == 1:
        return pct(values, q)
    return float(statistics.median(
        pct(chunk, q) for chunk in np.array_split(values, windows)))


async def paced(n: int, rate: float, launch) -> list:
    """Start ``launch(i, due)`` for ``i < n`` on a fixed-rate schedule.

    Open loop: request ``i`` is due at ``start + i / rate`` whether or
    not earlier ones were answered.  Returns the started tasks.  The
    loop's timers round up to whole milliseconds, so long gaps are
    slept through and the last ~1 ms is spent yielding to the loop.
    """
    tasks = []
    start = time.perf_counter() + 0.002
    i = 0
    while i < n:
        now = time.perf_counter()
        while i < n and start + i / rate <= now:
            tasks.append(asyncio.ensure_future(launch(i, start + i / rate)))
            i += 1
        if i < n:
            wait = start + i / rate - time.perf_counter()
            await asyncio.sleep(wait - 0.0012 if wait > 0.0015 else 0)
    return tasks


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(**workload) -> dict:
    """Host, toolchain and workload identity recorded with every result."""
    import repro
    from repro.kernels import REGISTRY

    return {
        "cpu_count": os.cpu_count(),
        "numba_available": importlib.util.find_spec("numba") is not None,
        "kernel_mode": REGISTRY.effective_mode(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": getattr(repro, "__version__", "unknown"),
        **workload,
    }


def emit_table(title: str, rows: list[tuple[str, object, str]]) -> None:
    """Print ``name  value  unit`` rows under a heading."""
    print(f"\n== {title}")
    for name, value, unit in rows:
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  {name:<34} {value!s:>14}  {unit}")


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=float)


def log(msg: str) -> None:
    """Progress goes to stderr so the last stdout line stays the result."""
    print(msg, file=sys.stderr, flush=True)
