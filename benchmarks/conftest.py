"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's artefacts (Table 1 or a
figure).  The regenerated rows/series are attached to the benchmark
record via ``benchmark.extra_info`` and printed, so
``pytest benchmarks/ --benchmark-only -s`` shows the same tables the
paper reports.  Heavy constructions run exactly once via
``benchmark.pedantic(rounds=1)`` -- the interesting output is the
series, not nanosecond timing stability.

Benchmarks that compare a hot path against its frozen reference also
call :func:`snapshot`, which -- when ``BENCH_SNAPSHOT_DIR`` is set
(``make bench-snapshot`` sets it) -- writes a machine-readable
``BENCH_<topic>.json`` next to the other CI artefacts, so speedup
history can be tracked without scraping pytest output.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def usable_cpus() -> int:
    """CPUs this process may run on; speedup gates need at least 2."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_once(benchmark, fn):
    """Run a heavyweight benchmark body exactly once."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def snapshot(
    topic: str,
    params: dict,
    ops_per_s: float,
    speedup: float | None = None,
    extra: dict | None = None,
) -> Path | None:
    """Write the ``BENCH_<topic>.json`` machine-readable snapshot.

    A no-op (returning ``None``) unless the ``BENCH_SNAPSHOT_DIR``
    environment variable names a directory; benchmarks therefore stay
    side-effect free in plain test runs.

    Args:
        topic: Snapshot topic; becomes the ``BENCH_<topic>.json`` name.
        params: The workload parameters (n, rounds, ...).
        ops_per_s: Throughput of the optimised path.
        speedup: Throughput ratio vs the frozen reference loop, if the
            bench ran one.
        extra: Additional JSON-compatible fields to record.

    Returns:
        The written path, or ``None`` when snapshots are disabled.
    """
    root = os.environ.get("BENCH_SNAPSHOT_DIR")
    if not root:
        return None
    payload = {
        "topic": topic,
        "params": params,
        "ops_per_s": round(ops_per_s, 2),
        "speedup": None if speedup is None else round(speedup, 2),
    }
    if extra:
        payload.update(extra)
    out = Path(root)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{topic}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def emit(title: str, rows) -> str:
    """Format and print a series table; returns the text."""
    lines = [f"\n=== {title} ==="]
    for row in rows:
        lines.append("  " + " | ".join(str(cell) for cell in row))
    text = "\n".join(lines)
    print(text)
    return text
