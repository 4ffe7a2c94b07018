#!/usr/bin/env python3
"""Summarise and compare captured benchmark runs.

Usage::

    python3 perfbench/compare.py RUN.txt [RUN.txt ...] [--vs RUN.txt ...]

Each file is the standard output of one ``perfbench/run.py`` run.  For
every workload and metric the tool prints the median, the quartiles
and the spread (distance between the quartiles over the median) of the
runs given; with ``--vs`` it also prints how far the second set's
median moved from the first's, against the metric's bound in
``BENCHMARK.json`` when it has one.

It refuses (exit 2) to summarise runs whose fingerprints differ: CPUs,
Python and numpy versions, the fabric path and ``PYTHONHASHSEED`` all
change the figures, so such runs are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: Path) -> dict:
    """One run: workload, fingerprint and result, from its stdout."""
    lines = path.read_text().splitlines()
    header = next((x for x in lines if x.startswith("workload ")), None)
    fp = next((x for x in lines if x.startswith("fingerprint ")), None)
    if header is None or fp is None:
        raise SystemExit(f"{path}: not the output of a finished run")
    return {
        "path": str(path),
        "workload": header.split()[1],
        "trace": header.split()[-1],
        "fingerprint": json.loads(fp[len("fingerprint "):]),
        "result": json.loads(lines[-1]),
    }


def bounds() -> dict[str, dict]:
    spec = HERE.parent / "BENCHMARK.json"
    if not spec.exists():
        return {}
    data = json.loads(spec.read_text())
    return {m["name"]: m for m in data.get("end_to_end", [])}


def summarise(runs: list[dict]) -> dict:
    """``(workload, metric) -> (median, q1, q3, spread, values)``."""
    values = defaultdict(list)
    for run in runs:
        if not run["result"]["correct"]:
            print(f"warning: {run['path']} is not correct", file=sys.stderr)
        for name, metric in run["result"]["metrics"].items():
            values[(run["workload"], name)].append(metric["value"])
    table = {}
    for key, vals in sorted(values.items()):
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        table[key] = (med, q1, q3, (q3 - q1) / med if med else 0.0, vals)
    return table


def main(argv: list[str]) -> int:
    if "--vs" in argv:
        cut = argv.index("--vs")
        first, second = argv[:cut], argv[cut + 1:]
    else:
        first, second = argv, []
    if not first:
        print(__doc__, file=sys.stderr)
        return 2
    runs_a = [load(Path(p)) for p in first]
    runs_b = [load(Path(p)) for p in second]
    prints = {json.dumps(r["fingerprint"], sort_keys=True)
              for r in runs_a + runs_b}
    if len(prints) > 1:
        print("refusing to compare runs with different fingerprints:",
              file=sys.stderr)
        for fp in sorted(prints):
            print(f"  {fp}", file=sys.stderr)
        return 2
    limits = bounds()
    table_a = summarise(runs_a)
    table_b = summarise(runs_b) if runs_b else {}
    print(f"fingerprint {prints.pop()}")
    for (workload, name), (med, q1, q3, spread, vals) in table_a.items():
        bound = limits.get(name, {}).get("bound")
        line = (f"{workload:<20} {name:<56} n={len(vals):<3} "
                f"median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                f"spread {spread:7.2%}")
        if bound is not None:
            line += f" (bound {bound:.0%})"
        if (workload, name) in table_b:
            other = table_b[(workload, name)][0]
            move = (other - med) / med if med else 0.0
            line += f"  -> median {other:.6g} ({move:+.2%})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
