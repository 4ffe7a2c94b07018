"""Benchmark: campaign engine vs sequential harness throughput.

The campaign engine shards the quick Table 1 battery into ~20 workload
units and fans them out over a process pool.  This bench times the
sequential harness and the 4-worker campaign over the same battery,
reports runs/second for both, and checks the verdicts agree run by run.

The >= 2x speedup assertion only applies where it is physically
possible: it is gated on at least 4 usable CPUs (single-CPU CI
containers still run the bench and still check correctness, but a
process pool cannot beat one core with CPU-bound work there).  On a
loaded shared machine the threshold can be tuned (or disabled with 0)
via ``CAMPAIGN_BENCH_MIN_SPEEDUP``.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import emit, run_once, snapshot, usable_cpus
from repro.experiments.campaign import run_campaign, table1_cells
from repro.experiments.harness import evaluate_cell


def test_campaign_vs_sequential_throughput(benchmark):
    """Quick battery: sequential harness vs 4-worker campaign."""

    def body():
        t0 = time.perf_counter()
        sequential = [
            evaluate_cell(params, quick=True) for _, params in table1_cells()
        ]
        seq_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        report = run_campaign(workers=4, quick=True)
        par_s = time.perf_counter() - t0
        return sequential, seq_s, report, par_s

    sequential, seq_s, report, par_s = run_once(benchmark, body)

    campaign = report.cell_results()
    assert len(campaign) == len(sequential)
    for seq, par in zip(sequential, campaign):
        assert par.params == seq.params
        assert [(r.label, r.ok) for r in par.runs] == [
            (r.label, r.ok) for r in seq.runs
        ]
        assert par.empirically_consistent and seq.empirically_consistent

    total_runs = sum(len(c.runs) for c in sequential)
    speedup = seq_s / par_s if par_s else float("inf")
    cpus = usable_cpus()
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cpus"] = cpus
    snapshot(
        "campaign",
        {"workers": 4, "quick": True, "cells": len(campaign)},
        ops_per_s=total_runs / par_s if par_s else float("inf"),
        speedup=speedup,
        extra={"cpus": cpus},
    )
    emit("Campaign throughput (quick Table 1 battery)", [
        ("mode", "wall s", "runs/s"),
        ("sequential harness", f"{seq_s:.2f}", f"{total_runs / seq_s:.1f}"),
        ("campaign --workers 4", f"{par_s:.2f}",
         f"{total_runs / par_s:.1f}"),
        ("speedup", f"{speedup:.2f}x", f"(on {cpus} usable CPU(s))"),
    ])
    min_speedup = float(os.environ.get("CAMPAIGN_BENCH_MIN_SPEEDUP", "2.0"))
    if cpus >= 4 and min_speedup > 0:
        assert speedup >= min_speedup, (
            f"expected >= {min_speedup}x at 4 workers on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )


def test_campaign_resume_skips_completed_units(benchmark, tmp_path):
    """A warm cache turns the battery into pure aggregation."""
    from repro.experiments.campaign import CampaignCache

    cache = CampaignCache(tmp_path / "units")
    cold = run_campaign(quick=True, cache=cache, resume=True)

    def body():
        return run_campaign(quick=True, cache=cache, resume=True)

    warm = run_once(benchmark, body)
    assert warm.executed == 0
    assert warm.cached == len(cold.unit_results)
    assert warm.canonical_dict() == cold.canonical_dict()
    emit("Campaign resume (warm cache)", [
        ("cold wall s", f"{cold.elapsed_s:.2f}"),
        ("warm wall s", f"{warm.elapsed_s:.3f}"),
        ("units cached", warm.cached),
    ])
    assert warm.elapsed_s < cold.elapsed_s / 5
