"""Scaling benchmark: the protocols as n grows.

Not a paper artefact (the paper leaves complexity open) but a release
requirement: users need the cost curve.  The series report decision
rounds and message counts as the system grows along two paper-relevant
trajectories:

* Figure 5 at the minimal solvable identifier count for each ``n``
  (``ell = floor((n + 3t)/2) + 1``);
* Figure 7 pinned at ``ell = t + 1`` while ``n`` grows -- the identifier
  count is *constant* in n, the whole point of the restricted model;
* raw kernel round throughput over the array fabric's target range
  (n into the thousands), written to ``BENCH_scaling.json`` so
  ``make bench-diff`` tracks the large-n win;
* Figure 5 on the shared broadcast receive path against the per-item
  loop it replaced (``tests/per_item_receive.py``), written to
  ``BENCH_echo.json``.

The cost-model bounds of :mod:`repro.analysis.complexity` are asserted
along the way, so the printed curves are guaranteed, not incidental.
"""

import time
from typing import Hashable

import pytest

from benchmarks.conftest import emit, run_once, snapshot, usable_cpus
from repro.analysis.complexity import (
    dls_all_decided_bound,
    restricted_all_decided_bound,
)
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.dls_homonyms import dls_factory
from repro.psync.restricted import restricted_factory
from repro.sim import fabric
from repro.sim.kernel import BasicPsync, ExecutionKernel
from repro.sim.partial import PartitionSchedule
from repro.sim.process import Process
from repro.sim.runner import run_agreement
from tests.per_item_receive import per_item_dls_factory

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS


def run_fig5(n, t=1, factory=dls_factory):
    ell = (n + 3 * t) // 2 + 1
    params = SystemParams(n=n, ell=ell, t=t, synchrony=PSYNC)
    byz = tuple(range(n - t, n))
    result = run_agreement(
        params=params,
        assignment=balanced_assignment(n, ell),
        factory=factory(params, BINARY),
        proposals={k: k % 2 for k in range(n - t)},
        byzantine=byz,
        max_rounds=dls_all_decided_bound(params, 0) + 8,
    )
    return params, result


def run_fig7(n, t=1):
    ell = t + 1
    params = SystemParams(n=n, ell=ell, t=t, synchrony=PSYNC,
                          numerate=True, restricted=True)
    byz = tuple(range(n - t, n))
    result = run_agreement(
        params=params,
        assignment=balanced_assignment(n, ell),
        factory=restricted_factory(params, BINARY),
        proposals={k: k % 2 for k in range(n - t)},
        byzantine=byz,
        max_rounds=restricted_all_decided_bound(params, 0) + 8,
    )
    return params, result


def test_scaling_fig5(benchmark):
    def body():
        rows = []
        for n in (6, 8, 10, 12, 14):
            params, result = run_fig5(n)
            assert result.verdict.ok
            assert result.verdict.last_decision_round <= \
                dls_all_decided_bound(params, 0)
            rows.append((n, params.ell,
                         result.verdict.last_decision_round,
                         result.metrics.total_messages))
        return rows

    rows = run_once(benchmark, body)
    emit("Figure 5 scaling at minimal ell (t=1)",
         [("n", "ell", "last decision round", "messages")] + rows)
    # Identifier demand grows with n -- the unrestricted model's tax.
    ells = [row[1] for row in rows]
    assert ells == sorted(ells) and ells[-1] > ells[0]


def test_scaling_fig7(benchmark):
    def body():
        rows = []
        for n in (4, 6, 8, 10, 12):
            params, result = run_fig7(n)
            assert result.verdict.ok
            assert result.verdict.last_decision_round <= \
                restricted_all_decided_bound(params, 0)
            rows.append((n, params.ell,
                         result.verdict.last_decision_round,
                         result.metrics.total_messages))
        return rows

    rows = run_once(benchmark, body)
    emit("Figure 7 scaling at ell = t + 1 (t=1)",
         [("n", "ell", "last decision round", "messages")] + rows)
    # Identifier demand is constant in n -- the restricted dividend.
    assert {row[1] for row in rows} == {2}


# ----------------------------------------------------------------------
# Large-n fabric range
# ----------------------------------------------------------------------
class _Broadcaster(Process):
    """Constant-shape sender: times the delivery engine, nothing else."""

    def compose(self, round_no: int) -> Hashable:
        return ("vote", self.identifier, round_no % 4)

    def deliver(self, round_no: int, inbox) -> None:
        pass


def _kernel_at(n: int) -> ExecutionKernel:
    ell = max(4, n // 8)
    params = SystemParams(n=n, ell=ell, t=1, synchrony=PSYNC)
    assignment = balanced_assignment(n, ell)
    half = n // 2
    return ExecutionKernel(
        params=params,
        assignment=assignment,
        processes=[
            _Broadcaster(assignment.identifier_of(k)) for k in range(n)
        ],
        # Always-active partition: the removal machinery works every
        # round, the regime the array fabric exists for.
        timing=BasicPsync(
            PartitionSchedule(
                10**9, tuple(range(half)), tuple(range(half, n))
            ),
            None,
        ),
    )


LARGE_NS = (128, 256, 512, 1024)


def test_scaling_large_n_kernel_throughput(benchmark):
    """Kernel steps/s over the array fabric's target range, snapshotted
    as ``BENCH_scaling.json`` for the bench-diff trajectory."""
    rounds = 6

    def body():
        series = []
        for n in LARGE_NS:
            engine = _kernel_at(n)
            t0 = time.perf_counter()
            engine.run(max_rounds=rounds, stop_when_all_decided=False)
            series.append((n, rounds / (time.perf_counter() - t0)))
        return series

    series = run_once(benchmark, body)
    path = "array" if fabric.array_path_enabled() else "scalar"
    emit(f"Kernel round throughput, always-active partition ({path} path)", [
        ("n", "steps/s"),
        *[(n, f"{sps:.1f}") for n, sps in series],
    ])
    benchmark.extra_info["steps_per_s"] = {
        n: round(sps, 1) for n, sps in series
    }
    by_n = dict(series)
    snapshot(
        "scaling",
        {"ns": list(LARGE_NS), "rounds": rounds,
         "schedule": "partition-always"},
        ops_per_s=by_n[256],
        extra={
            "path": path,
            "steps_per_s": {str(n): round(sps, 1) for n, sps in series},
        },
    )
    # Even the scalar fallback clears one round/s at n=1024; the array
    # path clears it by orders of magnitude.  A floor, not a race.
    assert by_n[1024] >= 1.0


# ----------------------------------------------------------------------
# Echo work: the shared receive path vs the per-item loop
# ----------------------------------------------------------------------
def _timed_fig5(n, factory):
    t0 = time.perf_counter()
    _params, result = run_fig5(n, factory=factory)
    return time.perf_counter() - t0, result


def _outputs(result):
    return (
        repr(result.trace.snapshot()),
        result.metrics,
        [(p.decision, p.decision_round)
         for p in result.processes if p is not None],
    )


def test_echo_receive_speedup(benchmark):
    """Figure 5 at n=32 and n=48: the shared receive path (each echo
    counted once per sender id, each bundle parsed once) against the
    per-item loop, with identical outputs; >= 2x at n=32 on >= 2 CPUs.
    The n=48 ratio is recorded, not asserted."""
    ns = (32, 48)

    def body():
        rows = {}
        for n in ns:
            shared_s, shared = _timed_fig5(n, dls_factory)
            per_item_s, per_item = _timed_fig5(n, per_item_dls_factory)
            assert shared.verdict.ok
            assert _outputs(shared) == _outputs(per_item)
            rows[n] = (shared_s, per_item_s)
        return rows

    rows = run_once(benchmark, body)
    emit("Figure 5 broadcast receive: shared path vs per-item loop", [
        ("n", "shared s", "per-item s", "speedup"),
        *[(n, f"{a:.2f}", f"{b:.2f}", f"{b / a:.2f}x")
          for n, (a, b) in rows.items()],
    ])
    speedups = {n: b / a for n, (a, b) in rows.items()}
    benchmark.extra_info["speedup"] = {
        n: round(x, 2) for n, x in speedups.items()
    }
    snapshot(
        "echo",
        {"ns": list(ns), "t": 1, "timing": "lock-step"},
        ops_per_s=1.0 / rows[32][0],
        speedup=speedups[32],
        extra={"n48_speedup": round(speedups[48], 2)},
    )
    if usable_cpus() >= 2:
        assert speedups[32] >= 2.0, (
            f"expected >= 2x at n=32, got {speedups[32]:.2f}x"
        )
