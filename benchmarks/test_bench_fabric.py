"""Benchmark: message-fabric delivery vs the pre-fabric receiver loop.

:class:`~repro.sim.kernel.ExecutionKernel` materialises each round's
common delivery multiset once and stamps per-receiver inboxes from it;
:class:`~repro.sim.network.ReferenceRoundEngine` keeps the old
O(n^2 log n) rebuild-and-sort loop.  This bench steps both engines over
identical workloads at n >= 64, reports steps/second, checks the traces
and exact delivery logs stay byte-identical, and asserts the fabric is
at least 2x faster on the clean hot path.

Like the campaign bench, the speedup assertion is gated so contended CI
machines don't flake: it applies only with at least 2 usable CPUs and
can be tuned (or disabled with 0) via ``FABRIC_BENCH_MIN_SPEEDUP``.
"""

from __future__ import annotations

import os
import time
from typing import Hashable

import pytest

from benchmarks.conftest import emit, run_once, snapshot
from repro.adversaries.generic import RandomByzantineAdversary
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.sim import fabric
from repro.sim.kernel import BasicPsync, ExecutionKernel, LockStep
from repro.sim.network import ReferenceRoundEngine
from repro.sim.partial import PartitionSchedule
from repro.sim.process import Process


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class BroadcastProcess(Process):
    """Minimal sender so the bench times the engine, not an algorithm."""

    def compose(self, round_no: int) -> Hashable:
        return ("vote", self.identifier, round_no % 4)

    def deliver(self, round_no: int, inbox) -> None:
        pass


def _build(cls, n: int, ell: int, byzantine, adversary):
    params = SystemParams(
        n=n, ell=ell, t=max(1, len(byzantine)),
        synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
    )
    assignment = balanced_assignment(n, ell)
    processes = [
        None if k in byzantine
        else BroadcastProcess(assignment.identifier_of(k))
        for k in range(n)
    ]
    return cls(
        params=params, assignment=assignment, processes=processes,
        byzantine=byzantine, adversary=adversary,
    )


def _steps_per_second(engine, rounds: int) -> float:
    t0 = time.perf_counter()
    engine.run(max_rounds=rounds, stop_when_all_decided=False)
    return rounds / (time.perf_counter() - t0)


def test_fabric_step_throughput(benchmark):
    """n=64 clean hot path plus a byz-delta variant; >= 2x on the former."""
    n, ell, rounds = 64, 16, 40
    byz = (62, 63)

    def body():
        results = {}
        for label, adversary_fn in (
            ("clean", lambda: None),
            ("byz-delta", lambda: RandomByzantineAdversary(seed=11)),
        ):
            fabric = _build(ExecutionKernel, n, ell, byz, adversary_fn())
            reference = _build(ReferenceRoundEngine, n, ell, byz,
                               adversary_fn())
            fabric_sps = _steps_per_second(fabric, rounds)
            reference_sps = _steps_per_second(reference, rounds)
            # Differential check: same fabric, same physics.
            assert len(fabric.trace) == len(reference.trace) == rounds
            for a, b in zip(fabric.trace, reference.trace):
                assert (a.payloads, a.emissions) == (b.payloads, b.emissions)
            assert fabric.deliveries == reference.deliveries
            results[label] = (fabric_sps, reference_sps)
        return results

    results = run_once(benchmark, body)

    cpus = _usable_cpus()
    rows = [("workload", "fabric steps/s", "reference steps/s", "speedup")]
    for label, (fabric_sps, reference_sps) in results.items():
        rows.append((
            label, f"{fabric_sps:.1f}", f"{reference_sps:.1f}",
            f"{fabric_sps / reference_sps:.2f}x",
        ))
    emit(f"ExecutionKernel.step() fabric vs reference (n={n})", rows)

    clean_speedup = results["clean"][0] / results["clean"][1]
    benchmark.extra_info["clean_speedup"] = round(clean_speedup, 2)
    benchmark.extra_info["cpus"] = cpus
    snapshot(
        "fabric",
        {"n": n, "ell": ell, "rounds": rounds, "byzantine": len(byz)},
        ops_per_s=results["clean"][0],
        speedup=clean_speedup,
        extra={"byz_delta_speedup": round(
            results["byz-delta"][0] / results["byz-delta"][1], 2
        )},
    )
    min_speedup = float(os.environ.get("FABRIC_BENCH_MIN_SPEEDUP", "2.0"))
    if cpus >= 2 and min_speedup > 0:
        assert clean_speedup >= min_speedup, (
            f"expected >= {min_speedup}x fabric speedup at n={n}, "
            f"got {clean_speedup:.2f}x"
        )


def _build_timed(n: int, timing) -> ExecutionKernel:
    ell = max(4, n // 4)
    params = SystemParams(
        n=n, ell=ell, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS,
    )
    assignment = balanced_assignment(n, ell)
    processes = [
        BroadcastProcess(assignment.identifier_of(k)) for k in range(n)
    ]
    return ExecutionKernel(
        params=params, assignment=assignment, processes=processes,
        timing=timing,
    )


def _always_active_partition(n: int) -> PartitionSchedule:
    # An effectively infinite gst keeps the removal machinery engaged
    # every round -- the worst case for the per-receiver dict fabric,
    # the representative case for the mask path (two distinct rows).
    half = n // 2
    return PartitionSchedule(
        10**9, tuple(range(half)), tuple(range(half, n))
    )


@pytest.mark.skipif(
    not fabric.HAVE_NUMPY,
    reason="array path needs numpy (REPRO_NO_NUMPY unset)",
)
def test_fabric_array_gate(benchmark):
    """The PR 9 gate: the numpy mask path delivers >= 5x the dict
    fabric's round throughput at n=256 on an always-active removal
    workload, byte-identically."""
    n, rounds = 256, 10

    def body():
        with fabric.forced_path(True):
            array_engine = _build_timed(n, BasicPsync(
                _always_active_partition(n), None
            ))
            array_sps = _steps_per_second(array_engine, rounds)
        with fabric.forced_path(False):
            scalar_engine = _build_timed(n, BasicPsync(
                _always_active_partition(n), None
            ))
            scalar_sps = _steps_per_second(scalar_engine, rounds)
        # Differential check: both paths, same physics, byte for byte.
        assert array_engine.deliveries == scalar_engine.deliveries
        assert array_engine.losses == scalar_engine.losses
        assert array_engine.trace.snapshot() == scalar_engine.trace.snapshot()

        # Large-n wall clock: n=1000 lockstep rounds complete in seconds.
        with fabric.forced_path(True):
            big = _build_timed(1000, LockStep())
            big_sps = _steps_per_second(big, rounds)
        return array_sps, scalar_sps, big_sps

    array_sps, scalar_sps, big_sps = run_once(benchmark, body)
    speedup = array_sps / scalar_sps
    emit(f"Array fabric vs dict fabric (n={n}, always-active partition)", [
        ("path", "steps/s"),
        ("array (numpy masks)", f"{array_sps:.1f}"),
        ("scalar (dict fabric)", f"{scalar_sps:.1f}"),
        ("speedup", f"{speedup:.2f}x"),
        ("n=1000 lockstep", f"{big_sps:.1f}"),
    ])
    benchmark.extra_info["array_speedup"] = round(speedup, 2)
    benchmark.extra_info["lockstep_1000_sps"] = round(big_sps, 1)
    snapshot(
        "fabric_array",
        {"n": n, "rounds": rounds, "schedule": "partition-always"},
        ops_per_s=array_sps,
        speedup=speedup,
        extra={"lockstep_1000_sps": round(big_sps, 1)},
    )
    cpus = _usable_cpus()
    min_speedup = float(
        os.environ.get("FABRIC_ARRAY_BENCH_MIN_SPEEDUP", "5.0")
    )
    if cpus >= 2 and min_speedup > 0:
        assert speedup >= min_speedup, (
            f"expected >= {min_speedup}x array-path speedup at n={n}, "
            f"got {speedup:.2f}x"
        )
        # "n=1000 lockstep runs completing in seconds": >= 10 rounds/s
        # is two orders of magnitude inside that envelope.
        assert big_sps >= 10, f"n=1000 lockstep too slow: {big_sps:.1f} sps"


def test_fabric_scaling_profile(benchmark):
    """Steps/s across n: the gap widens with the quadratic receiver loop."""

    def body():
        series = []
        for n in (16, 32, 64, 96):
            fabric = _build(ExecutionKernel, n, max(4, n // 4), (n - 1,), None)
            reference = _build(
                ReferenceRoundEngine, n, max(4, n // 4), (n - 1,), None
            )
            rounds = 12
            series.append((
                n,
                _steps_per_second(fabric, rounds),
                _steps_per_second(reference, rounds),
            ))
        return series

    series = run_once(benchmark, body)
    emit("Fabric scaling (steps/s)", [
        ("n", "fabric", "reference", "speedup"),
        *[(n, f"{f:.1f}", f"{r:.1f}", f"{f / r:.2f}x")
          for n, f, r in series],
    ])
    benchmark.extra_info["speedups"] = {
        n: round(f / r, 2) for n, f, r in series
    }
