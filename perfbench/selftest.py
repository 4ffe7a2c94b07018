#!/usr/bin/env python3
"""The benchmark's own test.  Run from the root of a checkout::

    python3 perfbench/selftest.py [WORKLOAD ...]

Checks, for the named workloads (default: all four):

* ``BENCHMARK.json`` agrees with the code: workloads, end-to-end
  metrics and every per-layer metric of ``layers.json`` (name, unit,
  direction);
* the host-speed clock scales time by ``REFERENCE_S`` over the probe
  times around it, and leaves probing time out;
* two traced runs at one seed are correct and give identical
  ``calls_per_op``, per-op and ratio values, so later changes may cite
  those counts;
* the traced run reproduces the measured facts the benchmark was built
  on: Figure 5 with the inputs of the repository's ``run_fig5(32)``
  makes 592,596 ``note_echo`` calls for 50,220 distinct (receiver,
  sender id, key) triples; the authenticated broadcast and the Figure 5
  rules own at least 70% of a Figure 5 run; 24 of the 31 Figure 7
  rounds are timing-active; Figure 7 and the soak farm make no
  ``note_echo`` call.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

#: Runnable and self-tested, but not in BENCHMARK.json (see workloads.py).
UNGATED = "fig7-partition-n64"

#: Time-based per-layer metrics; every other one is an exact count.
TIMED_SUFFIXES = (".self_share", ".wait_share")
TIMED = ("trace.overhead_ratio", "trace.coverage")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def traced(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    expect(result["correct"] and result["failed"] == 0,
           f"traced {workload} run not correct:\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def is_count(name: str) -> bool:
    return not name.endswith(TIMED_SUFFIXES) and name not in TIMED


def check_spec() -> None:
    from run import END_TO_END_UNITS, LAYERS
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(w["name"], w["why"]) for w in bench["workloads"]]
           == [(name, cls.why) for name, cls in WORKLOADS.items()
               if name != UNGATED],
           "BENCHMARK.json workloads differ from workloads.py")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]}
           == END_TO_END_UNITS, "end-to-end metrics differ from run.py")
    layers = json.loads(LAYERS.read_text())["layers"]
    declared = [
        {"name": name, "unit": spec["unit"], "better": spec["better"]}
        for layer in layers.values()
        for name, spec in layer["metrics"].items()
    ]
    expect(bench["per_layer"] == declared,
           "BENCHMARK.json per_layer differs from layers.json")


def check_speed_clock() -> None:
    from speed import REFERENCE_S, SMOOTH, SpeedClock

    clock = SpeedClock()
    start = clock.now()
    clock.probe(force=True)
    expect(clock.now() - start < 0.01, "probing time not left out")
    clock.probes = [(float(t), REFERENCE_S) for t in range(4)]
    expect(abs(clock.scaled(0.5, 2.5) - 2.0) < 1e-9,
           "reference-speed probes must leave time unscaled")
    clock.probes = [(float(t), 2 * REFERENCE_S) for t in range(4)]
    expect(abs(clock.scaled(0.0, 3.0) - 1.5) < 1e-9,
           "a host at half speed must halve time")
    # One slow probe in the middle; every window that holds it averages
    # to twice the reference.
    middle = 2 * SMOOTH + 1
    spike = [REFERENCE_S] * (2 * middle + 1)
    spike[middle] = (2 * SMOOTH + 2) * REFERENCE_S
    clock.probes = [(float(t), s) for t, s in enumerate(spike)]
    expect(abs(clock.scaled(middle, middle + 1e-3) - 0.5e-3) < 1e-12,
           "a probe must be averaged with its neighbours")
    print("speed clock: scaling and smoothing hold")


def check_fig5_echo_counts() -> None:
    """The ROADMAP counts, with run_fig5(32)'s inputs (variant 0)."""
    from tracer import OP_SPAN, Tracer, derive
    from workloads import Fig5

    workload = Fig5()
    workload.setup()
    tracer = Tracer(ROOT / ".perfbench" / "selftest-spill")
    tracer.install()
    try:
        tracer.begin_op(0)
        call = workload.call(0, ROOT / ".perfbench",
                             span=lambda: tracer.span(OP_SPAN))
    finally:
        tracer.uninstall()
    expect(call.ok, f"fig5 variant 0 failed: {call.detail}")
    echo = "broadcast.authenticated.note_echo"
    specs = {
        f"{echo}.calls_per_op": {},
        f"{echo}.novel_ratio": {"from": f"ratio:echo_novel/calls:{echo}"},
    }
    metrics, _ = derive(tracer.collect(), 1, call.wall_s, specs)
    expect(metrics[f"{echo}.calls_per_op"] == 592_596,
           f"note_echo calls {metrics[f'{echo}.calls_per_op']} != 592596")
    expect(metrics[f"{echo}.novel_ratio"] == 50_220 / 592_596,
           f"novel ratio {metrics[f'{echo}.novel_ratio']} != 50220/592596")
    print("fig5 variant 0: 592596 note_echo calls, 50220 novel")


def check_workload(name: str) -> None:
    first, second = traced(name), traced(name)
    for metric, value in first.items():
        if is_count(metric):
            expect(second[metric] == value,
                   f"{name}: {metric} {value} then {second[metric]}")
    echo = first["broadcast.authenticated.note_echo.calls_per_op"]
    if name == "fig5-dls-n32":
        owned = sum(
            value for metric, value in first.items()
            if metric.endswith(".self_share") and metric.startswith(
                ("broadcast.authenticated.", "psync.dls_homonyms."))
        )
        expect(owned >= 0.7, f"fig5 broadcast+rules self share {owned} < 0.7")
    if name == "fig7-partition-n64":
        ratio = first["sim.timing.active_round_ratio"]
        expect(ratio == 24 / 31, f"fig7 active round ratio {ratio} != 24/31")
    if name in ("fig7-partition-n64", "soak-quick"):
        expect(echo == 0, f"{name} made {echo} note_echo calls per op")
    counts = sum(1 for metric in first if is_count(metric))
    print(f"{name}: {counts} count metrics identical across two traced runs")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = argv or list(WORKLOADS)
    try:
        check_spec()
        check_speed_clock()
        if "fig5-dls-n32" in names:
            check_fig5_echo_counts()
        for name in names:
            check_workload(name)
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
