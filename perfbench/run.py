#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig5-dls-n32 --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats the workload's call (see ``workloads.py``) for
about ``--seconds`` and reports the end-to-end metrics: ops per second,
the median and tail op latency, peak memory and set-up time (the
median of several fresh processes that import the program and build
the inputs).  Its times are seconds at the reference host speed: the
run probes the host's speed between ops and scales each measured
interval by it (``speed.py``), so a neighbour slowing the host down
does not read as a slower program.  The wall-clock figures and the
host speed are printed too.  ``--trace 1`` runs a fixed list of calls
twice, plain and then under the span tracer (``tracer.py``), and
reports the per-layer metrics of ``layers.json``.

Every call's output is checked: the program's own verdict, and the
digest of its output against ``digests.json`` (and, when traced,
against the plain pass).  A run executes under a fixed hash seed (see
``HASH_SEED``).  A call that fails the check or raises counts
all its ops as failed.  The last line of the output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the run fingerprint, which ``compare.py`` uses to refuse comparing
runs from different set-ups.

``--record-digests`` recomputes ``digests.json`` from the current
program (every variant of every workload).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_S, SpeedClock, WallClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
LAYERS = HERE / "layers.json"
#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 9
#: ``PYTHONHASHSEED`` of every run.  Set and dict iteration orders
#: follow the hash seed, and the program's work follows them: one atlas
#: sweep's median cell took 21-26 ms under hash seeds 1-3 and 31-33 ms
#: under 0, with identical outputs.  A run re-executes itself under
#: this seed, so every run (and the parent and a change) does the same
#: work.
HASH_SEED = "0"

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_digests:
        parser.error("--workload is required")
    return args


def fingerprint() -> dict:
    """What must match for two results to be comparable."""
    from repro.sim import fabric

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "array_path": fabric.array_path_enabled(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


#: Percentiles ``op_s_tail`` may report, highest first.  A fixed ladder
#: keeps the percentile from moving with each run's op count; p89 is
#: the highest one a single 96-cell atlas sweep supports.
TAIL_PERCENTILES = (99, 89)


def tail_percentile(count: int) -> int:
    """The highest ladder percentile with at least ten ops beyond it.

    Below 91 ops no ladder entry qualifies and the median is reported.
    """
    for pct in TAIL_PERCENTILES:
        if count * (100 - pct) >= 10 * 100:
            return pct
    return 50


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def checked(workload, variant, call, digests, label="") -> int:
    """Failed ops of ``call``: all of them unless verdict and digest hold."""
    want = digests.get(workload.name, {}).get(str(variant))
    problems = []
    if not call.ok:
        problems.append(f"verdict not ok ({call.detail})")
    if call.ops != workload.ops_per_call:
        problems.append(f"{call.ops} ops, expected {workload.ops_per_call}")
    if want is None:
        problems.append("no recorded digest")
    elif call.digest != want:
        problems.append(f"digest {call.digest[:12]} != recorded {want[:12]}")
    if problems:
        print(f"FAILED {label}variant {variant}: {'; '.join(problems)}",
              file=sys.stderr)
        return workload.ops_per_call
    return 0


def run_call(workload, variant, work, clock=WallClock(), **kwargs):
    """One call; a raise becomes a call whose ops all failed."""
    from workloads import Call

    start = clock.now()
    try:
        return workload.call(variant, work, clock=clock, **kwargs)
    except Exception:
        traceback.print_exc()
        end = clock.now()
        return Call(op_spans=[(start, end)] * workload.ops_per_call,
                    start=start, end=end, ok=False, digest="",
                    detail="raised")


def measure_setup(args, clock) -> list[tuple[float, float]]:
    """Spans on ``clock`` from spawning a fresh benchmark process to its
    first op, each between two probes."""
    samples = []
    for _ in range(SETUP_PROBES):
        clock.probe(force=True)
        start = clock.now()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--probe-setup"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            end = clock.now()
        finally:
            proc.stdout.close()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        clock.probe(force=True)
        samples.append((start, end))
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def timed_run(args, workload, digests, work):
    plan = workload.plan(args.seed)
    clock = SpeedClock()
    calls = []
    start = time.perf_counter()
    while True:
        variant = next(plan)
        clock.probe(force=True)
        calls.append((variant, run_call(workload, variant, work, clock)))
        # Past the workload's least number of calls, start no call
        # expected to end after --seconds.
        elapsed = time.perf_counter() - start
        if (len(calls) >= workload.min_calls
                and elapsed + elapsed / len(calls) > args.seconds):
            break
    clock.probe(force=True)
    rss = peak_rss_mb()
    setup = [clock.scaled(*span) for span in measure_setup(args, clock)]
    spans = [span for _, call in calls for span in call.op_spans]
    op_s = [clock.scaled(*span) for span in spans]
    calls_s = sum(clock.scaled(call.start, call.end) for _, call in calls)
    failed = sum(checked(workload, v, call, digests) for v, call in calls)
    pct = tail_percentile(len(op_s))
    metrics = {
        "ops_per_s": len(op_s) / calls_s,
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": percentile(op_s, pct),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup),
    }
    wall_op_s = [end - begin for begin, end in spans]
    host = statistics.median(s for _, s in clock.probes) / REFERENCE_S
    notes = {
        "op_s_p50": f"median of {len(op_s)} ops; "
                    f"wall {statistics.median(wall_op_s):.4g} s",
        "op_s_tail": f"p{pct} of {len(op_s)} ops; "
                     f"wall {percentile(wall_op_s, pct):.4g} s",
        "setup_s": f"median of {len(setup)} fresh processes",
        "ops_per_s": f"{len(op_s)} ops in {len(calls)} calls, "
                     f"variants {[v for v, _ in calls]}; wall "
                     f"{len(op_s) / sum(c.wall_s for _, c in calls):.4g}/s; "
                     f"host at 1/{host:.3g} of reference speed "
                     f"({len(clock.probes)} probes)",
    }
    return metrics, END_TO_END_UNITS, notes, len(op_s), failed, []


def traced_run(args, workload, digests, work):
    from tracer import OP_SPAN, Tracer, derive, save_spans

    plan = workload.plan(args.seed)
    variants = [next(plan) for _ in range(workload.traced_calls)]
    plain = [run_call(workload, v, work) for v in variants]
    tracer = Tracer(work / "spill")
    tracer.install()
    traced = []
    try:
        for op, variant in enumerate(variants):
            tracer.begin_op(op)
            traced.append(run_call(workload, variant, work,
                                   span=lambda: tracer.span(OP_SPAN)))
    finally:
        tracer.uninstall()
    chunks = tracer.collect()
    save_spans(chunks, ROOT / ".perfbench" / f"spans-{workload.name}.npz")

    failed = 0
    for variant, before, after in zip(variants, plain, traced):
        failed += checked(workload, variant, before, digests, "plain ")
        traced_failed = checked(workload, variant, after, digests, "traced ")
        if not traced_failed and after.digest != before.digest:
            print(f"FAILED variant {variant}: traced digest differs from "
                  f"the plain run's", file=sys.stderr)
            traced_failed = workload.ops_per_call
        failed += traced_failed
    ops = sum(call.ops for call in traced)
    specs = {
        name: spec
        for layer in json.loads(LAYERS.read_text())["layers"].values()
        for name, spec in layer["metrics"].items()
    }
    metrics, unmeasured = derive(chunks, ops,
                                 sum(call.wall_s for call in plain), specs)
    units = {name: spec["unit"] for name, spec in specs.items()}
    notes = {"trace.overhead_ratio": f"{len(variants)} calls, variants {variants}"}
    return metrics, units, notes, 2 * ops, failed, unmeasured


def record_digests(work) -> int:
    from workloads import WORKLOADS

    table = {}
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.setup()
        table[name] = {}
        for variant in range(workload.pool):
            call = workload.call(variant, work)
            if not call.ok or call.ops != workload.ops_per_call:
                print(f"{name} variant {variant} failed: {call.detail}",
                      file=sys.stderr)
                return 1
            table[name][str(variant)] = call.digest
            print(f"{name} variant {variant}: {call.digest} ({call.detail})")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable,
                  [sys.executable, str(HERE / "run.py"), *argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported repro from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        if args.record_digests:
            return record_digests(work)
        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from "
                  f"{sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload]()
        workload.setup()
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        digests = json.loads(DIGESTS.read_text())
        run = traced_run if args.trace else timed_run
        metrics, units, notes, attempted, failed, unmeasured = run(
            args, workload, digests, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<58} {value:>14.6g} {units[name]:<13} {note}")
    for name in unmeasured:
        print(f"  {name:<58} {'unmeasured':>14}")
    print(f"  {'failed_ratio':<58} {failed / attempted:>14.6g} "
          f"{'ratio':<13} {failed} of {attempted} ops")
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not unmeasured,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
