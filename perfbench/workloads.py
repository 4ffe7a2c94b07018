"""The benchmark's workloads: inputs, one call, and the output gate.

``BENCHMARK.json`` gates three of them.  ``fig7-partition-n64`` stays
runnable by name, and ``selftest.py`` checks its traced counts, but it
is not gated: measured in wall seconds on a shared 2-CPU host its run
medians swung by more than the 25% bound a gated metric may have, and
a fourth gated workload would not fit the time a check of every
workload may take.

Each workload owns a pool of input variants (four, two for the atlas).
Variant ``v`` is a fixed function of ``v`` (variant 0 is the canonical
input of the repository's own benches), so every variant's output
digest can be recorded once in ``digests.json`` and checked on every
run, whatever the seed.  The ``--seed`` picks where a run starts in the
pool; a run then cycles through the variants, so every run sees the
same mix.

A *call* is the unit a run repeats: one execution for the Figure 5 and
Figure 7 workloads, one ``run_soak`` farm (8 windows) for the soak
workload and one ``run_atlas`` sweep (96 cells) for the atlas workload.
It reports when it and each of its ops started and ended on the clock
it was given (see ``speed.py``), the program's own verdict and the
digest of its output.  A call may let the clock probe the host's speed
between two of its ops (``clock.probe()``), never inside one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.complexity import (
    dls_all_decided_bound,
    restricted_all_decided_bound,
)
from repro.atlas import driver as atlas_driver
from repro.atlas.lattice import quick_lattice
from repro.core.canonical import canonical_key
from repro.core.identity import balanced_assignment
from repro.core.params import Synchrony, SystemParams
from repro.core.problem import BINARY
from repro.experiments.campaign import CampaignCache
from repro.psync.dls_homonyms import dls_factory
from repro.psync.restricted import restricted_factory
from repro.sim import kernel as sim_kernel
from repro.sim import runner
from repro.sim.partial import PartitionSchedule
from repro.soak import driver as soak_driver
from speed import WallClock

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS


@dataclass
class Call:
    """What one call did: when it and its ops ran, verdict, digest."""

    #: Each op's ``(start, end)`` on the call's clock.
    op_spans: list[tuple[float, float]]
    start: float
    end: float
    ok: bool
    digest: str
    detail: str = ""

    @property
    def ops(self) -> int:
        return len(self.op_spans)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Base: a named pool of variants and the run's variant order."""

    name: str
    #: Input variants.
    pool: int = 4
    #: Ops one call performs (used to count the ops of a call that raised).
    ops_per_call: int = 1
    #: Calls of the traced run (a fixed list, so its counts are exact).
    traced_calls: int = 2
    #: Calls a timed run makes even past ``--seconds``.
    min_calls: int = 1
    why: str

    def plan(self, seed: int):
        """Endless variant order for ``seed``: a seeded rotation of the pool."""
        start = random.Random(f"{self.name}/{seed}").randrange(self.pool)
        index = 0
        while True:
            yield (start + index) % self.pool
            index += 1

    def setup(self) -> None:
        """Generate every variant's inputs."""

    def call(self, variant: int, work: Path, span=contextlib.nullcontext,
             clock=WallClock()) -> Call:
        raise NotImplementedError


def _proposals(name: str, variant: int, correct: range) -> dict[int, int]:
    if variant == 0:
        return {k: k % 2 for k in correct}
    rng = random.Random(f"{name}/variant/{variant}")
    return {k: rng.randrange(2) for k in correct}


def execution_digest(engine) -> str:
    """Digest of one execution: decisions, decision rounds, deliveries."""
    decided = [
        (k, canonical_key(p.decision), p.decision_round)
        for k, p in enumerate(engine.processes)
        if p is not None and p.decided
    ]
    deliveries = [dataclasses.astuple(d) for d in engine.deliveries]
    blob = json.dumps({"decided": decided, "deliveries": deliveries},
                      sort_keys=True, separators=(",", ":"))
    return sha256_hex(blob.encode())


class _Execution(Workload):
    """One protocol execution per op (Figures 5 and 7)."""

    traced_calls = 2

    def _inputs(self, variant: int) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        self.inputs = [self._inputs(v) for v in range(self.pool)]

    def call(self, variant, work, span=contextlib.nullcontext,
             clock=WallClock()):
        spec = self.inputs[variant]
        start = clock.now()
        with span():
            processes = runner.make_processes(
                spec["factory"], spec["assignment"], spec["proposals"],
                spec["byzantine"],
            )
            engine = sim_kernel.ExecutionKernel(
                params=spec["params"],
                assignment=spec["assignment"],
                processes=processes,
                byzantine=spec["byzantine"],
                timing=spec["timing"](),
            )
            executed = engine.run(max_rounds=spec["max_rounds"])
            result = runner.result_from_kernel(engine, executed)
        end = clock.now()
        return Call(
            op_spans=[(start, end)], start=start, end=end,
            ok=result.verdict.ok,
            digest=execution_digest(engine),
            detail=f"{executed} rounds, {result.verdict.summary()}",
        )


#: Figure 5 proposal patterns (slot index -> value).  Variant 0 is
#: ``run_fig5(32)``'s input; all four make exactly the same echo work
#: (592,596 ``note_echo`` calls), so which variants a run draws does not
#: change its op-time distribution.
FIG5_PATTERNS = (
    lambda k: k % 2,
    lambda k: 1 - k % 2,
    lambda k: int(k % 3 == 0),
    lambda k: int(k % 3 == 1),
)


class Fig5(_Execution):
    name = "fig5-dls-n32"
    why = ("Figure 5 DLS at n=32, t=1, minimal ell=18, lock-step: the "
           "authenticated broadcast (echo bookkeeping, item parsing) does "
           "almost all the work; timing and fabric masks are idle")

    def _inputs(self, variant):
        n, t = 32, 1
        ell = (n + 3 * t) // 2 + 1
        params = SystemParams(n=n, ell=ell, t=t, synchrony=PSYNC)
        return {
            "params": params,
            "assignment": balanced_assignment(n, ell),
            "factory": dls_factory(params, BINARY),
            "proposals": {k: FIG5_PATTERNS[variant](k) for k in range(n - t)},
            "byzantine": tuple(range(n - t, n)),
            "timing": sim_kernel.LockStep,
            "max_rounds": dls_all_decided_bound(params, 0) + 8,
        }


class Fig7(_Execution):
    name = "fig7-partition-n64"
    why = ("Figure 7 restricted numerate protocol at n=64, ell=2 under a "
           "two-block partition until GST round 24: the numpy mask and "
           "row-sharing fabric path runs on 24 of 31 rounds")
    gst = 24

    def _inputs(self, variant):
        n, t, ell = 64, 1, 2
        params = SystemParams(n=n, ell=ell, t=t, synchrony=PSYNC,
                              numerate=True, restricted=True)
        half = (n - t) // 2
        return {
            "params": params,
            "assignment": balanced_assignment(n, ell),
            "factory": restricted_factory(params, BINARY),
            "proposals": _proposals(self.name, variant, range(n - t)),
            "byzantine": tuple(range(n - t, n)),
            "timing": lambda: sim_kernel.BasicPsync(PartitionSchedule(
                self.gst, range(half), range(half, n - t))),
            "max_rounds": restricted_all_decided_bound(params, self.gst) + 8,
        }


class Soak(Workload):
    name = "soak-quick"
    why = ("run_soak quick profile, 2 workers, window 50: thousands of tiny "
           "mixed kernels (T(A) over EIG, every adversary and timing kind), "
           "the pool, the unit cache and log writes")
    window = 50
    windows = 8
    ops_per_call = windows
    traced_calls = 2

    def call(self, variant, work, span=contextlib.nullcontext,
             clock=WallClock()):
        root = work / f"soak-{variant}"
        shutil.rmtree(root, ignore_errors=True)
        log = root / "soak.jsonl"
        scheduled: list[float] = []
        flushed: list[float] = []
        execute_units = soak_driver.execute_units

        def timed_execute_units(pending, workers, finish):
            scheduled.extend([clock.now()] * len(pending))
            return execute_units(pending, workers, finish)

        soak_driver.execute_units = timed_execute_units
        try:
            start = clock.now()
            with span():
                outcome = soak_driver.run_soak(
                    "quick", seed=variant,
                    instances=self.window * self.windows, window=self.window,
                    workers=2, cache=CampaignCache(root / "cache"),
                    log_path=str(log),
                    progress=lambda _line: flushed.append(clock.now()),
                )
            end = clock.now()
        finally:
            soak_driver.execute_units = execute_units
        digest = sha256_hex(log.read_bytes())
        shutil.rmtree(root, ignore_errors=True)
        # A window's latency: scheduled on the pool -> its rows logged.
        return Call(
            op_spans=list(zip(scheduled, flushed)), start=start, end=end,
            ok=(outcome.passed and outcome.instances == self.window * self.windows
                and len(flushed) == self.windows),
            digest=digest, detail=outcome.summary(),
        )


class Atlas(Workload):
    name = "atlas-quick"
    why = ("run_atlas over the 96-cell quick lattice, inline: the only "
           "workload running atlas evidence, the campaign harness and the "
           "explorer's checkpoint/restore search; cell costs vary widely")
    ops_per_call = 96
    traced_calls = 1
    # Cell times cluster, and the battery seed moves cells between
    # clusters: the median cell of one sweep sits in a gap between two
    # clusters and differs by up to 40% from seed to seed.  So a timed
    # run sweeps both battery seeds of the pool, whatever its --seed
    # (which only picks the order): every run times the same 192 cells.
    pool = 2
    min_calls = 2

    def setup(self) -> None:
        self.lattice = quick_lattice()
        self.cells = len(self.lattice.cells())

    def call(self, variant, work, span=contextlib.nullcontext,
             clock=WallClock()):
        root = work / f"atlas-{variant}"
        shutil.rmtree(root, ignore_errors=True)
        log = root / "atlas.jsonl"
        stamps: list[float] = []

        def logged(_line):
            stamps.append(clock.now())
            clock.probe()

        start = clock.now()
        with span():
            outcome = atlas_driver.run_atlas(
                self.lattice, log_path=str(log), seed=variant, quick=True,
                workers=1, cache=CampaignCache(root / "cache"),
                progress=logged,
            )
        end = clock.now()
        digest = sha256_hex(log.read_bytes())
        shutil.rmtree(root, ignore_errors=True)
        # A cell's latency: the previous row logged -> its row logged.
        edges = [start] + stamps
        return Call(
            op_spans=list(zip(edges, edges[1:])), start=start, end=end,
            ok=outcome.ok and outcome.written == self.cells,
            digest=digest, detail=outcome.summary(),
        )


WORKLOADS = {w.name: w for w in (Fig5, Fig7, Soak, Atlas)}
