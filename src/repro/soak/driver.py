"""The soak farm driver: sustained agreement traffic with a streaming log.

One :func:`run_soak` call drives the deterministic instance stream of a
profile (:mod:`repro.soak.mixture`) window by window:

1. every window of ``window`` consecutive instances becomes one
   ``kind="soak"`` campaign unit
   (:func:`repro.experiments.campaign.soak_window_unit`, the
   constructor behind :func:`~repro.experiments.campaign.
   enumerate_soak_units`), executed on batched kernels and fanned out
   wave by wave over the campaign engine's one pool loop
   (:func:`repro.experiments.campaign.execute_units`) with its
   content-hash disk cache and prompt cancel-on-first-failure;
2. finished windows stream into an append-only JSONL log
   (:class:`~repro.atlas.stream.AtlasLog`) **in stream order**, through
   a :class:`~repro.experiments.campaign.ReorderBuffer` -- one
   row per instance plus one *checkpoint row* per window carrying the
   cumulative verdict/latency/loss counters
   (:class:`~repro.sim.metrics.WindowAggregator`);
3. the farm stops at the ``instances`` budget, the ``duration``
   wall-clock budget, or never (both ``None`` is refused -- pass an
   explicit budget).

Resume contract: every row is a deterministic function of
``(profile, seed, index)`` -- no wall-clock data is ever logged -- and
row ids are content hashes (:data:`~repro.soak.mixture.SOAK_SCHEMA`
salted), so ``resume=True`` keeps the longest valid prefix of an
existing log (torn final lines repaired, mid-window kills resumed
mid-window) and the finished log is **byte-identical** to an
uninterrupted run with the same seed and budget.  Throughput is
reported on the outcome only, never logged.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping

from repro.atlas.stream import AtlasLog
from repro.core.canonical import canonical_json
from repro.core.errors import ConfigurationError, SimulationError
from repro.experiments.campaign import (
    CampaignCache,
    CampaignUnit,
    ReorderBuffer,
    enumerate_soak_units,
    execute_units,
    soak_window_unit,
)
from repro.sim.metrics import WindowAggregator
from repro.soak.mixture import SOAK_SCHEMA, get_profile, sample_instance


def checkpoint_id(
    profile: str, seed: int, window_index: int, end: int
) -> str:
    """Content hash of a checkpoint row's identity.

    Covers the window's position *and* the stream offset it closes at
    (``end``), so a short final window of a smaller budget never
    collides with the same-index full window of a larger one -- resume
    cuts the prefix at the divergence instead of mixing budgets.
    """
    payload = canonical_json(
        [SOAK_SCHEMA, "checkpoint", profile, seed, window_index, end]
    )
    return hashlib.sha1(payload.encode()).hexdigest()[:16]


def window_plan(
    instances: int, window: int
) -> list[tuple[int, int, int]]:
    """The ``(window_index, start, count)`` triples of a bounded farm."""
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    return [
        (w, start, min(window, instances - start))
        for w, start in enumerate(range(0, instances, window))
    ]


def expected_row_ids(
    profile: str, seed: int, instances: int, window: int
) -> list[str]:
    """The full expected log-row id sequence of a bounded farm.

    Per window: one instance id per index, then the checkpoint id.
    This is what :meth:`~repro.atlas.stream.AtlasLog.resume_prefix`
    validates an existing log against.
    """
    ids: list[str] = []
    for w, start, count in window_plan(instances, window):
        for index in range(start, start + count):
            ids.append(sample_instance(profile, seed, index).instance_id)
        ids.append(checkpoint_id(profile, seed, w, start + count))
    return ids


@dataclass
class SoakOutcome:
    """Aggregate outcome of one soak run.

    Per-instance rows live in the JSONL log; this object stays O(1) in
    the stream length.  ``instances`` and the verdict/cost counters are
    *cumulative over the log* (resumed rows included); ``elapsed_s``
    and :meth:`throughput` cover this call's wall clock only and are
    never written to the log.
    """

    profile: str
    seed: int
    window: int
    log_path: Path
    budget: int | None = None
    resumed_rows: int = 0
    written_rows: int = 0
    executed_windows: int = 0
    cached_windows: int = 0
    instances: int = 0
    ok: int = 0
    violations: int = 0
    rounds: int = 0
    messages: int = 0
    losses: int = 0
    executed_instances: int = 0
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        """True when no instance violated agreement."""
        return self.violations == 0

    def throughput(self) -> float:
        """Executed instances per second of this call's wall clock."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.executed_instances / self.elapsed_s

    def summary(self) -> str:
        """One-paragraph human-readable tally."""
        return (
            f"soak[{self.profile}] seed={self.seed}: "
            f"{self.instances} instances "
            f"({self.resumed_rows} rows resumed, "
            f"{self.cached_windows} windows cached, "
            f"{self.executed_windows} executed) -- "
            f"{self.ok} ok, {self.violations} violations, "
            f"{self.losses} loss edges, "
            f"{self.rounds} rounds, {self.messages} messages; "
            f"{self.executed_instances} instances this call in "
            f"{self.elapsed_s:.2f}s ({self.throughput():.0f}/s)"
        )


def _instance_row(spec, record: Mapping) -> dict:
    """One deterministic log row for a finished instance."""
    if record["label"] != spec.describe():
        # The worker sampled a different spec for this index than the
        # driver -- sampling code drift between processes, never
        # tolerable in a content-addressed stream.
        raise SimulationError(
            f"soak instance {spec.index} label mismatch: worker ran "
            f"{record['label']!r}, driver expected {spec.describe()!r}"
        )
    return {
        "unit_id": spec.instance_id,
        "kind": "instance",
        "index": spec.index,
        "label": record["label"],
        "ok": record["ok"],
        "detail": record["detail"],
        "rounds": record["rounds"],
        "messages": record["messages"],
        "losses": record["losses"],
    }


def _covering_expected_ids(
    log: AtlasLog, profile: str, seed: int, window: int
) -> list[str]:
    """Expected ids covering every line of an unbounded farm's log.

    Duration-budget farms have no fixed instance count, so the expected
    sequence is generated just far enough to cover the file's existing
    lines (each window contributes ``window + 1`` rows).
    """
    if not log.path.exists():
        return []
    with log.path.open("rb") as fh:
        lines = sum(1 for _ in fh)
    windows = lines // (window + 1) + 1
    return expected_row_ids(profile, seed, windows * window, window)


def run_soak(
    profile: str,
    seed: int = 0,
    instances: int | None = None,
    duration: float | None = None,
    window: int = 250,
    workers: int = 1,
    cache: CampaignCache | None = None,
    resume: bool = False,
    log_path: str = "soak.jsonl",
    progress: Callable[[str], None] | None = None,
) -> SoakOutcome:
    """Run the farm to an instance and/or wall-clock budget.

    Args:
        profile: A :data:`~repro.soak.mixture.PROFILES` key.
        seed: The farm seed (fixes the whole instance stream).
        instances: Total instance budget; ``None`` for unbounded
            (requires ``duration``).
        duration: Wall-clock budget in seconds; checked between
            scheduling waves, so the farm overshoots by at most one
            wave of in-flight windows.
        window: Instances per window (the checkpoint cadence and the
            pool's unit of work).
        workers: Pool size; ``<= 1`` executes windows inline.
        cache: Optional campaign unit cache; finished windows are
            always stored when given.
        resume: Keep the valid prefix of an existing log (and consult
            the unit cache), so only missing work executes.
        log_path: The streaming JSONL metrics log (truncated unless
            ``resume``).
        progress: Optional callback receiving one line per window.

    Returns:
        The :class:`SoakOutcome` (per-instance rows are in the log).

    Raises:
        ConfigurationError: No budget at all, or a bad window size.
        SimulationError: A worker's records diverge from the driver's
            sampled stream (sampling schema drift).
    """
    start_clock = time.perf_counter()  # reprolint: disable=RL002 -- diagnostic timing only
    get_profile(profile)
    if instances is None and duration is None:
        raise ConfigurationError(
            "a soak run needs a budget: pass instances=, duration=, or both"
        )
    if instances is not None and instances < 0:
        raise ConfigurationError(f"instances must be >= 0, got {instances}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")

    log = AtlasLog(log_path)
    outcome = SoakOutcome(
        profile=profile, seed=seed, window=window,
        log_path=log.path, budget=instances,
    )
    agg = WindowAggregator()
    completed_windows = 0
    skip_in_window = 0
    if resume:
        if instances is not None:
            expected = expected_row_ids(profile, seed, instances, window)
        else:
            expected = _covering_expected_ids(log, profile, seed, window)
        outcome.resumed_rows = log.resume_prefix(expected)
        for row in log.rows(limit=outcome.resumed_rows):
            if row.get("kind") == "checkpoint":
                completed_windows += 1
                skip_in_window = 0
            else:
                agg.add_record(row)
                skip_in_window += 1
    else:
        log.reset()

    if instances is None:
        windows: Iterator[CampaignUnit] = (
            soak_window_unit(profile, seed, w * window, window)
            for w in itertools.count(completed_windows)
        )
    else:
        windows = iter(
            enumerate_soak_units(profile, seed, instances, window)
            [completed_windows:]
        )

    def write(w: int, unit: CampaignUnit, result: Mapping) -> None:
        """Append one window's rows and its checkpoint."""
        nonlocal skip_in_window
        start, count = unit.assignment_index, unit.byzantine_index
        records = list(result["records"])
        if len(records) != count:
            raise SimulationError(
                f"soak window {w} returned {len(records)} records, "
                f"expected {count}"
            )
        rows = []
        for offset, record in enumerate(records):
            if offset < skip_in_window:
                continue  # already on disk from the resumed prefix
            spec = sample_instance(profile, seed, start + offset)
            rows.append(_instance_row(spec, record))
            agg.add_record(record)
        rows.append(
            {
                "unit_id": checkpoint_id(profile, seed, w, start + count),
                "kind": "checkpoint",
                "window": w,
                **agg.snapshot(),
            }
        )
        log.append_many(rows)
        outcome.written_rows += len(rows)
        skip_in_window = 0
        if progress:
            progress(
                f"window {w}: +{count} instances "
                f"(cum {agg.instances}, {agg.violations} violations)"
            )

    def elapsed() -> float:
        return time.perf_counter() - start_clock  # reprolint: disable=RL002 -- diagnostic timing only

    windows_out = ReorderBuffer(completed_windows, write)
    wave_size = max(4, 2 * max(1, workers))

    def finish(unit: CampaignUnit, result: dict) -> None:
        if cache is not None:
            cache.store(unit, result)
        outcome.executed_windows += 1
        outcome.executed_instances += len(result["records"])
        windows_out.put(unit.assignment_index // window, unit, result)

    try:
        while duration is None or elapsed() < duration:
            wave = list(itertools.islice(windows, wave_size))
            if not wave:
                break
            pending: list[CampaignUnit] = []
            for unit in wave:
                hit = (
                    cache.load(unit)
                    if (cache is not None and resume) else None
                )
                if hit is not None:
                    outcome.cached_windows += 1
                    windows_out.put(unit.assignment_index // window, unit, hit)
                else:
                    pending.append(unit)
            if pending:
                execute_units(pending, workers, finish)
    finally:
        outcome.elapsed_s = elapsed()
        outcome.instances = agg.instances
        outcome.ok = agg.ok
        outcome.violations = agg.violations
        outcome.rounds = agg.rounds
        outcome.messages = agg.messages
        outcome.losses = agg.losses
    return outcome


def stream_rows(log_path: str) -> Iterator[dict]:
    """Stream a soak log's rows (instances and checkpoints).

    Thin reader over :meth:`~repro.atlas.stream.AtlasLog.rows`, so the
    torn-final-line tolerance and the mid-file
    :class:`~repro.core.errors.AtlasLogCorrupt` contract apply.
    """
    yield from AtlasLog(log_path).rows()
