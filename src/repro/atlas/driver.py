"""The atlas sweep driver: fan out cells, fuse evidence, stream rows.

One :func:`run_atlas` call walks a :class:`~repro.atlas.lattice.
LatticeSpec` end to end:

1. every cell becomes one ``kind="atlas"`` campaign unit
   (:func:`repro.experiments.campaign.enumerate_atlas_units`), sharing
   the campaign engine's content-hash disk cache, so an already
   computed cell is replayed instead of re-executed;
2. pending units run through the campaign engine's one pool loop
   (:func:`repro.experiments.campaign.execute_units`; ``workers <= 1``
   runs inline).  Atlas units weigh the same, so they run in lattice
   order, at most ``max(4 * workers, 16)`` beyond the oldest
   unfinished cell;
3. as results arrive, the driver fuses each cell's evidence with the
   closed-form claim (:func:`repro.atlas.evidence.fuse_evidence`) and
   appends one row to the streaming JSONL log **in lattice order**
   through a :class:`~repro.experiments.campaign.ReorderBuffer`, which
   that submission window keeps small -- never the whole lattice;
4. a fused ``CONFLICT`` aborts the sweep -- queued units are cancelled
   -- with :class:`~repro.core.errors.AtlasConflict` unless
   ``strict=False``.

Resume: ``resume=True`` keeps the valid prefix of an existing log
(:meth:`~repro.atlas.stream.AtlasLog.resume_prefix`) *and* consults the
unit cache for the rest, so a killed sweep continues where it stopped
and -- every row being deterministic -- finishes byte-for-byte
identical to an uninterrupted run.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.atlas.evidence import (
    CONFLICT,
    closed_form_evidence,
    fuse_evidence,
)
from repro.atlas.lattice import AtlasCell, LatticeSpec
from repro.atlas.stream import AtlasLog
from repro.core.errors import ConfigurationError
from repro.experiments.campaign import (
    CampaignCache,
    CampaignUnit,
    ReorderBuffer,
    enumerate_atlas_units,
    execute_units,
    shard_units,
)


@dataclass
class AtlasOutcome:
    """Aggregate outcome of one atlas sweep.

    The per-cell rows live in the JSONL log, not here -- this object
    stays O(1) in the lattice size (plus the conflict list, which a
    strict run caps at zero).
    """

    lattice: LatticeSpec
    log_path: Path
    cells_total: int
    resumed: int = 0
    written: int = 0
    executed: int = 0
    cached: int = 0
    verdicts: Counter = field(default_factory=Counter)
    conflicts: list[dict] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every cell fused without conflict."""
        return not self.conflicts and self.verdicts.get(CONFLICT, 0) == 0

    def summary(self) -> str:
        """One-paragraph human-readable tally."""
        tally = ", ".join(
            f"{self.verdicts[v]} {v}" for v in sorted(self.verdicts)
        )
        return (
            f"{self.cells_total} cells ({self.resumed} resumed from log, "
            f"{self.cached} from unit cache, {self.executed} executed) "
            f"in {self.elapsed_s:.2f}s: {tally or 'nothing evaluated'}"
        )


def _fuse_row(
    index: int,
    cell: AtlasCell,
    unit: CampaignUnit,
    result: Mapping,
    injected: Sequence[Mapping],
    strict: bool,
) -> dict:
    """Build one log row from a completed unit result.

    Args:
        index: The cell's position in lattice enumeration order.
        cell: The lattice cell.
        unit: Its campaign unit (supplies the content-hash id).
        result: The unit's result dict (``evidence`` key required).
        injected: Extra evidence items to fold in (fixtures).
        strict: Propagate conflicts as :class:`AtlasConflict`.

    Returns:
        The JSON-compatible row (deterministic: no timings).
    """
    evidence = [closed_form_evidence(cell.params)]
    evidence.extend(result.get("evidence", ()))
    evidence.extend(injected)
    verdict = fuse_evidence(cell.params, evidence, strict=strict)
    records = result.get("records", ())
    return {
        "index": index,
        "unit_id": unit.unit_id,
        "label": cell.label,
        "cell": {
            "n": cell.params.n,
            "ell": cell.params.ell,
            "t": cell.params.t,
            "synchrony": cell.params.synchrony.short,
            "numerate": cell.params.numerate,
            "restricted": cell.params.restricted,
        },
        "predicted": evidence[0]["claim"],
        "verdict": verdict,
        "algorithm": result.get("algorithm", ""),
        "demonstration_kind": result.get("demonstration_kind", ""),
        "runs": len(records),
        "failures": sum(1 for r in records if not r.get("ok", True)),
        "evidence": evidence,
    }


def run_atlas(
    lattice: LatticeSpec,
    log_path: str,
    seed: int = 0,
    quick: bool = True,
    workers: int = 1,
    cache: CampaignCache | None = None,
    resume: bool = False,
    inject: Mapping[str, Sequence[Mapping]] | None = None,
    strict: bool = True,
    progress: Callable[[str], None] | None = None,
    shard: tuple[int, int] | None = None,
) -> AtlasOutcome:
    """Sweep a lattice, fuse every cell's evidence, stream the rows.

    Args:
        lattice: The sweep specification.
        log_path: The streaming JSONL result log (truncated unless
            ``resume``).
        seed: Battery seed shared by every unit.
        quick: Use the trimmed quick batteries.
        workers: Pool size; ``<= 1`` runs inline in this process.
        cache: Optional campaign unit cache; completed units are always
            stored when given.
        resume: Keep the valid prefix of an existing log and read the
            unit cache, so only missing work executes.
        inject: Extra evidence items per cell label -- the seeded
            known-violation hook (see :func:`repro.atlas.evidence.
            known_violation_fixture`).  Incompatible with ``resume``
            (resumed rows would bypass the injection).
        strict: Raise :class:`~repro.core.errors.AtlasConflict` on the
            first conflicting cell (the default); ``False`` records
            ``CONFLICT`` rows and keeps sweeping (render/debug path).
        progress: Optional callback receiving one line per cell.
        shard: Optional ``(index, count)`` stripe: sweep only the cells
            whose lattice position is congruent to ``index`` mod
            ``count`` (the same position-striping as
            :func:`repro.experiments.campaign.shard_units`).  Rows keep
            their **global** lattice index, which is what lets
            :func:`repro.atlas.merge.merge_shards` reassemble shard
            logs byte-identically to an unsharded sweep.

    Returns:
        The :class:`AtlasOutcome` (per-cell rows are in the log).

    Raises:
        AtlasConflict: A cell's machine-checked evidence contradicts
            the closed form (strict mode).
        ProvenanceError: A cell fused without any non-symbolic
            evidence (indicates a broken evidence plan).
        ConfigurationError: ``inject`` combined with ``resume``, or an
            out-of-range shard selector.
    """
    start = time.perf_counter()  # reprolint: disable=RL002 -- diagnostic timing only
    cells = lattice.cells()
    units = enumerate_atlas_units(
        [(c.label, c.params, c.variant) for c in cells],
        seed=seed, quick=quick,
    )
    selected = list(range(len(units)))
    if shard is not None:
        selected = shard_units(selected, *shard)
    inject = dict(inject or {})
    if inject and resume:
        # Resumed rows (and cached unit results) were fused without the
        # injected items; honouring --resume would silently skip the
        # injection for any cell inside the kept prefix -- the exact
        # opposite of what the conflict fixture exists to demonstrate.
        raise ConfigurationError(
            "evidence injection cannot be combined with resume: resumed "
            "rows would bypass the injected items; run without --resume"
        )

    log = AtlasLog(log_path)
    outcome = AtlasOutcome(
        lattice=lattice, log_path=log.path, cells_total=len(selected)
    )

    def tally(row: Mapping, action: str) -> None:
        outcome.verdicts[row["verdict"]] += 1
        if row["verdict"] == CONFLICT:
            outcome.conflicts.append(row)
        if progress:
            progress(f"{action:<8} {row['label']} [{row['verdict']}]")

    if resume:
        outcome.resumed = log.resume_prefix(
            [units[pos].unit_id for pos in selected]
        )
        for row in log.rows(limit=outcome.resumed):
            tally(row, "resumed")
    else:
        log.reset()

    def write(slot: int, unit: CampaignUnit, result: Mapping) -> None:
        # ``slot`` is a position within ``selected`` (the shard's own
        # row order); the row itself carries the *global* lattice index.
        index = selected[slot]
        cell = cells[index]
        row = _fuse_row(
            index, cell, unit, result, inject.get(cell.label, ()), strict
        )
        log.append(row)
        outcome.written += 1
        tally(row, "fused")

    rows = ReorderBuffer(outcome.resumed, write)
    slot_of: dict[CampaignUnit, int] = {}
    for slot in range(outcome.resumed, len(selected)):
        unit = units[selected[slot]]
        hit = cache.load(unit) if (cache is not None and resume) else None
        if hit is not None:
            outcome.cached += 1
            rows.put(slot, unit, hit)
        else:
            slot_of[unit] = slot

    def finish(unit: CampaignUnit, result: dict) -> None:
        if cache is not None:
            cache.store(unit, result)
        outcome.executed += 1
        rows.put(slot_of[unit], unit, result)

    try:
        execute_units(list(slot_of), workers, finish)
    finally:
        outcome.elapsed_s = time.perf_counter() - start  # reprolint: disable=RL002 -- diagnostic timing only
    return outcome
