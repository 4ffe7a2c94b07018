"""Campaign engine: shard the Table 1 battery across a worker pool.

The sequential harness (:mod:`repro.experiments.harness`) validates one
cell at a time in one process.  A *campaign* runs a whole battery of
cells -- by default the eight canonical Table 1 boundary cells -- as a
set of independent, serialisable work units:

* :class:`CampaignUnit` describes one unit of work as plain data: the
  cell parameters plus either a workload-slice key (solvable cells,
  one unit per assignment x Byzantine-placement pair) or the
  impossibility demonstration (unsolvable cells, one unit per cell).
  Units are pure specs, so they pickle, shard, and cache by content
  hash.
* :func:`enumerate_units` expands a cell list into the ordered unit
  grid; :func:`shard_units` selects a ``shard/of`` stripe of it for
  multi-machine splits.
* :func:`execute_unit` is the picklable worker entry point: it rebuilds
  everything from the spec and returns a plain-dict result.
* :func:`execute_units` is the one pool loop in the package, behind
  campaigns, the atlas sweep and the soak farm: heaviest first on a
  :class:`concurrent.futures.ProcessPoolExecutor` (inline for
  ``workers <= 1``), at most ``max(4 * workers, 16)`` units running or
  queued beyond the oldest unfinished one.  :class:`ReorderBuffer`
  turns its completion order back into enumeration order for the
  drivers that stream logs.
* :func:`run_campaign` fans units out through it, consults a
  :class:`CampaignCache` so re-runs only execute the delta, and folds
  everything into a :class:`CampaignReport` with JSON and Markdown
  emitters.

Determinism: unit results depend only on the unit spec, and the report
assembles them in enumeration order, so the same seed yields an
identical canonical report for any ``--workers`` count and for cached
vs fresh execution.  The records are byte-identical to the sequential
harness because both paths share the slice layer of
:mod:`repro.experiments.harness`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence, TypeVar

import repro
from repro.analysis.bounds import solvable
from repro.core.canonical import canonical_json
from repro.core.errors import ConfigurationError
from repro.core.params import Synchrony, SystemParams
from repro.core.problem import BINARY, AgreementProblem
from repro.experiments.harness import (
    CellResult,
    RunRecord,
    algorithm_for,
    delay_slice_keys,
    evaluate_unsolvable_cell,
    run_delay_slice,
    run_solvable_slice,
    solvable_slice_keys,
)

#: Problems a unit spec may name (specs carry strings, not objects).
PROBLEMS: dict[str, AgreementProblem] = {"binary": BINARY}

#: Salt folded into every unit id.  Bump the schema component when the
#: shape *or semantics* of a unit result changes; the package version
#: component makes caches written by a different release miss rather
#: than serve results computed by different code.  ``campaign/7``:
#: run records carry the exact basic-model ``"losses"`` count next to
#: ``"rounds"``/``"messages"`` (delay slices and the soak farm's loss
#: accounting), so records written by the 6-key schema miss.
CACHE_SCHEMA = "campaign/7"

_SYNCHRONY = {s.short: s for s in Synchrony}

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS

T = TypeVar("T")


def table1_cells() -> list[tuple[str, SystemParams]]:
    """The canonical campaign battery: both sides of every Table 1 boundary.

    Returns:
        ``(label, params)`` pairs -- one solvable and one unsolvable
        cell for each of the four model families of Table 1.
    """
    return [
        # -- synchronous, unrestricted (Theorem 3: ell > 3t) ------------
        ("sync solvable", SystemParams(n=5, ell=4, t=1)),
        ("sync unsolvable", SystemParams(n=5, ell=3, t=1)),
        # -- synchronous, restricted + innumerate (Theorem 19) ----------
        ("sync-restricted-innum solvable",
         SystemParams(n=5, ell=4, t=1, restricted=True)),
        ("sync-restricted-innum unsolvable",
         SystemParams(n=5, ell=3, t=1, restricted=True)),
        # -- partially synchronous, unrestricted (Theorem 13) -----------
        ("psync solvable", SystemParams(n=7, ell=6, t=1, synchrony=PSYNC)),
        ("psync unsolvable", SystemParams(n=9, ell=6, t=1, synchrony=PSYNC)),
        # -- restricted + numerate (Theorems 14/15: ell > t) ------------
        ("restricted-numerate solvable",
         SystemParams(n=4, ell=2, t=1, synchrony=PSYNC,
                      numerate=True, restricted=True)),
        ("restricted-numerate unsolvable",
         SystemParams(n=4, ell=1, t=1, synchrony=PSYNC,
                      numerate=True, restricted=True)),
    ]


def delay_cells() -> list[tuple[str, SystemParams]]:
    """The delay-model campaign battery: the psync solvable cells.

    The delay-based formulations are the partially synchronous models,
    so the battery is :func:`table1_cells` restricted to its partially
    synchronous solvable members -- each validated over the kernel's
    :class:`~repro.sim.kernel.DelayBased` timing model instead of drop
    schedules.

    Returns:
        ``(label, params)`` pairs.
    """
    return [
        (label, params)
        for label, params in table1_cells()
        if params.synchrony is PSYNC and solvable(params)
    ]


# ----------------------------------------------------------------------
# Unit specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignUnit:
    """One serialisable unit of campaign work.

    ``kind`` is ``"slice"`` for one workload slice of a solvable cell
    (``assignment_index``/``byzantine_index`` name the slice),
    ``"demonstration"`` for the whole impossibility demonstration of an
    unsolvable cell (indices are ``-1``), ``"explore"`` for one bounded
    strategy-exploration slice of the tightness frontier (indices name
    the assignment x Byzantine-placement pair of
    :func:`repro.explore.units.explore_slice_keys`), ``"delay"`` for
    one delay-model workload slice
    (:func:`repro.experiments.harness.run_delay_slice`) of a partially
    synchronous solvable cell, or ``"atlas"`` for the full evidence
    collection of one solvability-atlas cell
    (:func:`repro.atlas.evidence.run_atlas_unit`; ``variant`` selects
    the cell's evidence plan).
    """

    label: str
    n: int
    ell: int
    t: int
    synchrony: str
    numerate: bool
    restricted: bool
    kind: str
    assignment_index: int = -1
    byzantine_index: int = -1
    seed: int = 0
    quick: bool = True
    problem: str = "binary"
    variant: str = ""

    def params(self) -> SystemParams:
        """Reconstruct the cell's :class:`SystemParams` from the spec."""
        return SystemParams(
            n=self.n, ell=self.ell, t=self.t,
            synchrony=_SYNCHRONY[self.synchrony],
            numerate=self.numerate, restricted=self.restricted,
        )

    @property
    def unit_id(self) -> str:
        """Content hash of the spec -- the cache key and dedup identity.

        The hash covers the full spec plus :data:`CACHE_SCHEMA` and the
        package version, so a cache directory never serves results
        computed by a different release or result schema.  The hash
        input is :func:`repro.core.canonical.canonical_json` -- the same
        canonicalisation :meth:`ExecutionResult.brief
        <repro.sim.runner.ExecutionResult.brief>` orders decisions with
        -- so keys cannot drift across Python versions or hash seeds.
        """
        payload = canonical_json([CACHE_SCHEMA, repro.__version__, asdict(self)])
        return hashlib.sha1(payload.encode()).hexdigest()[:16]

    def describe(self) -> str:
        if self.kind == "demonstration":
            where = "demonstration"
        elif self.kind == "atlas":
            where = self.variant or "atlas"
        elif self.kind == "soak":
            where = (
                f"{self.variant}[{self.assignment_index}:"
                f"{self.assignment_index + self.byzantine_index}]"
            )
        else:  # "slice" and "explore" are both (assignment, byz) slices
            where = (
                f"{self.kind} a{self.assignment_index}b{self.byzantine_index}"
            )
        return f"{self.label} [{where}]"

    def to_dict(self) -> dict:
        """Serialise the spec to plain JSON-compatible data."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignUnit":
        """Rebuild a spec from :meth:`to_dict` output.

        Args:
            data: A mapping with exactly the dataclass fields.

        Returns:
            The reconstructed unit.
        """
        return cls(**dict(data))

    @classmethod
    def for_cell(
        cls,
        label: str,
        params: SystemParams,
        kind: str,
        assignment_index: int = -1,
        byzantine_index: int = -1,
        seed: int = 0,
        quick: bool = True,
        problem: str = "binary",
        variant: str = "",
    ) -> "CampaignUnit":
        """Build a unit spec from live parameters.

        Args:
            label: The cell's display label (groups units into cells).
            params: The cell's system parameters.
            kind: ``"slice"`` or ``"demonstration"``.
            assignment_index: Slice key part (slices only).
            byzantine_index: Slice key part (slices only).
            seed: The battery seed.
            quick: Whether the trimmed quick battery is used.
            problem: Name of the agreement problem (key of
                :data:`PROBLEMS`).
            variant: Evidence-plan selector (``"atlas"`` units only).

        Returns:
            The frozen, hashable unit spec.
        """
        return cls(
            label=label,
            n=params.n, ell=params.ell, t=params.t,
            synchrony=params.synchrony.short,
            numerate=params.numerate, restricted=params.restricted,
            kind=kind,
            assignment_index=assignment_index,
            byzantine_index=byzantine_index,
            seed=seed, quick=quick, problem=problem,
            variant=variant,
        )


def _check_labels(cells: Sequence[tuple]) -> None:
    """Refuse a battery whose cell labels (the aggregation key) repeat."""
    labels = [cell[0] for cell in cells]
    if len(set(labels)) != len(labels):
        raise ConfigurationError(f"duplicate cell labels in {labels}")


def enumerate_units(
    cells: Sequence[tuple[str, SystemParams]] | None = None,
    seed: int = 0,
    quick: bool = True,
    problem: str = "binary",
) -> list[CampaignUnit]:
    """Expand a cell battery into the ordered campaign unit grid.

    Solvable cells contribute one unit per workload slice; unsolvable
    cells contribute a single demonstration unit.  The order is the
    sequential harness's order, which makes report assembly (and the
    determinism guarantee) a plain sort-free fold.

    Args:
        cells: ``(label, params)`` pairs; defaults to
            :func:`table1_cells`.
        seed: The battery seed shared by every unit.
        quick: Use the trimmed quick battery.
        problem: Name of the agreement problem.

    Returns:
        The ordered list of units.

    Raises:
        ConfigurationError: On duplicate cell labels (labels are the
            aggregation key).
    """
    if cells is None:
        cells = table1_cells()
    _check_labels(cells)
    units: list[CampaignUnit] = []
    for label, params in cells:
        if solvable(params):
            for a_idx, b_idx in solvable_slice_keys(params, seed, quick):
                units.append(CampaignUnit.for_cell(
                    label, params, "slice",
                    assignment_index=a_idx, byzantine_index=b_idx,
                    seed=seed, quick=quick, problem=problem,
                ))
        else:
            units.append(CampaignUnit.for_cell(
                label, params, "demonstration",
                seed=seed, quick=quick, problem=problem,
            ))
    return units


def enumerate_explore_units(
    cells: Sequence[tuple[str, SystemParams]] | None = None,
    seed: int = 0,
    quick: bool = True,
    problem: str = "binary",
) -> list[CampaignUnit]:
    """Expand a tightness-frontier battery into exploration units.

    One unit per (assignment, Byzantine placement) pair of each cell --
    the frontier sharding that lets the process pool (or ``--shard``
    stripes across machines) fan the bounded strategy exploration out.

    Args:
        cells: ``(label, params)`` pairs; defaults to
            :func:`repro.explore.units.explore_battery`.
        seed: Battery seed (recorded in the unit id; exploration itself
            is deterministic).
        quick: Trim the placement battery.
        problem: Name of the agreement problem.

    Returns:
        The ordered unit list.

    Raises:
        ConfigurationError: On duplicate cell labels.
    """
    from repro.explore.units import explore_battery, explore_slice_keys

    if cells is None:
        cells = explore_battery()
    _check_labels(cells)
    return [
        CampaignUnit.for_cell(
            label, params, "explore",
            assignment_index=a_idx, byzantine_index=b_idx,
            seed=seed, quick=quick, problem=problem,
        )
        for label, params in cells
        for a_idx, b_idx in explore_slice_keys(params, seed, quick)
    ]


def enumerate_delay_units(
    cells: Sequence[tuple[str, SystemParams]] | None = None,
    seed: int = 0,
    quick: bool = True,
    problem: str = "binary",
) -> list[CampaignUnit]:
    """Expand a delay battery into delay-model workload units.

    One unit per (assignment, Byzantine placement) slice of each cell,
    exactly as :func:`enumerate_units` does for the validation battery
    -- the delay-policy dimension varies inside each unit.

    Args:
        cells: ``(label, params)`` pairs; defaults to
            :func:`delay_cells`.  Every cell must be partially
            synchronous and solvable.
        seed: The battery seed shared by every unit.
        quick: Use the trimmed quick battery.
        problem: Name of the agreement problem.

    Returns:
        The ordered unit list.

    Raises:
        ConfigurationError: On duplicate cell labels or a cell outside
            the delay-model family.
    """
    if cells is None:
        cells = delay_cells()
    _check_labels(cells)
    for label, params in cells:
        if params.synchrony is not PSYNC or not solvable(params):
            raise ConfigurationError(
                f"delay campaign cell {label!r} must be partially "
                f"synchronous and solvable, got {params.describe()}"
            )
    return [
        CampaignUnit.for_cell(
            label, params, "delay",
            assignment_index=a_idx, byzantine_index=b_idx,
            seed=seed, quick=quick, problem=problem,
        )
        for label, params in cells
        for a_idx, b_idx in delay_slice_keys(params, seed, quick)
    ]


def enumerate_atlas_units(
    cells: Sequence[tuple[str, SystemParams, str]],
    seed: int = 0,
    quick: bool = True,
    problem: str = "binary",
) -> list[CampaignUnit]:
    """Expand an atlas lattice into evidence-collection units.

    One unit per lattice cell: the unit executes the whole
    evidence plan of its cell (:func:`repro.atlas.evidence.
    run_atlas_unit`), with ``variant`` naming the plan -- the atlas
    driver keeps lattice knowledge on its side so this module stays
    evidence-agnostic.

    Args:
        cells: ``(label, params, variant)`` triples in lattice order.
        seed: The battery seed shared by every unit.
        quick: Use the trimmed quick batteries.
        problem: Name of the agreement problem.

    Returns:
        The ordered unit list.

    Raises:
        ConfigurationError: On duplicate cell labels.
    """
    _check_labels(cells)
    return [
        CampaignUnit.for_cell(
            label, params, "atlas",
            seed=seed, quick=quick, problem=problem, variant=variant,
        )
        for label, params, variant in cells
    ]


def enumerate_soak_units(
    profile: str,
    farm_seed: int,
    instances: int,
    window: int,
) -> list[CampaignUnit]:
    """Expand a soak farm budget into window units.

    One ``kind="soak"`` unit per window of the deterministic instance
    stream: ``variant`` names the profile, ``assignment_index`` the
    window's first instance, ``byzantine_index`` its instance count
    (the slice-key fields repurposed as the stream slice -- a soak
    window spans many cells, so it has no single ``(n, ell, t)``; the
    cell fields carry the trivial placeholder and are unused).  The
    unit id still content-hashes the full spec, so windows from a
    different profile, seed, window size or schema never collide in
    the cache.

    Args:
        profile: A :data:`repro.soak.mixture.PROFILES` key.
        farm_seed: The farm's seed.
        instances: Total instance budget (the last window may be
            short).
        window: Instances per window.

    Returns:
        The ordered window units.

    Raises:
        ConfigurationError: Non-positive window or negative budget.
    """
    if window < 1:
        raise ConfigurationError(f"soak window must be >= 1, got {window}")
    if instances < 0:
        raise ConfigurationError(
            f"soak instance budget must be >= 0, got {instances}"
        )
    return [
        soak_window_unit(
            profile, farm_seed, start, min(window, instances - start)
        )
        for start in range(0, instances, window)
    ]


def soak_window_unit(
    profile: str, farm_seed: int, start: int, count: int
) -> CampaignUnit:
    """The ``kind="soak"`` unit of one stream window.

    The single constructor behind :func:`enumerate_soak_units` and the
    unbounded farm of :func:`repro.soak.driver.run_soak`, so both lay
    windows out (and hash them) identically.

    Args:
        profile: A :data:`repro.soak.mixture.PROFILES` key.
        farm_seed: The farm's seed.
        start: The window's first instance index.
        count: The window's instance count.

    Returns:
        The frozen, hashable unit spec.
    """
    return CampaignUnit(
        label=f"soak/{profile}",
        n=1, ell=1, t=0,
        synchrony="sync", numerate=False, restricted=False,
        kind="soak",
        assignment_index=start,
        byzantine_index=count,
        seed=farm_seed,
        variant=profile,
    )


def _check_shard(index: int, count: int) -> None:
    """Refuse a shard selector outside ``0 <= index < count``."""
    if count < 1 or not 0 <= index < count:
        raise ConfigurationError(
            f"bad shard {index}/{count}: need 0 <= index < count"
        )


def shard_units(units: Sequence[T], index: int, count: int) -> list[T]:
    """Select stripe ``index`` of ``count`` from the unit grid.

    Striping by position keeps each shard a representative mix of cheap
    and expensive units; the ``count`` shards partition the grid.  Any
    sequence stripes the same way, so a driver can stripe positions
    (the atlas does) instead of units.

    Args:
        units: The full unit list (enumeration order).
        index: Zero-based shard index, ``0 <= index < count``.
        count: Total number of shards.

    Returns:
        The units of this shard, in enumeration order.

    Raises:
        ConfigurationError: If ``index``/``count`` are out of range.
    """
    _check_shard(index, count)
    return [u for pos, u in enumerate(units) if pos % count == index]


def parse_shard(text: str) -> tuple[int, int]:
    """Parse an ``INDEX/COUNT`` shard selector.

    The CLI-facing twin of :func:`shard_units`: both the campaign and
    the atlas ``--shard`` flags accept a zero-based stripe selector and
    validate it here, so a bad selector fails before any work starts.

    Args:
        text: A selector such as ``"0/3"``.

    Returns:
        The validated ``(index, count)`` pair,
        ``0 <= index < count``, ``count >= 1``.

    Raises:
        ConfigurationError: Malformed text or an out-of-range pair
            (e.g. ``"0/0"``, ``"3/2"``, ``"x/y"``).
    """
    index_part, sep, count_part = text.partition("/")
    try:
        if not sep:
            raise ValueError(text)
        index, count = int(index_part), int(count_part)
    except ValueError:
        raise ConfigurationError(
            f"bad shard selector {text!r}: expected INDEX/COUNT, "
            f"e.g. 0/3"
        ) from None
    _check_shard(index, count)
    return index, count


# ----------------------------------------------------------------------
# Worker entry point
# ----------------------------------------------------------------------
def execute_unit(unit: CampaignUnit | Mapping) -> dict:
    """Execute one unit and return its plain-dict result.

    This is the function a pool worker runs: it accepts either a
    :class:`CampaignUnit` or its ``to_dict`` form (what actually crosses
    the process boundary), rebuilds the workload deterministically, and
    returns JSON-compatible data only.

    Args:
        unit: The unit spec (object or dict).

    Returns:
        A dict with ``unit_id``, ``label``, ``kind``, ``algorithm``,
        ``records`` (one per execution: label/ok/detail/rounds/
        messages), ``demonstration``, ``demonstration_kind`` and
        ``elapsed_s``.
    """
    if not isinstance(unit, CampaignUnit):
        unit = CampaignUnit.from_dict(unit)
    start = time.perf_counter()  # reprolint: disable=RL002 -- diagnostic timing only
    params = unit.params()
    problem = PROBLEMS[unit.problem]
    demonstration = ""
    demonstration_kind = ""
    if unit.kind == "slice":
        algorithm, _, _ = algorithm_for(params, problem)
        records = run_solvable_slice(
            params,
            (unit.assignment_index, unit.byzantine_index),
            problem, unit.seed, unit.quick,
        )
    elif unit.kind == "delay":
        algorithm, _, _ = algorithm_for(params, problem)
        records = run_delay_slice(
            params,
            (unit.assignment_index, unit.byzantine_index),
            problem, unit.seed, unit.quick,
        )
    elif unit.kind == "soak":
        from repro.soak.units import run_soak_window

        algorithm = "soak-mixture"
        records = run_soak_window(
            unit.variant, unit.seed,
            unit.assignment_index, unit.byzantine_index,
        )
    elif unit.kind == "demonstration":
        cell = evaluate_unsolvable_cell(params, problem, unit.seed)
        algorithm = cell.algorithm
        records = cell.runs
        demonstration = cell.demonstration
        demonstration_kind = cell.demonstration_kind
    elif unit.kind == "explore":
        from repro.explore.units import run_explore_unit

        outcome = run_explore_unit(
            params, unit.assignment_index, unit.byzantine_index,
            unit.seed, unit.quick, problem,
        )
        return {
            "unit_id": unit.unit_id,
            "label": unit.label,
            "kind": unit.kind,
            "assignment_index": unit.assignment_index,
            "byzantine_index": unit.byzantine_index,
            "algorithm": outcome["algorithm"],
            "demonstration": outcome["demonstration"],
            "demonstration_kind": outcome["demonstration_kind"],
            "records": outcome["records"],
            "elapsed_s": time.perf_counter() - start,  # reprolint: disable=RL002 -- diagnostic timing only
        }
    elif unit.kind == "atlas":
        from repro.atlas.evidence import run_atlas_unit
        from repro.atlas.lattice import BUDGET_SKIPPED, WITH_EXPLORER

        outcome = run_atlas_unit(
            params, seed=unit.seed, quick=unit.quick, problem=problem,
            with_explorer=unit.variant == WITH_EXPLORER,
            budget_skipped=unit.variant == BUDGET_SKIPPED,
        )
        return {
            "unit_id": unit.unit_id,
            "label": unit.label,
            "kind": unit.kind,
            "assignment_index": unit.assignment_index,
            "byzantine_index": unit.byzantine_index,
            "algorithm": outcome["algorithm"],
            "demonstration": outcome["demonstration"],
            "demonstration_kind": outcome["demonstration_kind"],
            "records": outcome["records"],
            "evidence": outcome["evidence"],
            "elapsed_s": time.perf_counter() - start,  # reprolint: disable=RL002 -- diagnostic timing only
        }
    else:
        raise ConfigurationError(f"unknown unit kind {unit.kind!r}")
    return {
        "unit_id": unit.unit_id,
        "label": unit.label,
        "kind": unit.kind,
        "assignment_index": unit.assignment_index,
        "byzantine_index": unit.byzantine_index,
        "algorithm": algorithm,
        "demonstration": demonstration,
        "demonstration_kind": demonstration_kind,
        "records": [asdict(r) for r in records],
        "elapsed_s": time.perf_counter() - start,  # reprolint: disable=RL002 -- diagnostic timing only
    }


def _unit_weight(unit: CampaignUnit) -> int:
    """Crude cost estimate used to schedule heavy units first."""
    if unit.kind == "atlas":
        # Constant: the stable sort keeps lattice order, so the atlas's
        # in-order log frontier trails the submission window closely.
        return 1
    if unit.kind == "soak":
        # Windows are near-uniform; weight by instance count so a
        # short final window schedules last.
        return max(1, unit.byzantine_index)
    if unit.kind == "explore":
        # Per-round tree exploration (synchronous scopes) dwarfs the
        # persistent-face sweeps, and certificates dwarf violations.
        return unit.n ** 3 * (40 if unit.synchrony == "sync" else 4)
    weight = unit.n * unit.n
    if unit.synchrony == "psync":
        weight *= 8 if not (unit.restricted and unit.numerate) else 2
    if unit.kind == "delay":
        # A delay slice runs the whole policy battery per pattern.
        weight *= 3
    return weight


def execute_units(
    pending: Sequence[CampaignUnit],
    workers: int,
    finish: Callable[[CampaignUnit, dict], None],
) -> None:
    """Execute units inline or on a process pool, heaviest first.

    The one fan-out loop behind :func:`run_campaign`, the atlas sweep
    and the soak farm's windows.  ``finish`` is invoked in completion
    order with each unit's result (store to cache, fold into a report,
    stream a log row, ...).

    The pool path sorts units heaviest first (a stable sort, so units
    of equal weight keep their input order) and submits lazily: a unit
    is submitted only while it lies fewer than ``max(4 * workers, 16)``
    positions beyond the oldest unfinished unit.  Running plus queued
    units, and any results a caller buffers while waiting for that
    oldest unit, stay within that window instead of growing with the
    batch.

    Failure contract: the first worker exception aborts the batch
    *promptly*.  Every queued-but-unstarted unit is cancelled before
    the pool is torn down, so one poisoned unit costs at most the units
    already running (one per worker), never the whole campaign's tail.
    The exception is re-raised with the failing unit's ``describe()``
    and id attached as a note.

    Args:
        pending: Units to execute (any order; the pool path re-sorts
            heaviest first for LPT-style makespan).
        workers: Pool size; ``<= 1`` runs inline in this process, in
            input order.
        finish: Callback ``(unit, result)`` run in this process for
            each completed unit, in completion order.
    """
    def attach(exc: BaseException, unit: CampaignUnit) -> None:
        exc.add_note(
            f"while executing campaign unit {unit.describe()} "
            f"({unit.unit_id})"
        )

    if workers <= 1:
        for unit in pending:
            try:
                result = execute_unit(unit)
            except Exception as exc:
                attach(exc, unit)
                raise
            finish(unit, result)
        return

    # Heavy units first: better makespan under LPT-style greedy
    # scheduling, identical results in any order.
    ordered = sorted(pending, key=_unit_weight, reverse=True)
    window = max(4 * workers, 16)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            futures: dict = {}
            submitted = 0
            while submitted < len(ordered) or futures:
                oldest = min(
                    (pos for pos, _ in futures.values()), default=submitted
                )
                while submitted < min(len(ordered), oldest + window):
                    unit = ordered[submitted]
                    futures[pool.submit(execute_unit, unit.to_dict())] = (
                        submitted, unit
                    )
                    submitted += 1
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    _, unit = futures.pop(future)
                    try:
                        result = future.result()
                    except Exception as exc:
                        attach(exc, unit)
                        raise
                    finish(unit, result)
        except BaseException:
            # Without this, the executor's __exit__ joins every
            # outstanding future, so one bad unit would make the whole
            # campaign hang until all unrelated heavy units finish.
            pool.shutdown(wait=False, cancel_futures=True)
            raise


class ReorderBuffer:
    """Turn completion order back into stream order.

    The atlas log and the soak log are written in enumeration order
    while :func:`execute_units` finishes units in completion order.
    :meth:`put` buffers one finished unit under its stream ``slot`` and
    hands every result whose predecessors have all arrived to
    ``emit(slot, unit, result)``, in slot order, at once -- so an
    inline run emits each result before the next unit starts.
    """

    def __init__(
        self,
        first_slot: int,
        emit: Callable[[int, CampaignUnit, Mapping], None],
    ):
        self._next_slot = first_slot
        self._emit = emit
        self._buffer: dict[int, tuple[CampaignUnit, Mapping]] = {}

    def put(self, slot: int, unit: CampaignUnit, result: Mapping) -> None:
        """Buffer ``result`` and emit the ready prefix of the stream."""
        self._buffer[slot] = (unit, result)
        while self._next_slot in self._buffer:
            unit, result = self._buffer.pop(self._next_slot)
            self._emit(self._next_slot, unit, result)
            self._next_slot += 1


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
class CampaignCache:
    """One-JSON-file-per-unit result cache keyed by unit content hash.

    Because the key hashes the full unit spec (cell, slice, seed,
    quick flag, problem), a cache can be shared between campaigns: only
    identical work is reused, and re-runs execute just the delta.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def path(self, unit: CampaignUnit) -> Path:
        """Cache file for a unit."""
        return self.root / f"{unit.unit_id}.json"

    #: Keys every cached result must carry, and every record within it.
    _RESULT_KEYS = frozenset(
        ("unit_id", "label", "kind", "algorithm", "demonstration",
         "demonstration_kind", "records")
    )
    _RECORD_KEYS = frozenset(RunRecord.__dataclass_fields__)

    def load(self, unit: CampaignUnit) -> dict | None:
        """Return the cached result for ``unit``, or ``None``.

        Corrupt, mismatched, or wrong-shaped files (e.g. written by a
        build with a different record schema, or an atlas entry that
        lost its ``evidence`` list) are treated as misses.
        """
        path = self.path(unit)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("unit_id") != unit.unit_id:
            return None
        if not self._RESULT_KEYS <= set(data):
            return None
        if unit.kind == "atlas" and not isinstance(data.get("evidence"), list):
            return None
        records = data["records"]
        if not isinstance(records, list) or any(
            not isinstance(r, dict) or set(r) != self._RECORD_KEYS
            for r in records
        ):
            return None
        return data

    def store(self, unit: CampaignUnit, result: Mapping) -> None:
        """Persist a unit result atomically (write-then-rename).

        The tmp name is unique per process *and* per thread: concurrent
        writers of the same unit (two shards sharing a cache root, or a
        resumed run racing a still-draining one) must never share a tmp
        path, or one writer's rename publishes another's half-written
        file -- and the loser's ``replace`` then fails on a vanished
        source.  The payload is flushed and fsynced *before* the rename,
        so a crash between the two cannot persist a truncated entry
        under the final name; the rename itself stays the atomic commit
        point, and the last writer wins with a complete file.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(unit)
        tmp = path.with_name(
            f"{unit.unit_id}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            with tmp.open("w") as fh:
                fh.write(json.dumps(dict(result), sort_keys=True))
                fh.flush()
                os.fsync(fh.fileno())
            tmp.replace(path)
        finally:
            # Only reachable with the tmp still on disk when the write
            # or rename failed; never leave orphans in the cache root.
            tmp.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Aggregated outcome of one campaign run.

    ``unit_results`` is in unit-enumeration order regardless of the
    completion order of the pool, which is what makes
    :meth:`canonical_dict` identical across worker counts.
    """

    cells: list[tuple[str, SystemParams]]
    seed: int
    quick: bool
    unit_results: list[dict] = field(default_factory=list)
    workers: int = 1
    executed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0

    # -- aggregation ---------------------------------------------------
    def _labelled_cell_results(self) -> list[tuple[str, CellResult]]:
        """``(label, CellResult)`` per cell with unit results, in order.

        The fold is memoised: a report is not mutated after
        :func:`run_campaign` builds it, and the emitters all lean on
        this result.
        """
        cached = self.__dict__.get("_labelled_cache")
        if cached is not None:
            return cached
        by_label: dict[str, list[dict]] = {}
        for result in self.unit_results:
            by_label.setdefault(result["label"], []).append(result)
        cells: list[tuple[str, CellResult]] = []
        for label, params in self.cells:
            results = by_label.get(label)
            if not results:
                continue
            cell = CellResult(
                params=params,
                predicted_solvable=solvable(params),
                algorithm=results[0]["algorithm"],
            )
            for result in results:
                cell.runs.extend(
                    RunRecord(**record) for record in result["records"]
                )
                if result["demonstration"]:
                    cell.demonstration = result["demonstration"]
                    cell.demonstration_kind = result["demonstration_kind"]
            cells.append((label, cell))
        self.__dict__["_labelled_cache"] = cells
        return cells

    def cell_results(self) -> list[CellResult]:
        """Fold unit results back into per-cell :class:`CellResult`.

        Returns:
            One :class:`CellResult` per campaign cell that has at least
            one unit result, in battery order -- directly comparable to
            (and, for a full unsharded run, equal in verdicts to) the
            sequential harness's output.
        """
        return [cell for _, cell in self._labelled_cell_results()]

    @property
    def all_consistent(self) -> bool:
        """True when every evaluated cell matches its prediction."""
        return all(c.empirically_consistent for c in self.cell_results())

    # -- emitters ------------------------------------------------------
    def to_dict(self, canonical: bool = False) -> dict:
        """Serialise the report.

        Args:
            canonical: Drop everything execution-dependent (worker
                count, cache hits, timings).  Two runs of the same
                campaign spec produce identical canonical dicts no
                matter how they were scheduled.

        Returns:
            A JSON-compatible dict with ``campaign``, ``cells``,
            ``units`` and ``summary`` sections (plus ``execution``
            unless canonical).
        """
        labelled = self._labelled_cell_results()
        cell_results = [cell for _, cell in labelled]
        cells = [
            {
                "label": label,
                "params": cell.params.describe(),
                "predicted": (
                    "solvable" if cell.predicted_solvable else "unsolvable"
                ),
                "algorithm": cell.algorithm,
                "runs": len(cell.runs),
                "failures": [
                    {"label": r.label, "detail": r.detail}
                    for r in cell.failures()
                ],
                "rounds_total": sum(r.rounds for r in cell.runs),
                "messages_total": sum(r.messages for r in cell.runs),
                "demonstration": cell.demonstration,
                "demonstration_kind": cell.demonstration_kind,
                "consistent": cell.empirically_consistent,
            }
            for label, cell in labelled
        ]
        units = []
        for result in self.unit_results:
            unit = {k: v for k, v in result.items() if k != "elapsed_s"}
            if not canonical:
                unit["elapsed_s"] = result.get("elapsed_s", 0.0)
            units.append(unit)
        data = {
            "campaign": {
                "seed": self.seed,
                "quick": self.quick,
                "cells": len(self.cells),
                "units": len(self.unit_results),
            },
            "cells": cells,
            "units": units,
            "summary": {
                "consistent_cells": sum(
                    1 for c in cell_results if c.empirically_consistent
                ),
                "evaluated_cells": len(cell_results),
                "total_runs": sum(len(c.runs) for c in cell_results),
                "failures": sum(len(c.failures()) for c in cell_results),
                "all_consistent": all(
                    c.empirically_consistent for c in cell_results
                ),
            },
        }
        if not canonical:
            data["execution"] = {
                "workers": self.workers,
                "executed": self.executed,
                "cached": self.cached,
                "elapsed_s": self.elapsed_s,
            }
        return data

    def canonical_dict(self) -> dict:
        """Shorthand for ``to_dict(canonical=True)``."""
        return self.to_dict(canonical=True)

    def to_json(self, canonical: bool = False, indent: int = 2) -> str:
        """Serialise :meth:`to_dict` as JSON text.

        Args:
            canonical: See :meth:`to_dict`.
            indent: JSON indentation.

        Returns:
            The JSON document.
        """
        return json.dumps(self.to_dict(canonical=canonical), indent=indent,
                          sort_keys=True)

    def to_markdown(self) -> str:
        """Render the report as a Markdown document."""
        labelled = self._labelled_cell_results()
        cell_results = [cell for _, cell in labelled]
        lines = [
            "# Campaign report",
            "",
            f"- battery: {'quick' if self.quick else 'full'}, "
            f"seed {self.seed}",
            f"- units: {len(self.unit_results)} "
            f"({self.executed} executed, {self.cached} from cache) "
            f"on {self.workers} worker(s) in {self.elapsed_s:.2f}s",
            "",
            "| cell | params | predicted | algorithm | runs | consistent |",
            "|---|---|---|---|---:|---|",
        ]
        for label, cell in labelled:
            lines.append(
                f"| {label} | `{cell.params.describe()}` "
                f"| {'solvable' if cell.predicted_solvable else 'unsolvable'} "
                f"| {cell.algorithm} | {len(cell.runs)} "
                f"| {'yes' if cell.empirically_consistent else '**NO**'} |"
            )
        failures = [
            (cell, record)
            for cell in cell_results for record in cell.failures()
        ]
        if failures:
            lines += ["", "## Failures", ""]
            lines += [
                f"- `{cell.params.describe()}` {record.label}: "
                f"{record.detail}"
                for cell, record in failures
            ]
        demos = [c for c in cell_results
                 if not c.predicted_solvable and c.demonstration]
        if demos:
            lines += ["", "## Impossibility demonstrations", ""]
            lines += [
                f"- `{cell.params.describe()}`: {cell.demonstration}"
                for cell in demos
            ]
        consistent = sum(1 for c in cell_results if c.empirically_consistent)
        lines += [
            "",
            f"**{consistent}/{len(cell_results)} cells consistent with "
            f"the paper.**",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_campaign(
    cells: Sequence[tuple[str, SystemParams]] | None = None,
    seed: int = 0,
    quick: bool = True,
    workers: int = 1,
    cache: CampaignCache | None = None,
    resume: bool = False,
    shard: tuple[int, int] | None = None,
    progress: Callable[[str], None] | None = None,
    unit_kind: str = "validate",
) -> CampaignReport:
    """Run a campaign and aggregate its report.

    Args:
        cells: ``(label, params)`` battery; defaults to
            :func:`table1_cells` (or the explore battery for
            ``unit_kind="explore"``).
        seed: The battery seed.
        quick: Use the trimmed quick battery.
        workers: Pool size; ``<= 1`` runs inline in this process.
        cache: Optional result cache; completed units are always stored
            when a cache is given.
        resume: Also *read* the cache, so only uncached units execute.
        shard: Optional ``(index, count)`` stripe of the unit grid.
        progress: Optional callback receiving one line per finished
            unit.
        unit_kind: ``"validate"`` runs the Table 1 validation battery;
            ``"explore"`` runs bounded strategy exploration over the
            tightness frontier; ``"delay"`` runs the delay-model
            workload family (kernel ``DelayBased`` timing) over the
            partially synchronous solvable cells.

    Returns:
        The aggregated :class:`CampaignReport`.

    Raises:
        ConfigurationError: On an unknown ``unit_kind``.
    """
    start = time.perf_counter()  # reprolint: disable=RL002 -- diagnostic timing only
    if unit_kind == "validate":
        cells = table1_cells() if cells is None else list(cells)
        units = enumerate_units(cells, seed=seed, quick=quick)
    elif unit_kind == "explore":
        from repro.explore.units import explore_battery

        cells = explore_battery() if cells is None else list(cells)
        units = enumerate_explore_units(cells, seed=seed, quick=quick)
    elif unit_kind == "delay":
        cells = delay_cells() if cells is None else list(cells)
        units = enumerate_delay_units(cells, seed=seed, quick=quick)
    else:
        raise ConfigurationError(f"unknown unit kind {unit_kind!r}")
    if shard is not None:
        units = shard_units(units, *shard)

    results: dict[str, dict] = {}
    cached = 0
    pending: list[CampaignUnit] = []
    for unit in units:
        hit = cache.load(unit) if (cache is not None and resume) else None
        if hit is not None:
            results[unit.unit_id] = hit
            cached += 1
            if progress:
                progress(f"cached   {unit.describe()}")
        else:
            pending.append(unit)

    def finish(unit: CampaignUnit, result: dict) -> None:
        results[unit.unit_id] = result
        if cache is not None:
            cache.store(unit, result)
        if progress:
            progress(
                f"executed {unit.describe()} "
                f"({result['elapsed_s']:.2f}s, "
                f"{len(result['records'])} runs)"
            )

    execute_units(pending, workers, finish)

    return CampaignReport(
        cells=cells,
        seed=seed,
        quick=quick,
        unit_results=[results[u.unit_id] for u in units],
        workers=max(1, workers),
        executed=len(pending),
        cached=cached,
        elapsed_s=time.perf_counter() - start,  # reprolint: disable=RL002 -- diagnostic timing only
    )
