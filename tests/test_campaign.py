"""Campaign engine: determinism, caching, sharding, harness equality.

The engine's contract is that scheduling is invisible: the same seed
produces the same canonical report whether units run inline, across a
worker pool of any size, or half from the disk cache.  These tests pin
that contract on a cheap four-cell battery (one solvable and one
unsolvable cell from two model families) so the whole file stays fast.
"""

import json
from concurrent.futures import Future

import pytest

from repro.core.errors import ConfigurationError
from repro.core.params import SystemParams, Synchrony
from repro.experiments.campaign import (
    CACHE_SCHEMA,
    CampaignCache,
    CampaignUnit,
    delay_cells,
    enumerate_delay_units,
    enumerate_soak_units,
    enumerate_units,
    execute_unit,
    execute_units,
    run_campaign,
    shard_units,
    table1_cells,
)
from repro.experiments.harness import (
    delay_slice_keys,
    evaluate_cell,
    run_delay_slice,
    solvable_slice_keys,
)

PSYNC = Synchrony.PARTIALLY_SYNCHRONOUS

#: A cheap battery: seconds, not minutes (no heavy psync-unrestricted cells).
CHEAP_CELLS = [
    ("sync solvable", SystemParams(n=5, ell=4, t=1)),
    ("sync unsolvable", SystemParams(n=5, ell=3, t=1)),
    ("restricted-numerate solvable",
     SystemParams(n=4, ell=2, t=1, synchrony=PSYNC,
                  numerate=True, restricted=True)),
    ("restricted-numerate unsolvable",
     SystemParams(n=4, ell=1, t=1, synchrony=PSYNC,
                  numerate=True, restricted=True)),
]


class TestUnitEnumeration:
    def test_solvable_cells_expand_to_their_slices(self):
        units = enumerate_units(CHEAP_CELLS, seed=0, quick=True)
        for label, params in CHEAP_CELLS:
            cell_units = [u for u in units if u.label == label]
            if label.endswith("unsolvable"):
                assert [u.kind for u in cell_units] == ["demonstration"]
            else:
                keys = solvable_slice_keys(params, seed=0, quick=True)
                assert [
                    (u.assignment_index, u.byzantine_index)
                    for u in cell_units
                ] == keys
                assert all(u.kind == "slice" for u in cell_units)

    def test_unit_ids_unique_and_content_addressed(self):
        units = enumerate_units(CHEAP_CELLS, quick=True)
        ids = [u.unit_id for u in units]
        assert len(set(ids)) == len(ids)
        # Same spec -> same id; different seed -> different id.
        rebuilt = enumerate_units(CHEAP_CELLS, quick=True)
        assert [u.unit_id for u in rebuilt] == ids
        reseeded = enumerate_units(CHEAP_CELLS, seed=1, quick=True)
        assert set(u.unit_id for u in reseeded).isdisjoint(ids)

    def test_unit_roundtrips_through_dict(self):
        for unit in enumerate_units(CHEAP_CELLS, quick=True):
            clone = CampaignUnit.from_dict(
                json.loads(json.dumps(unit.to_dict()))
            )
            assert clone == unit
            assert clone.unit_id == unit.unit_id
            assert clone.params() == unit.params()

    def test_duplicate_labels_rejected(self):
        cells = [CHEAP_CELLS[0], CHEAP_CELLS[0]]
        with pytest.raises(ConfigurationError):
            enumerate_units(cells)

    def test_default_battery_is_table1(self):
        units = enumerate_units(quick=True)
        assert {u.label for u in units} == {l for l, _ in table1_cells()}


class TestSharding:
    def test_shards_partition_the_grid(self):
        units = enumerate_units(CHEAP_CELLS, quick=True)
        shards = [shard_units(units, i, 3) for i in range(3)]
        all_ids = [u.unit_id for shard in shards for u in shard]
        assert sorted(all_ids) == sorted(u.unit_id for u in units)
        assert len(set(all_ids)) == len(all_ids)

    def test_bad_shard_rejected(self):
        units = enumerate_units(CHEAP_CELLS, quick=True)
        with pytest.raises(ConfigurationError):
            shard_units(units, 3, 3)
        with pytest.raises(ConfigurationError):
            shard_units(units, 0, 0)


#: The cheap delay battery: the restricted-numerate psync solvable cell
#: only (the n=7 DLS cell is the expensive one).
CHEAP_DELAY_CELLS = [
    ("restricted-numerate solvable",
     SystemParams(n=4, ell=2, t=1, synchrony=PSYNC,
                  numerate=True, restricted=True)),
]


class TestDelayUnits:
    def test_cache_schema_is_campaign_7(self):
        assert CACHE_SCHEMA == "campaign/7"

    def test_delay_cells_are_the_psync_solvable_cells(self):
        labels = {label for label, _ in delay_cells()}
        assert labels == {"psync solvable", "restricted-numerate solvable"}

    def test_delay_units_share_the_slice_grid(self):
        units = enumerate_delay_units(CHEAP_DELAY_CELLS, seed=0, quick=True)
        keys = delay_slice_keys(CHEAP_DELAY_CELLS[0][1], seed=0, quick=True)
        assert [(u.assignment_index, u.byzantine_index) for u in units] == keys
        assert all(u.kind == "delay" for u in units)

    def test_non_psync_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            enumerate_delay_units(
                [("sync", SystemParams(n=5, ell=4, t=1))]
            )
        with pytest.raises(ConfigurationError):
            run_delay_slice(SystemParams(n=5, ell=4, t=1), (0, 0))

    def test_execute_unit_matches_direct_slice(self):
        unit = enumerate_delay_units(CHEAP_DELAY_CELLS, quick=True)[0]
        result = execute_unit(unit)
        direct = run_delay_slice(
            CHEAP_DELAY_CELLS[0][1],
            (unit.assignment_index, unit.byzantine_index),
            seed=unit.seed, quick=unit.quick,
        )
        assert result["kind"] == "delay"
        assert [(r["label"], r["ok"], r["detail"])
                for r in result["records"]] == \
               [(r.label, r.ok, r.detail) for r in direct]

    def test_delay_campaign_caches_and_resumes(self, tmp_path):
        cache = CampaignCache(tmp_path / "units")
        fresh = run_campaign(
            CHEAP_DELAY_CELLS, cache=cache, resume=True, unit_kind="delay",
        )
        assert fresh.cached == 0
        assert fresh.executed == len(fresh.unit_results)
        assert fresh.all_consistent
        resumed = run_campaign(
            CHEAP_DELAY_CELLS, cache=cache, resume=True, unit_kind="delay",
        )
        assert resumed.executed == 0
        assert resumed.cached == len(resumed.unit_results)
        assert fresh.canonical_dict() == resumed.canonical_dict()


class TestHarnessEquality:
    def test_campaign_records_match_sequential_harness(self):
        report = run_campaign(CHEAP_CELLS, workers=1)
        sequential = [evaluate_cell(p, quick=True) for _, p in CHEAP_CELLS]
        campaign = report.cell_results()
        assert len(campaign) == len(sequential)
        for seq, par in zip(sequential, campaign):
            assert par.params == seq.params
            assert par.algorithm == seq.algorithm
            assert par.demonstration == seq.demonstration
            assert [(r.label, r.ok, r.detail) for r in par.runs] == [
                (r.label, r.ok, r.detail) for r in seq.runs
            ]
        assert report.all_consistent


class TestDeterminism:
    def test_same_seed_same_report_for_any_worker_count(self):
        inline = run_campaign(CHEAP_CELLS, seed=3, workers=1)
        pooled = run_campaign(CHEAP_CELLS, seed=3, workers=2)
        assert inline.canonical_dict() == pooled.canonical_dict()
        assert inline.to_json(canonical=True) == pooled.to_json(
            canonical=True
        )

    def test_resume_from_cache_equals_fresh_run(self, tmp_path):
        cache = CampaignCache(tmp_path / "units")
        fresh = run_campaign(CHEAP_CELLS, cache=cache, resume=True)
        assert fresh.executed == len(fresh.unit_results)
        assert fresh.cached == 0
        resumed = run_campaign(CHEAP_CELLS, cache=cache, resume=True)
        assert resumed.executed == 0
        assert resumed.cached == len(resumed.unit_results)
        assert fresh.canonical_dict() == resumed.canonical_dict()

    def test_partial_cache_executes_only_the_delta(self, tmp_path):
        cache = CampaignCache(tmp_path / "units")
        units = enumerate_units(CHEAP_CELLS, quick=True)
        for unit in units[: len(units) // 2]:
            cache.store(unit, execute_unit(unit))
        report = run_campaign(CHEAP_CELLS, cache=cache, resume=True)
        assert report.cached == len(units) // 2
        assert report.executed == len(units) - len(units) // 2
        baseline = run_campaign(CHEAP_CELLS)
        assert report.canonical_dict() == baseline.canonical_dict()

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = CampaignCache(tmp_path)
        unit = enumerate_units(CHEAP_CELLS, quick=True)[0]
        cache.root.mkdir(parents=True, exist_ok=True)
        cache.path(unit).write_text("not json {")
        assert cache.load(unit) is None
        cache.path(unit).write_text(json.dumps({"unit_id": "wrong"}))
        assert cache.load(unit) is None


class TestReportEmitters:
    def test_json_report_shape(self):
        report = run_campaign(CHEAP_CELLS)
        data = json.loads(report.to_json())
        assert set(data) == {
            "campaign", "cells", "units", "summary", "execution",
        }
        assert data["summary"]["all_consistent"] is True
        assert data["summary"]["evaluated_cells"] == len(CHEAP_CELLS)
        assert {c["label"] for c in data["cells"]} == {
            l for l, _ in CHEAP_CELLS
        }
        canonical = json.loads(report.to_json(canonical=True))
        assert "execution" not in canonical
        assert all("elapsed_s" not in u for u in canonical["units"])

    def test_markdown_report_mentions_every_cell(self):
        report = run_campaign(CHEAP_CELLS)
        text = report.to_markdown()
        for label, _ in CHEAP_CELLS:
            assert label in text
        assert "cells consistent" in text
        assert "Impossibility demonstrations" in text

    def test_sharded_report_covers_only_its_cells(self):
        units = enumerate_units(CHEAP_CELLS, quick=True)
        report = run_campaign(CHEAP_CELLS, shard=(0, len(units)))
        assert len(report.unit_results) == 1
        assert len(report.cell_results()) == 1


class TestCacheStoreDurability:
    """Regression: `CampaignCache.store` under concurrency and crashes.

    Pre-fix, every writer of a unit shared one tmp path
    (``<unit_id>.tmp``): two concurrent stores interleaved write and
    rename, so the loser's ``replace`` raised ``FileNotFoundError`` on
    the vanished tmp -- and nothing was fsynced, so a crash right after
    the rename could persist a truncated entry.
    """

    def _unit(self):
        return enumerate_units(CHEAP_CELLS, quick=True)[0]

    def test_concurrent_stores_of_one_unit_never_collide(self, tmp_path):
        import threading

        cache = CampaignCache(tmp_path)
        unit = self._unit()
        payloads = [
            dict(execute_unit(unit), writer=i, pad="x" * 2000)
            for i in range(8)
        ]
        errors = []

        def hammer(payload):
            try:
                for _ in range(100):
                    cache.store(unit, payload)
            except OSError as exc:  # pragma: no cover - the pre-fix bug
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(p,)) for p in payloads
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Last writer wins with a *complete* file: whatever survived
        # must be one of the exact payloads, never an interleaving.
        final = json.loads(cache.path(unit).read_text())
        assert final in [
            json.loads(json.dumps(p, sort_keys=True)) for p in payloads
        ]
        # No orphaned tmp files left behind.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_store_fsyncs_before_publishing(self, tmp_path, monkeypatch):
        import os as os_module

        cache = CampaignCache(tmp_path)
        unit = self._unit()
        result = execute_unit(unit)
        synced = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "repro.experiments.campaign.os.fsync",
            lambda fd: (synced.append(fd), real_fsync(fd)),
        )
        cache.store(unit, result)
        assert synced, "store() published a result without fsyncing it"
        assert cache.load(unit) == json.loads(
            json.dumps(result, sort_keys=True)
        )

    def test_failed_write_leaves_no_tmp_and_no_entry(self, tmp_path):
        cache = CampaignCache(tmp_path)
        unit = self._unit()
        with pytest.raises(TypeError):
            cache.store(unit, {"unserialisable": object()})
        assert list(tmp_path.glob("*.tmp")) == []
        assert cache.load(unit) is None


class TestPoolFailureContract:
    """Regression: one poisoned unit must abort the batch promptly.

    Pre-fix, a worker exception propagated only after the executor's
    ``__exit__`` joined *every* outstanding future, so one bad unit made
    the campaign hang until all unrelated heavy units finished -- and
    the exception said nothing about which unit raised it.
    """

    def _poison(self):
        # An unknown soak profile fails validation in milliseconds.
        u = enumerate_soak_units("quick", 0, 10, 10)[0]
        return CampaignUnit.from_dict(
            dict(u.to_dict(), variant="no-such-profile",
                 byzantine_index=10_000)
        )

    def _heavies(self, count):
        # Real soak windows, a few hundred ms each.
        return enumerate_soak_units("quick", 0, 150 * count, 150)

    def test_inline_failure_attaches_unit_note(self):
        poison = self._poison()
        finished = []
        with pytest.raises(ConfigurationError) as err:
            execute_units(
                [poison, *self._heavies(1)], 1,
                lambda unit, result: finished.append(unit.unit_id),
            )
        assert any(poison.describe() in n for n in err.value.__notes__)
        assert any(poison.unit_id in n for n in err.value.__notes__)
        assert finished == []

    def test_pool_failure_cancels_queued_units(self):
        poison = self._poison()
        heavies = self._heavies(4)
        finished = []
        with pytest.raises(ConfigurationError) as err:
            execute_units(
                [*heavies, poison], 2,
                lambda unit, result: finished.append(unit.unit_id),
            )
        assert any(poison.describe() in n for n in err.value.__notes__)
        # The poison unit is the heaviest, so it is scheduled in the
        # first wave and fails while at most one heavy unit is in
        # flight; the cancelled tail must never reach ``finish``.
        assert len(finished) < len(heavies)


class TestPoolSubmissionWindow:
    """The pool loop submits lazily: never more than
    ``max(4 * workers, 16)`` units beyond the oldest unfinished one."""

    def test_out_of_order_completion_stays_within_the_window(
        self, monkeypatch
    ):
        import repro.experiments.campaign as campaign_mod

        units = enumerate_soak_units("quick", 0, 40 * 10, 10)
        position = {unit.unit_id: pos for pos, unit in enumerate(units)}
        submitted: list[int] = []
        unfinished: set[int] = set()
        spreads: list[int] = []

        class LifoPool:
            """Results are ready at once; ``lifo_wait`` below reports
            only the newest outstanding unit done, so the oldest
            submitted unit always finishes last."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, spec):
                pos = position[CampaignUnit.from_dict(spec).unit_id]
                submitted.append(pos)
                unfinished.add(pos)
                spreads.append(pos - min(unfinished))
                future = Future()
                future.set_result({"records": []})
                future.pos = pos
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        def lifo_wait(futures, return_when):
            newest = max(futures, key=lambda f: f.pos)
            return {newest}, set(futures) - {newest}

        monkeypatch.setattr(campaign_mod, "ProcessPoolExecutor", LifoPool)
        monkeypatch.setattr(campaign_mod, "wait", lifo_wait)

        def finish(unit, result):
            unfinished.discard(position[unit.unit_id])

        execute_units(units, 2, finish)
        window = max(4 * 2, 16)
        assert max(spreads) == window - 1
        # Equal weights: the stable heaviest-first sort keeps input order.
        assert submitted == list(range(len(units)))
        assert unfinished == set()


class TestSoakUnits:
    def test_budget_expands_to_windows_with_a_short_tail(self):
        units = enumerate_soak_units("quick", 5, 250, 100)
        assert [(u.assignment_index, u.byzantine_index) for u in units] \
            == [(0, 100), (100, 100), (200, 50)]
        assert all(u.kind == "soak" for u in units)
        assert all(u.variant == "quick" for u in units)
        assert all(u.seed == 5 for u in units)
        assert len({u.unit_id for u in units}) == len(units)

    def test_profile_seed_and_schema_separate_cache_keys(self):
        base = enumerate_soak_units("quick", 0, 100, 100)[0]
        other_profile = enumerate_soak_units("standard", 0, 100, 100)[0]
        other_seed = enumerate_soak_units("quick", 1, 100, 100)[0]
        assert len({base.unit_id, other_profile.unit_id,
                    other_seed.unit_id}) == 3

    def test_describe_names_the_stream_slice(self):
        unit = enumerate_soak_units("quick", 0, 250, 100)[1]
        assert "quick" in unit.describe()
        assert "100" in unit.describe()

    def test_bad_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            enumerate_soak_units("quick", 0, 100, 0)
        with pytest.raises(ConfigurationError):
            enumerate_soak_units("quick", 0, -1, 100)

    def test_execute_unit_runs_the_window(self):
        unit = enumerate_soak_units("quick", 0, 8, 8)[0]
        result = execute_unit(unit.to_dict())
        assert result["kind"] == "soak"
        assert result["algorithm"] == "soak-mixture"
        assert len(result["records"]) == 8
        assert all(r["ok"] for r in result["records"])
