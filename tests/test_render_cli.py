"""Tests for the ASCII renderer and the command-line interface."""

import pytest

from repro.cli import main
from repro.core.identity import balanced_assignment
from repro.core.params import SystemParams, Synchrony
from repro.core.problem import BINARY
from repro.psync.dls_homonyms import dls_factory, dls_horizon
from repro.sim.render import (
    render_decision_summary,
    render_round,
    render_timeline,
)
from repro.sim.runner import run_agreement


@pytest.fixture(scope="module")
def sample_run():
    # n=6, ell=5: 2*ell = 10 > n + 3t = 9.  (n=5, ell=4 would be the
    # paper's famous *unsolvable* point!)
    params = SystemParams(
        n=6, ell=5, t=1, synchrony=Synchrony.PARTIALLY_SYNCHRONOUS
    )
    assignment = balanced_assignment(6, 5)
    proposals = {k: k % 2 for k in range(5)}
    result = run_agreement(
        params=params,
        assignment=assignment,
        factory=dls_factory(params, BINARY),
        proposals=proposals,
        byzantine=(5,),
        max_rounds=dls_horizon(params, 0),
    )
    return result, assignment, proposals


class TestTimeline:
    def test_has_one_row_per_process(self, sample_run):
        result, assignment, _ = sample_run
        text = render_timeline(result.trace, assignment, byzantine=(5,))
        rows = [line for line in text.splitlines() if line.startswith("p")]
        assert len(rows) == 6

    def test_marks_byzantine_rows(self, sample_run):
        result, assignment, _ = sample_run
        text = render_timeline(result.trace, assignment, byzantine=(5,))
        byz_row = [l for l in text.splitlines() if l.startswith("p5")][0]
        assert "byz" in byz_row and ("B" in byz_row or "b" in byz_row)

    def test_marks_decisions_with_value_digit(self, sample_run):
        result, assignment, _ = sample_run
        text = render_timeline(result.trace, assignment, byzantine=(5,))
        correct_rows = [l for l in text.splitlines()
                        if l.startswith("p") and "byz" not in l]
        assert all(("0" in row or "1" in row) for row in correct_rows)

    def test_phase_ruler(self, sample_run):
        result, assignment, _ = sample_run
        text = render_timeline(result.trace, assignment, byzantine=(5,),
                               rounds_per_phase=8)
        assert text.splitlines()[0].startswith("phase")

    def test_max_rounds_truncation(self, sample_run):
        result, assignment, _ = sample_run
        text = render_timeline(result.trace, assignment, max_rounds=4)
        row = [l for l in text.splitlines() if l.startswith("p0")][0]
        grid = row.split()[-1]
        assert len(grid) == 4


class TestRoundDump:
    def test_shows_payloads_and_decisions(self, sample_run):
        result, assignment, _ = sample_run
        last = result.verdict.last_decision_round
        text = render_round(result.trace, last, assignment)
        assert "DECIDES" in text

    def test_truncates_long_payloads(self, sample_run):
        result, assignment, _ = sample_run
        text = render_round(result.trace, 0, assignment)
        assert all(len(line) < 140 for line in text.splitlines())


class TestDecisionSummary:
    def test_lists_all_processes(self, sample_run):
        result, _, proposals = sample_run
        text = render_decision_summary(result.trace, proposals)
        for k in proposals:
            assert f"p{k}" in text


class TestCLI:
    def test_table1(self, capsys):
        assert main(["table1", "--n", "7", "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert "ell > 3t" in out and "n=7" in out

    def test_check_reports_all_four_models(self, capsys):
        assert main(["check", "9", "6", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("solvable") == 4  # includes 'unsolvable'
        assert "unsolvable" in out

    def test_run_solvable_exits_zero(self, capsys):
        code = main([
            "run", "--n", "5", "--ell", "4", "--t", "1",
            "--model", "sync", "--attack", "silent", "--timeline",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK:" in out and "legend" in out

    def test_run_restricted_model(self, capsys):
        code = main([
            "run", "--n", "4", "--ell", "2", "--t", "1",
            "--numerate", "--restricted", "--attack", "chaos",
        ])
        assert code == 0
        assert "fig7-restricted" in capsys.readouterr().out

    def test_attack_fig1(self, capsys):
        assert main(["attack", "fig1", "--n", "4", "--t", "1"]) == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_attack_fig4(self, capsys):
        code = main(["attack", "fig4", "--n", "9", "--ell", "6", "--t", "1"])
        assert code == 0
        assert "gamma" in capsys.readouterr().out

    def test_attack_mirror(self, capsys):
        code = main(["attack", "mirror", "--n", "4", "--ell", "1", "--t", "1"])
        assert code == 0
        assert "multivalence" in capsys.readouterr().out

    def test_run_refuses_unsolvable_configuration(self, capsys):
        code = main(["run", "--n", "9", "--ell", "6", "--t", "1"])
        assert code == 2
        assert "UNSOLVABLE" in capsys.readouterr().out

    def test_run_eventual_delay_timing(self, capsys):
        code = main([
            "run", "--n", "6", "--ell", "5", "--t", "1", "--model", "psync",
            "--attack", "silent", "--timing", "eventual",
            "--delta", "2", "--gst-tick", "8", "--chaos", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "delay-based (delta=2" in out
        assert "network ticks" in out
        assert "basic-model" in out

    def test_run_bounded_delay_timing_is_punctual(self, capsys):
        code = main([
            "run", "--n", "6", "--ell", "5", "--t", "1", "--model", "psync",
            "--attack", "silent", "--timing", "bounded", "--delta", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "no message was ever late" in out

    def test_run_rejects_delay_timing_with_gst_drops(self, capsys):
        code = main([
            "run", "--n", "6", "--ell", "5", "--t", "1", "--model", "psync",
            "--timing", "eventual", "--gst", "4",
        ])
        assert code == 2
        assert "drop --gst" in capsys.readouterr().err

    def test_run_rejects_delay_flags_without_delay_timing(self, capsys):
        code = main([
            "run", "--n", "6", "--ell", "5", "--t", "1", "--model", "psync",
            "--delta", "3",
        ])
        assert code == 2
        assert "--timing" in capsys.readouterr().err

    def test_run_rejects_eventual_only_flags_with_bounded_timing(self, capsys):
        code = main([
            "run", "--n", "6", "--ell", "5", "--t", "1", "--model", "psync",
            "--timing", "bounded", "--gst-tick", "50", "--chaos", "8",
        ])
        assert code == 2
        assert "--timing eventual" in capsys.readouterr().err

    def test_run_rejects_chaos_factor_below_one(self, capsys):
        code = main([
            "run", "--n", "6", "--ell", "5", "--t", "1", "--model", "psync",
            "--timing", "eventual", "--chaos", "-1",
        ])
        assert code == 2
        assert "chaos_factor must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table1", "--n", "0"],
        ["table1", "--n", "-3"],
        ["table1", "--n", "5", "--t", "-1"],
        ["check", "0", "0", "0"],
        ["check", "4", "4", "-1"],
    ], ids=["table1-n0", "table1-n-neg", "table1-t-neg", "check-n0",
            "check-t-neg"])
    def test_invalid_parameters_fail_before_printing(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be >= " in captured.err

    def test_campaign_help_exposes_the_delay_family(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--delay" in out and "delay-model workload family" in out

    def test_campaign_delay_and_explore_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "--delay", "--explore"])
        assert exit_info.value.code == 2

    def test_table1_without_map(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "ell > 3t" in out and "boundary" not in out
