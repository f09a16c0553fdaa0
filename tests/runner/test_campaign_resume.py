"""Campaign crash-safety: kill/resume byte-identity, deadlines, resume
validation.  This is the acceptance suite for the crash-safe runner —
a campaign killed after any unit and resumed must render tables
byte-identical to the uninterrupted run.
"""

import os
import types

import pytest

from repro.experiments.common import TableSpec, Unit, campaign_payload
from repro.runner import (
    CampaignError,
    ResumeMismatch,
    SimulatedCrash,
)
from repro.runner.campaign import CRASH_AFTER_ENV, Campaign

#: Cheap-but-real experiment subset the resume tests sweep.
EXPERIMENTS = ["tcpip", "table3"]
SCALE = 0.05


def _campaign(run_dir, seed=1808, **kwargs):
    kwargs.setdefault("experiments", list(EXPERIMENTS))
    kwargs.setdefault("scale", SCALE)
    return Campaign(seed=seed, run_dir=str(run_dir), **kwargs)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestStraightRun:
    def test_all_units_ok_and_rendered(self, tmp_path):
        report = _campaign(tmp_path / "run").run()
        counts = report.counts
        assert counts["ok"] == counts["total"] > 0
        assert counts["failed"] == counts["timeout"] == 0
        assert report.complete
        assert os.path.exists(report.journal_path)
        assert _read(report.tables_path).decode() == report.tables
        assert "TCP/IP filtering test" in report.tables

    def test_existing_journal_needs_resume_flag(self, tmp_path):
        _campaign(tmp_path / "run").run()
        with pytest.raises(CampaignError, match="--resume"):
            _campaign(tmp_path / "run").run()


class TestKillResume:
    """The tentpole guarantee, across several (seed, N) pairs."""

    @pytest.mark.parametrize("seed,crash_after", [
        (1808, 1), (1808, 3), (99, 2),
    ])
    def test_byte_identical_tables(self, tmp_path, seed, crash_after):
        straight = _campaign(tmp_path / "straight", seed=seed).run()

        interrupted = tmp_path / "interrupted"
        with pytest.raises(SimulatedCrash):
            _campaign(interrupted, seed=seed,
                      crash_after=crash_after).run()
        resumed = _campaign(interrupted, seed=seed, resume=True).run()

        assert resumed.complete
        assert resumed.degradation.resumed == crash_after
        assert _read(resumed.tables_path) == _read(straight.tables_path)
        assert resumed.tables == straight.tables

    def test_repeated_crashes_then_resume(self, tmp_path):
        """Kill the campaign after every single unit; still identical."""
        straight = _campaign(tmp_path / "straight").run()
        run_dir = tmp_path / "chunked"
        report = None
        for _ in range(straight.counts["total"]):
            try:
                report = _campaign(run_dir, crash_after=1,
                                   resume=os.path.exists(
                                       run_dir / "journal.jsonl")).run()
                break
            except SimulatedCrash:
                continue
        else:
            report = _campaign(run_dir, resume=True).run()
        assert report.complete
        assert report.tables == straight.tables

    def test_resume_reports_accounting(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(SimulatedCrash):
            _campaign(run_dir, crash_after=2).run()
        report = _campaign(run_dir, resume=True).run()
        assert "resumed: 2 units from journal" in report.render()

    def test_crash_after_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        with pytest.raises(SimulatedCrash):
            _campaign(tmp_path / "run").run()

    def test_resume_adopts_journal_experiments(self, tmp_path):
        """--resume DIR alone re-runs the journal's experiment list."""
        run_dir = tmp_path / "run"
        with pytest.raises(SimulatedCrash):
            _campaign(run_dir, crash_after=1).run()
        resumed = Campaign(seed=1808, scale=SCALE,
                           run_dir=str(run_dir), resume=True).run()
        assert resumed.complete
        assert set(resumed.degradation.errors or ()) == set()
        straight = _campaign(tmp_path / "straight").run()
        assert resumed.tables == straight.tables


class TestResumeValidation:
    def _crashed(self, tmp_path, **kwargs):
        run_dir = tmp_path / "run"
        with pytest.raises(SimulatedCrash):
            _campaign(run_dir, crash_after=1, **kwargs).run()
        return run_dir

    def test_seed_mismatch(self, tmp_path):
        run_dir = self._crashed(tmp_path)
        with pytest.raises(ResumeMismatch, match="seed"):
            _campaign(run_dir, seed=7, resume=True).run()

    def test_scale_mismatch(self, tmp_path):
        run_dir = self._crashed(tmp_path)
        with pytest.raises(ResumeMismatch, match="scale"):
            _campaign(run_dir, scale=0.07, resume=True).run()

    def test_experiment_set_mismatch(self, tmp_path):
        run_dir = self._crashed(tmp_path)
        with pytest.raises(ResumeMismatch, match="experiments"):
            _campaign(run_dir, experiments=["tcpip"], resume=True).run()

    def test_resume_empty_dir(self, tmp_path):
        with pytest.raises(CampaignError, match="no journal"):
            _campaign(tmp_path / "nothing", resume=True).run()

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(CampaignError, match="unknown experiment"):
            _campaign(tmp_path / "run", experiments=["tables-9000"])


def _hanging_module():
    """A fake experiment whose second unit simulates forever."""

    def quick(world, domains):
        return campaign_payload([["quick", "done"]])

    def hang(world, domains):
        network = world.network

        def rearm():
            network.call_later(0.001, rearm)

        network.call_later(0.001, rearm)
        network.run()
        return campaign_payload([["hang", "unreachable"]])

    def units():
        yield Unit("quick", quick)
        yield Unit("hang", hang)
        yield Unit("after", quick)

    return types.SimpleNamespace(
        CAMPAIGN=TableSpec(title="Hang test", headers=("unit", "note")),
        units=units,
    )


class TestDeadlines:
    def test_hung_unit_becomes_timeout_row(self, tmp_path):
        campaign = Campaign(
            seed=1808, scale=SCALE,
            run_dir=str(tmp_path / "run"),
            specs={"hang-exp": _hanging_module()},
            unit_steps=2000,
        )
        report = campaign.run()
        assert report.counts["timeout"] == 1
        assert report.counts["ok"] == 2  # the campaign moved on
        assert not report.complete
        assert "(timeout: unit exceeded 2000 simulated events)" \
            in report.tables
        assert "timeout: hang-exp:hang" in report.render()

    def test_timed_out_unit_is_rerun_on_resume(self, tmp_path):
        run_dir = tmp_path / "run"
        module = _hanging_module()
        Campaign(seed=1808, scale=SCALE,
                 run_dir=str(run_dir), specs={"hang-exp": module},
                 unit_steps=2000).run()
        # Resume with a roomier budget: the hang still hangs (it is
        # unbounded), but the timeout entry must be refreshed, proving
        # non-durable units are re-executed rather than skipped.
        resumed = Campaign(seed=1808, scale=SCALE,
                           run_dir=str(run_dir),
                           specs={"hang-exp": module}, resume=True,
                           unit_steps=2000).run()
        assert resumed.counts["timeout"] == 1
        assert resumed.degradation.resumed == 2  # quick + after kept

    def test_campaign_deadline_skips_remaining_units(self, tmp_path):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 100.0  # every read burns the budget
            return clock_value[0]

        report = _campaign(tmp_path / "run", deadline=50.0,
                           clock=clock).run()
        assert report.deadline_hit is not None
        assert report.counts["missing"] == report.counts["total"]
        assert "(not run)" in report.tables
        assert not report.complete

    def test_campaign_deadline_stops_between_commits(self, tmp_path):
        # Start, then one read per delivered outcome: two units commit
        # inside the 30 s budget, the third finds it spent.
        reads = iter([0.0, 10.0, 20.0, 31.0])
        report = _campaign(tmp_path / "run", deadline=30.0,
                           clock=lambda: next(reads)).run()
        assert report.deadline_hit == "campaign wall budget 30s exhausted"
        assert report.counts["ok"] == 2
        assert report.counts["missing"] == report.counts["total"] - 2
        assert "deadline: campaign wall budget 30s exhausted" \
            in report.render()
        with open(report.journal_path, encoding="utf-8") as fh:
            last = fh.read().splitlines()[-1]
        assert '"status":"deadline"' in last

    def test_campaign_deadline_never_times_out_a_unit(self, tmp_path):
        # A spent campaign budget leaves the rest missing, never
        # journaled as timeouts, so a resume finishes the straight run.
        straight = _campaign(tmp_path / "straight").run()
        reads = iter([0.0, 10.0, 31.0])
        run_dir = tmp_path / "run"
        report = _campaign(run_dir, deadline=30.0,
                           clock=lambda: next(reads)).run()
        assert report.counts["timeout"] == 0
        assert report.counts["ok"] == 1
        resumed = _campaign(run_dir, resume=True).run()
        assert resumed.complete
        assert _read(resumed.tables_path) == _read(straight.tables_path)

    def test_no_campaign_deadline_never_fires(self, tmp_path):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 1e9
            return clock_value[0]

        report = _campaign(tmp_path / "run", clock=clock).run()
        assert report.deadline_hit is None
        assert report.complete


class TestCli:
    def test_campaign_command_and_resume(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.cli import main

        run_dir = str(tmp_path / "run")
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        with pytest.raises(SimulatedCrash):
            main(["campaign", "tcpip", "--scale", str(SCALE),
                  "--run-dir", run_dir])
        capsys.readouterr()
        monkeypatch.delenv(CRASH_AFTER_ENV)
        assert main(["campaign", "tcpip", "--scale", str(SCALE),
                     "--resume", run_dir]) == 0
        out = capsys.readouterr().out
        assert "resumed: 1 units from journal" in out
        assert "TCP/IP filtering test" in out

    def test_campaign_refuses_clobber(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "run")
        assert main(["campaign", "tcpip", "--scale", str(SCALE),
                     "--run-dir", run_dir]) == 0
        capsys.readouterr()
        assert main(["campaign", "tcpip", "--scale", str(SCALE),
                     "--run-dir", run_dir]) == 2
        assert "already exists" in capsys.readouterr().err
