"""Process-parallel campaigns: worker-count invariance.

The tentpole guarantee of ``--workers N``: the journal (and therefore
``tables.txt``) is byte-identical to a serial run, because results are
committed in canonical unit order and every unit runs on a fresh world
built from the campaign seed regardless of which process executes it.
"""

import json
import os
import types

import pytest

from repro.netsim import make_udp_packet
from repro.runner import CampaignError, SimulatedCrash
from repro.runner.campaign import Campaign
from repro.runner.parallel import UnitSettings, build_unit_world, \
    execute_unit, run_unit_task, worker_initializer
from repro.runner.units import TableSpec, Unit, campaign_payload

#: Cheap-but-real experiment subset (same as the resume suite).
EXPERIMENTS = ["tcpip", "table3"]
SCALE = 0.05


def _campaign(run_dir, **kwargs):
    kwargs.setdefault("experiments", list(EXPERIMENTS))
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("fraction", 1.0)
    return Campaign(seed=1808, run_dir=str(run_dir), **kwargs)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestWorkerInvariance:
    def test_journal_and_tables_byte_identical(self, tmp_path):
        serial = _campaign(tmp_path / "serial", workers=1).run()
        parallel = _campaign(tmp_path / "parallel", workers=3).run()
        assert parallel.complete
        assert _read(parallel.journal_path) == _read(serial.journal_path)
        assert _read(parallel.tables_path) == _read(serial.tables_path)

    def test_resume_with_workers(self, tmp_path):
        straight = _campaign(tmp_path / "straight").run()
        interrupted = tmp_path / "interrupted"
        with pytest.raises(SimulatedCrash):
            _campaign(interrupted, crash_after=1).run()
        resumed = _campaign(interrupted, resume=True, workers=3).run()
        assert resumed.complete
        assert resumed.degradation.resumed == 1
        assert _read(resumed.tables_path) == _read(straight.tables_path)

    def test_crash_after_counts_journal_commits(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(SimulatedCrash):
            _campaign(run_dir, workers=3, crash_after=2).run()
        resumed = _campaign(run_dir, resume=True, workers=3).run()
        assert resumed.complete
        assert resumed.degradation.resumed == 2

    def test_timings_sidecar_written_not_journaled(self, tmp_path):
        report = _campaign(tmp_path / "run", workers=2).run()
        sidecar = os.path.join(report.run_dir, "timings.jsonl")
        assert os.path.exists(sidecar)
        assert b'"wall"' in _read(sidecar)
        # Wall clock is the one nondeterministic observable: it must
        # never reach the hash-chained journal.
        assert b'"wall"' not in _read(report.journal_path)


class TestWorkerValidation:
    def test_zero_workers_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="workers"):
            _campaign(tmp_path / "run", workers=0)



def _node_count(world, domains):
    return campaign_payload([["nodes", len(world.network.nodes)]])


def _address_space_limit(world, domains):
    import resource

    return campaign_payload(
        [["RLIMIT_AS", resource.getrlimit(resource.RLIMIT_AS)[0]]])


def _adhoc_units():
    yield Unit("nodes", _node_count)
    yield Unit("limit", _address_space_limit)


#: An ad-hoc spec registry built from module-level functions, so it
#: pickles under every start method.
ADHOC = {"adhoc": types.SimpleNamespace(
    CAMPAIGN=TableSpec(title="Ad hoc", headers=("probe", "value")),
    units=_adhoc_units)}


def _unit_rows(journal_path):
    with open(journal_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return {rec["unit"]: rec["payload"]["rows"]
            for rec in records if rec.get("type") == "unit"}


class TestAdHocSpecs:
    """``specs=`` modules reach the workers at spawn."""

    def _run(self, run_dir, **kwargs):
        return Campaign(seed=1808, scale=SCALE, fraction=1.0,
                        run_dir=str(run_dir), specs=ADHOC,
                        **kwargs).run()

    def test_specs_run_at_any_worker_count(self, tmp_path):
        one = self._run(tmp_path / "one")
        two = self._run(tmp_path / "two", workers=2)
        assert one.complete and two.complete
        assert _read(two.journal_path) == _read(one.journal_path)
        assert _unit_rows(one.journal_path)["nodes"][0][1] > 0

    def test_memory_limit_applies_at_one_worker(self, tmp_path):
        import resource

        own = resource.getrlimit(resource.RLIMIT_AS)
        limit_mb = 16384
        report = self._run(tmp_path / "run", memory_limit_mb=limit_mb)
        assert report.complete
        assert _unit_rows(report.journal_path)["limit"] == [
            ["RLIMIT_AS", limit_mb * 2 ** 20]]
        # The budget caps the worker, never the campaign's own process.
        assert resource.getrlimit(resource.RLIMIT_AS) == own


class TestWorkerTask:
    """The pool entry points, driven in-process."""

    def test_run_unit_task_round_trip(self):
        worker_initializer(UnitSettings(seed=1808, scale=SCALE,
                                        fraction=1.0))
        record, wall, extras, fatal = run_unit_task("tcpip", "mtnl")
        assert not fatal
        assert record["status"] == "ok"
        assert record["experiment"] == "tcpip"
        assert record["unit"] == "mtnl"
        assert record["payload"]["rows"]
        assert wall >= 0.0
        assert extras["trace"] is None  # tracing off by default
        assert extras["metrics"]["counters"]

    def test_unknown_unit_raises(self):
        worker_initializer(UnitSettings(seed=1808, scale=SCALE,
                                        fraction=1.0))
        with pytest.raises(CampaignError, match="no unit"):
            run_unit_task("tcpip", "not-an-isp")

    def _inject_unit(self, fn):
        from repro.runner.parallel import _WORKER
        from repro.runner.units import Unit

        worker_initializer(UnitSettings(seed=1808, scale=SCALE,
                                        fraction=1.0))
        _WORKER["units"]["tcpip"] = {"boom": Unit("boom", fn)}

    def test_fatal_path_measures_real_wall(self):
        import time

        def boom(world, domains):
            time.sleep(0.05)
            raise RuntimeError("deliberate programming error")

        self._inject_unit(boom)
        record, wall, extras, kind = run_unit_task("tcpip", "boom")
        assert kind == "fatal"
        assert record["status"] == "failed"
        # The failed attempt's elapsed time is forensic data — it must
        # not be reported as 0.0.
        assert wall >= 0.05
        assert extras["metrics"] is None and extras["trace"] is None
        assert "deliberate programming error" in extras["traceback"]

    def test_poison_path_reports_poison_kind(self):
        def balloon(world, domains):
            raise MemoryError("deliberate balloon")

        self._inject_unit(balloon)
        record, wall, extras, kind = run_unit_task("tcpip", "boom")
        assert kind == "poison"
        assert record["error"]["category"] == "poison"
        assert wall >= 0.0


class TestUnitBudgets:
    """``steps`` is read off the unit world's event count, and
    ``unit_steps`` caps it through the world's ``event_limit``."""

    def _unit(self, experiment, name):
        from repro.experiments import EXPERIMENT_MODULES

        return next(unit for unit in EXPERIMENT_MODULES[experiment].units()
                    if unit.name == name)

    def test_steps_are_the_units_event_count(self):
        settings = UnitSettings(seed=1808, scale=SCALE, fraction=1.0)
        unit = self._unit("tcpip", "mtnl")
        record, _wall, _extras, kind = execute_unit(settings, "tcpip", unit)
        assert kind is None and record["status"] == "ok"
        world = build_unit_world(settings)
        unit.fn(world, world.corpus.domains())
        assert record["steps"] == world.network.events_processed > 0

    def test_step_budget_inside_an_experiment_journals_a_timeout(self):
        # table1 wraps each ISP's OONI run in run_degradable; a spent
        # budget must pass through it rather than degrade the unit.
        settings = UnitSettings(seed=1808, scale=SCALE, fraction=1.0,
                                unit_steps=3000)
        unit = self._unit("table1", "mtnl")
        runs = [execute_unit(settings, "table1", unit) for _ in range(2)]
        assert runs[0][0] == runs[1][0]  # same budget, same record
        record, _wall, extras, kind = runs[0]
        assert kind is None
        assert record["status"] == "timeout"
        assert record["payload"] is None and record["error"] is None
        assert record["timeout"] == {
            "kind": "sim-steps",
            "detail": "unit exceeded 3000 simulated events"}
        assert record["steps"] == 3001
        # The crossing event ran and counts in the world's metrics.
        assert extras["metrics"]["counters"][
            "netsim_events_total{experiment=table1}"] == 3001

    def test_budget_spent_inside_a_fused_chain(self):
        # One send crosses six pure-transit routers as a fused chain,
        # which adds six events at once: the world's count passes the
        # budget of 3 by more than one, the journaled steps stop at 4.
        def chain(world, domains):
            net = world.network
            a = net.add_host("budget-a", "198.51.100.1")
            b = net.add_host("budget-b", "198.51.100.2")
            prev = "budget-a"
            for i in range(6):
                net.add_router(f"budget-r{i}", f"198.51.100.{10 + i}")
                net.link(prev, f"budget-r{i}")
                prev = f"budget-r{i}"
            net.link(prev, "budget-b")
            net.call_later(0.0, a.send_packet,
                           make_udp_packet(a.ip, b.ip, 1000, 53, b"p"))
            net.run_until_idle()
            return campaign_payload([["chain", "delivered"]])

        settings = UnitSettings(seed=1808, scale=SCALE, fraction=1.0,
                                unit_steps=3)
        record, _wall, extras, _kind = execute_unit(
            settings, "chain-exp", Unit("chain", chain))
        assert record["status"] == "timeout"
        assert record["steps"] == 4
        assert extras["metrics"]["counters"][
            "netsim_events_total{experiment=chain-exp}"] == 6


class TestCliWorkers:
    def test_workers_flag(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "run")
        assert main(["campaign", "tcpip", "--scale", str(SCALE),
                     "--run-dir", run_dir, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "TCP/IP filtering test" in out

    def test_workers_below_one_rejected(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["campaign", "tcpip", "--scale", str(SCALE),
                     "--run-dir", str(tmp_path / "run"),
                     "--workers", "0"]) == 2
        assert "--workers must be >= 1, got 0" in capsys.readouterr().err

    def test_oversubscribed_workers_warn(self, tmp_path, capsys,
                                         monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        run_dir = str(tmp_path / "run")
        assert cli.main(["campaign", "tcpip", "--scale", str(SCALE),
                         "--run-dir", run_dir, "--workers", "2"]) == 0
        err = capsys.readouterr().err
        assert "exceeds 1 available CPU core(s)" in err
