"""Self-healing campaigns: the supervised worker pool.

The acceptance suite for the supervision layer, which runs every
campaign (``workers=1`` is a one-worker pool): a kill-riddled campaign
must commit a journal and tables byte-identical to the undisturbed
run; a unit that crashes its worker twice is quarantined durably; a
unit hung in pure Python is killed at the hard deadline and journaled
as a timeout; Ctrl-C drains under every start method.  All forensics
(attempts, worker ids, crash events) stay in sidecars.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.runner import supervise
from repro.runner.campaign import Campaign
from repro.runner.errors import CampaignError
from repro.runner.parallel import HANG_ENV, KILL_ENV, UnitSettings
from repro.runner.supervise import Supervisor

SCALE = 0.05

#: Deterministic kill plan: three first-attempt SIGKILLs across two
#: experiments (unit names from the tcpip/table3 registries).
KILL_PLAN = "tcpip/mtnl:1,tcpip/idea:1,table3/sify:1"


def _campaign(run_dir, experiments=("tcpip", "table3"), **kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("fraction", 1.0)
    return Campaign(experiments=list(experiments), seed=1808,
                    run_dir=str(run_dir), **kwargs)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestKillChaos:
    """Injected worker SIGKILLs must be invisible in durable outputs."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_kill_riddled_run_byte_identical_to_serial(self, tmp_path,
                                                       monkeypatch,
                                                       workers):
        serial = _campaign(tmp_path / "serial").run()
        monkeypatch.setenv(KILL_ENV, KILL_PLAN)
        chaos = _campaign(tmp_path / "chaos", workers=workers).run()

        assert chaos.complete
        assert _read(chaos.journal_path) == _read(serial.journal_path)
        assert _read(chaos.tables_path) == _read(serial.tables_path)

        # Forensics land in the sidecars instead.
        events = _jsonl(os.path.join(chaos.run_dir, "supervision.jsonl"))
        kinds = [event["kind"] for event in events]
        assert kinds.count("worker-crash") == 3
        assert kinds.count("unit-retry") == 3
        assert kinds.count("worker-spawn") == 3  # one respawn per kill

        victims = {("tcpip", "mtnl"), ("tcpip", "idea"),
                   ("table3", "sify")}
        timings = _jsonl(os.path.join(chaos.run_dir, "timings.jsonl"))
        by_unit = {(t["experiment"], t["unit"]): t for t in timings}
        for victim in victims:
            assert by_unit[victim]["attempts"] == 2
        survivors = set(by_unit) - victims
        assert all(by_unit[unit]["attempts"] == 1 for unit in survivors)
        assert all(t["worker"] is not None for t in timings)

        metrics = json.load(open(os.path.join(chaos.run_dir,
                                              "metrics.json")))
        wall_counters = metrics["wall"]["counters"]
        assert wall_counters["campaign_worker_crashes_total"] == 3
        assert wall_counters["campaign_unit_retries_total"] == 3
        # Crash accounting must never leak into the deterministic half.
        serial_metrics = json.load(open(os.path.join(
            serial.run_dir, "metrics.json")))
        assert metrics["deterministic"] == serial_metrics["deterministic"]

    def test_serial_runs_face_the_same_chaos(self, tmp_path,
                                             monkeypatch):
        """``workers=1`` is a one-worker pool, so a kill plan reaches
        it too: a unit killed on every attempt is quarantined with the
        same journal bytes as on two workers."""
        monkeypatch.setenv(KILL_ENV, "tcpip/mtnl")
        serial = _campaign(tmp_path / "serial",
                           experiments=("tcpip",)).run()
        pooled = _campaign(tmp_path / "pooled", experiments=("tcpip",),
                           workers=2).run()
        assert serial.counts["quarantined"] == 1
        assert _read(serial.journal_path) == _read(pooled.journal_path)


class TestQuarantine:
    def _quarantine_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KILL_ENV, "tcpip/mtnl:1,tcpip/mtnl:2")
        return _campaign(tmp_path / "run", experiments=("tcpip",),
                         workers=2).run()

    def test_double_crash_quarantines_and_campaign_proceeds(
            self, tmp_path, monkeypatch):
        report = self._quarantine_run(tmp_path, monkeypatch)
        assert report.counts["quarantined"] == 1
        assert report.counts["ok"] == report.counts["total"] - 1
        assert not report.complete  # a quarantined unit is not a result
        assert "(quarantined: crashed 2 consecutive worker" \
            in report.tables
        assert "quarantined: tcpip:mtnl" in report.render()

        journal = _jsonl(report.journal_path)
        quarantined = [rec for rec in journal
                       if rec.get("status") == "quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0]["unit"] == "mtnl"
        assert quarantined[0]["error"]["category"] == "poison"

        events = _jsonl(os.path.join(report.run_dir,
                                     "supervision.jsonl"))
        assert [e["kind"] for e in events].count("unit-quarantined") == 1

    def test_quarantined_unit_survives_resume_untouched(
            self, tmp_path, monkeypatch):
        report = self._quarantine_run(tmp_path, monkeypatch)
        tables_before = _read(report.tables_path)
        monkeypatch.delenv(KILL_ENV)
        resumed = _campaign(tmp_path / "run", experiments=("tcpip",),
                            resume=True).run()
        # Every unit — including the quarantined one — was durable, so
        # nothing re-ran and the rendered tables are stable.
        assert resumed.degradation.resumed == resumed.counts["total"]
        assert resumed.counts["quarantined"] == 1
        assert _read(resumed.tables_path) == tables_before


class TestHardDeadline:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pure_python_hang_is_killed_and_journaled(self, tmp_path,
                                                      monkeypatch,
                                                      workers):
        monkeypatch.setenv(HANG_ENV, "tcpip/mtnl")
        monkeypatch.setattr(supervise, "HARD_GRACE", 0.5)
        report = _campaign(tmp_path / "run", experiments=("tcpip",),
                           workers=workers, unit_wall=0.5).run()
        assert report.counts["timeout"] == 1
        assert report.counts["ok"] == report.counts["total"] - 1
        # The detail names the budget, never the elapsed time.
        assert "(timeout: unit exceeded 0.5s wall budget)" \
            in report.tables
        events = _jsonl(os.path.join(report.run_dir,
                                     "supervision.jsonl"))
        assert any(e["kind"] == "unit-hard-timeout" for e in events)
        journal = _jsonl(report.journal_path)
        timeouts = [rec for rec in journal
                    if rec.get("status") == "timeout"]
        assert timeouts[0]["timeout"]["kind"] == "unit-wall"
        assert timeouts[0]["steps"] is None  # SIGKILL leaves no count

    def test_deadline_kills_do_not_spend_the_respawn_budget(
            self, monkeypatch):
        # Each kill respawns the worker, but a hard timeout is a final
        # outcome: kills are bounded by the units, not by max_respawns.
        monkeypatch.setenv(HANG_ENV, "tcpip/mtnl,tcpip/airtel")
        monkeypatch.setattr(supervise, "HARD_GRACE", 0.2)
        supervisor = Supervisor(
            UnitSettings(seed=1808, scale=SCALE, fraction=1.0),
            workers=1, unit_wall=0.2, max_respawns=1)
        outcomes = list(supervisor.run([("tcpip", "mtnl"),
                                        ("tcpip", "airtel")]))
        assert [o.record["status"] for o in outcomes] == ["timeout"] * 2
        assert [o.record["timeout"]["kind"] for o in outcomes] \
            == ["unit-wall"] * 2
        # Killed at unit_wall + the patched grace, not the default 2 s.
        assert all(o.wall < 2.0 for o in outcomes)
        assert not supervisor._slots  # pool torn down on the way out

    def test_no_respawn_once_no_unit_needs_a_worker(self, monkeypatch):
        # The last unit hangs and is killed: nothing is left to run,
        # so no replacement worker starts only to be shut down.
        from repro.obs.trace import BufferSink, TraceBus

        monkeypatch.setenv(HANG_ENV, "tcpip/airtel")
        monkeypatch.setattr(supervise, "HARD_GRACE", 0.5)
        bus = TraceBus()
        sink = BufferSink()
        bus.subscribe(sink)
        supervisor = Supervisor(
            UnitSettings(seed=1808, scale=SCALE, fraction=1.0),
            workers=1, unit_wall=0.5, events=bus)
        outcomes = list(supervisor.run([("tcpip", "mtnl"),
                                        ("tcpip", "airtel")]))
        assert [o.record["status"] for o in outcomes] == ["ok", "timeout"]
        kinds = [event["kind"] for event in sink.events]
        assert kinds == ["unit-hard-timeout"]
        assert supervisor._spawned == 1


class TestSupervisorUnit:
    """The Supervisor driven directly, without a campaign."""

    def _settings(self):
        return UnitSettings(seed=1808, scale=SCALE, fraction=1.0)

    def test_empty_task_list_spawns_nothing(self):
        supervisor = Supervisor(self._settings(), workers=2)
        assert list(supervisor.run([])) == []
        assert supervisor._spawned == 0

    def test_workers_validated(self):
        with pytest.raises(CampaignError, match="workers"):
            Supervisor(self._settings(), workers=0)
        with pytest.raises(CampaignError, match="max_crashes"):
            Supervisor(self._settings(), workers=1, max_crashes=0)

    def test_respawn_budget_bounds_crash_loops(self, monkeypatch):
        # Kill every attempt; with max_crashes high the unit keeps
        # retrying until the spawn budget trips the circuit breaker.
        monkeypatch.setenv(KILL_ENV, "tcpip/mtnl")
        supervisor = Supervisor(self._settings(), workers=1,
                                max_crashes=99, backoff_base=0.0,
                                max_respawns=3)
        with pytest.raises(CampaignError, match="unstable"):
            list(supervisor.run([("tcpip", "mtnl")]))
        assert not supervisor._slots  # pool torn down on the way out

    def test_outcomes_arrive_in_canonical_order(self, monkeypatch):
        monkeypatch.setenv(KILL_ENV, "tcpip/idea:1")
        supervisor = Supervisor(self._settings(), workers=3,
                                backoff_base=0.0)
        tasks = [("tcpip", name) for name in
                 ("mtnl", "airtel", "idea", "vodafone", "jio")]
        outcomes = list(supervisor.run(tasks))
        assert [o.index for o in outcomes] == list(range(len(tasks)))
        assert [o.unit_name for o in outcomes] == [t[1] for t in tasks]
        by_name = {o.unit_name: o for o in outcomes}
        assert by_name["idea"].attempts == 2
        assert all(o.record["status"] == "ok" for o in outcomes)


def _proc_stat(pid):
    """``(state, ppid)`` of a live process, or None once it is reaped."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            stat = fh.read()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ")".
    fields = stat.rpartition(")")[2].split()
    return fields[0], int(fields[1])


def _descendants(pid):
    """Every live process below ``pid``, however deep."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None:
                parents[int(entry)] = stat[1]
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        kids = [child for child, ppid in parents.items() if ppid == parent]
        found += kids
        frontier += kids
    return found


def _workers(pid):
    """The campaign's workers: its descendants with no children of
    their own, except multiprocessing's resource tracker.  Under
    ``forkserver`` this skips the server, the workers' parent."""
    tree = _descendants(pid)
    parents = {(_proc_stat(p) or ("", None))[1] for p in tree}
    workers = []
    for p in tree:
        try:
            with open(f"/proc/{p}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if p not in parents and b"resource_tracker" not in cmdline:
            workers.append(p)
    return sorted(workers)


#: ``python -c`` body: the ``repro`` CLI under the start method named by
#: its first argument.
LAUNCH = ("import multiprocessing, sys; "
          "multiprocessing.set_start_method(sys.argv.pop(1)); "
          "from repro.cli import main; sys.exit(main())")


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs /proc to find the worker processes")
class TestSupervisorDeath:
    @pytest.mark.parametrize("method",
                             multiprocessing.get_all_start_methods())
    def test_workers_exit_when_the_campaign_is_sigkilled(self, tmp_path,
                                                         method):
        """SIGKILL the parent of a ``--workers 2`` campaign while both
        workers spin inside a unit: no process it started may outlive
        it, whichever start method made the workers."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                         "..", "..", "src")
        env[HANG_ENV] = ",".join(f"tcpip/{name}" for name in
                                 ("mtnl", "airtel", "idea", "vodafone",
                                  "jio"))
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, method, "campaign", "tcpip",
             "--scale", str(SCALE), "--workers", "2",
             "--run-dir", str(tmp_path / "run")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        started = []
        try:
            deadline = time.monotonic() + 60
            workers = []
            while len(workers) < 2 and time.monotonic() < deadline:
                assert proc.poll() is None, "campaign exited early"
                time.sleep(0.1)
                workers = _workers(proc.pid)
            assert len(workers) == 2
            time.sleep(2.0)  # let both workers enter their hung unit
            # A worker that took a live supervisor for a dead one would
            # have quit by now, and been replaced.
            assert proc.poll() is None
            assert _workers(proc.pid) == workers
            started = _descendants(proc.pid)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        deadline = time.monotonic() + 10
        alive = started
        while alive and time.monotonic() < deadline:
            time.sleep(0.1)
            # A zombie has exited; only its reaping is pending.
            alive = [pid for pid in started
                     if (_proc_stat(pid) or ("Z",))[0] != "Z"]
        for pid in alive:  # do not leak them into later tests
            os.kill(pid, signal.SIGKILL)
        assert alive == []


def _units_journaled(path):
    """Complete ``unit`` lines in a journal that may be mid-write."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return 0
    lines = data.split(b"\n")[:-1]  # the last piece may be torn
    return sum(b'"type":"unit"' in line for line in lines)


#: Ctrl-C cases: every start method at two workers, plus the
#: one-worker pool under ``spawn``, which also resumes.
CTRL_C_CASES = [(method, 2) for method in
                multiprocessing.get_all_start_methods()] + [("spawn", 1)]


@pytest.mark.skipif(not hasattr(os, "killpg"),
                    reason="needs POSIX process groups")
class TestCtrlC:
    """Ctrl-C reaches the terminal's whole process group.  The workers
    ignore it and the parent drains: the units in flight finish and are
    committed, the rest stay resumable, and nothing is journaled
    ``failed``."""

    EXPERIMENTS = ("tcpip", "table3", "table1", "evasion")

    @pytest.mark.parametrize("method,workers", CTRL_C_CASES)
    def test_sigint_to_the_group_drains(self, tmp_path, method, workers):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                         "..", "..", "src")
        run_dir = tmp_path / "run"
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, method, "campaign",
             *self.EXPERIMENTS, "--scale", str(SCALE),
             "--workers", str(workers), "--run-dir", str(run_dir)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True)
        journal = run_dir / "journal.jsonl"
        try:
            deadline = time.monotonic() + 60
            while _units_journaled(journal) < 1:
                assert proc.poll() is None, "campaign exited early"
                assert time.monotonic() < deadline, "no unit journaled"
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 130, err.decode()
        assert b"repro campaign --resume" in err
        records = _jsonl(journal)
        assert not [rec for rec in records if rec.get("status") == "failed"]
        assert records[-1]["type"] == "unit"  # no end record: resumable
        if (method, workers) != ("spawn", 1):
            return
        from repro.cli import main

        assert main(["campaign", "--resume", str(run_dir)]) == 0
        straight = _campaign(tmp_path / "straight",
                             experiments=self.EXPERIMENTS,
                             fraction=None).run()
        assert _read(run_dir / "tables.txt") == _read(straight.tables_path)
