"""The error taxonomy is total, and poison failures quarantine.

``classify_error`` sits on the worker's hot failure path — if it ever
raised, the failure it was classifying would be replaced by a crash of
the classifier itself.  A hypothesis property holds it total over a
grab-bag of exception types, including ones with hostile ``__str__``.
The quarantine round-trip lives here too: a unit that raises
``MemoryError`` repeatedly must end up durably ``quarantined``, and a
fatal error must reach stderr with its traceback while the journal
keeps only the one-line reason.  Under a memory budget a refused
allocation can surface as ``SystemError``; there, and only there, it
is routed like ``MemoryError``.
"""

import json
import multiprocessing
import os
import types

import pytest
from hypothesis import given, strategies as st

from repro.experiments.common import TableSpec, Unit, campaign_payload
from repro.netsim.errors import (
    ConnectionError_,
    EventLimitExceeded,
    NetSimError,
    PortInUseError,
)
from repro.runner import parallel
from repro.runner.campaign import Campaign
from repro.runner.errors import (
    DEGRADABLE,
    FATAL,
    POISON,
    TRANSIENT,
    TransientUnitError,
    classify_error,
)

CATEGORIES = {TRANSIENT, DEGRADABLE, FATAL, POISON}


class _HostileError(Exception):
    """An exception whose introspection surface actively misbehaves."""

    def __str__(self):
        raise RuntimeError("__str__ is a trap")

    def __getattr__(self, name):
        raise RuntimeError(f"__getattr__({name!r}) is a trap")


def _instances():
    return [
        ValueError("plain"),
        KeyError("missing"),
        MemoryError("balloon"),
        KeyboardInterrupt(),
        SystemExit(2),
        GeneratorExit(),
        RecursionError("deep"),
        OSError(24, "too many open files"),
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad byte"),
        EventLimitExceeded(1000),
        TransientUnitError("flap"),
        ConnectionError_("refused"),
        PortInUseError("port 80 in use"),
        NetSimError("generic simulator failure"),
        _HostileError(),
        BaseException("bare base"),
    ]


class TestClassifyTotal:
    @given(exc=st.sampled_from(_instances()))
    def test_always_returns_a_known_category(self, exc):
        assert classify_error(exc) in CATEGORIES

    @given(message=st.text(max_size=200))
    def test_message_content_is_irrelevant(self, message):
        # Classification is isinstance-only; no message can change it.
        assert classify_error(RuntimeError(message)) == FATAL
        assert classify_error(MemoryError(message)) == POISON

    def test_taxonomy_table(self):
        assert classify_error(TransientUnitError("x")) == TRANSIENT
        assert classify_error(ConnectionError_("x")) == TRANSIENT
        assert classify_error(PortInUseError("x")) == TRANSIENT
        assert classify_error(NetSimError("x")) == DEGRADABLE
        # A spent event budget passes through run_degradable; the
        # worker journals the unit as a timeout.
        assert classify_error(EventLimitExceeded(5)) == FATAL
        assert classify_error(MemoryError("x")) == POISON
        assert classify_error(ValueError("x")) == FATAL
        assert classify_error(KeyboardInterrupt()) == FATAL


def _poison_module():
    """A fake experiment whose middle unit exhausts memory, always."""

    def quick(world, domains):
        return campaign_payload([["quick", "done"]])

    def balloon(world, domains):
        raise MemoryError("chaos balloon")

    def units():
        yield Unit("quick", quick)
        yield Unit("balloon", balloon)
        yield Unit("after", quick)

    return types.SimpleNamespace(
        CAMPAIGN=TableSpec(title="Poison test", headers=("unit", "note")),
        units=units,
    )


class TestSerialQuarantine:
    """A ``MemoryError`` comes back from a one-worker pool in band as a
    ``poison`` outcome: the supervisor recycles the worker and applies
    the retry-then-quarantine policy it applies to worker deaths."""

    def _run(self, run_dir, **kwargs):
        return Campaign(seed=1808, scale=0.05,
                        run_dir=str(run_dir),
                        specs={"mem-exp": _poison_module()},
                        **kwargs).run()

    def test_memory_error_quarantines_after_retry(self, tmp_path):
        report = self._run(tmp_path / "run")
        assert report.counts["quarantined"] == 1
        assert report.counts["ok"] == 2  # the campaign moved on
        assert "(quarantined: crashed 2 consecutive worker" \
            in report.tables
        assert "quarantined: mem-exp:balloon" in report.render()

    def test_quarantine_round_trips_through_resume(self, tmp_path):
        first = self._run(tmp_path / "run")
        resumed = self._run(tmp_path / "run", resume=True)
        assert resumed.counts["quarantined"] == 1
        assert resumed.degradation.resumed == 3  # all units durable
        assert resumed.tables == first.tables

    def test_single_crash_budget_quarantines_immediately(self, tmp_path):
        report = self._run(tmp_path / "run", max_worker_crashes=1)
        assert report.counts["quarantined"] == 1
        assert "crashed 1 consecutive worker attempt(s)" in report.tables

    def test_crash_budget_validated(self, tmp_path):
        from repro.runner.errors import CampaignError

        with pytest.raises(CampaignError, match="max_worker_crashes"):
            Campaign(run_dir=str(tmp_path / "run"), max_worker_crashes=0)


def _quick(world, domains):
    return campaign_payload([["quick", "done"]])


def _refused_allocation(world, domains):
    raise SystemError("error return without exception set")


def _refused_units():
    yield Unit("quick", _quick)
    yield Unit("refused", _refused_allocation)
    yield Unit("after", _quick)


#: A unit whose allocation the interpreter reports as ``SystemError``,
#: as it can under a memory limit.
REFUSED = {"refused-exp": types.SimpleNamespace(
    CAMPAIGN=TableSpec(title="Refused test", headers=("unit", "note")),
    units=_refused_units)}

#: A budget no unit comes near, so only the injected failure trips it.
AMPLE_BUDGET_MB = 16384


class TestSystemErrorUnderABudget:
    def _campaign(self, run_dir, **kwargs):
        return Campaign(seed=1808, scale=0.05,
                        run_dir=str(run_dir), specs=REFUSED, **kwargs)

    def test_quarantined_when_a_budget_is_set(self, tmp_path):
        report = self._campaign(tmp_path / "run",
                                memory_limit_mb=AMPLE_BUDGET_MB).run()
        assert report.counts["quarantined"] == 1
        assert report.counts["ok"] == 2  # the campaign moved on
        with open(report.journal_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        statuses = {rec["unit"]: rec["status"] for rec in records
                    if rec["type"] == "unit"}
        assert statuses == {"quick": "ok", "refused": "quarantined",
                            "after": "ok"}
        assert records[-1]["type"] == "end"

    def test_fatal_without_a_budget(self, tmp_path):
        from repro.runner.errors import CampaignError

        with pytest.raises(CampaignError, match="fatal error in unit "
                           "refused-exp:refused: SystemError"):
            self._campaign(tmp_path / "run").run()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patch reaches workers only by fork")
    @pytest.mark.parametrize("start_method", ["fork"], indirect=True)
    def test_escaping_a_unit_is_a_memory_crash(self, tmp_path,
                                               monkeypatch, start_method):
        """A ``SystemError`` from the world build escapes the unit: the
        worker exits with its out-of-memory status and the supervisor
        says so."""
        def refused_build(settings):
            raise SystemError("error return without exception set")

        monkeypatch.setattr(parallel, "build_unit_world", refused_build)
        report = self._campaign(tmp_path / "run",
                                memory_limit_mb=AMPLE_BUDGET_MB).run()
        assert report.counts["quarantined"] == 3
        with open(os.path.join(report.run_dir, "supervision.jsonl"),
                  encoding="utf-8") as fh:
            crashes = [event for event in map(json.loads, fh)
                       if event["kind"] == "worker-crash"]
        assert len(crashes) == 6
        assert {event["reason"] for event in crashes} == {
            "memory budget exceeded"}


def _explode_helper():
    raise ValueError("deliberate programming error")


def _explode(world, domains):
    _explode_helper()


def _fatal_units():
    yield Unit("boom", _explode)


class TestFatalTraceback:
    def test_traceback_on_stderr_reason_in_journal(self, tmp_path,
                                                   capsys):
        from repro.runner.errors import CampaignError

        specs = {"fatal-exp": types.SimpleNamespace(
            CAMPAIGN=TableSpec(title="Fatal test", headers=("unit",)),
            units=_fatal_units)}
        campaign = Campaign(seed=1808, scale=0.05,
                            run_dir=str(tmp_path / "run"), specs=specs)
        with pytest.raises(CampaignError, match="fatal error in unit "
                           "fatal-exp:boom: ValueError: deliberate"):
            campaign.run()
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "_explode_helper" in err
        with open(campaign.journal_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        failed = {key: value for key, value in records[-1].items()
                  if key not in ("seq", "prev", "hash")}
        assert failed == {
            "type": "unit", "experiment": "fatal-exp", "unit": "boom",
            "payload": None, "timeout": None, "status": "failed",
            "error": {"category": "fatal",
                      "reason": "ValueError: deliberate programming "
                                "error"},
            "steps": 0,
        }
