"""Serial vs ``--workers 4``: observability sidecars must byte-match.

Same seed + same trace subscription ⇒ byte-identical ``trace.jsonl``
and identical deterministic metrics, no matter how many workers ran
the units; ``repro report`` output differs only in its wall half.
"""

import copy
import json
import os

import pytest

from repro.experiments import EXPERIMENT_MODULES
from repro.netsim import Network, TCPFlags
from repro.obs.report import generate_report, render_markdown, write_report
from repro.runner.campaign import Campaign
from repro.runner.parallel import UnitSettings, execute_unit

EXPERIMENTS = ["tcpip", "table3"]
SCALE = 0.05


def _run(run_dir, workers):
    report = Campaign(experiments=EXPERIMENTS, scale=SCALE,
                      run_dir=str(run_dir), workers=workers,
                      trace=True).run()
    assert report.complete
    return run_dir


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("obs-determinism")
    serial = _run(base / "serial", workers=1)
    parallel = _run(base / "parallel", workers=4)
    return serial, parallel


def _read(run_dir, name):
    with open(os.path.join(run_dir, name), "rb") as fh:
        return fh.read()


class TestTraceDeterminism:
    def test_trace_jsonl_byte_identical(self, runs):
        serial, parallel = runs
        serial_trace = _read(serial, "trace.jsonl")
        assert serial_trace  # tracing actually recorded something
        assert serial_trace == _read(parallel, "trace.jsonl")

    def test_journal_untouched_by_tracing(self, runs, tmp_path):
        """A traced run's journal matches an untraced run's, byte for
        byte — the sidecar never perturbs the durable record."""
        serial, _ = runs
        untraced = tmp_path / "untraced"
        report = Campaign(experiments=EXPERIMENTS, scale=SCALE,
                          run_dir=str(untraced)).run()
        assert report.complete
        assert _read(serial, "journal.jsonl") == \
            _read(untraced, "journal.jsonl")
        assert _read(serial, "tables.txt") == _read(untraced, "tables.txt")
        assert not os.path.exists(untraced / "trace.jsonl")

    def test_trace_events_carry_unit_correlation(self, runs):
        serial, _ = runs
        lines = _read(serial, "trace.jsonl").decode().splitlines()
        corrs = {json.loads(line).get("corr") for line in lines}
        assert "tcpip/mtnl" in corrs
        assert all(corr for corr in corrs), "uncorrelated campaign event"


class TestTraceIndependentOfProcessHistory:
    def test_unit_traced_twice_in_one_process_writes_one_trace(self):
        """A worker runs units one after another, so nothing a unit
        leaves in its process may move a later unit's packet bytes.
        statefulness/idea sends raw probes, whose source ports come
        from a counter; that counter must start afresh with each
        unit's world."""
        unit = next(unit for unit in EXPERIMENT_MODULES["statefulness"].units()
                    if unit.name == "idea")
        settings = UnitSettings(seed=1808, scale=SCALE,
                                trace=True)
        first, second = (execute_unit(settings, "statefulness", unit)
                         for _ in range(2))
        assert first[0] == second[0]
        assert first[2]["trace"]
        assert first[2]["trace"] == second[2]["trace"]

    def test_unit_run_twice_in_one_process_sends_one_first_syn(
            self, monkeypatch):
        """IP-IDs and TCP initial sequence numbers come from the unit's
        world too, so whether a genuine FIN/RST draws a censor's fixed
        IP-ID cannot depend on the units before it."""
        syns = []
        transmit = Network.transmit

        def spy(network, node, packet):
            if packet.is_tcp and packet.tcp.flags == TCPFlags.SYN:
                syns.append((packet.tcp.seq, packet.ip_id))
            transmit(network, node, packet)

        monkeypatch.setattr(Network, "transmit", spy)
        unit = next(unit for unit in EXPERIMENT_MODULES["tcpip"].units()
                    if unit.name == "mtnl")
        firsts = []
        for _ in range(2):
            syns.clear()
            record, _wall, _extras, kind = execute_unit(
                UnitSettings(seed=1808, scale=SCALE), "tcpip", unit)
            assert kind is None and record["status"] == "ok"
            firsts.append(syns[0])
        assert firsts[0] == firsts[1]
        assert firsts[0][0] == 110_000  # the world's first ISN


class TestMetricsDeterminism:
    def test_deterministic_section_identical(self, runs):
        serial, parallel = runs
        serial_metrics = json.loads(_read(serial, "metrics.json"))
        parallel_metrics = json.loads(_read(parallel, "metrics.json"))
        assert serial_metrics["deterministic"] == \
            parallel_metrics["deterministic"]
        assert serial_metrics["deterministic"]["counters"][
            "campaign_units_total{status=ok}"] > 0

    def test_hot_path_cache_metrics_present(self, runs):
        serial, _ = runs
        counters = json.loads(_read(serial, "metrics.json"))[
            "deterministic"]["counters"]
        assert "netsim_fib_hits_total{experiment=tcpip}" in counters
        assert "netsim_events_total{experiment=tcpip}" in counters


class TestReport:
    def _stripped(self, run_dir):
        data = copy.deepcopy(generate_report(str(run_dir)))
        data.pop("wall")
        return data

    def test_report_identical_modulo_wall(self, runs):
        serial, parallel = runs
        assert self._stripped(serial) == self._stripped(parallel)

    def test_markdown_sections_rendered(self, runs):
        serial, _ = runs
        md_path, json_path = write_report(str(serial))
        text = open(md_path, encoding="utf-8").read()
        for heading in ("## Run", "## Units", "## Fault injection",
                        "## Trace", "## Wall (nondeterministic)"):
            assert heading in text
        data = json.load(open(json_path, encoding="utf-8"))
        assert data["deterministic"]["unit_counts"]["ok"] > 0
        assert data["deterministic"]["trace"]["events"] > 0

    def test_markdown_deterministic_above_wall_section(self, runs):
        """Everything before the wall heading byte-matches across
        worker counts, so diffing two reports localizes to wall."""
        serial, parallel = runs
        def head(run_dir):
            text = render_markdown(generate_report(str(run_dir)))
            return text.split("## Wall (nondeterministic)")[0]
        assert head(serial) == head(parallel)

    def test_report_errors_on_non_run_dir(self, tmp_path):
        from repro.obs.report import ReportError

        with pytest.raises(ReportError, match="journal.jsonl"):
            generate_report(str(tmp_path))
