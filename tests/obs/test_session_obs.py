"""Observability of session-table dynamics: trace events, metrics,
and the report sections they feed."""

from types import SimpleNamespace

from repro.core.measure.probes import CraftedFlow
from repro.experiments.session_dynamics import BLOCKED_DOMAIN, build_scenario
from repro.middlebox import FAIL_CLOSED
from repro.obs.metrics import MetricsRegistry, collect_world_metrics
from repro.obs.report import _fmt_opt, _session_counter_totals, _session_table
from repro.obs.trace import BufferSink, TraceBus


def _traced(world):
    bus = TraceBus()
    sink = BufferSink()
    bus.subscribe(sink)
    world.network.trace = bus
    return sink


def _kinds(sink):
    return [event["kind"] for event in sink.events]


class TestTraceEvents:
    def test_overload_fail_closed_narrated(self):
        world = build_scenario("vodafone", max_flows=1,
                               overload_policy=FAIL_CLOSED)
        sink = _traced(world)
        holder = CraftedFlow(world, world.client, world.server_ip)
        assert holder.open()
        refused = CraftedFlow(world, world.client, world.server_ip)
        assert not refused.open()
        events = [e for e in sink.events
                  if e["kind"] == "overload-fail-closed"]
        assert events
        event = events[0]
        assert event["box"] == world.box.name
        assert event["isp"] == "vodafone"
        assert "node" in event and "flow" in event

    def test_eviction_narrated_with_policy_and_victim(self):
        world = build_scenario("jio", max_flows=1, eviction_policy="lru")
        sink = _traced(world)
        first = CraftedFlow(world, world.client, world.server_ip)
        assert first.open()
        second = CraftedFlow(world, world.client, world.server_ip)
        assert second.open()  # evicts the first flow's state
        events = [e for e in sink.events if e["kind"] == "flow-evicted"]
        assert events
        event = events[0]
        assert event["policy"] == "lru"
        assert "->" in event["victim"]
        assert world.client.ip in event["victim"]

    def test_residual_block_carries_domain(self):
        world = build_scenario("jio", max_flows=None, residual_window=30.0)
        sink = _traced(world)
        flow = CraftedFlow(world, world.client, world.server_ip)
        assert flow.open()
        observation = flow.probe_and_observe(BLOCKED_DOMAIN, duration=0.8)
        assert observation.censored
        flow.close()
        retry = CraftedFlow(world, world.client, world.server_ip)
        assert not retry.open()  # inside the residual window
        events = [e for e in sink.events if e["kind"] == "residual-block"]
        assert events
        assert events[0]["domain"] == BLOCKED_DOMAIN


class TestMetrics:
    def _scrape(self, world):
        registry = MetricsRegistry()
        fake_world = SimpleNamespace(network=world.network,
                                     all_middleboxes=lambda: [world.box],
                                     isps={})
        collect_world_metrics(registry, fake_world)
        return registry.snapshot()

    def test_default_box_emits_no_session_metrics(self):
        world = build_scenario("airtel", max_flows=None)
        flow = CraftedFlow(world, world.client, world.server_ip)
        assert flow.open()
        flow.probe_and_observe(BLOCKED_DOMAIN, duration=0.8)
        flow.close()
        snapshot = self._scrape(world)
        session_keys = [
            key for key in list(snapshot["counters"])
            + list(snapshot["gauges"])
            if key.startswith("middlebox_truncated_flows_total")
        ]
        assert session_keys == []


def _run_with_units(units, metrics=None):
    return {"units": units, "metrics": metrics or {}}


_SESSION_UNIT = {
    "status": "ok",
    "payload": {
        "rows": [["idea", "http_im_overt", "149.53", "20",
                  "fail-closed", "30.12"],
                 ["airtel", "http_wm", "149.53", "24", "fail-open", "-"]],
        "session_counters": {"overload_fail_closed": 2,
                             "residual_hits": 5},
    },
}


class TestReportHelpers:
    def test_session_table_parses_rows(self):
        run = _run_with_units({("session-dynamics", "idea"): _SESSION_UNIT})
        table = _session_table(run)
        assert len(table) == 2
        idea = table[0]
        assert idea["isp"] == "idea"
        assert idea["recovered_timeout"] == 149.53
        assert idea["capacity"] == 20.0
        assert idea["overload"] == "fail-closed"
        assert idea["residual_window"] == 30.12
        airtel = table[1]
        assert airtel["residual_window"] is None
        assert airtel["overload"] == "fail-open"

    def test_session_table_tolerates_pre_session_runs(self):
        run = _run_with_units({("table2", "airtel"): {"status": "ok",
                                                      "payload": {}}})
        assert _session_table(run) == []

    def test_counter_totals_sum_units_and_metrics(self):
        metrics = {"deterministic": {"counters": {
            "middlebox_truncated_flows_total{isp=idea,kind=im}": 3}}}
        run = _run_with_units(
            {("session-dynamics", "idea"): _SESSION_UNIT}, metrics)
        totals = _session_counter_totals(run)
        assert totals == {"overload_fail_closed": 2, "residual_hits": 5,
                          "truncated_flows": 3}

    def test_counter_totals_empty_for_pre_session_runs(self):
        run = _run_with_units({}, {"deterministic": {"counters": {
            "netsim_events_total": 10}}})
        assert _session_counter_totals(run) == {}

    def test_fmt_opt(self):
        assert _fmt_opt(None) == "-"
        assert _fmt_opt(24.0) == "24"
        assert _fmt_opt(30.12) == "30.12"
