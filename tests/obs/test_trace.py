"""Unit tests for the trace bus primitives."""

import json

import pytest

from repro.netsim.packets import make_tcp_packet, make_udp_packet
from repro.obs.trace import (
    BufferSink,
    JsonlSink,
    TraceBus,
    event_json,
    flow_id,
)


class TestTraceBus:
    def test_inert_until_subscribed(self):
        bus = TraceBus()
        assert not bus.active
        bus.emit("hop", 1.0, node="r1")  # harmless no-op
        assert bus.emitted == 0

    def test_subscribe_activates_and_unsubscribe_deactivates(self):
        bus = TraceBus()
        events = []
        unsubscribe = bus.subscribe(events.append)
        assert bus.active
        bus.emit("hop", 1.0, node="r1")
        assert events == [{"t": 1.0, "kind": "hop", "node": "r1"}]
        unsubscribe()
        assert not bus.active
        bus.emit("hop", 2.0, node="r2")
        assert len(events) == 1
        unsubscribe()  # idempotent

    def test_fan_out_to_multiple_sinks(self):
        bus = TraceBus()
        a, b = [], []
        bus.subscribe(a.append)
        bus.subscribe(b.append)
        bus.emit("drop", 0.5, reason="no-route")
        assert a == b and len(a) == 1
        assert bus.emitted == 1

    def test_correlation_scope(self):
        bus = TraceBus()
        events = []
        bus.subscribe(events.append)
        bus.emit("send", 0.0)
        with bus.correlate("tcpip/mtnl"):
            bus.emit("hop", 0.1)
            with bus.correlate("nested"):
                bus.emit("hop", 0.2)
            bus.emit("hop", 0.3)
        bus.emit("deliver", 0.4)
        corrs = [event.get("corr") for event in events]
        assert corrs == [None, "tcpip/mtnl", "nested", "tcpip/mtnl", None]

    def test_timestamps_rounded(self):
        bus = TraceBus()
        events = []
        bus.subscribe(events.append)
        bus.emit("hop", 0.1 + 0.2)  # 0.30000000000000004
        assert events[0]["t"] == 0.3


class TestFlowId:
    def test_both_directions_share_an_id(self):
        request = make_tcp_packet("10.0.0.1", "93.0.0.1", 40000, 80)
        response = make_tcp_packet("93.0.0.1", "10.0.0.1", 80, 40000)
        assert flow_id(request) == flow_id(response)

    def test_forged_response_matches_request_flow(self):
        request = make_tcp_packet("10.0.0.1", "93.0.0.1", 40000, 80)
        forged = make_tcp_packet("93.0.0.1", "10.0.0.1", 80, 40000,
                                 ip_id=242)
        assert flow_id(request) == flow_id(forged)

    def test_distinct_flows_differ(self):
        a = make_tcp_packet("10.0.0.1", "93.0.0.1", 40000, 80)
        b = make_tcp_packet("10.0.0.1", "93.0.0.1", 40001, 80)
        assert flow_id(a) != flow_id(b)

    def test_udp_flow(self):
        from repro.dnssim.message import DNSQuery

        query = make_udp_packet("10.0.0.1", "8.8.8.8", 30000, 53,
                                DNSQuery(qname="example.in", qid=1))
        assert flow_id(query).startswith("udp:")


class TestBufferSink:
    def test_caps_and_reports_truncation(self):
        sink = BufferSink(limit=3)
        bus = TraceBus()
        bus.subscribe(sink)
        for index in range(5):
            bus.emit("hop", float(index), n=index)
        assert len(sink.events) == 3
        assert sink.dropped == 2
        lines = sink.lines()
        assert len(lines) == 4
        assert json.loads(lines[-1]) == {"kind": "truncated", "dropped": 2}

    def test_lines_are_canonical_json(self):
        sink = BufferSink()
        sink({"b": 1, "a": 2, "kind": "x", "t": 0.0})
        assert sink.lines() == ['{"a":2,"b":1,"kind":"x","t":0.0}']


class TestJsonlSink:
    def test_streams_events_to_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TraceBus()
        with JsonlSink(str(path)) as sink:
            bus.subscribe(sink)
            bus.emit("send", 0.0, node="client")
            bus.emit("deliver", 1.0, node="server")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "send"


def test_event_json_is_sorted_and_compact():
    assert event_json({"kind": "hop", "t": 1.0, "node": "r"}) == \
        '{"kind":"hop","node":"r","t":1.0}'
