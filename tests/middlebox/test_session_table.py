"""Session-table realism: finite capacity, overload policies, residual
censorship, NAT-style mapping expiry (docs/SESSION_DYNAMICS.md)."""

from repro.middlebox import (
    ESTABLISHED,
    FAIL_CLOSED,
    FAIL_OPEN,
    FlowTable,
    SYN_SEEN,
)
from repro.netsim import TCPFlags, make_tcp_packet

C, S = "10.0.0.1", "93.184.216.34"


def syn(port=4000, seq=100, src=C):
    return make_tcp_packet(src, S, port, 80, seq=seq, flags=TCPFlags.SYN)


def synack(port=4000, seq=500, ack=101):
    return make_tcp_packet(S, C, 80, port, seq=seq, ack=ack,
                           flags=TCPFlags.SYN | TCPFlags.ACK)


def client_ack(port=4000, seq=101, ack=501):
    return make_tcp_packet(C, S, port, 80, seq=seq, ack=ack,
                           flags=TCPFlags.ACK)


def rst(port=4000, seq=101):
    return make_tcp_packet(C, S, port, 80, seq=seq, flags=TCPFlags.RST)


def handshake(table, port, at=0.0):
    table.observe(syn(port), at)
    table.observe(synack(port), at + 0.01)
    return table.observe(client_ack(port), at + 0.02)


class TestCapacity:
    def test_unbounded_by_default(self):
        table = FlowTable()
        for port in range(4000, 4050):
            table.observe(syn(port), 0.0)
        assert len(table) == 50
        assert table.events == []

    def test_fail_open_leaves_new_flow_untracked(self):
        table = FlowTable(max_flows=2, eviction_policy="none",
                          overload_policy=FAIL_OPEN)
        table.observe(syn(4000), 0.0)
        table.observe(syn(4001), 0.1)
        record = table.observe(syn(4002), 0.2)
        assert record is None
        assert len(table) == 2
        assert table.drain_events() == [("overload-fail-open", {})]

    def test_fail_closed_queues_refusal(self):
        table = FlowTable(max_flows=1, eviction_policy="none",
                          overload_policy=FAIL_CLOSED)
        table.observe(syn(4000), 0.0)
        assert table.observe(syn(4001), 0.1) is None
        assert table.drain_events() == [("overload-fail-closed", {})]

    def test_existing_flow_unaffected_by_full_table(self):
        """Packets of already-admitted flows never hit the cap."""
        table = FlowTable(max_flows=2, eviction_policy="none")
        handshake(table, 4000)
        table.observe(syn(4001), 1.0)
        record = table.observe(client_ack(4000), 2.0)
        assert record is not None and record.state == ESTABLISHED

    def test_high_water_tracks_peak_occupancy(self):
        table = FlowTable(max_flows=3)
        for port in (4000, 4001, 4002):
            table.observe(syn(port), 0.0)
        table.observe(rst(4000, seq=100), 1.0)
        assert len(table) == 2
        assert table.high_water == 3


class TestEviction:
    def test_lru_evicts_least_recently_active(self):
        table = FlowTable(max_flows=2, eviction_policy="lru")
        table.observe(syn(4000), 0.0)
        table.observe(syn(4001), 1.0)
        table.observe(client_ack(4000), 2.0)  # 4000 is now fresher
        table.observe(syn(4002), 3.0)
        events = table.drain_events()
        assert [kind for kind, _ in events] == ["flow-evicted"]
        assert events[0][1]["victim"].client_port == 4001
        assert events[0][1]["policy"] == "lru"
        assert len(table) == 2

    def test_oldest_established_prefers_established_victims(self):
        table = FlowTable(max_flows=2,
                          eviction_policy="oldest-established")
        handshake(table, 4000, at=0.0)
        # 4001 is embryonic with *fresher* activity than established
        # 4000; the policy must still pick the established flow.
        table.observe(syn(4001), 5.0)
        table.observe(syn(4002), 6.0)
        events = table.drain_events()
        assert events[0][1]["victim"].client_port == 4000

    def test_random_eviction_is_seed_deterministic(self):
        def run():
            table = FlowTable(max_flows=2, eviction_policy="random")
            table.observe(syn(4000), 0.0)
            table.observe(syn(4001), 1.0)
            table.observe(syn(4002), 2.0)
            return [event[1]["victim"].client_port
                    for event in table.drain_events()]

        assert run() == run()

    def test_eviction_admits_the_new_flow(self):
        table = FlowTable(max_flows=1, eviction_policy="lru")
        table.observe(syn(4000), 0.0)
        record = table.observe(syn(4001), 1.0)
        assert record is not None and record.client_port == 4001
        assert len(table) == 1


class TestResidual:
    def arm(self, table, port=4000, at=10.0):
        record = handshake(table, port)
        table.mark_censored(record, "blocked.com", at)
        return record

    def test_fresh_handshake_in_window_is_blocked(self):
        table = FlowTable(residual_window=30.0)
        self.arm(table, at=10.0)
        table.observe(rst(4000), 11.0)
        record = table.observe(syn(4777, seq=900), 20.0)
        assert record.censored and record.censored_domain == "blocked.com"
        assert table.drain_events()[-1] == (
            "residual-block", {"domain": "blocked.com"})

    def test_window_expires(self):
        table = FlowTable(residual_window=30.0)
        self.arm(table, at=10.0)
        record = table.observe(syn(4777, seq=900), 41.0)
        assert not record.censored

    def test_three_tuple_scope_ignores_client_port(self):
        table = FlowTable(residual_window=30.0)
        self.arm(table, at=10.0)
        assert table.observe(syn(4999, seq=1), 15.0).censored

    def test_residual_block_does_not_extend_the_window(self):
        """Only verdicts arm windows; residually-blocked flows do not."""
        table = FlowTable(residual_window=30.0)
        self.arm(table, at=10.0)  # window ends at 40
        table.observe(syn(4800, seq=1), 39.0)   # blocked, near the end
        record = table.observe(syn(4900, seq=1), 41.0)
        assert not record.censored

    def test_default_table_arms_nothing(self):
        table = FlowTable()
        self.arm(table, at=10.0)
        assert table.residual == {}


class TestTruncation:
    def test_cap_enforced_and_reported_once(self):
        table = FlowTable(max_buffer=8)
        record = handshake(table, 4000)
        assert table.append_payload(record, b"12345678") is False
        assert table.append_payload(record, b"xx") is True   # first overflow
        assert table.append_payload(record, b"yy") is False  # only once
        assert record.truncated
        assert record.buffer_dropped == 4
        assert bytes(record.buffer) == b"12345678"
        assert table.truncated_flows == 1

    def test_empty_payload_never_truncates(self):
        table = FlowTable(max_buffer=4)
        record = handshake(table, 4000)
        table.append_payload(record, b"1234")
        assert table.append_payload(record, b"") is False
        assert not record.truncated


class TestAmortizedPurge:
    def test_unacked_syn_flood_stays_bounded(self):
        """Satellite regression: a flood of never-revisited SYNs cannot
        grow an unbounded table past ~two timeout windows' worth."""
        table = FlowTable(timeout=10.0)
        port = 1024
        for step in range(4000):
            now = step * 0.1  # 400 s of flooding, 10 SYNs/s
            table.observe(syn(port=1024 + step % 30000, seq=step), now)
            port += 1
        # Only flows younger than ~2*timeout can survive the amortized
        # sweep: 2 * 10 s * 10 SYN/s = 200, plus slack for sweep phase.
        assert len(table) <= 250

    def test_sweep_also_clears_residual_entries(self):
        table = FlowTable(timeout=10.0, residual_window=5.0)
        record = handshake(table, 4000)
        table.mark_censored(record, "blocked.com", 1.0)
        assert table.residual
        table.observe(syn(5000, seq=1), 100.0)  # triggers the sweep
        assert table.residual == {}


class TestLookupOrientation:
    """Satellite: _lookup edge cases around key orientation."""

    def test_reverse_key_expiry_removes_the_record(self):
        """Expiry discovered via a *server-side* packet must pop the
        record under its canonical (client-side) key."""
        table = FlowTable(timeout=10.0)
        handshake(table, 4000)
        # Run the amortized sweep now (flow still fresh, survives) so
        # the lookup below exercises the lazy expiry path, not the sweep.
        table.observe(client_ack(5000), 10.0)
        server_data = make_tcp_packet(S, C, 80, 4000, seq=501, ack=101,
                                      flags=TCPFlags.ACK)
        assert table.observe(server_data, 12.0) is None
        assert len(table) == 0

    def test_syn_reanchors_opposite_orientation(self):
        """A SYN from the old server side flips the roles; the stale
        opposite-orientation record must not linger."""
        table = FlowTable()
        handshake(table, 4000)
        flipped = make_tcp_packet(S, C, 80, 4000, seq=7, flags=TCPFlags.SYN)
        record = table.observe(flipped, 1.0)
        assert record.client_ip == S and record.client_port == 80
        assert len(table) == 1  # the old (C, 4000, S, 80) record is gone

    def test_rst_teardown_then_same_tuple_reuse(self):
        table = FlowTable()
        record = handshake(table, 4000)
        table.mark_censored(record, "blocked.com", 0.5)
        table.observe(rst(4000), 1.0)
        assert len(table) == 0
        fresh = table.observe(syn(4000, seq=9000), 2.0)
        assert fresh.state == SYN_SEEN
        assert fresh.client_isn == 9000
        assert not fresh.censored  # no residual window configured
