"""The engine owns the event count and the event budget.

``Network.event_limit`` caps the lifetime ``events_processed``: the
event that takes the count past the cap runs, counts, and raises
``EventLimitExceeded``.  A fused transit chain counts its skipped hops
and checks the same cap, so a budget that runs out inside a chain stops
the network in the state the hop-by-hop count would.
"""

import pytest

from repro.netsim import Network, make_udp_packet
from repro.netsim.errors import EventLimitExceeded, NetSimError


def _ticks(net, count):
    ran = []
    for i in range(count):
        net.call_later(0.001 * i, ran.append, i)
    return ran


class TestEventLimit:
    def test_the_crossing_event_runs_counts_and_raises(self):
        net = Network()
        ran = _ticks(net, 20)
        net.event_limit = 10
        with pytest.raises(EventLimitExceeded) as excinfo:
            net.run_until_idle()
        assert ran == list(range(11))  # event N+1 ran...
        assert net.events_processed == 11  # ...and counts
        assert net.pending_events == 9
        assert excinfo.value.limit == 10
        assert str(excinfo.value) == "exceeded 10 simulated events"

    def test_a_limit_equal_to_the_work_never_raises(self):
        net = Network()
        ran = _ticks(net, 10)
        net.event_limit = 10
        assert net.run_until_idle() == 10
        assert ran == list(range(10))

    def test_no_limit_never_raises(self):
        net = Network()
        assert net.event_limit is None
        _ticks(net, 500)
        assert net.run_until_idle() == 500
        assert net.events_processed == 500

    def test_fresh_limit_per_unit(self):
        # The cap is on the lifetime count, so each unit caps from where
        # the network stands: ten more events fit, the eleventh raises.
        net = Network()
        for _ in range(3):
            _ticks(net, 10)
            net.event_limit = net.events_processed + 10
            net.run_until_idle()
        _ticks(net, 11)
        net.event_limit = net.events_processed + 10
        with pytest.raises(EventLimitExceeded):
            net.run_until_idle()
        assert net.events_processed == 41

    def test_not_a_simulator_error(self):
        # Measurement code survives NetSimError per site; a spent
        # budget must end the unit instead.
        assert not issubclass(EventLimitExceeded, NetSimError)


def _six_router_chain():
    """Two hosts joined by six pure-transit routers; five UDP packets
    sent 1 ms apart, each crossing the routers as one fused chain."""
    net = Network()
    a = net.add_host("a", "10.0.0.1")
    b = net.add_host("b", "10.0.0.2")
    prev = "a"
    for i in range(6):
        net.add_router(f"r{i}", f"10.1.{i}.1")
        net.link(prev, f"r{i}")
        prev = f"r{i}"
    net.link(prev, "b")
    delivered = []
    b.bind_udp(53, lambda host, packet, now: delivered.append(packet))
    for i in range(5):
        net.call_later(0.001 * i, a.send_packet,
                       make_udp_packet(a.ip, b.ip, 1000 + i, 53, b"p"))
    return net, delivered


#: ``budget: (events_processed, now, pending_events, fwd_plan_hits,
#: fwd_plan_builds, deliveries)`` at the raise, as the earlier per-event
#: step hook left them.  Each packet costs one send event, six fused
#: transit hops and one arrival; a budget of 0-5, 7-12, 14-19, 21-26 or
#: 28-33 runs out inside a chain, whose hops all count before the raise
#: and whose packet is never queued.
CHAIN_PARITY = {
    **{budget: (6, 0.0, 4, 0, 1, 0) for budget in range(0, 6)},
    6: (7, 0.0, 5, 0, 1, 0),
    **{budget: (13, 0.001, 4, 1, 1, 0) for budget in range(7, 13)},
    13: (14, 0.001, 5, 1, 1, 0),
    **{budget: (20, 0.002, 4, 2, 1, 0) for budget in range(14, 20)},
    20: (21, 0.002, 5, 2, 1, 0),
    **{budget: (27, 0.003, 4, 3, 1, 0) for budget in range(21, 27)},
    27: (28, 0.003, 5, 3, 1, 0),
    **{budget: (34, 0.004, 4, 4, 1, 0) for budget in range(28, 34)},
    34: (35, 0.004, 5, 4, 1, 0),
    35: (36, 0.035, 4, 4, 1, 1),
    36: (37, 0.036, 3, 4, 1, 2),
    37: (38, 0.037, 2, 4, 1, 3),
    38: (39, 0.038, 1, 4, 1, 4),
    39: (40, 0.039, 0, 4, 1, 5),
}

#: The whole run: 40 events, every packet delivered.
CHAIN_CLEAN = (40, 0.039, 0, 4, 1, 5)


class TestChainParity:
    def test_every_budget_stops_where_the_hop_count_would(self):
        for budget in range(60):
            net, delivered = _six_router_chain()
            net.event_limit = budget
            raised = False
            try:
                net.run_until_idle()
            except EventLimitExceeded:
                raised = True
            state = (net.events_processed, round(net.now, 9),
                     net.pending_events, net.fwd_plan_hits,
                     net.fwd_plan_builds, len(delivered))
            assert raised == (budget in CHAIN_PARITY), budget
            assert state == CHAIN_PARITY.get(budget, CHAIN_CLEAN), budget
