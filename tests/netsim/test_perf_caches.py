"""The forwarding-plane fast path: FIB cache, invalidation, budgets.

Covers the perf-facing engine changes: the event budget is exact, drop
statistics come from an incremental counter (with a capped forensic
list), and the FIB / path caches invalidate on every topology,
addressing, or middlebox change.
"""

import pytest

from repro.netsim import Network, SimulationError, make_udp_packet
from repro.netsim import engine as engine_module

from .reference_router import ReferenceRouter


def chain(n_routers=3):
    net = Network()
    client = net.add_host("client", "10.0.0.1")
    server = net.add_host("server", "10.9.0.1")
    prev = "client"
    for i in range(1, n_routers + 1):
        net.add_router(f"r{i}", f"10.1.0.{i}")
        net.link(prev, f"r{i}")
        prev = f"r{i}"
    net.link(prev, "server")
    return net, client, server


class TestEventBudgetExact:
    def test_budget_equal_to_queue_drains_cleanly(self):
        net = Network()
        ran = []
        for i in range(5):
            net.call_later(0.001 * i, ran.append, i)
        assert net.run_until_idle(max_events=5) == 5
        assert ran == [0, 1, 2, 3, 4]

    def test_budget_blown_executes_exactly_max_events(self):
        net = Network()
        ran = []
        for i in range(5):
            net.call_later(0.001 * i, ran.append, i)
        with pytest.raises(SimulationError, match="event budget"):
            net.run_until_idle(max_events=4)
        # The check fires *before* the over-budget event, never after.
        assert len(ran) == 4

    def test_partial_progress_counts_when_a_callback_or_hook_raises(self):
        net = Network()

        def boom():
            raise RuntimeError("callback")

        for _ in range(3):
            net.call_later(0.0, lambda: None)
        net.call_later(0.0, boom)
        with pytest.raises(RuntimeError, match="callback"):
            net.run_until_idle()
        # The raising callback itself does not count.
        assert net.events_processed == 3

        def deadline():
            raise TimeoutError("hook")

        net.call_later(0.0, lambda: None)
        net.step_hook = deadline
        with pytest.raises(TimeoutError, match="hook"):
            net.run_until_idle()
        # The hook runs after its event, so that event counts.
        assert net.events_processed == 4

    def test_zero_budget_with_pending_events_raises_immediately(self):
        net = Network()
        ran = []
        net.call_later(0.0, ran.append, 1)
        with pytest.raises(SimulationError):
            net.run_until_idle(max_events=0)
        assert ran == []

    def test_until_break_wins_over_budget(self):
        net = Network()
        ran = []
        net.call_later(0.0, ran.append, 1)
        net.call_later(5.0, ran.append, 2)
        # Only one event is runnable before `until`; budget of one is
        # exactly enough, so no error.
        assert net.run(until=1.0, max_events=1) == 1
        assert ran == [1]


class TestDropStats:
    def _spray(self, net, client, count):
        for _ in range(count):
            client.send_packet(
                make_udp_packet(client.ip, "203.0.113.99", 1, 2, b"x"))
        net.run_until_idle()

    def test_counter_matches_list(self):
        net, client, _ = chain()
        self._spray(net, client, 3)
        assert net.drop_stats() == {"no-route": 3}
        assert net.drop_stats(collapse=False) == {"no-route": 3}
        assert len(net.drops) == 3

    def test_collapse_aggregates_suffixed_reasons(self):
        net = Network()
        net._drop("inline-drop:r1", None)
        net._drop("inline-drop:r2", None)
        net._drop("loss:a->b", None)
        assert net.drop_stats() == {"inline-drop": 2, "loss": 1}
        assert net.drop_stats(collapse=False) == {
            "inline-drop:r1": 1, "inline-drop:r2": 1, "loss:a->b": 1}

    @pytest.mark.parametrize("plans", [True, False])
    def test_no_route_names_the_router_only_in_transit(self, plans):
        net, client, _ = chain()
        net.delivery_plans_enabled = plans
        net.add_host("island", "10.8.0.1")  # owned but unreachable
        client.send_packet(make_udp_packet(client.ip, "10.8.0.1", 1, 2, b"x"))
        net.inject_at(net.node("r1"),
                      make_udp_packet(client.ip, "10.8.0.1", 1, 2, b"x"))
        # Placed straight onto r2: a transit drop names the router.
        net.call_later(0.0, net._arrive, net.node("r2"),
                       make_udp_packet(client.ip, "10.8.0.1", 1, 2, b"x"))
        net.run_until_idle()
        assert net.drop_stats(collapse=False) == {"no-route": 2,
                                                  "no-route:r2": 1}

    def test_list_is_capped_but_counter_is_not(self, monkeypatch):
        monkeypatch.setattr(engine_module, "DROPS_KEPT_MAX", 3)
        net, client, _ = chain()
        self._spray(net, client, 5)
        assert len(net.drops) == 3
        assert net.drops_truncated == 2
        assert net.drop_stats() == {"no-route": 5}


class TestFIBInvalidation:
    def test_generation_moves_on_topology_changes(self):
        net = Network()
        g0 = net.topology_generation
        net.add_host("a", "10.0.0.1")
        assert net.topology_generation > g0
        g1 = net.topology_generation
        net.add_host("b", "10.0.0.2")
        net.link("a", "b")
        assert net.topology_generation > g1

    def test_new_shortcut_changes_cached_routes(self):
        net = Network()
        a = net.add_host("a", "10.0.0.1")
        net.add_router("r1", "10.0.1.1")
        net.add_router("r2", "10.0.1.2")
        b = net.add_host("b", "10.0.0.2")
        net.link("a", "r1")
        net.link("r1", "r2")
        net.link("r2", "b")
        assert net.hop_count(a, b.ip) == 3  # caches are now warm
        net.link("r1", "b", delay=0.001)
        assert net.hop_count(a, b.ip) == 2
        assert net.next_hop(net.node("r1"), b.ip).name == "b"

    def test_new_address_on_existing_node_is_routable(self):
        net, client, server = chain()
        with pytest.raises(engine_module.RoutingError):
            net.path_to(client, "10.9.0.99")
        server.add_ip("10.9.0.99")
        path = net.path_to(client, "10.9.0.99")
        assert path[-1] is server

    def test_path_cache_returns_fresh_copies(self):
        net, client, server = chain()
        first = net.path_to(client, server.ip)
        first.append(None)  # caller mutation must not poison the cache
        second = net.path_to(client, server.ip)
        assert None not in second
        assert [n.name for n in second] == \
            ["client", "r1", "r2", "r3", "server"]

    def test_cached_matches_uncached_on_warm_caches(self):
        net, client, server = chain()
        net.path_to(client, server.ip)
        warm = net.path_to(client, server.ip)
        assert net.path_cache_hits == 1
        assert warm == ReferenceRouter(net).path_to(client, server.ip)

    def test_middlebox_attach_bumps_generation(self):
        net, client, server = chain()
        g0 = net.topology_generation

        class _Box:
            def attach(self, router):
                self.router = router

        net.node("r2").attach_tap(_Box())
        assert net.topology_generation > g0


class TestExpressCacheInvalidation:
    def test_boxes_recomputed_after_attach(self):
        from repro.core.measure.fastprobe import middleboxes_along

        net, client, server = chain()
        assert middleboxes_along(net, client, server.ip) == []

        class _Box:
            def attach(self, router):
                self.router = router

        box = _Box()
        net.node("r2").attach_tap(box)
        found = middleboxes_along(net, client, server.ip)
        assert [(hop, b) for hop, b in found] == [(2, box)]
