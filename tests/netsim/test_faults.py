"""Chaos tests: the seeded fault-injection subsystem.

Covers the plan/injector layer (determinism, per-scope RNG isolation),
the engine wiring (loss, duplication, jitter, flaps, drop_stats) and
the hardened consumers closest to the wire (TCP retransmission, DNS
retries, middlebox blindness).
"""

import pytest

from repro.dnssim import GlobalDNS, ResolverConfig, ResolverService, dns_lookup
from repro.httpsim import OriginServer, fetch_url, make_response
from repro.middlebox import (
    TriggerSpec,
    WiretapMiddlebox,
    looks_like_block_page,
    profile_for,
)
from repro.netsim import (
    DEFAULT_HARDENING,
    NO_HARDENING,
    FaultInjector,
    FaultPlan,
    HardeningPolicy,
    LinkFaults,
    MiddleboxFaults,
    Network,
    ResolverFaults,
    make_udp_packet,
)
from repro.netsim.faults import link_key

BODY = b"<html><head><title>ok</title></head><body>content</body></html>"


def build_chain(n_routers=2):
    """client -- r1 -- ... -- rn -- server, with an origin for web.test."""
    net = Network()
    client = net.add_host("client", "10.0.0.1")
    server = net.add_host("server", "10.9.0.1")
    prev = "client"
    for i in range(1, n_routers + 1):
        net.add_router(f"r{i}", f"10.1.0.{i}")
        net.link(prev, f"r{i}")
        prev = f"r{i}"
    net.link(prev, "server")
    origin = OriginServer()
    origin.add_domain("web.test", lambda req, ip: make_response(200, BODY))
    origin.add_domain("blocked.test",
                      lambda req, ip: make_response(200, BODY))
    origin.install(server)
    return net, client, server


class TestPlanBasics:
    def test_link_key_is_unordered(self):
        assert link_key("b", "a") == link_key("a", "b") == "a|b"

    def test_loss_must_be_probability(self):
        with pytest.raises(ValueError):
            LinkFaults(loss=1.5)

    def test_flap_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            LinkFaults(flaps=((2.0, 1.0),))

    def test_resolver_rates_validated(self):
        with pytest.raises(ValueError):
            ResolverFaults(drop_rate=-0.1)

    def test_middlebox_rate_validated(self):
        with pytest.raises(ValueError):
            MiddleboxFaults(blind_rate=2.0)

    def test_hardening_attempts_validated(self):
        with pytest.raises(ValueError):
            HardeningPolicy(dns_attempts=0)

    def test_backoff_is_exponential(self):
        policy = HardeningPolicy(fetch_backoff_base=0.5,
                                 fetch_backoff_factor=2.0)
        assert policy.fetch_backoff(1) == 0.5
        assert policy.fetch_backoff(3) == 2.0

    def test_empty_plan_is_inactive(self):
        assert not FaultPlan().active

    def test_uniform_loss_is_active(self):
        assert FaultPlan.uniform_loss(0.05).active

    def test_link_override(self):
        plan = FaultPlan().with_link("a", "b", LinkFaults(loss=0.5))
        assert plan.link_faults("b", "a").loss == 0.5
        assert plan.link_faults("a", "c").loss == 0.0
        assert plan.active

    def test_resolver_override(self):
        plan = FaultPlan().with_resolver("10.0.0.53",
                                         ResolverFaults(drop_rate=1.0))
        assert plan.resolver_faults("10.0.0.53").drop_rate == 1.0
        assert plan.resolver_faults("10.0.0.54").drop_rate == 0.0


class TestDeterminism:
    def decisions(self, seed, link=("a", "b"), n=200):
        injector = FaultInjector(FaultPlan.uniform_loss(0.3, seed=seed))
        return [injector.on_link(*link, now=0.0).dropped for _ in range(n)]

    def test_same_seed_same_schedule(self):
        assert self.decisions(7) == self.decisions(7)

    def test_different_seed_different_schedule(self):
        assert self.decisions(7) != self.decisions(8)

    def test_streams_are_per_link(self):
        """Consulting one link never perturbs another's schedule."""
        alone = self.decisions(7, link=("a", "b"))
        injector = FaultInjector(FaultPlan.uniform_loss(0.3, seed=7))
        interleaved = []
        for _ in range(200):
            interleaved.append(injector.on_link("a", "b", 0.0).dropped)
            injector.on_link("c", "d", 0.0)  # other-link traffic
        assert interleaved == alone

    def test_stats_count_drops(self):
        injector = FaultInjector(FaultPlan.uniform_loss(1.0, seed=1))
        for _ in range(5):
            injector.on_link("a", "b", 0.0)
        assert injector.stats["link-loss"] == 5
        assert list(injector.stats_lines()) == ["link-loss: 5"]


class TestEngineWiring:
    def test_total_loss_drops_everything(self):
        net, client, server = build_chain()
        net.install_faults(FaultPlan.uniform_loss(1.0, seed=1))
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"x"))
        net.run_until_idle()
        assert not server.capture.filter(direction="rx")
        assert net.drop_stats()["fault-loss"] == 1
        # Uncollapsed stats retain the per-link suffix.
        raw = net.drop_stats(collapse=False)
        assert any(key.startswith("fault-loss:client->") for key in raw)

    def test_zero_loss_changes_nothing(self):
        net, client, server = build_chain()
        net.install_faults(FaultPlan.uniform_loss(0.0, seed=1))
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"x"))
        net.run_until_idle()
        assert server.capture.filter(direction="rx")
        assert not net.drop_stats()

    def test_duplication_delivers_two_copies(self):
        net, client, server = build_chain(n_routers=1)
        net.install_faults(FaultPlan(
            seed=1, default_link=LinkFaults(duplicate=1.0)))
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"x"))
        net.run_until_idle()
        rx = [e for e in server.capture.filter(direction="rx")
              if e.packet.is_udp]
        # Each of the two hops doubles the packet: 4 copies arrive.
        assert len(rx) == 4

    def test_duplicate_copies_are_independent(self):
        """A duplicate is a clone: each copy crosses the router, loses
        one TTL and arrives intact on its own."""
        net, client, server = build_chain(n_routers=1)
        net.install_faults(FaultPlan(
            seed=1, default_link=LinkFaults(duplicate=1.0)))
        arrived = []
        server.add_sniffer(lambda now, packet: arrived.append(packet))
        client.send_packet(
            make_udp_packet(client.ip, server.ip, 1, 2, b"DUPLICATED"))
        net.run_until_idle()
        assert len({id(packet) for packet in arrived}) == len(arrived) == 4
        assert all(packet.udp.payload == b"DUPLICATED" and packet.ttl == 63
                   for packet in arrived)

    def test_jitter_delays_delivery(self):
        def arrival(plan):
            net, client, server = build_chain(n_routers=1)
            if plan is not None:
                net.install_faults(plan)
            client.send_packet(
                make_udp_packet(client.ip, server.ip, 1, 2, b"x"))
            net.run_until_idle()
            rx = [e for e in server.capture.filter(direction="rx")
                  if e.packet.is_udp]
            return rx[0].time

        baseline = arrival(None)
        jittered = arrival(FaultPlan(
            seed=3, default_link=LinkFaults(jitter=0.2)))
        assert jittered > baseline

    def test_flap_window_blackholes_then_recovers(self):
        net, client, server = build_chain(n_routers=1)
        net.install_faults(FaultPlan(
            seed=1, default_link=LinkFaults(flaps=((0.0, 1.0),))))
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"a"))
        net.run_until_idle()
        assert net.drop_stats()["fault-flap"] >= 1
        assert not server.capture.filter(direction="rx")
        net.run(until=1.5)  # outage over
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"b"))
        net.run_until_idle()
        assert server.capture.filter(direction="rx")

    def test_faults_default_off(self):
        net, _, _ = build_chain()
        assert net.faults is None
        assert net.hardening is NO_HARDENING

    def test_install_switches_hardening(self):
        net, _, _ = build_chain()
        net.install_faults(FaultPlan.uniform_loss(0.05))
        assert net.hardening is DEFAULT_HARDENING
        net2, _, _ = build_chain()
        net2.install_faults(FaultPlan.uniform_loss(0.05),
                            hardening=NO_HARDENING)
        assert net2.hardening is NO_HARDENING


class TestTCPRescue:
    def test_fetch_survives_heavy_loss(self):
        net, client, server = build_chain(n_routers=2)
        net.install_faults(FaultPlan.uniform_loss(0.25, seed=11))
        result = fetch_url(net, client, server.ip, "web.test")
        assert result.ok
        assert BODY in result.raw_stream
        assert net.faults.stats["link-loss"] > 0

    def test_unhardened_fetch_fails_where_hardened_succeeds(self):
        """The regression the hardening exists to fix: the same fault
        schedule that a retransmitting, retrying client shrugs off kills
        the seed repo's single-shot client."""
        plan = FaultPlan.uniform_loss(0.25, seed=11)

        net, client, server = build_chain(n_routers=2)
        net.install_faults(plan, hardening=NO_HARDENING)
        naked = fetch_url(net, client, server.ip, "web.test")

        net2, client2, server2 = build_chain(n_routers=2)
        net2.install_faults(plan)
        hardened = fetch_url(net2, client2, server2.ip, "web.test")

        assert hardened.ok
        assert not naked.ok

    def test_same_seed_identical_outcome(self):
        outcomes = []
        for _ in range(2):
            net, client, server = build_chain(n_routers=2)
            net.install_faults(FaultPlan.uniform_loss(0.25, seed=11))
            result = fetch_url(net, client, server.ip, "web.test")
            outcomes.append((result.ok, result.attempts, bytes(
                result.raw_stream), net.faults.stats["link-loss"]))
        assert outcomes[0] == outcomes[1]


class TestResolverFaultsLive:
    def make_dns_world(self):
        net = Network()
        client = net.add_host("client", "10.0.0.1")
        resolver_host = net.add_host("resolver", "10.5.0.53")
        net.add_router("r1", "10.1.0.1")
        net.link("client", "r1")
        net.link("r1", "resolver")
        global_dns = GlobalDNS()
        global_dns.add_simple("good.example", ["93.184.216.34"])
        service = ResolverService(global_dns, ResolverConfig())
        service.install(resolver_host)
        return net, client, resolver_host, service

    def test_dropping_resolver_exhausts_retries(self):
        net, client, resolver_host, service = self.make_dns_world()
        net.install_faults(FaultPlan(
            seed=1, resolver_default=ResolverFaults(drop_rate=1.0)))
        result = dns_lookup(net, client, resolver_host.ip, "good.example",
                            timeout=0.5)
        assert not result.responded
        assert result.outcome == "timeout"
        assert result.attempts == DEFAULT_HARDENING.dns_attempts
        assert service.dropped_queries == DEFAULT_HARDENING.dns_attempts
        assert net.faults.stats["resolver-drop"] >= result.attempts

    def test_flaky_resolver_rescued_by_retry(self):
        net, client, resolver_host, service = self.make_dns_world()
        net.install_faults(FaultPlan(
            seed=2, resolver_default=ResolverFaults(drop_rate=0.5)))
        result = dns_lookup(net, client, resolver_host.ip, "good.example",
                            timeout=0.5)
        assert result.ok
        assert result.ips == ["93.184.216.34"]

    def test_slow_resolver_still_answers(self):
        net, client, resolver_host, service = self.make_dns_world()
        net.install_faults(FaultPlan(
            seed=1,
            resolver_default=ResolverFaults(slow_rate=1.0, slow_delay=0.3)))
        result = dns_lookup(net, client, resolver_host.ip, "good.example")
        assert result.ok
        assert service.slow_answers >= 1


class TestMiddleboxBlindness:
    BLOCKED = "blocked.test"

    def make_censored_chain(self):
        net, client, server = build_chain(n_routers=2)
        box = WiretapMiddlebox(
            "wm-test", "airtel",
            TriggerSpec(blocklist=frozenset({self.BLOCKED})),
            profile_for("airtel"), miss_rate=0.0, seed=7)
        net.nodes["r1"].attach_tap(box)
        return net, client, server, box

    def test_blind_box_lets_blocked_site_through(self):
        net, client, server, box = self.make_censored_chain()
        net.install_faults(FaultPlan(
            seed=1, middlebox=MiddleboxFaults(blind_rate=1.0)))
        result = fetch_url(net, client, server.ip, self.BLOCKED)
        assert result.ok
        assert not looks_like_block_page(result.first_response.body)
        assert box.stats.fault_blind > 0

    def test_sighted_box_still_censors_under_faults(self):
        net, client, server, box = self.make_censored_chain()
        net.install_faults(FaultPlan(
            seed=1, middlebox=MiddleboxFaults(blind_rate=0.0)))
        result = fetch_url(net, client, server.ip, self.BLOCKED)
        assert result.ok
        assert looks_like_block_page(result.first_response.body)
        assert box.stats.fault_blind == 0
