"""Chaos tests: the seeded fault-injection subsystem.

Covers the plan/injector layer (determinism, per-link RNG isolation),
the engine wiring (loss, drop_stats) and the hardened consumer closest
to the wire (TCP retransmission).
"""

import pytest

from repro.httpsim import OriginServer, fetch_url, make_response
from repro.netsim import (
    DEFAULT_HARDENING,
    NO_HARDENING,
    FaultInjector,
    FaultPlan,
    HardeningPolicy,
    Network,
    make_udp_packet,
)
from repro.netsim.faults import backoff, link_key

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
            FaultPlan(1.5)

    def test_hardening_attempts_validated(self):
        with pytest.raises(ValueError):
            HardeningPolicy(dns_attempts=0)

    def test_backoff_is_exponential(self):
        assert backoff(1) == 0.25
        assert backoff(3) == 1.0

    def test_empty_plan_is_inactive(self):
        """A zero-loss plan drops nothing."""
        injector = FaultInjector(FaultPlan(0.0))
        assert not any(injector.dropped("a", "b") for _ in range(50))

    def test_uniform_loss_is_active(self):
        """One loss rate covers every link."""
        injector = FaultInjector(FaultPlan(1.0))
        assert injector.dropped("a", "b") and injector.dropped("c", "d")


class TestDeterminism:
    def decisions(self, seed, link=("a", "b"), n=200):
        injector = FaultInjector(FaultPlan(0.3, seed=seed))
        return [injector.dropped(*link) for _ in range(n)]

    def test_same_seed_same_schedule(self):
        assert self.decisions(7) == self.decisions(7)

    def test_different_seed_different_schedule(self):
        assert self.decisions(7) != self.decisions(8)

    def test_streams_are_per_link(self):
        """Consulting one link never perturbs another's schedule."""
        alone = self.decisions(7, link=("a", "b"))
        injector = FaultInjector(FaultPlan(0.3, seed=7))
        interleaved = []
        for _ in range(200):
            interleaved.append(injector.dropped("a", "b"))
            injector.dropped("c", "d")  # other-link traffic
        assert interleaved == alone

    def test_loss_schedule_is_pinned(self):
        """The first 40 fates on one link, crossed in both directions.

        Every lossy campaign's bytes follow from this stream: one RNG
        per undirected link, seeded by the plan seed and the link.
        ``x`` is a dropped packet.
        """
        injector = FaultInjector(FaultPlan(0.3, seed=7))
        fates = "".join(
            "x" if injector.dropped(*(("a", "b"), ("b", "a"))[i % 2])
            else "." for i in range(40))
        assert fates == "xx.......x...x.x.xxxx.....xx.....x..x..."

    def test_stats_count_drops(self):
        injector = FaultInjector(FaultPlan(1.0, seed=1))
        for _ in range(5):
            injector.dropped("a", "b")
        assert injector.stats["link-loss"] == 5
        assert list(injector.stats_lines()) == ["link-loss: 5"]


class TestEngineWiring:
    def test_total_loss_drops_everything(self, armed):
        net, client, server = build_chain()
        armed(client, server)
        net.install_faults(FaultPlan(1.0, seed=1))
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"x"))
        net.run_until_idle()
        assert client.capture.filter(direction="tx")
        assert not server.capture.filter(direction="rx")
        assert net.drop_stats()["fault-loss"] == 1
        # Uncollapsed stats retain the per-link suffix.
        raw = net.drop_stats(collapse=False)
        assert any(key.startswith("fault-loss:client->") for key in raw)

    def test_zero_loss_changes_nothing(self, armed):
        net, client, server = build_chain()
        armed(server)
        net.install_faults(FaultPlan(0.0, seed=1))
        client.send_packet(make_udp_packet(client.ip, server.ip, 1, 2, b"x"))
        net.run_until_idle()
        assert server.capture.filter(direction="rx")
        assert not net.drop_stats()

    def test_faults_default_off(self):
        net, _, _ = build_chain()
        assert net.faults is None
        assert net.hardening is NO_HARDENING

    def test_install_switches_hardening(self):
        net, _, _ = build_chain()
        net.install_faults(FaultPlan(0.05))
        assert net.hardening is DEFAULT_HARDENING
        net2, _, _ = build_chain()
        net2.install_faults(FaultPlan(0.05),
                            hardening=NO_HARDENING)
        assert net2.hardening is NO_HARDENING


class TestTCPRescue:
    def test_fetch_survives_heavy_loss(self):
        net, client, server = build_chain(n_routers=2)
        net.install_faults(FaultPlan(0.25, seed=11))
        result = fetch_url(net, client, server.ip, "web.test")
        assert result.ok
        assert BODY in result.raw_stream
        assert net.faults.stats["link-loss"] > 0

    def test_unhardened_fetch_fails_where_hardened_succeeds(self):
        """The regression the hardening exists to fix: the same fault
        schedule that a retransmitting, retrying client shrugs off kills
        the seed repo's single-shot client."""
        plan = FaultPlan(0.25, seed=11)

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
            net.install_faults(FaultPlan(0.25, seed=11))
            result = fetch_url(net, client, server.ip, "web.test")
            outcomes.append((result.ok, result.attempts, bytes(
                result.raw_stream), net.faults.stats["link-loss"]))
        assert outcomes[0] == outcomes[1]
