"""What a world keeps: nothing a reader did not ask for.

A host records packets only while a measurement that reads them holds
its capture open, the network's drop records and an origin's request
log likewise, resolvers count their queries instead of logging them,
and the express-probe memos live on the network they describe.  So a
probed world holds no capture entries once its readers are done, a
warm world does not grow round after round, and a finished unit's
world is garbage once its last reference goes.  A campaign worker
collects that garbage before it takes its next unit, with the
program's own heap frozen, so a worker holds one unit's world at a
time, under every start method and at every worker count.
"""

import gc
import json
import multiprocessing
import tracemalloc
import types
import weakref

import pytest

from repro.core import evasion
from repro.core.evasion import attempt_strategy, strategy
from repro.core.measure import (
    canonical_payload,
    classify_middlebox,
    express_dns_probe,
    express_http_probe,
    find_controlled_target,
    http_iterative_trace,
    web_connectivity,
)
from repro.core.vantage import VantagePoint
from repro.dnssim import dns_lookup
from repro.dnssim.resolver import ResolverConfig, ResolverService
from repro.dnssim.zones import GlobalDNS
from repro.experiments import EXPERIMENT_MODULES
from repro.httpsim import (GetRequestSpec, OriginServer, http_fetch,
                           make_response)
from repro.isps import build_world
from repro.isps.profiles import OONI_TESTED_ISPS
from repro.netsim import Host, Network, make_udp_packet
from repro.runner import parallel
from repro.runner.campaign import Campaign
from repro.runner.parallel import UnitSettings, execute_unit
from repro.runner.units import TableSpec, Unit, campaign_payload

SEED = 1808
SCALE = 0.05

#: Bytes the first :func:`probe_round` on a fresh world may leave
#: behind: FIB rows and distances, delivery plans, the resolver paths'
#: box lists, express plans and page bodies, 541 KB on CPython 3.11 to
#: 3.13 and 679 KB on 3.10.  A distance dict per FIB destination and a
#: box list for every HTTP plan's path as well kept 1,086 KB (1,331 KB
#: on 3.10); a flow-hash memo and a path cache beneath the plans kept
#: 5,390 more entries, for 1,792-2,040 KB.
WARMUP_RETAINED_MAX = 768 * 1024

#: Bytes an identical warm round of :func:`probe_round` may leave
#: behind.  What it keeps is middlebox flow records and the few
#: server-side connections traces leave open, 1-24 KB on CPython
#: 3.10-3.13; keeping one entry per resolver query, origin request or
#: drop would add about 230 KB.
ROUND_RETAINED_MAX = 32 * 1024


def hosts(world):
    return [node for node in world.network.nodes.values()
            if isinstance(node, Host)]


def assert_captures_disarmed_and_empty(world):
    assert sum(len(host.capture) for host in hosts(world)) == 0
    assert all(host.capture.windows == 0 for host in hosts(world))


def express_probe_once(world):
    client = world.client_of("airtel")
    domain = world.corpus.domains()[0]
    express_http_probe(world.network, client,
                       world.hosting.ip_for(domain, "in"),
                       canonical_payload(domain))
    express_dns_probe(world.network, client,
                      world.isp("airtel").default_resolver_ip, domain)


#: The networks of the unit worlds this process has run, weakly held.
_UNIT_NETWORKS = []


def _earlier_worlds_alive(world, domains):
    """How many earlier unit worlds of this worker are still alive, and
    whether the worker's heap is frozen."""
    alive = sum(ref() is not None for ref in _UNIT_NETWORKS)
    _UNIT_NETWORKS.append(weakref.ref(world.network))
    return campaign_payload([[alive, gc.get_freeze_count() > 0]])


def _six_units():
    for index in range(6):
        yield Unit(f"unit{index}", _earlier_worlds_alive)


#: An ad-hoc spec built from module-level functions, so it pickles
#: under every start method.
WORLD_COUNTER = {"worlds": types.SimpleNamespace(
    CAMPAIGN=TableSpec(title="Worlds alive", headers=("alive", "frozen")),
    units=_six_units)}


class TestWorldsDie:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("start_method",
                             multiprocessing.get_all_start_methods(),
                             indirect=True)
    def test_a_worker_frees_each_unit_world_before_the_next(
            self, tmp_path, start_method, workers):
        report = Campaign(seed=SEED, scale=SCALE,
                          run_dir=str(tmp_path / "run"), workers=workers,
                          specs=WORLD_COUNTER).run()
        assert report.complete
        with open(report.journal_path, encoding="utf-8") as fh:
            rows = [row for record in map(json.loads, fh)
                    if record["type"] == "unit"
                    for row in record["payload"]["rows"]]
        assert rows == [[0, True]] * 6

    def test_unit_worlds_are_collected_after_execute_unit(self,
                                                          monkeypatch):
        networks = []
        build = parallel.build_unit_world

        def recording_build(settings):
            world = build(settings)
            networks.append(weakref.ref(world.network))
            return world

        monkeypatch.setattr(parallel, "build_unit_world", recording_build)
        settings = UnitSettings(seed=SEED, scale=SCALE)
        for experiment, name in (("table1", "mtnl"), ("fig5", "airtel")):
            unit = next(unit for unit in
                        EXPERIMENT_MODULES[experiment].units()
                        if unit.name == name)
            record, _wall, _extras, kind = execute_unit(settings,
                                                        experiment, unit)
            assert kind is None and record["status"] == "ok"
        gc.collect()
        assert len(networks) == 2
        assert [ref() for ref in networks] == [None, None]

    def test_express_probed_world_is_collectable(self):
        world = build_world(seed=SEED, scale=SCALE)
        express_probe_once(world)
        assert world.network.express_plan_builds == 1
        network = weakref.ref(world.network)
        del world
        gc.collect()
        assert network() is None


class TestNoCaptureKept:
    def test_a_probe_round_leaves_no_capture_entries(self):
        world = build_world(seed=SEED, scale=SCALE)
        domains = world.corpus.domains()
        for isp in OONI_TESTED_ISPS:
            vantage = VantagePoint.inside(world, isp)
            for domain in domains[:3]:
                web_connectivity(world, vantage, domain)
            blocked = sorted(world.isp(isp).http_blocklist)
            if blocked:
                http_iterative_trace(world, vantage.host,
                                     world.hosting.ip_for(blocked[0], "in"),
                                     blocked[0])
        express_probe_once(world)
        assert world.network.events_processed > 0
        assert_captures_disarmed_and_empty(world)

    def test_classify_middlebox_arms_only_for_the_call(self, small_world):
        world = small_world
        candidates = sorted(world.blocklists.http["airtel"])
        server, domain = find_controlled_target(world, "airtel", candidates)
        if server is None:
            pytest.skip("no censoring box on a controlled-server path")
        result = classify_middlebox(world, "airtel", domain, attempts=10,
                                    server_host=server)
        # Both captures were read while armed ...
        assert result.server_saw_request
        assert result.injected_ip_ids
        # ... and hold nothing once the call returns.
        assert_captures_disarmed_and_empty(world)

    def test_attempt_strategy_arms_through_the_late_check(self, small_world,
                                                          monkeypatch):
        world = small_world
        vantage = VantagePoint.inside(world, "airtel")
        domain = next(
            candidate for candidate in sorted(world.blocklists.http["airtel"])
            if express_http_probe(
                world.network, vantage.host,
                world.hosting.ip_for(candidate, "in"),
                canonical_payload(candidate)).censored)
        seen = []
        late_check = evasion.engine._late_injection_observed

        def watching_late_check(host, mark, dst_ip):
            seen.append((host.capture.windows, len(host.capture), mark))
            return late_check(host, mark, dst_ip)

        monkeypatch.setattr(evasion.engine, "_late_injection_observed",
                            watching_late_check)
        attempt = attempt_strategy(world, vantage, domain,
                                   strategy("host-keyword-case"))
        assert attempt.success
        # The window spans the fetch and the settle: the check reads
        # this attempt's packets, from the start of the window.
        [(windows, entries, mark)] = seen
        assert windows == 1 and entries > 0 and mark == 0
        assert_captures_disarmed_and_empty(world)


def probe_round(world):
    """Express probes of the whole corpus from every ISP's client, then
    web tests of every fourth site and traces toward two blocked sites
    from each OONI-tested ISP."""
    network = world.network
    domains = world.corpus.domains()
    for isp in sorted(world.isps):
        if world.isp(isp).client is None:
            continue
        vantage = VantagePoint.inside(world, isp)
        for domain in domains:
            dst_ip = world.hosting.ip_for(domain, "in")
            if dst_ip is None:
                continue
            express_http_probe(network, vantage.host, dst_ip,
                               canonical_payload(domain))
            express_dns_probe(network, vantage.host,
                              vantage.default_resolver_ip, domain)
    for isp in OONI_TESTED_ISPS:
        vantage = VantagePoint.inside(world, isp)
        for domain in domains[::4]:
            web_connectivity(world, vantage, domain)
        for domain in sorted(world.isp(isp).http_blocklist)[:2]:
            dst_ip = world.hosting.ip_for(domain, "in")
            if dst_ip is not None:
                http_iterative_trace(world, vantage.host, dst_ip, domain)


class TestWarmWorldStopsGrowing:
    def test_first_round_fills_only_what_later_rounds_read(self):
        world = build_world(seed=SEED, scale=SCALE)
        gc.collect()
        tracemalloc.start()
        try:
            probe_round(world)
            gc.collect()
            filled = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert world.network.events_processed > 0
        assert filled < WARMUP_RETAINED_MAX, filled

    def test_identical_rounds_retain_almost_nothing(self):
        world = build_world(seed=SEED, scale=SCALE)
        gc.collect()
        tracemalloc.start()
        try:
            probe_round(world)  # warm-up: caches, plans, memos
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            retained = []
            for _ in range(2):
                probe_round(world)
                gc.collect()
                now = tracemalloc.get_traced_memory()[0]
                retained.append(now - before)
                before = now
        finally:
            tracemalloc.stop()
        assert world.network.events_processed > 0
        assert all(size < ROUND_RETAINED_MAX for size in retained), retained


def _origin_history():
    """An origin's request log, and a fetch that adds one entry."""
    net = Network()
    client = net.add_host("client", "10.0.0.1")
    server_host = net.add_host("web", "93.184.216.34")
    net.add_router("r1", "10.1.0.1")
    net.link("client", "r1")
    net.link("r1", "web")
    origin = OriginServer()
    origin.add_domain("example.com",
                      lambda request, ip: make_response(200, b"hello"))
    origin.install(server_host)
    request = GetRequestSpec(domain="example.com").to_bytes()
    return origin.request_log, lambda: http_fetch(net, client,
                                                  server_host.ip, request)


def _drop_history():
    """A network's drop records, and a send that adds one entry."""
    net = Network()
    client = net.add_host("client", "10.0.0.1")
    net.add_router("r1", "10.1.0.1")
    net.link("client", "r1")

    def unroutable():
        client.send_packet(
            make_udp_packet(client.ip, "203.0.113.99", 1, 2, b"x"))
        net.run_until_idle()
    return net.drops, unroutable


@pytest.fixture(params=[_origin_history, _drop_history],
                ids=["origin", "drops"])
def history(request):
    return request.param()


class TestHistoryWindows:
    def test_unarmed_records_nothing(self, history):
        log, happen = history
        happen()
        assert len(log) == 0 and log.windows == 0

    def test_armed_records_until_the_window_closes(self, history):
        log, happen = history
        with log.armed() as window:
            assert window is log
            happen()
            assert len(log) == 1
        assert len(log) == 0
        happen()
        assert len(log) == 0

    def test_windows_nest(self, history):
        log, happen = history
        with log.armed():
            happen()
            with log.armed():
                happen()
                assert log.windows == 2 and len(log) == 2
            # The inner close leaves the outer window recording.
            happen()
            assert log.windows == 1 and len(log) == 3
        assert log.windows == 0 and len(log) == 0

    def test_an_exception_closes_and_empties(self, history):
        log, happen = history
        with pytest.raises(RuntimeError):
            with log.armed():
                happen()
                assert len(log) == 1
                raise RuntimeError("reader failed")
        assert log.windows == 0 and len(log) == 0
        happen()
        assert len(log) == 0


class TestResolverCount:
    RESOLVER_IP = "10.5.0.53"

    def resolver(self, **config):
        net = Network()
        client = net.add_host("client", "10.0.0.1")
        resolver_host = net.add_host("resolver", self.RESOLVER_IP)
        net.add_router("r1", "10.1.0.1")
        net.link("client", "r1")
        net.link("r1", "resolver")
        global_dns = GlobalDNS()
        global_dns.add_simple("example.com", ["93.184.216.34"])
        service = ResolverService(global_dns, ResolverConfig(**config))
        service.install(resolver_host)
        return net, client, service

    def test_answered_query_counts(self):
        net, client, service = self.resolver()
        result = dns_lookup(net, client, self.RESOLVER_IP, "example.com")
        assert result.ips == ["93.184.216.34"]
        assert service.queries == 1

    def test_query_from_a_filtered_client_counts(self):
        net, client, service = self.resolver(
            open_to_world=False, client_filter=lambda ip: False)
        result = dns_lookup(net, client, self.RESOLVER_IP, "example.com")
        assert not result.responded
        assert service.queries == 1

    def test_non_dns_payload_does_not_count(self):
        net, client, service = self.resolver()
        client.send_packet(make_udp_packet(client.ip, self.RESOLVER_IP,
                                           5353, 53, b"not a query"))
        net.run_until_idle()
        assert service.queries == 0
