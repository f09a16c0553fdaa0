"""What a world keeps: nothing a reader did not ask for.

A host records packets only while a measurement that reads them holds
its capture open, and the express-probe memos live on the network they
describe.  So a probed world holds no capture entries once its readers
are done, and a finished unit's world is garbage once its last
reference goes.
"""

import gc
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
from repro.experiments import EXPERIMENT_MODULES
from repro.isps import build_world
from repro.isps.profiles import OONI_TESTED_ISPS
from repro.netsim import Host
from repro.runner import parallel
from repro.runner.parallel import UnitSettings, execute_unit

SEED = 1808
SCALE = 0.05


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


class TestWorldsDie:
    def test_unit_worlds_are_collected_after_execute_unit(self,
                                                          monkeypatch):
        networks = []
        build = parallel.build_unit_world

        def recording_build(settings):
            world = build(settings)
            networks.append(weakref.ref(world.network))
            return world

        monkeypatch.setattr(parallel, "build_unit_world", recording_build)
        settings = UnitSettings(seed=SEED, scale=SCALE, fraction=1.0)
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
        assert world.network.express_plan_builds == 2
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
