"""Iterative Network Tracing and trigger analysis."""

import pytest

from repro.core.measure import (
    analyze_trigger,
    canonical_payload,
    dns_iterative_trace,
    express_http_probe,
    find_triggering_domain,
    http_iterative_trace,
    resolver_service_at,
)


def censored_domain(world, isp, dst_ip=None):
    client = world.client_of(isp)
    for candidate in sorted(world.blocklists.http[isp]):
        ip = dst_ip or world.hosting.ip_for(candidate, "in")
        verdict = express_http_probe(world.network, client, ip,
                                     canonical_payload(candidate))
        if verdict.censored:
            return candidate, ip, verdict
    pytest.skip(f"no censored domain for {isp} in small world")


class TestHTTPTrace:
    def test_locates_idea_middlebox_hop(self, small_world):
        world = small_world
        domain, ip, verdict = censored_domain(world, "idea")
        client = world.client_of("idea")
        trace = http_iterative_trace(world, client, ip, domain)
        assert trace.censorship_observed
        assert trace.censor_hop == verdict.hop

    def test_middlebox_router_is_anonymized(self, small_world):
        """Inline middlebox routers never answer traceroute: the hop is
        an asterisk (section 6.1)."""
        world = small_world
        domain, ip, _ = censored_domain(world, "idea")
        client = world.client_of("idea")
        trace = http_iterative_trace(world, client, ip, domain)
        assert trace.middlebox_anonymized

    def test_no_censorship_on_clean_domain(self, small_world):
        world = small_world
        blocked_any = world.blocklists.all_blocked_domains()
        clean = next(s.domain for s in world.corpus
                     if s.domain not in blocked_any
                     and s.hosting == "normal")
        client = world.client_of("idea")
        ip = world.hosting.ip_for(clean, "in")
        trace = http_iterative_trace(world, client, ip, clean)
        assert not trace.censorship_observed

    def test_airtel_wiretap_traced(self, small_world):
        world = small_world
        domain, ip, verdict = censored_domain(world, "airtel")
        client = world.client_of("airtel")
        trace = http_iterative_trace(world, client, ip, domain)
        assert trace.censorship_observed
        assert trace.censor_hop == verdict.hop


class TestDNSTrace:
    def test_poisoning_answers_only_from_last_hop(self, small_world):
        """Section 3.2-III's conclusion: responses only from the final
        hop — DNS poisoning, not injection."""
        world = small_world
        deployment = world.isp("mtnl")
        resolver_ip = deployment.default_resolver_ip
        service = resolver_service_at(world.network, resolver_ip)
        blocked = sorted(service.config.blocklist)[0]
        client = deployment.client
        trace = dns_iterative_trace(world, client, resolver_ip, blocked)
        assert trace.answered
        assert trace.mechanism == "poisoning"
        assert trace.answer_hop == trace.resolver_hop

    def test_honest_resolution_also_last_hop(self, small_world):
        world = small_world
        deployment = world.isp("airtel")
        client = deployment.client
        trace = dns_iterative_trace(world, client,
                                    deployment.honest_resolver_ip,
                                    world.alexa[0].domain)
        assert trace.mechanism == "poisoning" or trace.answered
        assert trace.answer_hop == trace.resolver_hop


class TestTriggerAnalysis:
    @pytest.fixture(scope="class")
    def idea_analysis(self, small_world):
        world = small_world
        domain, ip, _ = censored_domain(world, "idea")
        return analyze_trigger(world, "idea", domain, dst_ip=ip)

    def test_ttl_n_minus_1_censored(self, idea_analysis):
        """Possibility 2 (response-only inspection) ruled out."""
        assert idea_analysis.censored_at_ttl_n_minus_1
        assert idea_analysis.possibility_2_ruled_out

    def test_full_ttl_request_censored(self, idea_analysis):
        assert idea_analysis.censored_at_ttl_n

    def test_crafted_request_fetches_content(self, idea_analysis):
        """Possibility 3 ruled out: some crafted variant slips past the
        box and retrieves the censored content."""
        assert idea_analysis.possibility_3_ruled_out
        assert idea_analysis.crafted_variant_bypassing is not None

    def test_only_host_field_triggers(self, idea_analysis):
        assert idea_analysis.host_field_triggers
        assert not idea_analysis.domain_in_path_triggers
        assert not idea_analysis.domain_in_other_header_triggers

    def test_conclusion_is_request_only(self, idea_analysis):
        assert "request-only" in idea_analysis.conclusion

    def test_airtel_wiretap_same_conclusion(self, small_world):
        world = small_world
        domain, ip, _ = censored_domain(world, "airtel")
        analysis = analyze_trigger(world, "airtel", domain, dst_ip=ip)
        assert analysis.possibility_2_ruled_out
        assert analysis.possibility_3_ruled_out
        assert "request-only" in analysis.conclusion


class TestFindTriggeringDomain:
    def test_finds_domain_on_remote_server_path(self, small_world):
        world = small_world
        candidates = sorted(world.blocklists.http["idea"])
        domain = find_triggering_domain(world, "idea", candidates)
        # Idea's coverage is near-total: some candidate must trigger.
        assert domain is not None

    def test_returns_none_for_uncensored_isp_path(self, small_world):
        world = small_world
        blocked_any = world.blocklists.all_blocked_domains()
        clean = [s.domain for s in world.corpus
                 if s.domain not in blocked_any][:5]
        assert find_triggering_domain(world, "idea", clean) is None
