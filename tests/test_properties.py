"""Property-based tests (hypothesis) on core data structures."""

import string

from hypothesis import given, settings, strategies as st

from repro.httpsim import (
    GetRequestSpec,
    HTTPResponse,
    make_response,
    parse_request_unit,
    parse_responses,
)
from repro.middlebox import FlowTable, TriggerSpec
from repro.netsim import (
    Prefix,
    PrefixAllocator,
    TCPFlags,
    int_to_ip,
    ip_to_int,
    is_bogon,
    make_tcp_packet,
)

ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(int_to_ip)
domains = st.from_regex(r"[a-z][a-z0-9\-]{0,20}\.(com|net|org|in)",
                        fullmatch=True)


class TestAddressing:
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_ip_int_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @given(ips)
    def test_ip_str_roundtrip(self, ip):
        assert int_to_ip(ip_to_int(ip)) == ip

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=0, max_value=32))
    def test_prefix_contains_its_network(self, value, length):
        network = value & (0xFFFFFFFF << (32 - length)) if length else 0
        prefix = Prefix(network & 0xFFFFFFFF, length)
        assert prefix.contains(int_to_ip(prefix.network))

    @given(st.integers(min_value=16, max_value=30),
           st.integers(min_value=0, max_value=200))
    def test_prefix_address_within(self, length, offset):
        prefix = Prefix.parse(f"10.32.0.0/{length}")
        offset = offset % prefix.size
        assert prefix.contains(prefix.address(offset))

    @given(st.lists(st.integers(min_value=24, max_value=30),
                    min_size=1, max_size=20))
    def test_allocator_never_overlaps(self, lengths):
        allocator = PrefixAllocator(Prefix.parse("10.0.0.0/16"))
        allocated = [allocator.allocate(length) for length in lengths]
        for i, a in enumerate(allocated):
            for b in allocated[i + 1:]:
                a_range = (a.network, a.network + a.size)
                b_range = (b.network, b.network + b.size)
                assert a_range[1] <= b_range[0] or b_range[1] <= a_range[0]

    @given(ips)
    def test_bogon_is_total(self, ip):
        assert is_bogon(ip) in (True, False)


class TestHTTPRoundtrips:
    @given(st.integers(min_value=100, max_value=599),
           st.binary(max_size=500))
    def test_response_roundtrip(self, status, body):
        response = make_response(status, body, reason="X")
        parsed = parse_responses(response.to_bytes())
        assert len(parsed) == 1
        assert parsed[0].status == status
        assert parsed[0].body == body

    @given(st.lists(st.binary(max_size=200), min_size=1, max_size=4))
    def test_concatenated_responses_all_parsed(self, bodies):
        stream = b"".join(make_response(200, body).to_bytes()
                          for body in bodies)
        parsed = parse_responses(stream)
        assert [r.body for r in parsed] == bodies

    @given(domains,
           st.sampled_from(["Host", "HOst", "HOST", "hOsT", "host"]),
           st.sampled_from([" ", "  ", "\t", "   "]),
           st.sampled_from(["", " ", "  "]))
    def test_server_parses_any_crafted_variant(self, domain, keyword,
                                               pre, post):
        """RFC 2616 leniency: every crafting knob still yields the same
        parsed Host at the origin — the invariant all section-5 request
        evasions rely on."""
        spec = GetRequestSpec(domain=domain, host_keyword=keyword,
                              host_pre_space=pre, host_post_space=post)
        parsed = parse_request_unit(spec.to_bytes())
        assert parsed.malformed is None
        assert parsed.host == domain


class TestFuzzRoundtrips:
    """The invariants the fuzzing campaign enforces, as properties."""

    @given(st.lists(
        st.tuples(domains,
                  st.sampled_from(["Host", "HOst", "HOST", "host"]),
                  st.sampled_from(["", " ", "  ", "\t"]),
                  st.sampled_from(["", " ", "  "])),
        min_size=1, max_size=4))
    def test_serialize_split_parse_recovers_every_request(self, specs):
        """A pipelined stream of crafted requests splits back into
        exactly its units, each recovering method, path and Host."""
        from repro.httpsim import split_request_units

        stream = b""
        for domain, keyword, pre, post in specs:
            stream += GetRequestSpec(domain=domain, host_keyword=keyword,
                                     host_pre_space=pre,
                                     host_post_space=post).to_bytes()
        units = split_request_units(stream)
        assert b"".join(units) == stream
        assert len(units) == len(specs)
        for unit, (domain, _, _, _) in zip(units, specs):
            parsed = parse_request_unit(unit)
            assert parsed.malformed is None
            assert parsed.method == "GET"
            assert parsed.path == "/"
            assert parsed.host == domain

    @given(st.binary(max_size=300))
    def test_invariant_oracle_total_on_arbitrary_bytes(self, data):
        """check_http_invariants never raises and never reports a
        violation on any byte stream: the split/parse layer is total."""
        from repro.fuzz import check_http_invariants

        assert check_http_invariants(data) is None

    @given(st.sampled_from([
        "HOst: {d}", "HOST: {d}", "Host:  {d}", "Host: {d} ",
        "Host:\t{d}", "Host : {d}", "Host:\x0b{d}", "Host:\x0c{d}",
        "Host: www.{d}",
    ]))
    def test_evasion_transforms_classify_to_known_classes_only(self, form):
        """Every documented evasion transform of the canonical request
        yields zero differential violations — the disagreement is
        always named by a known class."""
        from repro.fuzz import FUZZ_DOMAIN, diff_http

        host_line = form.format(d=FUZZ_DOMAIN)
        payload = (f"GET / HTTP/1.1\r\n{host_line}\r\n"
                   f"Connection: close\r\n\r\n").encode("latin-1")
        result = diff_http(payload)
        assert result.violations == []

    @given(st.integers(min_value=0), st.integers(min_value=0),
           st.integers(min_value=0, max_value=9))
    def test_fuzz_rng_is_stable_and_label_sensitive(self, seed, iteration,
                                                    salt):
        from repro.fuzz import derive_seed

        assert derive_seed(seed, "http", iteration) == \
            derive_seed(seed, "http", iteration)
        assert derive_seed(seed, "http", iteration) != \
            derive_seed(seed, "tcp", iteration)
        assert 0 <= derive_seed(seed, salt) < (1 << 64)


class TestTriggerProperties:
    @given(domains, st.booleans(), st.booleans(), st.booleans())
    def test_canonical_request_always_triggers_blocklisted(
            self, domain, exact_case, strict_ws, last_only):
        """Every middlebox discipline catches a stock browser request
        for a blocked domain — otherwise censorship wouldn't work."""
        spec = TriggerSpec(
            blocklist=frozenset({domain}),
            exact_keyword_case=exact_case,
            strict_value_whitespace=strict_ws,
            inspect_last_host_only=last_only,
        )
        payload = GetRequestSpec(domain=domain).to_bytes()
        assert spec.matched_domain(payload) == domain

    @given(domains, domains)
    def test_unblocked_domain_never_triggers(self, blocked, requested):
        if blocked == requested:
            return
        spec = TriggerSpec(blocklist=frozenset({blocked}))
        payload = GetRequestSpec(domain=requested).to_bytes()
        assert spec.matched_domain(payload) is None

    @given(domains, st.binary(max_size=100))
    def test_trigger_never_crashes_on_garbage(self, domain, garbage):
        spec = TriggerSpec(blocklist=frozenset({domain}))
        spec.matched_domain(garbage)
        spec.matched_domain(garbage + b"\r\nHost: " + domain.encode())


_FLAG_CHOICES = [TCPFlags.SYN, TCPFlags.ACK, TCPFlags.SYN | TCPFlags.ACK,
                 TCPFlags.FIN | TCPFlags.ACK, TCPFlags.RST,
                 TCPFlags.ACK | TCPFlags.PSH]


class TestFlowTableProperties:
    @settings(max_examples=60)
    @given(st.lists(
        st.tuples(st.booleans(), st.sampled_from(_FLAG_CHOICES),
                  st.booleans()),
        max_size=12))
    def test_established_requires_syn_then_client_ack(self, events):
        """No packet sequence reaches ESTABLISHED without a client SYN
        followed (eventually) by a bare client ACK."""
        table = FlowTable()
        c, s = "10.0.0.1", "93.184.216.34"
        saw_syn = False
        expect_established = False
        now = 0.0
        for from_client, flags, with_payload in events:
            now += 0.01
            src, dst = (c, s) if from_client else (s, c)
            sport, dport = (4000, 80) if from_client else (80, 4000)
            payload = b"x" if with_payload else b""
            packet = make_tcp_packet(src, dst, sport, dport, seq=1,
                                     ack=1, flags=flags, payload=payload)
            table.observe(packet, now)
            is_pure_syn = flags == TCPFlags.SYN
            if from_client and is_pure_syn:
                saw_syn = True
                expect_established = False
            if flags & TCPFlags.RST:
                saw_syn = False
                expect_established = False
            is_bare_ack = (
                flags & TCPFlags.ACK
                and not flags & (TCPFlags.SYN | TCPFlags.FIN | TCPFlags.RST)
                and not with_payload
            )
            if from_client and saw_syn and is_bare_ack:
                expect_established = True
        record = table.flows.get((c, 4000, s, 80))
        if record is not None and record.state == "ESTABLISHED":
            assert expect_established, \
                "reached ESTABLISHED without SYN + bare client ACK"


class TestMetricsProperties:
    @given(st.dictionaries(
        st.integers(min_value=0, max_value=20),
        st.sets(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=5),
        max_size=12))
    def test_consistency_bounded(self, per_unit):
        from repro.core.measure import consistency
        value = consistency(per_unit)
        assert 0.0 <= value <= 1.0

    @given(st.dictionaries(
        st.integers(min_value=0, max_value=20),
        st.sets(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=5),
        max_size=12))
    def test_site_blocking_fractions_in_unit_interval(self, per_unit):
        """A site blocked anywhere is blocked by at least one unit."""
        from repro.core.measure import per_site_blocking_fractions
        fractions = per_site_blocking_fractions(per_unit)
        assert all(0.0 < value <= 1.0 for value in fractions.values())

    @given(st.sets(st.integers(0, 50)), st.sets(st.integers(0, 50)))
    def test_precision_recall_bounds(self, detected, actual):
        from repro.core.measure import precision_recall
        pr = precision_recall(detected, actual)
        assert 0.0 <= pr.precision <= 1.0
        assert 0.0 <= pr.recall <= 1.0
        if detected == actual and detected:
            assert pr.precision == pr.recall == 1.0
