"""HTTP parsing (server-side leniency) and OONI-style comparisons."""

from difflib import SequenceMatcher

from hypothesis import given, settings, strategies as st

from repro.httpsim import (
    GetRequestSpec,
    HTTPResponse,
    body_difference,
    body_length_proportion,
    header_names_match,
    make_response,
    parse_request_stream,
    parse_request_unit,
    parse_responses,
    split_request_units,
    titles_comparable,
    titles_match,
)


class TestSplitUnits:
    def test_single_request_one_unit(self):
        raw = GetRequestSpec(domain="a.com").to_bytes()
        assert len(split_request_units(raw)) == 1

    def test_pipelined_requests_split(self):
        raw = (GetRequestSpec(domain="a.com").to_bytes()
               + GetRequestSpec(domain="b.com").to_bytes())
        units = split_request_units(raw)
        assert len(units) == 2

    def test_trailing_fragment_returned(self):
        raw = GetRequestSpec(domain="a.com").to_bytes() + b"GET / HT"
        units = split_request_units(raw)
        assert len(units) == 2
        assert units[-1] == b"GET / HT"

    def test_empty_stream(self):
        assert split_request_units(b"") == []


class TestParseUnit:
    def test_canonical_request(self):
        request = parse_request_unit(GetRequestSpec(domain="x.com").to_bytes())
        assert request.malformed is None
        assert request.method == "GET"
        assert request.host == "x.com"
        assert request.header("user-agent") is not None

    def test_bad_request_line(self):
        assert parse_request_unit(b"NONSENSE\r\n\r\n").malformed
        assert parse_request_unit(b"GET /\r\n\r\n").malformed

    def test_unknown_method(self):
        raw = b"FROB / HTTP/1.1\r\nHost: x.com\r\n\r\n"
        assert parse_request_unit(raw).malformed == "unknown-method"

    def test_bad_version(self):
        raw = b"GET / SPDY/9\r\nHost: x.com\r\n\r\n"
        assert parse_request_unit(raw).malformed == "bad-version"

    def test_missing_host_http11(self):
        raw = b"GET / HTTP/1.1\r\nAccept: */*\r\n\r\n"
        assert parse_request_unit(raw).malformed == "missing-host"

    def test_http10_needs_no_host(self):
        raw = b"GET / HTTP/1.0\r\n\r\n"
        assert parse_request_unit(raw).malformed is None

    def test_duplicate_differing_hosts_rejected(self):
        raw = b"GET / HTTP/1.1\r\nHost: a.com\r\nHost: b.com\r\n\r\n"
        assert parse_request_unit(raw).malformed == "duplicate-host"

    def test_duplicate_identical_hosts_tolerated(self):
        raw = b"GET / HTTP/1.1\r\nHost: a.com\r\nHost: a.com\r\n\r\n"
        assert parse_request_unit(raw).malformed is None

    def test_header_without_colon(self):
        raw = b"GET / HTTP/1.1\r\nHost: a.com\r\nbroken line\r\n\r\n"
        assert parse_request_unit(raw).malformed == "bad-header-line"

    def test_nul_byte_classified(self):
        raw = b"GET / HTTP/1.1\r\nHost: x.com\x00\r\n\r\n"
        assert parse_request_unit(raw).malformed == "nul-byte"

    def test_bare_lf_line_classified(self):
        raw = b"GET / HTTP/1.1\nHost: x.com\n\n"
        assert parse_request_unit(raw).malformed == "bare-lf-line"

    def test_crlf_only_stream_is_empty_unit(self):
        assert parse_request_unit(b"\r\n\r\n").malformed == "empty-unit"
        assert parse_request_unit(b"").malformed == "empty-unit"

    def test_oversized_header_value_classified(self):
        raw = (b"GET / HTTP/1.1\r\nHost: x.com\r\nX-Big: "
               + b"a" * ((64 << 10) + 1) + b"\r\n\r\n")
        assert parse_request_unit(raw).malformed == "oversized-header-value"

    def test_value_at_limit_still_parses(self):
        # The limit counts the raw value bytes, LWS included.
        raw = (b"GET / HTTP/1.1\r\nHost: x.com\r\nX-Big: "
               + b"a" * ((64 << 10) - 1) + b"\r\n\r\n")
        assert parse_request_unit(raw).malformed is None

    def test_header_count_bomb_classified(self):
        headers = b"".join(b"X-%d: y\r\n" % i for i in range(300))
        raw = b"GET / HTTP/1.1\r\nHost: x.com\r\n" + headers + b"\r\n"
        assert parse_request_unit(raw).malformed == "too-many-headers"

    def test_oversized_unit_classified(self):
        raw = b"GET / HTTP/1.1\r\nHost: x.com\r\n" + b"y" * (1 << 20)
        assert parse_request_unit(raw).malformed == "oversized-unit"

    def test_parse_stream_multiple(self):
        raw = (GetRequestSpec(domain="a.com").to_bytes()
               + b"Host: b.com\r\n\r\n")
        requests = parse_request_stream(raw)
        assert len(requests) == 2
        assert requests[0].host == "a.com"
        assert requests[1].malformed is not None


class TestResponseParsing:
    def test_headers_and_title(self):
        response = make_response(
            200, b"<html><title>My Fine Site</title></html>")
        parsed = parse_responses(response.to_bytes())[0]
        assert parsed.status == 200
        assert parsed.title() == "My Fine Site"
        assert "Content-Length" in parsed.header_names()

    def test_truncated_body_not_parsed(self):
        full = make_response(200, b"x" * 100).to_bytes()
        assert parse_responses(full[:-10]) == []

    def test_non_http_prefix(self):
        assert parse_responses(b"garbage") == []

    def test_no_title(self):
        response = make_response(200, b"<html><body>x</body></html>")
        assert response.title() is None


class TestComparisons:
    def test_body_difference_identical(self):
        assert body_difference(b"same", b"same") == 0.0

    def test_body_difference_disjoint(self):
        assert body_difference(b"aaaaaaa", b"zzzzzzzzzz") > 0.8

    #: Bodies of repeated markup, long enough for difflib's popular-
    #: element heuristic (200 characters and more) to apply.
    BODIES = st.lists(st.sampled_from([b"<p>", b"lorem ", b"ipsum", b"\n",
                                       b"\xe9", b"x"]),
                      max_size=120).map(b"".join)

    @settings(max_examples=60, deadline=None)
    @given(BODIES, BODIES)
    def test_body_difference_is_one_minus_ratio(self, a, b):
        """The equal-body shortcut answers what difflib would."""
        for x, y in ((a, a), (a, b), (b, b)):
            ratio = SequenceMatcher(None, x.decode("latin-1"),
                                    y.decode("latin-1")).ratio()
            assert body_difference(x, y) == 1.0 - ratio

    def test_body_length_proportion(self):
        a = make_response(200, b"x" * 100)
        b = make_response(200, b"y" * 70)
        assert abs(body_length_proportion(a, b) - 0.7) < 1e-9
        assert body_length_proportion(a, None) == 0.0

    def test_header_names_match_ignores_values_and_order(self):
        a = HTTPResponse(200, headers=[("Server", "nginx"),
                                       ("Date", "x")])
        b = HTTPResponse(200, headers=[("date", "y"),
                                       ("server", "apache")])
        assert header_names_match(a, b)

    def test_header_names_mismatch(self):
        a = HTTPResponse(200, headers=[("Server", "nginx")])
        b = HTTPResponse(200, headers=[("Server", "nginx"),
                                       ("Set-Cookie", "s")])
        assert not header_names_match(a, b)

    def test_titles_comparable_requires_long_word(self):
        a = make_response(200, b"<title>ab cd ef</title>")
        b = make_response(200, b"<title>Properly Long</title>")
        assert not titles_comparable(a, b)
        c = make_response(200, b"<title>Another Proper</title>")
        assert titles_comparable(b, c)

    def test_block_page_has_no_title_so_not_comparable(self):
        from repro.middlebox import profile_for
        page = profile_for("airtel").response("x.com")
        real = make_response(200, b"<title>Genuine Portal</title>")
        assert page.title() is None
        assert not titles_comparable(real, page)

    def test_titles_match_first_word(self):
        a = make_response(200, b"<title>Portal News Today</title>")
        b = make_response(200, b"<title>Portal Other Words</title>")
        c = make_response(200, b"<title>Different Portal</title>")
        assert titles_match(a, b)
        assert not titles_match(a, c)
