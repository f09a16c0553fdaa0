"""Zone data and DNS message unit tests."""

from repro.dnssim import (
    DNSQuery,
    DNSResponse,
    GlobalDNS,
    REGIONS,
    ZoneRecord,
)
from repro.netsim import Network


class TestGlobalDNS:
    def test_simple_record_everywhere(self):
        dns = GlobalDNS()
        dns.add_simple("a.example", ["1.2.3.4", "1.2.3.5"])
        for region in REGIONS:
            assert dns.lookup("a.example", region) == ["1.2.3.4", "1.2.3.5"]

    def test_regional_record(self):
        dns = GlobalDNS()
        dns.add_regional("cdn.example",
                         {"in": ["5.5.5.5"], "us": ["6.6.6.6"]},
                         anycast=["7.7.7.7"])
        assert dns.lookup("cdn.example", "in") == ["5.5.5.5", "7.7.7.7"]
        assert dns.lookup("cdn.example", "us") == ["6.6.6.6", "7.7.7.7"]
        # Unknown region falls back to the default region's answer.
        assert dns.lookup("cdn.example", "apac") == ["6.6.6.6", "7.7.7.7"]

    def test_unknown_domain(self):
        assert GlobalDNS().lookup("nope.example") is None

    def test_www_alias(self):
        dns = GlobalDNS()
        dns.add_simple("a.example", ["1.2.3.4"])
        assert dns.lookup("www.a.example") == ["1.2.3.4"]
        assert "a.example" in dns
        assert "www.a.example" not in dns  # alias, not a record

    def test_all_addresses_deduplicated(self):
        dns = GlobalDNS()
        dns.add_regional("x.example",
                         {"in": ["1.1.1.1", "2.2.2.2"],
                          "us": ["2.2.2.2", "3.3.3.3"]})
        addresses = dns.all_addresses("x.example")
        assert sorted(addresses) == ["1.1.1.1", "2.2.2.2", "3.3.3.3"]
        assert dns.all_addresses("missing.example") == []

    def test_zone_record_defaults(self):
        record = ZoneRecord(domain="y.example", anycast=["9.9.9.9"])
        assert record.addresses("in") == ["9.9.9.9"]


class TestMessages:
    def test_qids_unique(self):
        network = Network()
        ids = {network.next_qid() for _ in range(100)}
        assert len(ids) == 100

    def test_reset_qids_makes_sequence_reproducible(self):
        # A fresh network starts the sequence over, so a new world's ids
        # do not depend on what ran before it.
        first = Network()
        sequence = [first.next_qid() for _ in range(5)]
        assert sequence == [1, 2, 3, 4, 5]
        again = Network()
        assert [again.next_qid() for _ in range(5)] == sequence

    def test_private_allocator_independent_of_default(self):
        # Each network owns its ids: drawing from one never advances
        # another's sequence.
        own, other = Network(), Network()
        before = other.next_qid()
        assert own.next_qid() == 1
        assert own.next_qid() == 2
        assert other.next_qid() == before + 1

    def test_qids_wrap_at_16_bits(self):
        network = Network()
        for _ in range(0xFFFD):
            network.next_qid()
        assert [network.next_qid() for _ in range(4)] == \
            [0xFFFE, 0xFFFF, 0, 1]

    def test_query_defaults(self):
        query = DNSQuery(qname="a.example", qid=7)
        assert query.qtype == "A"
        assert query.qid == 7

    def test_response_ok(self):
        ok = DNSResponse(qname="a", qid=1, ips=("1.1.1.1",))
        assert ok.ok
        assert not DNSResponse(qname="a", qid=1).ok
        assert not DNSResponse(qname="a", qid=1, ips=("1.1.1.1",),
                               rcode="SERVFAIL").ok

    def test_messages_hashable(self):
        a = DNSQuery(qname="x", qid=5)
        b = DNSQuery(qname="x", qid=5)
        assert a == b
        assert hash(a) == hash(b)
