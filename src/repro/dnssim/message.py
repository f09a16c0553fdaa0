"""DNS message model.

Queries and responses travel as structured UDP payloads; a 16-bit query
id ties them together exactly as in real DNS (the tracer matches
injected vs. authoritative answers by qid).  Ids come from the
network a query crosses (:meth:`~repro.netsim.engine.Network.next_qid`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

DNS_PORT = 53


@dataclass(frozen=True)
class DNSQuery:
    """An A-record question for *qname*."""

    qname: str
    qid: int
    qtype: str = "A"


@dataclass(frozen=True)
class DNSResponse:
    """An answer: resolved addresses (empty means NXDOMAIN/SERVFAIL)."""

    qname: str
    qid: int
    ips: tuple = ()
    rcode: str = "NOERROR"
    #: Stamped by the resolver that generated the answer; lets tests
    #: distinguish poisoned-resolver answers from injected ones.
    authority: str = ""

    @property
    def ok(self) -> bool:
        return self.rcode == "NOERROR" and bool(self.ips)


@dataclass
class DNSLookupResult:
    """Client-side outcome of one lookup (possibly after retries)."""

    qname: str
    resolver_ip: str
    ips: List[str] = field(default_factory=list)
    rcode: Optional[str] = None
    responded: bool = False
    responder_ip: Optional[str] = None
    rtt: float = 0.0
    #: Total queries sent, including the first (so 1 == no retries).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.responded and self.rcode == "NOERROR" and bool(self.ips)

    @property
    def outcome(self) -> str:
        """Coarse taxonomy: ``ok`` / rcode (e.g. ``NXDOMAIN``) / ``timeout``."""
        if not self.responded:
            return "timeout"
        if self.ok:
            return "ok"
        return self.rcode or "empty"
