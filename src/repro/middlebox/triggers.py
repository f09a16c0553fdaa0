"""What makes a censorship middlebox fire.

Section 3.4 establishes experimentally that the Indian middleboxes are
triggered *solely* by the domain in the ``Host`` field of an HTTP GET
request — not by responses, not by the domain at other offsets, and
only on TCP port 80.  Section 5 then defeats them by exploiting how
*literally* each box matches that field.  :class:`TriggerSpec` captures
the per-box matching discipline:

* ``exact_keyword_case`` — the box greps for the exact bytes ``Host``;
  sending ``HOst`` evades it (the wiretap boxes of Airtel and Jio).
* ``strict_value_whitespace`` — the box expects exactly ``"Host: dom"``;
  extra spaces or tabs around the domain evade it (Idea's overt
  interceptive box).
* ``inspect_last_host_only`` — the box keys on the *last* ``Host:``
  occurrence in the payload; appending a fake uncensored Host line
  evades it (Vodafone's covert interceptive box).
* ``match_www_alias`` — whether ``www.blocked.com`` also triggers;
  boxes matching exactly are evaded by prepending ``www.``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple


@dataclass(frozen=True)
class TriggerSpec:
    """Matching discipline of one middlebox deployment."""

    blocklist: FrozenSet[str]
    exact_keyword_case: bool = True
    strict_value_whitespace: bool = True
    inspect_last_host_only: bool = False
    match_www_alias: bool = False
    ports: Tuple[int, ...] = (80,)

    def inspects_port(self, dst_port: int) -> bool:
        return dst_port in self.ports

    def extract_host_values(self, payload: bytes) -> List[str]:
        """All Host-field values this box's parser would see, in order.

        The scan is a raw byte-level grep over CRLF-separated lines —
        middleboxes do not implement HTTP framing, which is exactly why
        bytes after a ``\\r\\n\\r\\n`` still count (covert evasion) and
        why whitespace/case deviations escape strict boxes.
        """
        values: List[str] = []
        for raw_line in payload.split(b"\r\n"):
            value = self._match_line(raw_line)
            if value is not None:
                values.append(value)
        return values

    def _match_line(self, raw_line: bytes) -> Optional[str]:
        try:
            line = raw_line.decode("latin-1")
        except Exception:  # pragma: no cover - latin-1 never fails
            return None
        keyword, colon, rest = line.partition(":")
        if not colon:
            return None
        if self.exact_keyword_case:
            if keyword != "Host":
                return None
        else:
            if keyword.lower() != "host":
                return None
        if self.strict_value_whitespace:
            # The box expects the browser-canonical "Host: domain" —
            # exactly one space, no trailing whitespace.
            if not rest.startswith(" "):
                return None
            value = rest[1:]
            if value != value.strip() or not value:
                return None
            if " " in value or "\t" in value:
                return None
            return value
        value = rest.strip(" \t")
        return value or None

    def matched_domain(self, payload: bytes) -> Optional[str]:
        """The blocked domain this payload triggers on, if any."""
        values = self.extract_host_values(payload)
        if not values:
            return None
        if self.inspect_last_host_only:
            values = values[-1:]
        for value in values:
            domain = value.lower()
            if domain in self.blocklist:
                return domain
            if self.match_www_alias and domain.startswith("www."):
                bare = domain[4:]
                if bare in self.blocklist:
                    return bare
        return None


@dataclass
class TriggerStats:
    """Counters a middlebox keeps about its own activity."""

    inspected: int = 0
    not_established: int = 0
    out_of_scope: int = 0
    triggered: int = 0
    missed_race: int = 0
    dropped_post_censor: int = 0
    #: Session-table pressure: flows evicted to admit new ones.
    evicted: int = 0
    #: New flows left untracked (uninspected) at a full table.
    overload_fail_open: int = 0
    #: New flows refused (reset) at a full table.
    overload_fail_closed: int = 0
    #: Fresh flows blocked by a lingering residual-censorship entry.
    residual_hits: int = 0
    #: Flows whose reassembly buffer overflowed ``max_buffer``.
    truncated_flows: int = 0
    by_domain: dict = field(default_factory=dict)

    def record_trigger(self, domain: str) -> None:
        self.triggered += 1
        self.by_domain[domain] = self.by_domain.get(domain, 0) + 1
