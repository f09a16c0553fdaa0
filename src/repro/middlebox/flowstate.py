"""Stateful flow tracking for middleboxes.

Section 4.2.1's caveat experiments show the Indian middleboxes are
*stateful*: they start inspecting a flow only after observing a
complete TCP 3-way handshake, keep per-flow state for 2–3 minutes of
inactivity, and restart that timer on any fresh packet.  A crafted GET
with no preceding handshake — or preceded only by a SYN, a SYN+ACK, or
a handshake missing its final ACK — triggers nothing.

The table keys flows by the client-side 4-tuple (the SYN sender is the
client).  Establishment is recognised from the client-side packets
alone (SYN, then the client's bare ACK), so a tap that happens to miss
the server's SYN+ACK still tracks correctly.

Real devices hold flow state in a *finite* table, and what happens at
the boundary is an observable censorship property (see
docs/SESSION_DYNAMICS.md):

* ``max_flows`` caps the table.  When a new SYN arrives at a full
  table, an :data:`EVICTION_POLICIES` policy may evict a victim to
  make room; with eviction disabled (``"none"``) the
  :data:`OVERLOAD_POLICIES` policy decides the new flow's fate —
  ``fail-open`` leaves it untracked (it passes uninspected),
  ``fail-closed`` refuses it (the owning middlebox resets it).
* ``residual_window`` models Turkmenistan-style residual censorship
  (Nourin et al.): after a censored verdict the flow's 3-tuple (client
  address, server address, server port) stays blocked for the window,
  surviving RST teardown and fresh handshakes from any client port.

All of these default to the unbounded idealization the paper's
experiments assume, so a default-constructed table behaves exactly as
before.  Capacity/residual decisions are queued on :attr:`events` for
the owning middlebox to drain (it has the router/trace context needed
to react and narrate).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..netsim.packets import Packet, TCPFlags

#: Paper: "2-3 minutes" of inactivity purges flow state (section 6.3).
DEFAULT_FLOW_TIMEOUT = 150.0

# Flow states.
SYN_SEEN = "SYN_SEEN"
SYNACK_SEEN = "SYNACK_SEEN"
ESTABLISHED = "ESTABLISHED"

# Eviction policies for a full table (``"none"`` defers to overload).
EVICT_NONE = "none"
EVICT_LRU = "lru"
EVICT_OLDEST_ESTABLISHED = "oldest-established"
EVICT_RANDOM = "random"
EVICTION_POLICIES = (EVICT_NONE, EVICT_LRU, EVICT_OLDEST_ESTABLISHED,
                     EVICT_RANDOM)

# Overload policies for a new flow refused admission.
FAIL_OPEN = "fail-open"
FAIL_CLOSED = "fail-closed"
OVERLOAD_POLICIES = (FAIL_OPEN, FAIL_CLOSED)

FlowKey = Tuple[str, int, str, int]  # client_ip, cport, server_ip, sport


@dataclass
class FlowRecord:
    """Per-flow state a middlebox maintains."""

    client_ip: str
    client_port: int
    server_ip: str
    server_port: int
    state: str = SYN_SEEN
    client_isn: int = 0
    server_isn: Optional[int] = None
    last_activity: float = 0.0
    established_at: Optional[float] = None
    censored: bool = False
    censored_domain: Optional[str] = None
    #: Interceptive boxes reassemble the client byte stream here.
    buffer: bytearray = field(default_factory=bytearray)
    #: The reassembly buffer hit ``max_buffer`` and dropped bytes.
    truncated: bool = False
    #: How many payload bytes the cap dropped (0 unless truncated).
    buffer_dropped: int = 0

    @property
    def key(self) -> FlowKey:
        return (self.client_ip, self.client_port,
                self.server_ip, self.server_port)

    def is_from_client(self, packet: Packet) -> bool:
        return (packet.src == self.client_ip
                and packet.tcp.src_port == self.client_port)


class FlowTable:
    """Bounded, policy-governed table of tracked flows.

    Expiry is lazy on lookup *and* amortized-eager: roughly once per
    ``timeout`` of observed traffic the whole table is swept, so a
    flood of never-revisited flows (un-ACKed SYNs) cannot grow the
    table without bound even when ``max_flows`` is unset.
    """

    def __init__(self, timeout: float = DEFAULT_FLOW_TIMEOUT,
                 max_buffer: int = 8192, *,
                 max_flows: Optional[int] = None,
                 eviction_policy: str = EVICT_LRU,
                 overload_policy: str = FAIL_OPEN,
                 residual_window: float = 0.0) -> None:
        if eviction_policy not in EVICTION_POLICIES:
            raise ValueError(f"unknown eviction policy: {eviction_policy!r}; "
                             f"known: {EVICTION_POLICIES}")
        if overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(f"unknown overload policy: {overload_policy!r}; "
                             f"known: {OVERLOAD_POLICIES}")
        self.timeout = timeout
        self.max_buffer = max_buffer
        self.max_flows = max_flows
        self.eviction_policy = eviction_policy
        self.overload_policy = overload_policy
        self.residual_window = residual_window
        self.flows: Dict[FlowKey, FlowRecord] = {}
        #: Residual-censorship entries: 3-tuple -> (expiry, domain).
        self.residual: Dict[tuple, Tuple[float, str]] = {}
        #: Capacity/residual decisions queued for the owning middlebox:
        #: ``(kind, detail)`` with kinds ``flow-evicted``,
        #: ``overload-fail-open``, ``overload-fail-closed``,
        #: ``residual-block``.  Only appended when the corresponding
        #: feature is configured, and drained by the box per packet.
        self.events: List[Tuple[str, dict]] = []
        #: Occupancy high-water mark (the session fuzz target checks it
        #: against ``max_flows``).
        self.high_water = 0
        #: Flows whose reassembly buffer overflowed at least once.
        self.truncated_flows = 0
        #: Dedicated RNG for EVICT_RANDOM; never shared with the owning
        #: box's reaction RNG so enabling eviction cannot perturb
        #: miss-race draws.
        self._evict_rng = random.Random(0)
        self._next_sweep = timeout

    def __len__(self) -> int:
        return len(self.flows)

    def observe(self, packet: Packet, now: float) -> Optional[FlowRecord]:
        """Update state from one observed packet; return its flow.

        Returns None for non-TCP packets and for packets belonging to
        no tracked flow (e.g. a GET with no preceding handshake), which
        includes new flows refused admission by the overload policy.
        """
        if not packet.is_tcp:
            return None
        segment = packet.tcp
        if now >= self._next_sweep:
            self.purge_expired(now)
            self._next_sweep = now + self.timeout

        record = self._lookup(packet, now)

        if segment.has(TCPFlags.SYN) and not segment.has(TCPFlags.ACK):
            # New flow attempt; (re)create state.  The SYN sender is the
            # client by definition, and the SYN re-anchors the 4-tuple:
            # any stale record in the opposite orientation is dropped.
            self.flows.pop((packet.dst, segment.dst_port,
                            packet.src, segment.src_port), None)
            key: FlowKey = (packet.src, segment.src_port,
                            packet.dst, segment.dst_port)
            if (self.max_flows is not None and key not in self.flows
                    and len(self.flows) >= self.max_flows
                    and not self._make_room(now)):
                if self.overload_policy == FAIL_OPEN:
                    self.events.append(("overload-fail-open", {}))
                else:
                    self.events.append(("overload-fail-closed", {}))
                return None
            record = FlowRecord(
                client_ip=packet.src, client_port=segment.src_port,
                server_ip=packet.dst, server_port=segment.dst_port,
                client_isn=segment.seq, last_activity=now,
            )
            residual_domain = self._residual_lookup(record.key, now)
            if residual_domain is not None:
                record.censored = True
                record.censored_domain = residual_domain
                self.events.append(
                    ("residual-block", {"domain": residual_domain}))
            self.flows[record.key] = record
            if len(self.flows) > self.high_water:
                self.high_water = len(self.flows)
            return record

        if record is None:
            # SYN+ACK without a tracked SYN, bare data, etc: the paper's
            # statefulness probes show these create no inspection state.
            return None

        record.last_activity = now  # fresh packets restart the timer

        if segment.has(TCPFlags.SYN) and segment.has(TCPFlags.ACK):
            if not record.is_from_client(packet) and record.state == SYN_SEEN:
                record.state = SYNACK_SEEN
                record.server_isn = segment.seq
            return record

        if segment.has(TCPFlags.RST):
            self.flows.pop(record.key, None)
            return record

        if (record.state in (SYN_SEEN, SYNACK_SEEN)
                and record.is_from_client(packet)
                and segment.has(TCPFlags.ACK)
                and not segment.payload
                and not segment.has(TCPFlags.FIN)):
            # The client's bare handshake-completing ACK.
            record.state = ESTABLISHED
            record.established_at = now
        return record

    def _lookup(self, packet: Packet, now: float) -> Optional[FlowRecord]:
        segment = packet.tcp
        forward: FlowKey = (packet.src, segment.src_port,
                            packet.dst, segment.dst_port)
        reverse: FlowKey = (packet.dst, segment.dst_port,
                            packet.src, segment.src_port)
        record = self.flows.get(forward) or self.flows.get(reverse)
        if record is None:
            return None
        if self._expired(record, now):
            # Idle too long (section 6.3).
            self.flows.pop(record.key, None)
            return None
        return record

    def _expired(self, record: FlowRecord, now: float) -> bool:
        return now - record.last_activity > self.timeout

    # -- capacity ----------------------------------------------------------

    def _make_room(self, now: float) -> bool:
        """Evict one victim per policy; False leaves overload to decide."""
        if self.eviction_policy == EVICT_NONE or not self.flows:
            return False
        victim = self._eviction_victim()
        del self.flows[victim.key]
        self.events.append(("flow-evicted", {
            "victim": victim, "policy": self.eviction_policy}))
        return True

    def _eviction_victim(self) -> FlowRecord:
        records = list(self.flows.values())
        if self.eviction_policy == EVICT_RANDOM:
            return records[self._evict_rng.randrange(len(records))]
        if self.eviction_policy == EVICT_OLDEST_ESTABLISHED:
            established = [r for r in records if r.established_at is not None]
            if established:
                return min(established, key=lambda r: r.established_at)
        # LRU, and the oldest-established fallback when nothing is
        # established yet.  min() keeps the first minimum, so ties
        # resolve by insertion order — deterministic.
        return min(records, key=lambda r: r.last_activity)

    # -- residual censorship -----------------------------------------------

    @staticmethod
    def _residual_key(key: FlowKey) -> tuple:
        client_ip, _client_port, server_ip, server_port = key
        return (client_ip, server_ip, server_port)

    def _residual_lookup(self, key: FlowKey, now: float) -> Optional[str]:
        if not self.residual:
            return None
        scoped = self._residual_key(key)
        entry = self.residual.get(scoped)
        if entry is None:
            return None
        expiry, domain = entry
        if now > expiry:
            del self.residual[scoped]
            return None
        return domain

    def mark_censored(self, record: FlowRecord, domain: str,
                      now: float) -> None:
        """Record a censored verdict (and arm the residual window)."""
        record.censored = True
        record.censored_domain = domain
        if self.residual_window > 0.0:
            self.residual[self._residual_key(record.key)] = (
                now + self.residual_window, domain)

    # -- reassembly buffer --------------------------------------------------

    def append_payload(self, record: FlowRecord, payload: bytes) -> bool:
        """Append client payload to the flow's reassembly buffer.

        The ``max_buffer`` cap is enforced here (not at call sites):
        once the buffer has reached the cap, further payloads are
        dropped whole and the record is marked :attr:`~FlowRecord.
        truncated`.  Returns True exactly once per flow — on the append
        that first overflows — so the caller can emit one ``truncated``
        trace event.
        """
        if len(record.buffer) < self.max_buffer:
            record.buffer.extend(payload)
            return False
        if not payload:
            return False
        record.buffer_dropped += len(payload)
        if record.truncated:
            return False
        record.truncated = True
        self.truncated_flows += 1
        return True

    # -- bookkeeping --------------------------------------------------------

    def drain_events(self) -> List[Tuple[str, dict]]:
        """Hand the queued capacity/residual decisions to the caller."""
        events, self.events = self.events, []
        return events

    def established(self, packet: Packet, now: float) -> Optional[FlowRecord]:
        """The flow for *packet* if (and only if) it is established."""
        record = self.observe(packet, now)
        if record is not None and record.state == ESTABLISHED:
            return record
        return None

    def purge_expired(self, now: float) -> int:
        """Eagerly drop idle/expired flows; returns how many were purged.

        Also sweeps expired residual-censorship entries, so neither map
        can grow without bound.  Called opportunistically from
        :meth:`observe` (amortized once per ``timeout``) and usable
        directly by tests and long-running drivers.
        """
        expired = [key for key, record in self.flows.items()
                   if self._expired(record, now)]
        for key in expired:
            del self.flows[key]
        if self.residual:
            stale = [key for key, (expiry, _domain) in self.residual.items()
                     if now > expiry]
            for key in stale:
                del self.residual[key]
        return len(expired)
