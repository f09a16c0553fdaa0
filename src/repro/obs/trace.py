"""The structured trace bus: hop-level evidence, zero cost when off.

The paper's methodology is *iterative network tracing* — reasoning
about where in the path a probe died and which box answered (§3.4-V).
The simulator computes those answers; this module keeps the evidence
trail.  Every layer that moves or forges a packet can emit typed
events onto a :class:`TraceBus` attached to the network:

==================  =====================================================
kind                emitted by / meaning
==================  =====================================================
``send``            a host transmitted a packet (origin of a flow)
``hop``             a router forwarded a packet (post-TTL-decrement)
``ttl-exceeded``    a TTL died at a router (``icmp`` says whether a
                    Time-Exceeded was sent — anonymized routers stay
                    silent, the traceroute ``*`` of §6.1)
``drop``            the engine dropped a packet (``reason`` as in
                    :meth:`~repro.netsim.engine.Network.drop_stats`)
``deliver``         a packet reached its destination host
``inject``          a (usually forged) packet entered mid-path
``wm-trigger``      a wiretap middlebox matched and is injecting
                    (``lost_race`` marks the §4.2.1 slow reaction)
``im-intercept``    an interceptive middlebox consumed a request
``dns-inject``      an on-path DNS injector forged an answer
``dns-poisoned``    a poisoned resolver lied about a blocked name
``retry``           a hardened client retried after silence
``probe``           one express (path-walk) probe verdict
``unit-start``      campaign bookkeeping: a measurement unit began
``truncated``       something bounded overflowed; ``dropped`` counts
                    what was not kept.  Emitted by
                    :class:`BufferSink` when the per-unit event cap is
                    hit (``dropped`` = events), and by an interceptive
                    middlebox when a flow's reassembly buffer hits
                    ``max_buffer`` (``box``/``flow`` set, ``dropped``
                    = payload bytes)
``flow-evicted``    a full session table evicted ``victim`` to admit a
                    new flow (``policy`` names the eviction policy)
``overload-fail-open``   a full session table left a new flow
                    untracked — it passes uninspected
``overload-fail-closed`` a full session table refused a new flow —
                    the box resets it
``residual-block``  a fresh flow hit a residual-censorship entry
                    (``domain`` is the original verdict) and is
                    blocked despite its new handshake
==================  =====================================================

The campaign supervisor (:mod:`repro.runner.supervise`) hands its own
event family — ``worker-crash``, ``unit-retry``, ``unit-quarantined``,
``unit-hard-timeout``, ``worker-spawn`` — to a plain callback in the
same shape (``t``, ``kind``, fields), but those are wall-clock
forensics, so they stream to the separate ``supervision.jsonl``
sidecar, never ``trace.jsonl`` (which must stay byte-identical between
serial and ``--workers N`` runs).

Every event carries the virtual-clock time ``t`` (never wall time — so
traces are byte-reproducible), its ``kind``, a ``corr`` correlation
scope when one is set (campaigns use ``experiment/unit``), and for
packet events a ``flow`` id shared by **both directions** of a
conversation — forged responses correlate with the request that
provoked them, which is what makes a probe's life reconstructable
traceroute-style.

Cost model: ``Network.trace`` is ``None`` by default, so the disabled
state costs one attribute test per emit site.  A bus with no
subscribers (``active == False``) costs one extra attribute test; the
event dict is only built when someone is listening.  A bench gate
(``benchmarks/bench_simulator_performance.py::
test_trace_overhead_express_probe``) holds the unsubscribed overhead
under 5% on the express probe sweep.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Event-dict signature every sink receives.
TraceSink = Callable[[Dict], None]

#: Decimal places kept on virtual timestamps (the engine schedules in
#: fractions of DEFAULT_LINK_DELAY=5 ms; 9 places is exact for every
#: delay the simulator uses while keeping JSON lines compact).
TIME_DECIMALS = 9


def flow_id(packet) -> str:
    """A direction-agnostic flow identifier for *packet*.

    Both directions of a conversation — and forged packets claiming
    either endpoint — map to the same id, mirroring how the ECMP hash
    keys the unordered address pair so middleboxes see both sides.
    """
    proto, src, sport, dst, dport = packet.flow_key()
    a = f"{src}:{sport}"
    b = f"{dst}:{dport}"
    lo, hi = (a, b) if a <= b else (b, a)
    return f"{proto}:{lo}<->{hi}"


class TraceBus:
    """Fan-out point for trace events; inert until subscribed to."""

    __slots__ = ("_sinks", "active", "corr", "emitted")

    def __init__(self) -> None:
        self._sinks: List[TraceSink] = []
        #: True iff at least one sink is subscribed.  Emit sites check
        #: this before building the event dict, so an attached-but-
        #: unsubscribed bus costs two attribute reads per site.
        self.active = False
        #: Correlation scope stamped onto every event while set
        #: (campaigns use ``experiment/unit``; probes may nest finer).
        self.corr: Optional[str] = None
        #: Total events delivered to sinks (diagnostics).
        self.emitted = 0

    def subscribe(self, sink: TraceSink) -> Callable[[], None]:
        """Attach *sink*; returns a callable that detaches it."""
        self._sinks.append(sink)
        self.active = True

        def unsubscribe() -> None:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass
            self.active = bool(self._sinks)

        return unsubscribe

    def emit(self, kind: str, t: float, **fields) -> None:
        """Deliver one typed event to every sink.

        Callers are expected to have checked :attr:`active` already
        (the hot-path contract); calling anyway on an inactive bus is
        harmless.
        """
        if not self._sinks:
            return
        event: Dict = {"t": round(t, TIME_DECIMALS), "kind": kind}
        if self.corr is not None:
            event["corr"] = self.corr
        event.update(fields)
        self.emitted += 1
        for sink in self._sinks:
            sink(event)

    @contextmanager
    def correlate(self, corr: str):
        """Scope: stamp *corr* onto every event emitted inside."""
        previous = self.corr
        self.corr = corr
        try:
            yield self
        finally:
            self.corr = previous


class BufferSink:
    """Bounded in-memory sink; the campaign's per-unit collector.

    The cap is a fixed number, so whether truncation happens — and
    after exactly which event — is as deterministic as the events
    themselves.  :meth:`lines` appends a final ``truncated`` event
    when anything was dropped, carrying the exact count.
    """

    def __init__(self, limit: int = 100_000) -> None:
        self.limit = limit
        self.events: List[Dict] = []
        self.dropped = 0

    def __call__(self, event: Dict) -> None:
        if len(self.events) < self.limit:
            self.events.append(event)
        else:
            self.dropped += 1

    def lines(self) -> List[str]:
        """The buffered events as canonical (key-sorted) JSON lines."""
        events = list(self.events)
        if self.dropped:
            events.append({"kind": "truncated", "dropped": self.dropped})
        return [event_json(event) for event in events]


class JsonlSink:
    """Streams events to a JSONL file as they happen (ad-hoc runs).

    Campaigns do **not** use this directly — they buffer per unit and
    write in canonical commit order so ``--workers N`` stays
    byte-identical; this sink is for interactive/one-shot tracing.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def __call__(self, event: Dict) -> None:
        self._fh.write(event_json(event) + "\n")

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def event_json(event: Dict) -> str:
    """Canonical single-line JSON for one event (key-sorted, compact)."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))
