"""Execution harnesses: replay mutants against real simulated stacks.

The http/diff targets run purely on the parsers (no network).  The tcp
and dns targets build a *tiny real world* per iteration — client,
router with an observing tap, origin server / resolvers — so mutants
exercise the actual TCP reassembly, event loop, server connection
handling and resolver logic, not a re-implementation of them.

Each harness returns a :class:`~repro.fuzz.oracles.DiffResult`:
explained disagreement classes plus unexplained violations.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from ..dnssim.client import dns_lookup
from ..dnssim.message import DNSQuery
from ..dnssim.resolver import ResolverConfig, ResolverService, static_ip_poison
from ..dnssim.zones import GlobalDNS
from ..httpsim.message import make_response
from ..httpsim.parsing import parse_request_unit, split_request_units
from ..httpsim.server import OriginServer
from ..middlebox import WiretapMiddlebox, profile_for
from ..middlebox.triggers import TriggerSpec
from ..netsim.engine import Network
from ..netsim.errors import ConnectionError_
from ..netsim.packets import TCPFlags
from ..netsim.tcp import ESTABLISHED, TCPApp
from .corpus import DECOY_DOMAIN, FUZZ_DOMAIN
from .oracles import (
    BLOCKLIST,
    DISCIPLINES,
    DiffResult,
    classify_evasion,
    server_serves_blocked,
)

#: Segment schedules: ``[(stream_offset, payload), ...]``.
Schedule = List[Tuple[int, bytes]]

POISON_IP = "10.8.0.99"
_MAX_EVENTS = 500_000


# ---------------------------------------------------------------------------
# TCP target
# ---------------------------------------------------------------------------

class _PortObserver:
    """A wiretap that records every client→server payload packet —
    the per-packet view a real middlebox has of the stream."""

    def __init__(self, server_ip: str, port: int = 80) -> None:
        self.server_ip = server_ip
        self.port = port
        self.payloads: List[bytes] = []

    def attach(self, router) -> None:  # Router.attach_tap protocol
        pass

    def on_copy(self, packet, now, router) -> None:
        if (packet.is_tcp and packet.dst == self.server_ip
                and packet.tcp.dst_port == self.port and packet.tcp.payload):
            self.payloads.append(bytes(packet.tcp.payload))


class _ClientApp(TCPApp):
    def __init__(self) -> None:
        self.connected = False
        self.received = bytearray()
        self.reset = False

    def on_connected(self, conn) -> None:
        self.connected = True

    def on_data(self, conn, data: bytes) -> None:
        self.received.extend(data)

    def on_rst(self, conn) -> None:
        self.reset = True

    def on_fin(self, conn) -> None:
        try:
            conn.close()
        except ConnectionError_:
            pass


def model_reassembly(schedule: Schedule) -> Tuple[bytes, List[bool]]:
    """What the in-order-only receiver accepts, and which segments.

    Mirrors the simulator's documented TCP semantics: a segment is
    accepted iff it starts exactly at ``rcv_nxt``; stale and future
    segments are dropped whole.  The harness *asserts* the real stack
    agrees (the cross-check oracle), so the two cannot drift apart
    silently.
    """
    rcv = 0
    stream = bytearray()
    accepted: List[bool] = []
    for offset, data in schedule:
        if offset == rcv and data:
            stream.extend(data)
            rcv += len(data)
            accepted.append(True)
        else:
            accepted.append(False)
    return bytes(stream), accepted


def run_tcp_schedule(schedule: Schedule) -> DiffResult:
    """Replay one segment schedule through a real client/server pair."""
    result = DiffResult()
    network = Network()
    client = network.add_host("fuzz-client", "10.9.0.1")
    router = network.add_router("fuzz-router", "10.9.0.254")
    server_host = network.add_host("fuzz-server", "10.9.0.80")
    network.link("fuzz-client", "fuzz-router")
    network.link("fuzz-router", "fuzz-server")

    origin = OriginServer("fuzz-origin")
    page = lambda request, ip: make_response(200, b"<html>fuzz</html>")
    origin.add_domain(FUZZ_DOMAIN, page)
    origin.add_domain(DECOY_DOMAIN, page)
    origin.install(server_host, 80)

    observer = _PortObserver("10.9.0.80")
    router.attach_tap(observer)

    # The oracles read what the server received and what it dropped
    # late: the origin records both for this case only.
    with origin.request_log.armed(), origin.error_log.armed():
        app = _ClientApp()
        conn = client.stack.connect("10.9.0.80", 80, app)
        network.run_until_idle(max_events=_MAX_EVENTS)
        if not app.connected:
            result.violations.append(
                ("tcp-handshake", "handshake never completed"))
            return result

        base = conn.snd_nxt
        for offset, data in schedule:
            conn.send_raw_flags(TCPFlags.ACK | TCPFlags.PSH,
                                seq=base + offset, payload=data)
        network.run_until_idle(max_events=_MAX_EVENTS)
        if conn.state == ESTABLISHED:
            conn.close()
        network.run_until_idle(max_events=_MAX_EVENTS)

        stream, accepted = model_reassembly(schedule)
        _check_reassembly(result, origin, stream)
        _diff_tcp(result, origin, observer, schedule, accepted, stream)
        return result


def _complete_units(stream: bytes) -> List[bytes]:
    units = split_request_units(stream)
    if units and not stream.endswith(b"\r\n\r\n"):
        units = units[:-1]
    return units


def _check_reassembly(result: DiffResult, origin: OriginServer,
                      stream: bytes) -> None:
    """The real stack must deliver exactly what the model predicts."""
    expected = _complete_units(stream)
    logged = [unit for _, unit, _ in origin.request_log]
    if logged != expected[:len(logged)]:
        result.violations.append((
            "tcp-reassembly-model-divergence",
            f"server saw {len(logged)} unit(s) diverging from the "
            f"in-order reassembly model",
        ))
        return
    if len(logged) < len(expected):
        requests = [request for _, _, request in origin.request_log]
        closed_early = any(
            request.malformed is not None
            or (request.header("Connection") or "").lower() == "close"
            for request in requests
        ) or any(reason == "late-unit-dropped"
                 for _, _, reason in origin.error_log)
        if not closed_early:
            result.violations.append((
                "tcp-units-lost",
                f"server processed {len(logged)}/{len(expected)} units "
                f"with no close in between",
            ))


def _diff_tcp(result: DiffResult, origin: OriginServer,
              observer: _PortObserver, schedule: Schedule,
              accepted: List[bool], stream: bytes) -> None:
    """Differential oracle over the wire view vs. the served view."""
    units = split_request_units(stream)
    parsed = [parse_request_unit(unit) for unit in units]
    served = [request for _, _, request in origin.request_log]
    blocked = server_serves_blocked(served)
    for name, spec in DISCIPLINES.items():
        matched = any(spec.matched_domain(payload) is not None
                      for payload in observer.payloads)
        if matched == blocked:
            continue
        if blocked and not matched:
            if spec.matched_domain(stream) is not None:
                # The trigger bytes exist contiguously in the stream but
                # never within one packet — the paper's fragmented GET.
                cls: Optional[str] = "fragmentation"
            else:
                cls = classify_evasion(spec, stream, units, parsed)
            kind = "evasion"
        else:
            cls = _classify_tcp_overmatch(spec, schedule, accepted,
                                          stream, units, parsed, origin)
            kind = "overmatch"
        if cls is None:
            result.violations.append((
                f"tcp-diff-{kind}",
                f"{name}: server_blocked={blocked} box_matched={matched} "
                f"— no known class explains it",
            ))
        else:
            result.note(cls)


def _classify_tcp_overmatch(spec: TriggerSpec, schedule: Schedule,
                            accepted: List[bool], stream: bytes,
                            units: List[bytes], parsed, origin: OriginServer
                            ) -> Optional[str]:
    """Box fired on the wire; the server never served blocked content."""
    # Segments the receiver dropped but the box still inspected.
    rcv = 0
    for (offset, data), taken in zip(schedule, accepted):
        if not taken and data and spec.matched_domain(data) is not None:
            return ("stale-retransmission-match" if offset < rcv
                    else "dropped-future-segment")
        if taken:
            rcv += len(data)
    # A packet boundary falling mid-line shows the box a Host line the
    # stream does not actually contain: a truncated value that the next
    # segment continues ("Host: blocked" + "x.else"), or a line
    # *continuation* that looks like a fresh Host line because the
    # packet starts right at "Host:".  Widening the packet's window to
    # whole stream lines removes the illusion; if the match disappears,
    # per-packet DPI was overblocking on a boundary artifact.
    rcv = 0
    for (offset, data), taken in zip(schedule, accepted):
        if not taken:
            continue
        start, end = rcv, rcv + len(data)
        rcv = end
        if spec.matched_domain(data) is None:
            continue
        prev_crlf = stream.rfind(b"\r\n", 0, start)
        line_start = 0 if prev_crlf < 0 else prev_crlf + 2
        next_crlf = stream.find(b"\r\n", end)
        line_end = len(stream) if next_crlf < 0 else next_crlf + 2
        if spec.matched_domain(stream[line_start:line_end]) is None:
            return "segment-boundary-host"
    # Otherwise the trigger bytes made it into the accepted stream:
    # locate the unit and explain why the server did not serve it.
    unit_spec = TriggerSpec(
        blocklist=spec.blocklist,
        exact_keyword_case=spec.exact_keyword_case,
        strict_value_whitespace=spec.strict_value_whitespace,
        inspect_last_host_only=False,
        match_www_alias=spec.match_www_alias,
    )
    complete = len(_complete_units(stream))
    served_count = len(origin.request_log)
    fallback = None
    for index, (unit, request) in enumerate(zip(units, parsed)):
        if unit_spec.matched_domain(unit) is None:
            continue
        if index >= complete:
            return "incomplete-tail-match"
        if index >= served_count:
            fallback = fallback or "post-close-unit"
            continue
        if request.malformed == "duplicate-host":
            return "duplicate-host-400"
        if request.malformed is not None:
            fallback = "matched-malformed-unit"
    return fallback


# ---------------------------------------------------------------------------
# DNS target
# ---------------------------------------------------------------------------

def _blocked_name(qname: str) -> bool:
    if qname in BLOCKLIST:
        return True
    return qname.startswith("www.") and qname[4:] in BLOCKLIST


def run_dns_probe(entry: dict) -> DiffResult:
    """Replay one DNS mutant against honest and poisoned resolvers."""
    result = DiffResult()
    qname = entry.get("qname", "")

    global_dns = GlobalDNS()
    global_dns.add_simple(FUZZ_DOMAIN, ["95.1.2.3"])
    global_dns.add_simple(DECOY_DOMAIN, ["95.1.2.4"])

    network = Network()
    client = network.add_host("fuzz-dns-client", "10.8.0.1")
    honest_host = network.add_host("fuzz-honest", "10.8.0.53")
    poisoned_host = network.add_host("fuzz-poisoned", "10.8.0.54")
    network.link("fuzz-dns-client", "fuzz-honest")
    network.link("fuzz-dns-client", "fuzz-poisoned")

    honest = ResolverService(global_dns, ResolverConfig(region="in"))
    honest.install(honest_host)
    poisoned = ResolverService(global_dns, ResolverConfig(
        region="in",
        blocklist=frozenset(BLOCKLIST),
        poison_strategy=static_ip_poison(POISON_IP),
    ))
    poisoned.install(poisoned_host)

    # Direct-answer invariant: any explicit qid (including out-of-range
    # mutants) must be echoed verbatim with the qname.
    explicit_qid = entry.get("qid")
    if explicit_qid is not None:
        service = poisoned if entry.get("resolver") == "poisoned" else honest
        response = service.answer(DNSQuery(qname=qname, qid=explicit_qid),
                                  service is poisoned and "10.8.0.54"
                                  or "10.8.0.53")
        if response.qid != explicit_qid or response.qname != qname:
            result.violations.append((
                "dns-echo", f"qid/qname not echoed for qid={explicit_qid}"))

    # On-the-wire lookups: never silent, repeatable, and the honest /
    # poisoned disagreement must be exactly the configured poisoning.
    outcomes = {}
    for label, ip in (("honest", "10.8.0.53"), ("poisoned", "10.8.0.54")):
        first = dns_lookup(network, client, ip, qname)
        second = dns_lookup(network, client, ip, qname)
        for lookup in (first, second):
            if not lookup.responded:
                result.violations.append((
                    "dns-silence", f"{label} resolver never answered"))
                return result
        if (first.outcome, sorted(first.ips)) != (second.outcome,
                                                  sorted(second.ips)):
            result.violations.append((
                "dns-nondeterminism",
                f"{label}: repeated lookup changed outcome"))
        outcomes[label] = (first.outcome, sorted(first.ips))

    if outcomes["honest"] != outcomes["poisoned"]:
        if _blocked_name(qname) and outcomes["poisoned"] == (
                "ok", [POISON_IP]):
            result.note("resolver-poisoning")
        else:
            result.violations.append((
                "dns-diff",
                f"resolvers disagree on {qname!r}: honest="
                f"{outcomes['honest']} poisoned={outcomes['poisoned']} "
                f"— not the configured poisoning",
            ))
    elif _blocked_name(qname):
        result.violations.append((
            "dns-poison-miss",
            f"poisoned resolver failed to poison blocked name {qname!r}"))
    return result


# ---------------------------------------------------------------------------
# Session target
# ---------------------------------------------------------------------------

#: Bounded-box session counters and the disagreement class each names.
_SESSION_CLASSES = (
    ("evicted", "eviction-flush"),
    ("overload_fail_open", "overload-fail-open"),
    ("overload_fail_closed", "overload-fail-closed"),
    ("residual_hits", "residual-block"),
)


def _session_world(*, max_flows: Optional[int] = None,
                   overload: str = "fail-open", eviction: str = "none",
                   residual: float = 0.0):
    """One tiny wiretap deployment with the given session parameters."""
    network = Network()
    client = network.add_host("fz-client", "10.7.0.1")
    router = network.add_router("fz-router", "10.7.0.254")
    server_host = network.add_host("fz-server", "10.7.0.80")
    network.link("fz-client", "fz-router")
    network.link("fz-router", "fz-server")

    origin = OriginServer("fz-origin")
    page = lambda request, ip: make_response(200, b"<html>fuzz</html>")
    origin.add_domain(FUZZ_DOMAIN, page)
    origin.add_domain(DECOY_DOMAIN, page)
    origin.install(server_host, 80)

    box = WiretapMiddlebox(
        "fz-wm", "fuzz", TriggerSpec(blocklist=BLOCKLIST),
        profile_for("airtel"), miss_rate=0.0,
        max_flows=max_flows, overload_policy=overload,
        eviction_policy=eviction, residual_window=residual)
    router.attach_tap(box)
    return SimpleNamespace(network=network, client=client,
                           server_ip="10.7.0.80", box=box)


def _session_counters(box) -> Dict[str, int]:
    return {name: getattr(box.stats, name) for name, _ in _SESSION_CLASSES}


def _replay_session(world, ops) -> Tuple[List[str], List[Dict[str, int]]]:
    """Outcome label plus post-op box-counter snapshot, per op."""
    from ..core.measure.probes import CraftedFlow

    outcomes: List[str] = []
    snapshots: List[Dict[str, int]] = []
    flows: Dict[int, object] = {}
    for op in ops:
        kind = op[0]
        if kind == "open":
            slot = int(op[1])
            stale = flows.pop(slot, None)
            if stale is not None:
                stale.close()
            flow = CraftedFlow(world, world.client, world.server_ip)
            if flow.open(attempts=1):
                flows[slot] = flow
                outcomes.append("ok")
            else:
                flow.close()
                outcomes.append("refused")
        elif kind == "get":
            slot = int(op[1])
            flow = flows.get(slot)
            if flow is None or flow.conn.state != "ESTABLISHED":
                # Never opened, or already torn down by a censorship
                # reaction: nothing left to probe on.
                if flow is not None:
                    flows.pop(slot).close()
                outcomes.append("noflow")
            else:
                domain = FUZZ_DOMAIN if op[2] == "blocked" else DECOY_DOMAIN
                observation = flow.probe_and_observe(domain, duration=0.5)
                outcomes.append("censored" if observation.censored
                                else "clean")
        elif kind == "close":
            flow = flows.pop(int(op[1]), None)
            if flow is not None:
                flow.close()
            outcomes.append("closed")
        elif kind == "idle":
            network = world.network
            network.run(until=network.now + float(op[1]))
            outcomes.append("idled")
        else:
            outcomes.append("nop")
        snapshots.append(_session_counters(world.box))
    for flow in flows.values():
        flow.close()
    return outcomes, snapshots


def run_session_schedule(entry: dict) -> DiffResult:
    """Differential replay: bounded session table vs. the unbounded
    idealization.

    The same op schedule runs against two identical wiretap
    deployments — one with the entry's finite table / overload policy /
    residual window, one with the paper's unbounded defaults.  Every
    per-op outcome disagreement must be explained by a session event
    the bounded box recorded at or before that op; anything else is a
    finding, as is session activity on the unbounded reference or the
    bounded table exceeding its configured capacity.
    """
    result = DiffResult()
    ops = entry.get("ops", [])
    max_flows = int(entry.get("max_flows", 4))
    bounded = _session_world(
        max_flows=max_flows,
        overload=entry.get("overload", "fail-open"),
        eviction=entry.get("eviction", "none"),
        residual=float(entry.get("residual", 0.0)))
    reference = _session_world()
    bounded_out, snapshots = _replay_session(bounded, ops)
    reference_out, _ = _replay_session(reference, ops)

    if bounded.box.flows.high_water > max_flows:
        result.violations.append((
            "session-capacity-breach",
            f"table held {bounded.box.flows.high_water} flows with "
            f"max_flows={max_flows}"))
    if any(_session_counters(reference.box).values()):
        result.violations.append((
            "session-reference-activity",
            "unbounded reference box recorded session-table events"))

    for index, (ours, theirs) in enumerate(zip(bounded_out, reference_out)):
        if ours == theirs:
            continue
        cls = _explain_session_diff(snapshots, index)
        if cls is None:
            result.violations.append((
                "session-diff",
                f"op {index} ({ops[index][0]}): bounded={ours} "
                f"reference={theirs} with no session event to explain it"))
        else:
            result.note(cls)
    return result


def _explain_session_diff(snapshots: List[Dict[str, int]],
                          index: int) -> Optional[str]:
    """The class of the nearest session event at or before op *index*."""
    for position in range(index, -1, -1):
        previous = (snapshots[position - 1] if position
                    else {name: 0 for name, _ in _SESSION_CLASSES})
        for name, cls in _SESSION_CLASSES:
            if snapshots[position][name] > previous[name]:
                return cls
    return None
