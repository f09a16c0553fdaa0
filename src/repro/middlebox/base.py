"""Common middlebox machinery."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from ..netsim.addressing import Prefix, ip_in_prefixes
from ..netsim.packets import Packet
from .flowstate import FlowTable
from .triggers import TriggerSpec, TriggerStats

if TYPE_CHECKING:  # pragma: no cover
    from ..netsim.devices import Router


class Middlebox:
    """Base class: identity, flow table, scoping, statistics."""

    #: "wiretap" or "interceptive"; set by subclasses.
    kind: str = "abstract"

    def __init__(
        self,
        name: str,
        isp: str,
        spec: TriggerSpec,
        *,
        flow_timeout: float = 150.0,
        source_prefixes: Optional[Sequence[Prefix]] = None,
        require_handshake: bool = True,
        max_flows: Optional[int] = None,
        eviction_policy: str = "lru",
        overload_policy: str = "fail-open",
        residual_window: float = 0.0,
    ) -> None:
        self.name = name
        self.isp = isp
        self.spec = spec
        self.flows = FlowTable(
            timeout=flow_timeout,
            max_flows=max_flows,
            eviction_policy=eviction_policy,
            overload_policy=overload_policy,
            residual_window=residual_window,
        )
        #: The Indian boxes inspect only handshake-complete flows
        #: (section 4.2.1).  False models a stateless packet matcher —
        #: used by the statefulness ablation test to show the probes
        #: actually discriminate.
        self.require_handshake = require_handshake
        #: When set, only flows whose *client* address falls inside
        #: these prefixes are inspected — the behaviour hypothesised for
        #: Reliance Jio, whose middleboxes are invisible to probes from
        #: outside the ISP (section 4.2.2).
        self.source_prefixes = (
            list(source_prefixes) if source_prefixes else None
        )
        self.stats = TriggerStats()
        self.router: Optional["Router"] = None

    def attach(self, router: "Router") -> None:
        self.router = router

    def in_scope(self, client_ip: str) -> bool:
        """Is this flow's client inside the box's source scope?"""
        if self.source_prefixes is None:
            return True
        return ip_in_prefixes(client_ip, self.source_prefixes)

    def is_client_to_server_http(self, packet: Packet) -> bool:
        """Is this a client-side payload packet on an inspected port?"""
        if not packet.is_tcp:
            return False
        segment = packet.tcp
        return bool(segment.payload) and self.spec.inspects_port(segment.dst_port)

    def express_profile(self, client_ip: str, dst_port: int = 80):
        """This box's precompiled express-probe view, or None.

        Returns ``(matcher, blocklist)`` when the box would inspect
        traffic from *client_ip* to *dst_port* — ``matcher`` is the
        trigger spec's bound ``matched_domain`` and ``blocklist`` its
        live domain set.  Both read through to the spec, so mutating a
        spec is visible without invalidating compiled plans; only
        *path* changes (``topology_generation``) retire a plan.  The
        express layer calls this once per (client, destination) and
        then probes as a tight loop over the result.
        """
        spec = self.spec
        if not spec.inspects_port(dst_port):
            return None
        if not self.in_scope(client_ip):
            return None
        return (spec.matched_domain, spec.blocklist)

    def flow_gate_open(self, record) -> bool:
        """Is this flow eligible for inspection?"""
        if not self.require_handshake:
            return True
        return record is not None and record.state == "ESTABLISHED"

    def session_events(self, packet: Packet, now: float, router) -> list:
        """Drain and book-keep the flow table's capacity decisions.

        Counts each eviction/overload/residual decision the table made
        while observing *packet* and narrates it on the trace bus.
        Returns the drained events so the subclass can react (reset the
        refused client, drop the packet).  Costs one empty-list check
        per packet when the session features are off.
        """
        events = self.flows.drain_events()
        network = router.network if router is not None else None
        trace = network.trace if network is not None else None
        emit = trace is not None and trace.active
        if emit:
            from ..obs.trace import flow_id
        for kind, detail in events:
            if kind == "flow-evicted":
                self.stats.evicted += 1
            elif kind == "overload-fail-open":
                self.stats.overload_fail_open += 1
            elif kind == "overload-fail-closed":
                self.stats.overload_fail_closed += 1
            elif kind == "residual-block":
                self.stats.residual_hits += 1
            if emit:
                fields = {"box": self.name, "isp": self.isp,
                          "node": router.name, "flow": flow_id(packet)}
                if kind == "flow-evicted":
                    victim = detail["victim"]
                    fields["policy"] = detail["policy"]
                    fields["victim"] = (
                        f"{victim.client_ip}:{victim.client_port}->"
                        f"{victim.server_ip}:{victim.server_port}")
                elif kind == "residual-block":
                    fields["domain"] = detail["domain"]
                trace.emit(kind, now, **fields)
        return events

    def note_truncation(self, packet: Packet, record, now: float,
                        router) -> None:
        """One flow's reassembly buffer just overflowed ``max_buffer``."""
        self.stats.truncated_flows += 1
        network = router.network if router is not None else None
        trace = network.trace if network is not None else None
        if trace is not None and trace.active:
            from ..obs.trace import flow_id

            trace.emit("truncated", now, box=self.name, isp=self.isp,
                       node=router.name, flow=flow_id(packet),
                       dropped=record.buffer_dropped)

    def __repr__(self) -> str:
        where = self.router.name if self.router is not None else "unattached"
        return f"<{type(self).__name__} {self.name} ({self.isp}) at {where}>"
