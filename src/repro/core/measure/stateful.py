"""Middlebox statefulness probes — the section 4.2.1 caveat experiments.

Five raw-packet probes, each ending in a crafted censored GET at the
penultimate TTL (so only a middlebox can answer):

1. bare GET, no handshake at all;
2. SYN then GET (no SYN+ACK, no ACK);
3. SYN+ACK then GET (backwards handshake);
4. SYN, genuine SYN+ACK from the site, GET — but the final ACK of the
   handshake deliberately withheld;
5. the control: a complete handshake, then the GET.

Only probe 5 may elicit censorship; that proves inspection starts
strictly after a complete 3-way handshake.  A second experiment
brackets the flow-state idle timeout (the paper's "2–3 minutes").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..vantage import VantagePoint
from .probes import RawProbeSession, censored_after_idle


@dataclass
class StatefulnessReport:
    """Outcome of the five probes (True = censorship observed)."""

    isp: str
    dst_ip: str = ""
    blocked_domain: str = ""
    no_handshake: bool = False
    syn_only: bool = False
    synack_first: bool = False
    missing_final_ack: bool = False
    full_handshake: bool = False

    @property
    def stateful(self) -> bool:
        """Inspection gated on a complete handshake?"""
        return (self.full_handshake
                and not self.no_handshake
                and not self.syn_only
                and not self.synack_first
                and not self.missing_final_ack)


def probe_statefulness(
    world,
    isp_name: str,
    blocked_domain: str,
    dst_ip: str,
    *,
    attempts: int = 4,
) -> StatefulnessReport:
    """Run all five probes from inside *isp_name* toward *dst_ip*."""
    vantage = VantagePoint.inside(world, isp_name)
    client = vantage.host
    network = world.network
    hops = network.hop_count(client, dst_ip)
    penultimate = hops - 1
    report = StatefulnessReport(isp=isp_name, dst_ip=dst_ip,
                                blocked_domain=blocked_domain)

    report.no_handshake = _retry(attempts, lambda: _probe_no_handshake(
        world, client, dst_ip, blocked_domain, penultimate))
    report.syn_only = _retry(attempts, lambda: _probe_syn_only(
        world, client, dst_ip, blocked_domain, penultimate))
    report.synack_first = _retry(attempts, lambda: _probe_synack_first(
        world, client, dst_ip, blocked_domain, penultimate))
    report.missing_final_ack = _retry(
        attempts, lambda: _probe_missing_final_ack(
            world, client, dst_ip, blocked_domain, penultimate))
    report.full_handshake = _retry(
        attempts, lambda: _probe_full_handshake(
            world, client, dst_ip, blocked_domain, penultimate))
    return report


def _retry(attempts: int, probe) -> bool:
    return any(probe() for _ in range(attempts))


def _probe_no_handshake(world, client, dst_ip, domain, ttl) -> bool:
    with RawProbeSession(world, client, dst_ip) as session:
        observation = session.send_and_observe(
            lambda: session.send_get(domain, ttl=ttl))
    return observation.censored


def _probe_syn_only(world, client, dst_ip, domain, ttl) -> bool:
    with RawProbeSession(world, client, dst_ip) as session:
        session.send_syn(ttl=ttl)
        world.network.run(until=world.network.now + 0.2)
        observation = session.send_and_observe(
            lambda: session.send_get(domain, ttl=ttl))
    return observation.censored


def _probe_synack_first(world, client, dst_ip, domain, ttl) -> bool:
    with RawProbeSession(world, client, dst_ip) as session:
        session.send_synack(ttl=ttl)
        world.network.run(until=world.network.now + 0.2)
        observation = session.send_and_observe(
            lambda: session.send_get(domain, ttl=ttl))
    return observation.censored


def _probe_missing_final_ack(world, client, dst_ip, domain, ttl) -> bool:
    with RawProbeSession(world, client, dst_ip) as session:
        # Full-TTL SYN so the site really answers; the middlebox en
        # route sees both handshake halves but never the final ACK.
        session.send_syn(ttl=64)
        synack = session.wait_synack()
        if synack is None:
            return False
        observation = session.send_and_observe(
            lambda: session.send_get(
                domain, ack=synack.tcp.seq + 1, ttl=ttl))
    return observation.censored


def _probe_full_handshake(world, client, dst_ip, domain, ttl) -> bool:
    with RawProbeSession(world, client, dst_ip) as session:
        session.send_syn(ttl=64)
        synack = session.wait_synack()
        if synack is None:
            return False
        server_next = synack.tcp.seq + 1
        session.send_ack(seq=session.seq + 1, ack=server_next, ttl=64)
        world.network.run(until=world.network.now + 0.2)
        observation = session.send_and_observe(
            lambda: session.send_get(domain, ack=server_next, ttl=ttl))
    return observation.censored


@dataclass
class FlowTimeoutEstimate:
    """Bracketing of the middlebox flow-state idle timeout."""

    isp: str
    #: (idle seconds, censorship still observed) pairs, in probe order.
    samples: List[Tuple[float, bool]] = field(default_factory=list)
    lower_bound: Optional[float] = None
    upper_bound: Optional[float] = None

    @property
    def bracket(self) -> Tuple[Optional[float], Optional[float]]:
        return (self.lower_bound, self.upper_bound)


def estimate_flow_timeout(
    world,
    isp_name: str,
    blocked_domain: str,
    dst_ip: str,
    idle_candidates: Tuple[float, ...] = (30.0, 90.0, 140.0, 170.0, 220.0),
    attempts: int = 4,
) -> FlowTimeoutEstimate:
    """Open a connection, idle for T, then send the censored GET.

    Censorship still firing means the box kept state across T idle
    seconds; silence means the state was purged.  The answer brackets
    the timeout.
    """
    vantage = VantagePoint.inside(world, isp_name)
    client = vantage.host
    estimate = FlowTimeoutEstimate(isp=isp_name)
    for idle in idle_candidates:
        censored = censored_after_idle(world, client, dst_ip,
                                       blocked_domain, idle, attempts)
        estimate.samples.append((idle, censored))
        if censored:
            estimate.lower_bound = idle
        elif estimate.upper_bound is None:
            estimate.upper_bound = idle
    return estimate
