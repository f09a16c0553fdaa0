"""Evaluating anti-censorship strategies against live censorship.

``attempt_strategy`` tries one strategy for one blocked site from one
client and judges success the way the authors do: did the *real* site
content render (verified against the Tor ground truth), with no block
page?  ``evaluate_matrix`` builds the strategy × ISP effectiveness
matrix, and ``evade_all`` reproduces the paper's headline: every
blocked site, in every ISP, reachable without proxies or VPNs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ...httpsim.client import FetchResult
from ...middlebox.notification import looks_like_block_page
from ..groundtruth.tor import TorCircuit
from ..groundtruth.verify import same_site_content
from ..vantage import VantagePoint
from .strategies import CLIENT, DNS, STRATEGIES, EvasionStrategy


@dataclass
class EvasionAttempt:
    """One (strategy, domain) trial."""

    strategy: str
    domain: str
    success: bool
    detail: str = ""


@dataclass
class EvasionMatrix:
    """Strategy effectiveness per ISP."""

    isp: str
    #: strategy name -> (successes, trials)
    cells: Dict[str, List[int]] = field(default_factory=dict)
    attempts: List[EvasionAttempt] = field(default_factory=list)

    def record(self, attempt: EvasionAttempt) -> None:
        cell = self.cells.setdefault(attempt.strategy, [0, 0])
        cell[1] += 1
        if attempt.success:
            cell[0] += 1
        self.attempts.append(attempt)

    def success_rate(self, strategy_name: str) -> float:
        cell = self.cells.get(strategy_name)
        if not cell or cell[1] == 0:
            return 0.0
        return cell[0] / cell[1]


def attempt_strategy(
    world,
    vantage: VantagePoint,
    domain: str,
    strategy: EvasionStrategy,
    *,
    tor: Optional[TorCircuit] = None,
    dst_ip: Optional[str] = None,
) -> EvasionAttempt:
    """Try one strategy once; success = real content rendered."""
    if tor is None:
        tor = TorCircuit(world)
    reference = tor.fetch(domain)
    if reference is None or not reference.ok:
        return EvasionAttempt(strategy.name, domain, False,
                              "no ground truth via Tor")

    if strategy.kind == DNS:
        lookup = vantage.resolve(domain, resolver_ip=world.google_dns.ip)
        if not lookup.ok:
            return EvasionAttempt(strategy.name, domain, False,
                                  "alternate resolution failed")
        dst_ip = lookup.ips[0]
        result = vantage.fetch_domain(domain, ip=dst_ip)
        return _judge(strategy, domain, result, reference)

    if dst_ip is None:
        dst_ip = world.hosting.ip_for(domain, region="in")
        if dst_ip is None:
            return EvasionAttempt(strategy.name, domain, False, "no address")

    if strategy.kind == CLIENT:
        firewall = strategy.build_firewall(dst_ip)
        saved = vantage.host.firewall
        vantage.host.firewall = firewall
        try:
            result = vantage.fetch_domain(domain, ip=dst_ip)
            # Let the late genuine response and stray injections drain
            # while the rules are still installed.
            vantage.settle(1.0)
        finally:
            vantage.host.firewall = saved
        return _judge(strategy, domain, result, reference)

    spec = strategy.spec_for(domain)
    with vantage.host.capture.armed() as capture:
        capture_mark = len(capture)
        result = vantage.fetch_domain(domain, ip=dst_ip, spec=spec,
                                      segment_size=strategy.segment_size)
        attempt = _judge(strategy, domain, result, reference)
        if attempt.success:
            # A wiretap box that *did* trigger may simply have lost the
            # race this time; its injection still shows up (late) on
            # the wire.  A request-crafting strategy only counts as
            # working when no censorship artifact ever appears.
            vantage.settle(2.6)
            if _late_injection_observed(vantage.host, capture_mark,
                                        dst_ip):
                return EvasionAttempt(strategy.name, domain, False,
                                      "late injected notification observed")
    return attempt


def _late_injection_observed(host, mark: int, dst_ip: str) -> bool:
    for entry in host.capture.entries[mark:]:
        packet = entry.packet
        if (entry.direction == "rx" and packet.is_tcp
                and packet.src == dst_ip and packet.tcp.payload
                and looks_like_block_page(packet.tcp.payload)):
            return True
    return False


def _judge(strategy: EvasionStrategy, domain: str,
           result: Optional[FetchResult], reference) -> EvasionAttempt:
    if result is None:
        return EvasionAttempt(strategy.name, domain, False,
                              "resolution failed")
    for response in result.responses:
        if looks_like_block_page(response.body):
            return EvasionAttempt(strategy.name, domain, False,
                                  "block page received")
    reference_response = reference.first_response
    for response in result.responses:
        # Success = the site behaves exactly as it does uncensored —
        # for HTTPS-only sites that is the genuine 301 to https://.
        if (response.status == reference_response.status
                and same_site_content(response.body,
                                      reference_response.body)):
            return EvasionAttempt(strategy.name, domain, True,
                                  "real content rendered")
    if result.got_rst and not result.ok:
        return EvasionAttempt(strategy.name, domain, False, "reset")
    return EvasionAttempt(strategy.name, domain, False,
                          f"outcome={result.outcome()}")


def evaluate_matrix(
    world,
    isp_name: str,
    domains: Iterable[str],
    strategies: Optional[List[EvasionStrategy]] = None,
) -> EvasionMatrix:
    """Build the strategy-effectiveness matrix for one ISP."""
    vantage = VantagePoint.inside(world, isp_name)
    tor = TorCircuit(world)
    if strategies is None:
        strategies = STRATEGIES
    matrix = EvasionMatrix(isp=isp_name)
    for domain in domains:
        for strat in strategies:
            matrix.record(attempt_strategy(world, vantage, domain, strat,
                                           tor=tor))
    return matrix


def evade_all(
    world,
    isp_name: str,
    domains: Iterable[str],
    strategies: Optional[List[EvasionStrategy]] = None,
) -> Dict[str, Optional[str]]:
    """For every blocked domain, the first strategy that unblocks it
    (None if nothing worked — the paper found none such)."""
    vantage = VantagePoint.inside(world, isp_name)
    tor = TorCircuit(world)
    if strategies is None:
        strategies = STRATEGIES
    winners: Dict[str, Optional[str]] = {}
    for domain in domains:
        winners[domain] = None
        for strat in strategies:
            attempt = attempt_strategy(world, vantage, domain, strat,
                                       tor=tor)
            if attempt.success:
                winners[domain] = strat.name
                break
    return winners
