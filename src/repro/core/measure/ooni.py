"""A faithful model of OONI's ``web_connectivity`` test.

Implemented from the paper's description (sections 3.1 and 6.2) of the
2018-era probe:

* **DNS consistency** — compare the addresses the client's resolver
  returns against the control resolver's; disjoint sets mean "dns"
  blocking.  (CDN-hosted sites resolve differently per region, which is
  the documented false-positive source.)
* **HTTP comparison** — flag "http" blocking only when *all* of these
  consistency signals fail: body-length proportion above threshold,
  HTTP header *names* equal, and matching ``<title>`` (compared only
  when both titles contain a word of five or more characters).  A block
  page that mimics server header names, or a real page as small as the
  notification, therefore escapes — the false-negative causes of
  section 6.2.
* **TCP** — a failed connect (with the control connecting fine) is
  "tcp" blocking.

The point of this module is to *reproduce OONI's mistakes*, so Table 1
can be regenerated; it is deliberately not a good censorship detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ...httpsim.diff import (
    OONI_BODY_PROPORTION_THRESHOLD,
    body_length_proportion,
    header_names_match,
    titles_comparable,
    titles_match,
)
from ...httpsim.message import GetRequestSpec, HTTPResponse
from ...netsim.errors import NetSimError
from ..vantage import VantagePoint

BLOCKING_NONE = "none"
BLOCKING_DNS = "dns"
BLOCKING_TCP = "tcp"
BLOCKING_HTTP = "http"


@dataclass
class OONISiteResult:
    """web_connectivity verdict for one site."""

    domain: str
    blocking: str = BLOCKING_NONE
    control_ips: List[str] = field(default_factory=list)
    experiment_ips: List[str] = field(default_factory=list)
    dns_consistent: bool = True
    body_length_match: Optional[bool] = None
    headers_match: Optional[bool] = None
    title_match: Optional[bool] = None
    notes: str = ""
    #: Extra attempts the hardened clients spent (0 on a clean network).
    retries_used: int = 0
    #: Set when the whole measurement failed with a simulator error —
    #: the site entry stays in the run as a recorded partial instead of
    #: aborting the campaign.
    error: Optional[str] = None

    @property
    def anomalous(self) -> bool:
        return self.blocking != BLOCKING_NONE

    @property
    def degraded(self) -> bool:
        return self.error is not None or self.retries_used > 0


@dataclass
class OONIRun:
    """One OONI campaign from one vantage point."""

    vantage: str
    results: Dict[str, OONISiteResult] = field(default_factory=dict)

    def flagged(self, blocking: Optional[str] = None) -> Set[str]:
        """Domains OONI reported as blocked (optionally by type)."""
        return {
            domain for domain, result in self.results.items()
            if result.anomalous
            and (blocking is None or result.blocking == blocking)
        }

    def counts(self) -> Dict[str, int]:
        tally = {BLOCKING_NONE: 0, BLOCKING_DNS: 0,
                 BLOCKING_TCP: 0, BLOCKING_HTTP: 0}
        for result in self.results.values():
            tally[result.blocking] += 1
        return tally

    def degraded(self) -> Dict[str, int]:
        """Fault-layer accounting: retries spent and sites errored."""
        return {
            "sites_retried": sum(
                1 for r in self.results.values() if r.retries_used > 0),
            "retries": sum(r.retries_used for r in self.results.values()),
            "errors": sum(
                1 for r in self.results.values() if r.error is not None),
        }


def web_connectivity(
    world,
    vantage: VantagePoint,
    domain: str,
    *,
    control: Optional[VantagePoint] = None,
) -> OONISiteResult:
    """Run the web_connectivity test for one domain."""
    if control is None:
        control = _control_vantage(world)
    result = OONISiteResult(domain=domain)
    trials = world.network.hardening.ooni_confirm_trials

    control_lookup = control.resolve(domain)
    result.retries_used += control_lookup.attempts - 1
    if not control_lookup.responded and trials > 1:
        # Silence from the (uncensored) control resolver is pure loss;
        # spend one more round before declaring the site unmeasurable.
        control_lookup = control.resolve(domain)
        result.retries_used += control_lookup.attempts
    result.control_ips = list(control_lookup.ips)
    if not control_lookup.ok:
        result.notes = "control resolution failed"
        return result

    experiment_lookup = vantage.resolve(domain)
    result.retries_used += experiment_lookup.attempts - 1
    if not experiment_lookup.responded and trials > 1:
        # Only *silence* earns another round — an answer, even a
        # poisoned one, is a censorship signal the retry must not mask.
        experiment_lookup = vantage.resolve(domain)
        result.retries_used += experiment_lookup.attempts
    result.experiment_ips = list(experiment_lookup.ips)
    if not experiment_lookup.ok:
        result.dns_consistent = False
        result.blocking = BLOCKING_DNS
        result.notes = "experiment resolution failed"
        return result

    result.dns_consistent = bool(
        set(result.control_ips) & set(result.experiment_ips))
    if not result.dns_consistent:
        result.blocking = BLOCKING_DNS
        return result

    spec = GetRequestSpec(domain=domain)
    control_fetch = control.fetch_ip(result.control_ips[0], spec.to_bytes())
    result.retries_used += control_fetch.attempts - 1
    if control_fetch.first_response is None and trials > 1:
        # No censor sits between the control vantage and the site, so a
        # failed control fetch is pure infrastructure noise — worth one
        # more flow before giving the site up as unmeasurable.
        control_fetch = control.fetch_ip(result.control_ips[0],
                                         spec.to_bytes())
        result.retries_used += control_fetch.attempts

    if control_fetch.first_response is None:
        result.notes = "control fetch failed"
        return result

    # On a lossy network a single experiment flow misleads both ways: a
    # flow can slip past a stateful censor (a lost handshake ACK
    # desynchronises its flow table), and loss-induced teardowns mimic
    # censor resets.  The hardened policy therefore keeps opening fresh
    # flows until two observations agree.  A content comparison that
    # *fails* the consistency checks is definitive on its own — loss
    # cannot forge a block page.  NO_HARDENING keeps the single-shot
    # 2018 behaviour: one flow, first answer taken at face value.
    observations: List[Optional[Tuple[str, str]]] = []
    max_flows = trials if trials == 1 else trials + 1
    for flow in range(1, max_flows + 1):
        experiment_fetch = vantage.fetch_ip(result.experiment_ips[0],
                                            spec.to_bytes())
        result.retries_used += experiment_fetch.attempts - 1
        if flow > 1:
            result.retries_used += 1  # the confirmation flow itself

        if not experiment_fetch.connected:
            observation = (BLOCKING_TCP, "experiment connect failed")
        elif experiment_fetch.first_response is None:
            observation = (BLOCKING_HTTP,
                           "experiment reset" if experiment_fetch.got_rst
                           else "experiment empty")
        else:
            _compare_http(result, control_fetch.first_response,
                          experiment_fetch.first_response)
            if result.anomalous:
                return result
            observation = None  # consistent with control

        observations.append(observation)
        soft_anomalies = [o for o in observations if o is not None]
        clean_flows = len(observations) - len(soft_anomalies)
        if trials == 1 or clean_flows >= 2 or len(soft_anomalies) >= 2:
            break

    soft_anomalies = [o for o in observations if o is not None]
    clean_flows = len(observations) - len(soft_anomalies)
    if soft_anomalies and len(soft_anomalies) >= clean_flows:
        result.blocking, result.notes = soft_anomalies[0]
    return result


def _compare_http(result: OONISiteResult, control: HTTPResponse,
                  experiment: HTTPResponse) -> None:
    proportion = body_length_proportion(control, experiment)
    result.body_length_match = proportion > OONI_BODY_PROPORTION_THRESHOLD
    result.headers_match = header_names_match(control, experiment)
    if titles_comparable(control, experiment):
        result.title_match = titles_match(control, experiment)
    else:
        result.title_match = None

    # OONI treats the site as accessible if ANY consistency signal
    # holds (section 6.2: "even if a single condition does not hold
    # true, OONI considers the website to be non censorious" — i.e. a
    # single *match* saves the site).
    saved = (result.body_length_match
             or result.headers_match
             or (result.title_match is True))
    if not saved:
        result.blocking = BLOCKING_HTTP


def run_ooni(
    world,
    isp_name: str,
    domains: Optional[Iterable[str]] = None,
) -> OONIRun:
    """Run web_connectivity over the PBW list from inside *isp_name*."""
    vantage = VantagePoint.inside(world, isp_name)
    control = _control_vantage(world)
    if domains is None:
        domains = world.corpus.domains()
    run = OONIRun(vantage=vantage.label)
    for domain in domains:
        try:
            run.results[domain] = web_connectivity(
                world, vantage, domain, control=control)
        except NetSimError as exc:
            # A broken path or dead vantage degrades to a recorded
            # partial entry instead of aborting the whole campaign.
            partial = OONISiteResult(domain=domain)
            partial.error = f"{type(exc).__name__}: {exc}"
            partial.notes = "measurement error"
            run.results[domain] = partial
    return run


def _control_vantage(world) -> VantagePoint:
    return VantagePoint(
        world=world,
        host=world.control_server,
        region="us",
        default_resolver_ip=world.google_dns.ip,
        label="ooni-control",
    )
