"""What triggers the middlebox?  The section 3.4-III/IV experiments.

Three questions, answered exactly the way the paper answers them:

1. **Request or response?**  Following one handshake, send two GETs:
   the first with TTL n−1 (dies before the site, can elicit no
   response), the second with TTL n.  Censorship for the n−1 request
   rules out response-only inspection (possibility 2).  A crafted
   request the middlebox cannot parse but the origin can — which then
   renders real censored content uncensored — rules out response
   inspection entirely (possibility 3), leaving request-only
   (possibility 1).

2. **Which field?**  Fudge the requested domain's position: Host set
   to an uncensored domain with the blocked name embedded in the path
   or another header must not trigger; only the Host field does.

3. Both probes run at the penultimate TTL so any response provably
   comes from the middlebox, not the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...httpsim.message import GetRequestSpec
from ...netsim.devices import Host
from ..vantage import VantagePoint
from .probes import CraftedFlow

#: The crafted header variants tried when testing possibility 3.  At
#: least one must slip past every middlebox family (section 5).
CRAFTED_VARIANTS = (
    ("case-fudged keyword", lambda d: GetRequestSpec(domain=d,
                                                     host_keyword="HOst")),
    ("double-space value", lambda d: GetRequestSpec(domain=d,
                                                    host_pre_space="  ")),
    ("tab value", lambda d: GetRequestSpec(domain=d, host_pre_space="\t")),
    ("trailing uncensored Host",
     lambda d: GetRequestSpec(
         domain=d, trailing_raw=b"Host: example-allowed.org\r\n\r\n")),
)


@dataclass
class TriggerAnalysis:
    """Conclusions of the trigger experiments for one ISP."""

    isp: str
    dst_ip: str = ""
    blocked_domain: str = ""
    hops_to_site: int = 0
    censored_at_ttl_n_minus_1: bool = False
    censored_at_ttl_n: bool = False
    crafted_variant_bypassing: Optional[str] = None
    crafted_fetched_real_content: bool = False
    host_field_triggers: bool = False
    domain_in_path_triggers: bool = False
    domain_in_other_header_triggers: bool = False

    @property
    def possibility_2_ruled_out(self) -> bool:
        """Middlebox cannot be response-only: the TTL n−1 request never
        reached the site yet drew censorship."""
        return self.censored_at_ttl_n_minus_1

    @property
    def possibility_3_ruled_out(self) -> bool:
        """Middlebox cannot inspect responses at all: a crafted request
        fetched the censored content unmolested."""
        return self.crafted_fetched_real_content

    @property
    def conclusion(self) -> str:
        if (self.possibility_2_ruled_out and self.possibility_3_ruled_out
                and self.host_field_triggers
                and not self.domain_in_path_triggers):
            return ("request-only: middlebox inspects the Host field of "
                    "GET requests (possibility 1)")
        return "inconclusive"


def analyze_trigger(
    world,
    isp_name: str,
    blocked_domain: str,
    *,
    dst_ip: Optional[str] = None,
) -> TriggerAnalysis:
    """Run the full trigger analysis from inside *isp_name*."""
    vantage = VantagePoint.inside(world, isp_name)
    client = vantage.host
    if dst_ip is None:
        dst_ip = world.hosting.ip_for(blocked_domain, region="in")
    network = world.network
    analysis = TriggerAnalysis(isp=isp_name, dst_ip=dst_ip,
                               blocked_domain=blocked_domain)
    hops = network.hop_count(client, dst_ip)
    analysis.hops_to_site = hops

    analysis.censored_at_ttl_n_minus_1 = _paired_ttl_probe(
        world, client, dst_ip, blocked_domain, hops - 1)
    analysis.censored_at_ttl_n = _paired_ttl_probe(
        world, client, dst_ip, blocked_domain, hops)

    _crafted_request_probe(world, client, dst_ip, blocked_domain, analysis)
    _offset_fudging_probe(world, client, dst_ip, blocked_domain,
                          hops - 1, analysis)
    return analysis


def _paired_ttl_probe(world, client: Host, dst_ip: str, domain: str,
                      ttl: int, attempts: int = 8) -> bool:
    """Did a GET at this TTL draw a censorship response?  Retried to
    defeat wiretap races."""
    for _ in range(attempts):
        flow = CraftedFlow(world, client, dst_ip)
        if not flow.open():
            continue
        observation = flow.probe_and_observe(domain, ttl=ttl,
                                             advance=False)
        flow.close()
        if observation.censored:
            return True
    return False


def _crafted_request_probe(world, client, dst_ip, domain, analysis,
                           attempts: int = 5) -> None:
    """Find a crafted variant the middlebox misses but the origin
    serves — proof responses are not inspected."""
    for label, make_spec in CRAFTED_VARIANTS:
        for _ in range(attempts):
            flow = CraftedFlow(world, client, dst_ip)
            if not flow.open():
                continue
            observation = flow.probe_and_observe(
                domain, spec=make_spec(domain), duration=1.2)
            flow.close()
            if observation.censored:
                break
            if observation.real_content:
                analysis.crafted_variant_bypassing = label
                analysis.crafted_fetched_real_content = True
                return


def _offset_fudging_probe(world, client, dst_ip, domain, penultimate_ttl,
                          analysis, attempts: int = 8) -> None:
    """Where must the blocked name sit to trigger?  All probes run at
    the penultimate TTL so only middleboxes can answer."""
    variants = {
        "host": GetRequestSpec(domain=domain),
        "path": GetRequestSpec(domain="example-allowed.org",
                               path=f"/{domain}/index.html"),
        "header": GetRequestSpec(
            domain="example-allowed.org",
            headers=(("Referer", f"http://{domain}/"),
                     ("Connection", "close"))),
    }
    hits = {}
    for label, spec in variants.items():
        hits[label] = False
        for _ in range(attempts):
            flow = CraftedFlow(world, client, dst_ip)
            if not flow.open():
                continue
            observation = flow.probe_and_observe(
                domain, spec=spec, ttl=penultimate_ttl, duration=0.8)
            flow.close()
            if observation.censored:
                hits[label] = True
                break
    analysis.host_field_triggers = hits["host"]
    analysis.domain_in_path_triggers = hits["path"]
    analysis.domain_in_other_header_triggers = hits["header"]
