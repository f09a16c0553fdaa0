"""The anti-censorship strategies of section 5.

Each strategy is a self-contained recipe: how to mutate the request
bytes, how to segment them, what firewall rules to install, or which
alternate resolver to use.  None of them relies on third-party
infrastructure (no proxies, no VPNs, no Tor) — that is the paper's
design constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ...httpsim.message import GetRequestSpec
from .firewall import (
    ClientFirewall,
    FirewallRule,
    drop_fin_rst_from,
    drop_fin_rst_with_ip_id,
)

REQUEST = "request"     # mutate the GET bytes
CLIENT = "client"       # install client-side firewall rules
DNS = "dns"             # use an alternate resolver


@dataclass(frozen=True)
class EvasionStrategy:
    """One proxy-free anti-censorship technique."""

    name: str
    kind: str
    description: str
    #: REQUEST strategies: build the crafted spec for a domain.
    make_spec: Optional[Callable[[str], GetRequestSpec]] = None
    #: REQUEST strategies: optional TCP segmentation (fragmented GET).
    segment_size: Optional[int] = None
    #: CLIENT strategies: build firewall rules for a target address.
    make_rules: Optional[Callable[[str], List[FirewallRule]]] = None
    #: DNS strategies: which resolver to use instead of the ISP's.
    resolver: Optional[str] = None  # "google" | "external"

    def build_firewall(self, server_ip: str) -> ClientFirewall:
        if self.make_rules is None:
            raise ValueError(f"strategy {self.name} has no firewall rules")
        return ClientFirewall(rules=self.make_rules(server_ip))

    def spec_for(self, domain: str) -> GetRequestSpec:
        if self.make_spec is not None:
            return self.make_spec(domain)
        return GetRequestSpec(domain=domain)


def _case_fudged(domain: str) -> GetRequestSpec:
    return GetRequestSpec(domain=domain, host_keyword="HOst")


def _www_prepended(domain: str) -> GetRequestSpec:
    prefixed = domain if domain.startswith("www.") else f"www.{domain}"
    return GetRequestSpec(domain=prefixed)


def _double_space(domain: str) -> GetRequestSpec:
    return GetRequestSpec(domain=domain, host_pre_space="  ")


def _tab_space(domain: str) -> GetRequestSpec:
    return GetRequestSpec(domain=domain, host_pre_space="\t")


def _trailing_space(domain: str) -> GetRequestSpec:
    return GetRequestSpec(domain=domain, host_post_space="   ")


def _trailing_host(domain: str) -> GetRequestSpec:
    return GetRequestSpec(
        domain=domain,
        trailing_raw=b"Host: example-allowed.org\r\n\r\n",
    )


#: The strategy catalogue, in the order the paper presents them.
STRATEGIES: List[EvasionStrategy] = [
    EvasionStrategy(
        name="host-keyword-case",
        kind=REQUEST,
        description=("Change the case of the Host keyword (HOst/HoST/...): "
                     "RFC-compliant servers accept it, exact-match wiretap "
                     "boxes miss it (section 5-I, Airtel & Jio)"),
        make_spec=_case_fudged,
    ),
    EvasionStrategy(
        name="drop-fin-rst",
        kind=CLIENT,
        description=("iptables rules dropping FIN/RST from the blocked "
                     "site's address, plus the IP-ID-242 general rule; "
                     "neutralises out-of-band injections (section 5-I)"),
        make_rules=lambda server_ip: [
            drop_fin_rst_from(server_ip),
            drop_fin_rst_with_ip_id(242),
        ],
    ),
    EvasionStrategy(
        name="host-value-whitespace",
        kind=REQUEST,
        description=("Extra spaces between ':' and the domain; servers "
                     "strip linear whitespace, strict interceptive boxes "
                     "do not (section 5-II overt, Idea)"),
        make_spec=_double_space,
    ),
    EvasionStrategy(
        name="host-value-tab",
        kind=REQUEST,
        description="Tab instead of space before the domain (section 5-II)",
        make_spec=_tab_space,
    ),
    EvasionStrategy(
        name="host-trailing-space",
        kind=REQUEST,
        description="Whitespace after the domain name (section 5-II)",
        make_spec=_trailing_space,
    ),
    EvasionStrategy(
        name="trailing-uncensored-host",
        kind=REQUEST,
        description=("Append 'Host: allowed.com' after the request; a "
                     "last-Host-matching covert box reads the decoy, the "
                     "server answers the real request plus a 400 for the "
                     "fragment (section 5-II covert, Vodafone)"),
        make_spec=_trailing_host,
    ),
    EvasionStrategy(
        name="fragmented-get",
        kind=REQUEST,
        description=("Split the GET across tiny TCP segments; per-packet "
                     "wiretap matchers never see the Host line whole "
                     "(section 5 'fragmented GET requests')"),
        segment_size=8,
    ),
    EvasionStrategy(
        name="www-prepend",
        kind=REQUEST,
        description=("Prepend www. to the domain; exact-string blocklists "
                     "miss the alias (section 5 'prepending www')"),
        make_spec=_www_prepended,
    ),
    EvasionStrategy(
        name="alternate-resolver",
        kind=DNS,
        description=("Resolve through a non-poisoned public resolver "
                     "(Google 8.8.8.8 / OpenDNS); defeats MTNL/BSNL "
                     "resolver poisoning (section 5)"),
        resolver="google",
    ),
]

STRATEGY_BY_NAME = {strategy.name: strategy for strategy in STRATEGIES}


def strategy(name: str) -> EvasionStrategy:
    try:
        return STRATEGY_BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown strategy {name!r}; "
                       f"known: {sorted(STRATEGY_BY_NAME)}") from None
