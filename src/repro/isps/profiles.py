"""Per-ISP deployment profiles.

Each profile parameterizes one ISP's censorship infrastructure with the
numbers the paper reports (Table 2, Figure 2, Figure 5, Table 3).  The
profiles drive *deployment* — where middleboxes sit and what each one's
blocklist looks like; the measurement layer must then re-derive the
paper's numbers from probing alone.

Key modelling choices (see DESIGN.md §5):

* Coverage: a fraction ``inside_coverage`` of aggregation routers carry
  middleboxes; of those, a fraction see inbound (outside-sourced) flows.
  "Not seeing inbound flows" and Jio's hypothesised source-IP scoping
  are the same mechanism: the box only inspects flows whose client lies
  inside the ISP's prefixes.
* Consistency: each box's blocklist is an independent per-site sample
  of the ISP master list with keep-probability ``consistency`` — the
  Figure 5 averages.
* Collateral: as a transit provider, an ISP installs a box on each
  peering router facing a customer stub; ``peering_list_sizes`` gives
  that box's blocklist size, taken from Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

# Mechanism labels.
HTTP_WM = "http_wm"
HTTP_IM_OVERT = "http_im_overt"
HTTP_IM_COVERT = "http_im_covert"
DNS_POISON = "dns_poison"
NONE = "none"


@dataclass(frozen=True)
class ISPProfile:
    """Static description of one ISP's network and censorship posture."""

    name: str
    asn: int
    #: Address pool the ISP's routers, clients, resolvers and scan
    #: targets are drawn from.
    pool: str
    mechanism: str = NONE

    # -- topology shape ---------------------------------------------------
    n_aggregation: int = 24
    n_scan_prefixes: int = 12
    scan_prefix_len: int = 26

    # -- HTTP middlebox deployment (Table 2 / Figure 5) --------------------
    inside_coverage: float = 0.0
    outside_coverage: float = 0.0
    consistency: float = 0.0
    miss_rate: float = 0.0
    fixed_ip_id: Optional[int] = None
    #: Jio-style: even inbound-visible boxes only inspect flows whose
    #: client is inside the ISP.
    source_scoped: bool = False

    # -- DNS poisoning deployment (Figure 2) --------------------------------
    resolver_total: int = 0
    resolver_poisoned: int = 0
    dns_consistency: float = 0.0

    # -- interconnection ------------------------------------------------------
    #: (upstream_isp, weight) — weight = number of parallel equal-cost
    #: paths to that upstream, which sets the traffic split.
    upstreams: Tuple[Tuple[str, int], ...] = ()
    #: As a transit provider: stub name -> blocklist size of the box on
    #: the peering router facing that stub (Table 3).
    peering_list_sizes: Dict[str, int] = field(default_factory=dict)
    #: Direct connection to the global core (transit-free egress).
    connects_to_core: bool = True

    @property
    def censors_http(self) -> bool:
        return self.mechanism in (HTTP_WM, HTTP_IM_OVERT, HTTP_IM_COVERT)

    @property
    def censors_dns(self) -> bool:
        return self.mechanism == DNS_POISON

    @property
    def middlebox_kind(self) -> Optional[str]:
        if self.mechanism == HTTP_WM:
            return "wiretap"
        if self.mechanism in (HTTP_IM_OVERT, HTTP_IM_COVERT):
            return "interceptive"
        return None


#: The nine measured ISPs plus TATA (Table 3's transit censor).
PROFILES: Dict[str, ISPProfile] = {
    "airtel": ISPProfile(
        name="airtel", asn=9498, pool="182.64.0.0/14",
        mechanism=HTTP_WM,
        inside_coverage=0.752, outside_coverage=0.542,
        consistency=0.123, miss_rate=0.30, fixed_ip_id=242,
        peering_list_sizes={"siti": 110, "sify": 2, "mtnl": 25, "bsnl": 1},
    ),
    "idea": ISPProfile(
        name="idea", asn=55644, pool="117.96.0.0/14",
        mechanism=HTTP_IM_OVERT,
        inside_coverage=0.92, outside_coverage=0.90,
        consistency=0.768,
    ),
    "vodafone": ISPProfile(
        name="vodafone", asn=38266, pool="203.88.0.0/14",
        mechanism=HTTP_IM_COVERT,
        inside_coverage=0.11, outside_coverage=0.025,
        consistency=0.116,
        peering_list_sizes={"nkn": 69},
        # A large aggregation layer: with only 11% of paths covered,
        # measured consistency has a 1/#boxes floor, and the union of
        # per-box blocklists must still reach most of the 483-site
        # master list; ~13 boxes satisfy both Figure 5 and Table 2.
        n_aggregation=120,
    ),
    "jio": ISPProfile(
        name="jio", asn=55836, pool="49.44.0.0/14",
        mechanism=HTTP_WM,
        inside_coverage=0.064, outside_coverage=0.0,
        consistency=0.50, miss_rate=0.30,
        source_scoped=True,
    ),
    "mtnl": ISPProfile(
        name="mtnl", asn=17813, pool="59.88.0.0/14",
        mechanism=DNS_POISON,
        resolver_total=448, resolver_poisoned=383, dns_consistency=0.424,
        upstreams=(("tata", 5), ("airtel", 1)),
        connects_to_core=False,
        n_aggregation=10,
    ),
    "bsnl": ISPProfile(
        name="bsnl", asn=9829, pool="117.200.0.0/14",
        mechanism=DNS_POISON,
        resolver_total=182, resolver_poisoned=17, dns_consistency=0.075,
        upstreams=(("tata", 6), ("airtel", 1)),
        connects_to_core=False,
        n_aggregation=10,
    ),
    "nkn": ISPProfile(
        name="nkn", asn=4758, pool="14.136.0.0/14",
        mechanism=NONE,
        upstreams=(("vodafone", 8), ("tata", 1)),
        connects_to_core=False,
        n_aggregation=6, n_scan_prefixes=4,
    ),
    "sify": ISPProfile(
        name="sify", asn=9583, pool="202.144.0.0/14",
        mechanism=NONE,
        upstreams=(("tata", 6), ("airtel", 1)),
        connects_to_core=False,
        n_aggregation=6, n_scan_prefixes=4,
    ),
    "siti": ISPProfile(
        name="siti", asn=17747, pool="119.240.0.0/14",
        mechanism=NONE,
        upstreams=(("airtel", 1),),
        connects_to_core=False,
        n_aggregation=6, n_scan_prefixes=4,
    ),
    "tata": ISPProfile(
        name="tata", asn=4755, pool="115.108.0.0/14",
        mechanism=HTTP_WM,
        inside_coverage=0.30, outside_coverage=0.20,
        consistency=0.40, miss_rate=0.10,
        peering_list_sizes={"nkn": 8, "sify": 142, "mtnl": 134, "bsnl": 156},
        n_aggregation=12, n_scan_prefixes=4,
    ),
}

#: The five ISPs the paper ran OONI in (Table 1).
OONI_TESTED_ISPS: Sequence[str] = ("mtnl", "airtel", "idea", "vodafone", "jio")

#: The four ISPs with HTTP filtering (Table 2).
HTTP_FILTERING_ISPS: Sequence[str] = ("airtel", "idea", "vodafone", "jio")

#: The two ISPs with DNS poisoning (Figure 2).
DNS_FILTERING_ISPS: Sequence[str] = ("mtnl", "bsnl")

#: Table 3's stub ISPs suffering collateral damage.
COLLATERAL_ISPS: Sequence[str] = ("nkn", "sify", "siti", "mtnl", "bsnl")


def profile(name: str) -> ISPProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown ISP: {name!r}; "
                       f"known: {sorted(PROFILES)}") from None
