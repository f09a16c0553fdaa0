"""repro.dnssim — DNS substrate: zones, recursive resolvers, lookups.

Implements honest and poisoned recursive resolution (the MTNL/BSNL
censorship mechanism) plus CDN-style region-dependent authoritative
data (the confounder behind OONI's DNS false positives).
"""

from .client import (
    DEFAULT_DNS_TIMEOUT,
    dns_lookup,
    resolve_all,
)
from .message import (
    DNS_PORT,
    DNSLookupResult,
    DNSQuery,
    DNSResponse,
)
from .resolver import (
    PoisonStrategy,
    ResolverConfig,
    ResolverService,
    bogon_poison,
    mixed_poison,
    static_ip_poison,
)
from .zones import DEFAULT_REGION, GlobalDNS, REGIONS, ZoneRecord

__all__ = [
    "DEFAULT_DNS_TIMEOUT",
    "DEFAULT_REGION",
    "DNSLookupResult",
    "DNSQuery",
    "DNSResponse",
    "DNS_PORT",
    "GlobalDNS",
    "PoisonStrategy",
    "REGIONS",
    "ResolverConfig",
    "ResolverService",
    "ZoneRecord",
    "bogon_poison",
    "dns_lookup",
    "mixed_poison",
    "resolve_all",
    "static_ip_poison",
]
