"""HTTP middlebox coverage and consistency measurement (section 4.2.2).

Two campaigns:

* **inside-VP**: from the ISP's own client, establish connections to
  the Alexa top-1000 destinations and send GET requests whose Host
  field walks the whole PBW list.  Each destination selects one
  router-level path through the ISP (ECMP); a path is *poisoned* when
  even a single Host value elicits censorship.

* **outside-VPs**: from controlled hosts abroad, probe two live
  port-80 addresses per ISP prefix the same way — the view that shows
  Airtel's boxes at 54% of paths but Jio's at none.

Probing uses the express layer (millions of Host probes); per-path
blocked sets feed the coverage/consistency metrics and Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..vantage import VantagePoint
from .fastprobe import express_canonical_blocked
from .metrics import consistency, coverage


@dataclass
class PathProbe:
    """One router-level path, identified by (vantage, destination)."""

    vantage: str
    dst_ip: str
    blocked: Set[str] = field(default_factory=set)

    @property
    def poisoned(self) -> bool:
        return bool(self.blocked)

    @property
    def key(self) -> tuple:
        return (self.vantage, self.dst_ip)


@dataclass
class CoverageResult:
    """Outcome of one coverage campaign."""

    isp: str
    vantage_kind: str  # "inside" | "outside"
    paths: List[PathProbe] = field(default_factory=list)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def n_poisoned(self) -> int:
        return sum(1 for path in self.paths if path.poisoned)

    @property
    def coverage(self) -> float:
        return coverage(self.n_poisoned, self.n_paths)

    @property
    def consistency(self) -> float:
        return consistency(self.per_path_blocked())

    def per_path_blocked(self) -> Dict[tuple, Set[str]]:
        return {path.key: path.blocked for path in self.paths}

    def blocked_union(self) -> Set[str]:
        """Every site censored on at least one probed path — the
        "No. of websites blocked" column of Table 2."""
        merged: Set[str] = set()
        for path in self.paths:
            merged |= path.blocked
        return merged


def probe_path(
    world,
    vantage: VantagePoint,
    dst_ip: str,
    domains: List[str],
) -> PathProbe:
    """Send every candidate Host down one destination's path."""
    return PathProbe(vantage=vantage.label, dst_ip=dst_ip,
                     blocked=express_canonical_blocked(
                         world.network, vantage.host, dst_ip, domains))


def measure_coverage_inside(
    world,
    isp_name: str,
    *,
    destinations: Optional[List[str]] = None,
    domains: Optional[Iterable[str]] = None,
) -> CoverageResult:
    """The single-vantage-point campaign over Alexa destinations."""
    vantage = VantagePoint.inside(world, isp_name)
    if destinations is None:
        destinations = [site.ip for site in world.alexa]
    if domains is None:
        domains = world.corpus.domains()
    domains = list(domains)
    result = CoverageResult(isp=isp_name, vantage_kind="inside")
    for dst_ip in destinations:
        result.paths.append(probe_path(world, vantage, dst_ip, domains))
    return result


def measure_coverage_outside(
    world,
    isp_name: str,
    *,
    vantages: Optional[List[VantagePoint]] = None,
    domains: Optional[Iterable[str]] = None,
) -> CoverageResult:
    """The multi-VP campaign probing live hosts inside the ISP."""
    deployment = world.isp(isp_name)
    if vantages is None:
        vantages = VantagePoint.all_external(world)
    if domains is None:
        domains = world.corpus.domains()
    domains = list(domains)
    result = CoverageResult(isp=isp_name, vantage_kind="outside")
    for vantage in vantages:
        for target_ip in deployment.scan_targets:
            result.paths.append(
                probe_path(world, vantage, target_ip, domains))
    return result
