"""Shared experiment machinery: graceful degradation, ground truth,
target selection, rendering, and the fidelity cells each experiment
declares.

Every experiment module is its campaign contract: ``CAMPAIGN`` (the
table's title and headers) and ``units()``, whose :class:`Unit`
functions each measure one ISP of a fresh, built
:class:`~repro.isps.world.World` and return the payload
:func:`campaign_payload` shapes; module-level ``PAPER_*`` constants
carry the published values.  Next to those constants, a paper
experiment declares its :class:`Cell` bands and :class:`Check` facts
and parses its own payload rows back into numbers (``measured(rows)``),
which ``repro report`` judges in its Fidelity section.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.measure.classify import find_controlled_target
from ..core.measure.fastprobe import (
    canonical_payload,
    express_dns_probe,
    express_http_probe,
)
from ..isps.world import World
from ..netsim.addressing import is_bogon
from ..runner.errors import (
    FATAL,
    POISON,
    TRANSIENT,
    TRANSIENT_RETRIES,
    TimeoutDegradation,
    classify_error,
)
from ..runner.units import TableSpec, Unit, campaign_payload  # noqa: F401


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------

@dataclass
class Degradation:
    """Record of faults survived instead of crashed on.

    A unit fills one while it measures and hands it to
    :func:`campaign_payload`; a clean unit leaves it empty.  The
    campaign runner folds one per run from the unit records, absorbing
    timeout and resume accounting as well.
    """

    #: ``(unit, reason)`` for every measurement unit that errored out.
    errors: List[Tuple[str, str]] = field(default_factory=list)
    #: Total client retries spent across the experiment.
    retries: int = 0
    #: Units whose deadline budget expired (hangs converted to data).
    timeouts: List[TimeoutDegradation] = field(default_factory=list)
    #: Units restored from a campaign journal instead of re-measured.
    resumed: int = 0
    #: ``(unit, reason)`` for units quarantined after repeatedly
    #: crashing their worker (see :mod:`repro.runner.supervise`).
    quarantined: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def partial(self) -> bool:
        """Did any unit fail outright (beyond mere retries)?"""
        return bool(self.errors or self.timeouts or self.quarantined)

    def record_error(self, unit: str, reason: str) -> None:
        self.errors.append((unit, reason))

    def record_timeout(self, entry: TimeoutDegradation) -> None:
        self.timeouts.append(entry)

    def record_quarantine(self, unit: str, reason: str) -> None:
        self.quarantined.append((unit, reason))

    def describe(self) -> str:
        """One-paragraph summary for verbose rendering; "" when clean."""
        if not (self.errors or self.retries or self.timeouts
                or self.resumed or self.quarantined):
            return ""
        lines = []
        if self.resumed:
            lines.append(f"resumed: {self.resumed} units from journal")
        if self.retries:
            lines.append(f"degraded: {self.retries} client retries")
        for entry in self.timeouts:
            lines.append(entry.describe())
        for unit, reason in self.errors:
            lines.append(f"partial: {unit}: {reason}")
        for unit, reason in self.quarantined:
            lines.append(f"quarantined: {unit}: {reason}")
        return "\n".join(lines)


def run_degradable(degradation: Degradation, unit: str,
                   fn: Callable, *args, **kwargs) -> Tuple[bool, object]:
    """Run one measurement unit, degrading survivable errors to a record.

    Returns ``(ok, value)``: ``(True, result)`` on success — where
    *result* may legitimately be ``None`` — or ``(False, None)`` after
    recording the failure in *degradation*.  The distinction matters:
    a classifier returning ``None`` means "could not determine", while
    ``ok=False`` means the unit itself died, the experiment-level
    analogue of a vantage lost mid-campaign.

    Failures are routed through the structured taxonomy in
    :mod:`repro.runner.errors`: *transient* errors earn an immediate
    retry (the fault-injector streams advance between attempts),
    *degradable* ones are recorded, and *fatal* ones — programming
    errors, and a spent event budget
    (:class:`~repro.netsim.errors.EventLimitExceeded`), which ends the
    whole campaign unit — are re-raised, as are *poison* ones (a
    failed allocation), which the campaign retries in a fresh worker
    and never journals as a measurement.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:
            category = classify_error(exc)
            if category in (FATAL, POISON):
                raise
            if category == TRANSIENT and attempts <= TRANSIENT_RETRIES:
                continue
            prefix = "[transient] " if category == TRANSIENT else ""
            degradation.record_error(
                unit, f"{prefix}{type(exc).__name__}: {exc}")
            return False, None


# ---------------------------------------------------------------------------
# Ground truth (express — exact modulo wiretap races, which retrying
# measurement defeats anyway; validated against the manual oracle in
# tests/measure/test_groundtruth.py)
# ---------------------------------------------------------------------------

def ground_truth_http(world: World, isp_name: str,
                      domains: Iterable[str]) -> Set[str]:
    """Sites HTTP-censored for the ISP's client on its direct paths."""
    client = world.client_of(isp_name)
    censored: Set[str] = set()
    for domain in domains:
        dst_ip = world.hosting.ip_for(domain, region="in")
        if dst_ip is None:
            continue
        verdict = express_http_probe(world.network, client, dst_ip,
                                     canonical_payload(domain))
        if verdict.censored:
            censored.add(domain)
    return censored


def ground_truth_dns(world: World, isp_name: str,
                     domains: Iterable[str]) -> Set[str]:
    """Sites whose resolution through the client's default resolver is
    manipulated (bogon or ISP-internal answer)."""
    deployment = world.isp(isp_name)
    client = deployment.client
    censored: Set[str] = set()
    for domain in domains:
        answer = express_dns_probe(world.network, client,
                                   deployment.default_resolver_ip, domain)
        if not answer.ok:
            continue
        for ip in answer.ips:
            if is_bogon(ip) or deployment.pool.contains(ip):
                censored.add(domain)
                break
    return censored


def ground_truth_any(world: World, isp_name: str,
                     domains: Sequence[str]) -> Dict[str, str]:
    """domain -> mechanism ("dns" wins over "http", as for a browser)."""
    truth: Dict[str, str] = {}
    for domain in ground_truth_http(world, isp_name, domains):
        truth[domain] = "http"
    for domain in ground_truth_dns(world, isp_name, domains):
        truth[domain] = "dns"
    return truth


# ---------------------------------------------------------------------------
# Target selection (express probes over the ISP's master list)
# ---------------------------------------------------------------------------

def _master_list(world: World, isp_name: str) -> List[str]:
    return sorted(world.blocklists.http.get(isp_name, ()))


def censored_sites(world: World, isp_name: str,
                   limit: int) -> List[Tuple[str, str]]:
    """``(domain, address)`` of the first *limit* sites of the ISP's
    master list that an express probe from its client finds censored."""
    client = world.client_of(isp_name)
    found: List[Tuple[str, str]] = []
    for domain in _master_list(world, isp_name):
        dst_ip = world.hosting.ip_for(domain, region="in")
        if dst_ip is None:
            continue
        verdict = express_http_probe(world.network, client, dst_ip,
                                     canonical_payload(domain))
        if verdict.censored:
            found.append((domain, dst_ip))
            if len(found) >= limit:
                break
    return found


def controlled_target(world: World, isp_name: str):
    """``(server, domain)``: a controlled server whose path from the
    ISP's client crosses a box that censors *domain*, a master-list
    site; ``(None, None)`` when no server's path does."""
    return find_controlled_target(world, isp_name,
                                  _master_list(world, isp_name))


def box_target(world: World, isp_name: str):
    """``(server, domain, address)`` to probe the ISP's boxes at: a
    controlled server behind a box, else (``server`` ``None``) the
    first censored site, which TTL-limited probes never reach, so the
    box stays the only responder; all ``None`` when neither exists."""
    server, domain = controlled_target(world, isp_name)
    if server is not None:
        return server, domain, server.ip
    found = censored_sites(world, isp_name, 1)
    if not found:
        return None, None, None
    [(domain, dst_ip)] = found
    return None, domain, dst_ip


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Monospace table rendering for experiment outputs."""
    columns = [[str(header)] for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            columns[index].append(_fmt(cell))
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row_index in range(1, len(columns[0])):
        lines.append("  ".join(
            columns[col][row_index].ljust(widths[col])
            for col in range(len(columns))))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    if isinstance(cell, tuple):
        return "(" + ", ".join(_fmt(c) for c in cell) + ")"
    return str(cell)


#: Public alias: experiments pre-format campaign-unit row cells with
#: this so payloads survive the journal's JSON round trip unchanged
#: (tuples would otherwise come back as lists and render differently).
fmt_cell = _fmt


# ---------------------------------------------------------------------------
# Fidelity: paper cells and cross-unit checks
# ---------------------------------------------------------------------------

#: The settings the bands hold for: the full-size world without loss.
#: Each band is the spread of seeds 1808-1817 there (EXPERIMENTS.md
#: says how to re-derive one).
BAND_SCALE = 1.0


@dataclass(frozen=True)
class Cell:
    """One reproduced number or category, judged against the paper.

    *band* is what seeds 1808-1817 measured at :data:`BAND_SCALE`: a
    ``(low, high)`` pair for a number, the value every seed gave for a
    category, or a tuple of the values they gave.  The paper value is
    a number, a category or a ``(low, high)`` range.  A paper value
    outside the band is a known deviation, and *cause* says why; a
    cell whose paper value lies in its band has no cause.
    """

    unit: str
    column: str
    paper: object
    band: object
    cause: str = ""

    def holds(self, value) -> bool:
        """Does *value* lie in this cell's band?"""
        band = self.band
        if not isinstance(band, tuple):
            return value == band
        if isinstance(band[0], str):
            return value in band
        return (isinstance(value, (int, float))
                and not isinstance(value, bool)
                and band[0] <= value <= band[1])


@dataclass(frozen=True)
class Check:
    """A fact the paper states across units, such as an ordering or a
    dominant neighbour.

    *holds* takes ``{unit: measured(rows)}`` for the experiment's units
    and returns whether the fact holds there.
    """

    name: str
    holds: Callable[[Dict[str, Dict[str, object]]], bool]


def parse_number(text) -> Optional[float]:
    """A payload cell as a number (``None`` for ``-`` and the like)."""
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def parse_pair(text: str) -> Tuple[Optional[float], ...]:
    """A ``"(0.54, 0.85)"`` payload cell as numbers."""
    return tuple(parse_number(part)
                 for part in str(text).strip("()").split(","))


def parse_counts(text: str) -> Dict[str, int]:
    """``"a:3, b:5"`` or ``"a (3), b (5)"`` as ``{name: count}``;
    ``-`` is empty."""
    return {name: int(count) for name, count
            in re.findall(r"([\w-]+) ?[:(](\d+)", str(text))}
