"""Shared experiment machinery: cached worlds, ground truth, rendering.

Every experiment module exposes ``run(world=None, ...) -> Result`` where
the result carries the measured numbers plus a ``render()`` producing
the paper-style table, and module-level ``PAPER_*`` constants with the
published values for side-by-side comparison.
"""

from __future__ import annotations

import os
import warnings
from collections import OrderedDict
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

from ..core.measure.fastprobe import (
    canonical_payload,
    express_dns_probe,
    express_http_probe,
)
from ..isps.world import World, build_world
from ..netsim.addressing import is_bogon
from ..runner.errors import (
    FATAL,
    TRANSIENT,
    TRANSIENT_RETRIES,
    TimeoutDegradation,
    classify_error,
)
from ..runner.units import TableSpec, Unit, campaign_payload  # noqa: F401

#: LRU of built worlds, keyed by ``(seed, scale)``.  Bounded so long
#: campaigns sweeping many seeds/scales don't grow memory without
#: limit; evictions rebuild on the next request (~cheap, determinstic).
_WORLD_CACHE: "OrderedDict[Tuple[int, float], World]" = OrderedDict()

#: Maximum number of worlds kept alive in :data:`_WORLD_CACHE`.
WORLD_CACHE_MAX = 4

#: Environment knob: fraction of the PBW corpus experiment runs sweep.
#: 1.0 regenerates the full tables; smaller values give quick looks.
BENCH_FRACTION_ENV = "REPRO_BENCH_FRACTION"


def get_world(seed: int = 1808, scale: float = 1.0) -> World:
    """A cached full world for experiment runs (bounded LRU)."""
    key = (seed, scale)
    if key in _WORLD_CACHE:
        _WORLD_CACHE.move_to_end(key)
        return _WORLD_CACHE[key]
    world = build_world(seed=seed, scale=scale)
    _WORLD_CACHE[key] = world
    while len(_WORLD_CACHE) > WORLD_CACHE_MAX:
        _WORLD_CACHE.popitem(last=False)
    return world


def clear_world_cache() -> None:
    """Drop every cached world (tests; memory-sensitive campaigns)."""
    _WORLD_CACHE.clear()


def bench_fraction(default: float = 1.0) -> float:
    """The corpus fraction experiments should sweep (env-overridable).

    An unparsable value is *reported*, not silently swallowed: the
    warning names the bad value so a typo in ``REPRO_BENCH_FRACTION``
    can't masquerade as a full-corpus run.
    """
    raw = os.environ.get(BENCH_FRACTION_ENV)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {BENCH_FRACTION_ENV}={raw!r} (not a "
            f"number); using default {default}",
            RuntimeWarning, stacklevel=2)
        return default
    return min(1.0, max(0.01, value))


def domain_sample(world: World, fraction: Optional[float] = None
                  ) -> List[str]:
    """A deterministic, evenly-spread corpus subset."""
    domains = world.corpus.domains()
    if fraction is None:
        fraction = bench_fraction()
    if fraction >= 1.0:
        return domains
    step = max(1, round(1.0 / fraction))
    return domains[::step]


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------

@dataclass
class Degradation:
    """Per-experiment record of faults survived instead of crashed on.

    Experiments attach one of these to their result object; a clean run
    leaves it empty, so rendering and comparisons are unchanged unless
    something actually went wrong.  The campaign runner aggregates one
    per run, absorbing timeout and resume accounting as well.
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
    whole campaign unit — are re-raised.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:
            category = classify_error(exc)
            if category == FATAL:
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
                      domains: Optional[Iterable[str]] = None) -> Set[str]:
    """Sites HTTP-censored for the ISP's client on its direct paths."""
    client = world.client_of(isp_name)
    if domains is None:
        domains = world.corpus.domains()
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
                     domains: Optional[Iterable[str]] = None) -> Set[str]:
    """Sites whose resolution through the client's default resolver is
    manipulated (bogon or ISP-internal answer)."""
    deployment = world.isp(isp_name)
    client = deployment.client
    if domains is None:
        domains = world.corpus.domains()
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
                     domains: Optional[Iterable[str]] = None
                     ) -> Dict[str, str]:
    """domain -> mechanism ("dns" wins over "http", as for a browser)."""
    domains = list(domains) if domains is not None \
        else world.corpus.domains()
    truth: Dict[str, str] = {}
    for domain in ground_truth_http(world, isp_name, domains):
        truth[domain] = "http"
    for domain in ground_truth_dns(world, isp_name, domains):
        truth[domain] = "dns"
    return truth


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
