"""The population engine: a day of sessions in per-(cohort, hour) batches.

Instead of scripting clients one TCP handshake at a time, the engine
walks the day hour by hour and, within each hour, cohort by cohort;
each nonzero *(cohort, hour-of-day)* batch processes its whole share
of sessions over flyweight ``array`` columns — rank, category and
outcome are parallel scalar columns, never per-session objects.
Batches draw from their own seeded streams and only add into the
aggregates, so they are independent and a plain loop runs them.
The per-cohort sampling constants (Zipf CDF, per-category block
probabilities, enforcement rate) are precompiled once into a
:class:`_CohortPlan`, the population analogue of the packet layer's
precompiled delivery plans.

Determinism: every batch draws from ``random.Random`` seeded by the
string ``pop|{seed}|{isp}|{cohort}|{hour}`` — a pure function of the
campaign seed, so results are identical across processes and worker
counts.  Per session the draw order is fixed: two uniforms for the
Zipf rank, then (only if the domain is on the ISP's master list — a
hash property, not a draw) one uniform against the ISP's enforcement
probability.  ``tests/population/test_engine.py`` pins the batched
engine against the per-session reference implementation in
:mod:`repro.population.reference`, which replays the same draws one
session object at a time.
"""

from __future__ import annotations

import os
import warnings
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple

from ..isps.profiles import ISPProfile, profile as isp_profile
from ..websites.synthetic import DEFAULT_SYNTHETIC_SIZE, SyntheticCorpus
from .cohorts import CohortSpec, DEFAULT_COHORTS, apportion, hourly_sessions
from .sketches import (BottomKReservoir, CountMinSketch, DEFAULT_DEPTH,
                       DEFAULT_RESERVOIR_K, DEFAULT_WIDTH)

#: Session outcomes, by column code.  ``blocked`` = domain on the
#: master list and the ISP's infrastructure enforced it this session;
#: ``leaked`` = on the list but unenforced (partial coverage and
#: inconsistent blocklists — the paper's §5 story at population scale).
OUTCOME_NAMES: Tuple[str, ...] = ("ok", "blocked", "leaked")

#: Environment knob: multiply the configured session volume (smoke
#: jobs run the same campaign at 0.04x).  Parsed leniently — see
#: :func:`population_scale`.
POPULATION_SCALE_ENV = "REPRO_POPULATION_SCALE"

_SCALE_MIN = 0.0001
_SCALE_MAX = 100.0


def population_scale(default: float = 1.0) -> float:
    """The session-volume multiplier (env-overridable).

    Mirrors :func:`~repro.experiments.common.bench_fraction`: an
    unparsable value warns and falls back to the default instead of
    raising, so a typo in ``REPRO_POPULATION_SCALE`` cannot crash a
    campaign — but cannot silently masquerade as a full-volume run
    either.
    """
    raw = os.environ.get(POPULATION_SCALE_ENV)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid {POPULATION_SCALE_ENV}={raw!r} (not a "
            f"number); using default {default}",
            RuntimeWarning, stacklevel=2)
        return default
    return min(_SCALE_MAX, max(_SCALE_MIN, value))


def enforcement_probability(prof: ISPProfile) -> float:
    """P(a master-listed domain is actually blocked for one session).

    HTTP censors: the client's path carries a middlebox with
    probability ``inside_coverage``, and that box's blocklist sample
    retains the domain with probability ``consistency`` (Figure 5).
    DNS censors: the session resolves through a poisoned resolver with
    probability ``poisoned/total``, which answers falsely with
    probability ``dns_consistency`` (Figure 2).
    """
    if prof.censors_http:
        return prof.inside_coverage * prof.consistency
    if prof.censors_dns and prof.resolver_total:
        poisoned = prof.resolver_poisoned / prof.resolver_total
        return poisoned * prof.dns_consistency
    return 0.0


# ---------------------------------------------------------------------------
# Zipf browsing mixes
# ---------------------------------------------------------------------------

class ZipfMix:
    """Inverse-CDF sampling from Zipf(s) over ``size`` ranks.

    Exact bucket masses over power-of-two rank ranges (so the CDF has
    ~log2(size) entries, not ``size``), then a continuous power-law
    inverse within the chosen bucket.  Two uniforms per draw; the
    within-bucket step is a smooth approximation of the discrete
    conditional, which is fine for a *browsing mix* — the marginal
    popularity curve is Zipf-shaped and fully deterministic.
    """

    __slots__ = ("size", "s", "_bounds", "_cdf")

    def __init__(self, size: int, s: float) -> None:
        if size <= 0:
            raise ValueError(f"zipf support must be positive, got {size}")
        self.size = size
        self.s = s
        bounds: List[Tuple[int, int]] = []
        masses: List[float] = []
        lo = 1
        while lo <= size:
            hi = min(lo * 2, size + 1)
            # Exact partial sums in fixed order: deterministic floats.
            mass = 0.0
            for rank in range(lo, hi):
                mass += rank ** -s
            bounds.append((lo, hi))
            masses.append(mass)
            lo = hi
        total = sum(masses)
        cdf: List[float] = []
        acc = 0.0
        for mass in masses:
            acc += mass / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._bounds = bounds
        self._cdf = cdf

    def rank(self, u_bucket: float, u_within: float) -> int:
        """A 0-based rank from two independent uniforms."""
        index = bisect_right(self._cdf, u_bucket)
        if index >= len(self._bounds):
            index = len(self._bounds) - 1
        lo, hi = self._bounds[index]
        s = self.s
        if s == 1.0:
            value = lo * (hi / lo) ** u_within
        else:
            a = 1.0 - s
            value = (lo ** a + u_within * (hi ** a - lo ** a)) ** (1.0 / a)
        rank = int(value)
        if rank < lo:
            rank = lo
        elif rank >= hi:
            rank = hi - 1
        return rank - 1


#: Process-wide memo: the bucket CDF over 1M ranks costs ~0.1 s to
#: build and every cohort of the same (size, skew) shares it.
_ZIPF_CACHE: Dict[Tuple[int, float], ZipfMix] = {}


def zipf_mix(size: int, s: float) -> ZipfMix:
    key = (size, round(s, 9))
    mix = _ZIPF_CACHE.get(key)
    if mix is None:
        mix = _ZIPF_CACHE[key] = ZipfMix(size, s)
    return mix


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationConfig:
    """Knobs for one ISP's simulated day."""

    seed: int = 1808
    corpus_size: int = DEFAULT_SYNTHETIC_SIZE
    sessions: int = 1_000_000
    cohorts: Tuple[CohortSpec, ...] = DEFAULT_COHORTS
    sketch_width: int = DEFAULT_WIDTH
    sketch_depth: int = DEFAULT_DEPTH
    reservoir_k: int = DEFAULT_RESERVOIR_K


class _CohortPlan:
    """Precompiled per-cohort sampling constants (cf. delivery plans)."""

    __slots__ = ("cohort", "zipf", "hourly")

    def __init__(self, cohort: CohortSpec, zipf: ZipfMix,
                 hourly: List[int]) -> None:
        self.cohort = cohort
        self.zipf = zipf
        self.hourly = hourly


@dataclass
class PopulationOutcome:
    """One ISP-day of aggregated session outcomes (O(cohorts) memory)."""

    isp: str
    mechanism: str
    sessions: int
    #: category -> [ok, blocked, leaked] session counts.
    counts: Dict[str, List[int]]
    #: Sessions per hour-of-day (sums to ``sessions``).
    hourly: List[int]
    #: Nonzero (cohort, hour) batches executed.
    batches: int = 0
    blocked_counts: CountMinSketch = field(default_factory=CountMinSketch)
    exemplars: BottomKReservoir = field(default_factory=BottomKReservoir)

    def outcome_total(self, outcome: str) -> int:
        index = OUTCOME_NAMES.index(outcome)
        return sum(per_cat[index] for per_cat in self.counts.values())

    @property
    def blocked_total(self) -> int:
        return self.outcome_total("blocked")

    def block_rate(self, category: str) -> float:
        per_cat = self.counts[category]
        total = sum(per_cat)
        if not total:
            return 0.0
        return per_cat[OUTCOME_NAMES.index("blocked")] / total

    def top_blocked(self, corpus: SyntheticCorpus,
                    n: int = 5) -> List[Tuple[str, int]]:
        """Most-blocked sampled domains with their estimated counts."""
        estimated = [(self.blocked_counts.estimate(rank), rank)
                     for rank in self.exemplars.items()]
        estimated.sort(key=lambda pair: (-pair[0], pair[1]))
        return [(corpus.domain(rank), count)
                for count, rank in estimated[:n]]


class PopulationEngine:
    """Run one ISP's cohorts through a day of batched sessions."""

    def __init__(self, isp: str, corpus: Optional[SyntheticCorpus] = None,
                 config: Optional[PopulationConfig] = None) -> None:
        self.config = config or PopulationConfig()
        self.profile = isp_profile(isp)
        self.corpus = corpus if corpus is not None else SyntheticCorpus(
            seed=self.config.seed, size=self.config.corpus_size)
        self.enforce_p = enforcement_probability(self.profile)
        self._plans = self._compile_plans()
        cap = max((max(plan.hourly) for plan in self._plans if plan.hourly),
                  default=0)
        # Flyweight columns, allocated once and reused by every batch:
        # rank / category / outcome are parallel scalar arrays.
        self._col_rank = array("I", bytes(4 * max(cap, 1)))
        self._col_cat = array("B", bytes(max(cap, 1)))
        self._col_out = array("B", bytes(max(cap, 1)))

    def _compile_plans(self) -> List[_CohortPlan]:
        config = self.config
        shares = [cohort.share for cohort in config.cohorts]
        per_cohort = apportion(config.sessions, shares)
        plans = []
        for cohort, total in zip(config.cohorts, per_cohort):
            plans.append(_CohortPlan(
                cohort,
                zipf_mix(config.corpus_size, cohort.zipf_s),
                hourly_sessions(total, cohort.diurnal)))
        return plans

    def run(self) -> PopulationOutcome:
        config = self.config
        corpus = self.corpus
        outcome = PopulationOutcome(
            isp=self.profile.name,
            mechanism=self.profile.mechanism,
            sessions=config.sessions,
            counts={name: [0, 0, 0] for name in corpus.category_names()},
            hourly=[0] * 24,
            blocked_counts=CountMinSketch(width=config.sketch_width,
                                          depth=config.sketch_depth,
                                          seed=config.seed),
            exemplars=BottomKReservoir(k=config.reservoir_k,
                                       seed=config.seed),
        )
        for hour in range(24):
            for plan in self._plans:
                batch = plan.hourly[hour]
                if batch:
                    self._run_batch(plan, hour, batch, outcome)
                    outcome.batches += 1
        return outcome

    def _run_batch(self, plan: _CohortPlan, hour: int, batch: int,
                   outcome: PopulationOutcome) -> None:
        config = self.config
        rng = Random(f"pop|{config.seed}|{self.profile.name}"
                     f"|{plan.cohort.name}|{hour}")
        rand = rng.random
        rank_of = plan.zipf.rank
        category_of = self.corpus.category_id
        in_master = self.corpus.in_master_list
        isp = self.profile.name
        enforce_p = self.enforce_p
        col_rank = self._col_rank
        col_cat = self._col_cat
        col_out = self._col_out
        # Pass 1: generate the batch into the columns.
        for i in range(batch):
            rank = rank_of(rand(), rand())
            col_rank[i] = rank
            col_cat[i] = category_of(rank)
            if in_master(isp, rank):
                col_out[i] = 1 if rand() < enforce_p else 2
            else:
                col_out[i] = 0
        # Pass 2: columnar aggregation into counts and sketches.
        flat = [0] * (len(outcome.counts) * 3)
        for i in range(batch):
            flat[col_cat[i] * 3 + col_out[i]] += 1
        for index, name in enumerate(outcome.counts):
            per_cat = outcome.counts[name]
            base = index * 3
            per_cat[0] += flat[base]
            per_cat[1] += flat[base + 1]
            per_cat[2] += flat[base + 2]
        add = outcome.blocked_counts.add
        offer = outcome.exemplars.offer
        for i in range(batch):
            if col_out[i] == 1:
                rank = col_rank[i]
                add(rank)
                offer(rank)
        outcome.hourly[hour] += batch
