"""The population engine: a day of sessions in per-(cohort, hour) batches.

Instead of scripting clients one TCP handshake at a time, the engine
walks the day hour by hour and, within each hour, cohort by cohort;
each nonzero *(cohort, hour-of-day)* batch runs its whole share of
sessions in one pass — Zipf draw, per-rank code, outcome count — with
no per-session object.  A rank's category and master-list bit are
hashed at most once per engine, into a one-byte-per-rank memo, and
blocked ranks are counted per rank and folded into the sketches once
at the end of the day.  Batches draw from their own seeded streams and
only add into the aggregates, so they are independent and a plain loop
runs them.

Determinism: every batch draws from ``random.Random`` seeded by the
string ``pop|{seed}|{isp}|{cohort}|{hour}`` — a pure function of the
campaign seed, so results are identical across processes and worker
counts.  Per session the draw order is fixed: two uniforms for the
Zipf rank, then (only if the domain is on the ISP's master list — a
hash property, not a draw) one uniform against the ISP's enforcement
probability.  ``tests/population/test_engine.py`` pins the engine
against the test-only per-session reference in
``tests/population/reference.py``, which replays the same draws one
session object at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..isps.profiles import ISPProfile, profile as isp_profile
from ..websites.synthetic import DEFAULT_SYNTHETIC_SIZE, SyntheticCorpus
from .cohorts import CohortSpec, DEFAULT_COHORTS, apportion, hourly_sessions
from .sketches import (BottomKReservoir, CountMinSketch, DEFAULT_DEPTH,
                       DEFAULT_RESERVOIR_K, DEFAULT_WIDTH)

#: Session outcomes, in per-category count order.  ``blocked`` =
#: domain on the master list and the ISP's infrastructure enforced it
#: this session; ``leaked`` = on the list but unenforced (partial
#: coverage and inconsistent blocklists — the paper's §5 story at
#: population scale).
OUTCOME_NAMES: Tuple[str, ...] = ("ok", "blocked", "leaked")


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

    __slots__ = ("size", "s", "_cdf", "_buckets")

    def __init__(self, size: int, s: float) -> None:
        if size <= 0:
            raise ValueError(f"zipf support must be positive, got {size}")
        self.size = size
        self.s = s
        # Per bucket, the constants of the within-bucket inverse,
        # hoisted out of every draw: ``(lo, hi, base, span, inverse)``.
        # The value is ``(base + u * span) ** inverse``, or
        # ``lo * base ** u`` when s == 1.0; either way the same floats
        # as computing the operands per draw.
        buckets: List[Tuple[int, int, float, float, float]] = []
        masses: List[float] = []
        a = 1.0 - s
        lo = 1
        while lo <= size:
            hi = min(lo * 2, size + 1)
            # Exact partial sums in fixed order: deterministic floats.
            mass = 0.0
            for rank in range(lo, hi):
                mass += rank ** -s
            masses.append(mass)
            buckets.append((lo, hi, hi / lo, 0.0, 1.0) if s == 1.0 else
                           (lo, hi, lo ** a, hi ** a - lo ** a, 1.0 / a))
            lo = hi
        # A u_bucket of 1.0 bisects past the last CDF entry: repeat the
        # last bucket there instead of clamping the index per draw.
        buckets.append(buckets[-1])
        self._buckets = buckets
        total = sum(masses)
        cdf: List[float] = []
        acc = 0.0
        for mass in masses:
            acc += mass / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._cdf = cdf

    def rank(self, u_bucket: float, u_within: float) -> int:
        """A 0-based rank from two independent uniforms."""
        lo, hi, base, span, inverse = self._buckets[
            bisect_right(self._cdf, u_bucket)]
        if self.s == 1.0:
            value = lo * base ** u_within
        else:
            value = (base + u_within * span) ** inverse
        rank = int(value)
        if rank < lo:
            rank = lo
        elif rank >= hi:
            rank = hi - 1
        return rank - 1


#: Process-wide memo: the bucket CDF over 1M ranks costs ~0.1 s to
#: build and every cohort of the same (size, skew) shares it.  Keyed on
#: the exact skew: a mix built for a nearby ``s`` draws different ranks.
_ZIPF_CACHE: Dict[Tuple[int, float], ZipfMix] = {}


def zipf_mix(size: int, s: float) -> ZipfMix:
    key = (size, s)
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


class _CohortPlan(NamedTuple):
    """Precompiled per-cohort sampling constants (cf. delivery plans)."""

    cohort: CohortSpec
    zipf: ZipfMix
    hourly: List[int]


@dataclass
class PopulationOutcome:
    """One ISP-day of aggregated outcomes, fixed-size at any volume."""

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
    """Run one ISP's cohorts through a day of one-pass batches."""

    def __init__(self, isp: str, corpus: Optional[SyntheticCorpus] = None,
                 config: Optional[PopulationConfig] = None) -> None:
        self.config = config or PopulationConfig()
        self.profile = isp_profile(isp)
        self.corpus = corpus if corpus is not None else SyntheticCorpus(
            seed=self.config.seed, size=self.config.corpus_size)
        self.enforce_p = enforcement_probability(self.profile)
        self._plans = self._compile_plans()
        # Per-rank code memo: 0 = not computed yet, else
        # 1 + (category_id << 1) + listed.  One byte per rank of the
        # Zipf support (1 MB at the default corpus), filled on a rank's
        # first visit, so each rank is hashed at most once per engine.
        self._memo = bytearray(self.config.corpus_size)

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
        names = self.corpus.category_names()
        # Unblocked sessions per memo code (ok when the code is
        # unlisted, leaked when listed); blocked sessions per rank.
        unblocked = [0] * (1 + 2 * len(names))
        blocked: Dict[int, int] = {}
        hourly = [0] * 24
        batches = 0
        for hour in range(24):
            for plan in self._plans:
                batch = plan.hourly[hour]
                if batch:
                    self._run_batch(plan, hour, batch, unblocked, blocked)
                    hourly[hour] += batch
                    batches += 1
        counts = {name: [unblocked[2 * index + 1], 0,
                         unblocked[2 * index + 2]]
                  for index, name in enumerate(names)}
        sketch = CountMinSketch(width=config.sketch_width,
                                depth=config.sketch_depth, seed=config.seed)
        reservoir = BottomKReservoir(k=config.reservoir_k, seed=config.seed)
        # Count-min rows are sums and bottom-k offers are idempotent,
        # so one add and one offer per distinct rank fill both sketches
        # exactly as one per blocked session would.
        for rank, count in blocked.items():
            counts[names[(self._memo[rank] - 1) >> 1]][1] += count
            sketch.add(rank, count)
            reservoir.offer(rank)
        return PopulationOutcome(
            isp=self.profile.name, mechanism=self.profile.mechanism,
            sessions=config.sessions, counts=counts, hourly=hourly,
            batches=batches, blocked_counts=sketch, exemplars=reservoir)

    def _run_batch(self, plan: _CohortPlan, hour: int, batch: int,
                   unblocked: List[int], blocked: Dict[int, int]) -> None:
        isp = self.profile.name
        rand = Random(f"pop|{self.config.seed}|{isp}"
                      f"|{plan.cohort.name}|{hour}").random
        cdf = plan.zipf._cdf
        buckets = plan.zipf._buckets
        unit_skew = plan.zipf.s == 1.0
        memo = self._memo
        category_of = self.corpus.category_id
        listed = self.corpus.listed_in_category
        enforce_p = self.enforce_p
        blocked_get = blocked.get
        for _ in range(batch):
            # ZipfMix.rank, inlined: bucket, then within-bucket inverse.
            lo, hi, base, span, inverse = buckets[bisect_right(cdf, rand())]
            if unit_skew:
                rank = int(lo * base ** rand())
            else:
                rank = int((base + rand() * span) ** inverse)
            if rank < lo:
                rank = lo
            elif rank >= hi:
                rank = hi - 1
            rank -= 1
            code = memo[rank]
            if not code:
                category = category_of(rank)
                code = memo[rank] = (1 + (category << 1)
                                     + listed(isp, rank, category))
            # An even code is master-listed: draw against enforcement.
            if code & 1 or rand() >= enforce_p:
                unblocked[code] += 1
            else:
                blocked[rank] = blocked_get(rank, 0) + 1
