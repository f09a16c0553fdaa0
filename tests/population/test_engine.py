"""The one-pass engine against the per-session reference, plus knobs.

The central property: batching (per-rank codes, per-rank blocked
counts, sketches folded once a day) changes the cost of a simulated
day, never its outcome.  On any seed and any cohort mix, the engine's
aggregates and sketches equal a straight per-session-object replay of
the same draws.  The reference shares :class:`ZipfMix` and
:class:`SyntheticCorpus` with the engine, so a golden digest pins
those shared parts too.
"""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.population.cohorts import (DEFAULT_COHORTS, DIURNAL_PROFILES,
                                      CohortSpec)
from repro.population.engine import (POPULATION_SCALE_ENV,
                                     PopulationConfig, PopulationEngine,
                                     ZipfMix, population_scale, zipf_mix)
from repro.population.reference import (aggregate_counts,
                                        aggregate_hourly,
                                        simulate_reference)
from repro.population.sketches import BottomKReservoir, CountMinSketch
from repro.websites.synthetic import SyntheticCorpus

#: Small support sizes so the zipf CDF memo stays tiny under hypothesis.
CORPUS_SIZES = (512, 2000)

#: Cohort mixes with drawn skews; exactly 1.0 takes ZipfMix's
#: ``s == 1.0`` branch, which no default cohort reaches.
COHORT_MIXES = st.lists(
    st.tuples(st.floats(min_value=0.05, max_value=1.0),
              st.one_of(st.just(1.0),
                        st.floats(min_value=0.6, max_value=1.5)),
              st.sampled_from(sorted(DIURNAL_PROFILES))),
    min_size=1, max_size=3,
).map(lambda specs: tuple(
    CohortSpec(f"cohort{index}", share, skew, diurnal)
    for index, (share, skew, diurnal) in enumerate(specs)))


def _run_both(isp, seed, sessions, corpus_size, cohorts=DEFAULT_COHORTS):
    corpus = SyntheticCorpus(seed=seed, size=corpus_size)
    config = PopulationConfig(seed=seed, corpus_size=corpus_size,
                              sessions=sessions, cohorts=cohorts)
    outcome = PopulationEngine(isp, corpus=corpus, config=config).run()
    reference = simulate_reference(isp, corpus=corpus, config=config)
    return outcome, reference


def _reference_sketches(reference, seed):
    """Default-shaped sketches filled one blocked session at a time."""
    config = PopulationConfig(seed=seed)
    sketch = CountMinSketch(width=config.sketch_width,
                            depth=config.sketch_depth, seed=config.seed)
    reservoir = BottomKReservoir(k=config.reservoir_k, seed=config.seed)
    for session in reference:
        if session.outcome == "blocked":
            sketch.add(session.rank)
            reservoir.offer(session.rank)
    return sketch, reservoir


class TestEngineEqualsReference:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           sessions=st.integers(min_value=0, max_value=400),
           isp=st.sampled_from(("airtel", "idea", "mtnl", "jio", "nkn")),
           corpus_size=st.sampled_from(CORPUS_SIZES),
           cohorts=COHORT_MIXES)
    def test_aggregates_equal(self, seed, sessions, isp, corpus_size,
                              cohorts):
        outcome, reference = _run_both(isp, seed, sessions, corpus_size,
                                       cohorts)
        engine_counts = {category: list(counts) for category, counts
                        in outcome.counts.items() if sum(counts)}
        assert engine_counts == aggregate_counts(reference)
        assert outcome.hourly == aggregate_hourly(reference)
        assert sum(outcome.hourly) == sessions
        sketch, reservoir = _reference_sketches(reference, seed)
        assert outcome.blocked_counts.snapshot() == sketch.snapshot()
        assert outcome.exemplars.snapshot() == reservoir.snapshot()

    def test_engine_is_deterministic(self):
        first, _ = _run_both("idea", 42, 600, 2000)
        second, _ = _run_both("idea", 42, 600, 2000)
        assert first.counts == second.counts
        assert first.blocked_counts.snapshot() == \
            second.blocked_counts.snapshot()
        assert first.exemplars.snapshot() == second.exemplars.snapshot()


#: One small day per mechanism over a 100k corpus, plus a custom mix
#: with a skew of exactly 1.0.
GOLDEN_CORPUS = 100_000
GOLDEN_DAYS = (
    ("airtel", PopulationConfig(seed=1808, corpus_size=GOLDEN_CORPUS,
                                sessions=20_000)),
    ("mtnl", PopulationConfig(seed=1808, corpus_size=GOLDEN_CORPUS,
                              sessions=20_000)),
    ("nkn", PopulationConfig(seed=1808, corpus_size=GOLDEN_CORPUS,
                             sessions=20_000)),
    ("idea", PopulationConfig(
        seed=7, corpus_size=GOLDEN_CORPUS, sessions=20_000,
        cohorts=(CohortSpec("flat", 0.6, 1.0, "residential"),
                 CohortSpec("steep", 0.4, 1.3, "office")))),
)

#: sha256 of the canonical JSON of GOLDEN_DAYS' outcomes, recorded
#: with the earlier two-pass column engine.
GOLDEN_DIGEST = \
    "517dfefe20314528be53f743bbab768dd8239e9ade8df1605ec801042c2fff5f"


class TestGoldenDay:
    def test_outcomes_match_recorded_digest(self):
        days = []
        for isp, config in GOLDEN_DAYS:
            corpus = SyntheticCorpus(seed=config.seed,
                                     size=config.corpus_size)
            outcome = PopulationEngine(isp, corpus=corpus,
                                       config=config).run()
            days.append({
                "isp": isp, "counts": outcome.counts,
                "hourly": outcome.hourly, "batches": outcome.batches,
                "blocked_counts": outcome.blocked_counts.snapshot(),
                "exemplars": outcome.exemplars.snapshot()})
        canonical = json.dumps(days, sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_DIGEST


class TestEngineMechanics:
    def test_batches_count_nonzero_cohort_hours(self):
        outcome, reference = _run_both("airtel", 7, 1000, 2000)
        # The journal's population summary carries this count: one per
        # (cohort, hour) that drew at least one session.
        nonzero = {(session.cohort, session.hour) for session in reference}
        assert outcome.batches == len(nonzero) > 24

    def test_sketch_sees_every_blocked_session(self):
        outcome, reference = _run_both("idea", 3, 800, 512)
        blocked = [session for session in reference
                   if session.outcome == "blocked"]
        assert outcome.blocked_counts.total == len(blocked)
        for session in blocked[:20]:
            # Count-min never undercounts.
            true_count = sum(other.rank == session.rank
                             for other in blocked)
            assert outcome.blocked_counts.estimate(session.rank) >= \
                true_count

    def test_top_blocked_returns_real_domains(self):
        corpus = SyntheticCorpus(seed=3, size=512)
        config = PopulationConfig(seed=3, corpus_size=512, sessions=800)
        outcome = PopulationEngine("idea", corpus=corpus,
                                   config=config).run()
        top = outcome.top_blocked(corpus, n=3)
        assert top
        for domain, count in top:
            assert count > 0
            assert "-" in domain


class TestZipfMix:
    def test_popular_ranks_dominate(self):
        mix = zipf_mix(2000, 1.1)
        rng = random.Random(1)
        draws = [mix.rank(rng.random(), rng.random())
                 for _ in range(4000)]
        head = sum(rank < 20 for rank in draws)
        tail = sum(rank >= 1000 for rank in draws)
        assert head > tail
        assert all(0 <= rank < 2000 for rank in draws)

    def test_edges_stay_in_support(self):
        mix = ZipfMix(100, 1.0)
        assert mix.rank(0.0, 0.0) == 0
        assert 0 <= mix.rank(1.0, 1.0) < 100
        with pytest.raises(ValueError, match="positive"):
            ZipfMix(0, 1.0)

    def test_memoized_per_shape(self):
        assert zipf_mix(512, 1.02) is zipf_mix(512, 1.02)
        assert zipf_mix(512, 1.02) is not zipf_mix(512, 1.15)

    def test_memo_keys_on_the_exact_skew(self):
        # A skew within rounding of 1.0, asked for first, must not
        # stand in for 1.0 itself: the two take different branches.
        near = zipf_mix(1000, 1.0 + 1e-10)
        exact = zipf_mix(1000, 1.0)
        assert near is not exact
        assert exact.s == 1.0
        fresh = ZipfMix(1000, 1.0)
        rng = random.Random(14)
        for _ in range(100_000):
            u_bucket, u_within = rng.random(), rng.random()
            assert exact.rank(u_bucket, u_within) == \
                fresh.rank(u_bucket, u_within)


class TestPopulationScaleKnob:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(POPULATION_SCALE_ENV, raising=False)
        assert population_scale() == 1.0
        assert population_scale(default=0.5) == 0.5

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv(POPULATION_SCALE_ENV, "0.04")
        assert population_scale() == 0.04

    def test_invalid_value_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(POPULATION_SCALE_ENV, "huge")
        with pytest.warns(RuntimeWarning, match="'huge'"):
            assert population_scale() == 1.0
        with pytest.warns(RuntimeWarning, match=POPULATION_SCALE_ENV):
            assert population_scale(default=2.0) == 2.0

    def test_clamped(self, monkeypatch):
        monkeypatch.setenv(POPULATION_SCALE_ENV, "1e9")
        assert population_scale() == 100.0
        monkeypatch.setenv(POPULATION_SCALE_ENV, "0")
        assert population_scale() == pytest.approx(0.0001)
