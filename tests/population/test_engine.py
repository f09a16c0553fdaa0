"""The batched engine against the per-session reference, plus knobs.

The central property: cohort vectorization (columns, batch events,
sketches) changes the cost of a simulated day, never its outcome.  On
any seed, the engine's aggregates equal a straight per-session-object
replay of the same draws.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.population.engine import (POPULATION_SCALE_ENV,
                                     PopulationConfig, PopulationEngine,
                                     ZipfMix, population_scale, zipf_mix)
from repro.population.reference import (aggregate_counts,
                                        aggregate_hourly,
                                        simulate_reference)
from repro.websites.synthetic import SyntheticCorpus

#: Small support sizes so the zipf CDF memo stays tiny under hypothesis.
CORPUS_SIZES = (512, 2000)


def _run_both(isp, seed, sessions, corpus_size):
    corpus = SyntheticCorpus(seed=seed, size=corpus_size)
    config = PopulationConfig(seed=seed, corpus_size=corpus_size,
                              sessions=sessions)
    outcome = PopulationEngine(isp, corpus=corpus, config=config).run()
    reference = simulate_reference(isp, corpus=corpus, config=config)
    return outcome, reference


class TestEngineEqualsReference:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           sessions=st.integers(min_value=0, max_value=400),
           isp=st.sampled_from(("airtel", "idea", "mtnl", "jio", "nkn")),
           corpus_size=st.sampled_from(CORPUS_SIZES))
    def test_aggregates_equal(self, seed, sessions, isp, corpus_size):
        outcome, reference = _run_both(isp, seed, sessions, corpus_size)
        engine_counts = {category: list(counts) for category, counts
                        in outcome.counts.items() if sum(counts)}
        assert engine_counts == aggregate_counts(reference)
        assert outcome.hourly == aggregate_hourly(reference)
        assert sum(outcome.hourly) == sessions

    def test_engine_is_deterministic(self):
        first, _ = _run_both("idea", 42, 600, 2000)
        second, _ = _run_both("idea", 42, 600, 2000)
        assert first.counts == second.counts
        assert first.blocked_counts.snapshot() == \
            second.blocked_counts.snapshot()
        assert first.exemplars.snapshot() == second.exemplars.snapshot()


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
        import random
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
