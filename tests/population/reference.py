"""The per-session reference the batched engine is pinned against.

A test-only oracle: the straightforward simulation the engine
optimizes, with one Python object per session, attributes resolved
through the corpus's public methods on every visit, no memo and no
sketches.  The property test (``test_engine.py``) uses it to assert
that batching changed the *cost* of a simulated day and nothing about
its outcome: on the same seed, the engine's aggregate counts and
sketches equal this loop's, exactly.

To make that equality meaningful the reference must consume the same
random draws in the same documented order (two uniforms for the Zipf
rank; one more only when the domain is master-listed) from the same
``pop|seed|isp|cohort|hour`` streams — but it shares no batching code
with the engine.
"""

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional

from repro.isps.profiles import profile as isp_profile
from repro.population.cohorts import apportion, hourly_sessions
from repro.population.engine import (OUTCOME_NAMES, PopulationConfig,
                                     enforcement_probability, zipf_mix)
from repro.websites.synthetic import SyntheticCorpus


@dataclass(frozen=True)
class ReferenceSession:
    """One fully materialized session — the object the engine avoids."""

    cohort: str
    hour: int
    rank: int
    domain: str
    category: str
    outcome: str


def simulate_reference(isp: str,
                       corpus: Optional[SyntheticCorpus] = None,
                       config: Optional[PopulationConfig] = None
                       ) -> List[ReferenceSession]:
    """Every session of the ISP's day, one object at a time."""
    config = config or PopulationConfig()
    prof = isp_profile(isp)
    if corpus is None:
        corpus = SyntheticCorpus(seed=config.seed,
                                 size=config.corpus_size)
    enforce_p = enforcement_probability(prof)
    per_cohort = apportion(config.sessions,
                           [cohort.share for cohort in config.cohorts])
    sessions: List[ReferenceSession] = []
    for cohort, total in zip(config.cohorts, per_cohort):
        mix = zipf_mix(config.corpus_size, cohort.zipf_s)
        for hour, batch in enumerate(hourly_sessions(total,
                                                     cohort.diurnal)):
            if not batch:
                continue
            rng = Random(f"pop|{config.seed}|{prof.name}"
                         f"|{cohort.name}|{hour}")
            for _ in range(batch):
                rank = mix.rank(rng.random(), rng.random())
                if corpus.in_master_list(prof.name, rank):
                    outcome = ("blocked" if rng.random() < enforce_p
                               else "leaked")
                else:
                    outcome = "ok"
                sessions.append(ReferenceSession(
                    cohort=cohort.name, hour=hour, rank=rank,
                    domain=corpus.domain(rank),
                    category=corpus.category(rank),
                    outcome=outcome))
    return sessions


def aggregate_counts(sessions: List[ReferenceSession]
                     ) -> Dict[str, List[int]]:
    """Per-category [ok, blocked, leaked] counts, engine-shaped."""
    counts: Dict[str, List[int]] = {}
    for session in sessions:
        per_cat = counts.setdefault(session.category, [0, 0, 0])
        per_cat[OUTCOME_NAMES.index(session.outcome)] += 1
    return counts


def aggregate_hourly(sessions: List[ReferenceSession]) -> List[int]:
    hourly = [0] * 24
    for session in sessions:
        hourly[session.hour] += 1
    return hourly
