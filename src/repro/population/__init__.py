"""repro.population — cohort-based client populations.

Simulates *populations* of synthetic users per ISP instead of
individual scripted clients: each cohort carries a Zipf browsing mix
over the million-domain :class:`~repro.websites.synthetic
.SyntheticCorpus` and a diurnal session-arrival schedule, and a whole
day of sessions runs as per-(cohort, hour) batches, each one pass from
Zipf draw to a per-rank code memo to an outcome count — no per-packet
or per-session objects.  Outcomes accumulate in fixed-size counts and
mergeable sketches (count-min + bottom-k reservoir), so memory does
not grow with the session count; the engine's memo costs one byte per
corpus rank.  See ``docs/POPULATION.md``.
"""

from .cohorts import (
    CohortSpec,
    DEFAULT_COHORTS,
    DIURNAL_PROFILES,
    apportion,
    hourly_sessions,
)
from .engine import (
    OUTCOME_NAMES,
    POPULATION_SCALE_ENV,
    PopulationConfig,
    PopulationEngine,
    PopulationOutcome,
    population_scale,
    zipf_mix,
)
from .reference import ReferenceSession, simulate_reference
from .sketches import BottomKReservoir, CountMinSketch

__all__ = [
    "BottomKReservoir",
    "CohortSpec",
    "CountMinSketch",
    "DEFAULT_COHORTS",
    "DIURNAL_PROFILES",
    "OUTCOME_NAMES",
    "POPULATION_SCALE_ENV",
    "PopulationConfig",
    "PopulationEngine",
    "PopulationOutcome",
    "ReferenceSession",
    "apportion",
    "hourly_sessions",
    "population_scale",
    "simulate_reference",
    "zipf_mix",
]
