"""Coverage and consistency — the paper's two infrastructure metrics.

Section 4.1 (DNS) and 4.2.2 (HTTP) define:

* **coverage** — the fraction of units (resolvers / router-level paths)
  that censor at all;
* **consistency** — for every URL blocked by at least one censoring
  unit, the fraction of censoring units blocking it; consistency is the
  average of those fractions.

The same arithmetic serves both mechanisms, so it lives here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Set


def coverage(n_censoring: int, n_total: int) -> float:
    """Fraction of units that censor."""
    if n_total <= 0:
        return 0.0
    return n_censoring / n_total


def per_site_blocking_fractions(
    per_unit_blocked: Mapping[object, Set[str]],
) -> Dict[str, float]:
    """For every blocked site, the fraction of censoring units blocking it.

    Only units that block *something* count as censoring units (poisoned
    resolvers / poisoned paths), per the paper's definition.
    """
    censoring_units = {unit: blocked
                       for unit, blocked in per_unit_blocked.items()
                       if blocked}
    if not censoring_units:
        return {}
    union: Set[str] = set()
    for blocked in censoring_units.values():
        union |= blocked
    fractions: Dict[str, float] = {}
    total = len(censoring_units)
    for site in union:
        blocking = sum(1 for blocked in censoring_units.values()
                       if site in blocked)
        fractions[site] = blocking / total
    return fractions


def consistency(per_unit_blocked: Mapping[object, Set[str]]) -> float:
    """Average per-site blocking fraction (the Figure 2/5 averages)."""
    fractions = per_site_blocking_fractions(per_unit_blocked)
    if not fractions:
        return 0.0
    return sum(fractions.values()) / len(fractions)


@dataclass
class PrecisionRecall:
    """A (P, R) cell of Table 1."""

    true_positives: int
    detected: int
    actual: int

    @property
    def precision(self) -> float:
        if self.detected == 0:
            return 0.0
        return self.true_positives / self.detected

    @property
    def recall(self) -> float:
        if self.actual == 0:
            return 0.0
        return self.true_positives / self.actual

    def as_tuple(self) -> tuple:
        return (round(self.precision, 2), round(self.recall, 2))


def precision_recall(detected: Iterable[str],
                     actual: Iterable[str]) -> PrecisionRecall:
    """P = |D∩A|/|D|, R = |D∩A|/|A| — exactly the paper's definitions."""
    detected_set = set(detected)
    actual_set = set(actual)
    return PrecisionRecall(
        true_positives=len(detected_set & actual_set),
        detected=len(detected_set),
        actual=len(actual_set),
    )
