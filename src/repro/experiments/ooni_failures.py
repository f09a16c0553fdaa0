"""Section 3.1 / 6.2 — the anatomy of OONI's failures.

Breaks OONI's verdicts down by the hosting confounder responsible:

* false positives: CDN regional resolution (flagged dns), parked/dead
  domains and dynamic live-content sites (flagged http);
* false negatives: block pages whose header names match the origin's,
  and origins whose pages are as small as the notification;
* the authors'-method comparison: how many over-threshold sites manual
  verification cleared (the paper's 30–40% figure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List

from ..core.measure.detector import run_detector
from ..core.measure.ooni import BLOCKING_NONE, run_ooni
from .common import (
    Cell,
    Check,
    TableSpec,
    Unit,
    campaign_payload,
    ground_truth_any,
    parse_counts,
)

#: The ISPs the paper's failure anatomy focuses on.
OONI_FAILURE_ISPS = ("airtel", "idea")

#: Leading sites the authors' detector (and manual check) examines.
DETECTOR_SAMPLE = 60


@dataclass
class OONIFailureBreakdown:
    isp: str
    false_positives: Dict[str, int] = field(default_factory=dict)
    false_negatives: Dict[str, int] = field(default_factory=dict)
    true_positives: int = 0
    #: Authors' detector: over-threshold sites cleared by manual check.
    detector_flagged: int = 0
    detector_cleared: int = 0

    @property
    def false_flag_fraction(self) -> float:
        if self.detector_flagged == 0:
            return 0.0
        return self.detector_cleared / self.detector_flagged


#: Campaign decomposition: one resumable unit per analysed ISP.
CAMPAIGN = TableSpec(
    title="Sections 3.1/6.2: why OONI errs (and the authors' "
          "method doesn't)",
    headers=("ISP", "TP", "FP causes", "FN causes",
             "authors' method cleared"),
)

#: Paper cells (§6.2): the authors' method cleared 30-40% of the sites
#: over its threshold.
CELLS = (
    Cell("airtel", "cleared %", (30, 40), (60, 100),
         "cause unknown: Airtel's first 60 sites hold few censored ones "
         "(EXPERIMENTS.md, §3.1/§6.2)"),
    Cell("idea", "cleared %", (30, 40), (14, 50)),
)

CHECKS = (
    Check("CDN regional DNS and parked domains cause false positives in "
          "every ISP",
          lambda m: all(cells.get("FP cdn-regional-dns", 0) > 0
                        and cells.get("FP parked-domain", 0) > 0
                        for cells in m.values())),
    Check("every false positive has a documented cause",
          lambda m: all("FP other" not in cells for cells in m.values())),
    Check("Idea's false negatives include header-name mimicry, beside "
          "true positives",
          lambda m: m["idea"].get("FN header-names-match", 0) > 0
          and m["idea"]["TP"] > 0),
    Check("the authors' detector flags sites in every ISP",
          lambda m: all(cells["flagged"] > 0 for cells in m.values())),
)


def measured(rows: List[List]) -> Dict[str, object]:
    """A unit's breakdown from its payload rows: true positives, the
    count per false-positive (``FP <cause>``) and false-negative
    (``FN <cause>``) cause, and what the authors' method cleared."""
    _, true_positives, fp_text, fn_text, cleared_text = rows[0]
    cells: Dict[str, object] = {"TP": true_positives}
    for prefix, text in (("FP", fp_text), ("FN", fn_text)):
        for cause, count in parse_counts(text).items():
            cells[f"{prefix} {cause}"] = count
    ratio, _, percent = cleared_text.partition(" ")
    cells["flagged"] = int(ratio.partition("/")[2])
    cells["cleared %"] = int(percent.strip("(%)"))
    return cells


def units():
    """One campaign unit per analysed ISP."""
    for isp in OONI_FAILURE_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains: List[str]):
    """OONI's errors over *domains* from *isp*, by confounder, and what
    the authors' method cleared among the first sites."""
    b = _breakdown(world, isp, domains)
    fp_text = ", ".join(f"{k}:{v}" for k, v in
                        sorted(b.false_positives.items())) or "-"
    fn_text = ", ".join(f"{k}:{v}" for k, v in
                        sorted(b.false_negatives.items())) or "-"
    cleared = (f"{b.detector_cleared}/{b.detector_flagged} "
               f"({b.false_flag_fraction:.0%})")
    return campaign_payload([[isp, b.true_positives, fp_text, fn_text,
                              cleared]])


def _breakdown(world, isp: str, domains: List[str]) -> OONIFailureBreakdown:
    breakdown = OONIFailureBreakdown(isp=isp)
    ooni = run_ooni(world, isp, domains)
    truth = ground_truth_any(world, isp, domains)

    for domain in domains:
        verdict = ooni.results[domain]
        site = world.corpus.get(domain)
        censored = domain in truth
        flagged = verdict.blocking != BLOCKING_NONE
        if flagged and not censored:
            cause = _fp_cause(site)
            breakdown.false_positives[cause] = \
                breakdown.false_positives.get(cause, 0) + 1
        elif not flagged and censored:
            cause = _fn_cause(site, verdict)
            breakdown.false_negatives[cause] = \
                breakdown.false_negatives.get(cause, 0) + 1
        elif flagged and censored:
            breakdown.true_positives += 1

    detector = run_detector(world, isp, domains[:DETECTOR_SAMPLE])
    breakdown.detector_flagged = detector.flagged_count
    breakdown.detector_cleared = detector.cleared_after_manual
    return breakdown


def _fp_cause(site) -> str:
    if site is None:
        return "unknown"
    if site.hosting == "cdn":
        return "cdn-regional-dns"
    if site.is_dead:
        return "parked-domain"
    if site.dynamic:
        return "dynamic-content"
    return "other"


def _fn_cause(site, verdict) -> str:
    if verdict.headers_match:
        return "header-names-match"
    if verdict.body_length_match:
        return "body-length-similar"
    if verdict.title_match:
        return "title-match"
    return "race-or-other"
