"""Table 1 — Accuracy of OONI: precision and recall per ISP.

Runs the OONI ``web_connectivity`` model over the PBW list from inside
each of the five tested ISPs, establishes ground truth behaviourally,
and reports (P, R) for Total / DNS / TCP / HTTP censorship — the cells
of the paper's Table 1.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..core.measure.metrics import precision_recall
from ..core.measure.ooni import (
    BLOCKING_DNS,
    BLOCKING_HTTP,
    BLOCKING_TCP,
    run_ooni,
)
from ..isps.profiles import OONI_TESTED_ISPS
from .common import (
    Cell,
    Check,
    Degradation,
    TableSpec,
    Unit,
    campaign_payload,
    fmt_cell,
    ground_truth_any,
    parse_pair,
    run_degradable,
)

#: Paper values: ISP -> {column: (precision, recall)}.
PAPER_TABLE1 = {
    "mtnl": {"total": (0.57, 0.42), "dns": (0.44, 0.10),
             "tcp": (0.0, 0.0), "http": (0.60, 0.64)},
    "airtel": {"total": (0.19, 0.11), "dns": (0.0, 0.0),
               "tcp": (0.0, 0.0), "http": (0.19, 0.11)},
    "idea": {"total": (0.57, 0.62), "dns": (0.0, 0.0),
             "tcp": (0.0, 0.0), "http": (0.57, 0.62)},
    "vodafone": {"total": (0.69, 0.82), "dns": (0.0, 0.0),
                 "tcp": (0.0, 0.0), "http": (0.70, 0.78)},
    "jio": {"total": (0.34, 0.15), "dns": (0.0, 0.0),
            "tcp": (0.0, 0.0), "http": (0.36, 0.14)},
}

#: Table 1's column groups, in row order: PAPER_TABLE1 key -> label.
_COLUMN_LABELS = {"total": "Total", "dns": "DNS", "tcp": "TCP",
                  "http": "HTTP"}

_NONE = ((0.0, 0.0), (0.0, 0.0))

#: Seed bands in the shape of PAPER_TABLE1: ISP -> {column:
#: ((P low, P high), (R low, R high))}.
BANDS_TABLE1 = {
    "mtnl": {"total": ((0.54, 0.60), (0.85, 0.91)),
             "dns": ((0.58, 0.67), (1.0, 1.0)), "tcp": _NONE,
             "http": ((0.24, 0.36), (0.39, 0.55))},
    "airtel": {"total": ((0.02, 0.05), (0.28, 0.58)), "dns": _NONE,
               "tcp": _NONE, "http": ((0.02, 0.11), (0.11, 0.50))},
    "idea": {"total": ((0.39, 0.46), (0.52, 0.66)), "dns": _NONE,
             "tcp": _NONE, "http": ((0.54, 0.63), (0.43, 0.56))},
    "vodafone": {"total": ((0.01, 0.03), (1.0, 1.0)), "dns": _NONE,
                 "tcp": _NONE, "http": ((0.03, 0.07), (0.67, 1.0))},
    "jio": {"total": ((0.0, 0.03), (0.0, 0.73)), "dns": _NONE,
            "tcp": _NONE, "http": ((0.0, 0.05), (0.0, 0.55))},
}

_VANTAGE = ("vantage: the client's paths cross few boxes, so CDN false "
            "positives swamp a small ground truth (EXPERIMENTS.md, "
            "Table 1)")
_OONI_DNS = ("OONI's dns verdicts are not suppressed as in 2018 "
             "(EXPERIMENTS.md, Table 1)")
_UNKNOWN = "cause unknown (EXPERIMENTS.md, Table 1)"

#: Known deviations: (ISP, cell) -> cause.
DEVIATIONS_TABLE1 = {
    ("mtnl", "Total R"): _OONI_DNS, ("mtnl", "DNS P"): _OONI_DNS,
    ("mtnl", "DNS R"): _OONI_DNS, ("mtnl", "HTTP P"): _UNKNOWN,
    ("mtnl", "HTTP R"): _UNKNOWN, ("airtel", "Total P"): _VANTAGE,
    ("airtel", "Total R"): _VANTAGE, ("airtel", "HTTP P"): _VANTAGE,
    ("idea", "Total P"): _UNKNOWN, ("idea", "HTTP R"): _UNKNOWN,
    ("vodafone", "Total P"): _VANTAGE, ("vodafone", "Total R"): _VANTAGE,
    ("vodafone", "HTTP P"): _VANTAGE, ("jio", "Total P"): _VANTAGE,
    ("jio", "HTTP P"): _VANTAGE,
}

CELLS = tuple(
    Cell(isp, name, paper[index], BANDS_TABLE1[isp][column][index],
         DEVIATIONS_TABLE1.get((isp, name), ""))
    for isp, columns in PAPER_TABLE1.items()
    for column, paper in columns.items()
    for index, name in enumerate((f"{_COLUMN_LABELS[column]} P",
                                  f"{_COLUMN_LABELS[column]} R")))

CHECKS = (
    Check("OONI is imprecise in every ISP (Total P < 0.9)",
          lambda m: all(cells["Total P"] < 0.9 for cells in m.values())),
    Check("only MTNL's DNS anomalies are real",
          lambda m: m["mtnl"]["DNS R"] > 0 and all(
              cells["DNS P"] == 0 for isp, cells in m.items()
              if isp != "mtnl")),
)


#: Campaign decomposition: one resumable unit per OONI-tested ISP.
CAMPAIGN = TableSpec(
    title="Table 1: Accuracy of OONI — precision and recall",
    headers=("ISP", "Total(P,R)", "DNS(P,R)", "TCP(P,R)",
             "HTTP(P,R)", "paper Total", "paper HTTP"),
)


def measured(rows: List[List[str]]) -> Dict[str, Optional[float]]:
    """A unit's Table 1 cells (``"HTTP P"``, ...) from its payload rows."""
    cells: Dict[str, Optional[float]] = {}
    for label, text in zip(_COLUMN_LABELS.values(), rows[0][1:5]):
        cells[f"{label} P"], cells[f"{label} R"] = parse_pair(text)
    return cells


def units():
    """One campaign unit per OONI-tested ISP."""
    for isp in OONI_TESTED_ISPS:
        yield Unit(isp, partial(_measure, isp))


def _measure(isp: str, world, domains: List[str]):
    """Table 1's row for *isp*: OONI's verdicts over *domains* scored
    against behavioural ground truth."""
    degradation = Degradation()
    ok, ooni = run_degradable(degradation, f"ooni@{isp}",
                              run_ooni, world, isp, domains)
    if not ok:
        return campaign_payload([], degradation)
    degradation.retries += ooni.degraded()["retries"]
    for domain, site in ooni.results.items():
        if site.error is not None:
            degradation.record_error(f"ooni@{isp}:{domain}", site.error)
    truth = ground_truth_any(world, isp, domains)
    actual = {None: set(truth), BLOCKING_TCP: set(),
              BLOCKING_DNS: {d for d, m in truth.items() if m == "dns"},
              BLOCKING_HTTP: {d for d, m in truth.items() if m == "http"}}
    paper = PAPER_TABLE1[isp]
    row = [isp] + [
        fmt_cell(precision_recall(ooni.flagged(blocking),
                                  actual[blocking]).as_tuple())
        for blocking in (None, BLOCKING_DNS, BLOCKING_TCP, BLOCKING_HTTP)
    ] + [fmt_cell(paper["total"]), fmt_cell(paper["http"])]
    return campaign_payload([row], degradation)
