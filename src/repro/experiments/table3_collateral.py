"""Table 3 — collateral damage within Indian ISPs.

From a client in each non-censoring stub ISP, fetch the PBW list and
attribute every censorship event to the neighbouring transit ISP that
caused it (notification fingerprints; path heuristics for covert
resets).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from ..core.measure.collateral import measure_collateral_express
from ..isps.profiles import COLLATERAL_ISPS
from .common import (
    Cell,
    Check,
    Degradation,
    TableSpec,
    Unit,
    campaign_payload,
    parse_counts,
    run_degradable,
)

#: Paper values: stub -> {neighbour: blocked count}.
PAPER_TABLE3 = {
    "nkn": {"vodafone": 69, "tata": 8},
    "sify": {"tata": 142, "airtel": 2},
    "siti": {"airtel": 110},
    "mtnl": {"tata": 134, "airtel": 25},
    "bsnl": {"tata": 156, "airtel": 1},
}

#: Seed bands in the shape of PAPER_TABLE3.
BANDS_TABLE3 = {
    "nkn": {"vodafone": (56, 66), "tata": (0, 2)},
    "sify": {"tata": (108, 123), "airtel": (0, 2)},
    "siti": {"airtel": (110, 110)},
    "mtnl": {"tata": (100, 116), "airtel": (2, 7)},
    "bsnl": {"tata": (129, 138), "airtel": (0, 1)},
}

_UNDERCOUNT = ("cause unknown: the peering box holds the paper's count, yet "
          "some of its sites never read blocked from the stub "
          "(EXPERIMENTS.md, Table 3)")

#: Known deviations: (stub, neighbour) -> cause.
DEVIATIONS_TABLE3 = {
    ("nkn", "vodafone"): _UNDERCOUNT,
    ("nkn", "tata"): ("NKN reaches TATA on one path in nine "
                      "(EXPERIMENTS.md, Table 3)"),
    ("sify", "tata"): _UNDERCOUNT,
    ("mtnl", "tata"): _UNDERCOUNT,
    ("mtnl", "airtel"): _UNDERCOUNT,
    ("bsnl", "tata"): _UNDERCOUNT,
}

CELLS = tuple(
    Cell(stub, neighbour, count, BANDS_TABLE3[stub][neighbour],
         DEVIATIONS_TABLE3.get((stub, neighbour), ""))
    for stub, paper in PAPER_TABLE3.items()
    for neighbour, count in paper.items())


def _dominant(counts: Dict[str, int]) -> str:
    return max(counts, key=counts.get)


CHECKS = (
    Check("NKN is hurt mostly by Vodafone",
          lambda m: _dominant(m["nkn"]) == "vodafone"
          and m["nkn"]["vodafone"] > m["nkn"]["tata"]),
    Check("Sify, MTNL and BSNL are hurt mostly by TATA",
          lambda m: all(_dominant(m[stub]) == "tata"
                        and m[stub]["tata"] > m[stub]["airtel"]
                        for stub in ("sify", "mtnl", "bsnl"))),
    Check("Siti's damage comes from Airtel alone",
          lambda m: m["siti"]["airtel"] > 0 and not any(
              count for name, count in m["siti"].items()
              if name != "airtel")),
    Check("no stub censors with its own infrastructure",
          lambda m: all(stub not in counts for stub, counts in m.items())),
)


#: Campaign decomposition: one resumable unit per non-censoring stub.
CAMPAIGN = TableSpec(
    title="Table 3: Collateral damage from censorious neighbours",
    headers=("Stub ISP", "Neighbours (measured)", "paper"),
)


def measured(rows: List[List[str]]) -> Dict[str, int]:
    """A stub's blocked count per censoring neighbour (0 for a paper
    neighbour that blocked nothing) from its payload rows."""
    counts = {neighbour: 0 for paper in PAPER_TABLE3.values()
              for neighbour in paper}
    counts.update(parse_counts(rows[0][1]))
    return counts


def units():
    """One campaign unit per non-censoring stub."""
    for stub in COLLATERAL_ISPS:
        yield Unit(stub, partial(_measure, stub))


def _measure(stub: str, world, domains: List[str]):
    """Table 3's row for *stub*: its censored sites among *domains*,
    counted per censoring neighbour."""
    degradation = Degradation()
    ok, report = run_degradable(degradation, f"collateral@{stub}",
                                measure_collateral_express, world, stub,
                                domains)
    if not ok:
        return campaign_payload([], degradation)
    counts = ", ".join(
        f"{neighbour} ({count})"
        for neighbour, count in sorted(report.counts().items(),
                                       key=lambda kv: -kv[1]))
    paper = ", ".join(f"{neighbour} ({count})"
                      for neighbour, count in PAPER_TABLE3[stub].items())
    return campaign_payload([[stub, counts or "-", paper]], degradation)
