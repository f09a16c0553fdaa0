"""Campaign run reports: journal + timings + metrics, rendered.

``repro report <run-dir>`` turns a campaign run directory into a
Markdown report (``report.md``) plus a machine-readable twin
(``report.json``).  Both are split the same way the metrics sidecar
is:

* a **deterministic** half — unit outcomes, the Fidelity section
  (every paper cell the experiments declare, judged against its seed
  band), session-table counters, drops by reason, the fault-injection
  summary, trace-event counts — identical between a serial and a
  ``--workers N`` run of the same campaign;
* a **wall** half — slowest units, total wall time, simulated events
  per second, the workers' peak RSS — which varies run to run and
  machine to machine.

Tests compare two runs' reports with the wall half stripped.

Only ``journal.jsonl`` is required.  Every sidecar — ``metrics.json``,
``timings.jsonl``, ``supervision.jsonl``, ``trace.jsonl`` — may be
missing or torn (a crash can land between the journal fsync and the
sidecar write) and the report still renders, flagging the gap with a
"(sidecar unavailable)" note instead of raising.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

#: Units shown in the slowest-units table.
SLOWEST_SHOWN = 5


class ReportError(RuntimeError):
    """The run directory is missing or unreadable."""


def load_run(run_dir: str) -> Dict:
    """Parse everything a run directory holds into plain dicts."""
    journal_path = os.path.join(run_dir, "journal.jsonl")
    if not os.path.exists(journal_path):
        raise ReportError(
            f"{run_dir!r} is not a campaign run directory "
            f"(no journal.jsonl)")
    from ..runner.journal import Journal

    records, discarded = Journal.load(journal_path)
    meta: Dict = {}
    end: Dict = {}
    latest: Dict[Tuple[str, str], Dict] = {}
    for rec in records:
        kind = rec.get("type")
        if kind == "meta":
            meta = rec
        elif kind == "unit":
            latest[(rec["experiment"], rec["unit"])] = rec
        elif kind == "end":
            end = rec
    sidecars: Dict[str, str] = {}
    timings = _read_jsonl(
        os.path.join(run_dir, "timings.jsonl"), sidecars, "timings")
    metrics = _read_json(
        os.path.join(run_dir, "metrics.json"), sidecars, "metrics")
    supervision = _read_jsonl(
        os.path.join(run_dir, "supervision.jsonl"), sidecars,
        "supervision")
    return {
        "run_dir": run_dir,
        "meta": meta,
        "end": end,
        "units": latest,
        "discarded": discarded,
        "timings": timings,
        "metrics": metrics,
        "trace_lines": _read_lines(os.path.join(run_dir, "trace.jsonl")),
        "supervision": supervision,
        "sidecars": sidecars,
    }


def _read_jsonl(path: str, sidecars: Optional[Dict[str, str]] = None,
                name: str = "") -> List[Dict]:
    if not os.path.exists(path):
        if sidecars is not None:
            sidecars[name] = "missing"
        return []
    entries = []
    status = "ok"
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    try:
                        entries.append(json.loads(line))
                    except ValueError:
                        status = "torn"
    except OSError:
        status = "torn"
    if sidecars is not None:
        sidecars[name] = status
    return entries


def _read_json(path: str, sidecars: Optional[Dict[str, str]] = None,
               name: str = "") -> Optional[Dict]:
    if not os.path.exists(path):
        if sidecars is not None:
            sidecars[name] = "missing"
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        # A torn sidecar (crash mid-write, disk hiccup) degrades the
        # report, it doesn't kill it: the journal is the truth.
        if sidecars is not None:
            sidecars[name] = "torn"
        return None
    if sidecars is not None:
        sidecars[name] = "ok"
    return payload if isinstance(payload, dict) else None


def _read_lines(path: str) -> List[str]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Report data (the JSON twin)
# ---------------------------------------------------------------------------

def generate_report(run_dir: str) -> Dict:
    """The full report as a JSON-able dict: deterministic + wall."""
    run = load_run(run_dir)
    return {
        "deterministic": _deterministic_half(run),
        "wall": _wall_half(run),
    }


def _deterministic_half(run: Dict) -> Dict:
    meta = run["meta"]
    counts: Dict[str, int] = {}
    by_experiment: Dict[str, Dict[str, str]] = {}
    quarantined: List[Dict] = []
    for (experiment, unit), rec in sorted(run["units"].items()):
        status = rec.get("status", "unknown")
        counts[status] = counts.get(status, 0) + 1
        by_experiment.setdefault(experiment, {})[unit] = status
        if status == "quarantined":
            quarantined.append({
                "unit": f"{experiment}:{unit}",
                "reason": (rec.get("error") or {}).get("reason"),
            })
    metrics = run["metrics"] or {}
    deterministic_metrics = metrics.get("deterministic") or {}
    return {
        "meta": {key: meta.get(key) for key in
                 ("seed", "scale", "experiments", "loss", "fault_seed",
                  "retries", "unit_steps", "version")},
        "end_status": run["end"].get("status"),
        "unit_counts": counts,
        "units": by_experiment,
        "quarantined": quarantined,
        "fidelity": _fidelity(run),
        "session": _session_table(run),
        "session_counters": _session_counter_totals(run),
        "population": _population_table(run),
        "drops": fold_drops(deterministic_metrics),
        "faults": _fault_summary(meta, deterministic_metrics),
        "trace": _trace_summary(run["trace_lines"]),
        "metrics": deterministic_metrics,
        "discarded_journal_lines": run["discarded"],
        "sidecar_notes": _sidecar_notes(run, ("metrics",)),
    }


def _sidecar_notes(run: Dict, names: Tuple[str, ...]) -> List[str]:
    """Human-readable gaps for the sidecars that feed a report half.

    ``metrics`` feeds the deterministic half; ``timings`` and
    ``supervision`` only feed the wall half — keeping their notes out
    of the deterministic half preserves serial-vs-parallel report
    identity (supervision sidecars legitimately differ across modes).

    ``supervision.jsonl`` is written lazily, only when supervision
    events actually occur, so *missing* is a clean run, not damage;
    only a torn supervision sidecar gets a note.
    """
    files = {"metrics": "metrics.json", "timings": "timings.jsonl",
             "supervision": "supervision.jsonl"}
    notes = []
    for name in names:
        status = run.get("sidecars", {}).get(name, "ok")
        if name == "supervision" and status == "missing":
            continue
        if status != "ok":
            notes.append(
                f"(sidecar unavailable: {files[name]} {status} — "
                f"derived numbers omitted)")
    return notes


def _wall_half(run: Dict) -> Dict:
    timings = run["timings"]
    slowest = sorted(timings, key=lambda t: t.get("wall", 0.0),
                     reverse=True)[:SLOWEST_SHOWN]
    total_wall = round(sum(t.get("wall", 0.0) for t in timings), 3)
    metrics = run["metrics"] or {}
    supervision: Dict[str, int] = {}
    for event in run["supervision"]:
        kind = event.get("kind", "unknown")
        supervision[kind] = supervision.get(kind, 0) + 1
    return {
        "total_wall_seconds": total_wall,
        "peak_rss": _peak_rss(timings),
        "slowest_units": slowest,
        "metrics": metrics.get("wall") or {},
        "supervision": dict(sorted(supervision.items())),
        "sidecar_notes": _sidecar_notes(
            run, ("timings", "supervision")),
    }


def _peak_rss(timings: List[Dict]) -> Optional[Dict]:
    """The largest worker peak RSS a unit ended at, and the unit that
    first reached it; ``None`` when no timings line carries one (runs
    from before the field)."""
    peak: Optional[Dict] = None
    for timing in timings:
        mb = timing.get("peak_rss_mb")
        if mb is not None and (peak is None or mb > peak["mb"]):
            peak = {"mb": mb, "unit": f"{timing.get('experiment')}:"
                                      f"{timing.get('unit')}"}
    return peak


def _fidelity(run: Dict) -> Dict:
    """Every paper cell and check the run's experiments declare,
    judged from their journaled payload rows.

    A paper experiment declares ``CELLS`` (a seed band per reproduced
    number), optionally ``CHECKS`` (facts across its units), and parses
    its own rows with ``measured(rows)``.  The bands hold at
    :data:`~repro.experiments.common.BAND_SCALE` without loss; any
    other run shows each measured value beside the paper's and judges
    nothing.  A unit with a result but no rows reads as empty.
    """
    from ..experiments import EXPERIMENT_MODULES
    from ..experiments.common import BAND_SCALE

    meta = run["meta"]
    unjudged = ""
    if meta.get("scale") != BAND_SCALE:
        unjudged = (f"bands hold at scale {BAND_SCALE}; this run has "
                    f"scale {meta.get('scale')}")
    elif meta.get("loss"):
        unjudged = (f"bands hold without loss; this run has loss "
                    f"{meta.get('loss')}")
    cells: List[Dict] = []
    checks: List[Dict] = []
    for experiment in meta.get("experiments") or ():
        module = EXPERIMENT_MODULES.get(experiment)
        if not hasattr(module, "CELLS"):
            continue
        measured: Dict[str, Dict] = {}
        for unit in module.units():
            rec = run["units"].get((experiment, unit.name)) or {}
            if rec.get("status") in ("ok", "degraded"):
                rows = rec["payload"]["rows"]
                measured[unit.name] = module.measured(rows) if rows else {}
        missing = [unit.name for unit in module.units()
                   if unit.name not in measured]
        for cell in module.CELLS:
            value = measured.get(cell.unit, {}).get(cell.column)
            note = unjudged or (
                "" if cell.unit in measured else "unit has no result")
            cells.append({
                "experiment": experiment, "unit": cell.unit,
                "column": cell.column, "measured": value,
                "paper": cell.paper, "band": cell.band, "cause": cell.cause,
                "note": note,
                "status": _judge(note, cell.holds(value), cell.cause)})
        for check in getattr(module, "CHECKS", ()):
            note = unjudged or (
                f"no result for {', '.join(missing)}" if missing else "")
            holds = None if note else _check_holds(check, measured)
            checks.append({"experiment": experiment, "check": check.name,
                           "holds": holds, "note": note,
                           "status": _judge(note, holds, "")})
    counts = {status: sum(entry["status"] == status
                          for entry in cells + checks)
              for status in ("in-tolerance", "known-deviation",
                             "regression", "not-judged")}
    return {"judged": not unjudged, "reason": unjudged, "counts": counts,
            "cells": cells, "checks": checks}


def _check_holds(check, measured: Dict[str, Dict]) -> bool:
    """A check over rows that lack a value it reads does not hold."""
    try:
        return bool(check.holds(measured))
    except (KeyError, TypeError, ValueError):
        return False


def _judge(note: str, holds: bool, cause: str) -> str:
    if note:
        return "not-judged"
    if not holds:
        return "regression"
    return "known-deviation" if cause else "in-tolerance"


def _session_table(run: Dict) -> List[Dict]:
    """Per-ISP session-table parameters the probers recovered.

    Session-dynamics unit payload rows are ``[isp, mechanism,
    idle timeout, capacity, overload, residual]`` with ``-`` for
    anything a prober could not observe.  Pre-session run directories
    simply have no such units, so this renders empty for them.
    """
    table = []
    for (experiment, unit), rec in sorted(run["units"].items()):
        if experiment != "session-dynamics" or rec.get("status") not in (
                "ok", "degraded"):
            continue
        payload = rec.get("payload") or {}
        for row in payload.get("rows", ()):
            if len(row) < 6:
                continue
            table.append({
                "isp": row[0],
                "mechanism": row[1],
                "recovered_timeout": _as_float(row[2]),
                "capacity": _as_float(row[3]),
                "overload": row[4] if row[4] != "-" else None,
                "residual_window": _as_float(row[5]),
            })
    return table


def _population_table(run: Dict) -> List[Dict]:
    """Per-ISP population-scale summaries (Table 2-style block rates).

    Population-scale units carry a ``population`` payload key with the
    aggregated day: sessions, blocked/leaked totals, per-category
    counts and the sketch-sampled top blocked domains.  Entirely
    deterministic (the engine is seeded and sketch merges are
    canonical), so it lives in the deterministic half.  Pre-population
    run directories simply have no such units.
    """
    table = []
    for (experiment, unit), rec in sorted(run["units"].items()):
        if experiment != "population-scale" or rec.get("status") not in (
                "ok", "degraded"):
            continue
        payload = rec.get("payload") or {}
        summary = payload.get("population")
        if isinstance(summary, dict):
            table.append(summary)
    return table


def _session_counter_totals(run: Dict) -> Dict[str, int]:
    """Session-table activity: unit payload counters + world metrics.

    Scenario-box activity travels in the session-dynamics units'
    ``session_counters`` payload key; a deployed box's reassembly
    buffer overflows land in the deterministic metrics'
    ``middlebox_truncated_flows_total`` counters.  Empty for
    pre-session run directories — the key renders only when something
    actually happened.
    """
    totals: Dict[str, int] = {}
    for (experiment, _unit), rec in sorted(run["units"].items()):
        if experiment != "session-dynamics" or rec.get("status") not in (
                "ok", "degraded"):
            continue
        payload = rec.get("payload") or {}
        for name, value in (payload.get("session_counters") or {}).items():
            totals[name] = totals.get(name, 0) + int(value)
    metrics = (run["metrics"] or {}).get("deterministic") or {}
    for key, value in (metrics.get("counters") or {}).items():
        if key.startswith("middlebox_truncated_flows_total{"):
            totals["truncated_flows"] = (
                totals.get("truncated_flows", 0) + value)
    return dict(sorted(totals.items()))


def _as_float(cell) -> Optional[float]:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def fold_drops(metrics: Optional[Dict]) -> Dict[str, int]:
    """``reason -> count`` folded from a metrics snapshot's
    ``netsim_drops_total`` counters (empty for ``None``)."""
    drops: Dict[str, int] = {}
    for key, value in ((metrics or {}).get("counters") or {}).items():
        if key.startswith("netsim_drops_total{"):
            labels = _labels(key)
            reason = labels.get("reason", "unknown")
            drops[reason] = drops.get(reason, 0) + value
    return dict(sorted(drops.items()))


def _fault_summary(meta: Dict, metrics: Dict) -> Dict:
    counters = metrics.get("counters") or {}
    retries = sum(value for key, value in counters.items()
                  if key.startswith("client_retries_total{"))
    return {
        "loss": meta.get("loss"),
        "fault_seed": meta.get("fault_seed"),
        "retries_configured": meta.get("retries"),
        "client_retries": retries,
    }


def _trace_summary(lines: List[str]) -> Optional[Dict]:
    if not lines:
        return None
    by_kind: Dict[str, int] = {}
    for line in lines:
        try:
            kind = json.loads(line).get("kind", "unknown")
        except ValueError:
            kind = "unparseable"
        by_kind[kind] = by_kind.get(kind, 0) + 1
    return {"events": len(lines), "by_kind": dict(sorted(by_kind.items()))}


def _labels(key: str) -> Dict[str, str]:
    """Parse a ``name{k=v,...}`` metric key's labels."""
    if "{" not in key:
        return {}
    inner = key[key.index("{") + 1:key.rindex("}")]
    labels = {}
    for pair in inner.split(","):
        if "=" in pair:
            name, value = pair.split("=", 1)
            labels[name] = value
    return labels


# ---------------------------------------------------------------------------
# Markdown rendering
# ---------------------------------------------------------------------------

def render_markdown(data: Dict, run_dir: str = "") -> str:
    det = data["deterministic"]
    wall = data["wall"]
    lines: List[str] = [f"# Campaign report: {run_dir or 'run'}", ""]

    meta = det["meta"]
    lines += [
        "## Run",
        "",
        f"- seed: {meta.get('seed')}  ·  scale: {meta.get('scale')}",
        f"- experiments: {', '.join(meta.get('experiments') or [])}",
        f"- end status: {det.get('end_status') or '(no end record)'}",
        "",
    ]

    for note in det.get("sidecar_notes") or ():
        lines += [f"- {note}"]
    if det.get("sidecar_notes"):
        lines.append("")

    counts = det["unit_counts"]
    lines += ["## Units", ""]
    lines += [f"- {status}: {count}"
              for status, count in sorted(counts.items())]
    if det.get("discarded_journal_lines"):
        lines.append(f"- journal lines discarded on resume: "
                     f"{det['discarded_journal_lines']}")
    for entry in det.get("quarantined") or ():
        lines.append(f"- quarantined: {entry['unit']} — "
                     f"{entry['reason']}")
    lines.append("")

    fidelity = det.get("fidelity") or {}
    if fidelity.get("cells") or fidelity.get("checks"):
        lines += _render_fidelity(fidelity)

    session = det.get("session") or ()
    if session:
        lines += [
            "## Session dynamics (recovered, not read from config)",
            "",
            "| ISP | mechanism | idle timeout (s) | capacity | overload "
            "| residual (s) |",
            "|---|---|---|---|---|---|",
        ]
        for row in session:
            lines.append(
                f"| {row['isp']} | {row['mechanism']} | "
                f"{_fmt_opt(row['recovered_timeout'])} | "
                f"{_fmt_opt(row['capacity'])} | "
                f"{row['overload'] or '-'} | "
                f"{_fmt_opt(row['residual_window'])} |")
        lines.append("")

    population = det.get("population") or ()
    if population:
        lines += [
            "## Population scale (per-category block rates)",
            "",
            "| ISP | mechanism | sessions | blocked | leaked | "
            "block % | peak hour |",
            "|---|---|---|---|---|---|---|",
        ]
        for row in population:
            sessions = row.get("sessions") or 0
            blocked = row.get("blocked") or 0
            rate = round(100.0 * blocked / sessions, 2) if sessions else 0.0
            lines.append(
                f"| {row.get('isp')} | {row.get('mechanism')} | "
                f"{sessions} | {blocked} | {row.get('leaked')} | "
                f"{rate} | {row.get('peak_hour')}:00 |")
        lines.append("")
        by_category: Dict[str, List[int]] = {}
        for row in population:
            for entry in row.get("per_category") or ():
                slot = by_category.setdefault(
                    entry["category"], [0, 0])
                slot[0] += entry.get("sessions", 0)
                slot[1] += entry.get("blocked", 0)
        if by_category:
            lines += [
                "### By category (all ISPs)",
                "",
                "| category | sessions | blocked | block % |",
                "|---|---|---|---|",
            ]
            for category in sorted(by_category):
                sessions, blocked = by_category[category]
                rate = round(100.0 * blocked / sessions, 2) \
                    if sessions else 0.0
                lines.append(f"| {category} | {sessions} | {blocked} | "
                             f"{rate} |")
            lines.append("")
        top: List[Tuple[str, int, str]] = []
        for row in population:
            for domain, count in row.get("top_blocked") or ():
                top.append((domain, count, row.get("isp") or "?"))
        top.sort(key=lambda item: (-item[1], item[0]))
        if top:
            lines += ["### Most-blocked sampled domains", ""]
            lines += [f"- {domain} ({isp}): ~{count} sessions"
                      for domain, count, isp in top[:5]]
            lines.append("")

    session_counters = det.get("session_counters") or {}
    if session_counters:
        lines += ["## Session-table events", ""]
        lines += [f"- {name}: {count}"
                  for name, count in session_counters.items()]
        lines.append("")

    drops = det["drops"]
    if drops:
        lines += ["## Drops by reason", ""]
        lines += [f"- {reason}: {count}"
                  for reason, count in drops.items()]
        lines.append("")

    faults = det["faults"]
    lines += [
        "## Fault injection",
        "",
        f"- loss: {faults['loss']}  ·  fault seed: "
        f"{faults['fault_seed']}  ·  retries: "
        f"{faults['retries_configured']}",
        f"- client retries: {faults['client_retries']}",
        "",
    ]

    trace = det["trace"]
    if trace:
        lines += ["## Trace", "",
                  f"- events recorded: {trace['events']}"]
        lines += [f"- {kind}: {count}"
                  for kind, count in trace["by_kind"].items()]
        lines.append("")

    lines += ["## Wall (nondeterministic)", ""]
    lines += [f"- {note}" for note in wall.get("sidecar_notes") or ()]
    lines.append(f"- total unit wall: {wall['total_wall_seconds']} s")
    peak = wall.get("peak_rss")
    if peak:
        lines.append(f"- worker peak RSS: {peak['mb']} MB, first "
                     f"reached by {peak['unit']}")
    gauges = (wall.get("metrics") or {}).get("gauges") or {}
    eps = gauges.get("campaign_events_per_second")
    if eps is not None:
        lines.append(f"- simulated events/second: {eps}")
    supervision = wall.get("supervision") or {}
    if supervision:
        lines.append("- supervision events: " + ", ".join(
            f"{kind}: {count}"
            for kind, count in supervision.items()))
    if wall["slowest_units"]:
        lines += ["", "| unit | status | wall (s) |", "|---|---|---|"]
        lines += [
            f"| {t.get('experiment')}:{t.get('unit')} | "
            f"{t.get('status')} | {t.get('wall')} |"
            for t in wall["slowest_units"]
        ]
    lines.append("")
    return "\n".join(lines)


def _render_fidelity(fidelity: Dict) -> List[str]:
    """The Fidelity section: one table row per cell, the causes of
    known deviations as numbered notes, then the checks."""
    judged = fidelity["judged"]
    summary = (", ".join(f"{count} {status.replace('-', ' ')}"
                         for status, count in fidelity["counts"].items())
               if judged else f"not judged: {fidelity['reason']}")
    lines = ["## Fidelity (measured vs paper)", "", f"- {summary}", "",
             "| cell | measured | paper | band | status |",
             "|---|---|---|---|---|"]
    causes: List[str] = []
    for cell in fidelity["cells"]:
        status = _fidelity_status(cell, judged)
        if cell["status"] == "known-deviation":
            if cell["cause"] not in causes:
                causes.append(cell["cause"])
            status += f" [{causes.index(cell['cause']) + 1}]"
        lines.append(
            f"| {cell['experiment']} {cell['unit']} {cell['column']} | "
            f"{_fmt_value(cell['measured'])} | "
            f"{_fmt_value(cell['paper'])} | {_fmt_value(cell['band'])} | "
            f"{status} |")
    lines.append("")
    if causes:
        lines += [f"{index}. {cause}"
                  for index, cause in enumerate(causes, start=1)] + [""]
    lines += ["| check | holds | status |", "|---|---|---|"]
    lines += [f"| {check['experiment']}: {check['check']} | "
              f"{_fmt_value(check['holds'])} | "
              f"{_fidelity_status(check, judged)} |"
              for check in fidelity["checks"]]
    return lines + [""]


def _fidelity_status(entry: Dict, judged: bool) -> str:
    status = entry["status"].replace("-", " ")
    return f"{status} ({entry['note']})" if judged and entry["note"] \
        else status


def _fmt_value(value) -> str:
    """A cell value, paper value or band as the report shows it."""
    if value is None:
        return "-"
    if isinstance(value, (tuple, list)):
        joiner = " or " if isinstance(value[0], str) else "–"
        return joiner.join(_fmt_value(part) for part in value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _fmt_opt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return str(int(value)) if value == int(value) else str(value)


def write_report(run_dir: str) -> Tuple[str, str]:
    """Render and write ``report.md`` + ``report.json``; return paths.

    Both files land atomically (tmp + fsync + rename) so a reader —
    the service's status endpoint, a crash-recovery scan — never sees
    a torn report.
    """
    from ..runner.atomicio import replace_text

    data = generate_report(run_dir)
    md_path = os.path.join(run_dir, "report.md")
    json_path = os.path.join(run_dir, "report.json")
    replace_text(md_path, render_markdown(data, run_dir=os.path.basename(
        os.path.normpath(run_dir))))
    replace_text(json_path,
                 json.dumps(data, indent=2, sort_keys=True) + "\n")
    return md_path, json_path
