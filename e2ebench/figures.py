"""Arithmetic that turns measurements into the benchmark's figures.

Kept apart from the process handling in ``run.py`` so the tests can
check it without launching anything.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

from spans import LayerTotal, UNIT_SPAN, percentile

#: ``BENCHMARK.json`` at the checkout root names every metric.
_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: End-to-end metrics, printed by every untraced run: name -> unit.
END_TO_END: Dict[str, str] = {metric["name"]: metric["unit"]
                              for metric in _SPEC["end_to_end"]}

#: Per-layer metrics, printed by every traced run: name -> unit.
PER_LAYER: Dict[str, str] = {metric["name"]: metric["unit"]
                             for metric in _SPEC["per_layer"]}


def require_names(values: Mapping[str, float],
                  names: Mapping[str, str]) -> None:
    """Fail loudly when *values* and ``BENCHMARK.json`` name different
    metrics."""
    if set(values) != set(names):
        raise AssertionError(sorted(set(values) ^ set(names)))


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


def ok_share(attempted: int, failed: int) -> float:
    """``1 - failed_share``: the end-to-end form, which is never 0 on a
    workload where operations succeed."""
    return 1.0 - failed_share(attempted, failed)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def rate(ops: int, seconds: float) -> float:
    return ops / seconds if seconds > 0 else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counter_total(counters: Mapping[str, int], name: str) -> int:
    """Sum a counter over all its label sets (``name{...}`` keys)."""
    return sum(value for key, value in counters.items()
               if key.partition("{")[0] == name)


def add_counters(*snapshots: Mapping[str, int]) -> Dict[str, int]:
    summed: Dict[str, int] = {}
    for counters in snapshots:
        for key, value in counters.items():
            summed[key] = summed.get(key, 0) + value
    return summed


def runner_figures(unit_wall_total: float, wall: float, setup: float,
                   workers: int) -> Dict[str, float]:
    """Runner overhead and worker busy share of one campaign.

    The overhead is the measured time (wall minus set-up) that the unit
    work, spread over the workers, does not account for.
    """
    measured = wall - setup
    return {
        "runner.unit_wall_s": unit_wall_total,
        "runner.overhead_s": measured - unit_wall_total / workers,
        "runner.worker_busy_share": share(unit_wall_total,
                                          workers * measured),
    }


def layer_metrics(totals: Mapping[str, LayerTotal],
                  counters: Mapping[str, int],
                  gc_seconds: float, gc_collections: int,
                  runner: Optional[Mapping[str, float]],
                  overhead_share: float) -> Dict[str, float]:
    """Every per-layer metric from span totals and program counters.

    *runner* is ``None`` on a workload without a campaign runner, whose
    runner figures are then 0.
    """
    def total(name: str) -> LayerTotal:
        return totals.get(name) or LayerTotal()

    population = total("population.run")
    sessions = counter_total(counters, "population_sessions_total")
    netsim_run = total("netsim.run")
    events = counter_total(counters, "netsim_events_total")
    fetch = total("httpsim.fetch")
    lookup = total("dnssim.lookup")
    express_http = total("measure.express_http")
    express_dns = total("measure.express_dns")
    page = total("websites.page_response")
    runner = runner or {}
    figures = {
        "population.run_s": population.inclusive,
        "population.sessions": sessions,
        "population.sessions_per_s": rate(sessions, population.inclusive),
        "runner.unit_wall_s": runner.get("runner.unit_wall_s", 0.0),
        "runner.overhead_s": runner.get("runner.overhead_s", 0.0),
        "runner.worker_busy_share": runner.get("runner.worker_busy_share",
                                               0.0),
        "runner.journal_append_s": total("runner.journal_append").inclusive,
        "isps.build_world_s": total("isps.build_world").inclusive,
        "isps.build_world_calls": total("isps.build_world").calls,
        "netsim.dijkstra_s": total("netsim.dijkstra").inclusive,
        "netsim.dijkstra_calls": total("netsim.dijkstra").calls,
        "netsim.run_s": netsim_run.self_time,
        "netsim.events": events,
        "netsim.events_per_s": rate(events, netsim_run.self_time),
        "netsim.drops": counter_total(counters, "netsim_drops_total"),
        "middlebox.process_s": (total("middlebox.process").self_time
                                + total("middlebox.on_copy").self_time),
        "middlebox.inspected": counter_total(counters,
                                             "middlebox_inspected_total"),
        "httpsim.fetch_s": fetch.self_time,
        "httpsim.fetches": fetch.calls,
        "httpsim.fetch_p50_ms": 1000 * percentile(fetch.durations, 50),
        "httpsim.fetch_p99_ms": 1000 * percentile(fetch.durations, 99),
        "dnssim.lookup_s": lookup.inclusive,
        "dnssim.lookups": lookup.calls,
        "measure.express_http_s": express_http.inclusive,
        "measure.express_dns_s": express_dns.inclusive,
        "measure.express_calls": express_http.calls + express_dns.calls,
        "measure.web_connectivity_s":
            total("measure.web_connectivity").self_time,
        "measure.trace_s": total("measure.trace").self_time,
        "websites.page_response_s": page.inclusive,
        "websites.page_response_calls": page.calls,
        "obs.collect_metrics_s": total("obs.collect_metrics").inclusive,
        "experiments.self_s": total(UNIT_SPAN).self_time,
        "python.gc_s": gc_seconds,
        "python.gc_collections": gc_collections,
        "trace.overhead_share": overhead_share,
    }
    for name, (part, whole) in ratio_bases(totals, counters).items():
        figures[name] = share(part, whole)
    require_names(figures, PER_LAYER)
    return figures


def ratio_bases(totals: Mapping[str, LayerTotal],
                counters: Mapping[str, int]) -> Dict[str, Tuple[int, int]]:
    """``metric -> (part, whole)`` for every per-layer ratio.

    Parts and wholes come from the program's own counters, except the
    resolvers' answers: express DNS probes ask the resolver directly and
    never enter its query log, so those are counted as spans.
    """
    def pair(hits: str, misses: str) -> Tuple[int, int]:
        hit = counter_total(counters, hits)
        return hit, hit + counter_total(counters, misses)

    inspected = counter_total(counters, "middlebox_inspected_total")
    return {
        "netsim.fib_hit_ratio": pair("netsim_fib_hits_total",
                                     "netsim_fib_builds_total"),
        "netsim.flowhash_hit_ratio": pair("netsim_flowhash_hits_total",
                                          "netsim_flowhash_misses_total"),
        "netsim.fwd_plan_hit_ratio": pair("netsim_fwd_plan_hits_total",
                                          "netsim_fwd_plan_builds_total"),
        "netsim.pool_reuse_ratio": (
            counter_total(counters, "packet_pool_reused_total"),
            counter_total(counters, "packet_pool_acquired_total")),
        "middlebox.trigger_ratio": (
            counter_total(counters, "middlebox_triggers_total"), inspected),
        "dnssim.poisoned_ratio": (
            counter_total(counters, "dns_poisoned_answers_total"),
            totals.get("dnssim.answer", LayerTotal()).calls),
        "measure.express_plan_hit_ratio": pair(
            "express_plan_hits_total", "express_plan_builds_total"),
    }

