"""Process-parallel execution of campaign units.

Campaign units are embarrassingly parallel by construction: every unit
runs on a **fresh world built from the campaign seed** (never on state
left over from earlier units), so executing them in worker processes
cannot change what any unit measures.  What *could* differ is the
order results reach the journal — so the campaign keeps submission
free-running but **commits results in canonical unit order**.  The
journal, and therefore the tables rendered from it, come out
byte-identical for every worker count; CI byte-compares ``--workers
1`` and ``--workers 4`` on every push.

Every campaign unit runs in a supervised worker process
(:mod:`repro.runner.supervise`); ``--workers 1`` is a one-worker pool.
The pieces here are the worker's side of that:

* :class:`UnitSettings` — the picklable subset of campaign
  configuration a unit's execution depends on;
* :func:`execute_unit` — build world, cap its events, run one unit,
  classify the outcome into a journal record and an outcome kind;
* :func:`worker_initializer` / :func:`run_unit_task` — the worker
  entry points.  Workers receive only ``(experiment, unit name,
  attempt)`` triples and re-resolve the unit from the experiment
  registry (or from the ad-hoc spec modules handed over at spawn), so
  no closures cross the process boundary per task.  Deterministic
  chaos hooks (:data:`KILL_ENV` / :data:`HANG_ENV`) let tests and CI
  kill or wedge workers at exact ``unit:attempt`` points.

Wall-clock timings are *returned* alongside records but never
journaled — they are the one nondeterministic observable, and live in
the run directory's ``timings.jsonl`` sidecar instead.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import sys
import time
import traceback
from typing import Dict, Mapping, Optional, Tuple

from ..netsim.errors import EventLimitExceeded
from .errors import FATAL, POISON, CampaignError, classify_error
from .units import Unit

#: Chaos hook: SIGKILL the worker at specific ``experiment/unit:attempt``
#: points (comma-separated; omit ``:attempt`` to kill every attempt).
#: Lets CI exercise the supervisor's crash-recovery path with real,
#: deterministic worker deaths.
KILL_ENV = "REPRO_CAMPAIGN_WORKER_KILL"

#: Chaos hook: spin in **pure Python** (no simulated events, so no
#: event limit) at matching ``experiment/unit`` points — a hang only
#: the supervisor's hard deadline ends.
HANG_ENV = "REPRO_CAMPAIGN_WORKER_HANG"

#: Safety net on the chaos hang: never spin longer than this, so a
#: test that forgot a unit wall cannot wedge CI forever.
HANG_SPIN_LIMIT = 600.0

#: Per-unit trace event cap under ``--trace`` (fixed, so truncation is
#: deterministic).
TRACE_LIMIT = 100_000


@dataclasses.dataclass(frozen=True)
class UnitSettings:
    """Everything a unit's execution depends on, in picklable form."""

    seed: int
    scale: float
    loss: float = 0.0
    fault_seed: int = 0
    retries: Optional[int] = None
    #: Simulated-event budget per unit (``--unit-steps``), enforced by
    #: the unit world's :attr:`~repro.netsim.engine.Network.event_limit`.
    unit_steps: Optional[int] = None
    #: Attach a trace bus to every unit world and return the buffered
    #: events through the result channel (``--trace``), at most
    #: :data:`TRACE_LIMIT` per unit.
    trace: bool = False
    #: Per-worker memory budget (MiB): the data limit
    #: (``RLIMIT_DATA``) that :func:`worker_initializer` sets, so one
    #: pathological world build cannot OOM the host.  ``None`` = off.
    memory_limit_mb: Optional[int] = None


def out_of_memory(exc: BaseException, settings: UnitSettings) -> bool:
    """Is *exc* a failed allocation?

    Under a memory budget (``settings.memory_limit_mb``) an allocation
    the data limit refuses can surface as ``SystemError`` ("error
    return without exception set") instead of ``MemoryError``, so a
    ``SystemError`` counts as one there.  Without a budget it
    stays a programming error; :func:`classify_error` knows no budgets.
    """
    return isinstance(exc, MemoryError) or (
        bool(settings.memory_limit_mb) and isinstance(exc, SystemError))


def _peak_rss_mb() -> Optional[float]:
    """This process's peak resident set so far, in MB (``None``
    without the POSIX ``resource`` module)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ``ru_maxrss`` is in KiB on Linux and in bytes on macOS.
    unit = 1024 * 1024 if sys.platform == "darwin" else 1024
    return round(peak / unit, 1)


def build_unit_world(settings: UnitSettings):
    """A pristine world per unit: resume- and order-independence."""
    from ..isps.world import build_world
    from ..netsim.faults import fault_setup

    world = build_world(seed=settings.seed, scale=settings.scale)
    faults = fault_setup(settings.loss, settings.fault_seed,
                         settings.retries)
    if faults is not None:
        world.install_faults(*faults)
    return world


def execute_unit(settings: UnitSettings, experiment: str, unit: Unit
                 ) -> Tuple[Dict, float, Dict, Optional[str]]:
    """Run one unit; returns ``(journal record, wall seconds, extras,
    kind)``.

    The record carries only deterministic fields (status, payload,
    simulated-step count); the wall measurement rides separately so
    journals stay byte-identical across runs and worker counts.
    ``extras`` is the observability side channel — never journaled:

    * ``extras["metrics"]`` — a deterministic
      :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` of the
      unit's world (cache hit rates, drops by reason, middlebox and
      DNS counters), merged by the campaign in canonical commit order;
    * ``extras["trace"]`` — when ``settings.trace`` is set, the unit's
      buffered trace events as canonical JSON lines (else ``None``);
    * ``extras["peak_rss_mb"]`` — the executing process's peak RSS in
      MB, read when the unit ends.

    ``kind`` is ``None`` for a committable record, ``"fatal"`` for a
    programming error (the campaign journals the record and aborts)
    or ``"poison"`` for a resource failure the supervisor routes
    through retry and quarantine (:func:`out_of_memory` decides what
    counts as one).  Neither carries metrics or trace;
    a fatal outcome's ``extras["traceback"]`` holds the formatted
    traceback for stderr, while the journal keeps the one-line reason.

    ``steps`` is the unit's change in the world's
    :attr:`~repro.netsim.engine.Network.events_processed`.  With
    ``settings.unit_steps`` set, the world's ``event_limit`` caps it:
    the unit that crosses the cap is journaled as a ``sim-steps``
    timeout with ``steps`` one past the budget.
    """
    from ..obs.metrics import (MetricsRegistry, STEP_BUCKETS,
                               collect_world_metrics)

    record: Dict = {"type": "unit", "experiment": experiment,
                    "unit": unit.name, "payload": None,
                    "error": None, "timeout": None}
    obs_snapshot: Optional[Dict] = None
    kind: Optional[str] = None
    extras: Dict = {"metrics": None, "trace": None}
    start = time.monotonic()
    world = build_unit_world(settings)
    sink = None
    if settings.trace:
        from ..obs.trace import BufferSink, TraceBus

        bus = TraceBus()
        sink = BufferSink(limit=TRACE_LIMIT)
        bus.subscribe(sink)
        bus.corr = f"{experiment}/{unit.name}"
        world.network.trace = bus
        bus.emit("unit-start", world.network.now,
                 experiment=experiment, unit=unit.name)
    domains = world.corpus.domains()
    network = world.network
    events_before = network.events_processed
    if settings.unit_steps is not None:
        network.event_limit = events_before + settings.unit_steps
    steps: Optional[int] = None
    try:
        payload = unit.fn(world, domains)
    except EventLimitExceeded:
        # The count stops at the crossing event, even where a fused
        # transit chain carried ``events_processed`` further.
        steps = settings.unit_steps + 1
        record["status"] = "timeout"
        record["timeout"] = {
            "kind": "sim-steps",
            "detail": f"unit exceeded {settings.unit_steps} "
                      f"simulated events",
        }
    except Exception as exc:
        category = (POISON if out_of_memory(exc, settings)
                    else classify_error(exc))
        record["status"] = "failed"
        record["error"] = {
            "category": category,
            "reason": f"{type(exc).__name__}: {exc}",
        }
        if category in (FATAL, POISON):
            kind = category
        if category == FATAL:
            extras["traceback"] = traceback.format_exc()
    else:
        if isinstance(payload, dict):
            # Experiments may return a deterministic metrics snapshot
            # alongside their rows (``payload["obs_metrics"]``, e.g.
            # the population sketch counters).  Lift it out before
            # journaling — it belongs in the metrics.json sidecar, and
            # keeping it out of the journal keeps resume hashes and
            # tables.txt unchanged for experiments that don't use it.
            obs_snapshot = payload.pop("obs_metrics", None)
        errors = payload.get("errors") if isinstance(payload, dict) \
            else None
        record["status"] = "degraded" if errors else "ok"
        record["payload"] = payload
    if steps is None:
        steps = network.events_processed - events_before
    record["steps"] = steps
    if kind is None:
        registry = MetricsRegistry()
        collect_world_metrics(registry, world, experiment=experiment)
        if obs_snapshot:
            registry.merge(obs_snapshot)
        registry.histogram("campaign_unit_steps", STEP_BUCKETS,
                           experiment=experiment).observe(steps)
        extras["metrics"] = registry.snapshot()
        if sink is not None:
            extras["trace"] = sink.lines()
    extras["peak_rss_mb"] = _peak_rss_mb()
    return record, time.monotonic() - start, extras, kind


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------

#: Per-worker state installed by :func:`worker_initializer`: the
#: settings, the ad-hoc spec modules (``None`` = the experiment
#: registry) and a lazily built ``{experiment: {name: Unit}}`` memo
#: (units are re-resolved once per worker, then reused for every task
#: the worker executes).
_WORKER: Dict = {}


def worker_initializer(settings: UnitSettings,
                       specs: Optional[Mapping[str, object]] = None
                       ) -> None:
    _WORKER["settings"] = settings
    _WORKER["specs"] = specs
    _WORKER["units"] = {}
    _apply_memory_limit(settings.memory_limit_mb)


def _apply_memory_limit(limit_mb: Optional[int]) -> None:
    """Cap this process's data memory (best effort, POSIX only).

    ``RLIMIT_DATA`` bounds the heap and the private writable mappings,
    which is what a unit's allocations grow; since Linux 4.7 it covers
    anonymous ``mmap`` too.  Address space (``RLIMIT_AS``) would also
    count what the worker only reserves — the 64 MB malloc arena and
    8 MB stack its parent-watch thread maps before the limit applies —
    so a 70 MB budget would leave almost nothing for a worker whose
    resident set stays near 26 MB.

    Meant for worker processes — applying it to the campaign parent
    (or a test process) would cap *that* process too, which is why the
    limit rides :class:`UnitSettings` instead of ambient state.
    """
    if not limit_mb:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    limit = int(limit_mb) * 1024 * 1024
    try:
        _, hard = resource.getrlimit(resource.RLIMIT_DATA)
        resource.setrlimit(resource.RLIMIT_DATA, (limit, hard))
    except (ValueError, OSError):  # pragma: no cover - platform quirk
        pass


# ---------------------------------------------------------------------------
# Chaos hooks (worker side)
# ---------------------------------------------------------------------------

#: Parsed chaos plans, memoized per raw env value (workers are
#: long-lived; the env never changes underneath them).
_CHAOS_CACHE: Dict[Tuple[str, str], Dict[str, Optional[frozenset]]] = {}


def _parse_chaos_plan(raw: str) -> Dict[str, Optional[frozenset]]:
    """``exp/unit:attempt,...`` -> ``{"exp/unit": {attempts} | None}``.

    ``None`` means *every* attempt (an entry without ``:attempt``).
    Malformed entries are ignored — a typo in a chaos knob must never
    take down a real campaign.
    """
    plan: Dict[str, Optional[frozenset]] = {}
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry or "/" not in entry:
            continue
        key, attempt = entry, None
        if ":" in entry:
            head, _, tail = entry.rpartition(":")
            try:
                attempt = int(tail)
                key = head
            except ValueError:
                attempt = None
        attempts = plan.get(key, frozenset())
        if attempt is None or attempts is None:
            plan[key] = None
        else:
            plan[key] = attempts | {attempt}
    return plan


def _chaos_match(env: str, experiment: str, unit_name: str,
                 attempt: int) -> bool:
    raw = os.environ.get(env)
    if not raw:
        return False
    plan = _CHAOS_CACHE.get((env, raw))
    if plan is None:
        plan = _CHAOS_CACHE[(env, raw)] = _parse_chaos_plan(raw)
    attempts = plan.get(f"{experiment}/{unit_name}", frozenset())
    return attempts is None or attempt in attempts


def _maybe_chaos(experiment: str, unit_name: str, attempt: int) -> None:
    """Apply the deterministic chaos plan, if any, for this task."""
    if _chaos_match(KILL_ENV, experiment, unit_name, attempt):
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
    if _chaos_match(HANG_ENV, experiment, unit_name, attempt):
        # Pure-Python spin: no simulated events, so no event limit
        # can interrupt it — only a hard deadline kill can.
        deadline = time.monotonic() + HANG_SPIN_LIMIT
        while time.monotonic() < deadline:
            pass


def _resolve_unit(experiment: str, unit_name: str) -> Unit:
    by_name = _WORKER["units"].get(experiment)
    if by_name is None:
        modules = _WORKER["specs"]
        if modules is None:
            from ..experiments import EXPERIMENT_MODULES as modules
        module = modules.get(experiment)
        if module is None:
            raise CampaignError(f"worker: unknown experiment "
                                f"{experiment!r}")
        by_name = {unit.name: unit for unit in module.units()}
        _WORKER["units"][experiment] = by_name
    unit = by_name.get(unit_name)
    if unit is None:
        raise CampaignError(
            f"worker: experiment {experiment!r} has no unit "
            f"{unit_name!r}")
    return unit


def run_unit_task(experiment: str, unit_name: str, attempt: int = 1
                  ) -> Tuple[Dict, float, Dict, Optional[str]]:
    """Pool task: execute one unit in this worker process.

    Returns :func:`execute_unit`'s ``(record, wall, extras, kind)``.
    Fatal and poison failures come back as values rather than
    exceptions, so the parent can journal them durably.
    """
    settings: UnitSettings = _WORKER["settings"]
    _maybe_chaos(experiment, unit_name, attempt)
    unit = _resolve_unit(experiment, unit_name)
    return execute_unit(settings, experiment, unit)
