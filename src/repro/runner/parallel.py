"""A run's settings and the execution of one campaign unit.

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
The pieces here are what a worker (or ``repro experiment``, in
process) runs:

* :class:`UnitSettings` — the one record of a run's settings, which
  every command, :class:`~repro.runner.campaign.Campaign` and
  ``repro serve`` build and the workers receive at spawn;
* :func:`build_unit_world` — the fresh world those settings describe;
* :func:`execute_unit` — build world, cap its events, run one unit,
  classify the outcome into a journal record (:func:`unit_record`)
  and an outcome kind.

Wall-clock timings are *returned* alongside records but never
journaled — they are the one nondeterministic observable, and live in
the run directory's ``timings.jsonl`` sidecar instead.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from typing import Dict, Mapping, Optional, Tuple

from ..netsim.errors import EventLimitExceeded
from ..netsim.faults import fault_setup
from .errors import FATAL, POISON, classify_error
from .units import Unit

#: Per-unit trace event cap under ``--trace`` (fixed, so truncation is
#: deterministic).
TRACE_LIMIT = 100_000


def cast_setting(name: str, kind: type, value):
    """*value* as *kind* — ``int``, ``float`` or ``bool``, as argparse's
    ``type=`` casts a flag — or ``ValueError`` naming the setting."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}") from None


@dataclasses.dataclass(frozen=True)
class UnitSettings:
    """A run's settings: everything a unit's execution depends on.

    The one record of them.  Construction casts each value to its
    default's type (``int`` where the default is ``None``, which stays
    allowed), so a command line, a JSON submission and a journal's
    meta record reach the same values, and raises ``ValueError`` for a
    bad one.  :meth:`meta` is the journal's form of the settings a run
    pins, and :meth:`from_meta` reads it back on resume.  Picklable:
    workers receive it at spawn.
    """

    seed: int = 1808
    scale: float = 0.25
    #: Per-link loss probability, the seed of the fault schedule and
    #: the client attempts under loss (:meth:`faults`).
    loss: float = 0.0
    fault_seed: int = 0
    retries: Optional[int] = None
    #: Simulated-event budget per unit (``--unit-steps``), enforced by
    #: the unit world's :attr:`~repro.netsim.engine.Network.event_limit`.
    unit_steps: Optional[int] = None
    #: Attach a trace bus to every unit world and return the buffered
    #: events through the result channel (``--trace``), at most
    #: :data:`TRACE_LIMIT` per unit.  Only a sidecar changes, so the
    #: journal does not record it: a traced run and an untraced one
    #: share their journal bytes.
    trace: bool = dataclasses.field(default=False, metadata={"meta": None})
    #: Per-worker memory budget (MiB): the data limit (``RLIMIT_DATA``)
    #: each worker sets on itself, so one pathological world build
    #: cannot OOM the host.  ``None`` = off.
    memory_limit_mb: Optional[int] = dataclasses.field(
        default=None, metadata={"meta": "memory_limit"})

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.default is None and value is None:
                continue
            kind = int if field.default is None else type(field.default)
            object.__setattr__(self, field.name,
                               cast_setting(field.name, kind, value))
        self.faults()  # a loss that is not a probability raises here

    def faults(self):
        """The fault plan and client hardening these settings ask for,
        or ``None`` without loss (:func:`~repro.netsim.faults.fault_setup`)."""
        return fault_setup(self.loss, self.fault_seed, self.retries)

    @classmethod
    def _meta_keys(cls) -> Dict[str, str]:
        """Setting name -> its journal meta key, for the pinned ones."""
        keys = {field.name: field.metadata.get("meta", field.name)
                for field in dataclasses.fields(cls)}
        return {name: key for name, key in keys.items() if key}

    def meta(self) -> Dict:
        """The settings a journal pins, keyed as its meta record is."""
        return {key: getattr(self, name)
                for name, key in self._meta_keys().items()}

    @classmethod
    def from_meta(cls, meta: Mapping) -> "UnitSettings":
        """The settings a journal meta record pins (defaults for any
        key it lacks)."""
        return cls(**{name: meta[key]
                      for name, key in cls._meta_keys().items()
                      if key in meta})


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

    world = build_world(seed=settings.seed, scale=settings.scale)
    faults = settings.faults()
    if faults is not None:
        world.install_faults(*faults)
    return world


def unit_record(experiment: str, unit_name: str, status: str, *,
                payload: Optional[Dict] = None,
                error: Optional[Dict] = None,
                timeout: Optional[Dict] = None,
                steps: Optional[int] = None) -> Dict:
    """One unit's journal record.

    Only deterministic fields: ``error`` is ``{"category", "reason"}``
    for a failed or quarantined unit, ``timeout`` ``{"kind",
    "detail"}`` for a timed-out one, and ``steps`` the simulated
    events the unit ran (``None`` where no worker could count them).
    """
    return {"type": "unit", "experiment": experiment, "unit": unit_name,
            "status": status, "payload": payload, "error": error,
            "timeout": timeout, "steps": steps}


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

    payload = error = timeout = obs_snapshot = None
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
        status = "timeout"
        timeout = {
            "kind": "sim-steps",
            "detail": f"unit exceeded {settings.unit_steps} "
                      f"simulated events",
        }
    except Exception as exc:
        category = (POISON if out_of_memory(exc, settings)
                    else classify_error(exc))
        status = "failed"
        error = {"category": category,
                 "reason": f"{type(exc).__name__}: {exc}"}
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
        status = "degraded" if errors else "ok"
    if steps is None:
        steps = network.events_processed - events_before
    record = unit_record(experiment, unit.name, status, payload=payload,
                         error=error, timeout=timeout, steps=steps)
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
