"""Crash-safe campaign orchestration.

A :class:`Campaign` decomposes experiments into named measurement
units (each module's ``units()`` iterator), streams every unit's
result to an append-only hash-chained journal (``journal.jsonl`` in
the run directory), and renders the final tables **from the journal**
— never from in-memory state.  Consequences:

* killing the process at any point loses at most the units in flight;
* ``resume=True`` re-runs only missing, failed, or timed-out units;
* straight and killed-and-resumed runs with the same seed produce
  byte-identical ``tables.txt`` (every payload takes the same
  JSON round trip either way, and every unit runs on a fresh world
  built from the campaign seed, never on state left over from
  earlier units).

Units always execute in a **supervised worker pool**
(:class:`~repro.runner.supervise.Supervisor`) of ``workers``
processes; ``workers=1`` is a one-worker pool, not a separate code
path.  Each worker builds its own world from the campaign seed;
results stream back and are committed to the journal in **canonical
unit order**, so the journal — and the tables rendered from it — are
byte-identical for every worker count.  Journal records carry only
deterministic fields; per-unit wall-clock timings live in the run
directory's ``timings.jsonl`` sidecar.  See ``docs/PERFORMANCE.md``
for the determinism argument.  To step through a unit in a debugger,
run its experiment in-process with ``repro experiment <name>``.

Each budget has one owner.  ``unit_steps`` is the unit world's
:attr:`~repro.netsim.engine.Network.event_limit`, which the worker
journals as a deterministic ``sim-steps`` timeout; ``unit_wall`` is
the supervisor's, which kills a worker still busy past it plus
:data:`~repro.runner.supervise.HARD_GRACE`; the campaign-wide
``deadline`` is checked here, between commits, on :attr:`clock`.

A worker lost to the OS is respawned and its unit retried with
bounded backoff; a unit that repeatedly crashes its worker is
journaled ``quarantined`` and the campaign proceeds.  Crash/retry
forensics ride the ``supervision.jsonl`` sidecar and the metrics
"wall" section — never the journal, which stays byte-identical to an
undisturbed run even when workers are killed mid-campaign.  See
"Failure modes and recovery" in ``docs/CAMPAIGNS.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    QUARANTINED,
    CampaignError,
    ResumeMismatch,
    SimulatedCrash,
    TimeoutDegradation,
)
from .journal import Journal
from .parallel import UnitSettings, cast_setting
from .units import Unit

#: Journal schema version (bump on incompatible record changes).
JOURNAL_VERSION = 1

#: Fault-injection knob: "crash" after durably journaling N units.
CRASH_AFTER_ENV = "REPRO_CAMPAIGN_CRASH_AFTER"

#: Unit statuses whose journal entries survive a resume untouched.
#: ``quarantined`` is durable by design: re-running a poison unit
#: would only crash the campaign's workers again.
_DURABLE_STATUSES = ("ok", "degraded", QUARANTINED)

#: Supervision event kinds → wall-half metrics counters.  These count
#: nondeterministic infrastructure events (crashes, retries, respawns)
#: so they live beside the timing gauges, never in the deterministic
#: half that byte-compares across worker counts.
_SUPERVISION_COUNTERS = {
    "worker-crash": "campaign_worker_crashes_total",
    "unit-retry": "campaign_unit_retries_total",
    "unit-quarantined": "campaign_units_quarantined_total",
    "unit-hard-timeout": "campaign_unit_hard_timeouts_total",
    "worker-spawn": "campaign_workers_respawned_total",
}


def _count(name: str, value) -> int:
    """*value* as a count of at least one (``ValueError`` otherwise)."""
    count = cast_setting(name, int, value)
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")
    return count


def _budget(name: str, value) -> Optional[float]:
    """*value* as a positive number of seconds, or ``None`` for no
    budget (``ValueError`` otherwise)."""
    if value is None:
        return None
    seconds = cast_setting(name, float, value)
    if not seconds > 0:
        raise ValueError(f"{name} must be > 0, got {seconds:g}")
    return seconds


def _registry(experiments: Optional[Sequence[str]]):
    """Resolve experiment keys to modules (lazy import: no cycles)."""
    from ..experiments import EXPERIMENT_MODULES

    if experiments is None:
        return dict(EXPERIMENT_MODULES)
    registry = {}
    for key in experiments:
        if key not in EXPERIMENT_MODULES:
            raise CampaignError(
                f"unknown experiment {key!r} (choose from "
                f"{', '.join(sorted(EXPERIMENT_MODULES))})")
        registry[key] = EXPERIMENT_MODULES[key]
    return registry


@dataclasses.dataclass
class CampaignReport:
    """What a campaign run produced, plus where the durable state is."""

    run_dir: str
    journal_path: str
    tables_path: str
    tables: str
    counts: Dict[str, int]
    degradation: object  # experiments.common.Degradation
    discarded_journal_lines: int = 0
    deadline_hit: Optional[str] = None
    #: Set when a stop request (SIGTERM/SIGINT, service drain) ended
    #: the run early: the journal has no ``end`` record and the
    #: remaining units resume byte-identically later.
    drained: bool = False

    @property
    def complete(self) -> bool:
        """Every unit has a durable (ok or degraded) entry."""
        return (self.counts["ok"] + self.counts["degraded"]
                == self.counts["total"])

    def render(self) -> str:
        counts = self.counts
        lines = [
            f"campaign run: {self.run_dir}",
            f"journal: {self.journal_path}",
            f"units: {counts['total']} total — {counts['ok']} ok, "
            f"{counts['degraded']} degraded, {counts['timeout']} timeout, "
            f"{counts['failed']} failed, "
            f"{counts['quarantined']} quarantined, "
            f"{counts['missing']} not run",
        ]
        if self.discarded_journal_lines:
            lines.append(f"journal: discarded "
                         f"{self.discarded_journal_lines} corrupt tail "
                         f"line(s) on resume")
        if self.deadline_hit:
            lines.append(f"deadline: {self.deadline_hit}")
        if self.drained:
            lines.append(f"drained: stopped after the last committed "
                         f"unit — continue with "
                         f"repro campaign --resume {self.run_dir}")
        extra = self.degradation.describe()
        if extra:
            lines.append(extra)
        return "\n".join(lines) + "\n\n" + self.tables


class Campaign:
    """One resumable, deadline-guarded sweep over experiment units."""

    def __init__(self, experiments: Optional[Sequence[str]] = None, *,
                 run_dir: str = "campaign-run", resume: bool = False,
                 unit_wall: Optional[float] = None,
                 deadline: Optional[float] = None,
                 crash_after: Optional[int] = None,
                 specs: Optional[Mapping[str, object]] = None,
                 echo_journal: bool = False,
                 workers: int = 1,
                 max_worker_crashes: int = 2,
                 stop_event=None,
                 on_event: Optional[Callable[[Dict], None]] = None,
                 clock: Callable[[], float] = time.monotonic,
                 **settings) -> None:
        """*settings* are the run's: keywords of
        :class:`~repro.runner.parallel.UnitSettings` (``seed``,
        ``scale``, ``loss``, …), which owns their defaults and checks.
        On resume every setting not passed here is adopted from the
        journal, as the experiment list is when *experiments* is
        ``None``; a passed one must match it."""
        try:
            #: The run's settings, shared with the workers at spawn.
            self.settings = UnitSettings(**settings)
            self.workers = _count("workers", workers)
            self.max_worker_crashes = _count("max_worker_crashes",
                                             max_worker_crashes)
            self.unit_wall = _budget("unit_wall", unit_wall)
            #: Campaign wall budget (seconds), measured on :attr:`clock`
            #: from the start of :meth:`run` and checked between commits.
            self.deadline = _budget("deadline", deadline)
            if crash_after is None:
                raw = os.environ.get(CRASH_AFTER_ENV)
                crash_after = (cast_setting(CRASH_AFTER_ENV, int, raw)
                               if raw else None)
            self.crash_after = crash_after
        except ValueError as exc:
            # Checked here so a bad value stops the campaign before
            # any journal exists.
            raise CampaignError(str(exc)) from None
        #: The settings given here, which a resume must not override.
        self._given = {name: getattr(self.settings, name)
                       for name in settings}
        self.registry = (dict(specs) if specs is not None
                         else _registry(experiments))
        #: Ad-hoc spec modules go to the workers at spawn; registry
        #: experiments are re-resolved there by name.
        self._specs = self.registry if specs is not None else None
        #: On resume with no explicit experiment list, adopt the
        #: journal's recorded list rather than demanding a retype.
        self._adopt_experiments = specs is None and experiments is None
        self.run_dir = run_dir
        self.resume = resume
        self.echo_journal = echo_journal
        #: Graceful-drain hook: any object with ``is_set()`` (e.g. a
        #: ``threading.Event``).  Once set, the campaign finishes the
        #: unit in flight, commits it, and returns with
        #: ``report.drained`` — no ``end`` record is journaled, so a
        #: later ``--resume`` produces bytes identical to an
        #: uninterrupted run.
        self.stop_event = stop_event
        #: Live observability: called with small lifecycle dicts
        #: (``campaign-start`` / ``unit-committed`` / ``campaign-end``
        #: plus every supervision event).  Best-effort — a failing sink
        #: is counted and reported, never allowed to abort the run.
        self.on_event = on_event
        self.clock = clock

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.run_dir, "journal.jsonl")

    @property
    def tables_path(self) -> str:
        return os.path.join(self.run_dir, "tables.txt")

    def _meta(self) -> Dict:
        return {"type": "meta", "version": JOURNAL_VERSION,
                "experiments": list(self.registry),
                **self.settings.meta()}

    def _open_journal(self) -> Tuple[Journal, List[Dict], int]:
        if self.resume:
            journal, records, discarded = Journal.resume(self.journal_path)
            if not records or records[0].get("type") != "meta":
                raise ResumeMismatch(
                    f"{self.journal_path} has no readable meta record")
            recorded = records[0]
            if self._adopt_experiments:
                self.registry = _registry(
                    recorded.get("experiments") or None)
            try:
                self.settings = dataclasses.replace(
                    UnitSettings.from_meta(recorded), **self._given)
            except ValueError as exc:
                raise ResumeMismatch(
                    f"cannot resume {self.journal_path}: {exc}") from None
            self._check_meta(recorded)
            return journal, records, discarded
        if os.path.exists(self.journal_path):
            raise CampaignError(
                f"{self.journal_path} already exists — continue it with "
                f"repro campaign --resume {self.run_dir}, or choose a "
                f"fresh run directory")
        journal = Journal.create(self.journal_path)
        self._append(journal, self._meta())
        return journal, [], 0

    def _check_meta(self, recorded: Dict) -> None:
        expected = self._meta()
        mismatched = [key for key in expected
                      if recorded.get(key) != expected[key]]
        if mismatched:
            detail = ", ".join(
                f"{key}: journal={recorded.get(key)!r} "
                f"requested={expected[key]!r}" for key in mismatched)
            raise ResumeMismatch(
                f"cannot resume {self.journal_path}: {detail}")

    def _append(self, journal: Journal, record: Dict) -> Dict:
        record = journal.append(record)
        if self.echo_journal:
            from .journal import canonical_json

            print(canonical_json(record))
        return record

    # ------------------------------------------------------------------
    # Unit execution
    # ------------------------------------------------------------------

    def _sidecar_error(self, where: str, exc: BaseException) -> None:
        """A diagnostics channel failed: count it and say so on stderr.

        Sidecar writes (timings, trace, metrics, the fatal-crash note)
        are best-effort — they must never abort a campaign — but a
        silent ``except`` would make supervision invisible exactly
        when the infrastructure is misbehaving.  So every swallowed
        failure increments ``campaign_sidecar_errors_total`` in the
        wall metrics and leaves one line on stderr.
        """
        try:
            self._metrics_wall.counter(
                "campaign_sidecar_errors_total", where=where).inc()
        except Exception:  # pragma: no cover - metrics not set up yet
            pass
        print(f"repro: warning: {where} sidecar write failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)

    def _stop_requested(self) -> bool:
        """Has a graceful drain been requested (signal/service stop)?"""
        return self.stop_event is not None and self.stop_event.is_set()

    def _emit_live(self, kind: str, **fields) -> None:
        """Deliver one lifecycle event to the live sink, best-effort."""
        if self.on_event is None:
            return
        event = {"kind": kind}
        event.update(fields)
        try:
            self.on_event(event)
        except Exception as exc:
            self._sidecar_error("live", exc)

    def _journal_failed_fatal(self, journal: Journal,
                              record: Dict) -> None:
        """Best-effort durable note of a fatal crash (then abort)."""
        try:
            self._append(journal, record)
        except Exception as exc:
            self._sidecar_error("fatal-journal", exc)

    def _commit(self, journal: Journal, experiment: str, unit: Unit,
                record: Dict, wall: float, extras: Dict,
                attempts: int, worker: Optional[int]) -> None:
        """Durably journal one unit record; observability in sidecars.

        The journal record is untouched by observability — metrics
        merge into the in-memory registries (flushed to
        ``metrics.json`` at the end) and trace lines append to
        ``trace.jsonl``.  Because this runs in canonical commit order
        for every worker count, both sidecars byte-compare between
        serial and ``--workers N`` runs (wall timings excepted — they
        live in ``timings.jsonl`` and the metrics "wall" section).
        """
        from ..obs.metrics import WALL_BUCKETS

        self._append(journal, record)
        self._emit_live("unit-committed", experiment=experiment,
                        unit=unit.name, status=record.get("status"),
                        wall=round(wall, 3), attempts=attempts)
        try:
            with open(os.path.join(self.run_dir, "timings.jsonl"),
                      "a", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "experiment": experiment, "unit": unit.name,
                    "status": record.get("status"),
                    "wall": round(wall, 3),
                    "attempts": attempts,
                    "worker": worker,
                    "peak_rss_mb": extras.get("peak_rss_mb"),
                }) + "\n")
        except OSError as exc:
            self._sidecar_error("timings", exc)
        self._metrics_wall.histogram(
            "campaign_unit_wall_seconds", WALL_BUCKETS,
            experiment=experiment).observe(wall)
        self._wall_total += wall
        self._steps_total += record.get("steps") or 0
        snapshot = extras.get("metrics")
        if snapshot is not None:
            self._metrics_det.merge(snapshot)
        lines = extras.get("trace")
        if lines:
            try:
                with open(os.path.join(self.run_dir, "trace.jsonl"),
                          "a", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
            except OSError as exc:
                self._sidecar_error("trace", exc)

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    def run(self) -> CampaignReport:
        from ..obs.metrics import MetricsRegistry

        os.makedirs(self.run_dir, exist_ok=True)
        journal, prior, discarded = self._open_journal()
        self._metrics_det = MetricsRegistry()
        self._metrics_wall = MetricsRegistry()
        self._wall_total = 0.0
        self._steps_total = 0
        #: Supervision side channel: crash/retry/quarantine forensics
        #: are nondeterministic, so they stream to their own
        #: ``supervision.jsonl`` sidecar and the wall metrics — never
        #: ``trace.jsonl``, which byte-compares across worker counts.
        self._supervision_fh = None
        units_by_exp: Dict[str, List[Unit]] = {
            key: list(module.units())
            for key, module in self.registry.items()
        }
        durable = {
            (rec["experiment"], rec["unit"])
            for rec in prior
            if rec.get("type") == "unit"
            and rec.get("status") in _DURABLE_STATUSES
        }
        resumed = 0
        #: Canonical execution/commit order: registry order, then each
        #: experiment's own unit order — identical for every worker
        #: count, which is what makes the journals byte-compare.
        pending: List[Tuple[str, Unit]] = []
        for key, units in units_by_exp.items():
            for unit in units:
                if (key, unit.name) in durable:
                    resumed += 1
                else:
                    pending.append((key, unit))
        self._started = self.clock()
        self._drained = False
        self._emit_live("campaign-start", run_dir=self.run_dir,
                        pending=len(pending), resumed=resumed)
        try:
            deadline_hit = self._run_units(journal, pending)
            report = self._finish(units_by_exp, resumed, discarded,
                                  deadline_hit)
            if self._drained:
                # No end record: the journal stays open so a resume
                # appends the missing units and finishes with bytes
                # identical to an uninterrupted run.
                report = dataclasses.replace(report, drained=True)
            else:
                self._append(journal, {
                    "type": "end",
                    "status": "deadline" if deadline_hit
                    else ("complete" if report.complete else "partial"),
                })
            self._emit_live(
                "campaign-end", run_dir=self.run_dir,
                complete=report.complete, drained=report.drained,
                counts=dict(report.counts))
        finally:
            if self._supervision_fh is not None:
                try:
                    self._supervision_fh.close()
                except OSError:  # pragma: no cover - teardown only
                    pass
                self._supervision_fh = None
        return report

    def _on_supervision_event(self, event: Dict) -> None:
        """Sink for supervision events: count, stream to disk, and
        forward to the live sink (tagged, so a service can tell
        infrastructure forensics from journal lifecycle)."""
        from ..obs.trace import event_json

        counter = _SUPERVISION_COUNTERS.get(event.get("kind"))
        if counter is not None:
            self._metrics_wall.counter(counter).inc()
        if self.on_event is not None:
            self._emit_live("supervision", event=dict(event))
        try:
            if self._supervision_fh is None:
                self._supervision_fh = open(
                    os.path.join(self.run_dir, "supervision.jsonl"),
                    "a", encoding="utf-8")
            self._supervision_fh.write(event_json(event) + "\n")
            self._supervision_fh.flush()
        except OSError as exc:
            self._sidecar_error("supervision", exc)

    def _deadline_hit(self) -> Optional[str]:
        """Between commits: why the campaign budget is spent, if it is."""
        if (self.deadline is not None
                and self.clock() - self._started > self.deadline):
            return f"campaign wall budget {self.deadline:g}s exhausted"
        return None

    def _crash_if_injected(self, executed: int) -> None:
        if self.crash_after is not None and executed >= self.crash_after:
            raise SimulatedCrash(
                f"injected crash after {executed} journaled unit(s) — "
                f"resume with repro campaign --resume {self.run_dir}")

    def _run_units(self, journal: Journal,
                   pending: List[Tuple[str, Unit]]) -> Optional[str]:
        """Fan units out to the supervised worker pool; commit in
        canonical order.

        Dispatch is free-running (workers pick up units as slots open)
        but :meth:`Supervisor.run` yields outcomes in submission
        order, so the journal is written in the same order at every
        worker count — including after worker crashes, retries,
        quarantines and hard deadline kills, none of which touch the
        record bytes.  A hit deadline stops committing — undelivered
        results, the units in flight among them, are discarded,
        leaving those units missing and resumable.

        A stop request (``stop_event``) drains instead: the supervisor
        stops dispatching, in-flight units finish, and those still in
        canonical commit order are journaled before the loop ends —
        everything else stays missing and resumable.
        """
        from .supervise import Supervisor

        executed = 0
        deadline_hit: Optional[str] = None
        supervisor = Supervisor(
            self.settings, self.workers, specs=self._specs,
            unit_wall=self.unit_wall,
            max_crashes=self.max_worker_crashes,
            events=self._on_supervision_event,
            stop_check=self._stop_requested)
        units = {(key, unit.name): unit for key, unit in pending}
        outcomes = supervisor.run(
            [(key, unit.name) for key, unit in pending])
        try:
            for outcome in outcomes:
                deadline_hit = self._deadline_hit()
                if deadline_hit is not None:
                    break
                if outcome.kind == "fatal":
                    self._journal_failed_fatal(journal, outcome.record)
                    print(outcome.extras.get("traceback", ""),
                          end="", file=sys.stderr)
                    raise CampaignError(
                        f"fatal error in unit {outcome.experiment}:"
                        f"{outcome.unit_name}: "
                        f"{outcome.record['error']['reason']}")
                unit = units[(outcome.experiment, outcome.unit_name)]
                self._commit(journal, outcome.experiment, unit,
                             outcome.record, outcome.wall,
                             outcome.extras, attempts=outcome.attempts,
                             worker=outcome.worker)
                executed += 1
                self._crash_if_injected(executed)
        finally:
            outcomes.close()
        if (self._stop_requested() and deadline_hit is None
                and executed < len(pending)):
            # The supervisor drained with units still uncommitted:
            # they stay missing, i.e. resumable.  (A stop that landed
            # after the last commit drained nothing — the campaign is
            # simply complete.)
            self._drained = True
        return deadline_hit

    # ------------------------------------------------------------------
    # Assembly (always from the journal — the durable source of truth)
    # ------------------------------------------------------------------

    def _finish(self, units_by_exp, resumed: int, discarded: int,
                deadline_hit: Optional[str]) -> CampaignReport:
        records, _ = Journal.load(self.journal_path)
        latest: Dict[Tuple[str, str], Dict] = {}
        for rec in records:
            if rec.get("type") == "unit":
                latest[(rec["experiment"], rec["unit"])] = rec

        counts, degradation = fold_records(units_by_exp, latest)
        degradation.resumed = resumed
        tables = self._assemble(units_by_exp, latest)
        from .atomicio import replace_text

        replace_text(self.tables_path, tables)
        self._write_metrics(counts)
        return CampaignReport(
            run_dir=self.run_dir,
            journal_path=self.journal_path,
            tables_path=self.tables_path,
            tables=tables,
            counts=counts,
            degradation=degradation,
            discarded_journal_lines=discarded,
            deadline_hit=deadline_hit,
        )

    def _write_metrics(self, counts: Dict[str, int]) -> None:
        """Flush the run's metrics to the ``metrics.json`` sidecar.

        Split into a ``deterministic`` section (identical between
        serial and ``--workers N`` runs of the same campaign) and a
        ``wall`` section (timing-derived, varies run to run).  Covers
        the units executed *by this invocation* — a resumed campaign's
        metrics describe the resumed units only.
        """
        for status, count in sorted(counts.items()):
            if status != "total" and count:
                self._metrics_det.counter(
                    "campaign_units_total", status=status).inc(count)
        if self._wall_total > 0:
            self._metrics_wall.gauge("campaign_wall_seconds").set(
                round(self._wall_total, 3))
            self._metrics_wall.gauge("campaign_events_per_second").set(
                round(self._steps_total / self._wall_total, 1))
        from .atomicio import replace_json

        try:
            replace_json(os.path.join(self.run_dir, "metrics.json"), {
                "deterministic": self._metrics_det.snapshot(),
                "wall": self._metrics_wall.snapshot(),
            })
        except OSError as exc:
            self._sidecar_error("metrics", exc)

    def _assemble(self, units_by_exp, latest) -> str:
        sections = [render_section(module.CAMPAIGN, key, units_by_exp[key],
                                   latest)
                    for key, module in self.registry.items()]
        return "\n\n".join(sections) + "\n"


def fold_records(units_by_exp: Mapping[str, Sequence[Unit]],
                 latest: Mapping[Tuple[str, str], Dict]):
    """``(counts, degradation)`` of the units' latest records.

    *counts* tallies units by status (``missing`` for a unit without
    a record); the :class:`~repro.experiments.common.Degradation`
    gathers timeouts, failures, quarantines and each payload's retries
    and errors, which ``repro campaign`` and ``repro experiment`` print
    with its ``describe()``.
    """
    from ..experiments.common import Degradation

    counts = {"total": 0, "ok": 0, "degraded": 0, "timeout": 0,
              "failed": 0, "quarantined": 0, "missing": 0}
    degradation = Degradation()
    for key, units in units_by_exp.items():
        for unit in units:
            counts["total"] += 1
            rec = latest.get((key, unit.name))
            if rec is None:
                counts["missing"] += 1
                continue
            counts[rec["status"]] += 1
            if rec["status"] == "timeout":
                degradation.record_timeout(TimeoutDegradation(
                    unit=f"{key}:{unit.name}",
                    kind=rec["timeout"]["kind"],
                    detail=rec["timeout"]["detail"]))
            elif rec["status"] == "failed":
                degradation.record_error(f"{key}:{unit.name}",
                                         rec["error"]["reason"])
            elif rec["status"] == QUARANTINED:
                degradation.record_quarantine(
                    f"{key}:{unit.name}", rec["error"]["reason"])
            else:
                payload = rec["payload"]
                degradation.retries += payload.get("retries", 0)
                for unit_name, reason in payload.get("errors", ()):
                    degradation.record_error(unit_name, reason)
    return counts, degradation


def render_section(spec, key: str, units: Sequence[Unit],
                   latest: Mapping[Tuple[str, str], Dict]) -> str:
    """Experiment *key*'s table from its units' journal records.

    *latest* maps ``(key, unit name)`` to the unit's last record, with
    its payload as the journal stores it; a unit without one renders
    as not run.  ``tables.txt`` joins one section per experiment, and
    ``repro experiment`` prints one.
    """
    from ..experiments.common import format_table

    headers = list(spec.headers)
    rows: List[List] = []
    for unit in units:
        rec = latest.get((key, unit.name))
        if rec is None:
            rows.append(_pad([unit.name, "(not run)"], headers))
        elif rec["status"] == "timeout":
            rows.append(_pad(
                [unit.name, f"(timeout: {rec['timeout']['detail']})"],
                headers))
        elif rec["status"] == "failed":
            rows.append(_pad(
                [unit.name, f"(failed: {rec['error']['reason']})"],
                headers))
        elif rec["status"] == QUARANTINED:
            rows.append(_pad(
                [unit.name, f"(quarantined: {rec['error']['reason']})"],
                headers))
        else:
            rows.extend(rec["payload"]["rows"])
    section = format_table(headers, rows, title=spec.title)
    if spec.footer:
        section += "\n" + spec.footer
    return section


def _pad(row: List, headers: List[str]) -> List:
    return row + ["-"] * (len(headers) - len(row))
