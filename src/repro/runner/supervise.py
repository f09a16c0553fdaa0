"""Self-healing supervision for campaign workers.

Every campaign unit runs in a supervised worker process — ``--workers
1`` is a one-worker pool — so a unit can never take the campaign
process down with it, and the same crash, retry and quarantine rules
apply at every worker count.  The campaign methodology (multi-week
sweeps across nine ISPs) only reproduces on infrastructure that
degrades instead of dying, so the pool is built for that:

* **Worker supervision.**  Each worker is a dedicated process with its
  own command pipe; the :class:`Supervisor` knows exactly which unit
  (and which attempt) every worker is running.  A worker that dies is
  detected (``is_alive``/exitcode — the loss is contained to that one
  worker), its unit is re-dispatched with bounded exponential backoff,
  and the pool is topped back up while some unit still waits for a
  worker.

* **Poison-unit quarantine.**  A unit that crashes its worker
  :attr:`~Supervisor.max_crashes` times (default 2) — or repeatedly
  blows the per-worker memory budget — is journaled with the durable
  ``quarantined`` status and the campaign continues.  Quarantined
  units are never re-run on resume; they render as explicit rows in
  the tables and the run report.

* **Hard deadline enforcement.**  The supervisor alone enforces
  ``unit_wall`` (``--unit-deadline``).  Because every unit runs in an
  expendable worker, it does so *non-cooperatively*: a worker still
  busy :data:`HARD_GRACE` seconds past the budget is SIGKILLed and the
  unit journaled as a ``timeout`` — whether it was simulating or
  spinning in pure Python.

* **Determinism.**  Records are produced by deterministic unit
  executions and committed by the campaign in canonical order, so a
  kill-riddled ``--workers 4`` run commits a journal and tables
  byte-identical to an undisturbed ``--workers 1`` run.  Everything
  nondeterministic — attempts, worker ids, walls, crash reasons —
  rides the ``timings.jsonl`` / ``supervision.jsonl`` sidecars and the
  wall-half metrics, never the journal.

A respawn budget bounds pathological crash loops (a worker that dies
before its first task would otherwise respawn forever); exceeding it
raises :class:`~repro.runner.errors.CampaignError` with the crash
history intact in the sidecars.  Deadline kills do not draw on it: a
hard timeout is a final outcome, so they are bounded by the number of
units.

The pool's sizes and budgets are the campaign's to check
(:class:`~repro.runner.campaign.Campaign`); a supervisor trusts them.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import multiprocessing
import os
import signal
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import (Callable, Deque, Dict, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from ..obs.trace import TIME_DECIMALS
from . import parallel
from .errors import FATAL, POISON, QUARANTINED, CampaignError
from .parallel import out_of_memory, unit_record
from .units import Unit

#: How long the commit loop blocks waiting for results per iteration;
#: also the granularity of death/deadline checks.
POLL_INTERVAL = 0.05

#: Worker exit code for "ran out of memory outside a unit" (e.g. a
#: world build under a memory budget); distinguishable from signals.
EXIT_MEMORY = 43

#: Worker exit code for "the supervisor died first".
EXIT_ORPHANED = 44

#: How often a worker checks that its supervisor is still alive.
PARENT_POLL = 0.5

#: Crashes (worker deaths or poison failures) a unit is allowed before
#: it is quarantined.
DEFAULT_MAX_CRASHES = 2

#: Exponential backoff before re-dispatching a crashed unit:
#: ``min(BACKOFF_CAP, base * 2**(crashes-1))`` seconds.
DEFAULT_BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Grace added to ``unit_wall`` before the hard kill: the clock starts
#: at dispatch, before the worker has imported the experiments and
#: built the unit's world.
HARD_GRACE = 2.0

#: How long to wait for a worker to die after ``kill()``.
JOIN_TIMEOUT = 5.0

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


def quarantine_record(experiment: str, unit_name: str,
                      crashes: int) -> Dict:
    """The durable journal record for a poison unit.

    Deterministic given the crash count — no signals, pids or walls —
    so runs that quarantine the same unit after the same number of
    attempts journal identical bytes at any worker count.
    """
    return unit_record(experiment, unit_name, QUARANTINED, error={
        "category": POISON,
        "reason": f"crashed {crashes} consecutive worker "
                  f"attempt(s); quarantined",
    })


def hard_timeout_record(experiment: str, unit_name: str,
                        unit_wall: float) -> Dict:
    """The journal record for a hard (worker-killed) unit timeout.

    The detail names the budget, never the elapsed time; ``steps`` is
    ``None`` because a SIGKILLed worker cannot report its event count
    (forensics live in the supervision sidecar).
    """
    return unit_record(experiment, unit_name, "timeout", timeout={
        "kind": "unit-wall",
        "detail": f"unit exceeded {unit_wall:g}s wall budget",
    })


@dataclasses.dataclass
class TaskOutcome:
    """One unit's final result, in canonical-commit form."""

    index: int
    experiment: str
    unit_name: str
    record: Dict
    wall: float
    extras: Dict
    #: ``None`` for committable outcomes, ``"fatal"`` when the campaign
    #: must journal the record and abort (``extras["traceback"]`` then
    #: says why, for stderr only).
    kind: Optional[str]
    #: Which attempt produced the record (1 = first try).
    attempts: int
    #: Supervisor worker id that ran the final attempt (``None`` when
    #: no worker produced the record, e.g. quarantine/hard timeout).
    worker: Optional[int]


class _Slot:
    """One supervised worker process and what it is doing right now."""

    __slots__ = ("worker_id", "process", "conn", "task")

    def __init__(self, worker_id, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        #: ``(index, attempt, dispatched_at)`` or ``None`` when idle.
        self.task: Optional[Tuple[int, int, float]] = None


def _empty_extras() -> Dict:
    return {"metrics": None, "trace": None}


def _exit_with_parent(parent_pid: int) -> None:
    """Worker-side watch: exit once the supervisor is gone.

    A SIGKILLed supervisor never closes its pipe ends, and every fork
    copied them into later workers (under ``repro serve``, into other
    campaigns' workers too), so ``conn.recv()`` would never see EOF and
    a ``conn.send()`` could block forever.  The watch runs beside the
    worker's main thread, so it fires whether the worker is idle,
    mid-unit or mid-send.

    Two signs cover every start method.  Under ``fork`` and ``spawn``
    ``parent_pid``, the worker's OS parent when it started, is the
    supervisor, and the worker is reparented when it dies.  Under
    ``forkserver`` the OS parent is the server, which its children
    keep alive, so the worker watches instead the pipe its creator
    holds open (``parent_process().is_alive()``).  That pipe alone
    does not do under ``fork``: later workers inherit its write end.
    """
    creator = multiprocessing.parent_process()
    while os.getppid() == parent_pid and creator.is_alive():
        time.sleep(PARENT_POLL)
    os._exit(EXIT_ORPHANED)


def _worker_main(settings, conn, specs=None) -> None:
    """Worker process body: set up once, then serve tasks forever.

    Tasks arrive and results return on the worker's **own duplex
    pipe** — deliberately not a shared queue.  A queue shared by all
    workers has a write lock; a worker SIGKILLed while its feeder
    thread holds it wedges every other worker's results forever.  With
    per-worker pipes a killed worker can only corrupt its own channel,
    which the supervisor already treats as a crash.

    The worker's state is its locals: *settings*, the ad-hoc spec
    modules (*specs*; ``None`` = the registry), the units resolved so far
    (each experiment's ``units()`` is asked once, at its first task)
    and the chaos plans, parsed once because the environment never
    changes underneath a worker.  Each task looks
    :func:`~repro.runner.parallel.execute_unit` up on its module, and
    each experiment's ``units()`` on the experiment's module, so a
    wrapper installed there (a profiler's, say) sees every unit.

    Anything escaping a task is folded into an in-band fatal result —
    except a failed allocation outside a unit
    (:func:`~repro.runner.parallel.out_of_memory`), where the
    interpreter's heap can no longer be trusted, so the worker dies
    with :data:`EXIT_MEMORY` and lets the supervisor attribute it.
    A failed allocation while the result is pickled onto the pipe
    ends the worker the same way.

    One unit's world at a time: a finished unit's world is cyclic
    garbage, so once its result is down the pipe the worker collects
    it before taking the next task.  The heap the worker starts with,
    the imported program, is frozen first (``gc.freeze``), so neither
    these collections nor the automatic ones rescan it.

    SIGINT is ignored: Ctrl-C reaches the terminal's whole process
    group, and the parent owns the drain — it stops dispatching and
    commits the units its workers finish.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     daemon=True, name="repro-parent-watch").start()
    _apply_memory_limit(settings.memory_limit_mb)
    resolved: Dict[str, Dict[str, Unit]] = {}
    plans = {env: _parse_chaos_plan(os.environ.get(env, ""))
             for env in (KILL_ENV, HANG_ENV)}
    gc.freeze()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        index, experiment, unit_name, attempt = task
        try:
            _apply_chaos(plans, experiment, unit_name, attempt)
            unit = _resolve_unit(specs, resolved, experiment, unit_name)
            record, wall, extras, kind = parallel.execute_unit(
                settings, experiment, unit)
        except BaseException as exc:
            if out_of_memory(exc, settings):
                os._exit(EXIT_MEMORY)
            record = unit_record(experiment, unit_name, "failed", error={
                "category": FATAL,
                "reason": f"{type(exc).__name__}: {exc}"})
            wall, kind = 0.0, FATAL
            extras = _empty_extras()
            extras["traceback"] = traceback.format_exc()
        try:
            conn.send((index, attempt, record, wall, extras, kind))
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:
            if out_of_memory(exc, settings):
                os._exit(EXIT_MEMORY)
            raise
        del record, extras
        gc.collect()
    try:
        conn.close()
    except OSError:  # pragma: no cover - teardown race
        pass


def _apply_memory_limit(limit_mb: Optional[int]) -> None:
    """Cap this worker's data memory (best effort, POSIX only).

    ``RLIMIT_DATA`` bounds the heap and the private writable mappings,
    which is what a unit's allocations grow; since Linux 4.7 it covers
    anonymous ``mmap`` too.  Address space (``RLIMIT_AS``) would also
    count what the worker only reserves — the 64 MB malloc arena and
    8 MB stack its parent-watch thread maps before the limit applies —
    so a 70 MB budget would leave almost nothing for a worker whose
    resident set stays near 26 MB.  Only workers apply it, so the
    campaign's own process is never capped.
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


def _apply_chaos(plans: Mapping[str, Dict[str, Optional[frozenset]]],
                 experiment: str, unit_name: str, attempt: int) -> None:
    """Kill or wedge this worker where a chaos plan says so."""

    def planned(env: str) -> bool:
        attempts = plans[env].get(f"{experiment}/{unit_name}", frozenset())
        return attempts is None or attempt in attempts

    if planned(KILL_ENV):
        os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))
    if planned(HANG_ENV):
        # Pure-Python spin: no simulated events, so no event limit
        # can interrupt it — only a hard deadline kill can.
        deadline = time.monotonic() + HANG_SPIN_LIMIT
        while time.monotonic() < deadline:
            pass


def _resolve_unit(specs: Optional[Mapping[str, object]],
                  resolved: Dict[str, Dict[str, Unit]],
                  experiment: str, unit_name: str) -> Unit:
    """The unit *unit_name* of *experiment*, from the spec modules or
    else the experiment registry, asking the module's ``units()`` on
    the experiment's first task only."""
    by_name = resolved.get(experiment)
    if by_name is None:
        modules = specs
        if modules is None:
            from ..experiments import EXPERIMENT_MODULES as modules
        module = modules.get(experiment)
        if module is None:
            raise CampaignError(f"worker: unknown experiment "
                                f"{experiment!r}")
        by_name = resolved[experiment] = {
            unit.name: unit for unit in module.units()}
    unit = by_name.get(unit_name)
    if unit is None:
        raise CampaignError(
            f"worker: experiment {experiment!r} has no unit "
            f"{unit_name!r}")
    return unit


class Supervisor:
    """Run campaign units on a self-healing pool of worker processes.

    :meth:`run` is a generator yielding one :class:`TaskOutcome` per
    task **in canonical (submission) order** — exactly what the
    campaign's journal-commit loop needs.  Closing the generator (or
    exhausting it) shuts the pool down.

    ``events`` is an optional callback; the supervisor calls it with
    each ``worker-crash`` / ``unit-retry`` / ``unit-quarantined`` /
    ``unit-hard-timeout`` / ``worker-spawn`` event, a dict of ``t``
    (seconds since :meth:`run` began), ``kind`` and the event's fields.

    ``specs`` maps experiment names to ad-hoc spec modules that
    replace the experiment registry in the workers.  It is handed over
    once per spawn: under ``fork`` anything goes, while ``spawn`` and
    ``forkserver`` must pickle it.
    """

    def __init__(self, settings, workers: int, *,
                 specs: Optional[Mapping[str, object]] = None,
                 unit_wall: Optional[float] = None,
                 max_crashes: int = DEFAULT_MAX_CRASHES,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 max_respawns: Optional[int] = None,
                 events: Optional[Callable[[Dict], None]] = None,
                 stop_check=None) -> None:
        self.settings = settings
        self.workers = workers
        self.specs = specs
        self.unit_wall = unit_wall
        self.max_crashes = max_crashes
        self.backoff_base = backoff_base
        self.max_spawns = workers + (
            max_respawns if max_respawns is not None
            else max(8, 4 * workers))
        self._events = events
        #: Polled once per scheduling round; when it returns true the
        #: supervisor drains itself (see :meth:`drain`).
        self._stop_check = stop_check
        self._draining = False
        self._ctx = multiprocessing.get_context()
        self._slots: List[_Slot] = []
        self._next_worker_id = 0
        self._spawned = 0
        self._start_time = 0.0
        self._tasks: List[Tuple[str, str]] = []
        self._crashes: Dict[int, int] = collections.defaultdict(int)
        self._done: Dict[int, TaskOutcome] = {}
        self._ready: Deque[Tuple[int, int]] = collections.deque()
        #: Backoff-delayed retries: ``(not_before, index, attempt)``.
        self._waiting: List[Tuple[float, int, int]] = []

    # ------------------------------------------------------------------
    # The supervised run
    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[Tuple[str, str]]
            ) -> Iterator[TaskOutcome]:
        """Execute ``(experiment, unit_name)`` pairs; yield outcomes in
        the same order, surviving worker deaths along the way."""
        self._tasks = list(tasks)
        if not self._tasks:
            return
        self._start_time = time.monotonic()
        self._ready = collections.deque(
            (index, 1) for index in range(len(self._tasks)))
        try:
            for _ in range(min(self.workers, len(self._tasks))):
                self._spawn(initial=True)
            next_commit = 0
            while next_commit < len(self._tasks):
                if next_commit in self._done:
                    yield self._done.pop(next_commit)
                    next_commit += 1
                    continue
                if (not self._draining and self._stop_check is not None
                        and self._stop_check()):
                    self.drain()
                if self._draining and not self._inflight(next_commit):
                    # Nothing that could still produce the next
                    # canonical outcome is running: the drain is done.
                    # Later in-flight results (if any) are discarded —
                    # committing them out of order would fork the
                    # journal bytes from a serial run's.
                    break
                self._promote_waiting()
                self._dispatch()
                self._drain()
                self._reap_dead()
                self._enforce_deadlines()
        finally:
            self._shutdown()

    def drain(self) -> None:
        """Graceful stop: dispatch nothing new, let in-flight finish.

        Queued work and pending backoff retries are dropped (their
        units stay un-journaled, hence resumable); units already on a
        worker run to completion and are yielded if they are still
        next in canonical order.  Idempotent; also triggered by the
        ``stop_check`` hook between scheduling rounds.
        """
        self._draining = True
        self._ready.clear()
        self._waiting = []

    def _inflight(self, index: int) -> bool:
        """Is task *index* currently executing on a live worker?"""
        return any(slot.task is not None and slot.task[0] == index
                   for slot in self._slots)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _promote_waiting(self) -> None:
        """Move backoff-expired retries to the front of the queue."""
        if not self._waiting:
            return
        now = time.monotonic()
        still: List[Tuple[float, int, int]] = []
        for not_before, index, attempt in self._waiting:
            if not_before <= now:
                self._ready.appendleft((index, attempt))
            else:
                still.append((not_before, index, attempt))
        self._waiting = still

    def _dispatch(self) -> None:
        if self._draining:
            return
        self._top_up()
        for slot in self._slots:
            if not self._ready:
                return
            if slot.task is not None or not slot.process.is_alive():
                continue
            index, attempt = self._ready.popleft()
            experiment, unit_name = self._tasks[index]
            try:
                slot.conn.send((index, experiment, unit_name, attempt))
            except (BrokenPipeError, OSError):
                # Worker died between liveness check and send; requeue
                # and let _reap_dead retire the slot.
                self._ready.appendleft((index, attempt))
                continue
            slot.task = (index, attempt, time.monotonic())

    def _drain(self) -> None:
        """Collect results from every worker pipe that has one.

        Blocks up to :data:`POLL_INTERVAL` — on the busy workers'
        connections when any exist (a dead worker's pipe reports
        readable-at-EOF, so a crash also wakes the wait), otherwise a
        plain sleep so backoff/retry loops don't spin hot.
        """
        busy = [slot for slot in self._slots if slot.task is not None]
        if not busy:
            if not self._ready:
                time.sleep(POLL_INTERVAL)
            return
        readable = mp_connection.wait([slot.conn for slot in busy],
                                      timeout=POLL_INTERVAL)
        for slot in busy:
            if slot.conn not in readable:
                continue
            try:
                item = slot.conn.recv()
            except (EOFError, OSError):
                # Worker died; possibly mid-send.  Leave attribution
                # to _reap_dead, which sees the dead process.
                continue
            self._handle_result(slot, *item)

    def _handle_result(self, slot: _Slot, index, attempt, record, wall,
                       extras, kind) -> None:
        if (slot.task is None
                or slot.task[0] != index or slot.task[1] != attempt):
            # Stale: the unit was re-routed (deadline kill raced the
            # result).  Dropping it keeps outcomes unique.
            return
        slot.task = None
        if kind == "poison":
            # The worker survived, but a failed allocation mid-unit
            # leaves its heap suspect — retire the process and route the
            # unit through the same retry/quarantine path as a death.
            self._retire(slot)
            self._record_crash(index, attempt,
                               reason=record["error"]["reason"])
            return
        experiment, unit_name = self._tasks[index]
        self._done[index] = TaskOutcome(
            index=index, experiment=experiment, unit_name=unit_name,
            record=record, wall=wall, extras=extras, kind=kind,
            attempts=attempt, worker=slot.worker_id)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def _reap_dead(self) -> None:
        """Detect dead workers and attribute their crashes."""
        for slot in list(self._slots):
            if slot.process.is_alive():
                continue
            task = slot.task
            exitcode = slot.process.exitcode
            self._retire(slot, kill=False)
            if task is None:
                continue  # died idle: nothing to attribute
            index, attempt, dispatched_at = task
            if exitcode == EXIT_MEMORY:
                reason = "memory budget exceeded"
            elif exitcode is not None and exitcode < 0:
                reason = f"killed by signal {-exitcode}"
            else:
                reason = f"exited with status {exitcode}"
            self._record_crash(index, attempt, reason=reason,
                               wall=time.monotonic() - dispatched_at)

    def _record_crash(self, index: int, attempt: int, reason: str,
                      wall: Optional[float] = None) -> None:
        """One lost attempt: retry with backoff or quarantine."""
        self._crashes[index] += 1
        crashes = self._crashes[index]
        experiment, unit_name = self._tasks[index]
        unit_key = f"{experiment}/{unit_name}"
        self._emit("worker-crash", unit=unit_key, attempt=attempt,
                   reason=reason)
        if crashes >= self.max_crashes:
            self._done[index] = TaskOutcome(
                index=index, experiment=experiment, unit_name=unit_name,
                record=quarantine_record(experiment, unit_name, crashes),
                wall=wall or 0.0, extras=_empty_extras(), kind=None,
                attempts=attempt, worker=None)
            self._emit("unit-quarantined", unit=unit_key,
                       crashes=crashes)
            return
        delay = min(BACKOFF_CAP,
                    self.backoff_base * (2 ** (crashes - 1)))
        self._waiting.append((time.monotonic() + delay, index, attempt + 1))
        self._emit("unit-retry", unit=unit_key, attempt=attempt + 1,
                   delay=round(delay, 3))

    def _enforce_deadlines(self) -> None:
        """Hard ``unit_wall``: SIGKILL workers past the budget."""
        if self.unit_wall is None:
            return
        now = time.monotonic()
        limit = self.unit_wall + HARD_GRACE
        for slot in list(self._slots):
            if slot.task is None:
                continue
            index, attempt, dispatched_at = slot.task
            if now - dispatched_at <= limit:
                continue
            worker_id = slot.worker_id
            slot.task = None  # consumed: a late result is stale
            self._retire(slot)
            # A hard timeout is final, not a crash: the respawn it may
            # cause does not draw on the crash-loop budget.
            self.max_spawns += 1
            experiment, unit_name = self._tasks[index]
            self._done[index] = TaskOutcome(
                index=index, experiment=experiment, unit_name=unit_name,
                record=hard_timeout_record(experiment, unit_name,
                                           self.unit_wall),
                wall=now - dispatched_at, extras=_empty_extras(),
                kind=None, attempts=attempt, worker=worker_id)
            self._emit("unit-hard-timeout",
                       unit=f"{experiment}/{unit_name}",
                       budget=self.unit_wall, attempt=attempt)

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------

    def _top_up(self) -> None:
        """Replace lost workers while some unit still needs one.

        A unit needs a worker while it is queued or waiting out a
        backoff; once neither holds, a dead or killed worker is not
        replaced, so no process starts only to be shut down.
        """
        if not (self._ready or self._waiting):
            return
        while len(self._slots) < min(self.workers, len(self._tasks)):
            self._spawn()

    def _spawn(self, initial: bool = False) -> _Slot:
        if self._spawned >= self.max_spawns:
            raise CampaignError(
                f"worker pool unstable: exhausted the spawn budget "
                f"({self.max_spawns} worker processes) — see "
                f"supervision.jsonl for the crash history")
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.settings, child_conn, self.specs),
            daemon=True, name=f"repro-campaign-worker-{worker_id}")
        process.start()
        child_conn.close()
        slot = _Slot(worker_id, process, parent_conn)
        self._slots.append(slot)
        self._spawned += 1
        if not initial:
            self._emit("worker-spawn", worker=worker_id,
                       pid=process.pid)
        return slot

    def _retire(self, slot: _Slot, kill: bool = True) -> None:
        try:
            self._slots.remove(slot)
        except ValueError:  # pragma: no cover - defensive
            pass
        try:
            slot.conn.close()
        except OSError:  # pragma: no cover - teardown race
            pass
        if kill and slot.process.is_alive():
            slot.process.kill()
        slot.process.join(JOIN_TIMEOUT)

    def _shutdown(self) -> None:
        for slot in self._slots:
            try:
                slot.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 1.0
        for slot in self._slots:
            slot.process.join(max(0.0, deadline - time.monotonic()))
        for slot in self._slots:
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(JOIN_TIMEOUT)
            try:
                slot.conn.close()
            except OSError:  # pragma: no cover - teardown race
                pass
        self._slots.clear()

    def _emit(self, kind: str, **fields) -> None:
        if self._events is not None:
            t = round(time.monotonic() - self._start_time, TIME_DECIMALS)
            self._events({"t": t, "kind": kind, **fields})
