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

A respawn budget bounds pathological crash loops (a broken
``worker_initializer`` would otherwise respawn forever); exceeding it
raises :class:`~repro.runner.errors.CampaignError` with the crash
history intact in the sidecars.  Deadline kills do not draw on it: a
hard timeout is a final outcome, so they are bounded by the number of
units.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import os
import signal
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import (Deque, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from .errors import POISON, QUARANTINED, CampaignError
from .parallel import run_unit_task, worker_initializer

#: How long the commit loop blocks waiting for results per iteration;
#: also the granularity of death/deadline checks.
POLL_INTERVAL = 0.05

#: Worker exit code for "died of MemoryError outside a unit" (e.g. a
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
#: ``min(cap, base * 2**(crashes-1))`` seconds.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0

#: Grace added to ``unit_wall`` before the hard kill: the clock starts
#: at dispatch, before the worker has imported the experiments and
#: built the unit's world.
HARD_GRACE = 2.0

#: How long to wait for a worker to die after ``kill()``.
JOIN_TIMEOUT = 5.0


def quarantine_record(experiment: str, unit_name: str,
                      crashes: int) -> Dict:
    """The durable journal record for a poison unit.

    Deterministic given the crash count — no signals, pids or walls —
    so runs that quarantine the same unit after the same number of
    attempts journal identical bytes at any worker count.
    """
    return {
        "type": "unit", "experiment": experiment, "unit": unit_name,
        "payload": None,
        "error": {
            "category": POISON,
            "reason": f"crashed {crashes} consecutive worker "
                      f"attempt(s); quarantined",
        },
        "timeout": None, "status": QUARANTINED, "steps": None,
    }


def hard_timeout_record(experiment: str, unit_name: str,
                        unit_wall: float) -> Dict:
    """The journal record for a hard (worker-killed) unit timeout.

    The detail names the budget, never the elapsed time; ``steps`` is
    ``None`` because a SIGKILLed worker cannot report its event count
    (forensics live in the supervision sidecar).
    """
    return {
        "type": "unit", "experiment": experiment, "unit": unit_name,
        "payload": None, "error": None,
        "timeout": {
            "kind": "unit-wall",
            "detail": f"unit exceeded {unit_wall:g}s wall budget",
        },
        "status": "timeout", "steps": None,
    }


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
    """Worker process body: initialize once, then serve tasks forever.

    Tasks arrive and results return on the worker's **own duplex
    pipe** — deliberately not a shared queue.  A queue shared by all
    workers has a write lock; a worker SIGKILLed while its feeder
    thread holds it wedges every other worker's results forever.  With
    per-worker pipes a killed worker can only corrupt its own channel,
    which the supervisor already treats as a crash.

    Anything escaping :func:`run_unit_task` is folded into an in-band
    fatal result — except ``MemoryError`` outside a unit, where the
    interpreter's heap can no longer be trusted, so the worker dies
    with :data:`EXIT_MEMORY` and lets the supervisor attribute it.

    SIGINT is ignored: Ctrl-C reaches the terminal's whole process
    group, and the parent owns the drain — it stops dispatching and
    commits the units its workers finish.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     daemon=True, name="repro-parent-watch").start()
    worker_initializer(settings, specs)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        index, experiment, unit_name, attempt = task
        try:
            record, wall, extras, kind = run_unit_task(
                experiment, unit_name, attempt=attempt)
        except MemoryError:
            os._exit(EXIT_MEMORY)
        except BaseException as exc:
            record = {
                "type": "unit", "experiment": experiment,
                "unit": unit_name, "payload": None,
                "error": {"category": "fatal",
                          "reason": f"{type(exc).__name__}: {exc}"},
                "timeout": None, "status": "failed", "steps": None,
            }
            wall, kind = 0.0, "fatal"
            extras = _empty_extras()
            extras["traceback"] = traceback.format_exc()
        try:
            conn.send((index, attempt, record, wall, extras, kind))
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:  # pragma: no cover - teardown race
        pass


class Supervisor:
    """Run campaign units on a self-healing pool of worker processes.

    :meth:`run` is a generator yielding one :class:`TaskOutcome` per
    task **in canonical (submission) order** — exactly what the
    campaign's journal-commit loop needs.  Closing the generator (or
    exhausting it) shuts the pool down.

    ``events`` is an optional :class:`~repro.obs.trace.TraceBus`; the
    supervisor emits ``worker-crash`` / ``unit-retry`` /
    ``unit-quarantined`` / ``unit-hard-timeout`` / ``worker-spawn``
    events onto it with wall-relative timestamps.

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
                 backoff_cap: float = DEFAULT_BACKOFF_CAP,
                 max_respawns: Optional[int] = None,
                 events=None,
                 stop_check=None,
                 clock=time.monotonic) -> None:
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        if max_crashes < 1:
            raise CampaignError(
                f"max_crashes must be >= 1, got {max_crashes}")
        self.settings = settings
        self.workers = workers
        self.specs = specs
        self.unit_wall = unit_wall
        self.max_crashes = max_crashes
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_spawns = workers + (
            max_respawns if max_respawns is not None
            else max(8, 4 * workers))
        self._events = events
        #: Polled once per scheduling round; when it returns true the
        #: supervisor drains itself (see :meth:`drain`).
        self._stop_check = stop_check
        self._draining = False
        self._clock = clock
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
        self._start_time = self._clock()
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
        now = self._clock()
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
            slot.task = (index, attempt, self._clock())

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
            # The worker survived, but a MemoryError mid-unit leaves
            # its heap suspect — retire the process and route the
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
                               wall=self._clock() - dispatched_at)

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
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (crashes - 1)))
        self._waiting.append((self._clock() + delay, index, attempt + 1))
        self._emit("unit-retry", unit=unit_key, attempt=attempt + 1,
                   delay=round(delay, 3))

    def _enforce_deadlines(self) -> None:
        """Hard ``unit_wall``: SIGKILL workers past the budget."""
        if self.unit_wall is None:
            return
        now = self._clock()
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
            self._events.emit(kind, self._clock() - self._start_time,
                              **fields)
