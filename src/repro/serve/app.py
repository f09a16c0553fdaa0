"""The ``repro serve`` daemon: HTTP front, campaign threads behind.

Concurrency model — three layers, one seam each:

* an **asyncio loop** owns the listening socket, request parsing,
  SSE streams, signal handlers, and all scheduler state mutation;
* each *running* campaign occupies one **thread** executing the
  ordinary :class:`~repro.runner.campaign.Campaign` commit loop — unit
  execution itself happens in the campaign's supervised worker
  *processes* (:mod:`repro.runner.supervise`), never in this process,
  so a unit that crashes or hangs costs its campaign a worker, never
  the daemon;
* campaign threads talk back only through two thread-safe channels:
  the :class:`~repro.obs.live.LiveFeed` (events) and
  ``loop.call_soon_threadsafe`` (completion).

Crash safety is delegated downward on purpose: submissions are
durably spooled before they are acknowledged (:mod:`.recovery`), the
journal is fsynced per unit (:mod:`repro.runner.journal`), and boot
recovery replays the spool — so the daemon itself holds **no state
worth saving** and SIGKILL costs at most the units in flight.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
import socket
import threading
from typing import Dict, List, Optional, Tuple

from ..obs.live import LiveFeed
from . import health, sse
from .recovery import CampaignJob, Spool
from .scheduler import AdmissionError, FairScheduler
from .tenants import TenantConfig

#: The :class:`~repro.runner.campaign.Campaign` options a submission
#: may set besides the run settings
#: (:class:`~repro.runner.parallel.UnitSettings`); any other body field
#: is a 400.
CAMPAIGN_OPTIONS = ("experiments", "unit_wall", "workers",
                    "max_worker_crashes")

#: Request bodies past this are rejected (413) without reading.
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclasses.dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to boot."""

    tenants: Dict[str, TenantConfig]
    host: str = "127.0.0.1"
    port: int = 8437
    spool: str = "serve-spool"
    #: Total worker-slot budget shared by all tenants.
    slots: int = 2
    #: Worker slots a submission gets when it does not say.
    default_workers: int = 1


@dataclasses.dataclass
class _Running:
    job: CampaignJob
    stop_event: threading.Event
    thread: threading.Thread


class Service:
    """One daemon instance; :meth:`run` is the whole lifecycle."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.spool = Spool(config.spool)
        self.scheduler = FairScheduler(config.tenants, config.slots)
        self.feed = LiveFeed()
        self._running: Dict[Tuple[str, str], _Running] = {}
        self._draining = False
        self._drain_reason: Optional[str] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self.bound_port: Optional[int] = None
        #: Supervision-fed health counters (see :mod:`.health`).
        self._commits = 0
        self._crashes = 0
        self._recovered: List[Dict] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(self) -> int:
        """Boot → recover → serve → drain → exit."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self.spool.ensure(self.config.tenants)
        jobs, finalized = self.spool.recover(self.config.tenants)
        self._recovered = finalized
        for job in jobs:
            self.scheduler.check_tenant(job.tenant).queue.append(job)
            self.feed.publish({"kind": "campaign-recovered",
                               "tenant": job.tenant,
                               "run_id": job.run_id,
                               "resume": job.resume})
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port,
            family=socket.AF_INET)
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._install_fork_guard()
        self._write_endpoint()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self.drain, signal.Signals(signum).name)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # platform (or non-main thread, as in tests)
                # without loop signal support
        print(f"repro serve: listening on "
              f"http://{self.config.host}:{self.bound_port} "
              f"(spool: {self.config.spool}, "
              f"slots: {self.config.slots})", flush=True)
        self._pump()
        await self._stopped.wait()
        self._server.close()
        await self._server.wait_closed()
        self.feed.close()
        print("repro serve: drained, exiting", flush=True)
        return 0

    def _install_fork_guard(self) -> None:
        """Close the listening socket in forked worker processes.

        Supervised workers fork from this process and would otherwise
        inherit the listen fd — after a SIGKILL of the daemon, those
        orphaned workers keep the port half-alive (connects succeed,
        nothing ever answers), wedging the next boot's health probe.
        """
        import os

        server = self._server

        def _close_in_child() -> None:
            try:
                for sock in server.sockets:
                    sock.close()
            except Exception:  # pragma: no cover - child-side, benign
                pass

        try:
            os.register_at_fork(after_in_child=_close_in_child)
        except AttributeError:  # pragma: no cover - non-CPython
            pass

    def _write_endpoint(self) -> None:
        """Advertise the bound address for scripts (port 0 support)."""
        from ..runner.atomicio import replace_json
        import os

        replace_json(os.path.join(self.config.spool, "service.json"),
                     {"host": self.config.host,
                      "port": self.bound_port,
                      "pid": os.getpid()})

    def drain(self, reason: str = "request") -> None:
        """Stop admitting, interrupt queued work, stop running work
        after its in-flight units commit, then exit the serve loop."""
        if self._draining:
            return
        self._draining = True
        self._drain_reason = reason
        self.feed.publish({"kind": "service-drain", "reason": reason})
        for tenant, job in self.scheduler.queued_run_ids():
            self.spool.set_state(job, "interrupted", queued=True,
                                 resume=job.resume)
        for running in self._running.values():
            running.stop_event.set()
        self._maybe_finish_drain()

    def _maybe_finish_drain(self) -> None:
        if self._draining and not self._running:
            if self._stopped is not None:
                self._stopped.set()

    # ------------------------------------------------------------------
    # Scheduling and campaign threads
    # ------------------------------------------------------------------

    def _pump(self) -> None:
        """Dispatch queued campaigns while slots and quotas allow."""
        if self._draining:
            return
        while True:
            picked = self.scheduler.next_job()
            if picked is None:
                return
            tenant, job = picked
            self._start_job(job)

    def _start_job(self, job: CampaignJob) -> None:
        stop_event = threading.Event()
        self.spool.set_state(job, "running", resume=job.resume,
                             slots=job.slots)
        thread = threading.Thread(
            target=self._campaign_worker, args=(job, stop_event),
            name=f"campaign-{job.tenant}-{job.run_id}", daemon=True)
        self._running[(job.tenant, job.run_id)] = _Running(
            job=job, stop_event=stop_event, thread=thread)
        self.feed.publish({"kind": "campaign-dispatched",
                           "tenant": job.tenant, "run_id": job.run_id,
                           "slots": job.slots, "resume": job.resume})
        thread.start()

    def _campaign_worker(self, job: CampaignJob,
                         stop_event: threading.Event) -> None:
        """Thread body: run one campaign, record its fate durably."""
        from ..runner.errors import CampaignError

        outcome: Dict = {"state": "failed"}
        try:
            campaign = _campaign(
                job.submission, run_dir=job.run_dir, resume=job.resume,
                workers=job.slots, stop_event=stop_event,
                on_event=lambda event, _t=job.tenant, _r=job.run_id:
                    self._on_campaign_event(_t, _r, event))
            report = campaign.run()
            if report.drained:
                outcome = {"state": "interrupted", "resume": True}
            elif report.complete:
                outcome = {"state": "complete",
                           "counts": dict(report.counts)}
            else:
                outcome = {"state": "failed", "reason": "incomplete",
                           "counts": dict(report.counts)}
        except CampaignError as exc:
            outcome = {"state": "failed", "reason": str(exc)}
        except Exception as exc:  # noqa: BLE001 - thread boundary
            outcome = {"state": "failed",
                       "reason": f"{type(exc).__name__}: {exc}"}
        try:
            self.spool.set_state(job, outcome["state"],
                                 **{k: v for k, v in outcome.items()
                                    if k != "state"})
        except OSError:
            pass  # spool gone read-only: readiness probe will report it
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                self._job_finished, job, outcome)

    def _on_campaign_event(self, tenant: str, run_id: str,
                           event: Dict) -> None:
        """Campaign-thread callback: tag, count, publish."""
        event = dict(event)
        event["tenant"] = tenant
        event["run_id"] = run_id
        kind = event.get("kind")
        if kind == "unit-committed":
            self._commits += 1
        elif (kind == "supervision"
              and (event.get("event") or {}).get("kind")
              == "worker-crash"):
            self._crashes += 1
        self.feed.publish(event)

    def _job_finished(self, job: CampaignJob, outcome: Dict) -> None:
        """Loop-side completion: free slots, keep the pump going."""
        self._running.pop((job.tenant, job.run_id), None)
        self.scheduler.release(job.tenant, job.slots)
        self.feed.publish({"kind": "campaign-finished",
                           "tenant": job.tenant, "run_id": job.run_id,
                           "state": outcome["state"]})
        self._pump()
        self._maybe_finish_drain()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(self, tenant: str, body: Dict) -> CampaignJob:
        """Validate → spool → queue; raises :class:`AdmissionError`."""
        self.scheduler.check_tenant(tenant)
        if self._draining:
            raise AdmissionError(
                "draining", 503,
                "service is draining — not accepting new campaigns",
                tenant=tenant)
        submission = self._validate_submission(tenant, body)
        # Quota-check before any disk work, so a rejected submission
        # leaves no spool residue; nothing can change the quota state
        # between the check and the enqueue (single-threaded loop).
        self.scheduler.check_submit(tenant, submission["workers"])
        job = self.spool.accept(tenant, submission)
        self.scheduler.submit(tenant, job)
        self.feed.publish({"kind": "campaign-queued", "tenant": tenant,
                           "run_id": job.run_id, "slots": job.slots})
        self._pump()
        return job

    def _validate_submission(self, tenant: str, body: Dict) -> Dict:
        from ..runner.errors import CampaignError
        from ..runner.parallel import UnitSettings

        if not isinstance(body, dict):
            raise AdmissionError(
                "bad-request", 400,
                "submission body must be a JSON object", tenant=tenant)
        allowed = {field.name for field in dataclasses.fields(UnitSettings)}
        unknown = sorted(set(body) - allowed - set(CAMPAIGN_OPTIONS))
        if unknown:
            raise AdmissionError(
                "bad-request", 400,
                f"unknown submission field(s): {', '.join(unknown)}",
                tenant=tenant)
        submission = dict(body)
        if submission.get("workers") is None:
            submission["workers"] = self.config.default_workers
        try:
            # The campaign this submission asks for checks every value
            # it holds; nothing touches the spool until it passes.
            campaign = _campaign(submission)
        except CampaignError as exc:
            raise AdmissionError("bad-request", 400, str(exc),
                                 tenant=tenant)
        submission["workers"] = campaign.workers
        return submission

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                await self._send_json(writer, 400, {
                    "error": "bad-request",
                    "detail": "malformed HTTP request"})
                return
            method, path, body = parsed
            await self._route(method, path, body, writer)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 - keep the loop alive
            try:
                await self._send_json(writer, 500, {
                    "error": "internal",
                    "detail": f"{type(exc).__name__}: {exc}"})
            except OSError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, Dict]]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return None
        method, target = parts[0].upper(), parts[1]
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    return None
        if length > MAX_BODY_BYTES:
            return None
        body: Dict = {}
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                return None
        return method, target.split("?", 1)[0], body

    async def _route(self, method: str, path: str, body: Dict,
                     writer: asyncio.StreamWriter) -> None:
        parts = [p for p in path.split("/") if p]
        try:
            if parts == ["healthz"]:
                await self._send_json(writer, 200, {"status": "ok"})
            elif parts == ["readyz"]:
                ready, components = self._readiness()
                await self._send_json(
                    writer, 200 if ready else 503,
                    {"ready": ready, "components": components})
            elif parts == ["v1", "status"]:
                await self._send_json(writer, 200, self._status())
            elif parts == ["v1", "drain"] and method == "POST":
                self.drain("api")
                await self._send_json(writer, 202, {"draining": True})
            elif parts == ["v1", "events"]:
                await self._stream_events(writer)
            elif (len(parts) == 4 and parts[:2] == ["v1", "tenants"]
                  and parts[3] == "campaigns"):
                await self._campaigns_endpoint(
                    method, parts[2], body, writer)
            elif (len(parts) == 5 and parts[:2] == ["v1", "tenants"]
                  and parts[3] == "campaigns"):
                await self._campaign_detail(parts[2], parts[4], writer)
            elif (len(parts) == 6 and parts[:2] == ["v1", "tenants"]
                  and parts[3] == "campaigns"
                  and parts[5] == "events"):
                self.scheduler.check_tenant(parts[2])
                await self._stream_events(writer, tenant=parts[2],
                                          run_id=parts[4])
            else:
                await self._send_json(writer, 404, {
                    "error": "not-found", "detail": f"no route for "
                    f"{method} {path}"})
        except AdmissionError as exc:
            await self._send_json(writer, exc.status, exc.payload)

    async def _campaigns_endpoint(self, method: str, tenant: str,
                                  body: Dict,
                                  writer: asyncio.StreamWriter) -> None:
        if method == "POST":
            job = self.submit(tenant, body)
            await self._send_json(writer, 202, {
                "tenant": tenant, "run_id": job.run_id,
                "state": "queued", "slots": job.slots,
                "location":
                    f"/v1/tenants/{tenant}/campaigns/{job.run_id}"})
        elif method == "GET":
            self.scheduler.check_tenant(tenant)
            listing = [
                {"run_id": job.run_id,
                 "state": self.spool.read_state(job.job_dir)
                 .get("state", "unknown")}
                for job in self.spool.jobs(tenant)
            ]
            await self._send_json(writer, 200, {
                "tenant": tenant, "campaigns": listing})
        else:
            await self._send_json(writer, 405, {
                "error": "method-not-allowed",
                "detail": f"{method} not supported here"})

    async def _campaign_detail(self, tenant: str, run_id: str,
                               writer: asyncio.StreamWriter) -> None:
        import os

        from ..runner.atomicio import read_json

        self.scheduler.check_tenant(tenant)
        job_dir = os.path.join(self.spool.root, tenant, run_id)
        status = self.spool.read_state(job_dir)
        if not status:
            await self._send_json(writer, 404, {
                "error": "not-found", "tenant": tenant,
                "run_id": run_id,
                "detail": f"no campaign {run_id!r} for "
                          f"tenant {tenant!r}"})
            return
        await self._send_json(writer, 200, {
            "tenant": tenant, "run_id": run_id, "status": status,
            "submission": read_json(
                os.path.join(job_dir, "submission.json"), default={}),
            "journal": os.path.exists(
                os.path.join(job_dir, "run", "journal.jsonl")),
            "tables": os.path.exists(
                os.path.join(job_dir, "run", "tables.txt")),
        })

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             tenant: Optional[str] = None,
                             run_id: Optional[str] = None) -> None:
        """SSE: replay + live tail until client drop or shutdown."""
        headers = "".join(f"{name}: {value}\r\n"
                          for name, value in sse.SSE_HEADERS)
        writer.write(f"HTTP/1.1 200 OK\r\n{headers}\r\n"
                     .encode("latin-1"))
        sub = self.feed.subscribe()
        ready = asyncio.Event()
        loop = self._loop

        def _wake() -> None:
            if loop is not None:
                loop.call_soon_threadsafe(ready.set)

        sub.on_ready = _wake
        idle = 0.0
        try:
            while True:
                wrote = False
                for event in sub.drain():
                    if sse.matches(event, tenant=tenant, run_id=run_id):
                        writer.write(sse.format_event(event))
                        wrote = True
                if wrote:
                    idle = 0.0
                await writer.drain()
                if self._stopped is not None and self._stopped.is_set():
                    break
                try:
                    await asyncio.wait_for(ready.wait(), timeout=0.5)
                    ready.clear()
                except asyncio.TimeoutError:
                    idle += 0.5
                    if idle >= sse.KEEPALIVE_SECONDS:
                        writer.write(sse.keepalive())
                        await writer.drain()
                        idle = 0.0
        finally:
            sub.close()

    async def _send_json(self, writer: asyncio.StreamWriter,
                         status: int, payload: Dict) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n"
                ).encode("utf-8")
        head = (f"HTTP/1.1 {status} "
                f"{_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _readiness(self) -> Tuple[bool, Dict]:
        return health.readiness(
            draining=self._draining,
            spool_writable=self.spool.writable(),
            queued=self.scheduler.queued_total,
            queue_capacity=self.scheduler.queue_capacity,
            crashes=self._crashes,
            commits=self._commits,
        )

    def _status(self) -> Dict:
        ready, components = self._readiness()
        return {
            "draining": self._draining,
            "drain_reason": self._drain_reason,
            "ready": ready,
            "components": components,
            "scheduler": self.scheduler.snapshot(),
            "running": sorted(
                f"{tenant}/{run_id}"
                for tenant, run_id in self._running),
            "recovered": self._recovered,
            "counters": {"units_committed": self._commits,
                         "worker_crashes": self._crashes,
                         "events_published": self.feed.published},
        }


def _campaign(submission: Dict, **runtime):
    """The :class:`~repro.runner.campaign.Campaign` a submission asks
    for; *runtime* adds what the service decides (run directory,
    resume, slots, stop event, event sink)."""
    from ..runner.campaign import Campaign

    options = dict(submission, **runtime)
    # An empty list asks for every experiment, as an omitted one does.
    options["experiments"] = options.get("experiments") or None
    return Campaign(**options)
