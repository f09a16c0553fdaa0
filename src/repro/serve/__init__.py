"""``repro serve``: a crash-safe, multi-tenant measurement service.

A long-lived daemon wrapping the campaign runner:

* named tenants submit campaigns over local HTTP/JSON; submissions
  land in per-tenant spool directories *before* they are acknowledged,
  so an accepted campaign survives any crash;
* a weighted fair-share scheduler (:mod:`.scheduler`) dispatches
  queued campaigns onto a bounded worker-slot budget, with per-tenant
  quotas and deterministic 429-style rejections;
* each campaign runs its units in its own supervised worker pool
  (:mod:`repro.runner.supervise`), exactly as ``repro campaign`` does;
* live TraceBus/metrics events stream per run over SSE (:mod:`.sse`),
  and ``/healthz`` / ``/readyz`` report real signals (:mod:`.health`);
* SIGTERM drains gracefully — stop admitting, finish the units in
  flight, journal them, exit 0; SIGKILL is survived by the boot-time
  spool scan (:mod:`.recovery`), which replays hash-chained journals
  through the ordinary ``--resume`` machinery and re-enqueues
  unfinished campaigns.

See ``docs/SERVICE.md`` for the API and the recovery state machine.
"""

from .app import Service, ServiceConfig
from .recovery import CampaignJob, Spool
from .scheduler import AdmissionError, FairScheduler
from .tenants import TenantConfig, parse_tenant_spec

__all__ = [
    "AdmissionError",
    "CampaignJob",
    "FairScheduler",
    "Service",
    "ServiceConfig",
    "Spool",
    "TenantConfig",
    "parse_tenant_spec",
]
