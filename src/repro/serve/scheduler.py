"""Weighted fair-share campaign scheduling with bounded admission.

The service owns a fixed budget of worker slots (one slot = one
supervised worker process = one in-flight unit).  Campaigns queue per
tenant; whenever slots free up, :meth:`FairScheduler.next_job` picks
the next campaign by **stride scheduling**: each tenant carries a
virtual-time ``pass`` value that advances by ``stride × slots`` on
every dispatch, where ``stride`` is inversely proportional to the
tenant's weight.  The queued-nonempty, quota-eligible tenant with the
smallest pass (ties broken by name) goes next — so over time each
tenant's slot-share converges on its weight share, and a burst from
one tenant cannot starve another.

Everything here is pure, synchronous state-machine logic: no clocks,
no threads, no I/O.  Given the same submission/completion sequence the
scheduler makes the same decisions and produces the same rejections —
which is what lets tests pin quota errors byte-for-byte.
"""

from __future__ import annotations

import collections
from typing import Deque, Dict, List, Optional, Tuple

from .tenants import TenantConfig

#: Virtual-time numerator: ``stride = STRIDE_PRECISION // weight``.
#: Integer virtual time keeps scheduling decisions exact (no float
#: drift between runs).
STRIDE_PRECISION = 1 << 16


class AdmissionError(Exception):
    """A rejected request, carrying a deterministic HTTP rendering.

    ``payload`` never contains clocks, queue snapshots of *other*
    tenants, or anything else that varies run to run: the same request
    against the same quota state yields byte-identical JSON.
    """

    def __init__(self, code: str, status: int, detail: str,
                 **extra) -> None:
        super().__init__(detail)
        self.code = code
        self.status = status
        self.detail = detail
        self.extra = extra

    @property
    def payload(self) -> Dict:
        body = {"error": self.code, "detail": self.detail}
        body.update(self.extra)
        return body


class _TenantState:
    """Scheduler-internal mutable view of one tenant."""

    def __init__(self, config: TenantConfig, total_slots: int) -> None:
        self.config = config
        self.max_slots = config.resolved_max_slots(total_slots)
        self.stride = STRIDE_PRECISION // config.weight
        self.passvalue = 0
        self.queue: Deque = collections.deque()
        self.slots_in_use = 0
        self.dispatched = 0


class FairScheduler:
    """Stride-scheduled campaign dispatch over a worker-slot budget.

    Jobs are any objects with ``slots`` (``int``) and ``run_id``
    (``str``) attributes; the scheduler never looks inside them.
    """

    def __init__(self, tenants: Dict[str, TenantConfig],
                 total_slots: int) -> None:
        if total_slots < 1:
            raise ValueError(
                f"total_slots must be >= 1, got {total_slots}")
        self.total_slots = total_slots
        self.free_slots = total_slots
        self._tenants = {
            name: _TenantState(config, total_slots)
            for name, config in sorted(tenants.items())
        }

    # -- admission ----------------------------------------------------

    def check_tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            raise AdmissionError(
                "unknown-tenant", 404,
                f"tenant {name!r} is not configured on this service",
                tenant=name)
        return state

    def check_submit(self, tenant: str, slots: int) -> None:
        """Raise the rejection a submission of *slots* would get now.

        Split from :meth:`submit` so the service can quota-check
        *before* spooling to disk: a rejected submission must leave
        no residue.
        """
        state = self.check_tenant(tenant)
        if slots > state.max_slots:
            raise AdmissionError(
                "over-quota", 429,
                f"tenant {tenant!r} may use at most {state.max_slots} "
                f"worker slot(s); requested {slots}",
                tenant=tenant, limit=state.max_slots,
                requested=slots)
        if len(state.queue) >= state.config.max_queued:
            raise AdmissionError(
                "queue-full", 429,
                f"tenant {tenant!r} already has "
                f"{len(state.queue)} queued campaign(s) "
                f"(max {state.config.max_queued})",
                tenant=tenant, limit=state.config.max_queued)

    def submit(self, tenant: str, job) -> None:
        """Queue *job* for *tenant* or raise a deterministic rejection."""
        self.check_submit(tenant, job.slots)
        self._tenants[tenant].queue.append(job)

    # -- dispatch -----------------------------------------------------

    def next_job(self) -> Optional[Tuple[str, object]]:
        """The next ``(tenant, job)`` to run, or ``None`` if nothing
        is eligible (empty queues, or no job fits the free slots)."""
        best: Optional[_TenantState] = None
        for state in self._tenants.values():
            if not state.queue:
                continue
            job = state.queue[0]
            if job.slots > self.free_slots:
                continue
            if state.slots_in_use + job.slots > state.max_slots:
                continue
            if (best is None
                    or (state.passvalue, state.config.name)
                    < (best.passvalue, best.config.name)):
                best = state
        if best is None:
            return None
        job = best.queue.popleft()
        best.slots_in_use += job.slots
        best.passvalue += best.stride * job.slots
        best.dispatched += 1
        self.free_slots -= job.slots
        return best.config.name, job

    def release(self, tenant: str, slots: int) -> None:
        """Return a finished campaign's slots to the budget."""
        state = self._tenants[tenant]
        state.slots_in_use -= slots
        self.free_slots += slots

    # -- introspection ------------------------------------------------

    @property
    def queued_total(self) -> int:
        return sum(len(s.queue) for s in self._tenants.values())

    @property
    def queue_capacity(self) -> int:
        return sum(s.config.max_queued for s in self._tenants.values())

    @property
    def busy(self) -> bool:
        return (self.queued_total > 0
                or self.free_slots < self.total_slots)

    def queued_run_ids(self) -> List[Tuple[str, object]]:
        """Every queued ``(tenant, job)`` in queue order (drain uses
        this to mark still-queued work interrupted)."""
        out = []
        for state in self._tenants.values():
            out.extend((state.config.name, job) for job in state.queue)
        return out

    def snapshot(self) -> Dict:
        """A JSON-able view for ``/v1/status`` (sorted, no clocks)."""
        return {
            "total_slots": self.total_slots,
            "free_slots": self.free_slots,
            "tenants": {
                name: {
                    "weight": state.config.weight,
                    "max_slots": state.max_slots,
                    "max_queued": state.config.max_queued,
                    "queued": len(state.queue),
                    "slots_in_use": state.slots_in_use,
                    "dispatched": state.dispatched,
                }
                for name, state in self._tenants.items()
            },
        }
