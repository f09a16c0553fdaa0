"""Structured error taxonomy for campaign orchestration.

Every failure escaping a measurement unit falls into one of three
categories, unifying the ad-hoc handling that used to live in
``experiments/common.py``:

``transient``
    Worth an immediate in-process retry: the fault-injector streams
    advance between attempts, so a re-run genuinely sees different
    conditions (a vantage whose first connection lost its SYN).

``degradable``
    A simulator failure the campaign survives by recording a partial
    entry — the experiment-level analogue of a vantage that died
    mid-campaign.  Only :class:`~repro.netsim.errors.NetSimError`
    qualifies.

``fatal``
    Everything else — programming errors must still crash, loudly, so
    a journal never papers over a broken experiment.  A spent event
    budget (:class:`~repro.netsim.errors.EventLimitExceeded`) lands
    here too, so :func:`~repro.experiments.common.run_degradable`
    re-raises it; the worker then journals the unit as a ``timeout``.

``poison``
    A resource failure (``MemoryError``; under a memory budget also
    ``SystemError``, which only the worker, knowing the budget, can
    tell — see :func:`repro.runner.parallel.out_of_memory`) that
    poisons the process it runs in rather than just the measurement.
    :func:`~repro.experiments.common.run_degradable` re-raises it.  Poison
    failures are retried in a fresh worker process and — when they
    repeat — journaled with the durable ``quarantined`` status so the
    campaign can proceed without a babysitter.  The same status is
    applied by the supervisor (:mod:`repro.runner.supervise`) to units
    that repeatedly *kill* their worker outright (OOM-killer, SIGKILL,
    segfaults), which never surface as a Python exception at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.errors import ConnectionError_, NetSimError, PortInUseError

#: Taxonomy category names (also the strings stored in journals).
TRANSIENT = "transient"
DEGRADABLE = "degradable"
FATAL = "fatal"
POISON = "poison"

#: Durable journal status for a unit quarantined after repeatedly
#: crashing its worker (or exhausting its memory budget).  Sits beside
#: ``ok``/``degraded``/``timeout``/``failed``; like ``ok`` it survives
#: a resume untouched — re-running a poison unit would only crash the
#: campaign's workers again.
QUARANTINED = "quarantined"

#: How many extra attempts a transient failure earns inside
#: :func:`repro.experiments.common.run_degradable`.
TRANSIENT_RETRIES = 1


class CampaignError(Exception):
    """Base class for campaign-runner configuration/state errors."""


class JournalError(CampaignError):
    """A journal file could not be created, read, or verified."""


class ResumeMismatch(CampaignError):
    """A resume was attempted against a journal whose recorded
    parameters (seed, scale, experiment set, fault plan, step budget)
    differ from the requested campaign — resuming would silently mix
    incompatible measurements."""


class TransientUnitError(Exception):
    """Raisable by measurement code to mark a failure explicitly
    retryable at the unit level."""


class SimulatedCrash(RuntimeError):
    """Fault injection for crash-safety tests: the campaign process
    "dies" immediately after durably journaling its N-th unit.

    Deliberately not caught anywhere in the runner — it must escape
    exactly like a ``kill -9`` would end the process.
    """


@dataclass(frozen=True)
class TimeoutDegradation:
    """A hang converted into data: one unit's blown deadline budget.

    ``kind`` is ``"sim-steps"`` (the worker's event limit) or
    ``"unit-wall"`` (the supervisor's kill); ``detail`` is
    deterministic (it names the budget, never the elapsed time) so
    resumed and uninterrupted runs render identical tables.
    """

    unit: str
    kind: str
    detail: str

    def describe(self) -> str:
        return f"timeout: {self.unit}: {self.detail}"


#: Failures worth an immediate retry (see module docstring).
TRANSIENT_ERRORS = (TransientUnitError, ConnectionError_, PortInUseError)


def classify_error(exc: BaseException) -> str:
    """Map an exception to its taxonomy category.

    Total by construction: only ``isinstance`` tests, never attribute
    access or stringification, so any ``BaseException`` — including
    ones with hostile ``__str__``/``__getattr__`` — classifies without
    raising (a hypothesis property in ``tests/runner`` holds this).
    """
    if isinstance(exc, TRANSIENT_ERRORS):
        return TRANSIENT
    if isinstance(exc, NetSimError):
        return DEGRADABLE
    if isinstance(exc, MemoryError):
        return POISON
    return FATAL
