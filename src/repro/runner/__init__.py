"""repro.runner — crash-safe campaign orchestration.

The layer above individual experiments: decompose every experiment
into named measurement units, run each unit in a supervised worker
process, journal it durably, resume from the journal after a crash,
and guard runaway units with budgets.  See ``docs/CAMPAIGNS.md`` for
the full model.

Public surface::

    from repro.runner import Campaign, Journal, Supervisor

:class:`Campaign` is imported lazily (module ``__getattr__``) so that
``repro.experiments.common`` can import the error taxonomy from this
package without a circular import.
"""

from .errors import (
    DEGRADABLE,
    FATAL,
    POISON,
    QUARANTINED,
    TRANSIENT,
    CampaignError,
    JournalError,
    ResumeMismatch,
    SimulatedCrash,
    TimeoutDegradation,
    TransientUnitError,
    classify_error,
)
from .journal import Journal
from .units import TableSpec, Unit, campaign_payload

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignReport",
    "DEGRADABLE",
    "FATAL",
    "Journal",
    "JournalError",
    "POISON",
    "QUARANTINED",
    "ResumeMismatch",
    "SimulatedCrash",
    "Supervisor",
    "TRANSIENT",
    "TableSpec",
    "TimeoutDegradation",
    "TransientUnitError",
    "Unit",
    "campaign_payload",
    "classify_error",
]

_LAZY = ("Campaign", "CampaignReport")


def __getattr__(name):
    if name in _LAZY:
        from . import campaign as _campaign

        return getattr(_campaign, name)
    if name == "Supervisor":
        from .supervise import Supervisor

        return Supervisor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
