"""The unit vocabulary experiments and the campaign runner share.

An experiment module participates in campaigns by exposing:

``CAMPAIGN``
    A :class:`TableSpec` — the title/headers of its campaign table.

``units()``
    An iterator of :class:`Unit`: named, independently re-runnable
    measurement units (typically one per ISP).  Each unit's ``fn``
    takes ``(world, domains)`` — a **fresh** world per unit, so a
    resumed campaign replays any unit bit-for-bit — and returns the
    JSON-serializable payload built by :func:`campaign_payload`.

Payloads are always round-tripped through the journal before tables
are assembled (even in an uninterrupted run), which is what makes
straight and killed-and-resumed campaigns byte-identical: both paths
render from the same serialized form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple


@dataclass(frozen=True)
class Unit:
    """One named, journaled, independently re-runnable measurement."""

    name: str
    #: ``fn(world, domains) -> payload`` (see :func:`campaign_payload`).
    fn: Callable


@dataclass(frozen=True)
class TableSpec:
    """How a campaign renders an experiment's collected unit rows."""

    title: str
    headers: Tuple[str, ...]
    #: Free-form text appended after the table (legends etc.).
    footer: str = ""


def campaign_payload(rows: Sequence[Sequence],
                     degradation=None) -> Dict:
    """The uniform unit payload: display-ready rows plus accounting.

    *rows* must already be JSON-clean (strings/numbers) — experiments
    pre-format cells so the journal round trip is the identity.
    """
    payload: Dict = {
        "rows": [list(row) for row in rows],
        # Always empty and never rendered; the key stays so journals
        # keep their bytes, and with them the hash chain a resume of an
        # existing run directory verifies.
        "notes": [],
        "errors": [],
        "retries": 0,
    }
    if degradation is not None:
        payload["errors"] = [[unit, reason]
                             for unit, reason in degradation.errors]
        payload["retries"] = degradation.retries
    return payload
