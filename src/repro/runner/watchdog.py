"""Cooperative deadline guards for campaign units.

The watchdog hooks the discrete-event engine's per-event step hook
(:attr:`repro.netsim.engine.Network.step_hook`), so any unit that is
actually simulating gets its budgets checked continuously:

* **sim-step budget** (``unit_steps``) — a limit on simulated events
  per unit.  Fully deterministic: the same seed blows the same budget
  at the same event, whether the campaign ran straight through or was
  killed and resumed, so tables stay byte-identical.
* **wall budget** (``unit_wall``) — a real-clock guard converting a
  hang into a recorded timeout instead of a stuck process.
  Inherently non-deterministic; use step budgets where byte-identity
  matters.

Each worker arms one per unit.  The campaign keeps one more for the
campaign-wide wall budget (``campaign_wall``), which it checks only
between commits (:meth:`Watchdog.check_campaign`): a spent budget
stops the campaign, it never times a unit out.

"Cooperative" is load-bearing: a unit spinning in pure Python without
touching the network cannot be interrupted mid-loop.  The supervised
pool (:mod:`repro.runner.supervise`) closes that hole by enforcing
``unit_wall`` non-cooperatively: it kills the worker process on
deadline and journals the unit as a ``timeout`` with the same detail
text this watchdog writes.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .errors import CampaignDeadline, UnitTimeout

#: Wall-clock reads are amortized over this many step-hook calls.
WALL_CHECK_EVERY = 128


class Watchdog:
    """Per-unit and per-campaign deadline budgets."""

    def __init__(self, unit_steps: Optional[int] = None,
                 unit_wall: Optional[float] = None,
                 campaign_wall: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.unit_steps = unit_steps
        self.unit_wall = unit_wall
        self.campaign_wall = campaign_wall
        self._clock = clock
        self._campaign_start: Optional[float] = None
        self._network = None
        self._steps = 0
        self._unit_start_wall = 0.0

    # ------------------------------------------------------------------
    # Campaign scope
    # ------------------------------------------------------------------

    def start_campaign(self) -> None:
        self._campaign_start = self._clock()

    def campaign_elapsed(self) -> float:
        if self._campaign_start is None:
            return 0.0
        return self._clock() - self._campaign_start

    def check_campaign(self) -> None:
        """Between units: raise once the campaign budget is gone."""
        if (self.campaign_wall is not None
                and self.campaign_elapsed() > self.campaign_wall):
            raise CampaignDeadline(
                f"campaign wall budget {self.campaign_wall:g}s exhausted")

    # ------------------------------------------------------------------
    # Unit scope
    # ------------------------------------------------------------------

    def begin_unit(self, network) -> None:
        """Arm the budgets around one unit's network."""
        self._network = network
        self._steps = 0
        self._unit_start_wall = self._clock()
        network.step_hook = self._on_step

    def end_unit(self) -> int:
        """Disarm; returns simulated events the unit consumed."""
        if self._network is not None:
            self._network.step_hook = None
            self._network = None
        return self._steps

    def _on_step(self) -> None:
        self._steps += 1
        if self.unit_steps is not None and self._steps > self.unit_steps:
            raise UnitTimeout(
                "sim-steps",
                f"unit exceeded {self.unit_steps} simulated events")
        if self._steps % WALL_CHECK_EVERY:
            return
        if (self.unit_wall is not None
                and self._clock() - self._unit_start_wall > self.unit_wall):
            raise UnitTimeout(
                "unit-wall",
                f"unit exceeded {self.unit_wall:g}s wall budget")
