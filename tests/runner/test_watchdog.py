"""Watchdog: step budgets, wall budgets, campaign deadline."""

import pytest

from repro.runner.errors import CampaignDeadline, UnitTimeout
from repro.runner.watchdog import WALL_CHECK_EVERY, Watchdog


class FakeNetwork:
    step_hook = None


class FakeClock:
    """Injectable monotonic clock: tests advance it explicitly."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _spin(network, steps):
    for _ in range(steps):
        network.step_hook()


class TestStepBudget:
    def test_blows_exactly_past_budget(self):
        watchdog = Watchdog(unit_steps=10)
        network = FakeNetwork()
        watchdog.begin_unit(network)
        _spin(network, 10)  # at budget: fine
        with pytest.raises(UnitTimeout) as excinfo:
            network.step_hook()
        assert excinfo.value.kind == "sim-steps"
        assert "10 simulated events" in excinfo.value.detail

    def test_detail_is_deterministic(self):
        """The message names the budget, never elapsed state."""
        details = []
        for _ in range(2):
            watchdog = Watchdog(unit_steps=5)
            network = FakeNetwork()
            watchdog.begin_unit(network)
            with pytest.raises(UnitTimeout) as excinfo:
                _spin(network, 6)
            details.append(excinfo.value.detail)
        assert details[0] == details[1]

    def test_end_unit_reports_steps_and_disarms(self):
        watchdog = Watchdog(unit_steps=100)
        network = FakeNetwork()
        watchdog.begin_unit(network)
        _spin(network, 7)
        assert watchdog.end_unit() == 7
        assert network.step_hook is None

    def test_budget_resets_between_units(self):
        watchdog = Watchdog(unit_steps=10)
        for _ in range(3):
            network = FakeNetwork()
            watchdog.begin_unit(network)
            _spin(network, 10)  # would blow on step 11 if carried over
            watchdog.end_unit()


class TestWallBudgets:
    def test_unit_wall(self):
        clock = FakeClock()
        watchdog = Watchdog(unit_wall=5.0, clock=clock)
        network = FakeNetwork()
        watchdog.begin_unit(network)
        _spin(network, WALL_CHECK_EVERY)  # within budget
        clock.now = 6.0
        with pytest.raises(UnitTimeout) as excinfo:
            _spin(network, WALL_CHECK_EVERY)
        assert excinfo.value.kind == "unit-wall"

    def test_wall_checked_only_every_n_steps(self):
        clock = FakeClock()
        watchdog = Watchdog(unit_wall=1.0, clock=clock)
        network = FakeNetwork()
        watchdog.begin_unit(network)
        clock.now = 99.0
        _spin(network, WALL_CHECK_EVERY - 1)  # amortized: not yet read

    def test_campaign_wall_never_interrupts_a_unit(self):
        # The campaign budget is checked between commits only; a unit
        # in flight is never timed out by it.
        clock = FakeClock()
        watchdog = Watchdog(campaign_wall=10.0, clock=clock)
        watchdog.start_campaign()
        network = FakeNetwork()
        watchdog.begin_unit(network)
        clock.now = 11.0
        _spin(network, 4 * WALL_CHECK_EVERY)
        with pytest.raises(CampaignDeadline):
            watchdog.check_campaign()


class TestCampaignDeadline:
    def test_check_campaign(self):
        clock = FakeClock()
        watchdog = Watchdog(campaign_wall=30.0, clock=clock)
        watchdog.start_campaign()
        watchdog.check_campaign()  # budget remains
        clock.now = 31.0
        with pytest.raises(CampaignDeadline, match="30"):
            watchdog.check_campaign()

    def test_no_budget_never_fires(self):
        clock = FakeClock()
        watchdog = Watchdog(clock=clock)
        watchdog.start_campaign()
        clock.now = 1e9
        watchdog.check_campaign()
        network = FakeNetwork()
        watchdog.begin_unit(network)
        _spin(network, 4 * WALL_CHECK_EVERY)
