"""Acceptance tests for the session-table probe suite.

The probers must characterize a deployed box purely from collateral
behavior — the ground-truth session parameters below are handed to
``build_scenario`` and never read back by the code under test.
"""

import pytest

from repro.core.measure.session import (
    EXHAUST_EVICTING,
    EXHAUST_FAIL_CLOSED,
    EXHAUST_FAIL_OPEN,
    EXHAUST_UNBOUNDED,
    probe_residual_window,
    probe_state_exhaustion,
    recover_flow_timeout,
)
from repro.experiments.session_dynamics import BLOCKED_DOMAIN, build_scenario
from repro.middlebox import FAIL_CLOSED, FAIL_OPEN
from repro.runner.campaign import Campaign


def _recover(world, **kwargs):
    return recover_flow_timeout(world, world.client, world.server_ip,
                                BLOCKED_DOMAIN, attempts=2, **kwargs)


class TestTimeoutRecovery:
    """Acceptance: configured idle timeout recovered to ±1 s, on two
    contrasting mechanisms (wiretap vs interceptive)."""

    @pytest.mark.parametrize("isp,timeout", [
        ("airtel", 90.0),   # wiretap, short timeout
        ("idea", 150.0),    # overt interceptive, the paper's 2.5 min
    ])
    def test_recovers_configured_timeout(self, isp, timeout):
        world = build_scenario(isp, max_flows=None, flow_timeout=timeout)
        recovery = _recover(world)
        assert recovery.recovered is not None
        assert abs(recovery.recovered - timeout) <= 1.0
        assert recovery.resolution <= 1.0
        # The bracket hugs the truth from below: the probe GET reaches
        # the box one propagation delay after the idle period, so an
        # exactly-timeout idle already reads as expired.
        assert timeout - 1.0 <= recovery.lower <= timeout
        assert recovery.upper <= timeout + 1.0

    def test_uncensored_path_reports_no_bracket(self):
        world = build_scenario("airtel", max_flows=None)
        recovery = recover_flow_timeout(world, world.client,
                                        world.server_ip,
                                        "benign.example.org", attempts=2)
        assert recovery.recovered is None
        assert recovery.probes == [(1.0, False)]

    def test_state_outliving_max_idle_leaves_open_bracket(self):
        world = build_scenario("airtel", max_flows=None, flow_timeout=500.0)
        recovery = _recover(world, max_idle=240.0)
        assert recovery.recovered is None
        assert recovery.lower == 240.0
        assert recovery.upper is None


class TestStateExhaustion:
    """Acceptance: fail-open vs fail-closed classified correctly, with
    the exact configured capacity, on contrasting profiles."""

    def test_fail_open_wiretap(self):
        world = build_scenario("airtel", max_flows=6,
                               overload_policy=FAIL_OPEN)
        report = probe_state_exhaustion(world, world.client,
                                        world.server_ip, BLOCKED_DOMAIN,
                                        max_probe=12)
        assert report.classification == EXHAUST_FAIL_OPEN
        assert report.capacity == 6

    def test_fail_closed_covert_interceptive(self):
        world = build_scenario("vodafone", max_flows=5,
                               overload_policy=FAIL_CLOSED)
        report = probe_state_exhaustion(world, world.client,
                                        world.server_ip, BLOCKED_DOMAIN,
                                        max_probe=12)
        assert report.classification == EXHAUST_FAIL_CLOSED
        assert report.capacity == 5

    def test_lru_eviction_reads_as_evicting(self):
        world = build_scenario("jio", max_flows=4, eviction_policy="lru")
        report = probe_state_exhaustion(world, world.client,
                                        world.server_ip, BLOCKED_DOMAIN,
                                        max_probe=8)
        assert report.classification == EXHAUST_EVICTING

    def test_unbounded_table(self):
        world = build_scenario("airtel", max_flows=None)
        report = probe_state_exhaustion(world, world.client,
                                        world.server_ip, BLOCKED_DOMAIN,
                                        max_probe=4)
        assert report.classification == EXHAUST_UNBOUNDED
        assert report.capacity is None


class TestResidualWindow:
    def test_window_measured_within_resolution(self):
        world = build_scenario("jio", max_flows=None, residual_window=12.0)
        report = probe_residual_window(world, world.client,
                                       world.server_ip, BLOCKED_DOMAIN)
        assert report.observed
        assert report.window is not None
        assert abs(report.window - 12.0) <= 1.0

    def test_absent_window_not_observed(self):
        world = build_scenario("airtel", max_flows=None,
                               residual_window=0.0)
        report = probe_residual_window(world, world.client,
                                       world.server_ip, BLOCKED_DOMAIN)
        assert not report.observed
        assert report.window is None


class TestCampaignAcceptance:
    """Serial and --workers 4 session-dynamics campaigns must commit
    byte-identical journals and tables."""

    def _campaign(self, run_dir, **kwargs):
        return Campaign(seed=1808, run_dir=str(run_dir),
                        experiments=["session-dynamics"],
                        scale=0.05, **kwargs)

    def test_workers_byte_identical(self, tmp_path):
        serial = self._campaign(tmp_path / "serial").run()
        parallel = self._campaign(tmp_path / "parallel", workers=4).run()
        assert parallel.complete
        with open(serial.journal_path, "rb") as fh:
            serial_journal = fh.read()
        with open(parallel.journal_path, "rb") as fh:
            parallel_journal = fh.read()
        assert serial_journal == parallel_journal
        with open(serial.tables_path, "rb") as fh:
            serial_tables = fh.read()
        with open(parallel.tables_path, "rb") as fh:
            parallel_tables = fh.read()
        assert serial_tables == parallel_tables
