"""Robustness plumbing in experiments.common: the (ok, value)
run_degradable contract, degradation accounting."""

import pytest

from repro.experiments.common import (
    Degradation,
    run_degradable,
)
from repro.netsim.errors import ConnectionError_, NetSimError
from repro.runner.errors import TimeoutDegradation, TransientUnitError


class TestRunDegradable:
    def test_ok_value(self):
        degradation = Degradation()
        ok, value = run_degradable(degradation, "u", lambda: 42)
        assert (ok, value) == (True, 42)
        assert not degradation.partial

    def test_ok_none_distinguished_from_failure(self):
        """A unit may legitimately return None; ok tells them apart."""
        degradation = Degradation()
        assert run_degradable(degradation, "u", lambda: None) \
            == (True, None)
        assert not degradation.errors

        def dies():
            raise NetSimError("link gone")

        assert run_degradable(degradation, "u", dies) == (False, None)
        assert degradation.errors == [("u", "NetSimError: link gone")]

    def test_fatal_reraised(self):
        degradation = Degradation()

        def broken():
            raise ValueError("programming error")

        with pytest.raises(ValueError):
            run_degradable(degradation, "u", broken)
        assert not degradation.errors

    def test_poison_reraised(self):
        """A failed allocation is the worker's to retry, never a
        degraded measurement."""
        degradation = Degradation()

        def balloon():
            raise MemoryError("out of memory")

        with pytest.raises(MemoryError):
            run_degradable(degradation, "u", balloon)
        assert not degradation.errors

    def test_transient_retried_once_then_recorded(self):
        degradation = Degradation()
        calls = []

        def flaky():
            calls.append(1)
            raise TransientUnitError("race")

        ok, value = run_degradable(degradation, "u", flaky)
        assert (ok, value) == (False, None)
        assert len(calls) == 2  # initial attempt + one retry
        assert degradation.errors[0][1].startswith("[transient] ")

    def test_transient_retry_can_succeed(self):
        degradation = Degradation()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise ConnectionError_("first connection raced a flap")
            return "measured"

        assert run_degradable(degradation, "u", flaky) \
            == (True, "measured")
        assert not degradation.errors


class TestDegradationDescribe:
    def test_clean_is_empty(self):
        assert Degradation().describe() == ""

    def test_all_channels_reported(self):
        degradation = Degradation(resumed=3, retries=2)
        degradation.record_timeout(TimeoutDegradation(
            unit="exp:isp", kind="sim-steps", detail="budget blown"))
        degradation.record_error("exp:other", "NetSimError: gone")
        text = degradation.describe()
        assert "resumed: 3 units from journal" in text
        assert "degraded: 2 client retries" in text
        assert "timeout: exp:isp: budget blown" in text
        assert "partial: exp:other: NetSimError: gone" in text

    def test_partial_ignores_resume_and_retries(self):
        assert not Degradation(resumed=5, retries=9).partial
        degradation = Degradation()
        degradation.record_timeout(TimeoutDegradation("u", "sim-steps",
                                                      "d"))
        assert degradation.partial
