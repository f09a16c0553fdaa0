"""The population-scale campaign: payloads, metrics lift, parallelism."""

import json

import pytest

from repro.experiments import population_scale
from repro.runner.campaign import Campaign
from repro.runner.parallel import (UnitSettings, build_unit_world,
                                   execute_unit)


@pytest.fixture(autouse=True)
def _tiny_population(monkeypatch):
    # ~3.7k sessions across the ten ISPs: the full pipeline, fast.  The
    # workers are forked, so they see the smaller day too.
    monkeypatch.setattr(population_scale, "DEFAULT_SESSIONS_TOTAL", 3750)


SETTINGS = UnitSettings(seed=1808, scale=0.05)


def idea_unit():
    return next(unit for unit in population_scale.units()
                if unit.name == "idea")


class TestUnits:
    def test_one_unit_per_isp(self):
        names = [unit.name for unit in population_scale.units()]
        assert names == list(population_scale.POPULATION_ISPS)

    def test_sessions_for_is_subset_invariant(self):
        # Apportionment runs over the FULL ISP set no matter which
        # units execute, so workers never shift each other's volume.
        full = {isp: population_scale.sessions_for(isp)
                for isp in population_scale.POPULATION_ISPS}
        assert sum(full.values()) == 3750
        assert population_scale.sessions_for("airtel") == full["airtel"]

    def test_unit_payload_shape(self):
        unit = idea_unit()
        world = build_unit_world(SETTINGS)
        payload = unit.fn(world, None)
        assert payload["rows"]
        summary = payload["population"]
        assert summary["isp"] == "idea"
        assert summary["sessions"] == population_scale.sessions_for("idea")
        assert summary["blocked"] > 0
        assert summary["per_category"]
        metrics = payload["obs_metrics"]
        assert any(key.startswith("population_sessions_total")
                   for key in metrics["counters"])


class TestMetricsLift:
    def test_execute_unit_routes_obs_metrics_sidecar(self):
        unit = idea_unit()
        record, _wall, extras, kind = execute_unit(
            SETTINGS, "population-scale", unit)
        assert kind is None
        assert record["status"] == "ok"
        # The snapshot is lifted out of the journaled payload...
        assert "obs_metrics" not in record["payload"]
        assert "population" in record["payload"]
        json.dumps(record["payload"])  # journal-safe
        # ...and lands in the unit's metrics sidecar.
        counters = extras["metrics"]["counters"]
        assert any(key.startswith("population_sessions_total")
                   for key in counters)
        assert any(key.startswith("population_blocked_total")
                   for key in counters)


class TestCampaignParallelism:
    def _campaign(self, run_dir, workers):
        return Campaign(
            seed=1808,
            run_dir=str(run_dir),
            experiments=["population-scale"],
            scale=0.05,
            workers=workers,
        ).run()

    def test_serial_and_workers_byte_identical(self, tmp_path):
        serial = self._campaign(tmp_path / "serial", workers=1)
        parallel = self._campaign(tmp_path / "parallel", workers=4)
        assert serial.complete and parallel.complete
        assert (tmp_path / "serial" / "journal.jsonl").read_bytes() == \
            (tmp_path / "parallel" / "journal.jsonl").read_bytes()
        assert (tmp_path / "serial" / "tables.txt").read_bytes() == \
            (tmp_path / "parallel" / "tables.txt").read_bytes()
        serial_metrics = json.loads(
            (tmp_path / "serial" / "metrics.json").read_text())
        parallel_metrics = json.loads(
            (tmp_path / "parallel" / "metrics.json").read_text())
        assert serial_metrics["deterministic"] == \
            parallel_metrics["deterministic"]
        counters = serial_metrics["deterministic"]["counters"]
        assert any(key.startswith("population_sessions_total")
                   for key in counters)
