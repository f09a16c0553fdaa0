"""failed_share and the per-layer figures."""

import pytest

import figures
from spans import LayerTotal


def test_failed_share_is_failed_over_attempted():
    assert figures.failed_share(64, 0) == 0.0
    assert figures.failed_share(64, 16) == 0.25
    assert figures.failed_share(3, 3) == 1.0


def test_ok_share_complements_failed_share():
    assert figures.ok_share(64, 0) == 1.0
    assert figures.ok_share(4, 1) == 0.75


@pytest.mark.parametrize("attempted, failed", [(0, 0), (5, -1), (5, 6)])
def test_failed_share_rejects_impossible_counts(attempted, failed):
    with pytest.raises(ValueError):
        figures.failed_share(attempted, failed)


def test_runner_figures_spread_unit_work_over_workers():
    serial = figures.runner_figures(28.0, wall=31.0, setup=0.5, workers=1)
    assert serial["runner.overhead_s"] == pytest.approx(2.5)
    assert serial["runner.worker_busy_share"] == pytest.approx(28.0 / 30.5)
    parallel = figures.runner_figures(28.0, wall=15.5, setup=0.5, workers=2)
    assert parallel["runner.overhead_s"] == pytest.approx(1.0)
    assert parallel["runner.worker_busy_share"] == pytest.approx(28.0 / 30.0)


def test_counter_total_sums_label_sets():
    counters = {"netsim_events_total{experiment=a}": 3,
                "netsim_events_total{experiment=b}": 4,
                "netsim_events_totalx": 100, "netsim_drops_total": 1}
    assert figures.counter_total(counters, "netsim_events_total") == 7


def test_layer_metrics_names_every_per_layer_metric():
    totals = {"netsim.run": LayerTotal(calls=2, inclusive=2.0, self_time=1.5),
              "httpsim.fetch": LayerTotal(calls=2, inclusive=1.0,
                                          self_time=0.25,
                                          durations=[0.4, 0.6])}
    counters = {"netsim_events_total{experiment=a}": 300,
                "netsim_fib_hits_total": 9, "netsim_fib_builds_total": 1}
    values = figures.layer_metrics(totals, counters, 0.1, 7, None, 0.05)
    assert set(values) == set(figures.PER_LAYER)
    assert values["netsim.events_per_s"] == pytest.approx(200.0)
    assert values["netsim.fib_hit_ratio"] == pytest.approx(0.9)
    assert values["httpsim.fetch_p50_ms"] == pytest.approx(400.0)
    assert values["runner.unit_wall_s"] == 0.0
    assert values["trace.overhead_share"] == 0.05

