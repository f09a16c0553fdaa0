"""Span recording and the self-time arithmetic."""

import pytest

from spans import LayerTotal, Tracer, layer_totals, merge_totals, percentile, self_times


def span(name, start, end, parent=-1, unit=None):
    return (name, float(start), float(end), parent, unit)


def test_leaf_self_time_is_its_duration():
    assert self_times([span("a", 0, 5)]) == [5.0]


def test_nested_spans_subtract_their_children():
    spans = [span("outer", 0, 10), span("mid", 1, 7, 0), span("inner", 2, 4, 1)]
    assert self_times(spans) == [4.0, 4.0, 2.0]


def test_sibling_spans_each_subtract_from_the_parent():
    spans = [span("parent", 0, 10), span("a", 1, 3, 0), span("b", 5, 9, 0)]
    assert self_times(spans) == [4.0, 2.0, 4.0]


def test_overlapping_and_overhanging_children_count_once():
    spans = [span("parent", 0, 10), span("a", 2, 6, 0), span("b", 4, 8, 0),
             span("late", 9, 12, 0)]
    # covered: [2, 8] and [9, 10] -> 7 of 10
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_layer_totals_inclusive_counts_outermost_spans_of_a_name():
    spans = [span("run", 0, 10), span("fetch", 1, 6, 0), span("run", 2, 4, 1),
             span("run", 12, 13)]
    totals = layer_totals(spans)
    assert totals["run"].calls == 3
    assert totals["run"].inclusive == 11.0          # 10 + 1; nested run adds 0
    assert totals["run"].self_time == 8.0           # (10 - 5) + 2 + 1
    assert totals["fetch"].self_time == 3.0
    assert totals["fetch"].durations == [5.0]


def test_merge_totals_sums_processes():
    one = {"run": LayerTotal(calls=1, inclusive=2.0, self_time=1.0,
                             durations=[2.0])}
    two = {"run": LayerTotal(calls=2, inclusive=3.0, self_time=3.0,
                             durations=[1.0, 2.0])}
    merged = merge_totals([one, two])["run"]
    assert (merged.calls, merged.inclusive, merged.self_time) == (3, 5.0, 4.0)
    assert merged.durations == [2.0, 1.0, 2.0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([], 99) == 0.0


def test_tracer_records_parent_and_unit():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    leaf = tracer.wrap(lambda: "done", "leaf")
    outer = tracer.wrap(lambda exp, unit: leaf(), "outer",
                        unit_of=lambda exp, unit: f"{exp}/{unit}")

    assert outer("table1", "mtnl") == "done"
    assert tracer.spans == [("outer", 0.0, 3.0, -1, "table1/mtnl"),
                            ("leaf", 1.0, 2.0, 0, "table1/mtnl")]
    assert tracer.unit is None


def test_tracer_closes_spans_on_exceptions(tmp_path):
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.spans[0][0] == "boom"
    assert tracer.dump(str(tmp_path)).startswith(str(tmp_path))
