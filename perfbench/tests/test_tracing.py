import pytest

from tracing import Tracer, layer_metrics, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["series.mul", 1.0, 3.0, 0, 0],
        ["series.div", 2.0, 5.0, 0, 0],  # overlaps its sibling: the union counts once
        ["series.mul", 2.5, 4.0, 2, 0],
        ["series.mul", 6.0, 7.0, 0, 0],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.5, 1.5, 1.0])
    metrics = {name: m["value"] for name, m in layer_metrics(spans, {}).items()}
    assert metrics["cli.self_s"] == pytest.approx(5.0)
    assert metrics["series.mul_s"] == pytest.approx(4.5)
    assert metrics["series.mul_calls"] == 3
    assert metrics["wick.census_s"] == 0.0


def test_wrapped_calls_record_parent_and_job():
    tracer = Tracer()
    inner = tracer.wrap("series.mul", lambda x: x + 1)
    outer = tracer.wrap("cli.main", lambda x: inner(x) * 2)
    tracer.job = 4
    assert outer(1) == 4
    (o_name, o_start, o_end, o_parent, o_job), (i_name, i_start, i_end, i_parent, i_job) = tracer.spans
    assert (o_name, o_parent, o_job) == ("cli.main", -1, 4)
    assert (i_name, i_parent, i_job) == ("series.mul", 0, 4)
    assert o_start <= i_start <= i_end <= o_end
