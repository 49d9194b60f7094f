"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest bench/test_bench.py -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from measure import (KNOWN, SMALL_X_CDF, best_per_op, count_failures,  # noqa: E402
                     percentile, self_times)
from workloads import MIN_PASSES, PASS_S, WORKLOADS, operations, passes  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert sum(v > percentile(values, 90) for v in values) == 10
    assert percentile(values, 50) == 50
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([5.0], 90) == 5.0
    assert percentile(list(range(1, 11)), 100) == 10


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_best_per_op_takes_each_operations_fastest_pass():
    assert best_per_op([[3.0, 1.0, 5.0], [2.0, 4.0, 5.0]]) == [2.0, 1.0, 5.0]
    assert best_per_op([[0.5, 0.25]]) == [0.5, 0.25]


def test_self_time_without_children():
    assert self_times([0.0, 5.0], [2.0, 6.0], [-1, -1]) == [2.0, 1.0]


def test_self_time_nested_children():
    # root [0, 10] > child [1, 6] > grandchild [2, 5]
    starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 6.0, 5.0], [-1, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_back_to_back_children():
    # root [0, 10] with children [1, 4] and [4, 7] touching at 4
    starts, ends, parents = [0.0, 1.0, 4.0], [10.0, 4.0, 7.0], [-1, 0, 0]
    out = self_times(starts, ends, parents)
    assert out == pytest.approx([4.0, 3.0, 3.0])
    assert sum(out) == pytest.approx(10.0)


def test_self_time_counts_overlap_once_and_clips_to_parent():
    # children [1, 5] and [3, 8] overlap on [3, 5]; a child running past the
    # parent's end is clipped to it
    starts, ends, parents = [0.0, 1.0, 3.0], [6.0, 5.0, 8.0], [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(1.0)


def test_failure_counting():
    checks = [(0, None), (1, SMALL_X_CDF), (2, "mismatch"), (3, None), (4, "error")]
    attempted, failed, unexpected = count_failures(checks, KNOWN)
    assert (attempted, failed) == (5, 3)
    assert unexpected == [(2, "mismatch"), (4, "error")]
    assert count_failures([(0, None)], KNOWN) == (1, 0, [])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_operations(workload):
    first = operations(workload, 11)
    assert first == operations(workload, 11)
    assert first != operations(workload, 12)
    assert len(first) >= 100


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_count_follows_the_arguments_only(workload):
    assert passes(workload, 20) == round(20 / PASS_S[workload])
    assert passes(workload, 20) >= 8
    assert passes(workload, 0) == MIN_PASSES


def test_tracer_wraps_every_binding_and_restores():
    import riskmix.mixing
    import riskmix.riskmeasures
    from tracer import Tracer

    model = riskmix.pareto_model(3.0, 1.0, 2)
    before = (riskmix.mixing.log_bell_partial, riskmix.riskmeasures.survival)
    tracer = Tracer().install()
    try:
        assert riskmix.mixing.log_bell_partial.__wrapped__ is before[0]
        assert riskmix.riskmeasures.survival.__wrapped__ is before[1]
        assert riskmix.survival is riskmix.aggregate.survival
        riskmix.value_at_risk(model, 0.9)
    finally:
        tracer.uninstall()
    assert (riskmix.mixing.log_bell_partial, riskmix.riskmeasures.survival) == before
    names = [tracer.names[i] for i in tracer.name]
    assert names[0] == "riskmeasures.value_at_risk"
    assert names.count("aggregate.survival") > 1
    assert tracer.scipy_calls[("riskmeasures", "brentq")] == 1
    assert all(tracer.parent[i] == 0 for i, n in enumerate(names) if n == "aggregate.survival")


def test_traced_metrics_match_benchmark_json():
    import json

    from tracer import Tracer

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = set(Tracer().summary(1.0, (0, 0), 0)) | {"trace.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
