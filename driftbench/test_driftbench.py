"""Tests of the benchmark's own helpers.

    python3 -m pytest driftbench/test_driftbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from measure import FastestRepeats, NullTracer, Tracer, percentile  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(10, 0, -1))  # unsorted on purpose
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 91) == 10
    assert percentile(values, 100) == 10
    assert percentile(values, 1) == 1
    assert percentile([7.5], 99) == 7.5
    # 100 samples: p90 leaves exactly ten values beyond it.
    assert percentile(list(range(1, 101)), 90) == 90


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_fastest_repeats_keeps_each_ops_minimum():
    best = FastestRepeats()
    best.update({"a": 300, "b": 2_000_000})
    best.update({"a": 100, "b": 5_000_000})
    best.add("a", 200)
    assert best.best == {"a": 100, "b": 2_000_000}
    assert len(best) == 2
    assert best.total_s() == pytest.approx(2_000_100 / 1e9)
    assert best.values_ms() == pytest.approx([0.0001, 2.0])


def scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_and_coverage_with_nested_spans():
    # op [0, 100] holds a [10, 70] (which holds b [20, 50]) and c [80, 90].
    tracer = Tracer(clock=scripted_clock(0, 10, 20, 50, 70, 80, 90, 100))
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert tracer.self_times() == {"op": 30, "a": 30, "b": 30, "c": 10}
    assert tracer.totals() == {"op": 100, "a": 60, "b": 30, "c": 10}
    # Only the op's direct children count, so nesting is not double-counted.
    assert tracer.coverage("op") == pytest.approx(0.7)
    assert tracer.coverage("missing") == 0.0
    rows = tracer.dump_rows()
    assert rows[2] == ["b", 20, 50, 1]


def test_coverage_sums_over_every_root_span():
    tracer = Tracer(clock=scripted_clock(0, 0, 10, 10, 20, 25, 30, 40))
    for _ in range(2):
        with tracer.span("op"):
            with tracer.span("x"):
                pass
    # op1 = 10 fully covered; op2 = 20 with 5 covered.
    assert tracer.coverage("op") == pytest.approx(15 / 30)


def test_patch_wraps_and_restores():
    class Owner:
        @staticmethod
        def work(x):
            return x * 2

    tracer = Tracer()
    original = Owner.work
    tracer.patch(Owner, "work", "layer.work")
    assert Owner.work(3) == 6
    assert [s.name for s in tracer.spans] == ["layer.work"]
    tracer.unpatch()
    assert Owner.work is original
    null = NullTracer()
    assert null.wrap(original, "x") is original


def test_env_guard():
    assert run.env_problem({}) is None
    assert run.env_problem({"REPRO_JOBS": "1"}) is None
    assert run.env_problem({"REPRO_JOBS": "2"})
    for name in run.ENGINE_SWITCHES:
        assert run.env_problem({name: "1"}), name


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["sim", "sim-faults", "fleet"]


@pytest.mark.parametrize("make", [
    lambda wl: wl.Sim(cases=1),
    lambda wl: wl.SimFaults(cases=1),
    lambda wl: wl.Fleet(devices=40),
], ids=["sim", "sim-faults", "fleet"])
def test_digests_repeat_across_cycles_of_a_tiny_workload(make):
    import workloads as wl

    harness = run.Harness(make(wl), seed=run.DEFAULT_SEED)
    state = harness.workload.setup(harness.seed, NullTracer())
    harness.setup_digest = harness.workload.state_digest(state)
    first = harness.cycle(state, NullTracer())
    tracer = Tracer()
    wl.patch_layers(tracer)
    try:
        second = harness.cycle(state, tracer)
    finally:
        tracer.unpatch()
    assert harness.checks.problems == []
    assert first.digests == second.digests
    assert first.counts == second.counts
    assert tracer.spans, "the traced cycle recorded no spans"
