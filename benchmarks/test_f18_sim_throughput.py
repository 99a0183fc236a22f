"""Benchmark for EXP-F18: discrete-event simulator throughput.

The SoA simulator core's headline number: scalar-equivalent heap events
processed per second, scalar event loop vs the arena-backed SoA core.
The driver asserts bit-identity against the scalar oracle in-process;
the rows additionally assert the SoA engine actually engaged (no silent
stand-down) and the throughputs land in ``meta`` and hence in
BENCH_suite.json.
"""

from conftest import bench_experiment


def test_f18_sim_throughput(benchmark):
    result = bench_experiment(benchmark, "EXP-F18")
    modes = result.column("mode")
    assert modes == ["scalar", "soa"]
    # Both modes replay the same workload with the same outcome.
    assert len(set(result.column("misses"))) == 1
    assert all(flag == 1 for flag in result.column("identical"))
    # The SoA engine must have run every set in the SoA mode (numpy
    # present, kill switch off, nothing stood down to the scalar path)
    # and none in the scalar mode.
    scalar_runs, soa_runs = result.column("soa_runs")
    assert scalar_runs == 0
    assert soa_runs == result.column("sets")[0]
    assert result.meta["events_total"] > 0
    for key in ("scalar_events_per_s", "soa_events_per_s"):
        assert result.meta[key] is None or result.meta[key] > 0
