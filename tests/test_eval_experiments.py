"""Smoke tests for every experiment driver (tiny scales).

The benchmarks run the drivers at evaluation scale; these tests ensure
each driver stays runnable and structurally correct on every change.
"""

import pytest

from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.eval.reporting import render

FAST = ("EXP-T1", "EXP-T2", "EXP-F3", "EXP-T3", "EXP-F9")
SWEEPS = ("EXP-F4", "EXP-F5", "EXP-F6")


@pytest.mark.parametrize("exp_id", FAST)
def test_fast_drivers(exp_id):
    result = run_experiment(exp_id)
    assert result.exp_id == exp_id
    assert result.rows
    assert all(len(row) == len(result.columns) for row in result.rows)
    assert render(result)


@pytest.mark.parametrize("exp_id", SWEEPS)
def test_sweep_drivers_tiny(exp_id):
    kwargs = {"n_sets": 4, "scale": 1.0}
    if exp_id == "EXP-F4":
        kwargs["utils"] = (0.3, 0.6)
    elif exp_id == "EXP-F5":
        kwargs["sram_kib"] = (128, 320)
    else:
        kwargs["factors"] = (0.5, 4.0)
    result = run_experiment(exp_id, **kwargs)
    assert len(result.rows) == 2
    for row in result.rows:
        for cell in row[1:]:
            assert 0.0 <= cell <= 1.0


def test_f7_tiny_and_safety_column():
    result = run_experiment("EXP-F7", utils=(0.4,), n_sets=2, n_phasings=1)
    assert result.rows[0][-1] == 0  # admitted sets never miss


def test_f8_tiny_and_safety():
    result = run_experiment("EXP-F8", utils=(0.4,), n_sets=3)
    for row in result.rows:
        worst = row[-1]
        if worst is not None:
            assert worst <= 1.0


def test_f10_tiny():
    result = run_experiment("EXP-F10", utils=(0.5,), n_sets=2)
    assert len(result.rows) == 1


def test_f11_tiny():
    result = run_experiment("EXP-F11", n_sets=4)
    assert any(str(row[0]).startswith("sched") for row in result.rows)


def test_registry_complete():
    assert set(EXPERIMENTS) == {
        "EXP-T1", "EXP-T2", "EXP-F3", "EXP-F4", "EXP-F5", "EXP-F6",
        "EXP-F7", "EXP-F8", "EXP-T3", "EXP-F9", "EXP-F10", "EXP-F11",
        "EXP-F12", "EXP-F13", "EXP-F14", "EXP-F15", "EXP-F17",
        "EXP-F18", "EXP-R1", "EXP-R2",
        "EXP-R3", "EXP-D1", "EXP-S1", "EXP-S2", "EXP-S3",
    }


def test_d1_tiny_sound_with_latency_meta():
    result = run_experiment(
        "EXP-D1", n_traces=2, rates_hz=(1.5,), sram_kib=(192,), duration_s=8.0
    )
    assert len(result.rows) == 1
    row = dict(zip(result.columns, result.rows[0]))
    assert row["misses"] == 0
    assert row["admit_req"] > 0
    assert 0.0 <= row["admit_ratio"] <= 1.0
    assert result.meta["decision_latency_us"]["n"] == row["requests"]


def test_s1_tiny_identity_and_latency_meta():
    result = run_experiment(
        "EXP-S1", devices=600, shard_counts=(1, 4), fleet_sizes=(300,),
        duration_s=1.5,
    )
    assert len(result.rows) == 5  # 2 arrivals x 2 shard counts + 1 size
    for row in result.rows:
        r = dict(zip(result.columns, row))
        # ignored duplicates are the only count not in the row
        assert r["requests"] >= (
            r["admitted"] + r["rej_sram"] + r["rej_rta"] + r["removed"]
            + r["shed"]
        )
        assert r["shed"] == 0  # generous default queue bound
        if r["identical"] is not None:
            assert r["identical"] == 1  # sharded == serial oracle
    meta = result.meta
    assert meta["total_decisions"] > 0
    assert meta["decision_latency_us"]["n"] == meta["total_decisions"]


def test_s2_tiny_warm_identical_and_store_hits():
    result = run_experiment("EXP-S2", sram_kib=(192,), deadlines_ms=(100.0,),
                            scale=0.4)
    cold, warm = (dict(zip(result.columns, row)) for row in result.rows)
    assert cold["phase"] == "cold" and warm["phase"] == "warm"
    assert warm["identical"] == 1  # warm plans bit-identical to cold
    assert cold["hits"] == 0 and cold["writes"] > 0
    assert warm["hits"] > 0 and warm["writes"] == 0
    assert result.meta["store_entries"] == cold["writes"]


def test_r3_tiny_recovery_identical_and_bounded():
    result = run_experiment(
        "EXP-R3", checkpoint_intervals=(2, 8), n_crash_points=2,
        duration_s=5.0, jobs=1,
    )
    assert len(result.rows) == 2
    for row in result.rows:
        r = dict(zip(result.columns, row))
        assert r["identical"] == r["crashes"]  # bit-identical recovery
        assert r["replayed_max"] <= r["ckpt_interval"]
    assert result.meta["recovery_latency_us"]["n"] == 4


def test_f13_tiny():
    result = run_experiment("EXP-F13", utils=(0.4,), n_sets=4)
    util, external_only, with_flash, _ = result.rows[0]
    assert with_flash >= external_only


def test_f14_energy_orderings():
    result = run_experiment("EXP-F14")
    for row in result.rows:
        model, rtmdm, sequential, xip, ratio = row
        assert rtmdm <= sequential + 1e-9
        assert rtmdm <= xip + 1e-9
        assert ratio >= 1.0


def test_unknown_experiment():
    with pytest.raises(KeyError, match="available"):
        run_experiment("EXP-NOPE")
