"""Bit-identity regression matrix for the SoA simulator core.

:mod:`repro.sched.simcore` replays the scalar event loop on flat
arrays — fused scheduling passes, heap-tuple events, lone/dominant-task
fast-forward — and is not allowed to change a single field of any
:class:`~repro.sched.simulator.SimResult`.  This module pins that down
as a matrix: SoA vs scalar (``REPRO_VEC_SIM``) x every CPU policy x
both DMA arbitrations, over random segmented sets and the scenario
zoo's planned deployments, plus the overrun-policy family.  Batched
execution (:func:`~repro.eval.parallel.simulate_batch`) must match
per-run ``simulate`` calls on both engines.

Unsupported configurations must *stand down*: the dispatcher falls back
to the scalar path (results trivially identical) while the telemetry
records the fallback and no SoA run.  A hypothesis property test sweeps
random unsupported-feature combinations to pin that contract.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_taskset
from repro.core.framework import RtMdm
from repro.eval.parallel import simulate_batch
from repro.hw.dma import DmaArbitration
from repro.hw.presets import get_platform
from repro.robust.overload import DegradeConfig, OverrunPolicy
from repro.sched import simcore
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig, simulate
from repro.sched.task import TaskSet
from repro.workload.scenarios import get_scenario

MATRIX = sorted(
    itertools.product(CpuPolicy, DmaArbitration),
    key=lambda pair: (pair[0].value, pair[1].value),
)

#: Deterministic overrun policies (DEGRADE needs a degrade config and
#: stands the SoA core down; it is covered by the stand-down tests).
OVERRUNS = (
    OverrunPolicy.CONTINUE,
    OverrunPolicy.ABORT_AT_DEADLINE,
    OverrunPolicy.SKIP_NEXT,
)

ZOO = ("doorbell", "wearable")

pytestmark = pytest.mark.skipif(
    not simcore.available(), reason="numpy unavailable: SoA core inert"
)


def _zoo_taskset(key: str) -> TaskSet:
    scenario = get_scenario(key)
    rt = RtMdm(get_platform(scenario.platform_key))
    for spec in scenario.specs():
        rt.add_task(spec.name, spec.model, spec.period_s, spec.deadline_s)
    config = rt.configure()
    assert config.feasible and config.taskset is not None
    return config.taskset


def _random_set(seed: int) -> TaskSet:
    rng = random.Random(seed)
    return random_taskset(
        rng, n_tasks=rng.randint(2, 4), util_target=rng.choice((0.5, 0.8))
    )


def _config(taskset: TaskSet, policy, arb, overrun=OverrunPolicy.CONTINUE):
    hyper = max(t.period for t in taskset)
    return SimConfig(
        policy=policy, dma_arbitration=arb, horizon=8 * hyper, overrun=overrun
    )


def _both(taskset, config, monkeypatch):
    """(soa, scalar) results for one case, via the kill switch."""
    monkeypatch.setenv("REPRO_VEC_SIM", "1")
    soa = simulate(taskset, config)
    monkeypatch.setenv("REPRO_VEC_SIM", "0")
    scalar = simulate(taskset, config)
    return dataclasses.asdict(soa), dataclasses.asdict(scalar)


@pytest.mark.parametrize("policy,arb", MATRIX)
def test_soa_identical_random_sets(policy, arb, monkeypatch):
    for seed in (11, 12, 13):
        taskset = _random_set(seed)
        soa, scalar = _both(taskset, _config(taskset, policy, arb), monkeypatch)
        assert soa == scalar


@pytest.mark.parametrize("key", ZOO)
def test_soa_identical_scenario_zoo(key, monkeypatch):
    taskset = _zoo_taskset(key)
    for policy, arb in MATRIX:
        soa, scalar = _both(taskset, _config(taskset, policy, arb), monkeypatch)
        assert soa == scalar


@pytest.mark.parametrize("overrun", OVERRUNS)
def test_soa_identical_overrun_policies(overrun, monkeypatch):
    for seed in (21, 22):
        taskset = _random_set(seed)
        config = _config(
            taskset, CpuPolicy.FP_NP, DmaArbitration.PRIORITY, overrun
        )
        soa, scalar = _both(taskset, config, monkeypatch)
        assert soa == scalar


@pytest.mark.parametrize("vec", ["1", "0"])
def test_batch_identical_to_scalar(vec, monkeypatch):
    """simulate_batch == [simulate(...)] on either engine, across the
    full policy/arbitration matrix: the batch-wide arena must not
    change a single result field."""
    monkeypatch.setenv("REPRO_VEC_SIM", vec)
    tasksets = [_random_set(s) for s in (4, 5)] + [_zoo_taskset(ZOO[0])]
    cases = [
        (ts, _config(ts, policy, arb))
        for ts in tasksets
        for policy, arb in MATRIX
    ]
    batched = simulate_batch(cases)
    scalar = [simulate(ts, cfg) for ts, cfg in cases]
    assert [dataclasses.asdict(b) for b in batched] == [
        dataclasses.asdict(s) for s in scalar
    ]


def test_soa_engine_engages(monkeypatch):
    """The matrix above is vacuous if the dispatcher silently used the
    scalar path both times; pin that supported configs run on the SoA
    core and that it processed real events."""
    monkeypatch.setenv("REPRO_VEC_SIM", "1")
    taskset = _random_set(11)
    before = simcore.soa_snapshot()
    simulate(taskset, _config(taskset, CpuPolicy.FP_NP, DmaArbitration.PRIORITY))
    runs, events, stand_downs = simcore.soa_delta_since(before)
    assert runs == 1
    assert events > 0
    assert stand_downs == 0


def test_kill_switch_bypasses_engine(monkeypatch):
    """REPRO_VEC_SIM=0 must not touch the SoA core at all — no run, no
    events, and no stand-down either (the kill switch is a bypass, not
    a fallback)."""
    monkeypatch.setenv("REPRO_VEC_SIM", "0")
    taskset = _random_set(12)
    before = simcore.soa_snapshot()
    simulate(taskset, _config(taskset, CpuPolicy.FP_NP, DmaArbitration.PRIORITY))
    assert simcore.soa_delta_since(before) == (0, 0, 0)


#: One strategy per unsupported feature: a SimConfig kwarg override that
#: must force a stand-down regardless of the rest of the config.
_UNSUPPORTED = st.sampled_from([
    {"record_trace": True},
    {"abort_on_miss": True},
    {"sporadic_slack": 0.2},
    {"dma_channels": 2},
    {"overrun": OverrunPolicy.DEGRADE,
     "degrade": DegradeConfig(fallbacks={})},
])


@settings(max_examples=40, deadline=None)
@given(
    overrides=st.lists(_UNSUPPORTED, min_size=1, max_size=3),
    seed=st.integers(min_value=1, max_value=50),
    policy=st.sampled_from(list(CpuPolicy)),
)
def test_unsupported_configs_stand_down(overrides, seed, policy):
    """Any config with at least one unsupported feature stands down:
    ``try_simulate`` returns ``None``, the stand-down is counted, and
    the run/event telemetry stays untouched."""
    taskset = _random_set(seed)
    kwargs = {}
    for override in overrides:
        kwargs.update(override)
    config = SimConfig(
        policy=policy, horizon=4 * max(t.period for t in taskset), **kwargs
    )
    before = simcore.soa_snapshot()
    assert simcore.try_simulate(taskset, config) is None
    runs, events, stand_downs = simcore.soa_delta_since(before)
    assert (runs, events) == (0, 0)
    assert stand_downs == 1
