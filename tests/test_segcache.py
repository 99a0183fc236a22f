"""Plan-cache unit tests: keying, canonicalization, eviction, counters.

The cache (:mod:`repro.core.segcache`) is only sound if (a) every input
that can change a planning result is part of the key, (b) inputs that
*cannot* change the result (a platform differing only in SRAM size, an
over-large budget) collapse onto one entry, and (c) quantization of the
continuous knobs is applied identically whether the cache is enabled,
cold, or warm.  These tests pin each property.
"""

from __future__ import annotations

import pytest

from repro.core import segcache
from repro.core.segcache import (
    PlanCache,
    cached_analyze,
    cached_build_model,
    cached_refine_model,
    cached_search_segmentation,
    planner_platform_fingerprint,
    pow2_floor,
    quarter_pow2_floor,
)
from repro.core.segmentation import SegmentationError, search_segmentation
from repro.dnn.models import refine_model
from repro.dnn.quantization import FLOAT32, INT8
from repro.dnn.zoo import build_model
from repro.hw.presets import get_platform

from conftest import random_taskset
import random


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts cold and enabled, and leaves no state behind."""
    segcache.set_enabled(True)
    segcache.clear_all()
    yield
    segcache.set_enabled(True)
    segcache.clear_all()


@pytest.fixture
def model():
    return build_model("mobilenet-v1-0.25")


@pytest.fixture
def platform():
    return get_platform("f746-qspi")


# ----------------------------------------------------------------------
# Quantization ladders
# ----------------------------------------------------------------------


def test_pow2_floor_ladder():
    assert pow2_floor(1) == 1
    assert pow2_floor(2) == 2
    assert pow2_floor(3) == 2
    assert pow2_floor(4096) == 4096
    assert pow2_floor(8191) == 4096
    for v in range(1, 5000, 37):
        q = pow2_floor(v)
        assert q <= v < 2 * q  # floor, never losing more than half


def test_quarter_pow2_floor_ladder():
    # {1, 1.25, 1.5, 1.75} x 2^p: floor loses strictly less than 20%.
    for v in range(4, 200_000, 517):
        q = quarter_pow2_floor(v)
        assert q <= v
        assert q > 0.8 * v
        # q really is on the quarter ladder: base*(4+k)/4 for k in 0..3
        base = pow2_floor(q)
        assert (q - base) % (base // 4 or 1) == 0
    # tiny values pass through unchanged
    for v in (0, 1, 2, 3):
        assert quarter_pow2_floor(v) == v


def test_quarter_ladder_is_monotone():
    prev = 0
    for v in range(4, 10_000):
        q = quarter_pow2_floor(v)
        assert q >= prev
        prev = q


# ----------------------------------------------------------------------
# PlanCache mechanics
# ----------------------------------------------------------------------


def test_plancache_bounded_lru_eviction():
    cache = PlanCache("t", maxsize=4)
    for i in range(10):
        cache.put(i, i * i)
    assert len(cache) == 4
    # Oldest entries are gone, newest survive.
    assert cache.get(5)[0] is False
    assert cache.get(9) == (True, 81)
    # A get refreshes recency: 6 survives the next insertion, 7 does not.
    cache.get(6)
    cache.put(100, 0)
    assert cache.get(6)[0] is True
    assert cache.get(7)[0] is False


def test_plancache_counters_accurate():
    cache = PlanCache("t", maxsize=64)
    for i in range(8):
        cache.put(i, i)
    hits = misses = 0
    for i in range(12):  # 8 hits, 4 misses
        found, _ = cache.get(i)
        hits += bool(found)
        misses += not found
    assert (cache.hits, cache.misses) == (hits, misses) == (8, 4)


def test_delta_and_absorb_roundtrip(model, platform):
    before = segcache.snapshot()
    cached_search_segmentation(model, platform, platform.usable_sram_bytes, INT8)
    delta = segcache.delta_since(before)
    assert delta["search"] == (0, 1)
    # Absorbing a worker's delta shifts the global counters by exactly it.
    segcache.absorb(delta)
    after = segcache.delta_since(before)
    assert after["search"] == (0, 2)
    merged = segcache.merge_deltas([delta, delta])
    assert merged["search"] == (0, 2)


def test_cache_note_formats_rates():
    note = segcache.cache_note({"refine": (3, 1), "search": (5, 1), "analysis": (0, 2)})
    assert "segmentation 8/10 hits (80.0%)" in note
    assert "analysis 0/2 hits (0.0%)" in note
    segcache.set_enabled(False)
    assert segcache.cache_note({}) == "plan cache: disabled"


# ----------------------------------------------------------------------
# Segmentation-search keying
# ----------------------------------------------------------------------


def _search_counts():
    c = segcache.CACHES["search"]
    return c.hits, c.misses


def test_search_repeat_is_hit(model, platform):
    budget = platform.usable_sram_bytes
    first = cached_search_segmentation(model, platform, budget, INT8)
    second = cached_search_segmentation(model, platform, budget, INT8)
    assert _search_counts() == (1, 1)
    assert first.boundaries == second.boundaries


def test_search_key_includes_sram_budget(model, platform):
    budget = platform.usable_sram_bytes
    cached_search_segmentation(model, platform, budget, INT8)
    # 3/4 the budget lands on a different slot-quantum: a distinct plan.
    cached_search_segmentation(model, platform, budget * 3 // 4, INT8)
    assert _search_counts() == (0, 2)


def test_search_key_includes_quant(model, platform):
    budget = platform.usable_sram_bytes
    cached_search_segmentation(model, platform, budget, INT8)
    with pytest.raises(SegmentationError):
        # float32 weights do not fit — and must not reuse the int8 entry
        cached_search_segmentation(model, platform, budget, FLOAT32)
    hits, misses = _search_counts()
    assert hits == 0 and misses == 2


def test_search_key_includes_platform_timing(model):
    p1 = get_platform("f746-qspi")
    p2 = get_platform("h743-octal")
    budget = min(p1.usable_sram_bytes, p2.usable_sram_bytes)
    cached_search_segmentation(model, p1, budget, INT8)
    cached_search_segmentation(model, p2, budget, INT8)
    assert _search_counts() == (0, 2)


def test_search_key_includes_buffers(model, platform):
    budget = platform.usable_sram_bytes
    cached_search_segmentation(model, platform, budget, INT8, buffers=2)
    cached_search_segmentation(model, platform, budget, INT8, buffers=3)
    assert _search_counts() == (0, 2)


def test_sram_only_platform_change_is_a_hit(model, platform):
    """The planner never reads ``platform.sram``: SRAM sweeps share entries."""
    other = platform.with_sram_bytes(platform.mcu.sram_bytes * 2)
    assert planner_platform_fingerprint(platform) == planner_platform_fingerprint(other)
    budget = platform.usable_sram_bytes
    first = cached_search_segmentation(model, platform, budget, INT8)
    second = cached_search_segmentation(model, other, budget, INT8)
    assert _search_counts() == (1, 1)
    assert second.boundaries == first.boundaries
    # The re-materialized plan carries the *caller's* platform object.
    assert second.platform is other


def test_negative_result_is_cached(model, platform):
    tiny = 4096  # far below the largest single layer
    with pytest.raises(SegmentationError):
        cached_search_segmentation(model, platform, tiny, INT8)
    with pytest.raises(SegmentationError) as excinfo:
        cached_search_segmentation(model, platform, tiny, INT8)
    assert _search_counts() == (1, 1)
    assert "cannot fit" in str(excinfo.value)


def test_saturated_budgets_share_one_entry(model, platform):
    """Any budget >= total weights admits every partition: one entry."""
    total_w = sum(layer.param_bytes(INT8) for layer in model.layers)
    act = model.peak_activation_bytes(INT8)
    big = total_w * 2 + act
    bigger = total_w * 16 + act
    a = cached_search_segmentation(model, platform, big, INT8)
    b = cached_search_segmentation(model, platform, bigger, INT8)
    assert _search_counts() == (1, 1)
    assert a.boundaries == b.boundaries


def test_search_matches_uncached_at_quantized_budget(model, platform):
    """Hits reproduce exactly what the raw planner returns for the
    canonicalized budget — the substitution the sweeps rely on."""
    budget = platform.usable_sram_bytes
    via_cache = cached_search_segmentation(model, platform, budget, INT8)
    act = model.peak_activation_bytes(INT8)
    max_w = max(layer.param_bytes(INT8) for layer in model.layers)
    slot_q = max(quarter_pow2_floor((budget - act) // 2), max_w)
    raw = search_segmentation(model, platform, slot_q * 2 + act, quant=INT8)
    assert via_cache.boundaries == raw.boundaries


def test_disabled_cache_same_results(model, platform):
    budget = platform.usable_sram_bytes
    enabled = cached_search_segmentation(model, platform, budget, INT8)
    segcache.set_enabled(False)
    disabled = cached_search_segmentation(model, platform, budget, INT8)
    assert enabled.boundaries == disabled.boundaries
    # Counters untouched while disabled.
    assert _search_counts() == (0, 1)


# ----------------------------------------------------------------------
# Refinement and analysis caches
# ----------------------------------------------------------------------


def test_refine_matches_uncached_at_quantized_knobs(model):
    chunk, macs = 23_456, 111_111
    cached = cached_refine_model(model, INT8, chunk, macs)
    raw = refine_model(model, INT8, pow2_floor(chunk), pow2_floor(macs))
    assert [l.name for l in cached.layers] == [l.name for l in raw.layers]
    assert [l.param_bytes(INT8) for l in cached.layers] == [
        l.param_bytes(INT8) for l in raw.layers
    ]


def test_refine_equivalent_knobs_share_entry(model):
    """Chunk sizes inducing the same per-layer split counts share a key."""
    a = cached_refine_model(model, INT8, 1 << 15)
    b = cached_refine_model(model, INT8, 1 << 15)
    assert a is b  # identical object straight from the cache
    assert segcache.CACHES["refine"].hits == 1


def test_zoo_cache_returns_same_object():
    a = cached_build_model("resnet8")
    b = cached_build_model("resnet8")
    assert a is b
    assert segcache.CACHES["zoo"].hits == 1


def test_analysis_cache_keys_on_taskset_and_method():
    ts = random_taskset(random.Random(7), n_tasks=3)
    r1 = cached_analyze(ts, "rtmdm")
    r2 = cached_analyze(ts, "rtmdm")
    assert r2 is r1
    c = segcache.CACHES["analysis"]
    assert (c.hits, c.misses) == (1, 1)
    cached_analyze(ts, "oblivious")
    assert (c.hits, c.misses) == (1, 2)
    # A structurally different set misses.
    cached_analyze(random_taskset(random.Random(8), n_tasks=3), "rtmdm")
    assert (c.hits, c.misses) == (1, 3)


def test_configure_resizes_and_disables(model, platform):
    segcache.configure(maxsize=2)
    for div in (1, 2, 3, 4, 5):
        try:
            cached_search_segmentation(
                model, platform, platform.usable_sram_bytes // div, INT8
            )
        except SegmentationError:
            pass
    assert len(segcache.CACHES["search"]) <= 2
    segcache.configure(enabled=False)
    assert not segcache.is_enabled()


def test_clear_all_empties_identity_memos():
    """clear_all() must release every planned object, not just the LRU
    caches: the fingerprint memos, the XIP column memo and the default
    SoA arena's segment columns pin models and segment tuples by
    strong reference, so a long-lived process (a fleet service run
    repeatedly) would otherwise grow without bound."""
    from repro.eval import systems
    from repro.eval.fleet import FleetConfig, FleetService, fleet_trace
    from repro.sched import simcore
    from repro.sched.simulator import SimConfig, simulate
    from repro.workload.taskset import generate_case

    FleetService(config=FleetConfig(n_shards=2)).run(
        fleet_trace(200, 2.0, 0.35, seed=7)
    )
    case = generate_case(get_platform("f746-qspi"), 0.5, random.Random(3))
    assert case.feasible
    systems.admit_batch([case])  # fills the XIP column memo
    ts = random_taskset(random.Random(3), n_tasks=3)
    simulate(ts, SimConfig(horizon=4 * max(t.period for t in ts)))
    memos = {
        "model": segcache._model_fingerprint._data,
        "quant": segcache._quant_fingerprint._data,
        "platform": segcache._platform_fingerprint._data,
        "xip": systems._XIP_COLS,
        "arena": simcore.default_arena()._segcols,
    }
    assert all(len(memo) > 0 for memo in memos.values()), {
        name: len(memo) for name, memo in memos.items()
    }
    segcache.clear_all()
    assert {name: len(memo) for name, memo in memos.items()} == dict.fromkeys(memos, 0)
