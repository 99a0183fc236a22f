"""Property test for the exact RTA fixpoint memo.

A fixpoint problem is a pure function of its arguments, so a
:class:`~repro.sched.rta.FixpointCache` hit must return exactly what a
cache-free evaluation computes.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_taskset
from repro.core.analysis import METHODS, analyze
from repro.sched.rta import FixpointCache

seeds = st.integers(0, 10_000)


@given(seeds, st.sampled_from(METHODS))
@settings(max_examples=30, deadline=None)
def test_exact_memo_matches_fresh(seed, method):
    """Byte-identical re-asks hit the exact memo and must return the
    same bounds a cache-free evaluation computes."""
    rng = random.Random(seed)
    ts = random_taskset(rng, n_tasks=3, util_target=0.5)
    cache = FixpointCache()
    first = analyze(ts, method, cache=cache)
    again = analyze(ts, method, cache=cache)
    fresh = analyze(ts, method)
    assert first.wcrt == fresh.wcrt
    assert again.wcrt == fresh.wcrt
    assert cache.counters()["exact_hits"] > 0
