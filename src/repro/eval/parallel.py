"""Deterministic parallel execution of experiment work units.

The experiment drivers decompose their sweeps into independent work
units — one per ``(set index, sweep point)`` — that are dispatched over a
:class:`~concurrent.futures.ProcessPoolExecutor` and merged back in unit
order.  Three properties make the parallel output **bit-identical** to
the serial path:

1. every unit derives its randomness from a ``_stable_seed`` of its own
   coordinates (never from shared RNG state), so results do not depend
   on execution order;
2. ``ProcessPoolExecutor.map`` returns results in submission order, and
   drivers assemble rows by iterating units in that same fixed order, so
   verdict lists and floating-point reductions sum in exactly the serial
   order;
3. the plan cache (:mod:`repro.core.segcache`) is path-independent by
   construction — hits return the same objects a cold run would compute.

``jobs=1`` (the default) bypasses the pool entirely and runs every unit
inline, preserving the original serial code path.  The default worker
count comes from the ``REPRO_JOBS`` environment variable.

Workers are plain module-level functions taking one picklable unit tuple;
cache-counter deltas travel back with each unit's payload so hit/miss
totals are exact in both modes (worker processes have their own caches).
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.core.analysis import AnalysisResult, analyze
from repro.sched.rta import FixpointCache
from repro.sched.simulator import SimConfig, SimResult, simulate
from repro.sched.task import TaskSet

__all__ = [
    "analyze_batch",
    "resolve_jobs",
    "run_units",
    "simulate_batch",
    "stable_seed",
]


def stable_seed(*parts: Any) -> int:
    """Deterministic seed from mixed parts.

    ``hash()`` of strings is randomized per process and must never seed
    an experiment — CRC32 of the ``repr`` is stable across processes and
    Python versions, which is what makes work units independent of the
    process they run in.
    """
    text = "|".join(repr(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit ``jobs``, else ``REPRO_JOBS``, else 1.

    ``None`` and ``0`` both mean "use the environment default"; anything
    below 1 after resolution clamps to serial.
    """
    if jobs is None or jobs == 0:
        env = os.environ.get("REPRO_JOBS", "").strip()
        try:
            jobs = int(env) if env else 1
        except ValueError:
            jobs = 1
    return max(1, int(jobs))


def simulate_batch(
    cases: Iterable[Tuple[TaskSet, SimConfig]],
) -> List[SimResult]:
    """Simulate ``cases`` in order, amortizing per-run setup.

    When the SoA engine is active, one preallocated
    :class:`~repro.sched.simcore.Arena` serves the whole batch: the
    response buffer and segment columns warm up on the first run of
    each structure and every later run allocates nothing.  Every
    :class:`SimResult` is bit-identical to a scalar
    ``simulate(taskset, config)`` call.
    """
    arena = None
    try:
        from repro.sched import simcore

        if simcore.enabled():
            arena = simcore.Arena()
    except ImportError:  # pragma: no cover - simcore ships with the package
        pass
    return [simulate(taskset, config, arena) for taskset, config in cases]


def analyze_batch(
    cases: Iterable[Tuple[TaskSet, str]],
    cache: Optional[FixpointCache] = None,
) -> List[AnalysisResult]:
    """Analyze ``cases`` in order through one shared fixpoint memo.

    Sweep neighbors and method variants over the same set repeat most of
    their response-time fixpoint problems verbatim; a batch-wide
    :class:`~repro.sched.rta.FixpointCache` returns those bounds without
    iterating.  Results are bit-identical to scalar ``analyze`` calls.

    When the vectorized engine is available (numpy importable and
    ``REPRO_VEC_RTA`` unset/1), the whole batch is packed into one
    struct-of-arrays solve via :func:`repro.sched.vecrta.analyze_taskset_batch`
    — same results, same cache protocol, one array iteration per
    fixpoint step across all sets.
    """
    if cache is None:
        cache = FixpointCache()
    from repro.sched import vecrta

    if vecrta.enabled():
        return vecrta.analyze_taskset_batch(cases, cache=cache)
    return [analyze(taskset, method, cache=cache) for taskset, method in cases]


def run_units(
    worker: Callable[[Any], Any],
    units: Iterable[Any],
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
    absorb_deltas: bool = False,
    warm_prefix: int = 0,
) -> List[Any]:
    """Run ``worker`` over ``units``, preserving unit order in the result.

    With ``jobs <= 1`` every unit runs inline in the calling process (the
    serial path).  Otherwise units are dispatched to a process pool;
    ``chunksize`` controls how many consecutive units each dispatch
    carries — drivers pass one sweep-row per chunk so a worker keeps the
    plan-cache locality of consecutive sweep points for the same set.

    Args:
        worker: Module-level function of one unit (must be picklable).
        units: Work units in the serial iteration order.
        jobs: Worker processes; ``None``/``0`` = ``REPRO_JOBS`` env, else 1.
        chunksize: Units per pool dispatch (default: ~4 chunks per worker).
        absorb_deltas: The experiment-worker protocol returns
            ``(payload, cache_delta)`` per unit; when set, deltas coming
            back from a *pool* are folded into this process's plan-cache
            counters (inline units already counted themselves), so
            global hit/miss totals are exact at any worker count.
        warm_prefix: Run this many leading units inline *before* forking
            the pool.  Plan-cache misses are front-loaded (the first few
            sweep rows create most entries), and on fork-based platforms
            worker processes inherit the parent's populated caches — so
            a short warm prefix spares every worker its own cold start.
            Purely a placement choice: results are identical either way.

    Returns:
        ``[worker(u) for u in units]`` — identical contents either way.
    """
    units = list(units)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(units) <= 1:
        return [worker(unit) for unit in units]
    head_n = min(max(warm_prefix, 0), len(units) - 1)
    head = [worker(unit) for unit in units[:head_n]]
    rest = units[head_n:]
    if chunksize is None:
        chunksize = max(1, -(-len(rest) // (jobs * 4)))
    with ProcessPoolExecutor(max_workers=min(jobs, len(rest))) as pool:
        tail = list(pool.map(worker, rest, chunksize=chunksize))
    if absorb_deltas:
        from repro.core import segcache

        for result in tail:
            segcache.absorb(result[1])
    return head + tail
