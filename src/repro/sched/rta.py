"""Classic uniprocessor response-time analysis (RTA) building blocks.

These are the textbook fixed-priority analyses (Audsley/Tindell/Davis
style), generalized with release jitter and a caller-supplied blocking
term so the RT-MDM analyses in :mod:`repro.core.analysis` can reuse them
for both the CPU (segment compute bursts) and the DMA (weight transfers).

Conventions:

* Tasks are described by :class:`RtaTask`; ``priority`` lower = higher.
* All analyses return ``None`` when no bound exists (divergent busy
  period or overutilized resource), otherwise the worst-case response
  time in cycles **measured from the job's arrival at this resource**
  (the task's own jitter is an input to interference on others, not added
  to its own response — standard holistic-analysis convention).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class RtaTask:
    """Analysis-level task description.

    Attributes:
        name: For error messages and reports.
        exec_cycles: Worst-case demand per job on the analysed resource.
        period: Minimum inter-arrival time.
        deadline: Relative deadline (constrained: ``<= period``).
        priority: Fixed priority; lower number = higher priority.
        jitter: Release jitter on this resource (for holistic analysis).
        blocking: Maximum blocking from lower-priority non-preemptive
            sections, computed by the caller.
    """

    name: str
    exec_cycles: int
    period: int
    deadline: int
    priority: int
    jitter: int = 0
    blocking: int = 0

    def __post_init__(self) -> None:
        if self.exec_cycles < 0:
            raise ValueError(f"{self.name}: exec_cycles must be >= 0")
        if self.period <= 0:
            raise ValueError(f"{self.name}: period must be > 0")
        if not 0 < self.deadline <= self.period:
            raise ValueError(f"{self.name}: deadline must be in (0, period]")
        if self.jitter < 0 or self.blocking < 0:
            raise ValueError(f"{self.name}: jitter and blocking must be >= 0")

    @property
    def utilization(self) -> float:
        """Demand density on this resource."""
        return self.exec_cycles / self.period


def utilization(tasks: Sequence[RtaTask]) -> float:
    """Total utilization of ``tasks`` on the analysed resource."""
    return sum(t.utilization for t in tasks)


def liu_layland_bound(n: int) -> float:
    """The Liu & Layland RM utilization bound ``n(2^{1/n} - 1)``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return n * (2 ** (1 / n) - 1)


class HyperperiodError(ValueError):
    """The LCM of the periods exceeds the tractability cap.

    Co-prime periods make the hyperperiod grow multiplicatively — five
    random ~1e7-cycle periods easily exceed 1e30.  Any algorithm that
    iterates over a hyperperiod (demand-bound checkpoints, exhaustive
    phasing search, simulation horizons) silently degenerates on such
    inputs, so :func:`hyperperiod` fails loudly instead.
    """


#: Default hyperperiod cap: generous (~4.6e18 cycles is ~680 years at
#: 216 MHz) yet far below where big-int LCMs start costing real time.
HYPERPERIOD_CAP = 1 << 62


def hyperperiod(periods: Sequence[int], cap: Optional[int] = HYPERPERIOD_CAP) -> int:
    """Least common multiple of ``periods``, guarded against blowup.

    Args:
        periods: Positive periods in cycles.
        cap: Raise :class:`HyperperiodError` once the running LCM
            exceeds this bound (the fold short-circuits, so pathological
            inputs fail fast instead of allocating huge integers).
            ``None`` disables the guard.

    Raises:
        ValueError: Empty or non-positive periods.
        HyperperiodError: The LCM exceeds ``cap``.
    """
    if not periods:
        raise ValueError("periods must be non-empty")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    result = 1
    for period in periods:
        if period <= 0:
            raise ValueError(f"periods must be positive, got {period}")
        result = math.lcm(result, period)
        if cap is not None and result > cap:
            raise HyperperiodError(
                f"hyperperiod of {len(periods)} periods exceeds the cap: "
                f"partial LCM {result} > {cap}; pass cap=None to force, or "
                f"use try_hyperperiod() for a fallible lookup"
            )
    return result


def try_hyperperiod(
    periods: Sequence[int], cap: Optional[int] = HYPERPERIOD_CAP
) -> Optional[int]:
    """:func:`hyperperiod`, but ``None`` instead of raising on blowup.

    For callers with a natural fallback (e.g. simulation horizons capped
    at N jobs of the slowest task) that should degrade gracefully on
    co-prime period sets rather than abort.
    """
    try:
        return hyperperiod(periods, cap=cap)
    except HyperperiodError:
        return None


# ----------------------------------------------------------------------
# Fixpoint memoization
# ----------------------------------------------------------------------

#: Sentinel distinguishing "no cached entry" from a cached ``None``
#: (an unschedulable verdict is a result worth remembering too).
CACHE_MISS = object()

# Process-wide fixpoint counters (the per-instance counters roll up here
# so sweeps can report an aggregate memo hit rate; parallel runs ship
# worker deltas back through the plan-cache counter protocol).  The
# ``vec_*`` entries come from :mod:`repro.sched.vecrta`: batched array
# solves (``vec_batches``), fixpoint rows solved inside them
# (``vec_rows``), and cases where the vector engine handed a problem
# back to the scalar oracle (``vec_stand_downs``).
_FIXPOINT_KEYS = (
    "exact_hits", "misses",
    # Always zero: keeps the snapshot six wide for readers that index
    # the vec_* counters by position (driftbench/workloads.py).
    "reserved",
    "vec_batches", "vec_rows", "vec_stand_downs",
)
_fixpoint_counters = {key: 0 for key in _FIXPOINT_KEYS}


def fixpoint_counters() -> Dict[str, int]:
    """Process-wide RTA fixpoint counters."""
    return dict(_fixpoint_counters)


def fixpoint_snapshot() -> Tuple[int, ...]:
    """Counter values for later :func:`fixpoint_delta_since`."""
    c = _fixpoint_counters
    return tuple(c[key] for key in _FIXPOINT_KEYS)


def fixpoint_delta_since(before: Tuple[int, ...]) -> Tuple[int, ...]:
    """Counter increments since a :func:`fixpoint_snapshot`."""
    now = fixpoint_snapshot()
    return tuple(n - b for n, b in zip(now, before))


def fixpoint_absorb(delta: Tuple[int, ...]) -> None:
    """Fold a worker process's counter delta into this process's totals."""
    for key, inc in zip(_FIXPOINT_KEYS, delta):
        _fixpoint_counters[key] += inc


class FixpointCache:
    """Exact memo of RTA fixpoint solutions (bounded LRU).

    A fixpoint problem is a pure function of its arguments (e.g.
    ``(own, blocking, interferers, cap)``); identical problems — the
    unchanged task prefix of an admission re-screen, a repeated sweep
    point — return the stored solution without iterating, so results
    are bit-identical with or without the cache.
    """

    def __init__(self, maxsize: int = 8192) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._exact: "OrderedDict[Any, Optional[int]]" = OrderedDict()
        self.exact_hits = 0
        self.misses = 0

    def get_exact(self, key: Any) -> Any:
        """Stored solution for ``key``, or :data:`CACHE_MISS`."""
        value = self._exact.get(key, CACHE_MISS)
        if value is CACHE_MISS:
            self.misses += 1
            _fixpoint_counters["misses"] += 1
        else:
            self._exact.move_to_end(key)
            self.exact_hits += 1
            _fixpoint_counters["exact_hits"] += 1
        return value

    def put_exact(self, key: Any, value: Optional[int]) -> None:
        """Store a solution (bounded LRU)."""
        self._exact[key] = value
        self._exact.move_to_end(key)
        if len(self._exact) > self.maxsize:
            self._exact.popitem(last=False)

    def counters(self) -> Dict[str, int]:
        """This instance's hit/miss counters."""
        return {
            "exact_hits": self.exact_hits,
            "misses": self.misses,
        }


def _memo_key(task: RtaTask) -> Tuple[int, int, int, int, int, int]:
    """The numeric fields a WCRT computation actually reads."""
    return (
        task.exec_cycles, task.period, task.deadline,
        task.priority, task.jitter, task.blocking,
    )


def _hp(tasks: Sequence[RtaTask], task: RtaTask) -> List[RtaTask]:
    """Strictly higher-priority tasks (deterministic name tiebreak)."""
    key = (task.priority, task.name)
    return [t for t in tasks if (t.priority, t.name) < key]


def _busy_period(
    task: RtaTask, interferers: Sequence[RtaTask], extra: int, cap: int
) -> Optional[int]:
    """Length of the level-i busy period, or None if it exceeds ``cap``."""
    length = max(1, extra + task.exec_cycles)
    while True:
        demand = extra + sum(
            int(math.ceil((length + t.jitter) / t.period)) * t.exec_cycles
            for t in [task, *interferers]
        )
        if demand <= length:
            return length
        if demand > cap:
            return None
        length = demand


def _response_cap(task: RtaTask, interferers: Sequence[RtaTask]) -> int:
    """Iteration cap: generous but finite, to bound divergent fixpoints."""
    total = task.exec_cycles + task.blocking + sum(t.exec_cycles for t in interferers)
    periods = [task.period, *(t.period for t in interferers)]
    return 64 * (total + max(periods)) + 64 * task.period


def fp_preemptive_wcrt(
    tasks: Sequence[RtaTask],
    task: RtaTask,
    cache: Optional[FixpointCache] = None,
) -> Optional[int]:
    """WCRT under preemptive fixed-priority scheduling with jitter/blocking.

    Busy-period formulation (handles response times beyond one period):

    ``w(q) = (q + 1) C_i + B_i + sum_hp ceil((w + J_j) / T_j) C_j``
    ``R_i  = max_q (w(q) - q T_i)``

    Args:
        cache: Optional :class:`FixpointCache`.  Identical (task,
            interferer-set) problems return their memoized bound.
    """
    interferers = _hp(tasks, task)
    if cache is not None:
        exact_key = (
            "fp-p", _memo_key(task), tuple(_memo_key(t) for t in interferers)
        )
        hit = cache.get_exact(exact_key)
        if hit is not CACHE_MISS:
            return hit
    cap = _response_cap(task, interferers)
    busy = _busy_period(task, interferers, task.blocking, cap)
    if busy is None:
        if cache is not None:
            cache.put_exact(exact_key, None)
        return None
    q_max = int(math.ceil((busy + task.jitter) / task.period))
    worst = 0
    for q in range(q_max):
        w = (q + 1) * task.exec_cycles + task.blocking
        while True:
            demand = (
                (q + 1) * task.exec_cycles
                + task.blocking
                + sum(
                    int(math.ceil((w + t.jitter) / t.period)) * t.exec_cycles
                    for t in interferers
                )
            )
            if demand == w:
                break
            if demand > cap:
                if cache is not None:
                    cache.put_exact(exact_key, None)
                return None
            w = demand
        worst = max(worst, w - q * task.period)
    if cache is not None:
        cache.put_exact(exact_key, worst)
    return worst


def fp_nonpreemptive_wcrt(
    tasks: Sequence[RtaTask],
    task: RtaTask,
    cache: Optional[FixpointCache] = None,
) -> Optional[int]:
    """WCRT under non-preemptive fixed-priority scheduling.

    Davis & Burns style: the *start* time of the q-th job in the level-i
    busy period solves

    ``w(q) = B_i + q C_i + sum_hp (floor((w + J_j) / T_j) + 1) C_j``

    and the response is ``w(q) + C_i - q T_i``.  Once started, a job runs
    to completion (``exec_cycles`` is the whole non-preemptive section —
    for segmented tasks, call this per-segment via the higher-level
    analyses instead).

    ``cache`` behaves as in :func:`fp_preemptive_wcrt`.
    """
    interferers = _hp(tasks, task)
    if cache is not None:
        exact_key = (
            "fp-n", _memo_key(task), tuple(_memo_key(t) for t in interferers)
        )
        hit = cache.get_exact(exact_key)
        if hit is not CACHE_MISS:
            return hit
    cap = _response_cap(task, interferers)
    busy = _busy_period(task, interferers, task.blocking, cap)
    if busy is None:
        if cache is not None:
            cache.put_exact(exact_key, None)
        return None
    q_max = int(math.ceil((busy + task.jitter) / task.period))
    worst = 0
    for q in range(q_max):
        w = task.blocking + q * task.exec_cycles
        while True:
            demand = (
                task.blocking
                + q * task.exec_cycles
                + sum(
                    (int(math.floor((w + t.jitter) / t.period)) + 1) * t.exec_cycles
                    for t in interferers
                )
            )
            if demand == w:
                break
            if demand > cap:
                if cache is not None:
                    cache.put_exact(exact_key, None)
                return None
            w = demand
        worst = max(worst, w + task.exec_cycles - q * task.period)
    if cache is not None:
        cache.put_exact(exact_key, worst)
    return worst


def with_np_blocking(tasks: Sequence[RtaTask]) -> List[RtaTask]:
    """Return copies with ``blocking`` set to the classic NP bound.

    Each task can be blocked by at most one lower-priority job that
    already started: ``B_i = max`` over lower-priority ``exec_cycles``.
    """
    result = []
    for task in tasks:
        key = (task.priority, task.name)
        lower = [t.exec_cycles for t in tasks if (t.priority, t.name) > key]
        result.append(
            RtaTask(
                name=task.name,
                exec_cycles=task.exec_cycles,
                period=task.period,
                deadline=task.deadline,
                priority=task.priority,
                jitter=task.jitter,
                blocking=max(lower, default=0),
            )
        )
    return result


def fault_aware_wcrt(
    tasks: Sequence[RtaTask],
    task: RtaTask,
    k_faults: int,
    fault_cost: int,
    preemptive: bool = False,
) -> Optional[int]:
    """WCRT of ``task`` when every job may suffer up to ``k_faults`` faults.

    Each fault (a failed transfer attempt with its retries, CRC
    rechecks, backoff slots, watchdog waits, or a REMAP re-fetch) costs
    at most ``fault_cost`` extra cycles of demand on the analysed
    resource.  The bound charges the full fault budget to *every* job in
    the window — ``k_faults * fault_cost`` is added to each task's
    ``exec_cycles`` (its own demand and its interference on others) and
    to each task's ``blocking`` (a lower-priority fault-handling section
    can block, too).  Demand, interference, and blocking are monotone in
    these terms, so the result upper-bounds any execution in which every
    job experiences at most ``k_faults`` faults of at most ``fault_cost``
    cycles each.
    """
    if k_faults < 0:
        raise ValueError(f"k_faults must be >= 0, got {k_faults}")
    if fault_cost < 0:
        raise ValueError(f"fault_cost must be >= 0, got {fault_cost}")
    extra = k_faults * fault_cost
    inflated = [
        RtaTask(
            name=t.name,
            exec_cycles=t.exec_cycles + extra,
            period=t.period,
            deadline=t.deadline,
            priority=t.priority,
            jitter=t.jitter,
            blocking=t.blocking + extra,
        )
        for t in tasks
    ]
    target = next(t for t in inflated if t.name == task.name)
    analysis = fp_preemptive_wcrt if preemptive else fp_nonpreemptive_wcrt
    return analysis(inflated, target)


def fp_schedulable(
    tasks: Sequence[RtaTask], preemptive: bool = False
) -> bool:
    """Whether every task's WCRT bound meets its deadline."""
    analysis = fp_preemptive_wcrt if preemptive else fp_nonpreemptive_wcrt
    for task in tasks:
        wcrt = analysis(tasks, task)
        if wcrt is None or wcrt > task.deadline:
            return False
    return True


def edf_demand_schedulable(tasks: Sequence[RtaTask]) -> bool:
    """Processor-demand test for preemptive EDF (jitter/blocking ignored).

    Checks ``dbf(t) <= t`` at all deadlines up to the busy-period bound
    ``L*``; sufficient and necessary for independent preemptive tasks.
    """
    total_util = utilization(tasks)
    if total_util > 1.0:
        return False
    if total_util == 0.0:
        return True
    if total_util < 1.0:
        numerator = sum(
            max(0, t.period - t.deadline) * t.utilization for t in tasks
        )
        l_star = numerator / (1.0 - total_util)
    else:
        l_star = float(hyperperiod([t.period for t in tasks]))
    limit = max(int(math.ceil(l_star)), max(t.deadline for t in tasks))
    checkpoints = sorted(
        {
            t.deadline + k * t.period
            for t in tasks
            for k in range(0, (limit - t.deadline) // t.period + 1)
        }
    )
    for point in checkpoints:
        demand = sum(
            ((point - t.deadline) // t.period + 1) * t.exec_cycles
            for t in tasks
            if point >= t.deadline
        )
        if demand > point:
            return False
    return True
