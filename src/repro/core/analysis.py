"""Schedulability analyses for segmented tasks on CPU + DMA.

The execution model these analyses bound (and the simulator implements):

* CPU: segment-level non-preemptive fixed priority;
* DMA: non-preemptive transfers, priority arbitration;
* within a job, loads respect buffer depth and computes respect loads.

Three safe analyses are provided; ``rtmdm`` takes the per-task minimum of
the two tighter ones (the minimum of safe bounds is safe):

``oblivious`` (suspension-oblivious)
    The job's demand is the full serialized work ``sum(C) + sum(L)``; no
    credit for overlap.  The classic safe-but-pessimistic baseline.

``overlap`` (overlap-aware)
    The job's demand is its *isolated pipelined latency* — RT-MDM's own
    double-buffer overlap is credited.  Contention effects are covered by
    the interference and blocking terms:

    * higher-priority tasks inject ``C_j + L_j`` per job in the window
      (a CPU-busy and a DMA-busy cycle may coincide; counting both is
      pessimistic, never optimistic);
    * lower-priority tasks block non-preemptively at most once per
      segment boundary on the CPU (``n_seg * max_lp_compute``) and once
      per issued transfer on the DMA (``n_load * max_lp_load``).

``holistic`` (two-stage pipeline decomposition)
    The job finishes no later than "all loads complete under DMA
    contention" (``RL_i``) followed by "all computes run under CPU
    contention" (``RC_i``): ``R_i <= RL_i + RC_i``.  Higher-priority
    computes reach the CPU with release jitter up to their own ``RL_j``.

Release jitter of a higher-priority task is ``R_j - E_j`` (its demand can
bunch at the end of its response window), computed in priority order.

Every analysis is validated against the discrete-event simulator by the
property tests in ``tests/test_analysis_safety.py``: whenever an analysis
admits a task set, no simulated phasing may miss a deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import isolated_latency
from repro.sched.rta import CACHE_MISS, FixpointCache
from repro.sched.task import PeriodicTask, TaskSet, inflate_compute, inflate_loads

#: Analysis method names accepted by :func:`analyze`.
METHODS = ("oblivious", "overlap", "holistic", "rtmdm")


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of one schedulability analysis over a task set.

    Attributes:
        method: Analysis method name.
        wcrt: Per-task worst-case response-time bound in cycles, or
            ``None`` when no bound at or below the deadline exists.
        deadlines: Per-task relative deadlines (for reports).
    """

    method: str
    wcrt: Dict[str, Optional[int]]
    deadlines: Dict[str, int]

    @property
    def schedulable(self) -> bool:
        """True iff every task has a bound within its deadline."""
        return all(
            bound is not None and bound <= self.deadlines[name]
            for name, bound in self.wcrt.items()
        )

    def margin(self, name: str) -> Optional[int]:
        """Deadline minus bound for one task (None when unbounded)."""
        bound = self.wcrt[name]
        return None if bound is None else self.deadlines[name] - bound


@dataclass(frozen=True)
class _View:
    """Pre-computed per-task quantities the analyses consume."""

    task: PeriodicTask
    total_c: int
    total_l: int
    n_seg: int
    n_load: int
    max_c: int
    max_l: int
    latency: int

    @classmethod
    def of(cls, task: PeriodicTask) -> "_View":
        return cls(
            task=task,
            total_c=task.total_compute,
            total_l=task.total_load,
            n_seg=task.num_segments,
            n_load=sum(1 for s in task.segments if s.load_cycles > 0),
            max_c=task.max_segment_compute,
            max_l=max((s.load_cycles for s in task.segments), default=0),
            latency=isolated_latency(task.segments, task.buffers),
        )


def _views_by_priority(taskset: TaskSet) -> List[_View]:
    """Views sorted highest priority first; priorities must be unique."""
    priorities = [t.priority for t in taskset]
    if len(set(priorities)) != len(priorities):
        raise ValueError(f"analyses need unique task priorities, got {priorities}")
    return [_View.of(t) for t in taskset.sorted_by_priority()]


def _fixpoint(
    own: int,
    blocking: int,
    interferers: Sequence[Tuple[int, int, int]],
    cap: int,
    cache: Optional[FixpointCache] = None,
) -> Optional[int]:
    """Solve ``R = own + blocking + sum ceil((R + J)/T) * I``.

    ``interferers`` are ``(demand, period, jitter)`` triples.  Returns
    None when the value exceeds ``cap`` (callers pass the deadline: a
    bound beyond it is useless and busy-window assumptions lapse).

    With a ``cache``, identical problems return the memoized solution
    (always sound: the result is a pure function of the arguments).
    """
    if cache is not None:
        exact_key = (own, blocking, tuple(interferers), cap)
        hit = cache.get_exact(exact_key)
        if hit is not CACHE_MISS:
            return hit
    response = own + blocking
    result: Optional[int]
    while True:
        demand = own + blocking
        for interference, period, jitter in interferers:
            demand += -((response + jitter) // -period) * interference  # ceil div
        if demand > cap:
            result = None
            break
        if demand == response:
            result = response
            break
        response = demand
    if cache is not None:
        cache.put_exact(exact_key, result)
    return result


def _single_resource_analysis(
    views: List[_View],
    demand_of: Callable[[_View], int],
    interference_of: Callable[[_View], int],
    blocking_of: Callable[[_View, List[_View]], int],
    cache: Optional[FixpointCache] = None,
) -> Dict[str, Optional[int]]:
    """Generic highest-priority-first fixpoint pass with jitter chaining."""
    wcrt: Dict[str, Optional[int]] = {}
    jitters: List[int] = []
    for index, view in enumerate(views):
        higher = views[:index]
        lower = views[index + 1:]
        interferers = [
            (interference_of(h), h.task.period, jitters[k])
            for k, h in enumerate(higher)
        ]
        bound = _fixpoint(
            own=demand_of(view),
            blocking=blocking_of(view, lower),
            interferers=interferers,
            cap=view.task.deadline,
            cache=cache,
        )
        wcrt[view.task.name] = bound
        if bound is None:
            # Everything below is unschedulable too (interference from an
            # unbounded task cannot be bounded); stop the cascade.
            for v in lower:
                wcrt[v.task.name] = None
            break
        jitters.append(max(0, bound - demand_of(view)))
    return wcrt


def _cpu_dma_blocking(view: _View, lower: List[_View]) -> int:
    """Non-preemptive blocking on both resources (oblivious/overlap)."""
    max_lp_c = max((v.max_c for v in lower), default=0)
    max_lp_l = max((v.max_l for v in lower), default=0)
    return view.n_seg * max_lp_c + view.n_load * max_lp_l


def _analyze_oblivious(
    views: List[_View],
    cache: Optional[FixpointCache] = None,
) -> Dict[str, Optional[int]]:
    return _single_resource_analysis(
        views,
        demand_of=lambda v: v.total_c + v.total_l,
        interference_of=lambda v: v.total_c + v.total_l,
        blocking_of=_cpu_dma_blocking,
        cache=cache,
    )


def _analyze_overlap(
    views: List[_View],
    cache: Optional[FixpointCache] = None,
) -> Dict[str, Optional[int]]:
    return _single_resource_analysis(
        views,
        demand_of=lambda v: v.latency,
        interference_of=lambda v: v.total_c + v.total_l,
        blocking_of=_cpu_dma_blocking,
        cache=cache,
    )


def _analyze_holistic(
    views: List[_View],
    cache: Optional[FixpointCache] = None,
) -> Dict[str, Optional[int]]:
    """Two-stage decomposition: DMA stage then CPU stage.

    SOUNDNESS RESTRICTION: the stage-sum ``R <= RL + RC`` is valid only
    for tasks whose buffer depth covers every segment (``buffers >=
    num_segments``).  Then no load waits for a compute (no gating), so:

    * **Stage 1 (DMA)**: all loads are eligible at release and issue
      back-to-back under priority arbitration — at most *one*
      lower-priority transfer blocks (non-preemptive, once started the
      task's own queued transfers outrank any new lower-priority one).
    * **Stage 2 (CPU)**: once every load is done, the job's computes are
      continuously ready, so at most *one* lower-priority section blocks
      and the job never yields to lower priority again.

    With gating (fewer buffers than segments), a load can wait for a
    compute whose delay the DMA stage does not model; the adversarial
    search in ``tests/test_analysis_adversarial.py`` produces real
    violations for the naive stage-sum.  Gated tasks therefore fall back
    to their overlap-analysis bound inside this method.

    Higher-priority demand bunching uses per-resource release jitter
    ``R_j - demand_j`` derived from the method's own final bounds, in
    priority order.
    """
    wcrt: Dict[str, Optional[int]] = {}
    dma_jitters: List[int] = []
    cpu_jitters: List[int] = []
    both_jitters: List[int] = []
    for index, view in enumerate(views):
        higher = views[:index]
        lower = views[index + 1:]
        bound: Optional[int]
        if view.task.buffers >= view.n_seg:
            rl = _fixpoint(
                own=view.total_l,
                blocking=max((v.max_l for v in lower), default=0),
                interferers=[
                    (h.total_l, h.task.period, dma_jitters[k])
                    for k, h in enumerate(higher)
                ],
                cap=view.task.deadline,
                cache=cache,
            )
            rc = None
            if rl is not None:
                rc = _fixpoint(
                    own=view.total_c,
                    blocking=max((v.max_c for v in lower), default=0),
                    interferers=[
                        (h.total_c, h.task.period, cpu_jitters[k])
                        for k, h in enumerate(higher)
                    ],
                    cap=view.task.deadline,
                    cache=cache,
                )
            bound = None if rl is None or rc is None else rl + rc
            if bound is not None and bound > view.task.deadline:
                bound = None
        else:
            bound = _fixpoint(
                own=view.latency,
                blocking=_cpu_dma_blocking(view, lower),
                interferers=[
                    (h.total_c + h.total_l, h.task.period, both_jitters[k])
                    for k, h in enumerate(higher)
                ],
                cap=view.task.deadline,
                cache=cache,
            )
        wcrt[view.task.name] = bound
        if bound is None:
            for v in lower:
                wcrt[v.task.name] = None
            break
        dma_jitters.append(max(0, bound - view.total_l))
        cpu_jitters.append(max(0, bound - view.total_c))
        both_jitters.append(max(0, bound - view.total_c - view.total_l))
    return wcrt


def analyze(
    taskset: TaskSet,
    method: str = "rtmdm",
    cache: Optional[FixpointCache] = None,
) -> AnalysisResult:
    """Run a schedulability analysis over ``taskset``.

    Args:
        taskset: Segmented tasks with unique priorities and constrained
            deadlines (cycles).
        method: One of :data:`METHODS`.
        cache: Optional :class:`~repro.sched.rta.FixpointCache`; repeated
            fixpoint problems (shared prefixes across Audsley trials,
            re-screens, sweep neighbors) skip iteration entirely.  The
            result is bit-identical with or without it.

    Returns:
        An :class:`AnalysisResult`; ``result.schedulable`` is the
        admission verdict.
    """
    if method not in METHODS:
        raise ValueError(f"unknown analysis method {method!r}; choose from {METHODS}")
    views = _views_by_priority(taskset)
    deadlines = {t.name: t.deadline for t in taskset}
    if method == "oblivious":
        return AnalysisResult(
            "oblivious", _analyze_oblivious(views, cache), deadlines
        )
    if method == "overlap":
        return AnalysisResult(
            "overlap", _analyze_overlap(views, cache), deadlines
        )
    if method == "holistic":
        return AnalysisResult(
            "holistic", _analyze_holistic(views, cache), deadlines
        )
    overlap = _analyze_overlap(views, cache)
    holistic = _analyze_holistic(views, cache)
    combined: Dict[str, Optional[int]] = {}
    for name in overlap:
        bounds = [b for b in (overlap[name], holistic[name]) if b is not None]
        combined[name] = min(bounds) if bounds else None
    return AnalysisResult("rtmdm", combined, deadlines)


def fault_aware_analysis(
    taskset: TaskSet,
    k_faults: int,
    fault_cost: int,
    method: str = "rtmdm",
) -> AnalysisResult:
    """Schedulability with up to ``k_faults`` transfer faults per job.

    Runs ``method`` over the fault-inflated task set
    (:func:`repro.sched.task.inflate_loads`): every task that stages
    weights carries ``k_faults * fault_cost`` extra DMA cycles on its
    first load (serial in the pipeline latency) and on its largest load
    segment (the non-preemptive blocking term), covering the retries,
    CRC rechecks, backoff slots, watchdog waits, and REMAP re-fetches
    any distribution of at most ``k_faults`` faults per job can cost
    (derive ``fault_cost`` from the handler configuration with
    :func:`repro.robust.escalation.fault_overhead_cycles`).  All demand,
    interference, blocking, and latency terms of the analyses are
    monotone in load cycles, so admission of the inflated set is sound
    for the faulty system — property-tested against the simulator under
    ``<= k_faults`` injected faults per job.

    With ``k_faults == 0`` (or a zero cost) this is exactly
    :func:`analyze`.
    """
    return analyze(inflate_loads(taskset, k_faults, fault_cost), method)


def sensitivity_margin(
    taskset: TaskSet,
    method: str = "rtmdm",
    upper: float = 16.0,
    tolerance: float = 1e-3,
) -> Optional[float]:
    """Largest uniform WCET inflation the admission guarantee absorbs.

    Binary-searches the biggest factor ``f`` such that the task set with
    every compute WCET scaled to ``ceil(f * C)`` is still admitted by
    ``method``.  This is the set's *overrun budget*: measured WCETs may
    collectively be wrong by up to this factor before the offline
    guarantee lapses.

    Returns:
        ``None`` when the nominal set is already rejected; ``upper``
        when even the maximal probed inflation is admitted; otherwise a
        factor in ``[1, upper)`` accurate to ``tolerance``.
        Admission is monotone in ``f`` (inflating compute only adds
        demand, interference, and blocking), so the binary search is
        exact up to the tolerance.
    """
    if upper < 1.0:
        raise ValueError(f"upper must be >= 1, got {upper}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    # Probes share one exact fixpoint memo: a fixpoint problem repeated
    # across probes skips iteration.
    cache = FixpointCache()
    if not analyze(taskset, method, cache=cache).schedulable:
        return None
    if analyze(inflate_compute(taskset, upper), method, cache=cache).schedulable:
        return upper
    lo, hi = 1.0, upper
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if analyze(inflate_compute(taskset, mid), method, cache=cache).schedulable:
            lo = mid
        else:
            hi = mid
    return lo


def sensitivity_margin_batch(
    tasksets: Sequence[TaskSet],
    method: str = "rtmdm",
    upper: float = 16.0,
    tolerance: float = 1e-3,
) -> List[Optional[float]]:
    """Batched :func:`sensitivity_margin` over many task sets.

    Runs every set's binary search in lock-step: at each step all still-
    active sets' inflated probes go through one vectorized batch analysis
    (:func:`repro.sched.vecrta.analyze_taskset_batch`; scalar fallback
    when the engine is off).  Each set sees exactly the probe sequence
    the scalar search would issue — midpoints depend only on that set's
    own lo/hi floats and verdicts are bit-identical — so returned
    margins equal ``[sensitivity_margin(ts, ...) for ts in tasksets]``.
    """
    if upper < 1.0:
        raise ValueError(f"upper must be >= 1, got {upper}")
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    from repro.sched import vecrta

    tasksets = list(tasksets)
    cache = FixpointCache()
    margins: List[Optional[float]] = [None] * len(tasksets)

    def probe(pairs):
        return vecrta.analyze_taskset_batch(pairs, cache=cache)

    base = probe([(ts, method) for ts in tasksets])
    admitted = [i for i, res in enumerate(base) if res.schedulable]
    top = probe([(inflate_compute(tasksets[i], upper), method) for i in admitted])
    bounds: Dict[int, Tuple[float, float]] = {}
    for i, res in zip(admitted, top):
        if res.schedulable:
            margins[i] = upper
        elif upper - 1.0 > tolerance:
            bounds[i] = (1.0, upper)
        else:
            margins[i] = 1.0
    active = sorted(bounds)
    while active:
        mids = {i: (bounds[i][0] + bounds[i][1]) / 2 for i in active}
        step = probe(
            [(inflate_compute(tasksets[i], mids[i]), method) for i in active]
        )
        remaining = []
        for i, res in zip(active, step):
            lo, hi = bounds[i]
            if res.schedulable:
                lo = mids[i]
            else:
                hi = mids[i]
            if hi - lo > tolerance:
                bounds[i] = (lo, hi)
                remaining.append(i)
            else:
                margins[i] = lo
        active = remaining
    return margins
