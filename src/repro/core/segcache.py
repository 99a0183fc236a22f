"""Bounded memoization for the planning pipeline (the "plan cache").

The evaluation sweeps re-run the exact same expensive planning work over
and over: paired draws evaluate the *same* models at every sweep point,
and the generator's derived knobs (staging chunk size, non-preemptive
compute cap, per-task SRAM budgets) are continuous functions of the sweep
variable, so naive exact-key caching would almost never hit.  This module
therefore does two things:

1. **Canonicalization** — planner inputs are *quantized down* to a coarse
   deterministic ladder before planning (and before key construction), so
   nearby sweep points collapse onto the same key.  Rounding *down* is the
   conservative direction for every knob:

   * a smaller staging chunk / compute cap yields *finer* granularity than
     requested (never a longer non-preemptive section);
   * a smaller staging-slot byte budget uses *less* SRAM than granted.

   Quantization is applied on the cold path too, so a cache hit returns
   bit-identical results to a cache miss (and to a run with the cache
   disabled) by construction.

2. **Bounded LRU caches with hit/miss counters** — one per planning stage
   (zoo model build, granularity refinement, segmentation search,
   schedulability analysis).  Counters are cheap to snapshot/diff so
   parallel workers can report per-unit deltas that merge into exact
   totals.

Key soundness notes:

* The segmentation-search key uses a *planner* platform fingerprint that
  deliberately excludes SRAM/flash capacity: segment timing
  (``compute_cycles``/``load_cycles``) depends only on the clock, DSP/FPU
  flags, timing coefficients, external-memory bandwidth/setup and DMA
  programming overhead.  SRAM capacity enters only through the byte
  budget, which is part of the key — so an SRAM sweep
  (``platform.with_sram_bytes``) reuses search results across points.
* Cached values store the **boundaries plus the materialized segment
  tuple** (both fully determined by the key); the ``SegmentedModel``
  itself is rebuilt with the *caller's* platform object on every hit.
* Budgets at or above the model's total weight bytes are equivalent
  (every contiguous partition is byte-feasible), so the slot budget is
  clamped to ``total_param_bytes`` before quantization.  Likewise a
  compute cap at or above the model's total compute never binds and is
  canonicalized to "no cap".
* ``SegmentationError`` outcomes are cached too (negative caching): the
  planner is deterministic, so an infeasible key stays infeasible.

Environment knobs: ``REPRO_PLAN_CACHE=0`` disables all caches;
``REPRO_PLAN_CACHE_SIZE`` overrides the per-cache entry bound;
``REPRO_PLAN_STORE=<dir>`` adds the persistent on-disk tier below the
search LRU (see :mod:`repro.core.planstore`).
"""

from __future__ import annotations

import dataclasses
import enum
import os
import sys
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from repro.core import pipeline as _pipeline
from repro.core import planstore
from repro.core.analysis import AnalysisResult, analyze
from repro.core.pipeline import SegmentedModel
from repro.core.segmentation import SegmentationError, search_segmentation
from repro.dnn.models import Model, refine_model
from repro.dnn.quantization import Quantization
from repro.dnn.zoo import build_model
from repro.hw.platform import Platform
from repro.sched.task import TaskSet

__all__ = [
    "PlanCache",
    "cached_analyze",
    "cached_build_model",
    "cached_refine_model",
    "cached_search_segmentation",
    "cached_segment_transform",
    "cached_xip_segments",
    "cache_note",
    "clear_all",
    "configure",
    "counters",
    "delta_since",
    "freeze",
    "merge_deltas",
    "planner_platform_fingerprint",
    "pow2_floor",
    "quarter_pow2_floor",
    "set_enabled",
    "snapshot",
    "stats",
]

_DEFAULT_MAXSIZE = 4096


def _env_enabled() -> bool:
    return os.environ.get("REPRO_PLAN_CACHE", "1") != "0"


def _env_maxsize() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_PLAN_CACHE_SIZE", _DEFAULT_MAXSIZE)))
    except ValueError:
        return _DEFAULT_MAXSIZE


# ----------------------------------------------------------------------
# Deterministic deep fingerprints
# ----------------------------------------------------------------------
def freeze(obj: Any) -> Any:
    """Recursively convert ``obj`` into a hashable, deterministic key part.

    Handles the (frozen) dataclasses used throughout the library even when
    they hold unhashable ``Mapping`` fields (e.g. ``TimingModel``), plus
    enums, sequences and mappings.  The result is stable across processes
    (no reliance on ``id``/``hash`` randomization).
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.name)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, freeze(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, Mapping):
        return ("map", tuple(sorted((freeze(k), freeze(v)) for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(item) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(freeze(item) for item in obj)))
    raise TypeError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")


# ----------------------------------------------------------------------
# Quantization ladders (always round DOWN: conservative direction)
# ----------------------------------------------------------------------
def pow2_floor(value: int) -> int:
    """Largest power of two <= ``value`` (values < 1 pass through)."""
    if value < 1:
        return value
    return 1 << (value.bit_length() - 1)


def quarter_pow2_floor(value: int) -> int:
    """Largest ``{1, 1.25, 1.5, 1.75} * 2**p`` value <= ``value``.

    A finer ladder (max 20% loss) for SRAM byte budgets, where rounding
    down wastes real capacity; the coarse :func:`pow2_floor` ladder is for
    granularity caps, where rounding down merely over-fragments a little.
    """
    if value < 4:
        return value
    base = 1 << (value.bit_length() - 1)
    step = base >> 2
    return base + ((value - base) // step) * step


# ----------------------------------------------------------------------
# Bounded LRU cache with counters
# ----------------------------------------------------------------------
class PlanCache:
    """A bounded LRU map with hit/miss counters (thread-safe)."""

    def __init__(self, name: str, maxsize: Optional[int] = None) -> None:
        self.name = name
        self._maxsize = maxsize if maxsize is not None else _env_maxsize()
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any) -> Tuple[bool, Any]:
        """Return ``(found, value)``; a hit refreshes LRU recency."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return False, None
            self._data.move_to_end(key)
            self.hits += 1
            return True, value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)

    def add_counts(self, hits: int, misses: int) -> None:
        """Fold externally-observed traffic (a worker's delta) into the
        counters without touching the stored entries."""
        with self._lock:
            self.hits += hits
            self.misses += misses

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def resize(self, maxsize: int) -> None:
        with self._lock:
            self._maxsize = max(1, maxsize)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)


#: Public caches, by planning stage.  "refine" + "search" together form
#: the *segmentation cache* reported in experiment notes.
CACHES: Dict[str, PlanCache] = {
    "zoo": PlanCache("zoo"),
    "refine": PlanCache("refine"),
    "search": PlanCache("search"),
    "analysis": PlanCache("analysis"),
}

#: Internal per-(model, platform) aggregate memo (not part of the public
#: counters; it only amortizes prefix-sum style aggregates).
_costs_memo = PlanCache("_costs")

#: Internal memo for derived XIP-baseline segment tuples (immutable, so
#: sharing across tasksets is safe); also outside the public counters —
#: the experiment notes report *segmentation* cache traffic.
_xip_memo = PlanCache("_xip")

#: Internal memo for baseline segment-tuple transforms, keyed by the
#: *identity* of the source tuple (the plan cache hands the same shared
#: tuple to every hit, so admission sweeps transform it thousands of
#: times).  Entries hold a strong reference to the source tuple.
_transform_memo = PlanCache("_transform")

_enabled = _env_enabled()


def set_enabled(flag: bool) -> None:
    """Enable/disable all plan caches (counters keep accumulating)."""
    global _enabled
    _enabled = bool(flag)


def is_enabled() -> bool:
    return _enabled


# The pipeline module's id-keyed latency memo obeys the same master
# switch; bound late because ``pipeline`` cannot import this module.
_pipeline._memo_enabled = is_enabled


def configure(enabled: Optional[bool] = None, maxsize: Optional[int] = None) -> None:
    """Adjust cache behaviour at runtime (used by tests and the CLI)."""
    if enabled is not None:
        set_enabled(enabled)
    if maxsize is not None:
        for cache in CACHES.values():
            cache.resize(maxsize)
        _costs_memo.resize(maxsize)
        _xip_memo.resize(maxsize)
        _transform_memo.resize(maxsize)


def clear_all() -> None:
    """Drop every cached entry and reset all counters.

    Also empties the identity memos that pin planned objects — the
    fingerprint memos here, the XIP column memo of
    :mod:`repro.eval.systems` and the default SoA arena's segment
    columns — so nothing planned before the call stays alive.
    """
    from repro.sched import simcore

    for cache in CACHES.values():
        cache.clear()
    _costs_memo.clear()
    _xip_memo.clear()
    _transform_memo.clear()
    _pipeline._latency_memo.clear()
    for memo in (_model_fingerprint, _quant_fingerprint, _platform_fingerprint):
        memo.clear()
    systems = sys.modules.get("repro.eval.systems")
    if systems is not None:  # never imported: nothing memoized
        systems._XIP_COLS.clear()
    simcore.default_arena().clear_columns()


def snapshot() -> Dict[str, Tuple[int, ...]]:
    """Current counter values: ``(hits, misses)`` per plan cache, plus
    the ``"sim.soa"`` (runs, events, stand_downs), ``"rta.fixpoint"``
    (exact_hits, misses, reserved, vec_batches, vec_rows,
    vec_stand_downs; ``reserved`` is always zero), ``"planstore"`` and
    ``"fleet.resilience"`` (degraded_admits, timeout_retries,
    recovered, crashes) pseudo-entries — one protocol carries every
    performance counter through the parallel runner's worker deltas.
    """
    from repro.robust import recovery
    from repro.sched import rta, simcore

    snap: Dict[str, Tuple[int, ...]] = {
        name: (cache.hits, cache.misses) for name, cache in CACHES.items()
    }
    snap["sim.soa"] = simcore.soa_snapshot()
    snap["rta.fixpoint"] = rta.fixpoint_snapshot()
    snap["planstore"] = planstore.counters_snapshot()
    snap["fleet.resilience"] = recovery.resilience_snapshot()
    return snap


def delta_since(before: Mapping[str, Tuple[int, ...]]) -> Dict[str, Tuple[int, ...]]:
    """Counter increments since a :func:`snapshot`."""
    now = snapshot()
    out: Dict[str, Tuple[int, ...]] = {}
    for name, vals in now.items():
        prev = before.get(name, ())
        out[name] = tuple(
            v - (prev[i] if i < len(prev) else 0) for i, v in enumerate(vals)
        )
    return out


def absorb(delta: Mapping[str, Tuple[int, ...]]) -> None:
    """Fold a worker process's counter delta into this process's totals.

    Serial runs never call this — inline units already bumped the global
    counters.  :func:`repro.eval.parallel.run_units` applies it to
    results coming back from a process pool, so :func:`snapshot` /
    :func:`delta_since` in the parent stay exact at any worker count.
    """
    for name, vals in delta.items():
        if name == "sim.soa":
            from repro.sched import simcore

            simcore.soa_absorb(vals)
        elif name == "rta.fixpoint":
            from repro.sched import rta

            rta.fixpoint_absorb(vals)
        elif name == "planstore":
            planstore.counters_absorb(vals)
        elif name == "fleet.resilience":
            from repro.robust import recovery

            recovery.resilience_absorb(vals)
        else:
            cache = CACHES.get(name)
            if cache is not None:
                cache.add_counts(vals[0], vals[1])


def merge_deltas(
    deltas: Iterable[Mapping[str, Tuple[int, ...]]]
) -> Dict[str, Tuple[int, ...]]:
    """Sum per-unit counter deltas (order-independent)."""
    total: Dict[str, Tuple[int, ...]] = {}
    for delta in deltas:
        for name, vals in delta.items():
            prev = total.get(name, ())
            width = max(len(prev), len(vals))
            total[name] = tuple(
                (prev[i] if i < len(prev) else 0)
                + (vals[i] if i < len(vals) else 0)
                for i in range(width)
            )
    return total


def counters(names: Tuple[str, ...] = ("refine", "search")) -> Tuple[int, int]:
    """Combined ``(hits, misses)`` over the named caches."""
    hits = sum(CACHES[n].hits for n in names)
    misses = sum(CACHES[n].misses for n in names)
    return hits, misses


def stats() -> Dict[str, Dict[str, int]]:
    """Full per-cache statistics (for BENCH_suite.json and --profile)."""
    from repro.robust import recovery
    from repro.sched import rta, simcore

    out = {
        name: {
            "hits": cache.hits,
            "misses": cache.misses,
            "entries": len(cache),
            "maxsize": cache.maxsize,
        }
        for name, cache in CACHES.items()
    }
    out["sim.soa"] = simcore.soa_counters()
    out["rta.fixpoint"] = rta.fixpoint_counters()
    out["planstore"] = planstore.counters_dict()
    out["fleet.resilience"] = recovery.resilience_counters()
    return out


def cache_note(totals: Mapping[str, Tuple[int, int]]) -> str:
    """One-line experiment note summarizing segmentation-cache traffic."""
    if not _enabled:
        return "plan cache: disabled"
    seg_h = sum(totals.get(n, (0, 0))[0] for n in ("refine", "search"))
    seg_m = sum(totals.get(n, (0, 0))[1] for n in ("refine", "search"))
    ana_h, ana_m = totals.get("analysis", (0, 0))
    seg_total = seg_h + seg_m
    ana_total = ana_h + ana_m
    seg_rate = (100.0 * seg_h / seg_total) if seg_total else 0.0
    ana_rate = (100.0 * ana_h / ana_total) if ana_total else 0.0
    return (
        f"plan cache: segmentation {seg_h}/{seg_total} hits ({seg_rate:.1f}%), "
        f"analysis {ana_h}/{ana_total} hits ({ana_rate:.1f}%)"
    )


# ----------------------------------------------------------------------
# Platform fingerprints (planner-relevant projections)
# ----------------------------------------------------------------------
def _compute_fingerprint(platform: Platform) -> Tuple[Any, ...]:
    """The platform projection layer *compute* timing depends on.

    ``TimingModel.compute_cycles`` reads only the timing coefficients and
    the MCU's DSP/FPU capability flags — never SRAM or flash capacity.
    """
    return (
        freeze(platform.timing),
        platform.mcu.dsp_extensions,
        platform.mcu.has_fpu,
    )


def _load_fingerprint(platform: Platform) -> Tuple[Any, ...]:
    """The platform projection DMA *load* timing depends on."""
    return (
        platform.mcu.clock_hz,
        platform.memory.read_bandwidth_bps,
        platform.memory.setup_latency_s,
        platform.memory.xip_efficiency,
        platform.dma.program_overhead_s,
    )


def planner_platform_fingerprint(platform: Platform) -> Tuple[Any, ...]:
    """Everything the segmentation planner reads from the platform.

    Deliberately excludes SRAM/flash capacity and display names: capacity
    enters the planner only through the explicit byte budget (a separate
    key part), so sweep variants built with ``with_sram_bytes`` share
    cache entries.  Memoized by platform identity (sweeps reuse a handful
    of platform objects across thousands of key constructions).
    """
    return _platform_fingerprint(platform)


# ----------------------------------------------------------------------
# Object fingerprints (id-stable memos to avoid repeated deep freezes)
# ----------------------------------------------------------------------
_FP_MEMO_MAX = 512
_fp_lock = threading.Lock()


class _IdentityMemo:
    """Bounded ``id(obj) -> fingerprint`` memo with strong references.

    Keys are fingerprinted objects the sweeps reuse by identity (models,
    platforms, quantizations); holding a strong reference to each entry's
    object means an ``id`` can never be reused while its entry is alive.
    """

    def __init__(self, compute: "Callable[[Any], Any]") -> None:
        self._compute = compute
        self._data: "OrderedDict[int, Tuple[Any, Any]]" = OrderedDict()

    def clear(self) -> None:
        with _fp_lock:
            self._data.clear()

    def __call__(self, obj: Any) -> Any:
        key = id(obj)
        with _fp_lock:
            entry = self._data.get(key)
            if entry is not None and entry[0] is obj:
                self._data.move_to_end(key)
                return entry[1]
        fp = self._compute(obj)
        with _fp_lock:
            self._data[key] = (obj, fp)
            self._data.move_to_end(key)
            while len(self._data) > _FP_MEMO_MAX:
                self._data.popitem(last=False)
        return fp


_model_fingerprint: "Callable[[Model], Any]" = _IdentityMemo(freeze)
_quant_fingerprint: "Callable[[Quantization], Any]" = _IdentityMemo(freeze)
_platform_fingerprint: "Callable[[Platform], Any]" = _IdentityMemo(
    lambda platform: (_compute_fingerprint(platform), _load_fingerprint(platform))
)


def cached_xip_segments(
    name: str,
    model: Model,
    platform: Platform,
    quant: Quantization,
    build: "Callable[[], Any]",
) -> Any:
    """Memoize the XIP baseline's per-layer segment tuple.

    Every admission test re-derives the same per-layer XIP cycle costs
    for the same refined model; the resulting ``Segment`` tuple is
    immutable, so entries are shared across tasksets.  Keyed on the task
    name (embedded in segment names) plus everything the cost model
    reads: the model, the planner platform projection and the
    quantization.
    """
    if not _enabled:
        return build()
    key = (
        name,
        _model_fingerprint(model),
        planner_platform_fingerprint(platform),
        _quant_fingerprint(quant),
    )
    found, value = _xip_memo.get(key)
    if found:
        return value
    value = build()
    _xip_memo.put(key, value)
    return value


def cached_segment_transform(
    tag: str,
    segments: Any,
    extra: Any,
    build: "Callable[[], Any]",
) -> Any:
    """Memoize a pure transform of an (immutable, shared) segment tuple.

    The baseline derivations (busy-wait folding, whole-job collapsing)
    are functions of the source segment tuple alone plus whatever
    ``extra`` key parts the caller's output embeds; keyed by the tuple's
    identity, with the tuple itself stored in the entry so the id stays
    valid.  Only tuples are memoized — anything else falls through.
    """
    if not _enabled or type(segments) is not tuple:
        return build()
    key = (tag, id(segments), extra)
    found, entry = _transform_memo.get(key)
    if found and entry[0] is segments:
        return entry[1]
    value = build()
    _transform_memo.put(key, (segments, value))
    return value


# ----------------------------------------------------------------------
# Cached planning stages
# ----------------------------------------------------------------------
def cached_build_model(name: str) -> Model:
    """Zoo lookup with memoization (builders are pure)."""
    if not _enabled:
        return build_model(name)
    cache = CACHES["zoo"]
    found, model = cache.get(name)
    if found:
        return model
    model = build_model(name)
    cache.put(name, model)
    return model


def _refine_parts(
    model: Model, quant: Quantization, max_chunk_bytes: int, max_chunk_macs: int
) -> Tuple[int, ...]:
    """Per-layer split counts — the minimal sufficient refinement key.

    Mirrors the decision logic of :func:`repro.dnn.models.refine_model`:
    the refined model is fully determined by ``(model, parts vector)``, so
    distinct ``(chunk, macs_cap)`` pairs that induce the same splits share
    one cache entry.
    """
    from repro.dnn.layers import SPLITTABLE_KINDS

    parts = []
    for layer in model.layers:
        p = 1
        if layer.kind in SPLITTABLE_KINDS:
            p = -(-layer.param_bytes(quant) // max_chunk_bytes)
            if max_chunk_macs:
                p = max(p, -(-layer.macs // max_chunk_macs))
        parts.append(p)
    return tuple(parts)


def cached_refine_model(
    model: Model,
    quant: Quantization,
    max_chunk_bytes: int,
    max_chunk_macs: int = 0,
) -> Model:
    """Granularity refinement with quantized knobs and memoization.

    Both knobs are floored to the power-of-two ladder (conservative: a
    smaller chunk/cap only makes granularity finer), then the per-layer
    parts vector is used as the cache key.  Quantization happens before
    planning on cold *and* warm paths, so results are path-independent.
    """
    if max_chunk_bytes <= 0:
        raise ValueError(f"max_chunk_bytes must be positive, got {max_chunk_bytes}")
    if max_chunk_macs < 0:
        raise ValueError(f"max_chunk_macs must be non-negative, got {max_chunk_macs}")
    chunk_q = pow2_floor(max_chunk_bytes)
    macs_q = pow2_floor(max_chunk_macs) if max_chunk_macs else 0
    if not _enabled:
        return refine_model(model, quant, chunk_q, macs_q)
    cache = CACHES["refine"]
    key = (
        _model_fingerprint(model),
        _quant_fingerprint(quant),
        _refine_parts(model, quant, chunk_q, macs_q),
    )
    found, refined = cache.get(key)
    if found:
        return refined
    refined = refine_model(model, quant, chunk_q, macs_q)
    cache.put(key, refined)
    return refined


def _model_costs(
    model: Model, platform: Platform, quant: Quantization
) -> Tuple[int, int, int, int, int]:
    """``(max_layer_w, total_w, act_bytes, max_layer_c, total_c)``.

    Memoized per (model, compute fingerprint, quant); these aggregates
    are exactly what key canonicalization needs and what the planner
    recomputes on every construction.
    """
    if _enabled:
        key = (
            _model_fingerprint(model),
            _compute_fingerprint(platform),
            _quant_fingerprint(quant),
        )
        found, value = _costs_memo.get(key)
        if found:
            return value
    weights = [layer.param_bytes(quant) for layer in model.layers]
    computes = [
        platform.compute_cycles(layer, quant.weight_bytes) for layer in model.layers
    ]
    value = (
        max(weights),
        sum(weights),
        model.peak_activation_bytes(quant),
        max(computes),
        sum(computes),
    )
    if _enabled:
        _costs_memo.put(key, value)
    return value


def _unfit_message(
    model: Model, max_w: int, slot_cap: int, sram_budget: int,
    act: int, buffers: int,
) -> str:
    """Byte-infeasibility message, rendered from the *caller's* inputs."""
    return (
        f"model {model.name!r} cannot fit: largest layer needs {max_w} B "
        f"per slot but only {max(slot_cap, 0)} B available "
        f"(budget {sram_budget} B, activations {act} B, {buffers} buffers)"
    )


def cached_search_segmentation(
    model: Model,
    platform: Platform,
    sram_budget: int,
    quant: Quantization,
    buffers: int = 2,
    max_segment_compute: Optional[int] = None,
) -> SegmentedModel:
    """Segmentation search with canonicalized keys and memoization.

    Canonicalization (applied identically on cold and warm paths):

    * staging slot budget ``(sram_budget - act) // buffers`` is clamped to
      the model's total weight bytes (any larger budget is equivalent)
      and floored to the quarter-pow2 ladder, but never below the largest
      single layer (which would fabricate infeasibility);
    * the compute cap is pre-relaxed to the largest single layer (the
      planner does the same), floored to the pow2 ladder, and dropped
      entirely when it can never bind (cap >= total compute);
    * byte-infeasible budgets collapse onto one negative entry per
      (model, platform, quant, buffers).

    The cached value holds the boundaries and the segment tuple (both
    functions of the key alone); hits re-materialize a
    :class:`SegmentedModel` against the *caller's* platform object with
    its segment memo pre-seeded.

    Raises:
        SegmentationError: when no segmentation fits (cached too).
    """
    max_w, total_w, act, max_c, total_c = _model_costs(model, platform, quant)
    slot_cap = (sram_budget - act) // buffers
    if slot_cap < max_w:
        slot_q = -1  # byte-infeasible: one canonical negative entry
    elif slot_cap >= total_w:
        slot_q = total_w  # saturated: every contiguous partition fits
    else:
        slot_q = max(quarter_pow2_floor(slot_cap), max_w)
    if max_segment_compute is None:
        cap_q: Optional[int] = None
    else:
        cap_eff = max(max_segment_compute, max_c)
        if cap_eff >= total_c:
            cap_q = None  # can never bind: a segment's compute <= total
        else:
            cap_q = max(pow2_floor(cap_eff), max_c)
    cache = CACHES["search"] if _enabled else None
    if cache is not None:
        key = (
            _model_fingerprint(model),
            planner_platform_fingerprint(platform),
            _quant_fingerprint(quant),
            buffers,
            slot_q,
            cap_q,
        )
        found, value = cache.get(key)
        if not found:
            # Second tier: the persistent content-addressed plan store.
            # A store hit is promoted into the LRU, so one process pays
            # the disk read at most once per key.
            store = planstore.active()
            if store is not None:
                found, value = store.get(key)
                if found:
                    cache.put(key, value)
        if found:
            kind, *payload = value
            if kind == "err":
                raise SegmentationError(payload[0])
            if kind == "err-unfit":
                raise SegmentationError(
                    _unfit_message(model, max_w, slot_cap, sram_budget,
                                   act, buffers)
                )
            boundaries, segments = payload
            hit = SegmentedModel(
                model=model,
                platform=platform,
                quant=quant,
                boundaries=boundaries,
                buffers=buffers,
            )
            # The segment tuple is fully determined by the key (model,
            # planner platform projection, quant, boundaries), so seed
            # the per-instance memo instead of re-materializing it.
            object.__setattr__(hit, "_segments_memo", segments)
            return hit
    if slot_q < 0:
        # The canonical negative entry collapses every byte-infeasible
        # budget onto one key, so the cached value must not embed this
        # caller's numbers: a marker is stored and the message rendered
        # per caller (cold and warm alike) — keeping error reasons a
        # pure function of the call arguments, which journal replay
        # across process generations relies on.
        if cache is not None:
            cache.put(key, ("err-unfit",))
            _store_put(key, ("err-unfit",))
        raise SegmentationError(
            _unfit_message(model, max_w, slot_cap, sram_budget, act, buffers)
        )
    budget_q = slot_q * buffers + act
    try:
        seg = search_segmentation(
            model,
            platform,
            budget_q,
            quant=quant,
            buffers=buffers,
            max_segment_compute=cap_q,
        )
    except SegmentationError as exc:
        if cache is not None:
            cache.put(key, ("err", str(exc)))
            _store_put(key, ("err", str(exc)))
        raise
    if cache is not None:
        value = ("ok", seg.boundaries, seg.segments())
        cache.put(key, value)
        _store_put(key, value)
    return seg


def _store_put(key: Any, value: Any) -> None:
    """Write-through a cold search result to the persistent store."""
    store = planstore.active()
    if store is not None:
        store.put(key, value)


def _taskset_fingerprint(taskset: TaskSet) -> Any:
    """Everything :func:`repro.core.analysis.analyze` reads, hand-rolled.

    The generic :func:`freeze` walks every dataclass field recursively
    (segment names, byte bookkeeping, ...); admission sweeps fingerprint
    thousands of single-use task sets, so this flat tuple of the
    analysis-relevant fields is worth roughly a 10x on key construction.
    """
    return tuple(
        (
            t.name, t.period, t.deadline, t.priority, t.phase, t.buffers,
            tuple((s.load_cycles, s.compute_cycles) for s in t.segments),
        )
        for t in taskset
    )


def cached_analyze(taskset: TaskSet, method: str = "rtmdm") -> AnalysisResult:
    """Schedulability analysis with exact-key memoization.

    The key is a deep fingerprint of the (frozen) task set plus the
    method name — everything :func:`repro.core.analysis.analyze` reads.
    The cached :class:`AnalysisResult` is treated as immutable by all
    callers.
    """
    if not _enabled:
        return analyze(taskset, method)
    cache = CACHES["analysis"]
    key = (_taskset_fingerprint(taskset), method)
    found, result = cache.get(key)
    if found:
        return result
    result = analyze(taskset, method)
    cache.put(key, result)
    return result
