"""Estimators and span tracing for the drift-robust benchmark.

Nothing here imports the program under test: these helpers only time
callables, keep per-op minimums and turn recorded spans into per-layer
self times, so they can be tested without the ``repro`` package.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``%
    of the sample at or below it (no interpolation)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


class FastestRepeats:
    """Per-op fastest repeat: the estimator that holds still under host drift.

    Every cycle reruns each op from the same state, so the op's fastest
    repeat is its cost with the least interference from the host.
    """

    def __init__(self) -> None:
        self.best: Dict[Hashable, int] = {}

    def add(self, key: Hashable, ns: int) -> None:
        prev = self.best.get(key)
        if prev is None or ns < prev:
            self.best[key] = ns

    def update(self, timings: Dict[Hashable, int]) -> None:
        for key, ns in timings.items():
            self.add(key, ns)

    def values_ms(self) -> List[float]:
        return [ns / 1e6 for ns in self.best.values()]

    def total_s(self) -> float:
        return sum(self.best.values()) / 1e9

    def __len__(self) -> int:
        return len(self.best)


class Span:
    """One recorded call: name, start/end (ns) and the enclosing span."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: int, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """In-memory span recorder.

    Spans nest by call order (the benchmark is single-threaded), so each
    span's parent is whatever span was open when it started.  Spans stay
    in memory until :meth:`dump_rows` hands them to the writer.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self._clock(), parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end = self._clock()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a module global or class attribute) in
        place, so the program's own call sites record spans."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Dict[str, int]:
        """Per-name self time (ns): each span's duration minus the time
        its direct children cover."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.duration
        out: Dict[str, int] = {}
        for index, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0) + span.duration - child_ns[index]
        return out

    def totals(self) -> Dict[str, int]:
        """Per-name total duration (ns), children included."""
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + span.duration
        return out

    def coverage(self, root: str) -> float:
        """Share of the time of spans named ``root`` that their child
        spans cover."""
        total = 0
        covered = 0
        index_of_root = set()
        for index, span in enumerate(self.spans):
            if span.name == root:
                index_of_root.add(index)
                total += span.duration
        for span in self.spans:
            if span.parent in index_of_root:
                covered += span.duration
        return covered / total if total else 0.0

    def dump_rows(self) -> List[List]:
        """Spans as ``[name, start_ns, end_ns, parent]`` rows, times
        relative to the first span's start."""
        if not self.spans:
            return []
        base = self.spans[0].start
        return [
            [s.name, s.start - base, s.end - base, s.parent] for s in self.spans
        ]


class NullTracer:
    """The untraced run: no spans, no patches, no wrapper cost."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def wrap(self, fn: Callable, name: str) -> Callable:
        return fn

    def patch(self, owner: Any, attr: str, name: str) -> None:
        pass

    def unpatch(self) -> None:
        pass
