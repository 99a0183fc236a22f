#!/usr/bin/env python3
"""Drift-robust benchmark of the RT-MDM reproduction.

    python3 driftbench/run.py --workload sim --seed 1 --seconds 30 --trace 0

Runs one workload (``sim``, ``sim-faults`` or ``fleet``) in
this process from the checkout's ``src`` tree.  An untraced run
(``--trace 0``) prints the end-to-end metrics; a traced run
(``--trace 1``) prints the per-layer metrics.  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit status is non-zero when any digest, count or invariant check fails.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".driftbench"
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: Engine and cache switches.  Each one selects a non-default engine or
#: cache setting, so any of them being set would make the numbers
#: measure something other than the default program.
ENGINE_SWITCHES = (
    "REPRO_VEC_SIM",
    "REPRO_VEC_RTA",
    "REPRO_SIM_FOLD",
    "REPRO_PLAN_CACHE",
    "REPRO_PLAN_STORE",
    "REPRO_PLAN_CACHE_SIZE",
)

#: Seeds with recorded golden digests: the default and one held out.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

MIN_CYCLES = 2
SETUP_MIN_REPEATS = 3
SETUP_WINDOW_S = 1.0
SETUP_MAX_REPEATS = 1000

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "op.p99_ms": "ms",
    "workload.generate_s": "s",
    "workload.draws": "count",
    "workload.reject_ratio": "ratio",
    "plan.refine_s": "s",
    "plan.search_s": "s",
    "plan.plan_segments_s": "s",
    "plan.refine_hits": "count",
    "plan.refine_misses": "count",
    "plan.search_hits": "count",
    "plan.search_misses": "count",
    "plan.hit_ratio": "ratio",
    "plan.ms_per_miss": "ms",
    "analyze.mass_screen_s": "s",
    "analyze.cached_analyze_s": "s",
    "analyze.vec_batches": "count",
    "analyze.vec_rows": "count",
    "analyze.vec_stand_downs": "count",
    "analyze.fixpoint_hits": "count",
    "analyze.fixpoint_misses": "count",
    "analyze.us_per_row": "us",
    "sim.simulate_s": "s",
    "sim.runs": "count",
    "sim.jobs": "count",
    "sim.soa_runs": "count",
    "sim.soa_events": "count",
    "sim.stand_downs": "count",
    "sim.stand_down_ratio": "ratio",
    "sim.ns_per_event": "ns",
    "sim.us_per_job": "us",
    "sim.fold_runs": "count",
    "sim.fold_cycles_skipped": "count",
    "sim.max_op_events": "count",
    "fleet.run_s": "s",
    "fleet.engine_s": "s",
    "fleet.self_s": "s",
    "fleet.decided": "count",
    "fleet.admitted": "count",
    "fleet.rejected_rta": "count",
    "fleet.rejected_sram": "count",
    "fleet.shed": "count",
    "fleet.peak_queue_depth": "count",
    "journal.intent_s": "s",
    "journal.commit_s": "s",
    "journal.checkpoint_s": "s",
    "journal.records": "count",
    "journal.bytes": "B",
    "journal.checkpoints": "count",
    "journal.checkpoint_bytes": "B",
    "journal.us_per_record": "us",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def env_problem(environ) -> Optional[str]:
    """Why the environment would skew the numbers, or ``None``."""
    jobs = environ.get("REPRO_JOBS")
    if jobs is not None and jobs.strip() not in ("", "1"):
        return f"REPRO_JOBS={jobs!r}: the benchmark runs each workload in one process"
    for name in ENGINE_SWITCHES:
        if name in environ:
            return f"{name} is set: the benchmark measures the default engines only"
    return None


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim", "sim-faults", "fleet"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-golden", action="store_true",
        help="record this run's digests and counts as the golden values "
             f"(seeds {DEFAULT_SEED} and {HELD_OUT_SEED} only)",
    )
    return parser.parse_args(argv)


class Checks:
    """Failed checks of one run; any entry makes the run incorrect."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.failed_ops = 0

    def fail(self, message: str, ops: int = 0) -> None:
        self.problems.append(message)
        self.failed_ops += ops


class Harness:
    """Set-up repeats, measured cycles and their consistency checks."""

    def __init__(self, workload, seed: int) -> None:
        from repro.core import planstore, segcache

        import workloads as wl

        self.segcache = segcache
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.checks = Checks()
        self.first: Optional[Tuple[Dict, Dict]] = None
        self.attempted = 0
        planstore.configure(None)
        WORK_DIR.mkdir(exist_ok=True)

    def cold_setups(self, tracer) -> Tuple[Dict, float]:
        """Repeat the cold set-up; return its state and fastest time."""
        times: List[int] = []
        digests = set()
        state = None
        window = time.perf_counter() + SETUP_WINDOW_S
        while len(times) < SETUP_MIN_REPEATS or (
            time.perf_counter() < window and len(times) < SETUP_MAX_REPEATS
        ):
            start = time.perf_counter_ns()
            self.segcache.clear_all()
            state = self.workload.setup(self.seed, tracer)
            times.append(time.perf_counter_ns() - start)
            digests.add(self.workload.state_digest(state))
        if len(digests) != 1:
            self.checks.fail(f"set-up drew {len(digests)} different inputs in {len(times)} repeats")
        self.setup_digest = digests.pop()
        return state, min(times) / 1e9

    def cycle(self, state: Dict, tracer):
        """One cycle from cleared caches; checks it against the first."""
        self.segcache.clear_all()
        before = self.segcache.snapshot()
        result = self.workload.cycle(state, tracer, str(WORK_DIR))
        result.counts.update(self.wl.cache_counts(self.segcache.delta_since(before)))
        self.attempted += len(result.ops) + result.failed_ops
        for message in result.failures:
            self.checks.fail(message, ops=1)
        if result.failed_ops:
            self.checks.fail(f"{result.failed_ops} ops shed", ops=result.failed_ops)
        if result.counts.get("planstore.traffic"):
            self.checks.fail("plan store traffic in a run with the store off")
        if self.first is None:
            self.first = (result.digests, result.counts)
            self.ops_per_cycle = len(result.ops)
        else:
            digests, counts = self.first
            changed = [k for k in digests.keys() | result.digests.keys()
                       if digests.get(k) != result.digests.get(k)]
            if changed:
                ops_per_digest = max(1, len(result.ops) // len(result.digests))
                self.checks.fail(f"output digest changed between cycles on {len(changed)} "
                                 "units", ops=len(changed) * ops_per_digest)
            if counts != result.counts:
                diff = sorted(k for k in counts if counts[k] != result.counts.get(k))
                self.checks.fail(f"work counts changed between cycles: {diff}")
        return result

    def run_digest(self) -> str:
        digests, _ = self.first
        return self.wl.digest(digests.items())

    def check_golden(self, update: bool) -> None:
        golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        entry = {
            "setup": self.setup_digest,
            "cycle": self.run_digest(),
            "counts": self.first[1],
        }
        key = str(self.seed)
        if update:
            if self.seed not in (DEFAULT_SEED, HELD_OUT_SEED):
                raise SystemExit(f"golden values are kept for seeds {DEFAULT_SEED} "
                                 f"and {HELD_OUT_SEED} only")
            if self.checks.problems:
                raise SystemExit("refusing to record golden values from a failing run")
            golden.setdefault(self.workload.name, {})[key] = entry
            GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            return
        recorded = golden.get(self.workload.name, {}).get(key)
        if recorded is None:
            return
        for part in ("setup", "cycle"):
            if recorded[part] != entry[part]:
                self.checks.fail(f"{part} digest differs from the golden value for seed {key}",
                                 ops=self.ops_per_cycle)
        if recorded["counts"] != entry["counts"]:
            diff = sorted(k for k in set(recorded["counts"]) | set(entry["counts"])
                          if recorded["counts"].get(k) != entry["counts"].get(k))
            self.checks.fail(f"work counts differ from the golden values for seed {key}: {diff}")


def measure_cycles(harness: Harness, state: Dict, seconds: float, traced_every: int = 0):
    """Run cycles for about ``seconds``: never fewer than
    :data:`MIN_CYCLES`, and no cycle that would end past the window.

    With ``traced_every=2`` odd cycles run traced (spans and patches on)
    and even ones untraced.  Yields ``(traced, result, tracer)``.
    Records the process's peak RSS after cycle :data:`MIN_CYCLES`, so the
    figure does not depend on how many cycles the host's speed allowed.
    """
    from measure import NullTracer, Tracer

    null = NullTracer()
    end = time.perf_counter() + seconds
    index = 0
    last = 0.0
    while index < MIN_CYCLES or time.perf_counter() + last <= end:
        traced = bool(traced_every) and index % traced_every == 1
        tracer = Tracer() if traced else null
        start = time.perf_counter()
        if traced:
            harness.wl.patch_layers(tracer)
        try:
            result = harness.cycle(state, tracer)
        finally:
            tracer.unpatch()
        last = time.perf_counter() - start
        index += 1
        if index == MIN_CYCLES:
            harness.peak_rss_mb = peak_rss_mb()
        yield traced, result, tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(units, ops, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    from measure import percentile

    latencies = ops.values_ms()
    return {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / units.total_s(),
        "op_p50_ms": percentile(latencies, 50),
        "op_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(self_ns: Dict[str, int], total_ns: Dict[str, int],
                  counts: Dict[str, int], reported_ns: Dict[str, int],
                  coverage: float, overhead: float) -> Dict[str, float]:
    """Every per-layer metric from span times and exact counts."""

    def sec(name: str) -> float:
        return self_ns.get(name, 0) / 1e9

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num * scale / den if den else 0.0

    c = {name: counts.get(name, 0) for name in PER_LAYER}
    c.update(counts)
    plan_s = sec("plan.refine") + sec("plan.search")
    hits = c["plan.refine_hits"] + c["plan.search_hits"]
    misses = c["plan.refine_misses"] + c["plan.search_misses"]
    analyze_s = sec("analyze.mass_screen") + sec("analyze.cached_analyze")
    simulate_s = sec("sim.simulate")
    journal_s = sec("journal.intent") + sec("journal.commit") + sec("journal.checkpoint")
    return {
        "workload.generate_s": sec("workload.generate") + sec("workload.fleet_trace"),
        "workload.draws": c["workload.draws"],
        "workload.reject_ratio": ratio(c["workload.rejects"], c["workload.draws"]),
        "plan.refine_s": sec("plan.refine"),
        "plan.search_s": sec("plan.search"),
        "plan.plan_segments_s": sec("plan.plan_segments"),
        "plan.refine_hits": c["plan.refine_hits"],
        "plan.refine_misses": c["plan.refine_misses"],
        "plan.search_hits": c["plan.search_hits"],
        "plan.search_misses": c["plan.search_misses"],
        "plan.hit_ratio": ratio(hits, hits + misses),
        "plan.ms_per_miss": ratio(plan_s, misses, 1e3),
        "analyze.mass_screen_s": sec("analyze.mass_screen"),
        "analyze.cached_analyze_s": sec("analyze.cached_analyze"),
        "analyze.vec_batches": c["analyze.vec_batches"],
        "analyze.vec_rows": c["analyze.vec_rows"],
        "analyze.vec_stand_downs": c["analyze.vec_stand_downs"],
        "analyze.fixpoint_hits": c["analyze.fixpoint_hits"],
        "analyze.fixpoint_misses": c["analyze.fixpoint_misses"],
        "analyze.us_per_row": ratio(analyze_s, c["analyze.vec_rows"], 1e6),
        "sim.simulate_s": simulate_s,
        "sim.runs": c["sim.runs"],
        "sim.jobs": c["sim.jobs"],
        "sim.soa_runs": c["sim.soa_runs"],
        "sim.soa_events": c["sim.soa_events"],
        "sim.stand_downs": c["sim.stand_downs"],
        "sim.stand_down_ratio": ratio(c["sim.stand_downs"], c["sim.runs"]),
        "sim.ns_per_event": ratio(simulate_s, c["sim.soa_events"], 1e9),
        "sim.us_per_job": ratio(simulate_s, c["sim.jobs"], 1e6),
        "sim.fold_runs": c["sim.fold_runs"],
        "sim.fold_cycles_skipped": c["sim.fold_cycles_skipped"],
        "sim.max_op_events": c["sim.max_op_events"],
        "fleet.run_s": total_ns.get("fleet.run", 0) / 1e9,
        "fleet.engine_s": reported_ns.get("fleet.engine", 0) / 1e9,
        "fleet.self_s": sec("fleet.run"),
        "fleet.decided": c["fleet.decided"],
        "fleet.admitted": c["fleet.admitted"],
        "fleet.rejected_rta": c["fleet.rejected_rta"],
        "fleet.rejected_sram": c["fleet.rejected_sram"],
        "fleet.shed": c["fleet.shed"],
        "fleet.peak_queue_depth": c["fleet.peak_queue_depth"],
        "journal.intent_s": sec("journal.intent"),
        "journal.commit_s": sec("journal.commit"),
        "journal.checkpoint_s": sec("journal.checkpoint"),
        "journal.records": c["journal.records"],
        "journal.bytes": c["journal.bytes"],
        "journal.checkpoints": c["journal.checkpoints"],
        "journal.checkpoint_bytes": c["journal.checkpoint_bytes"],
        "journal.us_per_record": ratio(journal_s, c["journal.records"], 1e6),
        "trace.coverage": coverage,
        "trace.overhead": overhead,
    }


def design_checks(name: str, metrics: Dict[str, float],
                  cycle_total: Dict[str, int]) -> List[str]:
    """The workload design the traced run must confirm."""
    problems = []
    if name == "sim" and metrics["sim.stand_downs"] != 0:
        problems.append(f"sim: {metrics['sim.stand_downs']} stand-downs, expected 0")
    if name == "sim-faults" and metrics["sim.stand_downs"] != metrics["sim.runs"]:
        problems.append(f"sim-faults: {metrics['sim.stand_downs']} stand-downs of "
                        f"{metrics['sim.runs']} runs, expected all")
    journal_ns = sum(v for k, v in cycle_total.items() if k.startswith("journal."))
    if (journal_ns > 0) != (name == "fleet"):
        problems.append(f"{name}: journal spans total {journal_ns} ns; "
                        "they should be non-zero on fleet only")
    return problems


def run_untraced(harness: Harness, seconds: float) -> Dict[str, float]:
    from measure import FastestRepeats, NullTracer, percentile

    state, setup_s = harness.cold_setups(NullTracer())
    units, ops = FastestRepeats(), FastestRepeats()
    cycles = 0
    for _, result, _ in measure_cycles(harness, state, seconds):
        units.update(result.units)
        ops.update(result.ops)
        cycles += 1
    print(f"{harness.workload.name} seed {harness.seed}: {cycles} cycles, "
          f"{len(ops)} ops/cycle, {len(units)} timed units/cycle")
    print(f"  op_p99_ms {percentile(ops.values_ms(), 99):.6f} ms (no bound: only fleet "
          "has ten ops beyond it)")
    return end_to_end_metrics(units, ops, setup_s, harness.peak_rss_mb)


def run_traced(harness: Harness, seconds: float) -> Dict[str, float]:
    """One traced set-up, then cycles alternating untraced and traced.

    Per-layer figures cover the traced set-up plus the fastest traced
    cycle; ``trace.overhead`` compares the two kinds of cycle.
    """
    from measure import FastestRepeats, NullTracer, Tracer, percentile

    harness.workload.setup(harness.seed, NullTracer())  # process warm-up
    tracer = Tracer()
    harness.wl.patch_layers(tracer)
    try:
        harness.segcache.clear_all()
        before = harness.segcache.snapshot()
        state = harness.workload.setup(harness.seed, tracer)
        setup_counts = harness.wl.cache_counts(harness.segcache.delta_since(before))
    finally:
        tracer.unpatch()
    harness.setup_digest = harness.workload.state_digest(state)
    setup_counts["workload.draws"] = state.get("draws", 0)
    setup_counts["workload.rejects"] = state.get("rejects", 0)
    setup_self, setup_total = tracer.self_times(), tracer.totals()
    setup_rows = tracer.dump_rows()

    plain, traced_units, plain_ops = FastestRepeats(), FastestRepeats(), FastestRepeats()
    best = None
    for traced, result, cycle_tracer in measure_cycles(harness, state, seconds, traced_every=2):
        (traced_units if traced else plain).update(result.units)
        if not traced:
            plain_ops.update(result.ops)
            continue
        unit_ns = sum(result.units.values())
        if best is None or unit_ns < best[0]:
            best = (unit_ns, result, cycle_tracer.self_times(), cycle_tracer.totals(),
                    cycle_tracer.coverage("op"), cycle_tracer.dump_rows())
    unit_ns, result, cycle_self, cycle_total, coverage, cycle_rows = best
    self_ns = {k: setup_self.get(k, 0) + cycle_self.get(k, 0)
               for k in set(setup_self) | set(cycle_self)}
    total_ns = {k: setup_total.get(k, 0) + cycle_total.get(k, 0)
                for k in set(setup_total) | set(cycle_total)}
    counts = dict(result.counts)
    for key, value in setup_counts.items():
        counts[key] = counts.get(key, 0) + value
    overhead = traced_units.total_s() / plain.total_s() - 1.0
    metrics = layer_metrics(self_ns, total_ns, counts, result.reported_ns, coverage, overhead)
    metrics["op.p99_ms"] = percentile(plain_ops.values_ms(), 99)
    for problem in design_checks(harness.workload.name, metrics, cycle_total):
        harness.checks.fail(problem)
    spans_path = WORK_DIR / f"spans-{harness.workload.name}-seed{harness.seed}.json"
    spans_path.write_text(json.dumps({
        "columns": ["name", "start_ns", "end_ns", "parent"],
        "setup": setup_rows,
        "cycle": cycle_rows,
    }))
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    problem = env_problem(os.environ)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    harness = Harness(WORKLOADS[args.workload](), args.seed)
    if args.trace:
        metrics = run_traced(harness, args.seconds)
        units = PER_LAYER
    else:
        metrics = run_untraced(harness, args.seconds)
        units = END_TO_END
    harness.check_golden(args.update_golden)

    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {units[name]}")
    print("counts " + json.dumps(harness.first[1], sort_keys=True))
    for message in harness.checks.problems:
        print(f"FAILED: {message}")
    correct = not harness.checks.problems
    print(json.dumps({
        "correct": correct,
        "attempted": harness.attempted,
        "failed": harness.checks.failed_ops,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
