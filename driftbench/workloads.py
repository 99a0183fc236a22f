"""The three benchmark workloads: inputs, ops, digests and invariants.

Each workload draws its inputs from ``--seed`` in :meth:`setup` and runs
every op once per :meth:`cycle`.  The harness clears the plan caches
before each cycle, so every op repeats identical work from an identical
cache state and its fastest repeat is a sound estimate of its cost.

Only the program's public functions are called.  Layer spans come from
the harness-supplied tracer: the benchmark wraps its own calls
(``tracer.wrap``) and :func:`patch_layers` wraps functions the program
calls internally at their import sites.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import shutil
import tempfile
import time
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core import segcache
from repro.eval import fleet as fleet_mod
from repro.eval.fleet import FleetConfig, FleetService, decision_identity, fleet_trace
from repro.eval.parallel import simulate_batch, stable_seed
from repro.eval.systems import derive_taskset
from repro.hw.presets import get_platform
from repro.online.durable import DecisionJournal
from repro.robust.chaos import FleetInvariantError, fleet_invariants
from repro.robust.faults import FaultConfig, InflationModel
from repro.robust.overload import DegradeConfig, OverrunPolicy, degraded_variant
from repro.sched import simcore
from repro.sched.policies import CpuPolicy
from repro.sched.simulator import SimConfig
from repro.workload import taskset as taskset_mod
from repro.workload.taskset import generate_case

PLATFORM = "f746-qspi"

#: Simulator events per run, as EXP-F7 estimates them (four per segment
#: per job).  EXP-F7 uses 60k; at that size a draw whose budget horizon
#: sits on the two-period floor costs up to 100 budgets, and such ops
#: repeat too rarely to reach their minimum.
EVENT_BUDGET = 10_000

#: Draw cap for the set-up loops: far above what any seed needs.
MAX_DRAWS = 5_000

_SIM_FOLD_TELEMETRY = ("fold_cycles", "fold_jobs_skipped")


@dataclasses.dataclass
class CycleResult:
    """One cycle: timed units, per-op latencies, digests and counts.

    ``units`` are what ``ops_per_s`` divides by; ``ops`` feed the latency
    percentiles.  They coincide except on ``fleet``, where the unit is the
    whole service run and the ops are its decisions.
    """

    units: Dict[Hashable, int]
    ops: Dict[Hashable, int]
    digests: Dict[Hashable, str]
    counts: Dict[str, int]
    failures: List[str]
    failed_ops: int = 0
    #: Host times the program reports about itself (``fleet.engine``).
    reported_ns: Dict[str, int] = dataclasses.field(default_factory=dict)


def digest(parts: Iterable) -> str:
    """Digest of the ``repr`` of each part, fed one part at a time so no
    large output is ever held as one string."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def taskset_summary(taskset) -> Tuple:
    """Every field of every task (phases included), as plain tuples."""
    if taskset is None:
        return ()
    return tuple(
        (t.name, t.period, t.deadline, t.priority, t.phase, t.buffers,
         tuple((s.load_cycles, s.compute_cycles) for s in t.segments))
        for t in taskset
    )


def sim_digest(results: Sequence) -> str:
    """Digest of every ``SimResult`` field except the fold telemetry,
    which describes how a result was obtained, not what it is."""
    return digest(
        (field.name, getattr(result, field.name))
        for result in results
        for field in dataclasses.fields(result)
        if field.name not in _SIM_FOLD_TELEMETRY
    )


def sim_jobs(results: Sequence) -> int:
    return sum(s.jobs for r in results for s in r.stats.values())


def budget_horizon(taskset, budget: int) -> Optional[int]:
    """The horizon that spends one ``budget`` of events by EXP-F7's event
    estimate, or ``None`` when it would not clear the two-period floor.

    Unlike EXP-F7 there is no 20-period cap: every run then costs about
    one budget, so per-op cost and the cycle's total work vary little
    from seed to seed.
    """
    max_period = max(t.period for t in taskset)
    density = sum(4 * t.num_segments / t.period for t in taskset)
    horizon = int(budget / density)
    return horizon if horizon > 2 * max_period else None


def cache_counts(delta: Dict[str, Tuple[int, ...]]) -> Dict[str, int]:
    """Exact work counts from a ``segcache.delta_since`` delta."""
    refine = delta.get("refine", (0, 0))
    search = delta.get("search", (0, 0))
    fixpoint = tuple(delta.get("rta.fixpoint", ())) + (0,) * 6
    soa = tuple(delta.get("sim.soa", ())) + (0,) * 3
    fold = tuple(delta.get("sim.fold", ())) + (0,) * 4
    return {
        "plan.refine_hits": refine[0],
        "plan.refine_misses": refine[1],
        "plan.search_hits": search[0],
        "plan.search_misses": search[1],
        "analyze.fixpoint_hits": fixpoint[0],
        "analyze.fixpoint_misses": fixpoint[1],
        "analyze.vec_batches": fixpoint[3],
        "analyze.vec_rows": fixpoint[4],
        "analyze.vec_stand_downs": fixpoint[5],
        "sim.soa_runs": soa[0],
        "sim.soa_events": soa[1],
        "sim.stand_downs": soa[2],
        "sim.fold_runs": fold[1],
        "sim.fold_cycles_skipped": fold[2],
        "planstore.traffic": sum(delta.get("planstore", ())),
    }


def patch_layers(tracer) -> None:
    """Wrap the program's internal layer calls at their import sites.

    Installed for traced cycles only; every workload gets every patch, so
    a layer that should stay idle on a workload reads exactly zero there.
    """
    tracer.patch(taskset_mod, "cached_refine_model", "plan.refine")
    tracer.patch(taskset_mod, "cached_search_segmentation", "plan.search")
    # plan_segments reaches the planner through the segcache module.
    tracer.patch(segcache, "cached_refine_model", "plan.refine")
    tracer.patch(segcache, "cached_search_segmentation", "plan.search")
    tracer.patch(segcache, "cached_analyze", "analyze.cached_analyze")
    tracer.patch(fleet_mod, "plan_segments", "plan.plan_segments")
    tracer.patch(fleet_mod, "mass_screen", "analyze.mass_screen")
    tracer.patch(DecisionJournal, "append_intent", "journal.intent")
    tracer.patch(DecisionJournal, "append_commit", "journal.commit")
    tracer.patch(DecisionJournal, "append_checkpoint", "journal.checkpoint")


# ----------------------------------------------------------------------
# sim / sim-faults: EXP-F7 and EXP-R1 style simulation
# ----------------------------------------------------------------------
class _SimBase:
    """Shared cycle: each op is one ``simulate_batch`` call."""

    #: Simulator events per run: each run's horizon spends one budget.
    BUDGET = EVENT_BUDGET

    def state_digest(self, state: Dict) -> str:
        return digest([
            *((key, label, admitted, [(taskset_summary(ts), cfg) for ts, cfg in batch])
              for key, label, admitted, batch in state["ops"]),
            state["draws"], state["rejects"],
        ])

    def cycle(self, state: Dict, tracer, workdir: str) -> CycleResult:
        simulate = tracer.wrap(simulate_batch, "sim.simulate")
        units: Dict[Hashable, int] = {}
        digests: Dict[Hashable, str] = {}
        failures: List[str] = []
        runs = jobs = max_op_events = 0
        for key, label, admitted, batch in state["ops"]:
            events_before = simcore.soa_snapshot()[1]
            with tracer.span("op"):
                start = time.perf_counter_ns()
                results = simulate(batch)
                units[key] = time.perf_counter_ns() - start
            events = simcore.soa_snapshot()[1] - events_before
            max_op_events = max(max_op_events, events)
            if events > self.BUDGET * len(batch):
                failures.append(f"sim op {key}: {events} events exceed one budget per run")
            digests[key] = sim_digest(results)
            runs += len(results)
            jobs += sim_jobs(results)
            failures.extend(self.check(key, label, admitted, results))
        counts = {"sim.runs": runs, "sim.jobs": jobs, "sim.max_op_events": max_op_events}
        return CycleResult(units, dict(units), digests, counts, failures)

    def check(self, key, label, admitted, results) -> List[str]:
        return []


class Sim(_SimBase):
    """Op: one ``simulate_batch`` over one (case, system)'s phasings on the
    struct-of-arrays core.  Set-up keeps only draws whose budget horizon is
    above the floor for all five simulated systems.

    Cases are stratified: the k-th kept case has utilization
    ``UTILS[k % 4]`` and ``TASKS[k // 4 % 2]`` tasks, so every seed
    simulates the same mix of sizes and only the models, utilization
    splits and phases are drawn.  Unstratified, the cycle's cost moved
    about twice as much from seed to seed.  Five-task sets are left out:
    the horizon floor rejects nearly all of them at high utilization."""

    name = "sim"
    #: Many cases with one phasing each: 450 ops in a cycle of about
    #: 1.3 s, so a run repeats every op about twenty times, and the
    #: median op moves little from seed to seed.
    CASES = 90
    UTILS = (0.3, 0.5, 0.7, 0.9)
    TASKS = (3, 4)
    SYSTEMS = ("rtmdm", "single-buffer", "sequential", "np-whole", "xip")
    PHASINGS = 1

    def __init__(self, cases: int = CASES) -> None:
        self.cases = cases

    def setup(self, seed: int, tracer) -> Dict:
        generate = tracer.wrap(generate_case, "workload.generate")
        analyze = tracer.wrap(segcache.cached_analyze, "analyze.cached_analyze")
        platform = get_platform(PLATFORM)
        ops = []
        draws = rejects = 0
        while len(ops) < self.cases * len(self.SYSTEMS):
            if draws >= MAX_DRAWS:
                raise RuntimeError(f"sim: {draws} draws gave too few usable cases")
            index = draws
            draws += 1
            slot = len(ops) // len(self.SYSTEMS)
            util = self.UTILS[slot % len(self.UTILS)]
            n_tasks = self.TASKS[slot // len(self.UTILS) % len(self.TASKS)]
            case = generate(platform, util, random.Random(stable_seed(seed, "sim", index)),
                            n_tasks=n_tasks)
            if not case.feasible:
                rejects += 1
                continue
            derived = [(s, *derive_taskset(s, case)) for s in self.SYSTEMS]
            horizons = [budget_horizon(ts, self.BUDGET) for _, ts, _ in derived]
            if None in horizons:
                rejects += 1
                continue
            for (system, ts, method), horizon in zip(derived, horizons):
                admitted = analyze(ts, method).schedulable
                config = SimConfig(policy=CpuPolicy.FP_NP, horizon=horizon)
                batch = []
                for p in range(self.PHASINGS):
                    prng = random.Random(stable_seed(seed, "sim-phase", index, system, p))
                    batch.append((ts.with_phases([prng.randrange(t.period) for t in ts]), config))
                ops.append(((index, system), system, admitted, batch))
        return {"ops": ops, "draws": draws, "rejects": rejects}

    def check(self, key, label, admitted, results) -> List[str]:
        # EXP-F7's rtmdm_admitted_misses == 0: RT-MDM's analysis is safe.
        if label == "rtmdm" and admitted and any(r.total_misses for r in results):
            return [f"sim op {key}: set admitted by RT-MDM missed a deadline"]
        return []


class SimFaults(_SimBase):
    """Op: one simulated configuration under faults — WCET inflation with
    DMA faults and jitter under every overrun policy, plus a two-channel
    DMA run per case.  Every one stands down to the scalar simulator."""

    name = "sim-faults"
    CASES = 12
    #: A smaller budget than ``sim``'s: every op then costs about 5 ms, a
    #: cycle about 1.3 s, and a 30 s run repeats every op about twenty
    #: times, so each op's fastest repeat (and the narrow p90) holds.
    BUDGET = 4_000
    UTIL = 0.6
    INFLATIONS = (1.0, 1.25, 1.5, 2.0)
    POLICIES = (
        OverrunPolicy.CONTINUE,
        OverrunPolicy.ABORT_AT_DEADLINE,
        OverrunPolicy.SKIP_NEXT,
        OverrunPolicy.DEGRADE,
    )

    def __init__(self, cases: int = CASES) -> None:
        self.cases = cases

    def setup(self, seed: int, tracer) -> Dict:
        generate = tracer.wrap(generate_case, "workload.generate")
        platform = get_platform(PLATFORM)
        crc = platform.dma.crc_cycles(platform.mcu)
        ops = []
        draws = rejects = kept = 0
        while kept < self.cases:
            if draws >= MAX_DRAWS:
                raise RuntimeError(f"sim-faults: {draws} draws gave too few usable cases")
            index = draws
            draws += 1
            case = generate(platform, self.UTIL, random.Random(stable_seed(seed, "r1", index)))
            horizon = budget_horizon(case.taskset, self.BUDGET) if case.feasible else None
            if horizon is None:
                rejects += 1
                continue
            ts = case.taskset
            degrade = DegradeConfig(
                fallbacks={t.name: degraded_variant(t, 0.5) for t in ts},
                miss_threshold=2,
                recover_after=3,
            )
            configs = []
            for inflation in self.INFLATIONS:
                faults = FaultConfig(
                    inflation=InflationModel.FIXED,
                    inflation_factor=inflation,
                    dma_fault_prob=0.02,
                    dma_max_retries=3,
                    dma_crc_overhead=crc,
                    jitter_cycles=crc,
                    seed=stable_seed(seed, "r1-faults", kept),
                )
                for policy in self.POLICIES:
                    configs.append((f"x{inflation}/{policy.value}", SimConfig(
                        policy=CpuPolicy.FP_NP,
                        horizon=horizon,
                        faults=faults,
                        overrun=policy,
                        degrade=degrade if policy is OverrunPolicy.DEGRADE else None,
                    )))
            configs.append(("dma2", SimConfig(
                policy=CpuPolicy.FP_NP, horizon=horizon, dma_channels=2,
            )))
            for label, config in configs:
                ops.append(((kept, label), label, False, [(ts, config)]))
            kept += 1
        return {"ops": ops, "draws": draws, "rejects": rejects}


# ----------------------------------------------------------------------
# fleet: EXP-S1/S3-style journaled admission service
# ----------------------------------------------------------------------
def journal_stats(directory: str) -> Dict[str, int]:
    """Records and bytes of every journal file, checkpoints apart.

    Records are dumped with sorted keys, so a line's top-level ``type``
    is its last ``"type":"`` occurrence.
    """
    records = size = checkpoints = checkpoint_bytes = 0
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            for line in handle:
                records += 1
                size += len(line)
                if line[line.rfind(b'"type":"') + 8:].startswith(b"checkpoint"):
                    checkpoints += 1
                    checkpoint_bytes += len(line)
    return {
        "journal.records": records,
        "journal.bytes": size,
        "journal.checkpoints": checkpoints,
        "journal.checkpoint_bytes": checkpoint_bytes,
    }


class Fleet:
    """Op: one admission decision, timed from its journal intent to its
    journal commit.  The timed unit of ``ops_per_s`` is the whole
    ``FleetService.run``; caches are cold in every cycle, as
    ``rtmdm fleet`` starts."""

    name = "fleet"
    DEVICES = 4_000
    DURATION_S = 10.0
    RATE_HZ = 0.1
    SHARDS = 16
    #: Shorter, milder bursts than the on-off default: the request count
    #: then varies little from seed to seed while arrivals stay clustered.
    BURST_FACTOR = 2.0
    MEAN_CYCLE_S = 0.25

    def __init__(self, devices: int = DEVICES) -> None:
        self.devices = devices

    def setup(self, seed: int, tracer) -> Dict:
        draw = tracer.wrap(fleet_trace, "workload.fleet_trace")
        trace = draw(
            self.devices, self.DURATION_S, self.RATE_HZ, seed,
            arrival="bursty", burst_factor=self.BURST_FACTOR,
            mean_cycle_s=self.MEAN_CYCLE_S,
        )
        return {"trace": trace, "draws": 1, "rejects": 0}

    def state_digest(self, state: Dict) -> str:
        return digest(state["trace"].requests)

    def cycle(self, state: Dict, tracer, workdir: str) -> CycleResult:
        intents: Dict[int, int] = {}
        latency: Dict[Hashable, int] = {}
        append_intent = DecisionJournal.append_intent
        append_commit = DecisionJournal.append_commit

        def timed_intent(journal, seq, request, extra=None):
            intents[extra["seq"]] = time.perf_counter_ns()
            return append_intent(journal, seq, request, extra)

        def timed_commit(journal, seq, decision):
            append_commit(journal, seq, decision)
            latency[decision["seq"]] = time.perf_counter_ns() - intents[decision["seq"]]

        journal_dir = tempfile.mkdtemp(prefix="fleet-", dir=workdir)
        DecisionJournal.append_intent = timed_intent
        DecisionJournal.append_commit = timed_commit
        try:
            service = FleetService(
                config=FleetConfig(n_shards=self.SHARDS, journal_dir=journal_dir)
            )
            run = tracer.wrap(service.run, "fleet.run")
            with tracer.span("op"):
                start = time.perf_counter_ns()
                report = run(state["trace"])
                elapsed = time.perf_counter_ns() - start
            counts = journal_stats(journal_dir)
        finally:
            DecisionJournal.append_intent = append_intent
            DecisionJournal.append_commit = append_commit
            shutil.rmtree(journal_dir, ignore_errors=True)
        failures: List[str] = []
        try:
            fleet_invariants(report)
        except FleetInvariantError as exc:
            failures.append(f"fleet invariant: {exc}")
        counts.update({
            "fleet.decided": report.decided,
            "fleet.admitted": report.admitted,
            "fleet.rejected_rta": report.rejected_rta,
            "fleet.rejected_sram": report.rejected_sram,
            "fleet.shed": report.shed,
            "fleet.peak_queue_depth": report.peak_queue_depth,
        })
        decisions = digest(decision_identity(report.all_decisions()))
        return CycleResult(
            {"run": elapsed}, latency, {"decisions": decisions}, counts, failures,
            failed_ops=report.shed,
            reported_ns={"fleet.engine": int(report.engine_s * 1e9)},
        )


WORKLOADS = {w.name: w for w in (Sim, SimFaults, Fleet)}
