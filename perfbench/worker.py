"""One benchmark process: set up, run one workload, print info and result.

Started by ``perfbench/run.py``, which sets the environment. Every workload
is a closed loop with one caller: each call waits for the previous one.
A run is made of ``min_rounds`` whole rounds, each round one operation per
entry of the workload's size mix, so every size keeps its share.

The first pass attempts every operation once and settles which fail. The
operations that completed are then timed again, pass after pass, until
``--seconds`` have passed and at least the workload's ``passes`` are done.
An operation's latency is taken from its passes by the workload's rule,
chosen for a host whose speed changes every few seconds. On a 2-vCPU VM,
interpreter-bound calls (search, membership) ran at one common speed with
irregular stretches 1.8x faster, so their slowest pass repeats from run to
run; BLAS-bound calls (dense) ran at one common speed with irregular
slowdowns of up to 2x, so their fastest pass repeats. A few hiccups move
single operations, not the group medians built from them.

A traced run makes the first pass traced, so that its counts repeat
exactly, then one untraced pass for the rates, the tail and the overhead
of tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy

import rankrange as rr

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from inputs import (MIN_RADIUS, chebyshev_centre, chord_margin,  # noqa: E402
                    disk_points, instance_stream)
from tracing import STRATEGIES, Tracer  # noqa: E402

#: search nodes (calls of decomposition._search_pieces, recursion included)
#: one witness may visit. Calls that complete visit about 20, and up to 278
#: at seed 1 (58,20) #11; the known tail calls pass 3000. Counting nodes,
#: not seconds, gives the same failures on any machine: on one 2-vCPU VM
#: whose speed drifted 1.7x, the slowest call that completed took 5.9 s to
#: 10.1 s, and an 853-node call took 18-23 s, so no affordable wall-clock
#: budget repeated. The search workload stops if that function is gone,
#: since its failures would then no longer be comparable.
NODE_BUDGET = 500
#: wall-clock net (s) for a witness that stalls outside the search
WALL_BUDGET_S = 25.0
#: membership points this close to the region boundary are not checked
BOUNDARY_SKIP = 1e-7
#: matrix inputs are conjugated here, so unitarity holds to ~1e-13
INGEST_TOL = 1e-8
#: the span name of the hook that counts search nodes
SEARCH = "decomposition.search"


@dataclass(frozen=True)
class Workload:
    sizes: tuple          # (N, k) per operation slot of a round
    min_rounds: int
    passes: int           # timed passes at least, the first one included
    latency: object       # max or min: an operation's time from its passes


WORKLOADS = {
    # Equal counts of three sizes put the median inside the k = 15 group.
    # 19 rounds reach instance 18 of the (58,20) stream, so seed 1 holds
    # the known tail instances 4, 7 and 18.
    "search": Workload(((28, 10), (44, 15), (58, 20)), min_rounds=19,
                       passes=3, latency=max),
    # Each stream alternates spectrum and matrix inputs, so two rounds give
    # every size one of each. (600,200) runs twice a round, so the median
    # falls inside its spectrum-input group, whose cost is assembly and
    # residuals and does not depend on the seed (the rank-1 scan length
    # does).
    "dense": Workload(((150, 50), (150, 1), (300, 100), (300, 1),
                       (600, 200), (600, 200), (600, 1)), min_rounds=2,
                      passes=4, latency=min),
    # Many region queries per build, oracle cross-checks where N <= 12 and
    # target choice; never enters the decomposition.
    "membership": Workload(((9, 3), (12, 4), (64, 21), (600, 200)),
                           min_rounds=4, passes=3, latency=max),
}

# membership: contains queries, oracle verdicts per spectrum; N = 12 holds
# most contains queries so the median falls inside that group
CONTAINS_QUERIES = {9: 100, 12: 300, 64: 60, 600: 10}
ORACLE_QUERIES = {9: 20, 12: 6}


class BudgetExceeded(BaseException):
    """A witness ran past its budget. A BaseException, so that the library's
    own ``except Exception`` clauses cannot swallow it."""


def _alarm(signum, frame):
    raise BudgetExceeded(f"wall clock > {WALL_BUDGET_S:g} s")


def with_budget(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, WALL_BUDGET_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


class NodeBudget:
    """Counts the search nodes of the current witness and cuts it off past
    NODE_BUDGET. Called before every call of the search, by the tracer's
    hook on ``decomposition._search_pieces``."""

    def __init__(self):
        self.nodes = 0

    def __call__(self):
        self.nodes += 1
        if self.nodes > NODE_BUDGET:
            raise BudgetExceeded(f"search nodes > {NODE_BUDGET}")


@dataclass
class Op:
    """One slot of one round: a witness, or the region queries on one
    spectrum (``points`` and their chord margins, the expected verdicts)."""
    op_id: str            # "<round>.<slot>"
    inst: object          # inputs.Instance
    points: np.ndarray = None
    margins: np.ndarray = None


@dataclass
class Outcome:
    op: str               # "witness", "contains", "oracle" or "target"
    op_id: str            # the Op's id, with ".c<q>", ".o<q>", ".target"
    inst: tuple           # (N, k, index in the size's stream, conjugated)
    seconds: float        # timed part, failed calls included
    status: str = "ok"    # ok | budget | error | wrong
    detail: str = ""
    strategy: str = ""

    @property
    def group(self) -> tuple:
        """Operation kind, size and input kind."""
        n, k, _, conjugated = self.inst
        return self.op, n, k, conjugated

    @property
    def label(self) -> str:
        n, k, index, _ = self.inst
        return f"{self.op} ({n},{k})#{index}"


@dataclass
class Pass:
    outcomes: list = field(default_factory=list)
    region_build_s: float = 0.0   # timed with the contains queries
    oracle_build_s: float = 0.0   # timed with the oracle verdicts

    @property
    def build_s(self) -> float:
        return self.region_build_s + self.oracle_build_s


# ---------------------------------------------------------------------------
# operations


def key(inst) -> tuple:
    return inst.n, inst.k, inst.index, inst.conjugated


def witness(inst):
    if inst.conjugated:
        es = rr.ingest_matrix(inst.matrix, tol=INGEST_TOL)
    else:
        es = rr.ingest_spectrum(inst.phases)
    return rr.construct_projector(es, inst.k, inst.target)


def run_witness(op: Op, tracer, budget: NodeBudget, out: Pass):
    """One witness, timed, then checked untimed. Every target is a Chebyshev
    centre of radius >= MIN_RADIUS, so a witness exists and a
    RankRangeError is a wrong answer."""
    inst, op_id = op.inst, op.op_id
    run = (lambda: tracer.op(op_id, witness, inst)) if tracer \
        else (lambda: witness(inst))
    budget.nodes = 0
    start = time.perf_counter()
    try:
        proj = with_budget(run)
    except BudgetExceeded as exc:
        if tracer and budget.nodes <= NODE_BUDGET:
            # cut by the wall clock, so how far it got depends on timing
            tracer.discard_op(op_id)
        out.outcomes.append(Outcome("witness", op_id, key(inst),
                                    time.perf_counter() - start, "budget",
                                    str(exc)))
        return
    except rr.RankRangeError as exc:
        out.outcomes.append(Outcome("witness", op_id, key(inst),
                                    time.perf_counter() - start, "wrong",
                                    f"{type(exc).__name__}: {exc}"))
        return
    seconds = time.perf_counter() - start
    report = rr.verify_projector(proj.matrix, inst.caller_matrix(),
                                 inst.target, inst.k)
    status = "ok" if report.passed else "wrong"
    detail = "" if report.passed else json.dumps(report.residuals)
    out.outcomes.append(Outcome("witness", op_id, key(inst), seconds, status,
                                detail, proj.strategy))


def _timed(tracer, op_id, fn, *args):
    start = time.perf_counter()
    result = tracer.op(op_id, fn, *args) if tracer else fn(*args)
    return result, time.perf_counter() - start


def run_region(op: Op, tracer, out: Pass):
    """Region queries on one spectrum: contains (after one build), oracle
    verdicts where N <= 12, and one interior_point, each checked."""
    inst, op_id = op.inst, op.op_id
    n, k = inst.n, inst.k
    es = rr.ingest_spectrum(inst.phases)

    region, s = _timed(tracer, f"{op_id}.build", rr.build_region, es, k)
    out.region_build_s += s
    asked = []
    for q, z in enumerate(op.points):
        verdict, s = _timed(tracer, f"{op_id}.c{q}", rr.contains, region,
                            complex(z))
        asked.append((verdict, Outcome("contains", f"{op_id}.c{q}",
                                       key(inst), s)))
    for (verdict, outcome), m in zip(asked, op.margins):
        if abs(m) > BOUNDARY_SKIP and \
                verdict != (rr.INSIDE if m > 0 else rr.OUTSIDE):
            outcome.status = "wrong"
            outcome.detail = f"contains {verdict} at chord margin {m:.2e}"
        out.outcomes.append(outcome)

    if n in ORACLE_QUERIES:
        oracle, s = _timed(tracer, f"{op_id}.oracle", rr.BruteForceOracle,
                           es, k)
        out.oracle_build_s += s
        for q, z in enumerate(op.points[:ORACLE_QUERIES[n]]):
            verdict, s = _timed(tracer, f"{op_id}.o{q}", oracle.verdict,
                                complex(z))
            outcome = Outcome("oracle", f"{op_id}.o{q}", key(inst), s)
            if abs(op.margins[q]) > BOUNDARY_SKIP and verdict != asked[q][0]:
                outcome.status = "wrong"
                outcome.detail = f"oracle {verdict}, contains {asked[q][0]}"
            out.outcomes.append(outcome)

    target, s = _timed(tracer, f"{op_id}.target", rr.interior_point, region)
    outcome = Outcome("target", f"{op_id}.target", key(inst), s)
    verdict = None if target is None else rr.contains(region, target)
    if verdict != rr.INSIDE:
        outcome.status = "wrong"
        outcome.detail = f"interior_point {target} is {verdict}"
    out.outcomes.append(outcome)


# ---------------------------------------------------------------------------
# passes


def make_plan(name: str, seed: int) -> tuple:
    """The operations of ``min_rounds`` whole rounds, and how many
    instances were skipped for a Chebyshev radius below MIN_RADIUS."""
    wl = WORKLOADS[name]
    streams = {size: instance_stream(seed, *size, name != "membership")
               for size in dict.fromkeys(wl.sizes)}
    rng = np.random.default_rng([seed, 1])   # membership query points
    plan, skipped = [], 0
    for r in range(wl.min_rounds):
        for slot, size in enumerate(wl.sizes):
            inst = next(streams[size])
            while inst.radius < MIN_RADIUS:
                skipped += 1
                inst = next(streams[size])
            op = Op(f"{r}.{slot}", inst)
            if name == "membership":
                op.points = disk_points(rng, CONTAINS_QUERIES[inst.n])
                op.margins = chord_margin(inst.phases, inst.k, op.points)
            plan.append(op)
    return plan, skipped


def run_pass(plan, budget: NodeBudget, tracer=None,
             skip=frozenset()) -> Pass:
    """Every operation of the plan once, less the ops in ``skip``."""
    out = Pass()
    for op in plan:
        if op.op_id in skip:
            continue
        if op.points is not None:
            run_region(op, tracer, out)
        else:
            run_witness(op, tracer, budget, out)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, int(np.ceil(q * len(ordered))) - 1)]


def e2e_metrics(passes: list, pick) -> dict:
    """Throughput at each group's median latency, the median latency, and
    peak memory, over the operations that completed. ``pick`` (max or min)
    takes an operation's latency, and the build time, from its passes (see
    the module docstring). A group is one operation kind at one size and
    input kind.
    Group medians keep the few very slow calls that complete, whose number
    varies from seed to seed, from swinging the throughput; calls that fail
    show in ``failed`` and in the traced run's witness.* metrics."""
    seconds = defaultdict(list)
    group = {}
    for p in passes:
        for o in p.outcomes:
            if o.status == "ok":
                seconds[o.op_id].append(o.seconds)
                group[o.op_id] = o.group
    latency = {op_id: pick(v) for op_id, v in seconds.items()}
    groups = defaultdict(list)
    for op_id, t in latency.items():
        groups[group[op_id]].append(t)
    typical = sum(len(v) * statistics.median(v) for v in groups.values())
    build_s = pick(p.build_s for p in passes)
    return {
        "median_ops_per_s": len(latency) / (typical + build_s),
        "op_ms_p50": 1e3 * statistics.median(latency.values()),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def rate(p: Pass, op: str, extra_s: float = 0.0) -> float:
    """Checked operations of one kind per second of their time plus
    ``extra_s`` (the builds they need)."""
    done = [o for o in p.outcomes if o.op == op and o.status == "ok"]
    busy = sum(o.seconds for o in p.outcomes if o.op == op) + extra_s
    return len(done) / busy if busy else 0.0


def layer_metrics(tracer, traced: Pass, plain: Pass, cut) -> dict:
    """Per-layer metrics of the traced pass; rates, the tail and the
    tracing overhead against the untraced replay ``plain`` of every
    operation not in ``cut``."""
    out = tracer.metrics()
    strategies = [o.strategy for o in traced.outcomes if o.strategy]
    for s in STRATEGIES:
        out[f"decomposition.strategy.{s}"] = strategies.count(s)
    out["decomposition.planned_ratio"] = \
        strategies.count("planned") / len(strategies) if strategies else 0.0
    witnesses = [o for o in traced.outcomes if o.op == "witness"]
    out["witness.fail_frac"] = \
        sum(o.status != "ok" for o in witnesses) / len(witnesses) \
        if witnesses else 0.0
    # the tail percentile is reported only with ten attempts beyond it
    seconds = [o.seconds for o in plain.outcomes if o.op == "witness"] \
        + [o.seconds for o in traced.outcomes if o.op_id in cut]
    out["witness.ms_p80"] = 1e3 * percentile(seconds, 0.8) \
        if len(seconds) >= 50 else 0.0
    out["membership.member_qps"] = rate(plain, "contains",
                                        plain.region_build_s)
    out["membership.oracle_qps"] = rate(plain, "oracle", plain.oracle_build_s)
    out["membership.target_per_s"] = rate(plain, "target")
    traced_s = sum(o.seconds for o in traced.outcomes
                   if o.op_id not in cut) + traced.build_s
    plain_s = sum(o.seconds for o in plain.outcomes) + plain.build_s
    out["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return out


# ---------------------------------------------------------------------------


def warm_up():
    """One untimed call of each operation on tiny instances."""
    rng = np.random.default_rng(0)
    # a spectrum and a matrix input for 3k-1, then 3k-2 and rank 1
    for n, k, count in ((8, 3, 2), (13, 5, 1), (7, 1, 1)):
        stream = instance_stream(0, n, k)
        for _ in range(count):
            inst = next(stream)
            proj = witness(inst)
            rr.verify_projector(proj.matrix, inst.caller_matrix(),
                                inst.target, k)
    es = rr.ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, 9)))
    region = rr.build_region(es, 3)
    rr.contains(region, 0j)
    rr.interior_point(region)
    rr.BruteForceOracle(es, 3).verdict(0j)
    chebyshev_centre(es.phases, 3)


def environment(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}",
            "nproc": os.cpu_count(), "seed": seed,
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    signal.signal(signal.SIGALRM, _alarm)

    name, wl = args.workload, WORKLOADS[args.workload]
    plan, skipped = make_plan(name, args.seed)
    budget = NodeBudget()
    hooks = Tracer(checks={SEARCH: budget})
    hooks.install(only=None if args.trace else hooks.checks)
    if name == "search" and not hooks.hooked(SEARCH):
        print(f"no search-node hook (absent: {hooks.absent}), so the node "
              "budget cannot be kept", file=sys.stderr)
        return 3
    start = time.perf_counter()
    if args.trace:
        try:
            first = run_pass(plan, budget, tracer=hooks)
        finally:
            hooks.remove()
            hooks.install(only=hooks.checks)
    else:
        first = run_pass(plan, budget)
    wall = time.perf_counter() - start

    failures = [o for o in first.outcomes if o.status != "ok"]
    # witnesses cut off or refused are not timed again
    cut = frozenset(o.op_id for o in failures if o.op == "witness")
    passes = [first]
    if args.trace:
        passes.append(run_pass(plan, budget, skip=cut))
    else:
        while len(passes) < wl.passes or \
                time.perf_counter() - start < args.seconds:
            passes.append(run_pass(plan, budget, skip=cut))
    hooks.remove()

    info = {"workload": name, "sizes": wl.sizes, "rounds": wl.min_rounds,
            "passes": len(passes), "latency": wl.latency.__name__,
            "first_pass_s": wall, "wall_s": time.perf_counter() - start,
            "budget": {"search_nodes": NODE_BUDGET, "wall_s": WALL_BUDGET_S},
            "skipped_small_radius": skipped,
            "environment": environment(args.seed),
            "failures": [(o.op_id, o.label, o.status, o.detail)
                         for o in failures],
            "slowest_completed_s": max((o.seconds for o in first.outcomes
                                        if o.status == "ok"), default=0.0)}
    result = {"correct": not any(o.status == "wrong" for o in failures),
              "attempted": len(first.outcomes), "failed": len(failures)}

    if args.trace:
        result["metrics"] = layer_metrics(hooks, first, passes[1], cut)
        os.makedirs(".bench_out", exist_ok=True)
        path = os.path.join(".bench_out", f"spans-{name}-{args.seed}.jsonl")
        hooks.write(path)
        info["spans_file"] = path
        info["absent_hooks"] = hooks.absent
    else:
        result["metrics"] = e2e_metrics(passes, wl.latency)
    print(json.dumps(info, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
