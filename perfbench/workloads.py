"""Workloads of the solve benchmark: corpora, solver settings, the gate.

Each workload is a fixed corpus of generated instances and one way of
solving them through the package's public API.  The benchmark's seed only
sets the heuristic seed; the corpus always comes from the same scenario
seeds, so the program receives nothing but generated instances.

`solve` times one solve; `judge` then checks its answer outside the timed
region: the schedule must validate, the reported makespan must be the
schedule's, `hop` may never return more than its own heuristic horizon,
and on the small corpus no result may beat, or claim optimality away from,
the reference optimum.
"""

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import curesched.gen
import curesched.heuristic
import curesched.hop
from curesched import (
    PARTS_PER_HEATER,
    SOLVER_ADAPTER,
    SOLVER_INTERNAL,
    HeuristicConfig,
    HopConfig,
    SolverAdapter,
    schedule_makespan,
    validate_schedule,
)

HERE = Path(__file__).resolve().parent

STARTS = 100
PARTS_MODE = PARTS_PER_HEATER

SMALL = (("small", tuple(range(1, 16))),)
PLANT = (("medium", tuple(range(1, 11))), ("large", tuple(range(1, 6))))

# Proven by HiGHS through the `hop-lp` workload (every run proves all 15);
# the internal oracle agrees wherever it proves a result.
REFERENCE_OPTIMA = {
    "S01": 2, "S02": 6, "S03": 3, "S04": 3, "S05": 6,
    "S06": 4, "S07": 8, "S08": 3, "S09": 7, "S10": 2,
    "S11": 6, "S12": 5, "S13": 11, "S14": 2, "S15": 3,
}

STOCK_LPSOLVE = (sys.executable, "-m", "curesched.lpsolve")
TRACED_LPSOLVE = (sys.executable, str(HERE / "lpsolve_traced.py"))


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: tuple          # ((scenario, seeds), ...)
    solver: str = None     # None runs the heuristic alone
    time_limit_s: float = None
    # one corpus pass on a 2-core x86 machine; sets passes per run
    nominal_pass_s: float = 1.0


# Why each workload: see README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("heuristic-plant", PLANT, nominal_pass_s=12.5),
    Workload("hop-internal", SMALL, SOLVER_INTERNAL, time_limit_s=1.0,
             nominal_pass_s=16.0),
    Workload("hop-lp", SMALL, SOLVER_ADAPTER, time_limit_s=60.0,
             nominal_pass_s=38.0),
)}


def make_corpus(workload: Workload) -> list:
    return [curesched.gen.generate_instance(curesched.gen.SCENARIOS[size], s)
            for size, seeds in workload.corpus for s in seeds]


def solver_config(workload: Workload, seed: int, command=STOCK_LPSOLVE):
    """The heuristic config, or the hop config that wraps it."""
    heur = HeuristicConfig(total_iterations=STARTS, seed=seed,
                           parts_mode=PARTS_MODE)
    if workload.solver is None:
        return heur
    adapter = None
    if workload.solver == SOLVER_ADAPTER:
        adapter = SolverAdapter(command=tuple(command))
    return HopConfig(heuristic=heur, solver=workload.solver,
                     time_limit_seconds=workload.time_limit_s,
                     parts_mode=PARTS_MODE, adapter=adapter)


@dataclass
class Outcome:
    """One checked solve; `problems` is empty when the answer is right."""

    instance: str
    solve_s: float
    makespan: int = None
    status: str = None
    gap_pct: float = None
    horizon: int = None
    thb: int = None
    rows: int = None
    ref_s: float = None
    limit_wait_s: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal" and not self.problems

    @property
    def solved(self) -> bool:
        """A valid schedule from the heuristic, a valid proof from hop."""
        if self.failed:
            return False
        return self.status == "heuristic" or self.status == "optimal"


def solve(workload: Workload, inst, cfg):
    """One timed solve in a closed loop: (seconds, report, schedule, error)."""
    report = schedule = error = None
    clock = time.perf_counter()
    try:
        if workload.solver is None:
            schedule = curesched.heuristic.run_heuristic(inst, cfg)
        else:
            report, schedule = curesched.hop.run_hop(inst, cfg)
    except Exception as exc:  # a failed solve is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - clock, report, schedule, error


def judge(workload: Workload, inst, thb: int, solved) -> Outcome:
    """Check one solve's answer; called outside the timed region."""
    solve_s, report, schedule, error = solved
    out = Outcome(inst.name, solve_s, thb=thb)
    if error is not None:
        out.problems.append(error)
        return out
    if report is None:
        out.status = "heuristic"
    else:
        out.status, out.gap_pct = report.status, report.gap_percent
        if report.solver_seconds is not None \
                and report.solver_seconds >= workload.time_limit_s:
            # the exact stage ran until its own wall-clock limit
            out.limit_wait_s = report.solver_seconds
        if report.stats is not None:
            out.horizon, out.rows = report.stats.thb, report.stats.n_constraints
    out.problems.extend(_check(inst, report, schedule))
    if report is not None:
        out.makespan = report.makespan
    elif schedule is not None and not schedule.sentinel:
        out.makespan = int(schedule_makespan(schedule))
    return out


def _check(inst, report, schedule) -> list:
    if schedule is None or schedule.sentinel:
        return ["no schedule returned"]
    problems = list(validate_schedule(inst, schedule, PARTS_MODE).violations)
    actual = schedule_makespan(schedule)
    claimed = actual if report is None else report.makespan
    if claimed is None:
        return problems + ["no makespan returned"]
    if claimed != actual:
        problems.append(f"reported makespan {claimed}, schedule ends at {actual}")
    if report is not None and report.stats is not None \
            and claimed > report.stats.thb:
        problems.append(f"makespan {claimed} above the heuristic horizon "
                        f"{report.stats.thb}")
    ref = REFERENCE_OPTIMA.get(inst.name)
    if ref is not None:
        if claimed < ref:
            problems.append(f"makespan {claimed} below the proven optimum {ref}")
        elif report is not None and report.status == "optimal" \
                and claimed != ref:
            problems.append(f"claims optimal {claimed}, reference is {ref}")
    return problems
