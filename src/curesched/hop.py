"""Hybrid solve pipeline: heuristic first, exact second, on the
heuristic's own horizon.

The randomized constructive heuristic produces a feasible schedule, and
its makespan becomes the horizon for the exact phase, so the model the
solver sees is only as large as the best known schedule requires.  The
pipeline returns the better of the two phases.  A backend's `SolverFault`
on a component the heuristic schedule witnesses keeps that schedule at
"limit"; in `run_baseline_milp`, the same stage on the safe a-priori
horizon bound, it propagates.  A stage schedule that fails the validator
is a `SolverFault` in both.

Both pipelines share one body, `_solve_on`, around one exact stage,
`_exact_stage`: the internal search, or a built MILP for the external
adapter, under the one time limit `HopConfig.time_limit_seconds`, split
evenly among the components still to search.  The stage solves the
instance's independent `components` apart, each on the makespan the
heuristic schedule needs for it: the whole makespan is only the largest
of theirs, which the others merely have to fit.  A component the
heuristic already closes, at its root bound or within that length, is not
searched, and a heuristic schedule at the instance's root bound skips the
stage (`root_bound` counts the first period's setups, so the stage skips
M08 in both parts modes and M10 per heater, with 0 nodes); the adapter
climbs any other one's horizons from its root bound,
first with short slices of the internal search and then with solver
children, as `_component_solve` describes; only those children load the
LP layer (`milp`), so an internal solve never does.  The stage's
`SolveReport` is the pipeline's report, its model size the `model_size`
of the whole instance on the horizon.
"""

import time
from collections import namedtuple
from dataclasses import dataclass, replace

from .domain import (
    Instance,
    PARTS_MODES,
    PARTS_PER_HEATER,
    Schedule,
    components,
    schedule_makespan,
    validate_schedule,
)
from .errors import AdapterFailure, SolverFault
from .bounds import root_bound
from .exact import (
    TIME_LIMIT_SECONDS,
    SolveReport,
    SolverAdapter,
    solve_exact,
)
from .heuristic import HeuristicConfig, run_heuristic
from .horizon import compute_thb, model_size

SOLVER_INTERNAL = "internal-exact"
SOLVER_ADAPTER = "external-adapter"
SOLVERS = (SOLVER_INTERNAL, SOLVER_ADAPTER)
# the oracle's time on one adapter ladder rung before a solver child runs it
_REFUTE_S = 0.1
# what the exact stage reads of one component's solve
_Answer = namedtuple("_Answer", "status makespan schedule nodes",
                     defaults=(None, None, 0))

__all__ = [
    "SOLVER_ADAPTER",
    "SOLVER_INTERNAL",
    "HopConfig",
    "run_baseline_milp",
    "run_hop",
]


@dataclass(frozen=True)
class HopConfig:
    """Settings for the hybrid pipeline and its baseline counterpart.

    `time_limit_seconds` bounds the exact stage on either backend.
    """

    heuristic: HeuristicConfig = None
    solver: str = SOLVER_INTERNAL
    time_limit_seconds: float = TIME_LIMIT_SECONDS
    parts_mode: str = PARTS_PER_HEATER
    adapter: SolverAdapter = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver choice {self.solver!r}")
        if not self.time_limit_seconds > 0:
            raise ValueError("time_limit_seconds must be positive")
        if self.parts_mode not in PARTS_MODES:
            raise ValueError(f"unknown parts mode {self.parts_mode!r}")
        if (self.heuristic is not None
                and self.heuristic.parts_mode != self.parts_mode):
            raise ValueError("heuristic parts_mode disagrees with pipeline")
        if (self.solver == SOLVER_ADAPTER) != (self.adapter is not None):
            raise ValueError("an adapter goes with the external-adapter "
                             "solver, and only with it")


def _component_solve(comp, horizon, cfg: HopConfig, deadline, witnessed,
                     floor, bound):
    """The configured backend's `_Answer` for one component on `horizon`,
    or None when the deadline has passed; `floor` is the oracle's
    good-enough makespan.  A `witnessed` horizon stands unless something
    shorter turns up, so the search covers the horizons up to
    `horizon - witnessed`: the oracle's in one search, whose refutation
    makes the witness optimal, its limit merely "feasible".

    The adapter climbs the same horizons from the component's root `bound`
    in two loops, and returns the first answer that is not "infeasible":
    every shorter rung was, so a schedule in it is optimal.  Climb 1 gives
    each rung a `_REFUTE_S` slice of the oracle, asked for any schedule
    within it.  A schedule it finds is the answer; when the slices refute
    every rung, the witness is optimal, or without one the component is
    "infeasible".  The first slice that settles nothing ends climb 1, so
    the oracle costs at most one slice more than its proofs, whose nodes
    the answer counts.  Climb 2 runs solver children from that rung up to
    `horizon`: a rung's model is built only while time is left, and its
    child gets what is left.  A witnessed `horizon` the children reach is
    optimal unless its check child finds a shorter schedule; that child's
    limit leaves the witness optimal, and its "infeasible" is a
    `SolverFault`, as is any adapter failure: one ends a witnessed climb
    at "limit", its incumbent standing; without a witness it propagates."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        return None
    if cfg.solver == SOLVER_INTERNAL:
        r = solve_exact(comp, horizon - witnessed, cfg.parts_mode,
                        floor=floor, time_limit_seconds=remaining)
        if witnessed and r.schedule is None:
            return _Answer("optimal" if r.status == "infeasible"
                           else "feasible", horizon, nodes=r.nodes)
        return _Answer(r.status, r.makespan, r.schedule, r.nodes)
    nodes = 0
    for h in range(min(bound, horizon), horizon - witnessed + 1):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return _Answer("limit", nodes=nodes)
        proof = solve_exact(comp, h, cfg.parts_mode, floor=h,
                            time_limit_seconds=min(_REFUTE_S, remaining))
        nodes += proof.nodes
        if proof.schedule is not None:
            return _Answer("optimal", proof.makespan, proof.schedule, nodes)
        if proof.status != "infeasible":
            break
    else:  # the slices refuted every rung
        return (_Answer("optimal", horizon, nodes=nodes) if witnessed
                else _Answer("infeasible", nodes=nodes))
    from .milp import build_model, solve_with_adapter
    for h in range(h, horizon + 1):  # from the rung the last slice left open
        check = witnessed and h == horizon
        if time.perf_counter() >= deadline:
            break
        model = build_model(comp, h, cfg.parts_mode)
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        try:
            sub = solve_with_adapter(model, cfg.adapter, remaining)
            if check and sub.status == "infeasible":
                raise AdapterFailure("solver reported infeasible on a "
                                     "horizon the heuristic witnesses")
        except SolverFault:
            if not witnessed:
                raise
            return _Answer("limit", nodes=nodes)
        if check and sub.status == "limit":
            break
        if sub.status != "infeasible" or h == horizon:
            return _Answer(sub.status, sub.makespan, sub.schedule, nodes)
    return (_Answer("optimal", horizon, nodes=nodes) if check
            else _Answer("limit", nodes=nodes))


def _exact_stage(inst, horizon, cfg: HopConfig, incumbent=None,
                 mode=None) -> SolveReport:
    """The configured backend's solve on `horizon`, one of the instance's
    `components` at a time, as the `mode` pipeline reports it; its stats
    are the whole model's size, and its caller times it.  An `incumbent`
    within the instance's root bound, which is the largest of its
    components', is optimal as it stands: no component is split off.

    Components go in descending root bound.  Each searches below the
    makespan of the `incumbent` restricted to it, its witness, or all of
    `horizon` without one, until an equal share of the time left
    among it and the later ones that may need a search: those with no
    piece, or one longer than the largest root bound.  One whose piece is
    within its root bound or the longest component so far is not searched;
    the oracle stops a later one at its first schedule within that length.
    The schedule is the `incumbent` when no component shortens the whole of
    it, and otherwise the merged pieces with fresh tuple ids; it is optimal
    when it meets the largest proven or root bound of the components.
    Only an unwitnessed component's `SolverFault` passes through it.
    """
    deadline = time.perf_counter() + cfg.time_limit_seconds
    stats = model_size(inst, horizon, cfg.parts_mode)
    if incumbent is not None:
        span = int(schedule_makespan(incumbent))
        if span <= root_bound(inst, cfg.parts_mode):
            return SolveReport(mode, "optimal", span, 0.0, wall_seconds=None,
                               stats=stats, schedule=incumbent)
    todo = sorted(((root_bound(c, cfg.parts_mode), c)
                   for c in components(inst)), key=lambda bc: -bc[0])
    witnesses = [None if incumbent is None else Schedule(
        [t for t in incumbent.tuples if t.heater in comp.heaters])
        for _, comp in todo]
    # the components that may still need a search: no witness fits within
    # the largest root bound, which the merged makespan never goes below
    may_search = [w is None or schedule_makespan(w) > todo[0][0]
                  for w in witnesses]
    tuples = []
    span = lower = nodes = 0
    stalled = False  # a backend that gave no answer at all
    for i, ((bound, comp), witness) in enumerate(zip(todo, witnesses)):
        comp_horizon = horizon if witness is None else int(
            schedule_makespan(witness))
        sub = None
        if witness is None or comp_horizon > max(span, bound):
            now = time.perf_counter()
            share = now + (deadline - now) / sum(may_search[i:])
            sub = _component_solve(comp, comp_horizon, cfg, share,
                                   witness is not None, span, bound)
        if sub is not None:
            nodes += sub.nodes
            stalled = stalled or sub.status == "limit"
            if sub.status == "optimal":
                bound = sub.makespan
        if sub is not None and sub.schedule is not None and (
                witness is None or sub.makespan < comp_horizon):
            piece = sub.schedule
        elif witness is not None:
            piece = witness
        else:
            return SolveReport(mode, "limit" if sub is None else sub.status,
                               None, None, wall_seconds=None, stats=stats,
                               nodes=nodes)
        tuples.extend(piece.tuples)
        lower = max(lower, bound)
        span = max(span, int(schedule_makespan(piece)))
    schedule = incumbent
    if incumbent is None or span < horizon:
        tuples.sort(key=lambda t: (t.heater, t.start))
        schedule = Schedule([replace(t, id=i) for i, t in enumerate(tuples, 1)])
    status, gap = "optimal", 0.0
    if span > lower:
        status, gap = "feasible", 100.0 * (span - lower) / span
        if stalled:
            status, gap = "limit", None
    return SolveReport(mode, status, span, gap, wall_seconds=None,
                       stats=stats, schedule=schedule, nodes=nodes)


def _solve_on(inst, horizon, cfg: HopConfig, mode, incumbent=None,
              heuristic_seconds=None):
    """(report, schedule) of `mode`: the exact stage on `horizon`, where an
    `incumbent` schedule of that makespan stands unless the stage beats
    it.  A horizon of 0 runs no stage: the incumbent, or the empty
    schedule, is optimal.  wall_seconds adds the heuristic's time to the
    solver's."""
    if horizon == 0:
        if incumbent is None:
            incumbent = Schedule(tuples=[])
        report = SolveReport(mode, "optimal", 0, 0.0, 0.0, schedule=incumbent,
                             solver_seconds=0.0)
    else:
        clock = time.perf_counter()
        report = _exact_stage(inst, horizon, cfg, incumbent, mode)
        if report.schedule is not None:
            check = validate_schedule(inst, report.schedule, cfg.parts_mode)
            if not check.ok:
                raise SolverFault("solver produced an invalid schedule: "
                                  + "; ".join(check.violations))
        report.solver_seconds = time.perf_counter() - clock
    report.heuristic_seconds = heuristic_seconds
    report.wall_seconds = (heuristic_seconds or 0.0) + report.solver_seconds
    return report, report.schedule


def run_hop(inst: Instance, cfg: HopConfig = None):
    """Heuristic, then an exact pass bounded by the heuristic makespan.

    Returns (report, schedule); the report's stats describe the model the
    exact phase worked on, and its heuristic/solver second fields record
    the two phases separately.
    """
    if cfg is None:
        cfg = HopConfig()
    clock = time.perf_counter()
    heur_schedule = run_heuristic(
        inst, cfg.heuristic or HeuristicConfig(parts_mode=cfg.parts_mode))
    heur_seconds = time.perf_counter() - clock
    return _solve_on(inst, int(schedule_makespan(heur_schedule)), cfg, "hop",
                     heur_schedule, heur_seconds)


def run_baseline_milp(inst: Instance, cfg: HopConfig = None):
    """Solve on the safe a-priori horizon bound, without heuristic help."""
    return _solve_on(inst, compute_thb(inst), cfg or HopConfig(), "milp")
