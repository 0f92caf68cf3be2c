"""Hybrid solve pipeline: heuristic first, exact second, on the
heuristic's own horizon.

The randomized constructive heuristic produces a feasible schedule, and
its makespan becomes the horizon for the exact phase, so the model the
solver sees is only as large as the best known schedule requires.  The
pipeline returns the better of the two phases; the heuristic schedule
witnesses feasibility at that horizon, so it never comes back
empty-handed.  `run_baseline_milp` is the reference point: the same
solve phase, but on the safe a-priori horizon bound instead.

Both pipelines share one body, `_solve_on`, around one exact stage,
`_exact_stage`: the internal search, or a built MILP for the external
adapter, under the one time limit `HopConfig.time_limit_seconds`.  The
stage solves the instance's independent `components` apart, each on the
makespan the heuristic schedule needs for it, since the whole makespan is
only the largest of theirs: the most constrained component sets the
length the others merely have to fit.  A component the heuristic already
closes, at its root bound or within that length, is not searched; the
adapter solves any other one on horizons climbing from its root bound.
The internal search gets a short slice on each horizon first: one it
refutes starts no solver child.  Once it has refuted every shorter
horizon, a schedule it finds is optimal without a child, and so is the
heuristic's own makespan when the climb reaches it.  Only a horizon the
slice leaves open goes to solver children.
Either way the stage's `SolveReport` is the pipeline's report, and its
model size is the `model_size` of the whole instance on the horizon.
"""

import time
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
from .errors import (
    AdapterFailure,
    AdapterUnavailable,
    Infeasible,
    NoFeasiblePlacement,
    SolutionParseError,
    UnproduciblePair,
)
from .bounds import root_bound
from .exact import (
    TIME_LIMIT_SECONDS,
    SolveReport,
    SolverAdapter,
    solve_exact,
    solve_with_adapter,
)
from .heuristic import HeuristicConfig, run_heuristic
from .horizon import compute_thb
from .milp import build_model, model_size

SOLVER_INTERNAL = "internal-exact"
SOLVER_ADAPTER = "external-adapter"
SOLVERS = (SOLVER_INTERNAL, SOLVER_ADAPTER)
# the oracle's time on one adapter ladder rung before a solver child runs it
_REFUTE_S = 0.1

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
        if self.time_limit_seconds <= 0:
            raise ValueError("time_limit_seconds must be positive")
        if self.parts_mode not in PARTS_MODES:
            raise ValueError(f"unknown parts mode {self.parts_mode!r}")
        if (self.heuristic is not None
                and self.heuristic.parts_mode != self.parts_mode):
            raise ValueError("heuristic parts_mode disagrees with pipeline")
        if self.solver == SOLVER_ADAPTER and self.adapter is None:
            raise ValueError("the external-adapter solver needs an adapter")


def _heuristic_config(cfg: HopConfig) -> HeuristicConfig:
    if cfg.heuristic is not None:
        return cfg.heuristic
    return HeuristicConfig(parts_mode=cfg.parts_mode)


def _component_solve(comp, horizon, cfg: HopConfig, deadline, witnessed,
                     floor, bound):
    """The configured backend's solve of one component on `horizon`, or
    None when the deadline has passed.  The oracle takes a `witnessed`
    horizon as its incumbent makespan and `floor` as its good-enough one.

    The adapter ladder climbs the horizons from the component's root
    `bound` up to `horizon` and returns the first answer that is not
    "infeasible": every shorter horizon was, so that answer is optimal.
    Each rung first gets a `_REFUTE_S` slice of the oracle, asked for any
    schedule within it.  A rung it refutes is skipped without a model or a
    solver child.  A schedule it finds is the answer, and so is its
    refutation of an unwitnessed `horizon`; a `witnessed` horizon reached
    this way is optimal without a search, its incumbent standing.  The
    first slice that settles nothing hands this rung and the rest to
    solver children, so the oracle costs at most one slice more than its
    proofs, whose nodes the answer counts.  An adapter that is missing or
    fails ends at "limit", and so does one that writes a malformed
    solution on a `witnessed` horizon, whose incumbent then stands;
    without a witness that fault propagates."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        return None
    if cfg.solver == SOLVER_INTERNAL:
        return solve_exact(comp, horizon, cfg.parts_mode,
                           incumbent_makespan=horizon if witnessed else None,
                           floor=floor, time_limit_seconds=remaining)
    refuting, nodes = True, 0
    for h in range(min(bound, horizon), horizon + 1):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        # while every shorter rung is refuted, the first answer is optimal
        if refuting and witnessed and h == horizon:
            return SolveReport("adapter", "optimal", h, 0.0, 0.0, nodes=nodes,
                               horizon=h)
        if refuting:
            proof = solve_exact(comp, h, cfg.parts_mode, floor=h,
                                time_limit_seconds=min(_REFUTE_S, remaining))
            nodes += proof.nodes
            if proof.status == "infeasible" and h < horizon:
                continue
            if proof.schedule is not None:
                proof.status, proof.gap_percent = "optimal", 0.0
            if proof.status in ("optimal", "infeasible"):
                proof.mode, proof.nodes = "adapter", nodes
                return proof
            refuting = False
        model = build_model(comp, h, cfg.parts_mode)
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            break
        try:
            sub = solve_with_adapter(model, cfg.adapter, remaining)
        except (AdapterUnavailable, AdapterFailure):
            break
        except SolutionParseError:
            if not witnessed:
                raise
            break
        if sub.status != "infeasible" or h == horizon:
            sub.nodes += nodes
            return sub
    return SolveReport("adapter", "limit", None, None, 0.0, nodes=nodes,
                       horizon=horizon)


def _exact_stage(inst, horizon, cfg: HopConfig, incumbent=None) -> SolveReport:
    """The configured backend's solve on `horizon`, one of the instance's
    `components` at a time; its stats are the whole model's size.

    Components go in descending root bound under one deadline.  Each
    searches the makespan of the `incumbent` schedule restricted to it,
    with that schedule as its incumbent, or all of `horizon` without one.
    One whose restricted schedule is already within its root bound or the
    longest component so far is not searched: that schedule is optimal, or
    fits.  The oracle stops a later one at its first schedule within that
    length.  The merged schedule has fresh tuple ids; it is optimal when it
    meets the largest proven or root bound of the components.

    An adapter's "infeasible" on a component the incumbent witnesses is a
    solver fault and raises AdapterFailure.
    """
    clock = time.perf_counter()
    deadline = clock + cfg.time_limit_seconds
    backend = "exact" if cfg.solver == SOLVER_INTERNAL else "adapter"
    stats = model_size(inst, horizon, cfg.parts_mode)
    todo = sorted(((root_bound(c, cfg.parts_mode), c)
                   for c in components(inst)), key=lambda bc: -bc[0])
    tuples = []
    span = lower = nodes = 0
    stalled = False  # a backend that gave no answer at all
    for bound, comp in todo:
        witness, comp_horizon = None, horizon
        if incumbent is not None:
            witness = Schedule([t for t in incumbent.tuples
                                if t.heater in comp.heaters])
            comp_horizon = int(schedule_makespan(witness))
        sub = None
        if witness is None or comp_horizon > max(span, bound):
            sub = _component_solve(comp, comp_horizon, cfg, deadline,
                                   witness is not None, span, bound)
        if sub is not None:
            nodes += sub.nodes
            stalled = stalled or sub.status == "limit"
            if sub.status == "infeasible" and witness is not None:
                raise AdapterFailure(
                    "solver reported infeasible on a horizon the heuristic "
                    "schedule already witnesses")
            if sub.status == "optimal":
                bound = sub.makespan
        if sub is not None and sub.schedule is not None and (
                witness is None or sub.makespan < comp_horizon):
            piece = sub.schedule
        elif witness is not None:
            piece = witness
        else:
            return SolveReport(backend, "limit" if sub is None else sub.status,
                               None, None, time.perf_counter() - clock,
                               stats=stats, nodes=nodes, horizon=horizon)
        tuples.extend(piece.tuples)
        lower = max(lower, bound)
        span = max(span, int(schedule_makespan(piece)))
    tuples.sort(key=lambda t: (t.heater, t.start))
    schedule = Schedule([replace(t, id=i) for i, t in enumerate(tuples, 1)])
    status, gap = "optimal", 0.0
    if span > lower:
        status, gap = "feasible", 100.0 * (span - lower) / span
        if stalled:
            status, gap = "limit", None
    return SolveReport(backend, status, span, gap, time.perf_counter() - clock,
                       stats=stats, schedule=schedule, nodes=nodes,
                       horizon=horizon)


def _checked(inst, schedule, parts_mode) -> Schedule:
    report = validate_schedule(inst, schedule, parts_mode)
    if not report.ok:
        raise Infeasible("solver produced an invalid schedule: "
                         + "; ".join(report.violations))
    return schedule


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
        report = _exact_stage(inst, horizon, cfg, incumbent)
        if incumbent is not None and (report.schedule is None
                                      or report.makespan >= horizon):
            report.makespan, report.schedule = horizon, incumbent
        if report.schedule is not None:
            _checked(inst, report.schedule, cfg.parts_mode)
        report.solver_seconds = time.perf_counter() - clock
    report.mode = mode
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
    try:
        heur_schedule = run_heuristic(inst, _heuristic_config(cfg))
    except (UnproduciblePair, NoFeasiblePlacement) as exc:
        raise Infeasible(f"heuristic found no feasible schedule: {exc}") from exc
    heur_seconds = time.perf_counter() - clock
    return _solve_on(inst, int(schedule_makespan(heur_schedule)), cfg, "hop",
                     heur_schedule, heur_seconds)


def run_baseline_milp(inst: Instance, cfg: HopConfig = None):
    """Solve on the safe a-priori horizon bound, without heuristic help."""
    return _solve_on(inst, compute_thb(inst), cfg or HopConfig(), "milp")
