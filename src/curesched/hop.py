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
adapter, under the one time limit `HopConfig.time_limit_seconds`.  Either
way the stage's `SolveReport` is the pipeline's report, and its model size
comes from `model_size`.
"""

import time
from dataclasses import dataclass

from .domain import (
    Instance,
    PARTS_MODES,
    PARTS_PER_HEATER,
    Schedule,
    schedule_makespan,
    validate_schedule,
)
from .errors import (
    AdapterFailure,
    AdapterUnavailable,
    Infeasible,
    NoFeasiblePlacement,
    UnproduciblePair,
)
from .exact import SearchLimits, SolveReport, SolverAdapter, solve_exact, solve_with_adapter
from .heuristic import HeuristicConfig, run_heuristic
from .horizon import compute_thb
from .milp import build_model, model_size

SOLVER_INTERNAL = "internal-exact"
SOLVER_ADAPTER = "external-adapter"
SOLVERS = (SOLVER_INTERNAL, SOLVER_ADAPTER)

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
    time_limit_seconds: float = 3600.0
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


def _exact_stage(inst, horizon, cfg: HopConfig, incumbent=None) -> SolveReport:
    """The configured backend's solve on `horizon`; its stats are the size
    of the model on it.

    An adapter that is missing or fails ends the stage at "limit" with no
    schedule.  With an `incumbent` makespan, which a schedule on `horizon`
    witnesses, an adapter's "infeasible" is a solver fault and raises
    AdapterFailure.
    """
    stats = model_size(inst, horizon, cfg.parts_mode)
    if cfg.solver == SOLVER_INTERNAL:
        limits = SearchLimits(time_limit_seconds=cfg.time_limit_seconds)
        sub = solve_exact(inst, horizon, limits, cfg.parts_mode,
                          incumbent_makespan=incumbent)
    else:
        model = build_model(inst, horizon, cfg.parts_mode)
        try:
            sub = solve_with_adapter(model, cfg.adapter,
                                     cfg.time_limit_seconds)
        except (AdapterUnavailable, AdapterFailure):
            sub = SolveReport("adapter", "limit", None, None, 0.0,
                              horizon=horizon)
        if incumbent is not None and sub.status == "infeasible":
            raise AdapterFailure(
                "solver reported infeasible on a horizon the heuristic "
                "schedule already witnesses")
    sub.stats = stats
    return sub


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
        report = _exact_stage(inst, horizon, cfg,
                              None if incumbent is None else horizon)
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
    if heur_schedule.sentinel:
        raise Infeasible("heuristic produced no candidate schedule")
    heur_seconds = time.perf_counter() - clock
    return _solve_on(inst, int(schedule_makespan(heur_schedule)), cfg, "hop",
                     heur_schedule, heur_seconds)


def run_baseline_milp(inst: Instance, cfg: HopConfig = None):
    """Solve on the safe a-priori horizon bound, without heuristic help."""
    return _solve_on(inst, compute_thb(inst), cfg or HopConfig(), "milp")
