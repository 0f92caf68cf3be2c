"""Hybrid solve pipeline: heuristic first, exact second, on the
heuristic's own horizon.

The randomized constructive heuristic produces a feasible schedule, and
its makespan becomes the horizon for the exact phase, so the model the
solver sees is only as large as the best known schedule requires.  The
pipeline returns the better of the two phases; the heuristic schedule
witnesses feasibility at that horizon, so it never comes back
empty-handed.  `run_baseline_milp` is the reference point: the same
solve phase, but on the safe a-priori horizon bound instead.

Only the external adapter solves the MILP, so only its branch builds one;
with the internal search the reported size comes from `model_size` and
no MILP is built.
"""

import time
from dataclasses import dataclass, replace

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
from .milp import build_model, model_size, model_stats

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
    """Settings for the hybrid pipeline and its baseline counterpart."""

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


def _heuristic_config(cfg: HopConfig) -> HeuristicConfig:
    if cfg.heuristic is not None:
        return cfg.heuristic
    return HeuristicConfig(parts_mode=cfg.parts_mode)


def _effective_adapter(cfg: HopConfig) -> SolverAdapter:
    adapter = cfg.adapter
    if adapter is not None and adapter.time_limit_seconds is None:
        adapter = replace(adapter, time_limit_seconds=cfg.time_limit_seconds)
    return adapter


def _model_for(inst, horizon, cfg: HopConfig):
    """(model, stats) on `horizon`: the adapter gets a built model, the
    internal search none, with its size in closed form."""
    if cfg.solver == SOLVER_INTERNAL:
        return None, model_size(inst, horizon, cfg.parts_mode)
    model = build_model(inst, horizon, cfg.parts_mode)
    return model, model_stats(model)


def _checked(inst, schedule, parts_mode) -> Schedule:
    report = validate_schedule(inst, schedule, parts_mode)
    if not report.ok:
        raise Infeasible("solver produced an invalid schedule: "
                         + "; ".join(report.violations))
    return schedule


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
    horizon = int(schedule_makespan(heur_schedule))

    if horizon == 0:
        report = SolveReport("hop", "optimal", 0, 0.0, heur_seconds,
                             schedule=heur_schedule,
                             heuristic_seconds=heur_seconds,
                             solver_seconds=0.0)
        return report, heur_schedule

    model, stats = _model_for(inst, horizon, cfg)
    solve_clock = time.perf_counter()

    if cfg.solver == SOLVER_INTERNAL:
        limits = SearchLimits(time_limit_seconds=cfg.time_limit_seconds)
        sub = solve_exact(inst, horizon, limits, cfg.parts_mode,
                          incumbent_makespan=horizon)
        solver_seconds = time.perf_counter() - solve_clock
        if sub.makespan is not None and sub.makespan < horizon \
                and sub.schedule is not None:
            best_makespan, best_schedule = sub.makespan, sub.schedule
        else:
            best_makespan, best_schedule = horizon, heur_schedule
        status, gap = sub.status, sub.gap_percent
    else:
        try:
            sub = solve_with_adapter(model, _effective_adapter(cfg))
        except (AdapterUnavailable, AdapterFailure):
            solver_seconds = time.perf_counter() - solve_clock
            report = SolveReport("hop", "limit", horizon, None,
                                 heur_seconds + solver_seconds, stats=stats,
                                 schedule=heur_schedule,
                                 heuristic_seconds=heur_seconds,
                                 solver_seconds=solver_seconds)
            return report, heur_schedule
        solver_seconds = time.perf_counter() - solve_clock
        if sub.status == "infeasible":
            raise AdapterFailure(
                "solver reported infeasible on a horizon the heuristic "
                "schedule already witnesses")
        if sub.status == "optimal" and sub.makespan < horizon:
            best_makespan, best_schedule = sub.makespan, sub.schedule
            status, gap = "optimal", 0.0
        elif sub.status == "optimal":
            best_makespan, best_schedule = horizon, heur_schedule
            status, gap = "optimal", 0.0
        else:  # timed out; the heuristic incumbent stands
            best_makespan, best_schedule = horizon, heur_schedule
            status, gap = "limit", None

    best_schedule = _checked(inst, best_schedule, cfg.parts_mode)
    report = SolveReport("hop", status, best_makespan, gap,
                         heur_seconds + solver_seconds, stats=stats,
                         schedule=best_schedule,
                         heuristic_seconds=heur_seconds,
                         solver_seconds=solver_seconds)
    return report, best_schedule


def run_baseline_milp(inst: Instance, cfg: HopConfig = None):
    """Solve on the safe a-priori horizon bound, without heuristic help."""
    if cfg is None:
        cfg = HopConfig()
    if inst.total_demand == 0:
        empty = Schedule(tuples=[])
        return SolveReport("milp", "optimal", 0, 0.0, 0.0, schedule=empty,
                           solver_seconds=0.0), empty

    horizon = compute_thb(inst)
    model, stats = _model_for(inst, horizon, cfg)
    clock = time.perf_counter()

    if cfg.solver == SOLVER_INTERNAL:
        limits = SearchLimits(time_limit_seconds=cfg.time_limit_seconds)
        sub = solve_exact(inst, horizon, limits, cfg.parts_mode)
    else:
        try:
            sub = solve_with_adapter(model, _effective_adapter(cfg))
        except (AdapterUnavailable, AdapterFailure):
            wall = time.perf_counter() - clock
            return SolveReport("milp", "limit", None, None, wall, stats=stats,
                               solver_seconds=wall), None
    wall = time.perf_counter() - clock

    schedule = sub.schedule
    if schedule is not None:
        schedule = _checked(inst, schedule, cfg.parts_mode)
    report = SolveReport("milp", sub.status, sub.makespan, sub.gap_percent,
                         wall, stats=stats, schedule=schedule,
                         solver_seconds=wall)
    return report, schedule
