"""curesched: lot sizing and scheduling of tire curing heaters.

Computes minimum-makespan curing schedules under mold, heater, and accessory
constraints, via a randomized multi-start heuristic, two exact solvers (an
internal branch and bound over per-period heater configurations, and any
conforming external solver fed the integer model as an LP file), and a
hybrid that uses the heuristic makespan to shrink the exact stage's planning
horizon.
"""

from .domain import (
    AssignmentTuple,
    Instance,
    Mold,
    Part,
    PairSlot,
    PARTS_GLOBAL,
    PARTS_PER_HEATER,
    Schedule,
    ValidationReport,
    pair_slots,
    schedule_makespan,
    validate_instance,
    validate_schedule,
)
from .errors import (
    AdapterFailure,
    AdapterUnavailable,
    CureschedError,
    Infeasible,
    InfeasibleAssignment,
    NoFeasiblePlacement,
    SolutionParseError,
    UnproduciblePair,
)
from .horizon import compute_thb, horizon_witness, pooled_molds
from .heuristic import HeuristicConfig, run_heuristic
from .milp import (
    MilpModel,
    ModelStats,
    build_model,
    check_assignment,
    emit_lp,
    extract_schedule,
    model_size,
    model_stats,
    schedule_to_assignment,
)
from .lpformat import ParsedLp, parse_lp
from .exact import (
    SolveReport,
    SolverAdapter,
    solve_exact,
    solve_with_adapter,
)
from .hop import (
    HopConfig,
    SOLVER_ADAPTER,
    SOLVER_INTERNAL,
    run_baseline_milp,
    run_hop,
)
from .gen import SCENARIOS, ScenarioSpec, generate_instance
from .bench import (
    ResultRow,
    cli_main,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_schedule,
    rows_to_csv,
    rows_to_table,
    run_benchmark,
    save_instance,
    save_schedule,
    toy_instance,
)

__all__ = [
    "AssignmentTuple",
    "HeuristicConfig",
    "HopConfig",
    "Instance",
    "MilpModel",
    "ModelStats",
    "Mold",
    "ParsedLp",
    "PairSlot",
    "Part",
    "PARTS_GLOBAL",
    "PARTS_PER_HEATER",
    "ResultRow",
    "SCENARIOS",
    "ScenarioSpec",
    "Schedule",
    "SolveReport",
    "SolverAdapter",
    "SOLVER_ADAPTER",
    "SOLVER_INTERNAL",
    "ValidationReport",
    "AdapterFailure",
    "AdapterUnavailable",
    "CureschedError",
    "Infeasible",
    "InfeasibleAssignment",
    "NoFeasiblePlacement",
    "SolutionParseError",
    "UnproduciblePair",
    "build_model",
    "check_assignment",
    "cli_main",
    "compute_thb",
    "emit_lp",
    "extract_schedule",
    "generate_instance",
    "horizon_witness",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "load_schedule",
    "model_size",
    "model_stats",
    "pair_slots",
    "parse_lp",
    "pooled_molds",
    "rows_to_csv",
    "rows_to_table",
    "run_baseline_milp",
    "run_benchmark",
    "run_heuristic",
    "run_hop",
    "save_instance",
    "save_schedule",
    "schedule_makespan",
    "schedule_to_assignment",
    "solve_exact",
    "solve_with_adapter",
    "toy_instance",
    "validate_instance",
    "validate_schedule",
]

__version__ = "0.1.0"
