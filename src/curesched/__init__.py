"""curesched: lot sizing and scheduling of tire curing heaters.

Computes minimum-makespan curing schedules under mold, heater, and accessory
constraints, via a randomized multi-start heuristic, two exact solvers (an
internal branch and bound over per-period heater configurations, and any
conforming external solver fed the integer model as an LP file), and a
hybrid that uses the heuristic makespan to shrink the exact stage's planning
horizon.

The public names below load on first use (PEP 562), so importing one
module, such as the bundled solver command `curesched.lpsolve`, loads only
that module and what it imports itself.
"""

from importlib import import_module

# the module each public name lives in
_EXPORTS = {
    "domain": (
        "AssignmentTuple", "Instance", "Mold", "PairRecord", "Part",
        "PARTS_GLOBAL", "PARTS_PER_HEATER", "Schedule", "ValidationReport",
        "pair_table", "schedule_makespan", "validate_instance",
        "validate_schedule",
    ),
    "errors": (
        "AdapterFailure", "AdapterUnavailable", "CureschedError",
        "Infeasible", "InfeasibleAssignment", "NoFeasiblePlacement",
        "SolutionParseError", "SolverFault", "UnproduciblePair",
    ),
    "horizon": ("ModelStats", "compute_thb", "horizon_witness", "model_size",
                "pooled_molds"),
    "bounds": ("first_period_most", "mold_rate", "mold_rates",
               "residual_bound", "root_bound"),
    "heuristic": ("HeuristicConfig", "run_heuristic"),
    "milp": (
        "MilpModel", "build_model", "check_assignment", "emit_lp",
        "extract_schedule", "model_stats", "schedule_to_assignment",
        "solve_with_adapter",
    ),
    "lpformat": ("ParsedLp", "parse_lp"),
    "exact": ("SolveReport", "SolverAdapter", "TIME_LIMIT_SECONDS",
              "solve_exact"),
    "hop": ("HopConfig", "SOLVER_ADAPTER", "SOLVER_INTERNAL",
            "run_baseline_milp", "run_hop"),
    "gen": ("SCENARIOS", "ScenarioSpec", "generate_instance"),
    "bench": (
        "ResultRow", "cli_main", "instance_from_json", "instance_to_json",
        "load_instance", "load_schedule", "rows_to_csv", "rows_to_table",
        "run_benchmark", "save_instance", "save_schedule",
        "schedule_from_json", "schedule_to_json", "toy_instance",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    """A public name or a submodule, imported on first use."""
    module = _SOURCE.get(name, name)
    try:
        value = import_module(f".{module}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{module}":
            raise
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
