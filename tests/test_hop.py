"""Hybrid pipeline: heuristic makespan becomes the exact phase's horizon.

Frozen oracle values:
  toy1: heuristic lands on 2 (one pool pair, no split available), the
      exact phase at a 2-period horizon finds 1, so the hybrid returns 1.
  toy2: heuristic 2 and 2 is optimal, so the hybrid confirms 2.
  single_mold_big(4, 2): heuristic 10; the safe horizon bound is larger,
      so the hybrid's model must be strictly smaller than the baseline's.
"""

import inspect
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import curesched
import curesched.bounds

import curesched.domain
import curesched.exact
import curesched.hop
import curesched.lpsolve
import curesched.milp

from curesched.bounds import root_bound
from curesched.domain import (
    Mold,
    PARTS_GLOBAL,
    PARTS_PER_HEATER,
    components,
    schedule_makespan,
    validate_schedule,
)
from curesched.errors import (
    AdapterFailure,
    AdapterUnavailable,
    CureschedError,
    Infeasible,
    InfeasibleAssignment,
    NoFeasiblePlacement,
    SolutionParseError,
    SolverFault,
    UnproduciblePair,
)
from curesched.exact import (
    TIME_LIMIT_SECONDS,
    SolveReport,
    SolverAdapter,
    solve_exact,
)
from curesched.gen import SCENARIOS, generate_instance
from curesched.heuristic import HeuristicConfig, run_heuristic
from curesched.hop import (
    SOLVER_ADAPTER,
    SOLVER_INTERNAL,
    HopConfig,
    run_baseline_milp,
    run_hop,
)
from curesched.horizon import compute_thb, horizon_witness, model_size
from curesched.milp import (
    build_model,
    model_stats,
    schedule_to_assignment,
)

from helpers import (
    garbage_solver,
    reference_pair_slots,
    single_mold_big,
    tiny_instance,
    toy1,
    toy1_two_heaters,
    toy2,
    two_removals,
    variant,
)

STUB = (sys.executable, "-m", "curesched.lpsolve")
FAST = HeuristicConfig(total_iterations=20, seed=1)


def zero_demand():
    return variant(
        toy1(),
        molds=tuple(Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin, 0)
                    for m in toy1().molds),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        HopConfig(time_limit_seconds=0)
    with pytest.raises(ValueError):
        HopConfig(time_limit_seconds=math.nan)
    with pytest.raises(ValueError):
        HopConfig(solver="telepathy")
    with pytest.raises(ValueError):
        HopConfig(heuristic=HeuristicConfig(parts_mode=PARTS_GLOBAL),
                  parts_mode=PARTS_PER_HEATER)
    with pytest.raises(ValueError):
        HopConfig(solver=SOLVER_ADAPTER)
    with pytest.raises(ValueError, match="unknown parts mode"):
        HopConfig(parts_mode="banana")
    # the internal oracle would ignore it
    with pytest.raises(ValueError, match="only with it"):
        HopConfig(solver=SOLVER_INTERNAL, adapter=SolverAdapter(command=STUB))


def test_hop_toy1_improves_on_heuristic():
    report, schedule = run_hop(toy1(), HopConfig(heuristic=FAST))
    assert report.mode == "hop"
    assert (report.status, report.makespan) == ("optimal", 1)
    assert report.gap_percent == 0.0
    assert schedule_makespan(schedule) == 1
    assert validate_schedule(toy1(), schedule).ok
    # the exact phase ran on the heuristic's 2-period horizon
    assert report.stats.thb == 2
    assert report.heuristic_seconds is not None
    assert report.solver_seconds is not None
    assert report.wall_seconds == report.heuristic_seconds + report.solver_seconds


def test_hop_toy2_confirms_heuristic():
    report, schedule = run_hop(toy2(), HopConfig(heuristic=FAST))
    assert (report.status, report.makespan) == ("optimal", 2)
    assert schedule_makespan(schedule) == 2
    assert validate_schedule(toy2(), schedule).ok
    assert report.stats.thb == 2


def test_hop_zero_demand_skips_solver():
    report, schedule = run_hop(zero_demand(), HopConfig(heuristic=FAST))
    assert (report.status, report.makespan) == ("optimal", 0)
    assert schedule.tuples == []
    assert report.stats is None
    assert report.solver_seconds == 0.0


def test_hop_without_a_heuristic_schedule_is_infeasible():
    # seed 0's only start cannot place its tuples, and neither can the
    # safe horizon's serial schedule
    cfg = HopConfig(heuristic=HeuristicConfig(total_iterations=1, seed=0))
    with pytest.raises(Infeasible, match="no start placed every tuple"):
        run_hop(two_removals(), cfg)


def _without_mold_1_on_heater_1(base, tv):
    return variant(base, curing={**base.curing, (1, 1): tv})


# every public entry point that reads cure times
_ENTRY_POINTS = {
    "run_heuristic": lambda inst: schedule_makespan(run_heuristic(
        inst, HeuristicConfig(total_iterations=20, seed=1))),
    "run_hop": lambda inst: run_hop(inst, HopConfig(
        time_limit_seconds=5))[0].makespan,
    "run_baseline_milp": lambda inst: run_baseline_milp(inst, HopConfig(
        time_limit_seconds=5))[0].makespan,
    "compute_thb": compute_thb,
    "root_bound": lambda inst: root_bound(inst, PARTS_PER_HEATER),
}


@pytest.mark.parametrize("tv", [0, -5])
@pytest.mark.parametrize("call", sorted(_ENTRY_POINTS))
def test_a_cure_time_of_zero_or_less_cannot_run_there(call, tv):
    """A cure time <= 0 is no heater for its mold, as in `pair_slots`.
    Mold 1 has no other heater in toy1, so nothing cures it: a
    `CureschedError`, or an infinite root bound.  In toy1_two_heaters
    heater 2 cures it, and each entry point solves around heater 1."""
    lone = _without_mold_1_on_heater_1(toy1(), tv)
    try:
        assert _ENTRY_POINTS[call](lone) == math.inf
    except CureschedError:
        assert call != "root_bound"
    spare = _without_mold_1_on_heater_1(toy1_two_heaters(), tv)
    assert _ENTRY_POINTS[call](spare) == (2 if call == "compute_thb" else 1)


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
@pytest.mark.parametrize("call", ["run_heuristic", "run_hop"])
def test_a_demanded_mold_on_a_part_with_no_units_is_unproducible(call, mode):
    # the root bound is inf, which no start may be taken to meet; the safe
    # horizon's serial schedule ignores part units, so it is no answer here
    inst = variant(toy2(), parts=(curesched.domain.Part(1, 0, {1, 2}),))
    heuristic = HeuristicConfig(total_iterations=20, seed=1, parts_mode=mode)
    assert root_bound(inst, mode) == math.inf
    with pytest.raises(UnproduciblePair, match=r"molds \[1, 2\]"):
        if call == "run_heuristic":
            run_heuristic(inst, heuristic)
        else:
            run_hop(inst, HopConfig(heuristic=heuristic, parts_mode=mode))


def test_hop_never_worse_than_heuristic():
    for seed in range(6):
        inst = tiny_instance(400 + seed)
        cfg = HeuristicConfig(total_iterations=30, seed=seed)
        mh = schedule_makespan(run_heuristic(inst, cfg))
        report, schedule = run_hop(inst, HopConfig(heuristic=cfg))
        assert report.makespan <= mh, inst.name
        assert validate_schedule(inst, schedule).ok, inst.name
        expected = solve_exact(inst, compute_thb(inst)).makespan
        assert report.status == "optimal", inst.name
        assert report.makespan == expected, inst.name


def test_hop_model_smaller_than_baseline():
    inst = single_mold_big(copies=4, heaters=2)
    hop_report, _ = run_hop(inst, HopConfig(heuristic=FAST))
    base_report, _ = run_baseline_milp(inst, HopConfig(heuristic=FAST))
    assert hop_report.stats.thb < base_report.stats.thb
    assert hop_report.stats.n_constraints < base_report.stats.n_constraints
    assert hop_report.stats.n_binary_vars < base_report.stats.n_binary_vars
    assert hop_report.makespan == base_report.makespan == 10


def test_hop_adapter_solver():
    cfg = HopConfig(heuristic=FAST, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=STUB))
    report, schedule = run_hop(toy1(), cfg)
    assert (report.status, report.makespan) == ("optimal", 1)
    assert validate_schedule(toy1(), schedule).ok


def test_hop_adapter_unavailable_falls_back_to_heuristic(oracle_declines):
    cfg = HopConfig(heuristic=FAST, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=("/nonexistent/solver",)))
    report, schedule = run_hop(toy1(), cfg)
    assert report.status == "limit"
    assert report.makespan == 2
    assert report.gap_percent is None
    assert validate_schedule(toy1(), schedule).ok


def test_baseline_toy_models():
    report, schedule = run_baseline_milp(toy1(), HopConfig(heuristic=FAST))
    assert report.mode == "milp"
    assert (report.status, report.makespan) == ("optimal", 1)
    assert report.stats.thb == compute_thb(toy1())
    assert validate_schedule(toy1(), schedule).ok

    report2, _ = run_baseline_milp(toy2(), HopConfig(heuristic=FAST))
    assert (report2.status, report2.makespan) == ("optimal", 2)


def test_baseline_zero_demand():
    report, schedule = run_baseline_milp(zero_demand(), HopConfig(heuristic=FAST))
    assert (report.status, report.makespan) == ("optimal", 0)
    assert schedule.tuples == []


def test_baseline_adapter_matches_internal():
    cfg = HopConfig(heuristic=FAST, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=STUB))
    report, schedule = run_baseline_milp(toy1(), cfg)
    assert (report.status, report.makespan) == ("optimal", 1)
    assert validate_schedule(toy1(), schedule).ok


def test_hop_global_parts_mode():
    cfg = HopConfig(heuristic=HeuristicConfig(total_iterations=20, seed=1,
                                              parts_mode=PARTS_GLOBAL),
                    parts_mode=PARTS_GLOBAL)
    report, schedule = run_hop(toy2(), cfg)
    assert (report.status, report.makespan) == ("optimal", 2)
    assert validate_schedule(toy2(), schedule, PARTS_GLOBAL).ok


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_internal_solver_builds_no_model(monkeypatch, mode):
    def no_build(*args, **kwargs):
        raise AssertionError("the internal solver needs no MILP")

    monkeypatch.setattr(curesched.milp, "build_model", no_build)
    cfg = HopConfig(heuristic=HeuristicConfig(total_iterations=20, seed=1,
                                              parts_mode=mode),
                    solver=SOLVER_INTERNAL, parts_mode=mode)
    for inst, hop_thb in ((toy1(), 2), (toy2(), 2)):
        for run, thb in ((run_hop, hop_thb),
                         (run_baseline_milp, compute_thb(inst))):
            report, schedule = run(inst, cfg)
            assert validate_schedule(inst, schedule, mode).ok
            assert report.stats == model_stats(build_model(inst, thb, mode))


BACKENDS = {
    SOLVER_INTERNAL: {},
    SOLVER_ADAPTER: {"adapter": SolverAdapter(command=STUB)},
}


@pytest.mark.parametrize("run", (run_hop, run_baseline_milp))
@pytest.mark.parametrize("make", (toy1, toy2,
                                  lambda: single_mold_big(copies=4, heaters=2)),
                         ids=("toy1", "toy2", "single_mold_big"))
def test_backends_agree(run, make):
    inst = make()
    outcomes = {}
    for solver, extra in BACKENDS.items():
        report, schedule = run(inst, HopConfig(heuristic=FAST, solver=solver,
                                               **extra))
        assert validate_schedule(inst, schedule).ok, solver
        outcomes[solver] = (report.status, report.makespan,
                            report.gap_percent, report.stats)
    assert outcomes[SOLVER_INTERNAL] == outcomes[SOLVER_ADAPTER]


def test_unavailable_command_is_a_limit_in_hop_and_a_fault_in_milp(
        oracle_declines):
    """A missing solver keeps `hop`'s incumbent at "limit"; with no
    incumbent to keep, `milp` raises the fault."""
    cfg = HopConfig(heuristic=FAST, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=("/nonexistent/solver",)))
    hop_report, hop_schedule = run_hop(toy1(), cfg)
    assert (hop_report.status, hop_report.makespan) == ("limit", 2)
    assert hop_schedule is not None
    with pytest.raises(AdapterUnavailable):
        run_baseline_milp(toy1(), cfg)


def test_milp_out_of_time_before_any_schedule_is_a_limit_without_one():
    """`milp` has no heuristic incumbent to fall back on: when its time runs
    out before the exact stage holds a schedule, the run ends at "limit"
    with no makespan and no schedule.  A microsecond runs out before M05's
    first component starts its search, however fast the machine."""
    inst = generate_instance(SCENARIOS["medium"], 5)
    report, schedule = run_baseline_milp(inst,
                                         HopConfig(time_limit_seconds=1e-6))
    assert (report.status, report.makespan, report.gap_percent) == (
        "limit", None, None)
    assert report.schedule is None and schedule is None
    assert report.stats.thb == compute_thb(inst)


def test_solver_time_counts_the_model_build(monkeypatch, oracle_declines):
    """The adapter's model build is part of the exact stage's time; a fake
    clock that only moves during the build shows it without sleeping."""
    now = [0.0]

    class FakeTime:
        @staticmethod
        def perf_counter():
            return now[0]

    real_build = curesched.milp.build_model

    def slow_build(*args, **kwargs):
        now[0] += 100.0
        return real_build(*args, **kwargs)

    monkeypatch.setattr(curesched.hop, "time", FakeTime)
    monkeypatch.setattr(curesched.milp, "build_model", slow_build)
    cfg = HopConfig(heuristic=FAST, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=STUB))
    report, _ = run_hop(toy1(), cfg)
    assert report.solver_seconds >= 100
    assert report.wall_seconds == report.heuristic_seconds + report.solver_seconds
    report, _ = run_baseline_milp(toy1(), cfg)
    assert report.wall_seconds >= 100


@pytest.mark.parametrize("run", [run_hop, run_baseline_milp])
def test_adapter_builds_no_model_after_a_slice_spends_the_time(monkeypatch,
                                                               run):
    """A slice that settles nothing and ends at the deadline leaves no time
    for a solver child, so no model is built.  A fake clock that moves only
    by each slice's whole limit shows it without sleeping: toy1's slice
    gets the whole 0.1 s, and the run ends at "limit"."""
    now = [0.0]
    built = []

    class FakeTime:
        @staticmethod
        def perf_counter():
            return now[0]

    def spends_its_slice(inst, thb, parts_mode, floor, time_limit_seconds):
        now[0] += time_limit_seconds
        return SolveReport("exact", "limit", None, None, time_limit_seconds)

    monkeypatch.setattr(curesched.hop, "time", FakeTime)
    monkeypatch.setattr(curesched.hop, "solve_exact", spends_its_slice)
    monkeypatch.setattr(curesched.milp, "build_model",
                        lambda *args: built.append(args))
    cfg = HopConfig(heuristic=FAST, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=STUB),
                    time_limit_seconds=0.1)
    report, _ = run(toy1(), cfg)
    assert report.status == "limit"
    assert built == []


def test_adapter_starts_no_child_after_a_build_spends_the_time(monkeypatch):
    """A model build that ends at the deadline leaves no time for a solver
    child, so the ladder stops and hop's witness stands at "limit".  A fake
    clock that moves only during the build shows it without sleeping: toy1's
    slice settles nothing, and its rung's build takes the whole 0.1 s."""
    now = [0.0]
    built = []

    class FakeTime:
        @staticmethod
        def perf_counter():
            return now[0]

    def settles_nothing(inst, thb, parts_mode, floor, time_limit_seconds):
        return SolveReport("exact", "limit", None, None, 0.0)

    def spends_the_rest(*args):
        now[0] += 0.1
        built.append(args)

    def never(*args, **kwargs):
        raise AssertionError("a solver child started after the deadline")

    monkeypatch.setattr(curesched.hop, "time", FakeTime)
    monkeypatch.setattr(curesched.hop, "solve_exact", settles_nothing)
    monkeypatch.setattr(curesched.milp, "build_model", spends_the_rest)
    monkeypatch.setattr(curesched.milp, "solve_with_adapter", never)
    cfg = HopConfig(heuristic=FAST, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=STUB),
                    time_limit_seconds=0.1)
    report, schedule = run_hop(toy1(), cfg)
    assert (report.status, report.makespan, report.gap_percent) == (
        "limit", 2, None)
    assert len(built) == 1
    assert validate_schedule(toy1(), schedule).ok


def test_time_limit_defaults_agree():
    default = inspect.signature(solve_exact).parameters["time_limit_seconds"]
    assert TIME_LIMIT_SECONDS == 3600.0
    assert HopConfig().time_limit_seconds == TIME_LIMIT_SECONDS
    assert default.default == TIME_LIMIT_SECONDS


def test_adapter_infeasible_on_a_witnessed_horizon_is_a_fault(
        oracle_declines):
    """A solver that calls the heuristic's own horizon infeasible is at
    fault, as a failing one is: hop keeps its witness at the limit."""
    never = SolverAdapter(command=(sys.executable, "-c",
                                   "import sys; sys.exit(10)"))
    cfg = HopConfig(heuristic=FAST, solver=SOLVER_ADAPTER, adapter=never)
    report, schedule = run_hop(toy1(), cfg)
    assert (report.status, report.makespan, report.gap_percent) == (
        "limit", 2, None)
    assert validate_schedule(toy1(), schedule).ok


@pytest.mark.parametrize("error, family", [
    (AdapterUnavailable, SolverFault), (AdapterFailure, SolverFault),
    (SolutionParseError, SolverFault), (InfeasibleAssignment, SolverFault),
    (UnproduciblePair, Infeasible), (NoFeasiblePlacement, Infeasible),
])
def test_each_error_belongs_to_one_family(error, family):
    """A backend fault and a finding of no schedule are caught by one base
    name each, and neither base catches the other's errors."""
    other = Infeasible if family is SolverFault else SolverFault
    exc = error(["a violation"])
    assert isinstance(exc, family) and not isinstance(exc, other)


# ── independent components in the exact stage ──────────────────────────

# Proven by HiGHS on the whole instance; the internal oracle agrees.
SMALL_OPTIMA = (2, 6, 3, 3, 6, 4, 8, 3, 7, 2, 6, 5, 11, 2, 3)
SMALL_HEURISTIC = HeuristicConfig(total_iterations=100, seed=1)


def small(seed):
    return generate_instance(SCENARIOS["small"], seed)


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_component_stage_agrees_with_whole_search(mode):
    for seed in range(1000, 1200):
        inst = tiny_instance(seed)
        thb = compute_thb(inst)
        whole = solve_exact(inst, thb, parts_mode=mode)
        report, schedule = run_baseline_milp(inst, HopConfig(parts_mode=mode))
        assert (report.status, report.makespan) == (
            whole.status, whole.makespan), inst.name
        if schedule is not None:
            assert validate_schedule(inst, schedule, mode).ok, inst.name


def test_milp_shares_the_deadline_between_components(monkeypatch):
    """Each component gets an equal share of the time left, so one that
    spends all of its share leaves the next its own.  A fake clock that
    moves only by each search's whole limit shows it without sleeping:
    S11's two components get 5 s each of 10 s, and the merged schedule
    stands."""
    now = [0.0]
    limits = []

    class FakeTime:
        @staticmethod
        def perf_counter():
            return now[0]

    real = curesched.hop.solve_exact

    def spends_its_time(*args, time_limit_seconds, **kwargs):
        limits.append(time_limit_seconds)
        report = real(*args, time_limit_seconds=time_limit_seconds, **kwargs)
        now[0] += time_limit_seconds
        return report

    monkeypatch.setattr(curesched.hop, "time", FakeTime)
    monkeypatch.setattr(curesched.hop, "solve_exact", spends_its_time)
    inst = small(11)
    report, schedule = run_baseline_milp(inst,
                                         HopConfig(time_limit_seconds=10.0))
    assert limits == [5.0, 5.0]
    assert (report.status, report.makespan) == ("optimal", 6)
    assert validate_schedule(inst, schedule).ok


def test_hop_proves_the_small_optima():
    for seed, optimum in enumerate(SMALL_OPTIMA, 1):
        inst = small(seed)
        report, schedule = run_hop(inst, HopConfig(heuristic=SMALL_HEURISTIC,
                                                   time_limit_seconds=30.0))
        assert (report.status, report.makespan) == ("optimal", optimum), \
            inst.name
        assert report.gap_percent == 0.0
        assert validate_schedule(inst, schedule).ok, inst.name


def _hop_on_witness(inst, cfg):
    """`run_hop`'s exact stage with the safe horizon's serial schedule as
    its incumbent instead of the heuristic's: a loose one that leaves every
    component of small S01 and S11 something to search."""
    witness = horizon_witness(inst)
    return curesched.hop._solve_on(inst, int(schedule_makespan(witness)),
                                   cfg, "hop", witness)


def test_components_go_by_bound_and_stop_within_the_longest(monkeypatch):
    calls = []
    real = curesched.hop.solve_exact

    def spy(inst, thb, parts_mode, floor, time_limit_seconds):
        calls.append((inst.mold_ids, floor))
        return real(inst, thb, parts_mode, floor=floor,
                    time_limit_seconds=time_limit_seconds)

    monkeypatch.setattr(curesched.hop, "solve_exact", spy)
    # S11: molds 6-7 bound the makespan (root bound 5, optimum 6; the
    # witness leaves 16); molds 1-5 (root bound 2, witness 7) then only
    # need a schedule within 6
    report, _ = _hop_on_witness(small(11), HopConfig())
    assert calls == [((6, 7), 0), ((1, 2, 3, 4, 5), 6)]
    assert (report.status, report.makespan) == ("optimal", 6)
    assert report.stats == model_size(small(11), report.stats.thb)
    # S13: the heuristic's molds 6-7 already meet their root bound 11, and
    # its molds 1-5 fit within that length
    calls.clear()
    report, _ = run_hop(small(13), HopConfig(heuristic=SMALL_HEURISTIC))
    assert calls == []
    assert (report.status, report.makespan) == ("optimal", 11)


def test_adapter_builds_one_model_per_solved_component(monkeypatch,
                                                      oracle_declines):
    built = []
    real = curesched.milp.build_model

    def spy(inst, horizon, parts_mode):
        built.append((inst.mold_ids, inst.heaters, horizon))
        return real(inst, horizon, parts_mode)

    monkeypatch.setattr(curesched.milp, "build_model", spy)
    cfg = HopConfig(heuristic=SMALL_HEURISTIC, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=STUB))
    # S13: the heuristic schedule meets the root bound, so nothing is built
    report, schedule = run_hop(small(13), cfg)
    assert built == []
    assert (report.status, report.makespan) == ("optimal", 11)
    assert validate_schedule(small(13), schedule).ok
    # S01: the witness leaves 7, and the one model on the root bound 2
    # already holds a schedule
    report, schedule = _hop_on_witness(small(1), cfg)
    assert built == [((1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6, 7), 2)]
    assert (report.status, report.makespan) == ("optimal", 2)
    assert validate_schedule(small(1), schedule).ok


def test_adapter_tries_a_later_component_on_its_root_bound(monkeypatch):
    built = []
    real = curesched.milp.build_model

    def spy(inst, horizon, parts_mode):
        built.append((inst.mold_ids, horizon))
        return real(inst, horizon, parts_mode)

    monkeypatch.setattr(curesched.milp, "build_model", spy)
    # the slice finds rung 6 in about 60 ms; a slow machine must too
    monkeypatch.setattr(curesched.hop, "_REFUTE_S", 5.0)
    cfg = HopConfig(heuristic=SMALL_HEURISTIC, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=STUB))
    # S11: molds 6-7 climb from their root bound 5, which the oracle
    # refutes, to their optimum 6, where its slice finds a schedule; molds
    # 1-5 then only have to fit within 6, and the slice finds one on their
    # root bound 2, though the witness left them 7: no model is built
    report, schedule = _hop_on_witness(small(11), cfg)
    assert built == []
    assert (report.status, report.makespan) == ("optimal", 6)
    assert validate_schedule(small(11), schedule).ok


def _ladder_on_tiny_1021(monkeypatch):
    """Tiny seed 1021 has one component with root bound 2 and optimum 4,
    and the heuristic leaves 6.  The adapter answers "infeasible" below 4
    without a solver child.  Returns the rungs the adapter saw and the
    report."""
    inst = tiny_instance(1021)
    rungs = []
    real = curesched.milp.solve_with_adapter

    def fake(model, adapter, time_limit_seconds):
        rungs.append(model.thb)
        if model.thb < 4:
            return SolveReport("adapter", "infeasible", None, None, 0.0)
        return real(model, adapter, time_limit_seconds)

    monkeypatch.setattr(curesched.milp, "solve_with_adapter", fake)
    cfg = HopConfig(heuristic=SMALL_HEURISTIC, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=STUB))
    report, schedule = run_hop(inst, cfg)
    assert report.stats.thb == 6
    assert root_bound(inst, PARTS_PER_HEATER) == 2
    assert (report.status, report.makespan, report.gap_percent) == (
        "optimal", 4, 0.0)
    assert validate_schedule(inst, schedule).ok
    return rungs, report


def test_adapter_ladder_climbs_from_the_root_bound(monkeypatch):
    """The oracle refutes rungs 2 and 3 and finds a schedule on 4, the
    optimum, short of the horizon, so the adapter sees no rung; the
    slices' nodes are counted."""
    refuted = []
    real = curesched.hop.solve_exact

    def spy(inst, thb, parts_mode, floor, time_limit_seconds):
        assert floor == thb
        assert time_limit_seconds <= curesched.hop._REFUTE_S
        out = real(inst, thb, parts_mode, floor=floor,
                   time_limit_seconds=time_limit_seconds)
        refuted.append((thb, out.status))
        return out

    monkeypatch.setattr(curesched.hop, "solve_exact", spy)
    rungs, report = _ladder_on_tiny_1021(monkeypatch)
    assert rungs == []
    assert refuted == [(2, "infeasible"), (3, "infeasible"), (4, "feasible")]
    assert report.nodes > 0


def test_adapter_ladder_climbs_through_children_without_refutations(
        monkeypatch, oracle_declines):
    """An oracle that never refutes in its slice leaves every rung from the
    root bound to a solver child."""
    rungs, _ = _ladder_on_tiny_1021(monkeypatch)
    assert rungs == [2, 3, 4]


def test_internal_oracle_keeps_a_witness_it_cannot_shorten(monkeypatch):
    """Tiny seed 1021's optimum 4 witnessed: the oracle searches horizon
    3 and refutes it in 11 nodes, which proves the witness optimal.  Cut
    off by the node cap, the witness still stands, at "feasible" against
    the root bound 2 rather than at "limit"."""
    inst = tiny_instance(1021)
    witness = solve_exact(inst, 4).schedule
    report = curesched.hop._exact_stage(inst, 4, HopConfig(), witness)
    assert (report.status, report.makespan, report.gap_percent,
            report.nodes) == ("optimal", 4, 0.0, 11)
    assert report.schedule is witness
    monkeypatch.setattr(curesched.exact, "_MAX_NODES", 2)
    report = curesched.hop._exact_stage(inst, 4, HopConfig(), witness)
    assert (report.status, report.makespan, report.gap_percent) == (
        "feasible", 4, 50.0)
    assert report.schedule is witness


# ── one pair table per instance ──────────────────────────────────────

def _derivations(monkeypatch):
    """The instances whose pair table gets derived, once per derivation."""
    derived = []
    real = curesched.domain._derive_pair_table

    def spy(inst):
        derived.append(inst)
        return real(inst)

    monkeypatch.setattr(curesched.domain, "_derive_pair_table", spy)
    return derived


@pytest.mark.parametrize("seed", (9, 11))
def test_one_hop_derives_each_pair_table_once(monkeypatch, seed):
    derived = _derivations(monkeypatch)
    searched = []
    real = curesched.hop.solve_exact

    def spy(comp, *args, **kwargs):
        searched.append(comp)
        return real(comp, *args, **kwargs)

    monkeypatch.setattr(curesched.hop, "solve_exact", spy)
    inst = small(seed)
    assert components(inst) and derived == []  # set-up derives nothing
    run_hop(inst, HopConfig(heuristic=SMALL_HEURISTIC, time_limit_seconds=0.5))
    assert searched
    expected = [inst] + list({id(c): c for c in searched}.values())
    assert sorted(map(id, derived)) == sorted(map(id, expected))


def test_a_solve_derives_one_table_per_instance_it_searches(monkeypatch):
    """The `domain` promise of one pair table per solve, at seed 1 and 100
    starts: S08's heuristic meets its root bound, so `run_hop` derives
    S08's table alone; S11's does not, so the exact stage also derives the
    table of the one component it searches, 2 derivations in all."""
    derived = _derivations(monkeypatch)
    s08 = small(8)
    report, _ = run_hop(s08, HopConfig(heuristic=SMALL_HEURISTIC))
    assert (report.status, report.makespan, report.nodes) == ("optimal", 3, 0)
    assert report.makespan == root_bound(s08, PARTS_PER_HEATER)
    assert derived == [s08]
    del derived[:]
    s11 = small(11)
    report, _ = run_hop(s11, HopConfig(heuristic=SMALL_HEURISTIC))
    assert (report.status, report.makespan) == ("optimal", 6)
    assert len(derived) == 2 and derived[0] is s11
    assert derived[1] is not s11 and derived[1].name == s11.name


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_a_cold_hop_derives_each_root_bound_once(monkeypatch, mode):
    """The root bound and the `mold_rates` it rests on are derived once
    per instance and parts mode: a cold `run_hop` on S11 derives S11's,
    for the heuristic's stop, and then one for each component the stage
    walks, though the stage reads S11's again and the exact search reads
    its component's bound and rates."""
    derived, reads, walked = [], [], []
    derive, read = curesched.bounds._derive_root, curesched.bounds._root
    split = curesched.hop.components

    def counted_derive(inst, parts_mode):
        derived.append((inst, parts_mode))
        return derive(inst, parts_mode)

    def counted_read(inst, parts_mode):
        reads.append(inst)
        return read(inst, parts_mode)

    def kept_components(inst):
        walked.extend(split(inst))
        return walked

    monkeypatch.setattr(curesched.bounds, "_derive_root", counted_derive)
    monkeypatch.setattr(curesched.bounds, "_root", counted_read)
    monkeypatch.setattr(curesched.hop, "components", kept_components)
    s11 = small(11)
    heuristic = HeuristicConfig(total_iterations=100, seed=1, parts_mode=mode)
    run_hop(s11, HopConfig(heuristic=heuristic, parts_mode=mode,
                           time_limit_seconds=0.5))
    assert walked
    assert derived == [(inst, mode) for inst in [s11] + walked]
    assert reads.count(s11) == 2
    assert len(reads) > len(derived)


def test_adapter_ladder_derives_its_component_table_once(monkeypatch,
                                                       oracle_declines):
    derived = _derivations(monkeypatch)
    built = []
    real = curesched.milp.build_model

    def spy(comp, horizon, parts_mode):
        built.append(comp)
        return real(comp, horizon, parts_mode)

    monkeypatch.setattr(curesched.milp, "build_model", spy)
    rungs, _ = _ladder_on_tiny_1021(monkeypatch)
    assert rungs == [2, 3, 4] and len(built) == 3
    assert all(comp is built[0] for comp in built)
    # the whole instance's table, then the one component's on its first rung
    assert len(derived) == 2 and derived[1] is built[0]


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_solves_leave_the_shared_pair_table_as_derived(monkeypatch, mode):
    derived = _derivations(monkeypatch)
    insts = [tiny_instance(s) for s in range(1000, 1040)]
    insts += [small(seed) for seed in range(1, 16)]
    for inst in insts:
        run_heuristic(inst, HeuristicConfig(total_iterations=20, seed=1,
                                            parts_mode=mode))
        run_hop(inst, HopConfig(heuristic=HeuristicConfig(
            total_iterations=20, seed=1, parts_mode=mode),
            time_limit_seconds=0.2, parts_mode=mode))
        build_model(inst, 2, mode)
    assert derived
    for inst in list(derived):
        assert list(curesched.domain.pair_slots(inst)) == (
            reference_pair_slots(inst)), inst.name


def _flat_rows(monkeypatch):
    """The `pair_slots` rows built, one entry each."""
    built = []
    real = curesched.domain.PairSlot

    def spy(*fields):
        built.append(fields[:3])
        return real(*fields)

    monkeypatch.setattr(curesched.domain, "PairSlot", spy)
    return built


@pytest.mark.parametrize("seed", (2, 11))
def test_a_cold_hop_builds_no_flat_pair_rows(monkeypatch, seed):
    """The solvers read the pair table's records, so a cold `run_hop`
    builds no `pair_slots` row: S02's heuristic meets its root bound, and
    S11's exact stage searches a component.  `build_model` builds the
    instance's rows once, and a second model reads the same tuple."""
    built = _flat_rows(monkeypatch)
    inst = small(seed)
    report, _ = run_hop(inst, HopConfig(heuristic=SMALL_HEURISTIC))
    assert report.status == "optimal"
    if seed == 2:
        assert report.nodes == 0
        assert report.makespan == root_bound(inst, PARTS_PER_HEATER)
    else:
        assert report.nodes > 0
    assert built == [] and inst._pair_slots is None
    build_model(inst, 2)
    rows = curesched.domain.pair_slots(inst)
    assert built == [(s.m1, s.m2, s.heater) for s in rows] != []
    build_model(inst, 3)
    assert curesched.domain.pair_slots(inst) is rows
    assert len(built) == len(rows)


def _no_child(monkeypatch):
    """Give the oracle's slice a few seconds, so a slow machine settles
    what a fast one does, and fail on any solver child."""
    def never(*args, **kwargs):
        raise AssertionError("a settled rung started a solver child")

    monkeypatch.setattr(curesched.hop, "_REFUTE_S", 5.0)
    monkeypatch.setattr(curesched.milp, "solve_with_adapter", never)


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_slice_schedule_settles_a_rung_without_a_child(monkeypatch, mode):
    """The seed-1 heuristic leaves S09 at 8 and S11 at 7.  The slice finds
    S09's optimum 7 on its root bound, and S11's 6 once it has refuted 5,
    so the adapter returns the oracle's schedules as optimal."""
    _no_child(monkeypatch)
    cfg = HopConfig(heuristic=HeuristicConfig(total_iterations=100, seed=1,
                                              parts_mode=mode),
                    solver=SOLVER_ADAPTER, adapter=SolverAdapter(command=STUB),
                    parts_mode=mode)
    for seed in (9, 11):
        inst = small(seed)
        report, schedule = run_hop(inst, cfg)
        assert (report.status, report.makespan, report.gap_percent) == (
            "optimal", SMALL_OPTIMA[seed - 1], 0.0), inst.name
        assert validate_schedule(inst, schedule, mode).ok, inst.name


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_refuted_rungs_below_a_witness_prove_it_without_a_child(monkeypatch,
                                                                mode):
    """Tiny seed 1005 has root bound 2, and the heuristic leaves 4, its
    optimum: the slice refutes 2-3, so the witness is optimal and stands."""
    _no_child(monkeypatch)
    inst = tiny_instance(1005)
    heuristic = HeuristicConfig(total_iterations=100, seed=1, parts_mode=mode)
    witness = run_heuristic(inst, heuristic)
    assert root_bound(inst, mode) == 2
    assert schedule_makespan(witness) == 4
    cfg = HopConfig(heuristic=heuristic, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=STUB), parts_mode=mode)
    report, schedule = run_hop(inst, cfg)
    assert (report.status, report.makespan, report.gap_percent) == (
        "optimal", 4, 0.0)
    assert report.nodes > 0
    assert schedule == witness


def test_children_refuting_the_rungs_below_a_witness_prove_it(
        tmp_path, oracle_declines):
    """Tiny seed 1005 has root bound 2 and the heuristic leaves its optimum
    4.  Solver children refute rungs 2-3; the child that checks the witness
    on rung 4 then runs into the time limit, which leaves the witness
    optimal, not at "limit"."""
    stub = tmp_path / "check_stalls.py"
    stub.write_text(
        "import re, sys, time\n"
        "thb = int(re.search(r'thb=(\\d+)', open(sys.argv[1]).readline())[1])\n"
        "if thb < 4:\n"
        "    sys.exit(10)\n"
        "time.sleep(60)\n", encoding="utf-8")
    inst = tiny_instance(1005)
    heuristic = HeuristicConfig(total_iterations=100, seed=1)
    witness = run_heuristic(inst, heuristic)
    assert schedule_makespan(witness) == 4
    cfg = HopConfig(heuristic=heuristic, solver=SOLVER_ADAPTER,
                    adapter=SolverAdapter(command=(sys.executable, str(stub))),
                    time_limit_seconds=3.0)
    report, schedule = run_hop(inst, cfg)
    assert (report.status, report.makespan, report.gap_percent) == (
        "optimal", 4, 0.0)
    assert schedule == witness


@pytest.mark.parametrize("solver", BACKENDS)
def test_stage_that_cannot_shorten_returns_the_heuristic_schedule(
        monkeypatch, solver):
    """Tiny seed 1005's heuristic schedule is already optimal, though not
    at its root bound, so the stage searches and cannot shorten it: the
    pipeline returns that very object, not a copy rebuilt from its
    components."""
    made = []
    real = curesched.hop.run_heuristic

    def spy(inst, cfg):
        made.append(real(inst, cfg))
        return made[-1]

    monkeypatch.setattr(curesched.hop, "run_heuristic", spy)
    cfg = HopConfig(heuristic=SMALL_HEURISTIC, solver=solver,
                    **BACKENDS[solver])
    report, schedule = run_hop(tiny_instance(1005), cfg)
    assert (report.status, report.makespan) == ("optimal", 4)
    assert report.nodes > 0
    assert schedule is made[0]
    assert report.schedule is made[0]


def test_slice_refutes_an_unwitnessed_last_rung(monkeypatch):
    """Without a witness, a horizon below the optimum that the slice refutes
    is "infeasible", as a solver child would report it, not "limit"."""
    _no_child(monkeypatch)
    inst = tiny_instance(1021)
    cfg = HopConfig(solver=SOLVER_ADAPTER, adapter=SolverAdapter(command=STUB))
    deadline = time.perf_counter() + 60.0
    report = curesched.hop._component_solve(
        inst, 3, cfg, deadline, False, 0, root_bound(inst, PARTS_PER_HEATER))
    assert (report.status, report.makespan, report.schedule) == (
        "infeasible", None, None)
    report = curesched.hop._component_solve(
        inst, 4, cfg, deadline, False, 0, root_bound(inst, PARTS_PER_HEATER))
    assert (report.status, report.makespan) == ("optimal", 4)
    assert validate_schedule(inst, report.schedule).ok


@pytest.mark.parametrize("solver", BACKENDS)
def test_component_that_meets_its_root_bound_is_not_searched(monkeypatch,
                                                             solver):
    """The seed-1 heuristic already reaches S02's root bound 6 and S08's 3:
    that schedule is optimal, so neither backend builds or searches."""
    def never(*args, **kwargs):
        raise AssertionError("a component at its root bound was searched")

    monkeypatch.setattr(curesched.milp, "build_model", never)
    monkeypatch.setattr(curesched.hop, "solve_exact", never)
    cfg = HopConfig(heuristic=SMALL_HEURISTIC, solver=solver,
                    **BACKENDS[solver])
    for seed in (2, 8):
        inst = small(seed)
        report, schedule = run_hop(inst, cfg)
        assert (report.status, report.makespan, report.gap_percent) == (
            "optimal", SMALL_OPTIMA[seed - 1], 0.0), inst.name
        assert validate_schedule(inst, schedule).ok, inst.name


class _Split(Exception):
    """What `_no_split`, a stand-in for `components`, raises."""


def _no_split(inst):
    raise _Split(inst.name)


@pytest.mark.parametrize("solver", BACKENDS)
def test_heuristic_schedule_at_the_root_bound_skips_the_stage(monkeypatch,
                                                              solver):
    """S13's and S02's seed-1 heuristic schedules meet the instance's root
    bound, the largest of its components', so the stage returns without
    splitting the instance, the report the component walk gives: optimal,
    gap 0, no nodes, the whole model's size and the heuristic's schedule.
    S11's ends above its root bound and still goes through `components`."""
    cfg = HopConfig(heuristic=SMALL_HEURISTIC, solver=solver,
                    **BACKENDS[solver])
    real = root_bound
    for seed in (13, 2):
        inst = small(seed)
        incumbent = run_heuristic(inst, SMALL_HEURISTIC)
        horizon = int(schedule_makespan(incumbent))
        with pytest.MonkeyPatch.context() as walk:
            # the whole instance's bound read as unmet, each component's
            # as it is: the stage walks the components
            walk.setattr(curesched.hop, "root_bound",
                         lambda i, mode: -1 if i is inst else real(i, mode))
            walked = curesched.hop._exact_stage(inst, horizon, cfg, incumbent,
                                                "hop")
        assert (walked.status, walked.makespan, walked.nodes) == (
            "optimal", SMALL_OPTIMA[seed - 1], 0), inst.name
        with pytest.MonkeyPatch.context() as split:
            split.setattr(curesched.hop, "components", _no_split)
            skipped = curesched.hop._exact_stage(inst, horizon, cfg,
                                                 incumbent, "hop")
            report, _ = run_hop(inst, cfg)
        assert skipped == walked, inst.name
        assert skipped.schedule is incumbent, inst.name
        assert (report.status, report.makespan, report.nodes) == (
            "optimal", horizon, 0), inst.name
    monkeypatch.setattr(curesched.hop, "components", _no_split)
    with pytest.raises(_Split):
        run_hop(small(11), cfg)


def _highs_status(model, pinned=None):
    """In-process HiGHS's status on `model` (0 solved, 2 infeasible), with
    the integer columns fixed to a `pinned` assignment when one is given."""
    c, a, con_lo, con_hi, lo, hi, integrality = (
        curesched.lpsolve.to_arrays(model))
    if pinned is not None:
        for i, v in enumerate(model.variables):
            if integrality[i]:
                lo[i] = hi[i] = pinned.get(v.name, 0)
    return milp(c, integrality=integrality, bounds=Bounds(lo, hi),
                constraints=LinearConstraint(a, con_lo, con_hi)).status


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_refuted_rungs_are_infeasible_to_highs(mode):
    """Every ladder rung the oracle's slice refutes is infeasible to HiGHS
    too, so the optimum's rung is never refuted.  Each component of tiny
    1000-1199 climbs from its root bound as the adapter ladder does, and the
    first rung the slice does not refute holds a schedule of exactly that
    makespan, which HiGHS accepts as a solution of the rung's model: HiGHS
    confirms every optimum the oracle settles."""
    refuted = 0
    for seed in range(1000, 1200):
        for comp in components(tiny_instance(seed)):
            for h in range(root_bound(comp, mode), compute_thb(comp) + 1):
                proof = solve_exact(comp, h, mode, floor=h,
                                    time_limit_seconds=curesched.hop._REFUTE_S)
                if proof.status != "infeasible":
                    break
                refuted += 1
                assert _highs_status(build_model(comp, h, mode)) == 2, (
                    comp.name, h)
            if proof.schedule is not None:
                assert proof.makespan == h, (comp.name, h)
                assert validate_schedule(comp, proof.schedule, mode).ok
                model = build_model(comp, h, mode)
                assignment = schedule_to_assignment(model, proof.schedule)
                assert _highs_status(model, assignment) == 0, (comp.name, h)
    assert refuted > 0


def test_component_stage_keeps_its_time_limit():
    """Both searches stop within the limit plus one frame's slack.  Medium
    seed 11 has two components and its stage runs past 1 s, so a 0.05 s
    limit bites on any machine; small S11 now proves in about that long."""
    inst = generate_instance(SCENARIOS["medium"], 11)
    limit, slack = 0.05, 0.25
    heuristic = run_heuristic(inst, SMALL_HEURISTIC)
    horizon = int(schedule_makespan(heuristic))
    clock = time.perf_counter()
    report = curesched.hop._exact_stage(
        inst, horizon, HopConfig(time_limit_seconds=limit), heuristic)
    stage_s = time.perf_counter() - clock
    clock = time.perf_counter()
    solve_exact(inst, horizon - 1, time_limit_seconds=limit)
    whole_s = time.perf_counter() - clock
    assert report.status != "optimal"
    assert stage_s <= limit + slack
    assert whole_s <= limit + slack


def test_python_m_curesched_runs_the_cli_once(tmp_path):
    src = str(Path(curesched.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "curesched",
         "generate", "--scenario", "small", "--count", "1", "--seed", "11",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(tmp_path / "S11.json")]


def test_solver_adapter_needs_a_command():
    """An empty command would end every adapter ladder at "limit"; it is
    refused where the adapter is built."""
    with pytest.raises(ValueError, match="needs a command"):
        HopConfig(solver=SOLVER_ADAPTER, adapter=SolverAdapter(()))


def test_malformed_solution_keeps_the_incumbent_in_hop_only(tmp_path,
                                                           oracle_declines):
    """A solution that does not parse, or one that breaks the model's rows,
    is an adapter fault: hop keeps its witness at the limit."""
    for solution, fault in (("garbage", SolutionParseError),
                            ("objective 0\n", InfeasibleAssignment)):
        command = shlex.split(garbage_solver(tmp_path, solution))
        cfg = HopConfig(heuristic=FAST, solver=SOLVER_ADAPTER,
                        adapter=SolverAdapter(command=tuple(command)))
        report, schedule = run_hop(toy1(), cfg)
        assert (report.status, report.makespan, report.gap_percent) == (
            "limit", 2, None)
        assert validate_schedule(toy1(), schedule).ok
        # the baseline has no incumbent to fall back on
        with pytest.raises(fault):
            run_baseline_milp(toy1(), cfg)
