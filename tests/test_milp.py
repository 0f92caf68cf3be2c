"""Model builder, size accounting, LP emission, and assignment decoding.

Frozen counts for toy1 at a 2-period horizon, by hand enumeration of the
constraint families (pair-extended triple set has 5 members on heater 1):

    rows:  prefix 1, active 2, slots 2, capacity 10, rate 10, production 4,
           demand 2, mold-count 4, copies 4, initial 2, setups 4, removals 4
           -> 49 total; slope 23 rows per period plus 3 fixed rows
    binary: z 10 + w 2 = 12     integer: u 10 + prd 4 = 14

toy2 adds one part over molds {1,2}: +1 row per heater-period; its single
unit and single copies leave only the two singles runnable, so its three
pairs lose their capacity and rate rows (12) -> 39.
"""

import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import curesched.lpsolve

from curesched.domain import (
    PARTS_MODES,
    AssignmentTuple,
    Mold,
    Schedule,
    schedule_from_periods,
    schedule_makespan,
    validate_schedule,
)
from curesched.errors import InfeasibleAssignment, SolutionParseError
from curesched.gen import SCENARIOS, generate_instance
from curesched.horizon import horizon_witness, model_size
from curesched.lpformat import (
    EXIT_INFEASIBLE,
    Constraint,
    ParsedLp,
    Variable,
    format_solution,
    parse_lp,
    parse_solution,
)
from curesched.milp import (
    build_model,
    check_assignment,
    emit_lp,
    extract_schedule,
    model_stats,
    schedule_to_assignment,
)

from helpers import (
    single_mold_big,
    tiny_instance,
    toy1,
    toy1_two_heaters,
    toy2,
    variant,
)


def toy2_two_heaters():
    base = toy1_two_heaters()
    return variant(base, name="toy2h2", molds=toy2().molds, parts=toy2().parts)


def toy1_optimal_assignment():
    """Hand-built optimum: pair (1,2) cures 10+10 tires in period 1; both
    molds leave the heater in period 2."""
    return {
        "w_1": 1,
        "z_1_2_1_1": 1,
        "u_1_2_1_1": 10,
        "x_1_1_1": 1,
        "x_2_1_1": 1,
        "y_1_1_1": 1,
        "y_2_1_1": 1,
        "yp_1_1_2": 1,
        "yp_2_1_2": 1,
        "prd_1_1": 10,
        "prd_2_1": 10,
    }


# ── sizes ────────────────────────────────────────────────────────────

def test_toy1_model_counts():
    stats = model_stats(build_model(toy1(), 2))
    assert stats.n_constraints == 49
    assert stats.n_binary_vars == 12
    assert stats.n_integer_vars == 14
    assert stats.thb == 2


def test_toy2_model_counts():
    """toy2's one unit of the part shared by molds 1 and 2 leaves only the
    two singles runnable, so the model holds their z/u columns alone."""
    for mode in ("per-heater", "global"):
        stats = model_stats(build_model(toy2(), 2, parts_mode=mode))
        assert (stats.n_constraints, stats.n_binary_vars,
                stats.n_integer_vars) == (39, 6, 8)


def test_counts_affine_in_horizon():
    for thb, rows, nbin, nint in ((5, 118, 30, 35), (10, 233, 60, 70),
                                  (20, 463, 120, 140)):
        stats = model_stats(build_model(toy1(), thb))
        assert (stats.n_constraints, stats.n_binary_vars, stats.n_integer_vars) \
            == (rows, nbin, nint)


def test_zero_horizon_keeps_only_initial_rows():
    stats = model_stats(build_model(toy1(), 0))
    assert stats.n_constraints == 2
    assert stats.n_binary_vars == 0
    assert stats.n_integer_vars == 0


def test_parts_mode_changes_row_count_on_two_heaters():
    inst = toy2_two_heaters()
    per_heater = model_stats(build_model(inst, 2, parts_mode="per-heater"))
    global_ = model_stats(build_model(inst, 2, parts_mode="global"))
    assert per_heater.n_constraints - global_.n_constraints == 2
    assert per_heater.n_binary_vars == global_.n_binary_vars
    assert per_heater.n_integer_vars == global_.n_integer_vars


def _size_cases():
    yield toy1()
    yield toy2()
    for seed in range(1000, 1060):
        yield tiny_instance(seed)
    for size, seeds in (("small", range(1, 16)), ("medium", (1, 2)),
                        ("large", (1,))):
        for seed in seeds:
            yield generate_instance(SCENARIOS[size], seed)


def test_model_size_matches_build():
    checked = 0
    for inst in _size_cases():
        for mode in PARTS_MODES:
            for thb in (0, 1, 2, 5):
                built = model_stats(build_model(inst, thb, mode))
                assert model_size(inst, thb, mode) == built, (inst.name, mode, thb)
                checked += 1
    assert checked == 640


def test_model_size_counts_only_runnable_rows():
    """L02 per-heater at rung 26: 21 of its 140 (pair, heater) rows need
    more copies or part units than exist, and hold no columns or rows."""
    stats = model_size(generate_instance(SCENARIOS["large"], 2), 26)
    assert (stats.n_constraints, stats.n_binary_vars,
            stats.n_integer_vars) == (9815, 3120, 3224)


@pytest.mark.parametrize("scenario, seed, rung", [
    ("small", 11, 5), ("large", 3, 19)])
def test_lp_relaxation_runs_no_unrunnable_pair(scenario, seed, rung):
    """With integrality off and a zero objective, HiGHS finds the model
    infeasible: no fraction of a pair that no schedule can run (such as a
    mixed pair beyond a part's single unit) is left to cure two molds at
    once for half the heater time."""
    model = build_model(generate_instance(SCENARIOS[scenario], seed), rung)
    c, a, con_lo, con_hi, lo, hi, _ = curesched.lpsolve.to_arrays(model)
    result = milp(np.zeros_like(c), bounds=Bounds(lo, hi),
                  constraints=LinearConstraint(a, con_lo, con_hi))
    assert result.status == 2, result.message


def test_model_size_rejects_what_build_rejects():
    for count in (model_size, build_model):
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            count(toy1(), -1)
        with pytest.raises(ValueError, match="unknown parts mode"):
            count(toy1(), 2, parts_mode="shared")


def test_part_row_shape():
    m = build_model(toy2(), 2)
    rows = [c for c in m.constraints if c.name == "parts_1_1_1"]
    assert len(rows) == 1
    row = rows[0]
    assert sorted(row.terms) == [(1, "x_1_1_1"), (1, "x_2_1_1")]
    assert row.sense == "<="
    assert row.rhs == 1


# ── assignment checking and decoding ─────────────────────────────────

def test_toy1_optimal_assignment_checks_out():
    m = build_model(toy1(), 2)
    report = check_assignment(m, toy1_optimal_assignment())
    assert report.ok, report.violations


def test_toy1_extract_schedule():
    m = build_model(toy1(), 2)
    sched = extract_schedule(m, toy1_optimal_assignment())
    assert len(sched.tuples) == 1
    t = sched.tuples[0]
    assert (t.m1, t.m2, t.q, t.heater, t.start, t.length) == (1, 2, 10, 1, 0, 1)
    assert schedule_makespan(sched) == 1
    assert validate_schedule(toy1(), sched).ok


def test_schedule_from_periods_merges_runs():
    inst = toy1_two_heaters()
    sched = schedule_from_periods(inst, {
        2: [(None, 0), ((0, 1), 3), ((0, 1), 0), ((0, 1), 4)],
        1: [((1, 2), 10), (None, 0), ((0, 2), 2), ((1, 2), 1)],
    })
    rows = [(t.id, t.m1, t.m2, t.q, t.heater, t.start, t.length)
            for t in sched.tuples]
    assert rows == [
        (1, 1, 2, 10, 1, 0, 1),
        (2, 0, 2, 2, 1, 2, 1),
        (3, 1, 2, 1, 1, 3, 1),
        (4, 0, 1, 7, 2, 1, 3),
    ]
    assert schedule_from_periods(inst, {}).tuples == []


def test_extract_rejects_demand_shortfall():
    m = build_model(toy1(), 2)
    bad = toy1_optimal_assignment()
    bad["u_1_2_1_1"] = 9
    bad["prd_1_1"] = 9
    bad["prd_2_1"] = 9
    with pytest.raises(InfeasibleAssignment) as err:
        extract_schedule(m, bad)
    assert any("demand" in v for v in err.value.violations)


def test_extract_rejects_capacity_overrun():
    m = build_model(toy1(), 2)
    bad = toy1_optimal_assignment()
    bad["u_1_2_1_1"] = 37  # rate cap is floor(14400/400) = 36
    bad["prd_1_1"] = 37
    bad["prd_2_1"] = 37
    with pytest.raises(InfeasibleAssignment):
        extract_schedule(m, bad)


@pytest.mark.parametrize("name, value, violation", [
    ("ghost", 1, "assignment references unknown variable ghost"),
    ("prd_1_1", 9.5, "prd_1_1 = 9.5 is not integral"),
    ("u_1_2_1_1", -1, "u_1_2_1_1 = -1 below lower bound 0"),
    ("z_1_2_1_1", 2, "z_1_2_1_1 = 2 above upper bound 1"),
])
def test_check_assignment_names_each_out_of_domain_value(name, value,
                                                         violation):
    """A solver child's values are outside input: an unknown name, a
    fraction and a value beyond a bound are each reported, and decoding
    refuses the assignment."""
    m = build_model(toy1(), 2)
    bad = toy1_optimal_assignment()
    bad[name] = value
    assert violation in check_assignment(m, bad).violations
    with pytest.raises(InfeasibleAssignment) as err:
        extract_schedule(m, bad)
    assert violation in err.value.violations


def test_zero_demand_all_zero_assignment():
    inst = variant(
        toy1(),
        molds=tuple(Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin, 0)
                    for m in toy1().molds),
    )
    m = build_model(inst, 1)
    sched = extract_schedule(m, {})
    assert sched.tuples == []
    assert schedule_makespan(sched) == 0


# ── schedule encoder (round trip through the variable space) ─────────

def test_encode_decode_round_trip_sequential():
    inst = toy2()
    sched = Schedule(tuples=[
        AssignmentTuple(1, 0, 1, 10, heater=1, start=0, length=1),
        AssignmentTuple(2, 0, 2, 10, heater=1, start=1, length=1),
    ])
    m = build_model(inst, 2)
    asg = schedule_to_assignment(m, sched)
    assert check_assignment(m, asg).ok
    assert sum(v for n, v in asg.items() if n.startswith("w_")) == 2
    back = extract_schedule(m, asg)
    assert [(t.m1, t.m2, t.q, t.heater, t.start, t.length) for t in back.tuples] \
        == [(0, 1, 10, 1, 0, 1), (0, 2, 10, 1, 1, 1)]


def test_encode_decode_round_trip_with_gap():
    # heater sits idle in period 2; mold 1 must leave during that period
    inst = toy1()
    sched = Schedule(tuples=[
        AssignmentTuple(1, 0, 1, 10, heater=1, start=0, length=1),
        AssignmentTuple(2, 0, 2, 10, heater=1, start=2, length=1),
    ])
    assert validate_schedule(inst, sched).ok
    m = build_model(inst, 3)
    asg = schedule_to_assignment(m, sched)
    assert check_assignment(m, asg).ok
    assert asg.get("yp_1_1_2") == 1
    back = extract_schedule(m, asg)
    assert [(t.m1, t.m2, t.q, t.heater, t.start, t.length) for t in back.tuples] \
        == [(0, 1, 10, 1, 0, 1), (0, 2, 10, 1, 2, 1)]
    # neither a schedule past the horizon nor the sentinel has an encoding
    with pytest.raises(ValueError, match="spans 3 periods, model horizon is 2"):
        schedule_to_assignment(build_model(inst, 2), sched)
    with pytest.raises(ValueError, match="sentinel"):
        schedule_to_assignment(m, Schedule.empty_candidate())


def test_encode_identical_pair_doubles_production():
    inst = single_mold_big(copies=4, heaters=2)
    sched = Schedule(tuples=[
        AssignmentTuple(1, 1, 1, 250, heater=1, start=0, length=10),
        AssignmentTuple(2, 1, 1, 250, heater=2, start=0, length=10),
    ])
    assert validate_schedule(inst, sched).ok
    m = build_model(inst, 10)
    asg = schedule_to_assignment(m, sched)
    assert check_assignment(m, asg).ok
    total = sum(v for n, v in asg.items() if n.startswith("prd_1_"))
    assert total == 1000


# ── LP emission ──────────────────────────────────────────────────────

def test_lp_sections_and_known_lines():
    text = emit_lp(build_model(toy1(), 2))
    lines = text.splitlines()
    assert " obj: w_1 + w_2" in lines
    assert "\\ eq-9 demand mold 1" in lines
    assert " demand_1: prd_1_1 + prd_1_2 >= 10" in lines
    assert " 0 <= x_1_1_0 <= 2" in lines
    order = [lines.index(s) for s in
             ("Minimize", "Subject To", "Bounds", "Generals", "Binaries", "End")]
    assert order == sorted(order)
    gen_body = text.split("Generals")[1].split("Binaries")[0]
    bin_body = text.split("Binaries")[1].split("End")[0]
    for name in ("x_1_1_0", "y_2_1_2", "yp_1_1_1", "u_1_2_1_1", "prd_2_2"):
        assert name in gen_body.split()
    for name in ("z_0_1_1_2", "z_2_2_1_1", "w_1", "w_2"):
        assert name in bin_body.split()


def test_lp_emission_byte_stable():
    a = emit_lp(build_model(toy1(), 2))
    b = emit_lp(build_model(toy1(), 2))
    assert a == b



def test_model_is_a_frozen_record():
    """A rung without an objective is the same model with none: its LP
    differs only in the objective line, and no field can be reassigned."""
    m = build_model(toy1(), 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.thb = 3
    full = emit_lp(m).splitlines()
    bare = emit_lp(dataclasses.replace(m, objective=())).splitlines()
    assert len(full) == len(bare)
    assert [(a, b) for a, b in zip(full, bare) if a != b] == [
        (" obj: w_1 + w_2", " obj: 0")]
    assert repr(m) == "MilpModel('toy1', thb=2, rows=49, vars=40)"

def test_lp_round_trip_counts():
    m = build_model(toy1(), 2)
    stats = model_stats(m)
    parsed = parse_lp(emit_lp(m))
    assert len(parsed.constraints) == stats.n_constraints == 49
    binaries = [v.name for v in parsed.variables if v.kind == "binary"]
    generals = [v.name for v in parsed.variables if v.kind == "general"]
    assert len(binaries) == stats.n_binary_vars == 12
    upad = [v for v in generals if v.startswith(("u_", "prd_"))]
    assert len(upad) == stats.n_integer_vars == 14
    assert len(generals) == 28  # x, y, yp, u, prd


def test_lp_round_trip_wrapped_lines():
    m = build_model(single_mold_big(copies=4, heaters=2), 30)
    text = emit_lp(m)
    assert all(len(line) <= 230 for line in text.splitlines())
    parsed = parse_lp(text)
    stats = model_stats(m)
    assert len(parsed.constraints) == stats.n_constraints
    binaries = [v for v in parsed.variables if v.kind == "binary"]
    assert len(binaries) == stats.n_binary_vars
    demand_rows = [c for c in parsed.constraints if c.name == "demand_1"]
    assert len(demand_rows) == 1
    assert len(demand_rows[0].terms) == 30  # one prd per period, re-joined
    assert demand_rows[0].rhs == 1000


def test_lp_zero_horizon_objective_only_body():
    text = emit_lp(build_model(toy1(), 0))
    assert " obj: 0" in text.splitlines()
    parsed = parse_lp(text)
    assert parsed.objective == []
    assert len(parsed.constraints) == 2
    assert [v for v in parsed.variables if v.kind == "binary"] == []


def test_lp_parts_modes_share_variable_sections():
    per = emit_lp(build_model(toy2(), 2, parts_mode="per-heater"))
    glo = emit_lp(build_model(toy2(), 2, parts_mode="global"))
    assert per != glo
    cut = lambda s: s.split("Bounds")[1]  # bounds + generals + binaries + end
    assert cut(per) == cut(glo)
    assert "parts_1_1_1:" in per
    assert "parts_1_1:" in glo


MAXIMIZE_LP = "Maximize\n obj: x\nSubject To\n c1: x <= 1\nBounds\n 0 <= x <= 5\nEnd\n"


def test_parse_lp_rejects_maximization():
    with pytest.raises(ValueError,
                       match="line 1: 'Maximize' is not a section header"):
        parse_lp(MAXIMIZE_LP)


def test_lpsolve_cannot_read_a_missing_model(tmp_path, capsys):
    lp, sol = tmp_path / "missing.lp", tmp_path / "missing.sol"
    assert curesched.lpsolve.main([str(lp), str(sol)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {lp}: ") and err.count("\n") == 1
    assert not sol.exists()


def test_lpsolve_refuses_a_maximize_model(tmp_path, capsys):
    lp, sol = tmp_path / "max.lp", tmp_path / "max.sol"
    lp.write_text(MAXIMIZE_LP)
    assert curesched.lpsolve.main([str(lp), str(sol)]) == 1
    assert "cannot parse" in capsys.readouterr().err
    assert not sol.exists()


@pytest.mark.parametrize("row, code", [
    ("c1: 0 >= 1", EXIT_INFEASIBLE), ("c1: 0 = 2", EXIT_INFEASIBLE),
    ("c1: 0 >= 0\n c2: 0 <= 3", 0),
])
def test_lpsolve_checks_the_rows_of_a_model_without_variables(tmp_path,
                                                              capsys, row,
                                                              code):
    """With no variables each row reads 0 <sense> rhs: one that fails is a
    proof of infeasibility, and one that holds leaves objective 0."""
    lp, sol = tmp_path / "const.lp", tmp_path / "const.sol"
    lp.write_text(f"Minimize\n obj: 0\nSubject To\n {row}\nEnd\n")
    assert curesched.lpsolve.main([str(lp), str(sol)]) == code
    if code:
        assert capsys.readouterr().err == "proven infeasible\n"
        assert not sol.exists()
    else:
        assert parse_solution(sol.read_text()) == ({}, 0)


MIN_LP = "Minimize\n obj: x\nSubject To\n c1: x >= 1\nGenerals\n x\nEnd\n"


def _lpsolve_options(tmp_path, monkeypatch, raw_limit):
    """The HiGHS options `lpsolve.main` passes for a time-limit setting."""
    seen = []
    real = curesched.lpsolve.milp

    def spy(*args, **kwargs):
        seen.append(kwargs.get("options"))
        return real(*args, **kwargs)

    monkeypatch.setattr(curesched.lpsolve, "milp", spy)
    monkeypatch.setenv("CURESCHED_LPSOLVE_TIME_LIMIT", raw_limit)
    lp, sol = tmp_path / "min.lp", tmp_path / "min.sol"
    lp.write_text(MIN_LP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert curesched.lpsolve.main([str(lp), str(sol)]) == 0
    assert sol.read_text() == "x 1\nobjective 1\n"
    return seen


@pytest.mark.parametrize("raw", ["-1", "0", "nan", "inf", "-inf", "soon"])
def test_lpsolve_ignores_a_time_limit_that_is_not_positive_and_finite(
        tmp_path, capsys, monkeypatch, raw):
    assert _lpsolve_options(tmp_path, monkeypatch, raw) == [None]
    assert capsys.readouterr().err == (
        f"ignoring bad CURESCHED_LPSOLVE_TIME_LIMIT {raw!r}\n")


def test_lpsolve_passes_a_positive_time_limit(tmp_path, capsys, monkeypatch):
    assert _lpsolve_options(tmp_path, monkeypatch, "2.5") == [
        {"time_limit": 2.5}]
    assert capsys.readouterr().err == ""


# every form `emit_lp` writes: a comment, each header, a continued entry,
# a bounds line and both name lists
EMITTED_LP = """\\ comment
Minimize
 obj: x
   + 2 y
Subject To
 c1: x + y >= 1
 c2: x - y <= 3
Bounds
 0 <= x <= 4
Generals
 x
Binaries
 y
End
"""


def test_parse_lp_reads_what_emit_lp_writes(tmp_path):
    """The text each refusal case below changes in one place is read, and
    solved."""
    assert parse_lp(EMITTED_LP) == ParsedLp(
        objective=[(1, "x"), (2, "y")],
        constraints=(Constraint("c1", "", "", ((1, "x"), (1, "y")), ">=", 1),
                     Constraint("c2", "", "", ((1, "x"), (-1, "y")), "<=", 3)),
        variables=(Variable("x", "general", 4), Variable("y", "binary", 1)))
    lp, sol = tmp_path / "e.lp", tmp_path / "e.sol"
    lp.write_text(EMITTED_LP)
    assert curesched.lpsolve.main([str(lp), str(sol)]) == 0
    assert sol.read_text() == "x 1\ny 0\nobjective 1\n"


def _refused(old, new, line, name=None):
    """EMITTED_LP with its first `old` replaced by `new`, refused on `line`;
    the case is named `name`, or by the new text."""
    assert old in EMITTED_LP
    return pytest.param(EMITTED_LP.replace(old, new, 1), line,
                        id=name or new.strip())


BOUNDS_LP = ("Minimize\n obj: x + y\nSubject To\n c1: x + y >= -10\n"
             "Bounds\n {}\n {}\nEnd\n")


@pytest.mark.parametrize("line", ["3 <= 4", "0 <= 3 <= 4", "2 >= 5 <= 7"])
def test_parse_lp_rejects_a_bounds_line_without_a_variable(line):
    with pytest.raises(ValueError, match="is not the shape lo <= name <= hi"):
        parse_lp(BOUNDS_LP.format("0 <= x <= 5", line))


@pytest.mark.parametrize("line, message", [
    ("x 5", "shape"),
    ("x <= 4 junk", "shape"),
    ("x >= 2 <= 3", "shape"),
    ("2 <= x <= y", "bound value 'y'"),
    ("0 <= x <= -2", "bound value '-2'"),
])
def test_parse_lp_rejects_a_bounds_line_it_cannot_read(line, message):
    with pytest.raises(ValueError, match=f"bounds line '{line}' .*{message}"):
        parse_lp(BOUNDS_LP.format("0 <= y <= 2", line))


@pytest.mark.parametrize("text, line", [
    # headers other than the six `emit_lp` writes
    *(_refused("Minimize", h, 2)
      for h in ("Min", "Minimum", "Minimise", "minimize")),
    *(_refused("Subject To", h, 5) for h in ("such that", "st", "s.t.")),
    _refused("Bounds", "bound", 8),
    *(_refused("Generals", h, 10)
      for h in ("general", "gen", "integer", "integers")),
    *(_refused("Binaries", h, 12) for h in ("binary", "bin")),
    # rows: the =< and => senses, unnamed rows, a space before the colon
    _refused("c2: x - y <= 3", "c2: x - y =< 3", 7),
    _refused("c1: x + y >= 1", "c1: x + y => 1", 6),
    _refused(" c1: x + y >= 1\n c2: x - y <= 3",
             " x + y >= 1\n x - y <= 3", 6, "unnamed rows"),
    _refused("c1: x", "c1 : x", 6),
    # bounds other than `0 <= name <= hi` with an integer `hi`
    *(_refused("0 <= x <= 4", b, 9)
      for b in ("x <= 4", "x >= 0", "x = 2", "0 <= x", "4 >= x", "x free",
                "x <= abc", "x <= -inf", "x = inf", "-inf <= x <= 4",
                "0 <= x <= infinity", "0 <= x <= +INF", "1 <= x <= 4",
                "0 <= x <= 4.5", "0 <= x <= -2")),
    # numbers other than integers, in a term and on the right side
    *(_refused("+ 2 y", f"+ {n} y", 3) for n in ("1.5", "1e3", "+3")),
    *(_refused(">= 1", f">= {n}", 6) for n in ("1.5", "1e3", "+3")),
    # right sides `emit_lp` never writes: a signed zero, a leading 0
    *(_refused(">= 1", f">= {n}", 6) for n in ("-0", "007")),
    # coefficients `term_units` never writes: signed, below 2, a leading 0
    *(_refused("c1: x + y", f"c1: x + {n} y", 6) for n in ("-3", "1", "0",
                                                            "02")),
    _refused("c2: x - y", "c2: x - -3 y", 7),
    # a column of neither kind, named at the line it first appears on
    _refused("Generals\n x\n", "", 3, "a column in no name list"),
    # expressions: a product of numbers, unreadable tokens
    _refused("+ 2 y", "+ 2 3 y", 3),
    _refused("c1: x + y", "c1: x + y$", 6),
    # an entry with no expression, a name list with a number in it
    _refused(" obj: x\n   + 2 y", " obj:", 3, "an empty objective"),
    _refused("c1: x + y >= 1", "c1: >= 1", 6),
    _refused("Generals\n x\n", "Generals\n x 2\n", 11,
             "a number in Generals"),
    _refused(">= 1", ">= 1 \\ inline comment", 6, "an inline comment"),
    # the section layout: text outside it, one objective, a missing End
    _refused("\\ comment", " obj: x", 1, "text before the first header"),
    _refused(" obj: x", " obj: x\n   + 2 y\n y: z", 5, "a second objective"),
    _refused(" obj: x\n   + 2 y\n", "", 3, "no objective"),
    _refused("Subject To", "Subject To\n   y", 6,
             "a continuation with no entry"),
    _refused(" c2: x - y <= 3", " c2: x - y <= 3\nSubject To", 8,
             "a repeated header"),
    _refused("End\n", "End\n x\n", 15, "text after End"),
    _refused("End\n", "", 13, "no End"),
])
def test_parse_lp_refuses_what_emit_lp_does_not_write(tmp_path, capsys, text,
                                                      line):
    """Only the dialect `emit_lp` writes is read: every other form raises
    ValueError naming its line, and the solver command exits 1 with one
    `cannot parse` line and writes no solution."""
    with pytest.raises(ValueError, match=f"^line {line}: "):
        parse_lp(text)
    lp, sol = tmp_path / "r.lp", tmp_path / "r.sol"
    lp.write_text(text)
    assert curesched.lpsolve.main([str(lp), str(sol)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot parse {lp}: line {line}: ")
    assert err.count("\n") == 1
    assert not sol.exists()


@pytest.mark.parametrize("row, message", [
    ("x + y", "has no comparison operator"),
    ("x + y >= one", "has a right side that is not one integer"),
    ("x + y >=", "has a right side that is not one integer"),
    ("x + y >= 1 + z", "has a right side that is not one integer"),
    ("x + y >= 1.5", "has a right side that is not one integer"),
])
def test_parse_lp_rejects_a_row_it_cannot_read(row, message):
    text = f"Minimize\n obj: x\nSubject To\n c1: {row}\nEnd\n"
    with pytest.raises(ValueError, match=f"constraint 'c1' {message}"):
        parse_lp(text)


@pytest.mark.parametrize("objective, row, where", [
    ("x", "x + 3 >= 5", "constraint 'c1'"),
    ("x", "2 - x >= 5", "constraint 'c1'"),
    ("x + 4", "x >= 5", "the objective"),
])
def test_parse_lp_rejects_a_bare_constant_on_the_left(tmp_path, capsys,
                                                      objective, row, where):
    text = f"Minimize\n obj: {objective}\nSubject To\n c1: {row}\nEnd\n"
    with pytest.raises(ValueError, match=f"{where} cannot read the term"):
        parse_lp(text)
    lp, sol = tmp_path / "c.lp", tmp_path / "c.sol"
    lp.write_text(text)
    assert curesched.lpsolve.main([str(lp), str(sol)]) == 1
    assert "cannot parse" in capsys.readouterr().err
    assert not sol.exists()


@pytest.mark.parametrize("parts_mode", PARTS_MODES)
@pytest.mark.parametrize("make", [
    toy1, toy2,
    *(lambda s=s: generate_instance(SCENARIOS["small"], s) for s in (1, 2, 3)),
    lambda: generate_instance(SCENARIOS["medium"], 5),
], ids=["toy1", "toy2", "S01", "S02", "S03", "M05"])
def test_lp_round_trip_gives_the_same_arrays(make, parts_mode):
    """Also without an objective: the feasibility rung a ladder may send."""
    inst = make()
    for horizon in (2, 4):
        full = build_model(inst, horizon, parts_mode)
        for built in (full, dataclasses.replace(full, objective=())):
            parsed = parse_lp(emit_lp(built))
            col = {v.name: i for i, v in enumerate(parsed.variables)}
            assert sorted(col) == sorted(v.name for v in built.variables)
            perm = [col[v.name] for v in built.variables]
            want = curesched.lpsolve.to_arrays(built)
            got = curesched.lpsolve.to_arrays(parsed)
            assert (want[1] != got[1][:, perm]).nnz == 0  # A
            for i in (0, 4, 5, 6):  # c, lo, hi, integrality: one per column
                assert np.array_equal(want[i], got[i][perm]), (horizon, i)
            for i in (2, 3):  # row bounds
                assert np.array_equal(want[i], got[i]), (horizon, i)


def test_solution_file_round_trip():
    text = format_solution([("a", 2.0000004), ("b", 0.5), ("c", -1e-9)],
                           3.9999999)
    assert text == "a 2\nb 0.5\nc 0\nobjective 4\n"
    assert parse_solution("# comment\n\n" + text) == (
        {"a": 2, "b": 0.5, "c": 0}, 4)


@pytest.mark.parametrize("text", [
    "x 1\n",
    "x 1 2\nobjective 0\n",
    "x banana\nobjective 0\n",
    "x inf\nobjective 0\n",
    "x 1\nobjective nan\n",
])
def test_parse_solution_rejects_bad_files(text):
    with pytest.raises(SolutionParseError):
        parse_solution(text)


def _model_digest(cases):
    """sha256 over the LP text and the encoded horizon witness of each
    (instance, horizon) in both parts modes.  The witness keeps the tuples
    that end within the horizon: it is serial, so they are its prefix in
    time.  The assignment is hashed as sorted (name, value) pairs."""
    digest = hashlib.sha256()
    for inst, thb in cases:
        witness = Schedule([t for t in horizon_witness(inst).tuples
                            if t.start + t.length <= thb])
        for mode in PARTS_MODES:
            m = build_model(inst, thb, mode)
            digest.update(emit_lp(m).encode())
            assignment = sorted(schedule_to_assignment(m, witness).items())
            digest.update(json.dumps(assignment).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("make, thb, want", [
    (toy1, 2,
     "83b7eb833bbbff490c954d9a57791070615ae73fc57490e8b73c7efd72d4c13f"),
    (toy2, 2,
     "66912a22633d134dc4e71285ac6b8b5d8b3be25aecd02bb267b98b5633b7b9c9"),
    (lambda: generate_instance(SCENARIOS["small"], 1), 7,
     "6a835b03f17940586d80122a8a581c5bc1c8f2491783db6f64c6b6312d935bbf"),
    (lambda: generate_instance(SCENARIOS["small"], 2), 8,
     "d31cb65a174b9dcb0a4a4fdd57cc38ccca3b2cbd0a21495d6db6919c00a7ad0c"),
    (lambda: generate_instance(SCENARIOS["small"], 11), 8,
     "a56bb2cb3dc6629daa452f69464cc2ef1a1ead11ecdfafa01ffe301541558cf3"),
    (lambda: generate_instance(SCENARIOS["medium"], 1), 8,
     "41e037d9c46f2613eefebf061ea3773e3e35e912526aa056d023309ab03cdc25"),
    (lambda: generate_instance(SCENARIOS["large"], 2), 20,
     "48e8869d611783f2f3ac88b0583e3e2570dd42bacbd248efc02df86bfdb2d504"),
], ids=["toy1", "toy2", "S01", "S02", "S11", "M01", "L02"])
def test_lp_and_encoding_frozen(make, thb, want):
    """LP text and schedule encoding are byte-frozen at fixed horizons."""
    assert _model_digest([(make(), thb)]) == want


def test_lp_and_encoding_frozen_on_tiny_instances():
    cases = [(tiny_instance(seed), 6) for seed in range(1000, 1040)]
    assert _model_digest(cases) == (
        "6926d366557629837738664502018942651b9bf23fdc77c3c13a684cb2e44bd1")
