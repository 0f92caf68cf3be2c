"""Instance/schedule JSON I/O, the benchmark runner, and the CLI.

Frozen oracle values reused from the fixture instances:
  toy1: safe horizon 2, heuristic makespan 2, optimum 1; the 2-period
      model has 49 constraints, 12 binaries, 14 general integers.
  toy2: safe horizon 2, heuristic and optimum both 2; 51 constraints at
      the same horizon.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

import curesched.bench
import curesched.lpsolve
from curesched.bench import (
    MODES,
    cli_main,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_schedule,
    rows_to_csv,
    run_benchmark,
    save_instance,
    save_schedule,
    schedule_from_json,
    schedule_to_json,
    toy_instance,
)
from curesched.domain import (
    AssignmentTuple,
    Instance,
    Mold,
    Part,
    Schedule,
    validate_instance,
    validate_schedule,
)
from curesched.exact import SolveReport
from curesched.gen import SCENARIOS, generate_instance
from curesched.horizon import ModelStats
from curesched.lpformat import parse_lp, parse_solution
from curesched.milp import build_model, emit_lp, model_stats

from helpers import garbage_solver, toy1, toy2, variant

CSV_HEADER = ("instance,mode,thb,makespan,gap_pct,time_s,"
              "constraints,binary_vars,real_vars")
STUB_CMD = f"{sys.executable} -m curesched.lpsolve"


def fmt_avg(v):
    return str(int(v)) if float(v).is_integer() else f"{v:.2f}"


def save_toys(tmp_path):
    p1 = tmp_path / "toy1.json"
    p2 = tmp_path / "toy2.json"
    save_instance(toy1(), p1)
    save_instance(toy2(), p2)
    return p1, p2


# ── instance JSON ────────────────────────────────────────────────────


def test_instance_json_document_shape():
    doc = instance_to_json(toy2())
    assert set(doc) == {"name", "phi_dmin", "molds", "heaters",
                        "curing_dmin", "mold_compat", "parts", "init"}
    assert doc["name"] == "toy2"
    assert doc["phi_dmin"] == 14400
    assert doc["molds"][0] == {"id": 1, "nm": 1, "tc_dmin": 600,
                               "tq_dmin": 300, "demand": 10}
    assert doc["heaters"] == [1]
    assert doc["curing_dmin"] == [{"mold": 1, "heater": 1, "tv": 400},
                                  {"mold": 2, "heater": 1, "tv": 400}]
    assert doc["mold_compat"] == [[1, 1], [1, 2], [2, 2]]
    assert doc["parts"] == [{"id": 1, "np": 1, "molds": [1, 2]}]
    assert doc["init"] == []


def test_instance_json_round_trip_fields():
    src = variant(toy1(), init={(1, 1): 2})
    back = instance_from_json(instance_to_json(src))
    assert back.name == src.name
    assert back.period_dmin == src.period_dmin
    assert back.molds == src.molds
    assert back.heaters == src.heaters
    assert back.curing == src.curing
    assert back.mold_compat == src.mold_compat
    assert back.parts == src.parts
    assert back.init == {(1, 1): 2}


def test_instance_json_meta_round_trip():
    inst = generate_instance(SCENARIOS["small"], 4)
    doc = instance_to_json(inst)
    assert doc["meta"]["scenario"] == "small"
    back = instance_from_json(doc)
    assert back.meta == inst.meta


def test_generated_instances_round_trip(tmp_path):
    for scenario in ("small", "medium", "large"):
        for seed in (1, 2, 3):
            inst = generate_instance(SCENARIOS[scenario], seed)
            path = tmp_path / f"{inst.name}-{scenario}.json"
            save_instance(inst, path)
            back = load_instance(path)
            assert back.name == inst.name
            assert back.molds == inst.molds
            assert back.heaters == inst.heaters
            assert back.curing == inst.curing
            assert back.mold_compat == inst.mold_compat
            assert back.parts == inst.parts
            assert back.init == inst.init
            assert back.meta == inst.meta


def test_save_is_byte_stable(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_instance(toy1(), p1)
    save_instance(toy1(), p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.endswith(b"\n")


def test_instance_from_json_missing_fields():
    doc = instance_to_json(toy1())
    broken = {k: v for k, v in doc.items() if k != "heaters"}
    with pytest.raises(ValueError, match="heaters"):
        instance_from_json(broken)
    broken = json.loads(json.dumps(doc))
    del broken["molds"][0]["nm"]
    with pytest.raises(ValueError, match="nm"):
        instance_from_json(broken)
    with pytest.raises(ValueError):
        instance_from_json([1, 2, 3])


@pytest.mark.parametrize("path,value,message", [
    (("molds", 0, "demand"), 1.9,
     "mold entry: demand must be an integer, got 1.9"),
    (("molds", 0, "nm"), True, "mold entry: nm must be an integer, got True"),
    (("phi_dmin",), "14400",
     "instance: phi_dmin must be an integer, got '14400'"),
    (("curing_dmin", 0, "tv"), 400.0,
     "curing entry: tv must be an integer, got 400.0"),
    (("heaters", 0), 1.0,
     "instance: heaters entry must be an integer, got 1.0"),
    (("mold_compat", 0, 1), False,
     "instance: mold_compat entry must be an integer, got False"),
    (("init",), [{"mold": 1, "heater": 1, "count": 1.5}],
     "init entry: count must be an integer, got 1.5"),
    (("parts",), [{"id": 1, "np": 1, "molds": ["1"]}],
     "part entry: molds entry must be an integer, got '1'"),
])
def test_instance_from_json_refuses_non_integers(path, value, message):
    doc = instance_to_json(toy1())
    *outer, key = path
    target = doc
    for step in outer:
        target = target[step]
    target[key] = value
    with pytest.raises(ValueError) as exc:
        instance_from_json(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("key,value,message", [
    ("molds", 5, "instance: molds must be a list, got 5"),
    ("mold_compat", [1],
     "instance: mold_compat entry must be a pair of integers, got 1"),
    ("mold_compat", [[1, 2, 3]],
     "instance: mold_compat entry must be a pair of integers, got [1, 2, 3]"),
    ("meta", 5, "instance: meta must be an object, got 5"),
    ("meta", [1, 2], "instance: meta must be an object, got [1, 2]"),
    ("meta", "x", "instance: meta must be an object, got 'x'"),
], ids=["molds-not-a-list", "compat-entry-not-a-list", "compat-entry-of-three",
        "meta-number", "meta-list", "meta-string"])
def test_malformed_instance_shape_is_a_one_line_usage_error(
        tmp_path, capsys, key, value, message):
    doc = instance_to_json(toy1())
    doc[key] = value
    with pytest.raises(ValueError) as exc:
        instance_from_json(doc)
    assert str(exc.value) == message
    path = tmp_path / "bad-shape.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["validate", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_instance_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.json"):
        load_instance(path)


def test_packaged_toy_fixtures():
    for name, make in (("toy1", toy1), ("toy2", toy2)):
        packaged = toy_instance(name)
        ref = make()
        assert packaged.name == ref.name
        assert packaged.period_dmin == ref.period_dmin
        assert packaged.molds == ref.molds
        assert packaged.heaters == ref.heaters
        assert packaged.curing == ref.curing
        assert packaged.mold_compat == ref.mold_compat
        assert packaged.parts == ref.parts
        assert packaged.init == ref.init
    with pytest.raises(ValueError):
        toy_instance("toy9")


def test_packaged_toy_bytes_match_serializer():
    for name in ("toy1", "toy2"):
        raw = (resources.files("curesched") / "data" / f"{name}.json").read_text()
        doc = instance_to_json(toy_instance(name))
        assert raw == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ── schedule JSON ────────────────────────────────────────────────────


def test_schedule_json_shape():
    sched = Schedule(tuples=[AssignmentTuple(id=1, m1=2, m2=1, q=5,
                                             heater=1, start=0, length=2)])
    doc = schedule_to_json(sched)
    assert doc == [{"id": 1, "m1": 1, "m2": 2, "q": 5,
                    "heater": 1, "start": 0, "length": 2}]


def test_schedule_file_round_trip(tmp_path):
    from curesched.heuristic import HeuristicConfig, run_heuristic
    sched = run_heuristic(toy1(), HeuristicConfig(total_iterations=20, seed=1))
    path = tmp_path / "sched.json"
    save_schedule(sched, path)
    back = load_schedule(path)
    assert back.tuples == sched.tuples
    assert validate_schedule(toy1(), back).ok


def test_schedule_from_json_errors():
    with pytest.raises(ValueError):
        schedule_from_json({"not": "a list"})
    with pytest.raises(ValueError, match="q"):
        schedule_from_json([{"id": 1, "m1": 1, "m2": 2,
                             "heater": 1, "start": 0, "length": 1}])
    with pytest.raises(ValueError) as exc:
        schedule_from_json([{"id": 1, "m1": 1, "m2": 2, "q": 2.7,
                             "heater": 1, "start": 0, "length": 1}])
    assert str(exc.value) == (
        "schedule entry 0: q must be an integer, got 2.7")


def test_cli_validate_non_integer_is_a_usage_error(tmp_path, capsys):
    doc = instance_to_json(toy1())
    doc["molds"][0]["demand"] = 1.5
    path = tmp_path / "half.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["validate", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: mold entry: demand must be an integer, got 1.5\n")


# ── benchmark runner ─────────────────────────────────────────────────


def test_run_benchmark_rows(tmp_path):
    p1, p2 = save_toys(tmp_path)
    suite = {"instances": [str(p1), str(p2)], "modes": ["hop"],
             "iterations": 20, "seed": 1}
    rows = run_benchmark(suite)
    assert [r.instance for r in rows] == ["toy1", "toy2"]
    c1 = rows[0].cells["hop"]
    assert (c1.stats.thb, c1.makespan, c1.gap_percent) == (2, 1, 0.0)
    assert c1.stats == ModelStats(49, 12, 14, 2)
    assert c1.wall_seconds >= 0.0
    c2 = rows[1].cells["hop"]
    assert (c2.stats.thb, c2.makespan) == (2, 2)
    assert c2.stats == ModelStats(39, 6, 8, 2)


def test_run_benchmark_csv_frozen(tmp_path):
    p1, _ = save_toys(tmp_path)
    suite = {"instances": [str(p1)], "modes": ["milp", "hop"],
             "iterations": 20, "seed": 1}
    rows = run_benchmark(suite)
    assert rows_to_csv(rows, ["milp", "hop"]) == "\n".join([
        CSV_HEADER,
        "toy1,milp,2,1,0,,49,12,14",
        "toy1,hop,2,1,0,,49,12,14",
        "Average,milp,2,1,0,,49,12,14",
        "Average,hop,2,1,0,,49,12,14",
    ]) + "\n"


def test_run_benchmark_mixed_modes_csv(tmp_path):
    p1, p2 = save_toys(tmp_path)
    suite = {"instances": [str(p1), str(p2)], "modes": ["heuristic", "hop"],
             "iterations": 20, "seed": 1}
    rows = run_benchmark(suite)
    s2 = model_stats(build_model(toy2(), 2))
    avg_bin = fmt_avg((12 + s2.n_binary_vars) / 2)
    avg_int = fmt_avg((14 + s2.n_integer_vars) / 2)
    assert rows_to_csv(rows, ["heuristic", "hop"]) == "\n".join([
        CSV_HEADER,
        "toy1,heuristic,,2,,,,,",
        "toy1,hop,2,1,0,,49,12,14",
        "toy2,heuristic,,2,,,,,",
        f"toy2,hop,2,2,0,,39,{s2.n_binary_vars},{s2.n_integer_vars}",
        "Average,heuristic,,2,,,,,",
        f"Average,hop,2,1.50,0,,44,{avg_bin},{avg_int}",
    ]) + "\n"


def test_run_benchmark_infeasible_row_isolated(tmp_path):
    p1, p2 = save_toys(tmp_path)
    broken = variant(toy2(), name="broken",
                     parts=(Part(id=1, units=0, molds=frozenset({1, 2})),))
    pb = tmp_path / "broken.json"
    save_instance(broken, pb)
    suite = {"instances": [str(p1), str(pb), str(p2)], "modes": ["hop"],
             "iterations": 20, "seed": 1}
    rows = run_benchmark(suite)
    assert rows[1].cells["hop"].status == "infeasible"
    assert rows[1].cells["hop"].makespan is None
    lines = rows_to_csv(rows, ["hop"]).splitlines()
    assert lines[2] == "broken,hop,,infeasible,,,,,"
    assert lines[1].startswith("toy1,hop,2,1,")
    assert lines[3].startswith("toy2,hop,2,2,")
    assert lines[4].startswith("Average,hop,2,1.50,")


def zero_demand_toy1():
    return variant(toy1(), name="zero", molds=tuple(
        replace(m, demand=0) for m in toy1().molds))


def test_run_benchmark_edge_rows(tmp_path):
    """A zero-demand instance runs in every mode, and none searches a
    horizon.  An unreadable file gives `error` cells, which the averages
    leave out."""
    save_toys(tmp_path)
    save_instance(zero_demand_toy1(), tmp_path / "zero.json")
    (tmp_path / "bad.json").write_text("{ nope", encoding="utf-8")
    modes = ["heuristic", "milp", "hop"]
    suite = {"instances": ["zero.json", "bad.json", "toy1.json"],
             "modes": modes, "iterations": 20, "seed": 1}
    rows = run_benchmark(suite, base_dir=tmp_path)
    assert rows_to_csv(rows, modes) == "\n".join([
        CSV_HEADER,
        "zero,heuristic,,0,,,,,",
        "zero,milp,,0,0,,,,",
        "zero,hop,,0,0,,,,",
        "bad,heuristic,,error,,,,,",
        "bad,milp,,error,,,,,",
        "bad,hop,,error,,,,,",
        "toy1,heuristic,,2,,,,,",
        "toy1,milp,2,1,0,,49,12,14",
        "toy1,hop,2,1,0,,49,12,14",
        "Average,heuristic,,1,,,,,",
        "Average,milp,2,0.50,0,,49,12,14",
        "Average,hop,2,0.50,0,,49,12,14",
    ]) + "\n"


@pytest.mark.parametrize("mode, tail", [
    ("heuristic", "status feasible\nmakespan 0\n"),
    ("milp", "status optimal\nmakespan 0\ngap_pct 0\n"),
    ("hop", "status optimal\nmakespan 0\ngap_pct 0\n"),
])
def test_cli_solve_zero_demand_stdout(tmp_path, capsys, mode, tail):
    path = tmp_path / "zero.json"
    save_instance(zero_demand_toy1(), path)
    assert cli_main(["solve", "--instance", str(path), "--mode", mode]) == 0
    assert capsys.readouterr().out == f"instance zero\nmode {mode}\n" + tail


def test_run_benchmark_empty_suite():
    assert run_benchmark({"instances": [], "modes": ["hop"]}) == []
    assert rows_to_csv([], ["hop"]) == CSV_HEADER + "\n"


def test_run_benchmark_relative_paths_and_determinism(tmp_path):
    save_toys(tmp_path)
    suite = {"instances": ["toy1.json", "toy2.json"], "modes": ["hop"],
             "iterations": 20, "seed": 1}
    rows_a = run_benchmark(suite, base_dir=tmp_path)
    rows_b = run_benchmark(suite, base_dir=tmp_path)
    assert rows_to_csv(rows_a, ["hop"]) == rows_to_csv(rows_b, ["hop"])


def test_run_benchmark_adapter(tmp_path):
    p1, _ = save_toys(tmp_path)
    suite = {"instances": [str(p1)], "modes": ["milp"],
             "solver_cmd": STUB_CMD}
    rows = run_benchmark(suite)
    assert rows[0].cells["milp"].makespan == 1


def test_run_benchmark_malformed_solution_is_an_error_cell(tmp_path,
                                                          oracle_declines):
    """A solver that writes a malformed solution gives `error` cells, which
    the averages leave out; the zero-demand instance never calls it."""
    save_toys(tmp_path)
    save_instance(zero_demand_toy1(), tmp_path / "zero.json")
    modes = ["heuristic", "milp"]
    suite = {"instances": ["toy1.json", "zero.json"], "modes": modes,
             "iterations": 20, "seed": 1,
             "solver_cmd": garbage_solver(tmp_path)}
    rows = run_benchmark(suite, base_dir=tmp_path)
    assert rows_to_csv(rows, modes) == "\n".join([
        CSV_HEADER,
        "toy1,heuristic,,2,,,,,",
        "toy1,milp,,error,,,,,",
        "zero,heuristic,,0,,,,,",
        "zero,milp,,0,0,,,,",
        "Average,heuristic,,1,,,,,",
        "Average,milp,,0,0,,,,",
    ]) + "\n"


def unmet_stage(monkeypatch):
    """An oracle whose every schedule covers none of the demand."""
    unmet = Schedule(tuples=[])
    monkeypatch.setattr(
        "curesched.hop.solve_exact",
        lambda *args, **kwargs: SolveReport("exact", "optimal", 0, 0.0, 0.0,
                                            schedule=unmet))


def test_run_benchmark_invalid_stage_schedule_is_an_error_cell(
        tmp_path, monkeypatch):
    """A stage schedule that fails the validator is a solver fault, even
    where the heuristic holds a valid one: its cell reads `error`."""
    p1, _ = save_toys(tmp_path)
    unmet_stage(monkeypatch)
    modes = ["heuristic", "milp", "hop"]
    rows = run_benchmark({"instances": [str(p1)], "modes": modes,
                          "iterations": 20, "seed": 1})
    assert rows_to_csv(rows, modes, average=False) == "\n".join([
        CSV_HEADER,
        "toy1,heuristic,,2,,,,,",
        "toy1,milp,,error,,,,,",
        "toy1,hop,,error,,,,,",
    ]) + "\n"


def test_csv_note_and_gap_rendering():
    full = SolveReport("exact", "feasible", 10, 18.1818, 0.5,
                       stats=ModelStats(n_constraints=100, n_binary_vars=20,
                                        n_integer_vars=30, thb=11))
    from curesched.bench import ResultRow
    row = ResultRow(instance="x", cells={"exact": full})
    lines = rows_to_csv([row], ["exact"]).splitlines()
    assert lines[1] == "x,exact,11,10,18.18,,100,20,30"
    stuck = SolveReport("exact", "limit", None, None, None)
    row = ResultRow(instance="y", cells={"exact": stuck})
    lines = rows_to_csv([row], ["exact"]).splitlines()
    assert lines[1] == "y,exact,,limit,,,,,"


def test_csv_record_time_column(tmp_path):
    p1, _ = save_toys(tmp_path)
    suite = {"instances": [str(p1)], "modes": ["heuristic"],
             "iterations": 20, "seed": 1}
    rows = run_benchmark(suite)
    timed = rows_to_csv(rows, ["heuristic"], record_time=True)
    cell = timed.splitlines()[1].split(",")[5]
    assert cell != ""
    float(cell)


# ── CLI: solve ───────────────────────────────────────────────────────


def test_cli_solve_hop_stdout(tmp_path, capsys):
    p1, _ = save_toys(tmp_path)
    rc = cli_main(["solve", "--instance", str(p1), "--mode", "hop"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "instance toy1\n"
        "mode hop\n"
        "status optimal\n"
        "makespan 1\n"
        "gap_pct 0\n"
        "thb 2\n"
        "constraints 49\n"
        "binary_vars 12\n"
        "real_vars 14\n"
    )


def test_cli_solve_heuristic_deterministic(tmp_path, capsys):
    _, p2 = save_toys(tmp_path)
    args = ["solve", "--instance", str(p2), "--mode", "heuristic",
            "--seed", "7", "--iterations", "100"]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert first == ("instance toy2\n"
                     "mode heuristic\n"
                     "status feasible\n"
                     "makespan 2\n")
    assert cli_main(args) == 0
    assert capsys.readouterr().out == first


MILP_TOY1_STDOUT = ("instance toy1\n"
                    "mode milp\n"
                    "status optimal\n"
                    "makespan 1\n"
                    "gap_pct 0\n"
                    "thb 2\n"
                    "constraints 49\n"
                    "binary_vars 12\n"
                    "real_vars 14\n")


def test_cli_solve_exact_stdout(tmp_path, capsys):
    """milp without --solver-cmd is answered by the internal exact search."""
    p1, _ = save_toys(tmp_path)
    assert cli_main(["solve", "--instance", str(p1), "--mode", "milp"]) == 0
    assert capsys.readouterr().out == MILP_TOY1_STDOUT


def test_cli_solve_milp_internal_and_adapter(tmp_path, capsys):
    p1, _ = save_toys(tmp_path)
    assert cli_main(["solve", "--instance", str(p1), "--mode", "milp"]) == 0
    internal = capsys.readouterr().out
    rc = cli_main(["solve", "--instance", str(p1), "--mode", "milp",
                   "--solver-cmd", STUB_CMD])
    assert rc == 0
    assert capsys.readouterr().out == internal == MILP_TOY1_STDOUT


def test_cli_solve_out_csv(tmp_path, capsys):
    p1, _ = save_toys(tmp_path)
    out = tmp_path / "res.csv"
    assert cli_main(["solve", "--instance", str(p1), "--mode", "hop",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == CSV_HEADER + "\ntoy1,hop,2,1,0,,49,12,14\n"


def test_cli_solve_out_csv_exact(tmp_path, capsys):
    """The CSV row of milp's internal exact search."""
    p1, _ = save_toys(tmp_path)
    out = tmp_path / "res.csv"
    assert cli_main(["solve", "--instance", str(p1), "--mode", "milp",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == CSV_HEADER + "\ntoy1,milp,2,1,0,,49,12,14\n"


def test_cli_solve_schedule_out(tmp_path, capsys):
    p1, _ = save_toys(tmp_path)
    spath = tmp_path / "sched.json"
    assert cli_main(["solve", "--instance", str(p1), "--mode", "hop",
                     "--schedule-out", str(spath)]) == 0
    capsys.readouterr()
    sched = load_schedule(spath)
    assert validate_schedule(toy1(), sched).ok
    doc = json.loads(spath.read_text())
    assert isinstance(doc, list) and doc
    assert set(doc[0]) == {"id", "m1", "m2", "q", "heater", "start", "length"}


def test_cli_solve_emit_lp(tmp_path, capsys):
    p1, _ = save_toys(tmp_path)
    lp_path = tmp_path / "model.lp"
    assert cli_main(["solve", "--instance", str(p1), "--mode", "milp",
                     "--emit-lp", str(lp_path)]) == 0
    capsys.readouterr()
    parsed = parse_lp(lp_path.read_text())
    stats = model_stats(build_model(toy1(), 2))
    assert len(parsed.constraints) == stats.n_constraints == 49
    binaries = [v for v in parsed.variables if v.kind == "binary"]
    assert len(binaries) == stats.n_binary_vars == 12
    upad = [v for v in parsed.variables
            if v.kind == "general" and v.name.startswith(("u_", "prd_"))]
    assert len(upad) == stats.n_integer_vars == 14


@pytest.mark.parametrize("mode", ["hop", "milp"])
def test_cli_solve_emit_lp_at_zero_demand(tmp_path, capsys, mode):
    """With nothing to cure no stage runs, and `--emit-lp` still writes the
    model: the horizon-0 one, which the bundled solver solves."""
    idle = variant(toy1(), name="idle", molds=tuple(
        replace(m, demand=0) for m in toy1().molds))
    path, lp, sol = (tmp_path / f"idle.{ext}" for ext in ("json", "lp", "sol"))
    save_instance(idle, path)
    assert cli_main(["solve", "--instance", str(path), "--mode", mode,
                     "--emit-lp", str(lp)]) == 0
    assert "status optimal\n" in capsys.readouterr().out
    assert lp.read_text() == emit_lp(build_model(idle, 0))
    assert curesched.lpsolve.main([str(lp), str(sol)]) == 0
    assert parse_solution(sol.read_text())[1] == 0


def test_cli_solve_emit_lp_heuristic_is_usage_error(tmp_path, capsys):
    p1, _ = save_toys(tmp_path)
    rc = cli_main(["solve", "--instance", str(p1), "--mode", "heuristic",
                   "--emit-lp", str(tmp_path / "x.lp")])
    capsys.readouterr()
    assert rc == 2


def test_cli_solve_record_time(tmp_path, capsys):
    p1, _ = save_toys(tmp_path)
    out = tmp_path / "res.csv"
    assert cli_main(["solve", "--instance", str(p1), "--mode", "heuristic",
                     "--out", str(out), "--record-time"]) == 0
    assert "time_s " in capsys.readouterr().out
    cell = out.read_text().splitlines()[1].split(",")[5]
    float(cell)


def test_cli_solve_infeasible_exit(tmp_path, capsys):
    broken = variant(toy2(), name="broken",
                     parts=(Part(id=1, units=0, molds=frozenset({1, 2})),))
    pb = tmp_path / "broken.json"
    save_instance(broken, pb)
    rc = cli_main(["solve", "--instance", str(pb), "--mode", "hop"])
    assert rc == 1
    assert "status infeasible" in capsys.readouterr().out


@pytest.mark.parametrize("mode, cell", [
    ("heuristic", ",,infeasible,,,,,"),
    ("hop", ",,infeasible,,,,,"),
    ("milp", ",1,infeasible,,,22,4,5"),
])
def test_cli_solve_admissible_instance_without_a_schedule(tmp_path, capsys,
                                                          mode, cell):
    """The heater starts holding both copies of mold 1, each of which
    takes 8000 of the period's 14400 deciminutes to remove, and mold 2
    cures only there: the instance is admissible, but the heater can never
    empty.  Every mode exits 1 at "infeasible", with no violation lines;
    `heuristic` and `hop` find no schedule at all, `milp` refutes its
    horizon."""
    stuck = Instance(
        name="stuck", period_dmin=14400,
        molds=(Mold(id=1, copies=2, setup_dmin=600, removal_dmin=8000,
                    demand=0),
               Mold(id=2, copies=1, setup_dmin=600, removal_dmin=300,
                    demand=5)),
        heaters=(1,), curing={(1, 1): 400, (2, 1): 400},
        mold_compat=((1, 1), (2, 2)), parts=(), init={(1, 1): 2})
    assert validate_instance(stuck).ok
    path = tmp_path / "stuck.json"
    save_instance(stuck, path)
    out_csv = tmp_path / "stuck.csv"
    rc = cli_main(["solve", "--instance", str(path), "--mode", mode,
                   "--out", str(out_csv)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out.startswith(f"instance stuck\nmode {mode}\nstatus infeasible\n")
    assert "makespan" not in out and err == ""
    assert out_csv.read_text().splitlines()[1] == f"stuck,{mode}{cell}"


INADMISSIBLE = {
    "zero-cure": lambda d: d["curing_dmin"][0].update(tv=0),
    "curing-unknown-mold": lambda d: d["curing_dmin"].append(
        {"mold": 99, "heater": 1, "tv": 400}),
    "init-unknown-mold": lambda d: d["init"].append(
        {"mold": 99, "heater": 1, "count": 1}),
    "zero-period": lambda d: d.update(phi_dmin=0),
    "cure-above-period": lambda d: [e.update(tv=20000)
                                    for e in d["curing_dmin"]],
    "negative-setup": lambda d: d["molds"][0].update(tc_dmin=-5),
}


def save_inadmissible(tmp_path, kind):
    doc = instance_to_json(toy1())
    INADMISSIBLE[kind](doc)
    doc["name"] = kind
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("mode", ["heuristic", "milp", "hop"])
@pytest.mark.parametrize("kind", INADMISSIBLE)
def test_cli_solve_inadmissible_instance(tmp_path, capsys, kind, mode):
    path = save_inadmissible(tmp_path, kind)
    lp_path = tmp_path / "model.lp"
    args = ["solve", "--instance", str(path), "--mode", mode]
    if mode != "heuristic":
        args += ["--emit-lp", str(lp_path)]
    assert cli_main(args) == 1
    out, err = capsys.readouterr()
    assert out == f"instance {kind}\nmode {mode}\nstatus infeasible\n"
    assert err and all(line.startswith("violation: ")
                       for line in err.splitlines())
    assert not lp_path.exists()


def test_run_benchmark_records_inadmissible_instances(tmp_path):
    p1, _ = save_toys(tmp_path)
    paths = [str(save_inadmissible(tmp_path, kind)) for kind in INADMISSIBLE]
    suite = {"instances": paths + [str(p1)], "modes": ["milp", "hop"],
             "iterations": 20, "seed": 1}
    lines = rows_to_csv(run_benchmark(suite), ["milp", "hop"]).splitlines()
    assert lines[1:-2] == [f"{kind},{mode},,infeasible,,,,,"
                           for kind in INADMISSIBLE
                           for mode in ("milp", "hop")] + [
        "toy1,milp,2,1,0,,49,12,14", "toy1,hop,2,1,0,,49,12,14"]


def test_cli_solve_exact_time_limit_exit(tmp_path, capsys):
    """A `milp` run whose exact stage the time limit stops with a schedule
    exits 3 and writes it.  M05's first component finds 16 within 0.5 s of
    its 1.5 s share and cannot prove it; the second proves 4 in 0.2 s."""
    inst = generate_instance(SCENARIOS["medium"], 5)
    path = tmp_path / "M05.json"
    save_instance(inst, path)
    spath = tmp_path / "sched.json"
    rc = cli_main(["solve", "--instance", str(path), "--mode", "milp",
                   "--time-limit", "3", "--schedule-out", str(spath)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "status feasible\nmakespan 16\n" in out
    assert validate_schedule(inst, load_schedule(spath)).ok


def test_cli_solve_milp_limit_before_any_schedule(tmp_path, capsys):
    """A `milp` run out of time with no schedule exits 3, prints no
    makespan and writes no schedule file.  A microsecond ends it before
    the first component's search starts, however fast the machine."""
    path = tmp_path / "M05.json"
    save_instance(generate_instance(SCENARIOS["medium"], 5), path)
    spath = tmp_path / "sched.json"
    rc = cli_main(["solve", "--instance", str(path), "--mode", "milp",
                   "--time-limit", "1e-6", "--schedule-out", str(spath)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "status limit\n" in out
    assert "makespan" not in out
    assert not spath.exists()


def test_cli_solve_exact_rejects_an_invalid_schedule(tmp_path, capsys,
                                                     monkeypatch):
    """The pipeline checks the exact stage's schedule before it stands: in
    `milp` and in `hop`, one that covers no demand is a solver fault, which
    exits 2 with one error line and writes no schedule."""
    p1, _ = save_toys(tmp_path)
    spath = tmp_path / "sched.json"
    unmet_stage(monkeypatch)
    for mode in ("milp", "hop"):
        rc = cli_main(["solve", "--instance", str(p1), "--mode", mode,
                       "--schedule-out", str(spath)])
        captured = capsys.readouterr()
        assert rc == 2, mode
        assert captured.out == ""
        assert captured.err.startswith(
            "error: solver produced an invalid schedule: ")
        assert captured.err.count("\n") == 1, captured.err
        assert not spath.exists()


# ── CLI: generate / bench / validate ─────────────────────────────────


def test_cli_generate_files(tmp_path, capsys):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    args = ["generate", "--scenario", "small", "--count", "3", "--seed", "5"]
    assert cli_main(args + ["--out-dir", str(d1)]) == 0
    out = capsys.readouterr().out
    names = ["S05.json", "S06.json", "S07.json"]
    assert sorted(p.name for p in d1.iterdir()) == names
    for n in names:
        assert n in out
        inst = load_instance(d1 / n)
        assert validate_instance(inst).ok
    assert cli_main(args + ["--out-dir", str(d2)]) == 0
    capsys.readouterr()
    for n in names:
        assert (d1 / n).read_bytes() == (d2 / n).read_bytes()


def test_cli_bench_runs_and_is_deterministic(tmp_path, capsys):
    save_toys(tmp_path)
    suite = {"instances": ["toy1.json", "toy2.json"],
             "modes": ["heuristic", "hop"], "iterations": 20, "seed": 1}
    spath = tmp_path / "suite.json"
    spath.write_text(json.dumps(suite), encoding="utf-8")
    c1 = tmp_path / "r1.csv"
    c2 = tmp_path / "r2.csv"
    assert cli_main(["bench", "--suite", str(spath), "--out", str(c1)]) == 0
    out = capsys.readouterr().out
    assert "Average" in out and "toy1" in out
    assert cli_main(["bench", "--suite", str(spath), "--out", str(c2)]) == 0
    capsys.readouterr()
    assert c1.read_bytes() == c2.read_bytes()
    assert c1.read_text().splitlines()[0] == CSV_HEADER


def test_cli_validate_instance_and_schedule(tmp_path, capsys):
    p1, _ = save_toys(tmp_path)
    assert cli_main(["validate", "--instance", str(p1)]) == 0
    assert capsys.readouterr().out == "ok\n"

    spath = tmp_path / "sched.json"
    assert cli_main(["solve", "--instance", str(p1), "--mode", "heuristic",
                     "--schedule-out", str(spath)]) == 0
    capsys.readouterr()
    assert cli_main(["validate", "--instance", str(p1),
                     "--schedule", str(spath)]) == 0
    assert capsys.readouterr().out == "ok\n"

    doc = json.loads(spath.read_text())
    doc[0]["q"] = 1000
    spath.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli_main(["validate", "--instance", str(p1),
                   "--schedule", str(spath)])
    assert rc == 1
    assert "violation" in capsys.readouterr().out


def test_cli_validate_bad_instance(tmp_path, capsys):
    doc = instance_to_json(toy1())
    doc["molds"][0]["demand"] = -5
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli_main(["validate", "--instance", str(path)])
    capsys.readouterr()
    assert rc == 1


def test_cli_usage_errors(tmp_path, capsys, oracle_declines):
    p1, _ = save_toys(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    unknown_mode = tmp_path / "unknown-mode.json"
    unknown_mode.write_text(json.dumps(
        {"instances": [str(p1)], "modes": ["banana"]}), encoding="utf-8")
    nan_limit = tmp_path / "nan-limit.json"
    nan_limit.write_text(json.dumps(
        {"instances": [str(p1)], "modes": ["milp"],
         "time_limit": float("nan")}), encoding="utf-8")
    exact_mode = tmp_path / "exact-mode.json"
    exact_mode.write_text(json.dumps(
        {"instances": [str(p1)], "modes": ["exact"]}), encoding="utf-8")
    malformed_suites = []
    for name, fields in (
            ("instances-string", {"instances": str(p1)}),
            ("instances-number", {"instances": [3]}),
            ("modes-string", {"modes": "hop"}),
            ("record-time-string", {"record_time": "no"}),
            ("parts-mode-unknown", {"instances": ["missing.json"],
                                    "parts_mode": "banana"})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"instances": [str(p1)], "modes": ["heuristic"]} | fields),
            encoding="utf-8")
        malformed_suites.append(["bench", "--suite", str(path), "--out",
                                 str(tmp_path / f"{name}.csv")])
    cases = [
        [],
        ["frobnicate"],
        ["solve", "--mode", "hop"],
        ["solve", "--instance", str(p1), "--mode", "banana"],
        ["solve", "--instance", str(p1), "--mode", "exact"],
        ["solve", "--instance", str(p1), "--mode", "heuristic",
         "--iterations", "-1"],
        ["solve", "--instance", str(p1), "--mode", "heuristic",
         "--time-limit", "-5"],
        ["solve", "--instance", str(p1), "--mode", "heuristic",
         "--time-limit", "nan"],
        ["solve", "--instance", str(tmp_path / "missing.json"), "--mode", "hop"],
        ["solve", "--instance", str(bad), "--mode", "hop"],
        ["bench", "--suite", str(tmp_path / "missing-suite.json"),
         "--out", str(tmp_path / "o.csv")],
        ["validate", "--instance", str(bad)],
        ["generate", "--scenario", "small", "--count", "0", "--seed", "1",
         "--out-dir", str(tmp_path / "gen")],
        ["bench", "--suite", str(unknown_mode), "--out", str(tmp_path / "o.csv")],
        ["bench", "--suite", str(nan_limit), "--out", str(tmp_path / "o.csv")],
        ["solve", "--instance", str(p1), "--mode", "milp",
         "--solver-cmd", garbage_solver(tmp_path)],
    ] + malformed_suites
    for args in cases:
        assert cli_main(args) == 2, args
        capsys.readouterr()
    for args in malformed_suites:
        assert not Path(args[-1]).exists(), args
    # `exact` is no mode: the suite is refused before anything runs
    out = tmp_path / "o.csv"
    assert cli_main(["bench", "--suite", str(exact_mode), "--out",
                     str(out)]) == 2
    assert capsys.readouterr().err == "error: suite: unknown mode 'exact'\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["solve", "--instance", "{toy1}", "--mode", "heuristic",
     "--out", "{tmp}/missing/x.csv"],
    ["solve", "--instance", "{toy1}", "--mode", "heuristic",
     "--schedule-out", "{tmp}/missing/x.json"],
    ["bench", "--suite", "{suite}", "--out", "{tmp}/missing/x.csv"],
    ["generate", "--scenario", "small", "--count", "1", "--seed", "1",
     "--out-dir", "{toy1}"],
])
def test_cli_unwritable_output_is_a_one_line_usage_error(tmp_path, capsys,
                                                         args):
    """An output path that cannot be written (a missing directory, or a
    file where a directory should go) exits 2 with one `error:` line."""
    p1, _ = save_toys(tmp_path)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [str(p1)],
                                 "modes": ["heuristic"]}), encoding="utf-8")
    args = [a.format(toy1=p1, tmp=tmp_path, suite=suite) for a in args]
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def run_cli_child(tmp_path, args, **kwargs):
    """`python -m curesched args` in `tmp_path`, beside the saved toys."""
    save_toys(tmp_path)
    src = str(Path(curesched.bench.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "curesched"] + args,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          stderr=subprocess.PIPE, text=True, timeout=60,
                          **kwargs)


CHILD_ARGS = [
    ["validate", "--instance", "toy1.json"],
    ["solve", "--instance", "toy1.json", "--mode", "heuristic"],
]


@pytest.mark.parametrize("args", CHILD_ARGS)
def test_cli_closed_stdout_exits_1_quietly(tmp_path, args):
    """A reader that has gone before any output is no traceback: the
    command exits 1 and writes nothing to stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli_child(tmp_path, args, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("args", CHILD_ARGS)
def test_cli_without_stdout_runs_quietly(tmp_path, args):
    """With fd 1 closed there is no stdout to fail: the command runs as
    usual and writes nothing to stderr."""
    proc = run_cli_child(tmp_path, args, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_cli_solve_milp_failing_solver_is_a_fault(tmp_path, capsys,
                                                  oracle_declines):
    """A solver that crashes is a fault, not a time limit: with no
    incumbent to keep, `milp` exits 2 with one error line, as it does on a
    malformed solution."""
    p1, _ = save_toys(tmp_path)
    crash = f"{sys.executable} -c 'import sys; sys.exit(1)'"
    rc = cli_main(["solve", "--instance", str(p1), "--mode", "milp",
                   "--solver-cmd", crash])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: solver exited with code 1: no output\n"


@pytest.mark.parametrize("key,value", [
    ("iterations", "10"), ("iterations", 2.5), ("iterations", True),
    ("seed", "1"), ("time_limit", "5"),
])
def test_run_benchmark_rejects_malformed_suite_numbers(tmp_path, key, value):
    p1, _ = save_toys(tmp_path)
    suite = {"instances": [str(p1)], "modes": ["heuristic"], key: value}
    with pytest.raises(ValueError, match=f"suite: {key} must be"):
        run_benchmark(suite)


@pytest.mark.parametrize("value", ["10", 2.5])
def test_cli_bench_malformed_iterations_is_a_usage_error(tmp_path, capsys,
                                                          value):
    p1, _ = save_toys(tmp_path)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [str(p1)],
                                 "modes": ["heuristic"],
                                 "iterations": value}), encoding="utf-8")
    out = tmp_path / "o.csv"
    assert cli_main(["bench", "--suite", str(suite), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: suite: iterations must be an integer, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("command", ["", " "])
def test_cli_blank_solver_command_is_a_usage_error(tmp_path, capsys, mode,
                                                   command):
    """A solver command that splits to no words names no program: every
    mode exits 2 with one error line, rather than falling back to the
    internal oracle or passing because the oracle settles the run."""
    p1, _ = save_toys(tmp_path)
    rc = cli_main(["solve", "--instance", str(p1), "--mode", mode,
                   "--solver-cmd", command])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: --solver-cmd names no command, got {command!r}\n")


@pytest.mark.parametrize("value,message", [
    ("", "names no command"), (" \t", "names no command"),
    (["lpsolve"], "must be a string"),
])
def test_run_benchmark_rejects_a_blank_solver_command(tmp_path, monkeypatch,
                                                      value, message):
    def never(*args, **kwargs):
        raise AssertionError("a malformed suite ran")

    monkeypatch.setattr(curesched.bench, "_solve_one", never)
    p1, _ = save_toys(tmp_path)
    suite = {"instances": [str(p1)], "modes": ["heuristic"],
             "solver_cmd": value}
    with pytest.raises(ValueError, match=f"suite: solver_cmd {message}"):
        run_benchmark(suite)


def test_cli_solve_hop_malformed_solution_keeps_the_heuristic(
        tmp_path, capsys, oracle_declines):
    """A solver that writes a malformed solution is a fault, as a failing
    one is: hop keeps its heuristic schedule and exits 3 at the limit."""
    p1, _ = save_toys(tmp_path)
    spath = tmp_path / "sched.json"
    rc = cli_main(["solve", "--instance", str(p1), "--mode", "hop",
                   "--iterations", "20", "--seed", "1",
                   "--solver-cmd", garbage_solver(tmp_path),
                   "--schedule-out", str(spath)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "status limit\nmakespan 2\n" in out
    assert validate_schedule(toy1(), load_schedule(spath)).ok


@pytest.mark.parametrize("limit", ["inf", "1e9"])
@pytest.mark.parametrize("command, rc, tail", [
    (STUB_CMD, 0, "status optimal\nmakespan 1\n"),
    ("false", 3, "status limit\nmakespan 2\n"),
], ids=["lpsolve", "false"])
def test_cli_solve_hop_takes_any_time_limit(tmp_path, capsys,
                                            oracle_declines, limit, command,
                                            rc, tail):
    """A limit too long for subprocess to wait on, `inf` too, runs the
    solver child with no bound on the wait: the bundled solver proves
    toy1, and a failing one leaves the heuristic's schedule at "limit"."""
    p1, _ = save_toys(tmp_path)
    assert cli_main(["solve", "--instance", str(p1), "--mode", "hop",
                     "--iterations", "20", "--seed", "1",
                     "--solver-cmd", command, "--time-limit", limit]) == rc
    captured = capsys.readouterr()
    assert tail in captured.out and captured.err == ""
