"""End-to-end acceptance checks for the whole toolkit.

Eleven checks, one test each, covering: exactness on a large tiny-instance
suite, the safe-horizon guarantee, the heuristic sandwich, validator
coverage, fixture values, model-size scaling, hybrid size dominance,
heuristic speed, determinism, objective structure, and LP round-trips.
Each test prints a single PASS/FAIL line naming the property.
"""

import time
from dataclasses import dataclass

import pytest

from curesched.bench import cli_main, save_instance
from curesched.domain import Schedule, schedule_makespan, validate_schedule
from curesched.exact import solve_exact
from curesched.gen import SCENARIOS, generate_instance
from curesched.heuristic import HeuristicConfig, run_heuristic
from curesched.hop import HopConfig, run_hop
from curesched.horizon import compute_thb
from curesched.lpformat import parse_lp
from curesched.milp import (
    build_model,
    emit_lp,
    model_stats,
    schedule_to_assignment,
)

from helpers import tiny_instance, toy1, toy2

TINY_SEEDS = tuple(range(1000, 1200))    # 200 distinct random tiny instances


@dataclass
class SolvedCase:
    inst: object
    thb: int
    heur_schedule: Schedule
    heur_makespan: int
    exact: object
    hop_report: object
    hop_schedule: Schedule


@dataclass
class SuiteData:
    rows: list
    build_seconds: float


def _report(num, label, ok, detail=""):
    line = f"[{num:>2}] {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tiny_suite():
    started = time.perf_counter()
    rows = []
    instances = [toy1(), toy2()] + [tiny_instance(s) for s in TINY_SEEDS]
    for inst in instances:
        thb = compute_thb(inst)
        cfg = HeuristicConfig(total_iterations=40, seed=1)
        heur = run_heuristic(inst, cfg)
        exact = solve_exact(inst, thb)
        hop_report, hop_schedule = run_hop(inst, HopConfig(heuristic=cfg))
        rows.append(SolvedCase(
            inst=inst,
            thb=thb,
            heur_schedule=heur,
            heur_makespan=int(schedule_makespan(heur)),
            exact=exact,
            hop_report=hop_report,
            hop_schedule=hop_schedule,
        ))
    return SuiteData(rows=rows, build_seconds=time.perf_counter() - started)


def test_01_tiny_suite_exactness(tiny_suite):
    rows = tiny_suite.rows
    proved = [r for r in rows if r.hop_report.status == "optimal"]
    mismatches = [r.inst.name for r in proved
                  if r.exact.makespan != r.hop_report.makespan]
    unproved_exact = [r.inst.name for r in rows if r.exact.status != "optimal"]
    ok = not mismatches and not unproved_exact and len(proved) > 0
    _report(1, "exact optimum equals the proven hybrid makespan on the"
               " tiny suite", ok,
            f"{len(proved)}/{len(rows)} proved, {len(mismatches)} mismatches,"
            f" suite solved in {tiny_suite.build_seconds:.0f}s")


def test_02_safe_horizon_covers_optimum(tiny_suite):
    rows = tiny_suite.rows
    bad = [r.inst.name for r in rows if r.thb < r.exact.makespan]
    _report(2, "safe horizon bound is >= the exact optimum on every tiny"
               " instance", not bad,
            f"{len(rows) - len(bad)}/{len(rows)} hold")


def test_03_heuristic_between_optimum_and_horizon(tiny_suite):
    rows = tiny_suite.rows
    bad = [r for r in rows
           if not r.exact.makespan <= r.heur_makespan <= r.thb]
    # The upper side holds because run_heuristic keeps the horizon witness
    # (the bound's serial schedule) when it beats every start: where a
    # single-unit part or a single heater serializes the copy-parallel
    # batches (ceil(demand / copies) per tuple), the starts alone can run
    # past the safe horizon.
    detail = f"{len(rows) - len(bad)}/{len(rows)} hold"
    if bad:
        detail += "; violations: " + ", ".join(
            f"{r.inst.name} (optimum {r.exact.makespan}, heuristic"
            f" {r.heur_makespan}, horizon {r.thb})" for r in bad)
    _report(3, "optimum <= heuristic makespan <= safe horizon on every tiny"
               " instance", not bad, detail)


def test_04_every_schedule_validates(tiny_suite):
    rows = tiny_suite.rows
    violations = 0
    checked = 0
    for r in rows:
        for sched in (r.heur_schedule, r.exact.schedule, r.hop_schedule):
            if sched is None:
                continue
            checked += 1
            violations += len(validate_schedule(r.inst, sched).violations)
    _report(4, "every heuristic, exact, and hybrid schedule passes the"
               " validator", violations == 0,
            f"{checked} schedules, {violations} violations")


def test_05_fixture_instances():
    results = []
    for inst, want_heur, want_opt in ((toy1(), 2, 1), (toy2(), 2, 2)):
        thb = compute_thb(inst)
        heur = int(schedule_makespan(run_heuristic(inst, HeuristicConfig())))
        opt = solve_exact(inst, thb).makespan
        results.append((inst.name, thb, heur, opt, want_heur, want_opt))
    ok = all(thb == 2 and heur == wh and opt == wo
             for _, thb, heur, opt, wh, wo in results)
    detail = "; ".join(f"{n}: thb {t} heur {h} opt {o}"
                       for n, t, h, o, _, _ in results)
    _report(5, "fixture instances hit their frozen horizon, heuristic, and"
               " optimal values", ok, detail)


def test_06_model_size_affine_in_horizon():
    cases = [generate_instance(SCENARIOS["small"], 1),
             generate_instance(SCENARIOS["small"], 7),
             generate_instance(SCENARIOS["medium"], 1)]
    bad = []
    for inst in cases:
        s5, s10, s20 = (model_stats(build_model(inst, t)) for t in (5, 10, 20))
        for field in ("n_constraints", "n_binary_vars", "n_integer_vars"):
            lo = getattr(s10, field) - getattr(s5, field)
            hi = getattr(s20, field) - getattr(s10, field)
            if hi != 2 * lo:
                bad.append(f"{inst.name}.{field}")
    _report(6, "model size is affine in the horizon length with zero"
               " residual", not bad, f"checked {len(cases)} instances at"
            " horizons 5/10/20")


def test_07_hybrid_model_strictly_smaller():
    ratios = []
    not_strict = []
    for seed in range(1, 16):
        inst = generate_instance(SCENARIOS["small"], seed)
        base = model_stats(build_model(inst, compute_thb(inst)))
        cfg = HopConfig(heuristic=HeuristicConfig(total_iterations=100,
                                                  seed=seed),
                        time_limit_seconds=2.0)
        rep, _ = run_hop(inst, cfg)
        hs = rep.stats
        base_vars = base.n_binary_vars + base.n_integer_vars
        hop_vars = hs.n_binary_vars + hs.n_integer_vars
        if not (hs.n_constraints < base.n_constraints
                and hop_vars < base_vars):
            not_strict.append(inst.name)
        ratios.append(hs.n_constraints / base.n_constraints)
    mean_ratio = sum(ratios) / len(ratios)
    ok = not not_strict and mean_ratio <= 0.75
    _report(7, "hybrid model is strictly smaller than the safe-horizon"
               " baseline on all 15 small instances", ok,
            f"mean constraint ratio {mean_ratio:.2f}, worst"
            f" {max(ratios):.2f}")


def test_08_heuristic_under_two_seconds():
    runs = [(generate_instance(SCENARIOS["small"], s), 100)
            for s in range(1, 16)]
    runs += [(generate_instance(SCENARIOS["medium"], s), 250)
             for s in range(1, 11)]
    worst = 0.0
    slow = []
    for inst, iterations in runs:
        started = time.perf_counter()
        run_heuristic(inst, HeuristicConfig(total_iterations=iterations,
                                            seed=1))
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        if elapsed >= 2.0:
            slow.append(f"{inst.name}:{elapsed:.2f}s")
    _report(8, "heuristic finishes under 2 s on every small and medium"
               " instance at full iteration counts", not slow,
            f"{len(runs)} runs, slowest {worst:.2f}s")


def test_09_deterministic_runs(tmp_path, capsys):
    inst = generate_instance(SCENARIOS["small"], 3)
    ipath = tmp_path / "inst.json"
    save_instance(inst, ipath)
    outputs = []
    csvs = []
    for tag in ("a", "b"):
        out = tmp_path / f"res-{tag}.csv"
        rc = cli_main(["solve", "--instance", str(ipath),
                       "--mode", "heuristic", "--seed", "11",
                       "--iterations", "100", "--out", str(out)])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
        csvs.append(out.read_bytes())
    gen_dirs = []
    for tag in ("a", "b"):
        d = tmp_path / f"gen-{tag}"
        rc = cli_main(["generate", "--scenario", "small", "--count", "5",
                       "--seed", "21", "--out-dir", str(d)])
        assert rc == 0
        capsys.readouterr()
        gen_dirs.append(sorted(d.iterdir()))
    same_files = all(p1.name == p2.name and p1.read_bytes() == p2.read_bytes()
                     for p1, p2 in zip(*gen_dirs))
    ok = (outputs[0] == outputs[1] and csvs[0] == csvs[1] and same_files
          and len(gen_dirs[0]) == 5)
    with capsys.disabled():
        pass
    _report(9, "repeated runs give identical makespans, result bytes, and"
               " generated files", ok,
            "2 solve runs, 2 generate runs compared")


def test_10_objective_counts_active_prefix(tiny_suite):
    rows = tiny_suite.rows
    bad = []
    for r in rows:
        if r.exact.schedule is None:
            continue
        model = build_model(r.inst, r.thb)
        assignment = schedule_to_assignment(model, r.exact.schedule)
        w = [assignment.get(f"w_{t}", 0) for t in range(1, r.thb + 1)]
        last_active = 0
        for name, value in assignment.items():
            if value and name.startswith("z_"):
                last_active = max(last_active, int(name.rsplit("_", 1)[1]))
        if any(a < b for a, b in zip(w, w[1:])) or sum(w) != last_active:
            bad.append(r.inst.name)
    _report(10, "active-period indicators form a prefix whose length the"
                " objective counts", not bad,
            f"{len(rows) - len(bad)}/{len(rows)} encodings checked")


def test_11_lp_emission_round_trip():
    cases = [(toy1(), 2), (toy2(), 2),
             (generate_instance(SCENARIOS["small"], 1), 5),
             (generate_instance(SCENARIOS["small"], 2), 5),
             (generate_instance(SCENARIOS["medium"], 1), 5)]
    bad = []
    for inst, thb in cases:
        model = build_model(inst, thb)
        text = emit_lp(model)
        if text != emit_lp(build_model(inst, thb)):
            bad.append(f"{inst.name}: unstable bytes")
            continue
        parsed = parse_lp(text)
        stats = model_stats(model)
        integers = [v for v in parsed.variables if v.kind == "general"
                    and v.name.startswith(("u_", "prd_"))]
        binaries = [v for v in parsed.variables if v.kind == "binary"]
        if (len(parsed.constraints) != stats.n_constraints
                or len(binaries) != stats.n_binary_vars
                or len(integers) != stats.n_integer_vars):
            bad.append(f"{inst.name}: counts diverge")
    _report(11, "emitted LP files are byte-stable and re-parse to the"
                " model's own counts", not bad,
            f"{len(cases)} models round-tripped")
