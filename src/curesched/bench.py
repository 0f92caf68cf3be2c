"""Command-line front end: instance files, experiment runs, result tables.

Instances travel as JSON documents (see `instance_to_json` for the exact
field layout), schedules as flat JSON lists of assignment tuples, and
benchmark results as CSV plus an aligned text table.  The `cli_main`
entry point exposes four subcommands:

    solve     one instance, one mode, key-value report on stdout
    generate  write a batch of scenario instances to a directory
    bench     run a suite file and emit the result table
    validate  check an instance file, optionally with a schedule

Exit codes: 0 solved/valid, 1 infeasible or invalid, 2 bad usage, a
malformed file or a solver fault, 3 a resource limit stopped the run early.
"""

import argparse
import csv
import io
import json
import os
import shlex
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .domain import (
    AssignmentTuple,
    Instance,
    Mold,
    Part,
    PARTS_MODES,
    PARTS_PER_HEATER,
    Schedule,
    schedule_makespan,
    validate_instance,
    validate_schedule,
)
from .errors import CureschedError, Infeasible
from .exact import SolveReport, SolverAdapter
from .gen import SCENARIOS, generate_instance
from .heuristic import HeuristicConfig, run_heuristic
from .hop import (
    HopConfig,
    SOLVER_ADAPTER,
    SOLVER_INTERNAL,
    run_baseline_milp,
    run_hop,
)

__all__ = [
    "ResultRow",
    "cli_main",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "load_schedule",
    "rows_to_csv",
    "rows_to_table",
    "run_benchmark",
    "save_instance",
    "save_schedule",
    "schedule_from_json",
    "schedule_to_json",
    "toy_instance",
]

MODES = ("heuristic", "milp", "hop")
TOY_NAMES = ("toy1", "toy2")

_COLUMNS = ("instance", "mode", "thb", "makespan", "gap_pct", "time_s",
            "constraints", "binary_vars", "real_vars")


# ── instance JSON ────────────────────────────────────────────────────


def _field(doc, key, where):
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object")
    if key not in doc:
        raise ValueError(f"{where}: missing field {key!r}")
    return doc[key]


def _list(doc, key, where):
    """The field `key` of `doc` when it is a JSON list; ValueError naming
    it otherwise."""
    value = _field(doc, key, where)
    if not isinstance(value, list):
        raise ValueError(f"{where}: {key} must be a list, got {value!r}")
    return value


def _pair(value, what):
    """A JSON list of two integers as a tuple; ValueError naming `what`
    otherwise."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{what} must be a pair of integers, got {value!r}")
    return tuple(_number(v, what) for v in value)


def _number(value, what, kinds=int):
    """`value` when it is a JSON number of `kinds`; ValueError naming `what`
    otherwise (JSON true and false are not numbers)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if kinds is int else "a number"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


def _ints(doc, where, *keys):
    """The integer fields `keys` of `doc`, in order; ValueError when one is
    absent or not a JSON integer, so 1.9, true and "14400" are refused,
    never rounded."""
    return tuple(_number(_field(doc, key, where), f"{where}: {key}")
                 for key in keys)


def instance_to_json(inst: Instance) -> dict:
    """Plain-JSON document for an instance; lists sorted for stable bytes."""
    doc = {
        "name": inst.name,
        "phi_dmin": inst.period_dmin,
        "molds": [
            {"id": m.id, "nm": m.copies, "tc_dmin": m.setup_dmin,
             "tq_dmin": m.removal_dmin, "demand": m.demand}
            for m in inst.molds
        ],
        "heaters": list(inst.heaters),
        "curing_dmin": [
            {"mold": m, "heater": k, "tv": tv}
            for (m, k), tv in sorted(inst.curing.items())
        ],
        "mold_compat": [list(p) for p in sorted(inst.mold_compat)],
        "parts": [
            {"id": p.id, "np": p.units, "molds": sorted(p.molds)}
            for p in inst.parts
        ],
        "init": [
            {"mold": m, "heater": k, "count": c}
            for (m, k), c in sorted(inst.init.items())
        ],
    }
    if inst.meta:
        doc["meta"] = dict(inst.meta)
    return doc


def instance_from_json(doc) -> Instance:
    """Inverse of `instance_to_json`; structural errors become ValueError."""
    molds = tuple(
        Mold(*_ints(m, "mold entry", "id", "nm", "tc_dmin", "tq_dmin",
                    "demand"))
        for m in _list(doc, "molds", "instance"))
    curing = {(m, k): tv for m, k, tv in (
        _ints(e, "curing entry", "mold", "heater", "tv")
        for e in _list(doc, "curing_dmin", "instance"))}
    parts = tuple(
        Part(*_ints(p, "part entry", "id", "np"),
             molds=frozenset(_number(v, "part entry: molds entry")
                             for v in _list(p, "molds", "part entry")))
        for p in _list(doc, "parts", "instance"))
    init = {(m, k): c for m, k, c in (
        _ints(e, "init entry", "mold", "heater", "count")
        for e in _list(doc, "init", "instance"))}
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise ValueError(f"instance: meta must be an object, got {meta!r}")
    return Instance(
        name=str(_field(doc, "name", "instance")),
        period_dmin=_ints(doc, "instance", "phi_dmin")[0],
        molds=molds,
        heaters=tuple(_number(h, "instance: heaters entry")
                      for h in _list(doc, "heaters", "instance")),
        curing=curing,
        mold_compat=tuple(_pair(p, "instance: mold_compat entry")
                          for p in _list(doc, "mold_compat", "instance")),
        parts=parts,
        init=init,
        meta=meta,
    )


def save_instance(inst: Instance, path) -> None:
    text = json.dumps(instance_to_json(inst), indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _read_json(path):
    """The JSON document in a file; unreadable or malformed is ValueError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def load_instance(path) -> Instance:
    return instance_from_json(_read_json(path))


def toy_instance(name: str) -> Instance:
    """One of the packaged fixture instances, by name."""
    if name not in TOY_NAMES:
        raise ValueError(
            f"unknown fixture {name!r}; available: {', '.join(TOY_NAMES)}")
    raw = (resources.files("curesched") / "data" / f"{name}.json").read_text(
        encoding="utf-8")
    return instance_from_json(json.loads(raw))


# ── schedule JSON ────────────────────────────────────────────────────


def schedule_to_json(schedule: Schedule) -> list:
    return [
        {"id": t.id, "m1": t.m1, "m2": t.m2, "q": t.q,
         "heater": t.heater, "start": t.start, "length": t.length}
        for t in schedule.tuples
    ]


def schedule_from_json(doc) -> Schedule:
    if not isinstance(doc, list):
        raise ValueError("schedule document: expected a JSON list")
    return Schedule(tuples=[
        AssignmentTuple(*_ints(entry, f"schedule entry {idx}", "id", "m1",
                               "m2", "q", "heater", "start", "length"))
        for idx, entry in enumerate(doc)])


def save_schedule(schedule: Schedule, path) -> None:
    text = json.dumps(schedule_to_json(schedule), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_schedule(path) -> Schedule:
    return schedule_from_json(_read_json(path))


# ── result rows ──────────────────────────────────────────────────────


@dataclass
class ResultRow:
    """One instance's runs: mode -> its SolveReport."""

    instance: str
    cells: dict


def _numbers(rep: SolveReport, record_time: bool) -> dict:
    """The numeric columns of a run, by column name; None where it has no
    value, and for the time unless it is recorded.  CSV cells, `Average`
    rows and `solve`'s stdout all read it."""
    stats = rep.stats
    return {
        "thb": None if stats is None else stats.thb,
        "makespan": rep.makespan,
        "gap_pct": rep.gap_percent,
        "time_s": rep.wall_seconds if record_time else None,
        "constraints": None if stats is None else stats.n_constraints,
        "binary_vars": None if stats is None else stats.n_binary_vars,
        "real_vars": None if stats is None else stats.n_integer_vars,
    }


def _fmt(column, v, average=False):
    if v is None:
        return ""
    if column == "time_s":
        return f"{v:.2f}"
    if average:
        return str(int(v)) if float(v).is_integer() else f"{v:.2f}"
    if column == "gap_pct":
        return "0" if v == 0 else f"{v:.2f}"
    return str(v)


def _cell_strings(instance, mode, rep, record_time):
    nums = _numbers(rep, record_time)
    if rep.makespan is None:
        nums["makespan"] = rep.status
    return [instance, mode] + [_fmt(c, nums[c]) for c in _COLUMNS[2:]]


def _average_strings(rows, mode, record_time):
    nums = [_numbers(row.cells[mode], record_time)
            for row in rows if mode in row.cells]
    out = ["Average", mode]
    for c in _COLUMNS[2:]:
        vals = [n[c] for n in nums if n[c] is not None]
        mean = sum(vals) / len(vals) if vals else None
        out.append(_fmt(c, mean, average=True))
    return out


def _table_rows(rows, modes, record_time, average):
    out = [list(_COLUMNS)]
    for row in rows:
        for mode in modes:
            cell = row.cells.get(mode)
            if cell is not None:
                out.append(_cell_strings(row.instance, mode, cell,
                                         record_time))
    if average and rows:
        for mode in modes:
            out.append(_average_strings(rows, mode, record_time))
    return out


def rows_to_csv(rows, modes, record_time=False, average=True) -> str:
    """CSV text for result rows; one line per (instance, mode), then one
    arithmetic-mean line per mode.  Byte-stable unless times are recorded
    or a row's time limit binds, where the result depends on machine speed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for line in _table_rows(rows, modes, record_time, average):
        writer.writerow(line)
    return buf.getvalue()


def rows_to_table(rows, modes, record_time=False, average=True) -> str:
    """The same rows rendered as an aligned, human-readable text table."""
    table = _table_rows(rows, modes, record_time, average)
    widths = [max(len(r[i]) for r in table) for i in range(len(_COLUMNS))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        for r in table
    ]
    return "\n".join(lines) + "\n"


# ── solving one (instance, mode) ─────────────────────────────────────


def _given(**values) -> dict:
    """The keyword arguments a caller set; None leaves the default."""
    return {k: v for k, v in values.items() if v is not None}


def _solver_adapter(solver_cmd, what="--solver-cmd"):
    """The adapter a solver command string names, None when none is given;
    ValueError naming `what` when the command is not a string or splits to
    no words (a blank command must not fall back to the internal oracle)."""
    if solver_cmd is None:
        return None
    if not isinstance(solver_cmd, str):
        raise ValueError(f"{what} must be a string, got {solver_cmd!r}")
    command = tuple(shlex.split(solver_cmd))
    if not command:
        raise ValueError(f"{what} names no command, got {solver_cmd!r}")
    return SolverAdapter(command)


def _solve_one(inst, mode, iterations=None, seed=None, time_limit=None,
               parts_mode=PARTS_PER_HEATER, solver_cmd=None) -> SolveReport:
    """One run of `mode` on `inst`, as its SolveReport.

    An inadmissible instance is not run: its violations go to stderr and
    its report is "infeasible", as is a run that finds no schedule.
    """
    heuristic_cfg = HeuristicConfig(
        parts_mode=parts_mode,
        **_given(total_iterations=iterations, seed=seed))
    # built in every mode, so a bad limit or command is a usage error even
    # where nothing reads it
    adapter = _solver_adapter(solver_cmd)
    cfg = HopConfig(
        heuristic=heuristic_cfg,
        solver=SOLVER_ADAPTER if adapter else SOLVER_INTERNAL,
        parts_mode=parts_mode,
        adapter=adapter,
        **_given(time_limit_seconds=time_limit))
    violations = validate_instance(inst).violations
    if violations:
        print("\n".join(f"violation: {v}" for v in violations),
              file=sys.stderr)
        return SolveReport(mode, "infeasible", None, None, 0.0)
    started = time.perf_counter()
    try:
        if mode == "heuristic":
            sched = run_heuristic(inst, heuristic_cfg)
            return SolveReport(mode, "feasible", int(schedule_makespan(sched)),
                               None, time.perf_counter() - started,
                               schedule=sched)
        run = run_hop if mode == "hop" else run_baseline_milp
        return run(inst, cfg)[0]
    except Infeasible:
        return SolveReport(mode, "infeasible", None, None,
                           time.perf_counter() - started)


def _suite_number(suite, key, kinds):
    """The suite's `key`, None when absent; ValueError when it is not of
    `kinds` (JSON true and false are not numbers)."""
    value = suite.get(key)
    return None if value is None else _number(value, f"suite: {key}", kinds)


def _parse_suite(suite):
    """The checked (instances, modes, options, record_time) of a suite."""
    instances = _list(suite, "instances", "suite")
    modes = _list(suite, "modes", "suite")
    for path in instances:
        if not isinstance(path, str):
            raise ValueError(f"suite: instances entry must be a string, "
                             f"got {path!r}")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"suite: unknown mode {mode!r}")
    parts_mode = suite.get("parts_mode", PARTS_PER_HEATER)
    if parts_mode not in PARTS_MODES:
        raise ValueError(f"suite: unknown parts_mode {parts_mode!r}")
    record_time = suite.get("record_time", False)
    if not isinstance(record_time, bool):
        raise ValueError(
            f"suite: record_time must be true or false, got {record_time!r}")
    options = dict(
        iterations=_suite_number(suite, "iterations", int),
        seed=_suite_number(suite, "seed", int),
        time_limit=_suite_number(suite, "time_limit", (int, float)),
        parts_mode=parts_mode,
        solver_cmd=suite.get("solver_cmd"),
    )
    _solver_adapter(options["solver_cmd"], "suite: solver_cmd")
    return instances, modes, options, record_time


def run_benchmark(suite: dict, base_dir=".") -> list:
    """Run every (instance, mode) pair of a suite; one row per instance,
    whose cells map each mode to its SolveReport.

    A failing pair is recorded in its cell and the run continues: an
    inadmissible instance as "infeasible", an unreadable file or a solver
    fault as "error".  Relative instance paths resolve against `base_dir`.
    A malformed suite (a field of the wrong type, an unknown mode or parts
    mode, a `solver_cmd` that names no command) raises ValueError before
    anything runs.
    """
    return _run_suite(*_parse_suite(suite)[:3], Path(base_dir))


def _run_suite(instances, modes, options, base: Path) -> list:
    def error(mode):
        return SolveReport(mode, "error", None, None, None)

    rows = []
    for raw_path in instances:
        path = base / raw_path  # an absolute path stays as it is
        try:
            inst = load_instance(path)
        except ValueError:
            rows.append(ResultRow(instance=path.stem, cells={
                mode: error(mode) for mode in modes}))
            continue
        cells = {}
        for mode in modes:
            try:
                cells[mode] = _solve_one(inst, mode, **options)
            except CureschedError:
                cells[mode] = error(mode)
        rows.append(ResultRow(instance=inst.name, cells=cells))
    return rows


# ── command line ─────────────────────────────────────────────────────


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="curesched",
        description="Lot-sizing and scheduling toolkit for tire curing.")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one instance file")
    ps.add_argument("--instance", required=True)
    ps.add_argument("--mode", required=True, choices=MODES)
    ps.add_argument("--iterations", type=int, default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--time-limit", type=float, default=None)
    ps.add_argument("--parts-mode", choices=PARTS_MODES,
                    default=PARTS_PER_HEATER)
    ps.add_argument("--emit-lp", default=None, metavar="FILE.lp")
    ps.add_argument("--out", default=None, metavar="FILE.csv")
    ps.add_argument("--schedule-out", default=None, metavar="FILE.json")
    ps.add_argument("--solver-cmd", default=None,
                    help="external MILP solver command; gets LP and"
                         " solution paths appended")
    ps.add_argument("--record-time", action="store_true")

    pg = sub.add_parser("generate", help="write scenario instances")
    pg.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    pg.add_argument("--count", type=int, required=True)
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--out-dir", required=True)

    pb = sub.add_parser("bench", help="run a suite file")
    pb.add_argument("--suite", required=True)
    pb.add_argument("--out", required=True, metavar="FILE.csv")
    pb.add_argument("--record-time", action="store_true")

    pv = sub.add_parser("validate", help="check an instance or schedule")
    pv.add_argument("--instance", required=True)
    pv.add_argument("--schedule", default=None)
    pv.add_argument("--parts-mode", choices=PARTS_MODES,
                    default=PARTS_PER_HEATER)
    return parser


def _cmd_solve(args):
    if args.emit_lp and args.mode == "heuristic":
        raise ValueError(
            "--emit-lp needs a model-building mode (milp, hop)")
    inst = load_instance(args.instance)
    rep = _solve_one(
        inst, args.mode, iterations=args.iterations, seed=args.seed,
        time_limit=args.time_limit, parts_mode=args.parts_mode,
        solver_cmd=args.solver_cmd)
    # no stats: horizon 0, or an infeasible run that built no model
    if args.emit_lp and (rep.stats is not None or rep.status != "infeasible"):
        from .milp import build_model, emit_lp
        model = build_model(inst, rep.stats.thb if rep.stats else 0,
                            args.parts_mode)
        Path(args.emit_lp).write_text(emit_lp(model), encoding="utf-8")
    if args.schedule_out and rep.schedule is not None:
        save_schedule(rep.schedule, args.schedule_out)
    if args.out:
        row = ResultRow(instance=inst.name, cells={args.mode: rep})
        Path(args.out).write_text(
            rows_to_csv([row], [args.mode], record_time=args.record_time,
                        average=False),
            encoding="utf-8")

    lines = [f"instance {inst.name}", f"mode {args.mode}",
             f"status {rep.status}"]
    nums = _numbers(rep, args.record_time)
    for c in ("makespan", "gap_pct", "thb", "constraints", "binary_vars",
              "real_vars", "time_s"):
        if nums[c] is not None:
            lines.append(f"{c} {_fmt(c, nums[c])}")
    print("\n".join(lines))

    if rep.status == "infeasible":
        return 1
    if rep.status == "optimal" or args.mode == "heuristic":
        return 0
    return 3


def _cmd_generate(args):
    if args.count <= 0:
        raise ValueError("--count must be positive")
    spec = SCENARIOS[args.scenario]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seed in range(args.seed, args.seed + args.count):
        inst = generate_instance(spec, seed)
        path = out_dir / f"{inst.name}.json"
        save_instance(inst, path)
        print(path)
    return 0


def _cmd_bench(args):
    suite_path = Path(args.suite)
    instances, modes, options, record_time = _parse_suite(
        _read_json(suite_path))
    rows = _run_suite(instances, modes, options, suite_path.parent)
    record_time = args.record_time or record_time
    Path(args.out).write_text(
        rows_to_csv(rows, modes, record_time=record_time), encoding="utf-8")
    print(rows_to_table(rows, modes, record_time=record_time), end="")
    return 0


def _cmd_validate(args):
    inst = load_instance(args.instance)
    violations = list(validate_instance(inst).violations)
    if args.schedule:
        sched = load_schedule(args.schedule)
        violations += validate_schedule(inst, sched,
                                        parts_mode=args.parts_mode).violations
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print("ok")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "solve": _cmd_solve,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "validate": _cmd_validate,
    }
    try:
        code = handlers[args.command](args)
        # flushed here, so a closed pipe fails inside this try; with no
        # stdout at all (fd 1 closed) print is a no-op and so is this
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone; stdout goes to devnull so the interpreter's
        # own flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, CureschedError, OSError) as exc:
        # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
