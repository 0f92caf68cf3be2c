"""Integer programming model of the curing plan, and its plumbing.

build_model lays out the full variable and constraint system for a fixed
period horizon; every coefficient is an integer deciminute, so the emitted
files carry no floating point. The same model object also serves as the
codec between schedules and variable assignments: check_assignment evaluates
every row, extract_schedule decodes solver output into tuples, and
schedule_to_assignment encodes a schedule for cross-checking.

solve_with_adapter writes a built model to an LP file, invokes an external
solver command on it, reads the returned solution file with
`lpformat.parse_solution`, and decodes the assignment into a schedule.
The command contract is

    <solver-cmd> <model.lp> <out.sol>

where the solution file holds one `name value` pair per line plus an
`objective <v>` line, and the exit code is 0 for solved, 10 for proven
infeasible, anything else for failure.  An internal solve never loads
this module: only solver children and `--emit-lp` need it.
"""

import math
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass

from .domain import (
    EMPTY,
    PARTS_MODES,
    PARTS_PER_HEATER,
    Instance,
    Schedule,
    ValidationReport,
    heater_walk,
    pair_table,
    plan_slot,
    schedule_from_periods,
    schedule_makespan,
    slot_rate,
)
from .errors import (
    AdapterFailure,
    AdapterUnavailable,
    InfeasibleAssignment,
    SolutionParseError,
)
from .exact import SolveReport, SolverAdapter
from .horizon import ModelStats
from .lpformat import (EXIT_INFEASIBLE, TIME_LIMIT_ENV, Constraint, Variable,
                       fold, parse_solution, term_units)

# the longest wait subprocess accepts (2**31 - 1 ms, about 24.8 days)
_MAX_WAIT_S = (2**31 - 1) / 1000


@dataclass(frozen=True, eq=False)
class MilpModel:
    """Immutable symbolic model plus the index maps used for en/decoding."""

    inst: Instance
    thb: int
    parts_mode: str
    pairs_on: dict      # heater -> its (m1, m2) pairs, ascending
    objective: tuple
    constraints: tuple
    variables: tuple
    x: dict             # (mold, heater, period 0..thb) -> name
    y: dict             # (mold, heater, period)        -> name
    yp: dict
    z: dict             # (m1, m2, heater, period)      -> name
    w: dict             # period -> name
    u: dict             # (m1, m2, heater, period)      -> name
    prd: dict           # (mold, period)                -> name

    def __repr__(self):
        return (f"MilpModel({self.inst.name!r}, thb={self.thb}, "
                f"rows={len(self.constraints)}, vars={len(self.variables)})")


def _merge_terms(terms):
    """Coalesce repeated variables; identical pairs fold to coefficient 2."""
    acc = {}
    for coef, var in terms:
        acc[var] = acc.get(var, 0) + coef
    return tuple((coef, var) for var, coef in acc.items() if coef != 0)


def build_model(inst: Instance, thb: int,
                parts_mode: str = PARTS_PER_HEATER) -> MilpModel:
    """Construct the whole system over periods 1..thb (0 = initial state)."""
    if parts_mode not in PARTS_MODES:
        raise ValueError(f"unknown parts mode {parts_mode!r}")
    if thb < 0:
        raise ValueError("horizon must be non-negative")
    phi = inst.period_dmin
    periods = range(1, thb + 1)
    # each runnable (m1, m2, heater), sorted, -> its slowest cure time
    cures = {(i, j, k): tv for (i, j), record in pair_table(inst).items()
             for k, tv in zip(record.heaters, record.cures)}
    ext = list(cures)
    pairs_on = {k: [(i, j) for i, j, kk in ext if kk == k]
                for k in inst.heaters}
    # eq-8/10 members of each mold: first-slot pairs, then second-slot ones
    members = {m: [key for key in ext if key[0] == m]
               + [key for key in ext if key[1] == m] for m in inst.mold_ids}

    grid = [(i, k) for i in inst.mold_ids for k in inst.heaters]
    variables = []

    def declare(fam, kind, hi, keys):
        """A variable family named `fam_<key>`, declared in `keys` order."""
        store = {}
        for key in keys:
            parts = key if isinstance(key, tuple) else (key,)
            store[key] = name = "_".join(map(str, (fam, *parts)))
            variables.append(Variable(name, kind, hi))
        return store

    x = declare("x", "general", 2,
                [(i, k, t) for i, k in grid for t in range(thb + 1)])
    cells = [(i, k, t) for i, k in grid for t in periods]
    y = declare("y", "general", 2, cells)
    yp = declare("yp", "general", 2, cells)
    slot_periods = [(*e, t) for e in ext for t in periods]
    z = declare("z", "binary", 1, slot_periods)
    w = declare("w", "binary", 1, periods)
    u = declare("u", "general", None, slot_periods)
    prd = declare("prd", "general", None,
                  [(i, t) for i in inst.mold_ids for t in periods])

    rows = []

    def add(name, tag, label, terms, sense, rhs):
        rows.append(Constraint(name, tag, label, _merge_terms(terms), sense, rhs))

    for t in range(1, thb):
        add(f"prefix_{t}", "eq-2", f"prefix period {t}",
            [(1, w[t]), (-1, w[t + 1])], ">=", 0)

    for t in periods:
        terms = [(2 * len(inst.heaters), w[t])]
        terms += [(-1, z[(i, j, k, t)]) for (i, j, k) in ext]
        add(f"active_{t}", "eq-3", f"active period {t}", terms, ">=", 0)

    for k in inst.heaters:
        for t in periods:
            terms = [(1, z[(i, j, k, t)]) for (i, j) in pairs_on[k]]
            add(f"slots_{k}_{t}", "eq-4", f"heater {k} period {t}",
                terms, "<=", 1)

    for (i, j, k), max_tv in cures.items():
        for t in periods:
            terms = [(max_tv, u[(i, j, k, t)])]
            for m in inst.mold_ids:
                terms.append((inst.mold_by_id[m].setup_dmin, y[(m, k, t)]))
            for m in inst.mold_ids:
                terms.append((inst.mold_by_id[m].removal_dmin, yp[(m, k, t)]))
            if i == EMPTY:
                tag, label = "eq-6", f"capacity mold {j} heater {k} period {t}"
            else:
                tag, label = "eq-5", f"capacity pair ({i},{j}) heater {k} period {t}"
            add(f"cap_{i}_{j}_{k}_{t}", tag, label, terms, "<=", phi)

    for (i, j, k), max_tv in cures.items():
        cap = slot_rate(phi, max_tv)
        for t in periods:
            add(f"rate_{i}_{j}_{k}_{t}", "eq-7",
                f"rate pair ({i},{j}) heater {k} period {t}",
                [(1, u[(i, j, k, t)]), (-cap, z[(i, j, k, t)])], "<=", 0)

    for i in inst.mold_ids:
        for t in periods:
            terms = [(1, prd[(i, t)])]
            terms += [(-1, u[(*key, t)]) for key in members[i]]
            add(f"prod_{i}_{t}", "eq-8", f"production mold {i} period {t}",
                terms, "=", 0)

    if thb > 0:
        for i in inst.mold_ids:
            terms = [(1, prd[(i, t)]) for t in periods]
            add(f"demand_{i}", "eq-9", f"demand mold {i}",
                terms, ">=", inst.mold_by_id[i].demand)

    for i, k in grid:
        on_k = [key for key in members[i] if key[2] == k]
        for t in periods:
            terms = [(1, x[(i, k, t)])]
            terms += [(-1, z[(*key, t)]) for key in on_k]
            add(f"molds_{i}_{k}_{t}", "eq-10",
                f"mold count mold {i} heater {k} period {t}",
                terms, "=", 0)

    for i in inst.mold_ids:
        for t in periods:
            terms = [(1, x[(i, k, t)]) for k in inst.heaters]
            add(f"copies_{i}_{t}", "eq-11", f"copies mold {i} period {t}",
                terms, "<=", inst.mold_by_id[i].copies)

    for p in inst.parts:
        members = sorted(p.molds)
        if parts_mode == PARTS_PER_HEATER:
            for k in inst.heaters:
                for t in periods:
                    terms = [(1, x[(m, k, t)]) for m in members]
                    add(f"parts_{p.id}_{k}_{t}", "eq-12",
                        f"part {p.id} heater {k} period {t}",
                        terms, "<=", p.units)
        else:
            for t in periods:
                terms = [(1, x[(m, k, t)])
                         for m in members for k in inst.heaters]
                add(f"parts_{p.id}_{t}", "eq-12", f"part {p.id} period {t}",
                    terms, "<=", p.units)

    for i, k in grid:
        add(f"start_{i}_{k}", "eq-13", f"initial mold {i} heater {k}",
            [(1, x[(i, k, 0)])], "=", inst.init.get((i, k), 0))

    # eq-14 counts a mold's mounts, eq-15 its removals: mirrored rows
    for fam, tag, word, var, sign in (("setup", "eq-14", "setups", y, 1),
                                      ("removal", "eq-15", "removals", yp, -1)):
        for i, k in grid:
            for t in periods:
                add(f"{fam}_{i}_{k}_{t}", tag,
                    f"{word} mold {i} heater {k} period {t}",
                    [(1, var[(i, k, t)]), (-sign, x[(i, k, t)]),
                     (sign, x[(i, k, t - 1)])], ">=", 0)

    objective = tuple((1, w[t]) for t in periods)
    return MilpModel(
        inst=inst, thb=thb, parts_mode=parts_mode, pairs_on=pairs_on,
        objective=objective, constraints=tuple(rows),
        variables=tuple(variables),
        x=x, y=y, yp=yp, z=z, w=w, u=u, prd=prd,
    )


def model_stats(m: MilpModel) -> ModelStats:
    """The counts of a model that was actually built."""
    return ModelStats(
        n_constraints=len(m.constraints),
        n_binary_vars=len(m.z) + len(m.w),
        n_integer_vars=len(m.u) + len(m.prd),
        thb=m.thb,
    )


# ── LP emission ──────────────────────────────────────────────────────


def emit_lp(m: MilpModel) -> str:
    lines = [f"\\ model {m.inst.name} thb={m.thb} parts={m.parts_mode}"]
    lines.append("Minimize")
    lines.extend(fold(" obj:", term_units(m.objective)))
    lines.append("Subject To")
    for c in m.constraints:
        lines.append(f"\\ {c.tag} {c.label}")
        units = [*term_units(c.terms), f"{c.sense} {c.rhs}"]
        lines.extend(fold(f" {c.name}:", units))
    bounded = [v for v in m.variables if v.kind == "general" and v.hi is not None]
    if bounded:
        lines.append("Bounds")
        for v in bounded:
            lines.append(f" 0 <= {v.name} <= {v.hi}")
    for header, kind in (("Generals", "general"), ("Binaries", "binary")):
        names = [v.name for v in m.variables if v.kind == kind]
        if names:
            lines.append(header)
            lines.extend(fold(" " + names[0], names[1:]))
    lines.append("End")
    return "\n".join(lines) + "\n"


# ── assignment checking, decoding, encoding ──────────────────────────


def _is_int(val) -> bool:
    return isinstance(val, int) or (isinstance(val, float) and val == int(val))


def check_assignment(m: MilpModel, assignment) -> ValidationReport:
    """Evaluate every variable domain and every constraint row."""
    v = []
    known = {var.name for var in m.variables}
    for name in assignment:
        if name not in known:
            v.append(f"assignment references unknown variable {name}")
    for var in m.variables:
        val = assignment.get(var.name, 0)
        if not _is_int(val):
            v.append(f"{var.name} = {val} is not integral")
            continue
        val = int(val)
        if val < 0:
            v.append(f"{var.name} = {val} below lower bound 0")
        if var.hi is not None and val > var.hi:
            v.append(f"{var.name} = {val} above upper bound {var.hi}")
    for c in m.constraints:
        lhs = sum(coef * assignment.get(var, 0) for coef, var in c.terms)
        if c.sense == "<=":
            ok = lhs <= c.rhs
        elif c.sense == ">=":
            ok = lhs >= c.rhs
        else:
            ok = lhs == c.rhs
        if not ok:
            v.append(f"{c.name} ({c.tag} {c.label}): {lhs} {c.sense} {c.rhs} fails")
    return ValidationReport(violations=v)


def extract_schedule(m: MilpModel, assignment) -> Schedule:
    """Decode z/u values into placed tuples; rejects invalid assignments.

    Consecutive periods holding the same pair on the same heater merge into
    one tuple whose quantity is the summed production, zero-production
    staging periods included.
    """
    report = check_assignment(m, assignment)
    if not report.ok:
        raise InfeasibleAssignment(report.violations)

    def val(name):
        return int(assignment.get(name, 0))

    periods = {}
    for k in m.inst.heaters:
        pairs = m.pairs_on[k]
        seq = periods[k] = []
        for t in range(1, m.thb + 1):
            pair = next((p for p in pairs if val(m.z[(*p, k, t)]) == 1), None)
            seq.append((pair, val(m.u[(*pair, k, t)]) if pair else 0))
    return schedule_from_periods(m.inst, periods)


def schedule_to_assignment(m: MilpModel, schedule: Schedule) -> dict:
    """Encode a feasible schedule as a variable assignment for this model.

    Production is packed greedily: the first period takes what the
    changeover leaves, later periods the full rate. Mount/removal variables
    follow the heater-state differences, so gap removals land in the first
    idle period exactly as the rows expect.
    """
    inst = m.inst
    makespan = schedule_makespan(schedule)
    if schedule.sentinel:
        raise ValueError("cannot encode the sentinel candidate")
    if makespan > m.thb:
        raise ValueError(
            f"schedule spans {makespan} periods, model horizon is {m.thb}"
        )
    asg = {}

    loads = {}  # (heater, model period) -> mold multiset
    for k, t, residents, prev_end in heater_walk(inst, schedule.tuples):
        counts = t.mold_counts()
        plan = plan_slot(inst, k, residents, prev_end, t.start, counts)
        remaining = t.q
        for offset in range(t.length):
            period = t.start + 1 + offset
            asg[m.z[(t.m1, t.m2, k, period)]] = 1
            loads[(k, period)] = counts
            cap = plan.cap_first if offset == 0 else plan.cap_int
            give = min(remaining, cap)
            if give > 0:
                asg[m.u[(t.m1, t.m2, k, period)]] = give
                remaining -= give

    for (i, j, k, t), name in m.u.items():
        produced = asg.get(name, 0)
        if produced:
            if i != EMPTY:
                key = m.prd[(i, t)]
                asg[key] = asg.get(key, 0) + produced
            key = m.prd[(j, t)]
            asg[key] = asg.get(key, 0) + produced

    for i in inst.mold_ids:
        for k in inst.heaters:
            prev = inst.init.get((i, k), 0)
            if prev:
                asg[m.x[(i, k, 0)]] = prev
            for t in range(1, m.thb + 1):
                c = loads.get((k, t), {}).get(i, 0)
                if c:
                    asg[m.x[(i, k, t)]] = c
                if c > prev:
                    asg[m.y[(i, k, t)]] = c - prev
                elif c < prev:
                    asg[m.yp[(i, k, t)]] = prev - c
                prev = c

    for t in range(1, int(makespan) + 1):
        asg[m.w[t]] = 1
    return asg


# ── external solver bridge ───────────────────────────────────────────


def solve_with_adapter(m: MilpModel, adapter: SolverAdapter,
                       time_limit_seconds: float = math.inf) -> SolveReport:
    """Solve a built model through an external solver command, stopping it
    once `time_limit_seconds` have passed since the call.  The child gets
    the time the LP file's writing leaves, as `TIME_LIMIT_ENV` when finite
    and as its wait; a wait of `_MAX_WAIT_S` or more, `inf` too, is not
    bounded.  With no time left no child starts.

    Raises AdapterUnavailable when the command is missing, AdapterFailure
    on an unexpected exit code, SolutionParseError on an unreadable
    solution file, and lets InfeasibleAssignment from schedule decoding
    propagate.  A wall-clock timeout comes back as status "limit".
    """
    start_clock = time.perf_counter()
    if adapter is None:
        raise AdapterUnavailable("no solver adapter configured")
    command = list(adapter.command)
    stats = model_stats(m)
    with tempfile.TemporaryDirectory(prefix="curesched-") as workdir:
        lp_path = os.path.join(workdir, "model.lp")
        sol_path = os.path.join(workdir, "model.sol")
        with open(lp_path, "w") as fh:
            fh.write(emit_lp(m))
        env = dict(os.environ)
        limit = time_limit_seconds - (time.perf_counter() - start_clock)
        if limit <= 0:
            return SolveReport("adapter", "limit", None, None,
                               time.perf_counter() - start_clock, stats=stats)
        if limit < math.inf:
            env[TIME_LIMIT_ENV] = str(limit)
        try:
            proc = subprocess.run(
                command + [lp_path, sol_path],
                capture_output=True,
                text=True,
                timeout=limit if limit < _MAX_WAIT_S else None,
                env=env,
            )
        except FileNotFoundError as exc:
            raise AdapterUnavailable(f"solver command not found: {command[0]}") from exc
        except subprocess.TimeoutExpired:
            wall = time.perf_counter() - start_clock
            return SolveReport("adapter", "limit", None, None, wall,
                               stats=stats)
        wall = time.perf_counter() - start_clock
        if proc.returncode == EXIT_INFEASIBLE:
            return SolveReport("adapter", "infeasible", None, None, wall,
                               stats=stats)
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip().splitlines()
            detail = tail[-1] if tail else "no output"
            raise AdapterFailure(
                f"solver exited with code {proc.returncode}: {detail}")
        try:
            with open(sol_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise SolutionParseError("solver wrote no solution file") from exc
    assignment, _ = parse_solution(text)
    schedule = extract_schedule(m, assignment)
    makespan = int(schedule_makespan(schedule))
    return SolveReport("adapter", "optimal", makespan, 0.0, wall,
                       stats=stats, schedule=schedule)
