"""Provably minimal makespans: the internal oracle.

`solve_exact` runs a depth-first branch and bound over per-period heater
configurations: each heater either idles (dropping its resident molds) or
hosts an allowed mold pair producing at full per-period capacity.  A state
is pruned with a residual-demand lower bound, and when an earlier state
with the same residents and finished molds, reached no later and holding
no more demand of any mold, dominates it (`_Fronts`), so the search
handles the instance sizes the test rigs and the small benchmark scenarios
produce.

`SolveReport`, `SolverAdapter` and `TIME_LIMIT_SECONDS` serve both of the
exact stage's backends; the external one's bridge is `milp.solve_with_adapter`.
"""

import math
import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from operator import le

from .bounds import mold_rates, residual_bound, root_bound
from .domain import (
    ChangeoverMemo,
    Instance,
    PARTS_MODES,
    PARTS_PER_HEATER,
    Schedule,
    first_capacity,
    initial_residents,
    multiset,
    pair_table,
    schedule_from_periods,
)
from .horizon import ModelStats

__all__ = [
    "TIME_LIMIT_SECONDS",
    "SolveReport",
    "SolverAdapter",
    "solve_exact",
]


# the one default time limit of the exact stage, whichever backend runs it
TIME_LIMIT_SECONDS = 3600.0
# counted nodes a search may expand: each one holds at most one memo entry,
# so this bounds the memo's memory
_MAX_NODES = 5_000_000


@dataclass(frozen=True)
class SolverAdapter:
    """How to invoke an external MILP solver executable: its command words,
    at least one; ValueError otherwise."""

    command: tuple

    def __post_init__(self):
        if not self.command:
            raise ValueError("a solver adapter needs a command")


@dataclass
class SolveReport:
    """The one record of a run, from the exact stage to a CLI report.

    status is one of "optimal", "feasible", "infeasible", "limit", and
    "error" for a run the benchmark could not make; gap_percent is 0
    exactly when the makespan is proven optimal.
    """

    mode: str
    status: str
    makespan: int
    gap_percent: float
    wall_seconds: float
    stats: ModelStats = None
    schedule: Schedule = None
    nodes: int = 0
    # two-phase pipelines split wall_seconds into these
    heuristic_seconds: float = None
    solver_seconds: float = None


class _Frame:
    """One expanded search node: a period's state that passed every check
    where it was reached, its makespan floor, the lazy stream of joint
    configurations not yet branched on, and `joint`, the one it is
    branching on now (set as each is drawn)."""

    __slots__ = ("period", "res", "floor", "gen", "joint")

    def __init__(self, period, res, floor, gen):
        self.period = period
        self.res = res
        self.floor = floor
        self.gen = gen


class _Fronts(dict):
    """The search's dominance memo (Ibaraki's dominance relations, JACM
    24(2), 1977): per (residents, finished molds) key, the Pareto front of
    the expanded states with that key, as (residual sum, period, residual
    vector) entries in ascending order.  `admit` refuses a state when some
    entry was reached no later and holds no more demand of any mold;
    otherwise it records the state and drops the entries it dominates.  A
    dominating entry's sum is never larger, so a check stops at the first
    larger sum rather than scanning the whole front.

    Refusing is exact.  Say S' dominates S: the same residents, the same
    finished molds, reached no later, with no more demand of any mold.
    Every continuation of S is copied from S' by dropping each copy of a
    mold that is finished there and not resident (a pair becomes its other
    mold's single, a lone mold idling); a mold is only dropped once it is
    finished, so the copy's residents are S's less dropped molds.  Dropping
    raises no setup or removal deduction, no slowest cure time and no
    copies or part units needed, so every copied configuration is offered
    and no capacity falls: the copy meets every demand no later.  An entry
    still on the stack is an ancestor of S, with no less demand than S, so
    it dominates S only with the same demand, a repeat the plain
    (residual, residents) memo refused as well; every other entry's
    subtree has been searched.  Either way S's subtree holds nothing
    shorter than `best` by the time S is reached, and since `best` changes
    only on a strict improvement, the search reports the same schedule."""

    __slots__ = ()

    def admit(self, residents, vec, period):
        """Whether the state in `period` with `residents` and residual
        vector `vec` (a tuple over the demanded molds) is dominated by no
        entry; an admitted state becomes one."""
        key = (residents, tuple(i for i, r in enumerate(vec) if not r))
        front = self.get(key)
        total = sum(vec)
        if front is None:
            self[key] = [(total, period, vec)]
            return True
        for t, p, v in front:
            if t > total:
                break
            if p <= period and all(map(le, v, vec)):
                return False
        # only entries with no smaller sum can be dominated
        i = bisect_left(front, (total,))
        front[i:] = [e for e in front[i:]
                     if e[1] < period or not all(map(le, vec, e[2]))]
        insort(front, (total, period, vec), i)
        return True


def _heater_table(inst, parts_mode):
    """Per heater, the `pair_table` pairs it can run, ascending, as (pair,
    `multiset` of its molds, needs, slowest cure time there), built once
    per search.  needs is the record's `held`, or `held_global` in global
    parts mode: the (resource, units, limit) of each mold copy count and
    part unit count the pair holds that can run out; a pair's heaters
    share it."""
    shared = parts_mode != PARTS_PER_HEATER
    table = {k: [] for k in inst.heaters}
    for pair, record in pair_table(inst).items():
        needs = record.held_global if shared else record.held
        for k, max_tv in zip(record.heaters, record.cures):
            table[k].append((pair, record.molds, needs, max_tv))
    return table


def _heater_options(plans, rows, residents, res):
    """Per-period choices for a heater in one search state, where it holds
    the `multiset` `residents` and `res` is left to cure: one of its `rows`
    (a `_heater_table` row list) at full capacity, or idling (residents
    leave, which must fit the period).  The search's `ChangeoverMemo`
    `plans` decides both: idling is the changeover to an empty heater after
    a gap, and a pair mounted right away cures the `first_capacity` its
    deduction leaves at the row's slowest cure time.

    Mounting a mold whose residual demand is already zero is skipped, since
    a single-mold slot dominates; pairs that merely keep such a mold
    resident stay available because holding it can be cheaper than paying
    its removal.  Options come back most-productive-first so a depth-first
    walk reaches good incumbents early, as (pair, molds, needs, cap).
    """
    # sorted on (-useful, idle, pair): pairs before idling at a tie
    opts = []
    if plans[residents, (), True] is not None:
        opts.append((0, 1, (0, 0), (None, (), (), 0)))
    phi = plans.inst.period_dmin
    held = dict(residents)
    for pair, molds, needs, max_tv in rows:
        # never mount a finished mold; keeping a resident one is fine
        for m, c in molds:
            if res.get(m, 0) <= 0 and c > held.get(m, 0):
                break
        else:
            deduction = plans[residents, molds, False]
            if deduction is not None:
                cap = first_capacity(phi, deduction, max_tv)
                useful = 0
                for m, c in molds:
                    useful += min(res.get(m, 0), cap * c)
                opts.append((-useful, 0, pair, (pair, molds, needs, cap)))
    opts.sort()
    return [o[3] for o in opts]


class _OutOfTime(Exception):
    """The deadline passed inside a joint-configuration walk."""


class _Search:
    """What the joint-configuration walks of one search share: the
    instance, its `_heater_table`, the search's `ChangeoverMemo` (the memo
    the heuristic keeps too: no heater changes a changeover, so every
    heater reads the one entry), each demanded mold's `mold_rate`, the
    deadline, and `reach`, the latest makespan still worth reaching,
    min(best - 1, thb), which the search lowers as best falls."""

    __slots__ = ("inst", "table", "plans", "rate", "deadline", "reach")

    def __init__(self, inst, table, plans, rate, deadline, reach):
        self.inst = inst
        self.table = table
        self.plans = plans
        self.rate = rate
        self.deadline = deadline
        self.reach = reach


def _iter_joint_configs(search, residents, res, period):
    """Joint configurations across heaters, for the state in `period`
    where heaters hold `residents` (a `multiset` each, in heater id order)
    and `res` is left to cure, whose child can still meet `search.reach`.
    They come lazily, in heater id order, so huge plants never materialize
    the cross product.  Options are worked out per heater on the first
    draw; the walk skips one whose needs do not fit beside what the heaters
    before it hold.

    A child passes its floor check exactly when every demanded mold m ends
    with res_m - produced_m <= rate_m * (reach - period), reach read live.
    The walk drops a heater's option as soon as some mold cannot get there
    even if each later heater cures its most of it: the lesser of their
    best cap * count summed and the copies still free times their best
    per-slot cap.  A mold whose copies can never run out has no needs
    entry, so the walk counts none of its copies held; it has 2 per later
    heater that cures it even so, and the first bound is the lesser.  At
    the last heater that is the child's own check, so exactly the
    configurations whose child passes it come out, in the order of the
    full cross product.  Raises `_OutOfTime` once the clock passes the
    deadline, read each time the walk backs up a heater."""
    inst, rate = search.inst, search.rate
    heaters = inst.heaters
    n = len(heaters)
    options = [_heater_options(search.plans, search.table[k], held, res)
               for k, held in zip(heaters, residents)]
    # checks[i]: per mold with demand left, the most the heaters after
    # heater i cure of it, as (mold, res, rate, copies, sum of their best
    # cap * count, their best per-slot cap)
    short = [m for m in res if res[m] > 0]
    total, per_slot = dict.fromkeys(short, 0), dict.fromkeys(short, 0)
    checks = [None] * n
    for i in range(n - 1, -1, -1):
        checks[i] = [(m, res[m], rate[m], inst.mold_by_id[m].copies,
                      total[m], per_slot[m]) for m in short]
        best = {}
        for _, molds, _, cap in options[i]:
            for m, c in molds:
                if m in total:
                    best[m] = max(best.get(m, 0), cap * c)
                    per_slot[m] = max(per_slot[m], cap)
        for m, most in best.items():
            total[m] += most

    acc = [None] * n
    uses = [{}] * (n + 1)  # what heaters 0..i-1 hold, per resource
    mades = [{}] * (n + 1)  # what they cure, per mold
    nxt = [0] * n
    i = 0
    while True:
        if nxt[i] == len(options[i]):
            if not i:
                return
            if time.perf_counter() > search.deadline:
                raise _OutOfTime
            nxt[i] = 0
            i -= 1
            continue
        pair, molds, needs, cap = options[i][nxt[i]]
        nxt[i] += 1
        use = uses[i]
        if needs:
            fits = True
            for r, c, limit in needs:
                if use.get(r, 0) + c > limit:
                    fits = False
                    break
            if not fits:
                continue
            use = dict(use)
            for r, c, _ in needs:
                use[r] = use.get(r, 0) + c
        made = mades[i]
        if molds:
            made = dict(made)
            for m, c in molds:
                made[m] = made.get(m, 0) + cap * c
        slack = search.reach - period
        for m, r, rt, copies, most, slot in checks[i]:
            need = r - made.get(m, 0) - rt * slack
            if need > 0 and (need > most
                             or need > (copies - use.get(m, 0)) * slot):
                break
        else:
            acc[i] = (heaters[i], pair, molds, cap)
            if i + 1 == n:
                yield list(acc)
            else:
                i += 1
                uses[i], mades[i] = use, made


def solve_exact(inst: Instance, thb: int, parts_mode: str = PARTS_PER_HEATER,
                floor: int = 0,
                time_limit_seconds: float = TIME_LIMIT_SECONDS) -> SolveReport:
    """Minimal makespan within a `thb`-period horizon, or proof there is none.

    The search stops after `time_limit_seconds`, or after `_MAX_NODES`
    counted nodes, with the best schedule it holds.

    A state is checked once, where it is reached: against the clock, for
    met demand, against its floor, `period - 1 + residual_bound(res, rate)`
    raised to `floor`, and the horizon, then against the memo and the node
    cap.  Only a state that passes them all becomes a frame, an expanded
    node.  A frame's walk (`_iter_joint_configs`) builds only the children
    whose floor is within min(best - 1, thb), and reads the clock too: a
    walk the deadline cuts short ends the search at its limit, never as if
    exhausted.  A frame's floor is checked again each time the search
    comes back to it; once `best` has fallen to the floor, the frame's
    remaining joint configurations are dropped unread.  That is exact:
    `mold_rate` bounds one period's production of each mold, so a child's
    floor is never below its parent's and no child could beat `best`: the
    children dropped here would each fail their floor check, before the
    memo or the node count sees them.  Under a limit the search only gets
    further.

    A `floor` above 0 makes any makespan up to it good enough: the search
    stops at its first schedule within it, which is reported "optimal" only
    when it meets the root bound and "feasible" with its gap otherwise.
    """
    if parts_mode not in PARTS_MODES:
        raise ValueError(f"unknown parts mode {parts_mode!r}")
    if not time_limit_seconds > 0:
        raise ValueError("time_limit_seconds must be positive")
    if thb < 0:
        raise ValueError("thb must be non-negative")
    if floor < 0:
        raise ValueError("floor must be non-negative")

    start_clock = time.perf_counter()
    deadline = start_clock + time_limit_seconds
    demanded = sorted(m.id for m in inst.molds if m.demand > 0)
    rate = mold_rates(inst, parts_mode)

    residual0 = {i: inst.mold_by_id[i].demand for i in demanded}
    initial = initial_residents(inst)
    residents0 = tuple(multiset(initial[k]) for k in inst.heaters)
    root_lb = root_bound(inst, parts_mode)
    search = _Search(inst, _heater_table(inst, parts_mode),
                     ChangeoverMemo(inst), rate, deadline, thb)
    best = math.inf
    memo = _Fronts()
    nodes = 0

    # explicit stack, children pulled lazily: horizons never overflow the
    # interpreter and huge plants never materialize a config cross product
    hit_limit = False
    stack = []
    period, res, residents = 1, residual0, residents0
    while True:
        # clock check per state reached, not just per counted node, so a
        # long run of pruned children cannot overshoot the deadline
        if time.perf_counter() > deadline:
            hit_limit = True
            break
        bound = period - 1 + residual_bound(res, rate)
        if bound == period - 1:
            # no demand left
            if bound < best:
                best = bound
                best_path = [f.joint for f in stack]
                search.reach = min(best - 1, thb)
        elif max(bound, floor) < best and bound <= thb:
            if memo.admit(residents, tuple(res[i] for i in demanded),
                          period):
                nodes += 1
                if nodes > _MAX_NODES:
                    hit_limit = True
                    break
                stack.append(_Frame(
                    period, res, max(bound, floor),
                    _iter_joint_configs(search, residents, res, period)))
        # the deepest frame that may still beat best draws its next child;
        # one whose floor has reached best drops the rest unread
        try:
            while stack:
                fr = stack[-1]
                if fr.floor < best:
                    fr.joint = next(fr.gen, None)
                    if fr.joint is not None:
                        break
                stack.pop()
        except _OutOfTime:
            # a walk the clock cut short is not exhausted
            hit_limit = True
            break
        if not stack:
            break
        produced, new_residents = {}, []
        for _, _, molds, cap in fr.joint:
            new_residents.append(molds)
            for m, c in molds:
                produced[m] = produced.get(m, 0) + cap * c
        period = fr.period + 1
        res = {i: max(0, fr.res[i] - produced.get(i, 0)) for i in demanded}
        residents = tuple(new_residents)
    wall = time.perf_counter() - start_clock

    makespan = gap = schedule = None
    if best is math.inf:
        status = "limit" if hit_limit else "infeasible"
    else:
        makespan = int(best)
        periods = {k: [] for k in inst.heaters}
        for joint in best_path:
            for k, pair, _, cap in joint:
                periods[k].append((pair, cap))
        schedule = schedule_from_periods(inst, periods)
        # a search that stopped at the floor proved nothing more
        if (not hit_limit and best > floor) or root_lb >= best:
            status, gap = "optimal", 0.0
        else:
            status, gap = "feasible", 100.0 * (best - root_lb) / best
    return SolveReport("exact", status, makespan, gap, wall, schedule=schedule,
                       nodes=nodes)
