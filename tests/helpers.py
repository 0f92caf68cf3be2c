"""Shared fixtures and independent oracles for the test suite.

The toy instances are rebuilt here programmatically instead of loading the
shipped JSON fixtures, so the data files themselves are covered by a separate
equality test. The exhaustive oracles below are deliberately primitive: plain
bounded search with no bound pruning and no dominance reasoning, so they share
no logic with the branch-and-bound solver they are checking.
`plain_memo_solve` is the one exception: the solver itself, with the
exact-repeat memo it had before dominance, to check that pruning against.
`reference_context` and `reference_improvement` likewise keep the
heuristic's older code, and `reference_heater_table` the exact search's,
to check their rewrites against.
"""

import random
import shlex
import sys
from dataclasses import dataclass, replace
from itertools import product
from operator import attrgetter

import curesched.exact
from curesched.bounds import residual_bound
from curesched.domain import (
    EMPTY,
    AssignmentTuple,
    ChangeoverMemo,
    Instance,
    Mold,
    PairSlot,
    Part,
    PARTS_GLOBAL,
    PARTS_PER_HEATER,
    Schedule,
    ceil_div,
    first_capacity,
    heater_walk,
    initial_residents,
    multiset,
    pair_slots,
    part_usage,
    periods_for,
    plan_slot,
    produced_by_mold,
    schedule_makespan,
    slot_rate,
    transition_work,
    uncovered_molds,
    validate_schedule,
)
from curesched.errors import NoFeasiblePlacement
from curesched.gen import SCENARIOS, generate_instance

PHI = 14400  # one day in deciminutes
_BY_ID = attrgetter("id")


def toy1() -> Instance:
    """Two molds (2 copies each), one heater, no parts."""
    return Instance(
        name="toy1",
        period_dmin=PHI,
        molds=(
            Mold(id=1, copies=2, setup_dmin=600, removal_dmin=300, demand=10),
            Mold(id=2, copies=2, setup_dmin=600, removal_dmin=300, demand=10),
        ),
        heaters=(1,),
        curing={(1, 1): 400, (2, 1): 400},
        mold_compat=((1, 1), (1, 2), (2, 2)),
        parts=(),
        init={},
    )


def toy2() -> Instance:
    """Like toy1 but single copies and a shared part blocking co-curing."""
    return Instance(
        name="toy2",
        period_dmin=PHI,
        molds=(
            Mold(id=1, copies=1, setup_dmin=600, removal_dmin=300, demand=10),
            Mold(id=2, copies=1, setup_dmin=600, removal_dmin=300, demand=10),
        ),
        heaters=(1,),
        curing={(1, 1): 400, (2, 1): 400},
        mold_compat=((1, 1), (1, 2), (2, 2)),
        parts=(Part(id=1, units=1, molds=frozenset({1, 2})),),
        init={},
    )


def reference_pair_slots(inst: Instance) -> list:
    """The pair table derived afresh, one (pair, heater) at a time: every
    allowed (m1, m2, heater), singles included, that a schedule can run,
    sorted by (m1, m2, heater), each row with its own dicts.  A row runs
    when its copies of each mold exist (a mold the instance does not list
    has none), its units of each part exist, and each of its molds' cure
    times on the heater is positive and at most the period."""
    copies = {m.id: m.copies for m in inst.molds}
    units = {p.id: p.units for p in inst.parts}
    keys = {(EMPTY, j, k) for (j, k) in inst.curing if k in inst.heaters}
    keys.update((i, j, k) for (i, j) in inst.mold_compat for k in inst.heaters
                if (i, k) in inst.curing and (j, k) in inst.curing)
    slots = []
    for i, j, k in sorted(keys):
        counts = {i: 2} if i == j else {m: 1 for m in (i, j) if m != EMPTY}
        usage = part_usage(inst, counts)
        cures = [inst.curing[(m, k)] for m in counts]
        max_tv = max(cures)
        runs = (all(c <= copies.get(m, 0) for m, c in counts.items())
                and all(u <= units[p] for p, u in usage.items())
                and 0 < min(cures) and max_tv <= inst.period_dmin)
        if runs:
            slots.append(PairSlot(m1=i, m2=j, heater=k, counts=counts,
                                  usage=usage, max_tv=max_tv))
    return slots


def reference_heater_table(inst: Instance, parts_mode) -> dict:
    """`exact._heater_table` as it read the flat `pair_slots` rows, its
    body kept verbatim: per heater, its rows as (pair, `multiset` of its
    molds, needs, slowest cure time), each pair's shared values worked
    out at its first row."""
    shared = parts_mode != PARTS_PER_HEATER
    table = {k: [] for k in inst.heaters}
    pair = None
    for m1, m2, k, counts, usage, max_tv in pair_slots(inst):
        if (m1, m2) != pair:  # a pair's rows come together and share these
            pair = (m1, m2)
            molds = multiset(counts)
            needs = [(m, c, inst.mold_by_id[m].copies) for m, c in molds]
            if shared:
                needs += [(("part", p), c, inst.part_by_id[p].units)
                          for p, c in usage.items()]
            needs = tuple(needs)
        table[k].append((pair, molds, needs, max_tv))
    return table


@dataclass(frozen=True)
class _Context:
    """The heuristic's run context as it was laid out before its per-pair
    records: five per-pair dicts (`heaters`, `counts`, `held`,
    `held_global`, `set_of`), one context for both parts modes."""

    batch: dict
    demand: dict
    pool: list
    pools: dict
    heaters: dict
    counts: dict
    held: dict
    held_global: dict
    initial: dict
    plans: ChangeoverMemo
    heater_sets: list
    working: int
    set_of: dict
    sets_with: dict


def reference_context(inst: Instance) -> _Context:
    """`heuristic._context` derived the older way, its body kept verbatim:
    each row appended through `setdefault`, each pair's heaters sorted on
    (-rate, id), and every heater set scanned for each heater.  It gives
    the older layout (`_Context` here), both parts modes in one."""
    heaters, counts, usage = {}, {}, {}
    for s in pair_slots(inst):  # each pair's heaters ascending
        pair = (s.m1, s.m2)
        heaters.setdefault(pair, []).append(
            (s.heater, slot_rate(inst.period_dmin, s.max_tv), s.max_tv))
        counts[pair], usage[pair] = s.counts, s.usage
    ids = {pair: tuple(row[0] for row in rows)
           for pair, rows in heaters.items()}
    heater_sets = sorted(set(ids.values()))
    index = {hs: i for i, hs in enumerate(heater_sets)}
    demand = {m.id: m.demand for m in inst.molds if m.demand > 0}

    # a mold with at least 2 copies per heater that cures it never binds,
    # nor a part with 2 units per heater that cures one of its molds
    cures = inst.compat_heaters
    binding_copies = {m.id: m.copies for m in inst.molds
                      if m.copies < 2 * len(cures[m.id])}
    binding_units = {p.id: p.units for p in inst.parts
                     if p.units < 2 * len(set().union(
                         *(cures.get(m, ()) for m in p.molds)))}

    held, held_global = {}, {}
    for pair in heaters:
        held[pair] = rows = [(("mold", m), c, binding_copies[m])
                             for m, c in counts[pair].items()
                             if m in binding_copies]
        held_global[pair] = rows + [(("part", p), u, binding_units[p])
                                    for p, u in usage[pair].items()
                                    if p in binding_units]

    setup = {m.id: m.setup_dmin for m in inst.molds}
    pool = [pair for pair in sorted(heaters)
            if all(m in demand for m in pair if m != EMPTY)
            and sum(setup[m] * c for m, c in counts[pair].items())
            <= inst.period_dmin]
    return _Context(
        batch={m.id: ceil_div(m.demand, m.copies) for m in inst.molds
               if m.id in demand and m.copies > 0},
        demand=demand,
        pool=pool,
        pools={frozenset(): pool},
        heaters={pair: sorted(rows, key=lambda row: (-row[1], row[0]))
                 for pair, rows in heaters.items()},
        counts={pair: multiset(c) for pair, c in counts.items()},
        held=held,
        held_global=held_global,
        initial={k: multiset(r) for k, r in initial_residents(inst).items()},
        plans=ChangeoverMemo(inst),
        heater_sets=heater_sets,
        working=len(set().union(*heater_sets)),
        set_of={pair: index[hs] for pair, hs in ids.items()},
        sets_with={k: [i for i, hs in enumerate(heater_sets) if k in hs]
                   for k in inst.heaters},
    )


def pair_table_corpus() -> list:
    """toy1, toy2, tiny 1000-1199, small 1-15, medium 1-10 and large 1-5."""
    insts = [toy1(), toy2()] + [tiny_instance(s) for s in range(1000, 1200)]
    insts += [generate_instance(SCENARIOS[size], seed)
              for size, count in (("small", 15), ("medium", 10), ("large", 5))
              for seed in range(1, count + 1)]
    return insts


def malformed_variants() -> dict:
    """toy1 on two heaters ("base"), and variants of it that lose rows of
    the pair table, by name: a cure time of 0, a cure time over the
    period, an unknown mold in the curing and compatible pairs, too few
    copies for an identical pair, and too few part units for any pair."""
    base = toy1_two_heaters()
    return {
        "base": base,
        "zero_cure": variant(base, curing={**base.curing, (1, 1): 0}),
        "slow": variant(base,
                        curing={**base.curing, (1, 2): base.period_dmin + 1}),
        "unknown": variant(base, curing={**base.curing, (9, 1): 400},
                           mold_compat=((1, 1), (1, 2), (2, 2), (2, 9),
                                        (9, 9))),
        "short": variant(base, molds=(replace(base.molds[0], copies=1),
                                      base.molds[1])),
        "scarce": variant(base, parts=(Part(id=1, units=1,
                                            molds=frozenset({1, 2})),)),
    }


def reference_placement(inst: Instance, tuples,
                        parts_mode=PARTS_PER_HEATER) -> Schedule:
    """The heuristic's placement rule done plainly, with no cutoff and no
    cut: each round takes the pending tuple that can start first (ids
    breaking ties), plans it on every heater of its pair in id order, one
    period later if the plan breaks a budget, and keeps the least (end,
    start, changeover work, heater).  A tuple can start once one of its
    heaters is free and, from then on, every mold (and in global mode
    every part) it holds has room in each period.  Raises
    NoFeasiblePlacement where no heater takes a tuple."""
    slots = {}
    for s in pair_slots(inst):
        slots.setdefault((s.m1, s.m2), []).append(s)
    capacity = {("mold", m.id): m.copies for m in inst.molds}
    capacity.update({("part", p.id): p.units for p in inst.parts})
    use = {res: [] for res in capacity}  # units in use per period
    clear = {res: [0, 0, 0] for res in capacity}  # n -> room from here on

    def needs(pair):
        s = slots[pair][0]
        held = [(("mold", m), c) for m, c in s.counts.items()]
        if parts_mode == PARTS_GLOBAL:
            held += [(("part", p), u) for p, u in s.usage.items()]
        return held

    def ready(t):
        pair = (t.m1, t.m2)
        return max([min(avail[s.heater] for s in slots[pair])]
                   + [clear[res][n] for res, n in needs(pair)])

    pending = sorted(tuples, key=lambda t: t.id)
    for t in pending:
        if (t.m1, t.m2) not in slots:
            raise NoFeasiblePlacement(f"pair ({t.m1}, {t.m2}) fits no heater")
    avail = {k: 0 for k in inst.heaters}
    holds = initial_residents(inst)
    placed = []
    while pending:
        t = min(pending, key=ready)
        pending.remove(t)
        first = ready(t)
        chosen = None
        for s in slots[t.m1, t.m2]:
            k = s.heater
            base = max(avail[k], first)
            for start in (base, base + 1):
                plan = plan_slot(inst, k, holds[k], avail[k], start, s.counts)
                if not plan.problems:
                    key = (start + plan.length_for(t.q), start,
                           plan.deduction, k)
                    chosen = min(chosen or key, key)
                    break
        if chosen is None:
            raise NoFeasiblePlacement(f"tuple {t.id} fits no heater budget")
        end, start, _work, k = chosen
        placed.append(AssignmentTuple(t.id, t.m1, t.m2, t.q, k, start,
                                      end - start))
        avail[k], holds[k] = end, slots[t.m1, t.m2][0].counts
        for res, n in needs((t.m1, t.m2)):
            units = use[res]
            units.extend([0] * (end - len(units)))
            for p in range(start, end):
                units[p] += n
            clear[res] = [max([p + 1 for p, u in enumerate(units)
                               if u + extra > capacity[res]], default=0)
                          for extra in range(3)]
    return Schedule(tuples=sorted(placed, key=lambda t: t.id))


def _reference_shave(inst: Instance, schedule: Schedule,
                     ctx: _Context) -> Schedule:
    """Trim the last tuple on each heater down to what demand still needs.

    An identical pair loses two tires per quantity step, so its cut is
    halved. A trimmed tuple keeps its heater, start and predecessor, so the
    changeover it was placed with, at its heater's cure time and rate,
    sizes its new length.
    """
    tuples = sorted(schedule.tuples, key=_BY_ID)
    produced = produced_by_mold(tuples)

    # each heater's last tuple, with what its predecessor left behind
    last_on = {}
    for k, t, residents, prev_end in heater_walk(inst, tuples):
        last_on[k] = (t, residents, prev_end)

    out = {t.id: t for t in tuples}
    for k, (last, residents, prev_end) in last_on.items():
        if last.q <= 1:
            continue
        surplus = min(
            produced[m] - inst.mold_by_id[m].demand
            for m in last.mold_counts()
        )
        if last.m1 != EMPTY and last.m1 == last.m2:
            delta = min(last.q - 1, surplus // 2)
        else:
            delta = min(last.q - 1, surplus)
        if delta <= 0:
            continue
        new_q = last.q - delta
        pair = last.m1, last.m2
        work = ctx.plans[multiset(residents), ctx.counts[pair],
                         last.start > prev_end]
        _k, r, cure = next(row for row in ctx.heaters[pair] if row[0] == k)
        length = periods_for(new_q, first_capacity(inst.period_dmin, work,
                                                   cure), r)
        out[last.id] = replace(last, q=new_q, length=length)
        for m, c in last.mold_counts().items():
            produced[m] -= c * delta
    return Schedule(tuples=sorted(out.values(), key=_BY_ID))


def _reference_split(tuples) -> list:
    """The improvement step's split list: each two-mold tuple, in id order,
    becomes two halves (identical pairs two identical pairs, mixed pairs two
    singles) with fresh ids past the largest; singles stay as they are."""
    base = sorted(tuples, key=_BY_ID)
    next_id = max((t.id for t in base), default=0)
    split = []
    for t in base:
        if t.m1 != EMPTY:
            q_hi = ceil_div(t.q, 2)
            q_lo = t.q - q_hi
            if t.m1 == t.m2:
                halves = ((t.m1, t.m2, q_hi), (t.m1, t.m2, q_lo))
            else:
                halves = ((EMPTY, t.m1, q_hi), (EMPTY, t.m2, q_lo))
            for m1, m2, q in halves:
                if q >= 1:
                    next_id += 1
                    split.append(AssignmentTuple(id=next_id, m1=m1, m2=m2, q=q))
        else:
            split.append(AssignmentTuple(id=t.id, m1=t.m1, m2=t.m2, q=t.q))
    return split


def reference_improvement(inst: Instance, schedule: Schedule,
                          parts_mode: str = PARTS_PER_HEATER, *,
                          ctx=None) -> Schedule:
    """The heuristic's improvement step on `AssignmentTuple`s, as it ran
    before it worked on rows: its body, `_split` and
    `_shave_overproduction` kept verbatim (as `_reference_split` and
    `_reference_shave`), with `reference_placement` as its placement, the
    split's coverage counted on the split list itself and the context
    derived by `reference_context`.  Returns `schedule` itself when it
    keeps no candidate.

    Split-reassign-shave local search; keeps strictly better schedules.
    Every two-mold tuple splits into two halves (identical pairs into two
    identical pairs, mixed pairs into two singles), everything is placed
    from scratch, and overproduced tails are shaved. The candidate
    replaces the incumbent only when it can be placed, is feasible and is
    strictly shorter; a split list that misses demand is not placed.
    """
    ctx = ctx or reference_context(inst)
    improved = schedule
    while not uncovered_molds(inst, produced_by_mold(
            _reference_split(improved.tuples))):
        try:
            candidate = reference_placement(
                inst, _reference_split(improved.tuples), parts_mode)
        except NoFeasiblePlacement:
            return improved
        candidate = _reference_shave(inst, candidate, ctx)
        if not (schedule_makespan(candidate) < schedule_makespan(improved)
                and validate_schedule(inst, candidate, parts_mode).ok):
            return improved
        improved = candidate
    return improved


def garbage_solver(tmp_path, solution="garbage") -> str:
    """A solver command that exits 0 after writing `solution` as its
    solution file, by default a malformed one."""
    script = tmp_path / "garbage_solver.py"
    script.write_text(
        f"import sys\nopen(sys.argv[2], 'w').write({solution!r})\n",
        encoding="utf-8")
    return shlex.join([sys.executable, str(script)])


def variant(inst: Instance, **changes) -> Instance:
    """Rebuild an instance with selected fields replaced."""
    fields = dict(
        name=inst.name,
        period_dmin=inst.period_dmin,
        molds=inst.molds,
        heaters=inst.heaters,
        curing=dict(inst.curing),
        mold_compat=tuple(sorted(inst.mold_compat)),
        parts=inst.parts,
        init=dict(inst.init),
    )
    fields.update(changes)
    return Instance(**fields)


def toy1_two_heaters() -> Instance:
    inst = toy1()
    curing = dict(inst.curing)
    curing[(1, 2)] = 400
    curing[(2, 2)] = 400
    return variant(inst, name="toy1h2", heaters=(1, 2), curing=curing)


def single_mold_big(copies: int = 4, heaters: int = 2) -> Instance:
    """One demanded mold sized so the baseline horizon is visibly loose.

    copies=4 lets the identical-pair split run on two heaters in parallel,
    halving the single-tuple makespan.
    """
    hs = tuple(range(1, heaters + 1))
    return Instance(
        name="bigmold",
        period_dmin=PHI,
        molds=(Mold(id=1, copies=copies, setup_dmin=606, removal_dmin=449, demand=1000),),
        heaters=hs,
        curing={(1, h): 550 for h in hs},
        mold_compat=((1, 1),),
        parts=(),
        init={},
    )


# ── random tiny instances ────────────────────────────────────────────

TINY_TV_POOL = (2400, 2880, 3600, 4800, 7200)  # per-period rates 6,5,4,3,2


def two_removals() -> Instance:
    """One heater; two copies of mold 1 take 2 x 7300 dmin to remove, more
    than the 14400 budget, so nothing but mold 1 may follow (1, 1). The
    mixed pair covers all demand in one period."""
    return Instance(
        "two-removals", PHI,
        molds=(Mold(id=1, copies=2, setup_dmin=600, removal_dmin=7300, demand=8),
               Mold(id=2, copies=1, setup_dmin=600, removal_dmin=300, demand=8)),
        heaters=(1,),
        curing={(1, 1): 1200, (2, 1): 1200},
        mold_compat=((1, 1), (1, 2)),
    )


def tiny_instance(seed: int) -> Instance:
    """Random admissible instance with |M| <= 3, |H| <= 2, demand <= 30."""
    rng = random.Random(seed)
    while True:
        n_molds = rng.randint(1, 3)
        n_heaters = rng.randint(1, 2)
        mold_ids = list(range(1, n_molds + 1))
        heater_ids = tuple(range(1, n_heaters + 1))

        budget = 30
        molds = []
        for m in mold_ids:
            dm = rng.randint(0, min(12, budget))
            budget -= dm
            molds.append(
                Mold(
                    id=m,
                    copies=rng.randint(1, 3),
                    setup_dmin=rng.randint(400, 1500),
                    removal_dmin=rng.randint(200, 900),
                    demand=dm,
                )
            )

        curing = {}
        for m in mold_ids:
            hs = [h for h in heater_ids if rng.random() < 0.8]
            if not hs:
                hs = [rng.choice(heater_ids)]
            for h in hs:
                curing[(m, h)] = rng.choice(TINY_TV_POOL)

        compat = {(m, m) for m in mold_ids}
        for i, j in product(mold_ids, mold_ids):
            if i < j and rng.random() < 0.7:
                compat.add((i, j))

        parts = ()
        if rng.random() < 0.3 and n_molds >= 1:
            members = frozenset(rng.sample(mold_ids, rng.randint(1, n_molds)))
            parts = (Part(id=1, units=rng.randint(1, 2), molds=members),)

        init = {}
        if rng.random() < 0.2:
            h = rng.choice(heater_ids)
            m = rng.choice(mold_ids)
            if (m, h) in curing:
                init[(m, h)] = 1

        inst = Instance(
            name=f"tiny{seed}",
            period_dmin=PHI,
            molds=tuple(molds),
            heaters=heater_ids,
            curing=curing,
            mold_compat=tuple(sorted(compat)),
            parts=parts,
            init=init,
        )
        from curesched.domain import validate_instance

        if not validate_instance(inst).violations and any(m.demand for m in molds):
            return inst


# ── exhaustive oracles ───────────────────────────────────────────────


def _pairs_by_heater(inst):
    """Heater -> the (m1, m2) pairs it can run, straight from the curing
    table and the allowed pairs (m1 = 0 for a single mold)."""
    out = {h: set() for h in inst.heaters}
    for (m, h) in inst.curing:
        out[h].add((0, m))
    for i, j in inst.mold_compat:
        for h in inst.heaters:
            if (i, h) in inst.curing and (j, h) in inst.curing:
                out[h].add((i, j))
    return out


def _heater_options(inst, pairs_by_heater, residents, heater, used, part_used, parts_mode):
    """Config choices for one heater given current residents and usage.

    Yields (molds_multiset, production_per_slot_unit, pair) plus the idle
    choice. Production is at per-period capacity.
    """
    phi = inst.period_dmin
    options = []
    removal = sum(inst.mold_by_id[m].removal_dmin * c for m, c in residents.items())
    if removal <= phi:
        options.append((None, {}, 0))
    for i, j in sorted(pairs_by_heater.get(heater, ())):
        ms = {}
        if i:
            ms[i] = ms.get(i, 0) + 1
        ms[j] = ms.get(j, 0) + 1
        ok = True
        for m, c in ms.items():
            if used.get(m, 0) + c > inst.mold_by_id[m].copies:
                ok = False
        if not ok:
            continue
        usage = {}
        for part in inst.parts:
            c = sum(cc for m, cc in ms.items() if m in part.molds)
            if c:
                usage[part.id] = c
        if parts_mode == PARTS_PER_HEATER:
            if any(c > inst.part_by_id[q].units for q, c in usage.items()):
                continue
        else:
            if any(part_used.get(q, 0) + c > inst.part_by_id[q].units for q, c in usage.items()):
                continue
        setups, removals = transition_work(inst, residents, ms)
        if setups + removals > phi:
            continue
        max_tv = max(inst.curing[(m, heater)] for m in ms)
        cap = (phi - setups - removals) // max_tv
        options.append(((i, j), ms, cap))
    return options


def _joint_configs(inst, pairs_by_heater, residents_by_heater, parts_mode):
    """All joint per-period configurations across heaters."""

    heaters = list(inst.heaters)

    def rec(idx, used, part_used, acc):
        if idx == len(heaters):
            yield list(acc)
            return
        h = heaters[idx]
        for pair, ms, cap in _heater_options(
            inst, pairs_by_heater, residents_by_heater[h], h, used, part_used, parts_mode
        ):
            new_used = dict(used)
            for m, c in ms.items():
                new_used[m] = new_used.get(m, 0) + c
            new_part = dict(part_used)
            for part in inst.parts:
                c = sum(cc for m, cc in ms.items() if m in part.molds)
                if c:
                    new_part[part.id] = new_part.get(part.id, 0) + c
            acc.append((h, pair, ms, cap))
            yield from rec(idx + 1, new_used, new_part, acc)
            acc.pop()

    yield from rec(0, {}, {}, [])


def uncut_joint_configs(heaters, options):
    """Every joint configuration of the per-heater `options` (one
    `exact._heater_options` list per heater, in the order of `heaters`)
    whose needs fit together, in depth-first cross-product order, with no
    cut at the horizon: the walk the oracle's cut walk must filter."""

    def rec(idx, in_use, acc):
        if idx == len(heaters):
            yield list(acc)
            return
        for pair, molds, needs, cap in options[idx]:
            new_use = dict(in_use)
            for r, c, limit in needs:
                new_use[r] = new_use.get(r, 0) + c
                if new_use[r] > limit:
                    break
            else:
                acc.append((heaters[idx], pair, molds, cap))
                yield from rec(idx + 1, new_use, acc)
                acc.pop()

    yield from rec(0, {}, [])


def child_within_reach(joint, res, rate, period, reach):
    """Whether the child a joint configuration makes of a state in
    `period` with residual demand `res` passes the oracle's floor check
    against `reach`, the latest makespan still worth reaching."""
    produced = {}
    for _, _, molds, cap in joint:
        for m, c in molds:
            produced[m] = produced.get(m, 0) + cap * c
    left = {m: max(0, r - produced.get(m, 0)) for m, r in res.items()}
    return period + residual_bound(left, rate) <= reach


def brute_force_optimum(inst, horizon, parts_mode=PARTS_PER_HEATER):
    """Smallest feasible makespan within `horizon`, or None.

    Plain iterative-deepening search over per-period heater configurations,
    producing at capacity. Memoised only on exact (state, budget) pairs.
    """
    pairs_by_heater = _pairs_by_heater(inst)
    demanded = sorted(m.id for m in inst.molds if m.demand > 0)
    init_residents = {h: {} for h in inst.heaters}
    for (m, h), c in inst.init.items():
        if c:
            init_residents[h][m] = init_residents[h].get(m, 0) + c

    def freeze(residual, residents):
        return (
            tuple(residual[m] for m in demanded),
            tuple(tuple(sorted(residents[h].items())) for h in inst.heaters),
        )

    memo = {}

    def feasible(residual, residents, budget):
        if all(residual[m] <= 0 for m in demanded):
            return True
        if budget == 0:
            return False
        key = (freeze(residual, residents), budget)
        if key in memo:
            return memo[key]
        out = False
        for joint in _joint_configs(inst, pairs_by_heater, residents, parts_mode):
            new_res = dict(residual)
            new_residents = {}
            for h, pair, ms, cap in joint:
                new_residents[h] = ms
                if pair is not None:
                    i, j = pair
                    if i:
                        new_res[i] = max(0, new_res[i] - cap)
                    new_res[j] = max(0, new_res[j] - cap)
            if feasible(new_res, new_residents, budget - 1):
                out = True
                break
        memo[key] = out
        return out

    residual = {m.id: m.demand for m in inst.molds}
    for b in range(horizon + 1):
        if feasible(residual, init_residents, b):
            return b
    return None


def brute_force_optimum_all_levels(inst, horizon, parts_mode=PARTS_PER_HEATER):
    """Like brute_force_optimum but enumerating every production level 0..cap.

    Exponential; only usable on micro instances. Exists to check that fixing
    production at capacity loses nothing.
    """
    pairs_by_heater = _pairs_by_heater(inst)
    demanded = sorted(m.id for m in inst.molds if m.demand > 0)
    init_residents = {h: {} for h in inst.heaters}
    for (m, h), c in inst.init.items():
        if c:
            init_residents[h][m] = init_residents[h].get(m, 0) + c

    def freeze(residual, residents):
        return (
            tuple(residual[m] for m in demanded),
            tuple(tuple(sorted(residents[h].items())) for h in inst.heaters),
        )

    memo = {}

    def feasible(residual, residents, budget):
        if all(residual[m] <= 0 for m in demanded):
            return True
        if budget == 0:
            return False
        key = (freeze(residual, residents), budget)
        if key in memo:
            return memo[key]
        out = False
        for joint in _joint_configs(inst, pairs_by_heater, residents, parts_mode):
            level_axes = []
            for h, pair, ms, cap in joint:
                if pair is None:
                    level_axes.append([0])
                else:
                    level_axes.append(range(cap + 1))
            for levels in product(*level_axes):
                new_res = dict(residual)
                new_residents = {}
                for (h, pair, ms, cap), u in zip(joint, levels):
                    new_residents[h] = ms
                    if pair is not None:
                        i, j = pair
                        if i:
                            new_res[i] = max(0, new_res[i] - u)
                        new_res[j] = max(0, new_res[j] - u)
                if feasible(new_res, new_residents, budget - 1):
                    out = True
                    break
            if out:
                break
        memo[key] = out
        return out

    residual = {m.id: m.demand for m in inst.molds}
    for b in range(horizon + 1):
        if feasible(residual, init_residents, b):
            return b
    return None


class ExactKeyMemo(dict):
    """The oracle's memo without dominance: a state is refused only when
    the same residual vector and residents came back no later."""

    def admit(self, residents, vec, period):
        key = (vec, residents)
        seen = self.get(key)
        if seen is not None and seen <= period:
            return False
        self[key] = period
        return True


def plain_memo_solve(inst, thb, parts_mode=PARTS_PER_HEATER):
    """`solve_exact` with `ExactKeyMemo` in place of its dominance memo:
    the reference its pruning is checked against."""
    real = curesched.exact._Fronts
    curesched.exact._Fronts = ExactKeyMemo
    try:
        return curesched.exact.solve_exact(inst, thb, parts_mode)
    finally:
        curesched.exact._Fronts = real
