"""Constructive multi-start heuristic.

Frozen traces (hand derivation):
  toy1, draws (1,2),(1,2): batch size ceil(10/2)=5 caps each tuple, so the
      pairing yields [(1,2,5),(1,2,5)] and one heater forces makespan 2.
  toy2: (1,1)/(2,2) lack copies, (1,2) trips over the shared part, so only
      the single-mold pairs remain: [(0,1,10),(0,2,10)], makespan 2.
  single demanded mold (demand 1000, 4 copies, tv 550, tc 606): one
      identical-pair tuple q=500 runs 20 periods; splitting it across two
      heaters gives 10.
  shave check (demand 9, rate 10, setup 606): a lone single-mold tuple q=12
      needs 2 periods; shaving the surplus back to q=9 fits one period.
"""

import hashlib
import math
import random
import sys
from collections import Counter
from dataclasses import fields, replace
from itertools import product

import pytest

import curesched.domain
import curesched.heuristic
from curesched.bounds import root_bound
from curesched.domain import (
    PARTS_GLOBAL,
    PARTS_PER_HEATER,
    AssignmentTuple,
    Mold,
    Schedule,
    Part,
    produced_by_mold,
    schedule_makespan,
    validate_instance,
    validate_schedule,
)
from curesched.errors import NoFeasiblePlacement, UnproduciblePair
from curesched.exact import solve_exact
from curesched.gen import SCENARIOS, generate_instance
from curesched.heuristic import (
    HeuristicConfig,
    _Profile,
    _context,
    _draw,
    _improve,
    _place,
    _schedule,
    _shave,
    iteration_seed,
    run_heuristic,
)
from curesched.horizon import horizon_witness

from helpers import (
    malformed_variants,
    pair_table_corpus,
    reference_context,
    reference_improvement,
    reference_placement,
    single_mold_big,
    tiny_instance,
    toy1,
    toy1_two_heaters,
    toy2,
    two_removals as _two_removals,
    variant,
)


class ScriptedRng:
    """Stands in for random.Random: choice() follows a script, then always
    takes the first offered element."""

    def __init__(self, picks=()):
        self.picks = list(picks)

    def choice(self, seq):
        if self.picks:
            want = self.picks.pop(0)
            assert want in seq, f"scripted pick {want} not offered in {list(seq)}"
            return want
        return seq[0]


def _pairs(rows):
    return [(m1, m2, q) for _id, m1, m2, q in rows]


def _tuples(rows):
    """The `AssignmentTuple`s of (id, m1, m2, q, ...) rows."""
    return [AssignmentTuple(*row) for row in rows]


def _uncut(inst, rows, mode=PARTS_PER_HEATER, ctx=None):
    """The rows `_place` places, in placement order, with no cutoff, on a
    fresh context in `mode` unless given one."""
    placed, cut = _place(inst, ctx or _context(inst, mode), rows)
    assert not cut
    return placed


# ── pairing ──────────────────────────────────────────────────────────

def test_toy1_pairing_mixed_draws():
    rows = _draw(_context(toy1(), PARTS_PER_HEATER),
                 ScriptedRng([(1, 2), (1, 2)]))
    assert _pairs(rows) == [(1, 2, 5), (1, 2, 5)]
    assert [row[0] for row in rows] == [1, 2]
    assert all(len(row) == 4 for row in rows)  # none placed


def test_toy1_pairing_identical_draws():
    rows = _draw(_context(toy1(), PARTS_PER_HEATER),
                 ScriptedRng([(1, 1), (2, 2)]))
    assert _pairs(rows) == [(1, 1, 5), (2, 2, 5)]


def test_toy2_pairing_forced_singles():
    rows = _draw(_context(toy2(), PARTS_PER_HEATER), ScriptedRng())
    assert sorted(_pairs(rows)) == [(0, 1, 10), (0, 2, 10)]


def test_pairing_covers_demand_with_batch_ceiling():
    inst = variant(
        toy1(),
        molds=(
            Mold(id=1, copies=3, setup_dmin=600, removal_dmin=300, demand=10),
            Mold(id=2, copies=2, setup_dmin=600, removal_dmin=300, demand=0),
        ),
    )
    rows = _draw(_context(inst, PARTS_PER_HEATER), random.Random(7))
    produced = produced_by_mold(_tuples(rows)).get(1, 0)
    assert produced >= 10
    assert all(q <= 4 for *_, q in rows)  # ceil(10/3) = 4


def test_pairing_raises_when_nothing_admissible():
    # inadmissible on purpose: the required part has no units at all
    inst = variant(toy2(), parts=(Part(id=1, units=0, molds=frozenset({1, 2})),))
    with pytest.raises(UnproduciblePair):
        _draw(_context(inst, PARTS_PER_HEATER), random.Random(0))


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_run_without_starts_refuses_a_witness_short_of_part_units(mode):
    # the only part has no units, so no block of the safe horizon's serial
    # schedule can run: with no start taken nothing is left to return
    inst = variant(toy2(), parts=(Part(id=1, units=0, molds=frozenset({1, 2})),))
    assert horizon_witness(inst).sentinel
    with pytest.raises(NoFeasiblePlacement):
        run_heuristic(inst, HeuristicConfig(total_iterations=0,
                                            parts_mode=mode))


def test_pool_drops_pairs_of_molds_without_demand():
    """A pair holding a mold with no demand is never drawable, so the run's
    pool leaves it out; each start then draws what it drew when it filtered
    the pool itself (frozen below), on a fresh context or the run's."""
    base = generate_instance(SCENARIOS["small"], 3)
    inst = variant(base, molds=tuple(replace(m, demand=0) if m.id == 1 else m
                                     for m in base.molds))
    assert (1, 2) in inst.mold_compat
    pool = _context(inst, PARTS_PER_HEATER).pool
    assert pool == [(0, 2), (0, 3), (0, 4), (0, 5), (2, 3), (2, 4), (2, 5),
                    (3, 4), (3, 5), (4, 5)]
    assert (0, 1) in _context(base, PARTS_PER_HEATER).pool
    frozen = [
        [(2, 5, 52), (3, 4, 65), (0, 4, 52), (0, 5, 112)],
        [(0, 4, 117), (2, 5, 52), (0, 3, 65), (0, 5, 112)],
        [(0, 2, 52), (0, 3, 65), (0, 4, 117), (0, 5, 164)],
    ]
    ctx = _context(inst, PARTS_PER_HEATER)
    for seed, draws in enumerate(frozen):
        fresh = _context(inst, PARTS_PER_HEATER)
        assert _pairs(_draw(fresh, random.Random(seed))) == draws
        assert _pairs(_draw(ctx, random.Random(seed))) == draws
    assert ctx.pool == pool  # a start draws from a copy


def _fits_one_heater(inst, counts, usage):
    """Whether a mold multiset can run on one heater on its own: enough
    copies, part units for every slot (`usage`), and the joint setup
    work inside one period budget."""
    copies = {m.id: m.copies for m in inst.molds}
    units = {p.id: p.units for p in inst.parts}
    setup = sum(inst.mold_by_id[m].setup_dmin * c for m, c in counts.items())
    return (all(c <= copies[m] for m, c in counts.items())
            and all(u <= units[p] for p, u in usage.items())
            and setup <= inst.period_dmin)


@pytest.mark.parametrize("corpus", ["tiny", "small", "plants"])
def test_pool_is_the_runnable_pairs_whose_joint_setup_fits(corpus):
    """`pair_table` already drops a pair that needs more copies or part
    units than exist, so the pool checks only demand and the joint setup:
    it is the pool an in-test check of copies, part units and joint setup
    gives over the `pair_slots` pairs, on tiny 1000-1199, small 1-15,
    medium 1-10 and large 1-5."""
    for inst in _corpus(corpus):
        slots = {(s.m1, s.m2): s for s in curesched.domain.pair_slots(inst)}
        demanded = {m.id for m in inst.molds if m.demand > 0}
        ctx = curesched.heuristic._context(inst, PARTS_PER_HEATER)
        assert ctx.pool == [
            pair for pair, s in sorted(slots.items())
            if all(m in demanded for m in pair if m)
            and _fits_one_heater(inst, s.counts, s.usage)
        ], inst.name


def test_context_matches_the_reference_derivation():
    """`_context` in one pass gives what the older derivation gave, field
    by field and in the same order (`pool`, `heater_sets`, `sets_with`
    and every dict's keys), in both parts modes, on the pair-table corpus
    (tiny 1000-1199 and the plants among it) and on malformed instances;
    only `plans`, a fresh memo per run, is left out.  Its five per-pair
    dicts map onto the `pairs` records, in the same pair order: `heaters`
    rows, `counts`, `held` per heater or `held_global` in global mode,
    and `set_of`."""
    insts = pair_table_corpus() + list(malformed_variants().values())
    for inst, mode in product(insts, (PARTS_PER_HEATER, PARTS_GLOBAL)):
        got = curesched.heuristic._context(inst, mode)
        want = reference_context(inst)
        assert got.parts_mode == mode
        for field in fields(got):
            if field.name in ("plans", "pairs", "parts_mode"):
                continue
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a == b, (inst.name, field.name)
            if isinstance(a, dict):
                assert list(a.items()) == list(b.items()), (inst.name,
                                                            field.name)
        held = "held_global" if mode == PARTS_GLOBAL else "held"
        for name, attr in (("heaters", "heaters"), ("counts", "molds"),
                           (held, "held"), ("set_of", "heater_set")):
            b = getattr(want, name)
            assert list(got.pairs) == list(b), (inst.name, name)
            assert [getattr(r, attr) for r in got.pairs.values()] \
                == list(b.values()), (inst.name, mode, name)
    old = {"heaters", "counts", "held", "held_global", "set_of"}
    assert old.isdisjoint(f.name for f in fields(got))


@pytest.mark.parametrize("seed", (9, 11))
def test_pairing_keeps_each_surviving_list_once_per_run(seed):
    """A draw that uses up molds moves to the run's list for the molds used
    up so far, filtered once: with one context across 200 starts the draws
    match those of a fresh context each, the pool is never changed, and
    each kept list is the pool less the pairs holding a used-up mold."""
    inst = generate_instance(SCENARIOS["small"], seed)
    ctx = curesched.heuristic._context(inst, PARTS_PER_HEATER)
    pool = list(ctx.pool)
    for i in range(200):
        rng = random.Random(iteration_seed(1, i))
        fresh = _context(inst, PARTS_PER_HEATER)
        assert _draw(ctx, rng) == \
            _draw(fresh, random.Random(iteration_seed(1, i)))
    assert ctx.pool == pool
    assert ctx.pools[frozenset()] is ctx.pool
    assert len(ctx.pools) > 1
    for used, left in ctx.pools.items():
        assert left == [pair for pair in pool if used.isdisjoint(pair)]


def test_pairing_zero_demand():
    inst = variant(
        toy1(),
        molds=tuple(Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin, 0)
                    for m in toy1().molds),
    )
    assert _draw(_context(inst, PARTS_PER_HEATER), random.Random(0)) == []


# ── assignment ───────────────────────────────────────────────────────

def test_toy2_assignment_sequential():
    sched = _schedule(_uncut(toy2(), [(1, 0, 1, 10), (2, 0, 2, 10)]))
    placed = sorted(sched.tuples, key=lambda t: t.id)
    assert (placed[0].heater, placed[0].start, placed[0].length) == (1, 0, 1)
    assert (placed[1].heater, placed[1].start, placed[1].length) == (1, 1, 1)
    assert schedule_makespan(sched) == 2
    assert validate_schedule(toy2(), sched).ok


def test_assignment_prefers_preloaded_heater():
    inst = variant(toy1_two_heaters(), init={(1, 2): 1})
    sched = _schedule(_uncut(inst, [(1, 0, 1, 7)]))
    t = sched.tuples[0]
    assert (t.heater, t.start, t.length) == (2, 0, 1)


def test_assignment_waits_for_mold_copies():
    molds = (
        Mold(id=1, copies=1, setup_dmin=600, removal_dmin=300, demand=10),
        Mold(id=2, copies=2, setup_dmin=600, removal_dmin=300, demand=0),
    )
    inst = variant(toy1_two_heaters(), molds=molds)
    sched = _schedule(_uncut(inst, [(1, 0, 1, 5), (2, 0, 1, 5)]))
    placed = sorted(sched.tuples, key=lambda t: t.id)
    assert (placed[0].heater, placed[0].start) == (1, 0)
    # the single copy frees at period 1; staying on heater 1 avoids a setup
    assert (placed[1].heater, placed[1].start) == (1, 1)
    assert validate_schedule(inst, sched).ok


def test_assignment_two_heaters_parallel():
    inst = toy1_two_heaters()
    sched = _schedule(_uncut(inst, [(1, 1, 2, 5), (2, 1, 2, 5)]))
    assert schedule_makespan(sched) == 1
    assert {t.heater for t in sched.tuples} == {1, 2}


def test_assignment_is_deterministic():
    inst = toy1()
    rows = [(1, 1, 2, 5), (2, 1, 2, 5)]
    a = _schedule(_uncut(inst, rows))
    b = _schedule(_uncut(inst, rows))
    assert [(t.id, t.heater, t.start, t.length) for t in a.tuples] == \
           [(t.id, t.heater, t.start, t.length) for t in b.tuples]


@pytest.mark.parametrize("order", [1, -1])
def test_profile_clear_holds_for_good(order):
    # capacity 2; two units in use over [0, 2), one over [3, 5): one more
    # unit fits from period 2, two more only from 5, not in the gap at 3
    profile = _Profile(2)
    for start, end, amount in [(0, 2, 2), (3, 5, 1)][::order]:
        profile.add(start, end, amount)
    assert profile.clear[1:] == [2, 5]


def test_profile_clear_matches_a_recount():
    """After each `add`, clear[n] is one past the last period whose recounted
    use leaves no room for n more units, 0 when none, on random interval
    sequences."""
    rng = random.Random(5)
    for _ in range(300):
        capacity = rng.randint(0, 3)
        adds = []
        for _ in range(rng.randint(1, 6)):
            start = rng.randint(0, 8)
            adds.append((start, start + rng.randint(1, 4), rng.randint(1, 2)))
        profile = _Profile(capacity)
        for i, (start, end, amount) in enumerate(adds):
            profile.add(start, end, amount)
            use = Counter()
            for s, e, a in adds[:i + 1]:
                for p in range(s, e):
                    use[p] += a
            assert profile.clear[1:] == [
                max((p + 1 for p in use if use[p] + n > capacity), default=0)
                for n in (1, 2)], (capacity, adds[:i + 1])
            assert profile.use == [use[p] for p in range(len(profile.use))]


# ── improvement ──────────────────────────────────────────────────────

def test_improvement_splits_identical_pair_across_heaters():
    inst = single_mold_big(copies=4, heaters=2)
    ctx = _context(inst, PARTS_PER_HEATER)
    initial = _uncut(inst, [(1, 1, 1, 500)], ctx=ctx)
    assert schedule_makespan(_schedule(initial)) == 20
    improved = _schedule(_improve(inst, ctx, initial))
    assert schedule_makespan(improved) == 10
    assert validate_schedule(inst, improved).ok


def test_improvement_shaves_overproduction():
    inst = variant(
        toy1(),
        molds=(Mold(id=1, copies=2, setup_dmin=606, removal_dmin=449, demand=9),),
        curing={(1, 1): 1440},
        mold_compat=((1, 1),),
    )
    ctx = _context(inst, PARTS_PER_HEATER)
    initial = _uncut(inst, [(1, 0, 1, 12)], ctx=ctx)
    assert schedule_makespan(_schedule(initial)) == 2
    improved = _schedule(_improve(inst, ctx, initial))
    assert schedule_makespan(improved) == 1
    assert [t.q for t in improved.tuples] == [9]


def test_shave_trims_heaters_in_ascending_order():
    """Mold 1 is mounted on heater 2, so tuple 1 is placed there first and
    tuple 2 on heater 1 after it. Both are their heater's last row and
    share mold 1's surplus of 10: heater 1's row is trimmed first, as
    `heater_walk` orders heaters, down to 1, and heater 2's then loses the
    1 left."""
    inst = variant(toy1_two_heaters(), init={(1, 2): 1})
    ctx = _context(inst, PARTS_PER_HEATER)
    placed = _uncut(inst, [(1, 0, 1, 10), (2, 0, 1, 10)], ctx=ctx)
    assert [row[4] for row in placed] == [2, 1]
    produced = {1: 20}
    _shave(inst, ctx, placed, produced)
    assert placed == [(1, 0, 1, 9, 2, 0, 1), (2, 0, 1, 1, 1, 0, 1)]
    assert produced == {1: 10}


@pytest.mark.parametrize("before,demand,after", [
    # mold 1 stays mounted: no changeover, so the first period cures 11
    ((1, 0, 1, 11, 1, 0, 2), 22, (2, 0, 1, 11, 1, 2, 1)),
    # mold 2 comes off in the idle period 1, so only the setup is lost and
    # the first period cures 10 (9 with the removal in it too)
    ((1, 0, 2, 5, 1, 0, 1), 10, (2, 0, 1, 10, 1, 2, 1)),
], ids=["mounted", "idle-gap"])
def test_shave_sizes_a_trimmed_row_after_its_predecessor(before, demand,
                                                         after):
    """One heater, cure time 1300 (11 a period), setup 606, removal 1000:
    the last row, 13 of mold 1 from period 2, is trimmed to what demand
    needs, and its length is what `plan_slot` gives after the row placed
    before it, with the idle gap between them."""
    inst = variant(toy1(), molds=(Mold(1, 2, 606, 1000, demand),
                                  Mold(2, 2, 606, 1000, 5)),
                   curing={(1, 1): 1300, (2, 1): 1300},
                   mold_compat=((1, 1), (2, 2)))
    placed = [before, (2, 0, 1, 13, 1, 2, 2)]
    _shave(inst, _context(inst, PARTS_PER_HEATER), placed,
           produced_by_mold(_tuples(placed)))
    assert placed == [before, after]
    _id, m1, m2, q, k, start, length = after
    plan = curesched.domain.plan_slot(
        inst, k, _tuples([before])[0].mold_counts(), before[5] + before[6],
        start, {m2: 1})
    assert length == plan.length_for(q)


def test_improvement_keeps_toy1_at_two_periods():
    inst = toy1()
    ctx = _context(inst, PARTS_PER_HEATER)
    initial = _uncut(inst, [(1, 1, 1, 5), (2, 2, 2, 5)], ctx=ctx)
    assert schedule_makespan(_schedule(initial)) == 2
    improved = _schedule(_improve(inst, ctx, initial))
    assert schedule_makespan(improved) == 2


def test_improvement_places_no_split_that_misses_demand(monkeypatch):
    # mixed pairs with no surplus: the singles they split into cure 3 + 3 of
    # mold 1 and 2 + 2 of mold 2 against demand 10 each, so nothing is placed
    inst = toy1()
    ctx = _context(inst, PARTS_PER_HEATER)
    initial = _uncut(inst, [(1, 1, 2, 5), (2, 1, 2, 5)], ctx=ctx)

    def must_not_place(*args, **kwargs):
        raise AssertionError("a split that misses demand was placed")

    with monkeypatch.context() as patch:
        patch.setattr(curesched.heuristic, "_place", must_not_place)
        assert _improve(inst, ctx, initial) is initial

    # a mixed pair curing twice the demand still splits into singles that
    # cover it; on one heater they take 2 periods, not 1, so the one
    # placement is also the last
    inst = variant(toy1(), molds=tuple(replace(m, demand=5)
                                       for m in toy1().molds))
    ctx = _context(inst, PARTS_PER_HEATER)
    initial = _uncut(inst, [(1, 1, 2, 10)], ctx=ctx)
    placed = []

    def recorded(inst, ctx, rows, *args, **kwargs):
        placed.append(sorted(_pairs(rows)))
        return _place(inst, ctx, rows, *args, **kwargs)

    monkeypatch.setattr(curesched.heuristic, "_place", recorded)
    assert _improve(inst, ctx, initial) is initial
    assert placed == [[(0, 1, 5), (0, 2, 5)]]


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_improvement_drops_uncovered_splits_exactly(monkeypatch, mode):
    """Every list the improvement step places covers demand, and no
    candidate check in the run fails on coverage."""
    validate = validate_schedule
    placed, misses, reports = [], [], []

    def checked_place(inst, ctx, rows, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_improve":
            produced = produced_by_mold(_tuples(rows))
            placed.append(inst.name)
            misses.extend((inst.name, m.id) for m in inst.molds
                          if produced.get(m.id, 0) < m.demand)
        return _place(inst, ctx, rows, *args, **kwargs)

    def checked_validate(*args, **kwargs):
        reports.append(validate(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(curesched.heuristic, "_place", checked_place)
    monkeypatch.setattr(curesched.heuristic, "validate_schedule",
                        checked_validate)
    cfg = HeuristicConfig(total_iterations=20, seed=1, parts_mode=mode)
    for inst in _corpus("tiny") + _corpus("small"):
        run_heuristic(inst, cfg)
    assert placed and misses == []
    assert not [v for r in reports for v in r.violations if "not covered" in v]


def test_improvement_never_degrades_and_stays_feasible():
    for seed in range(12):
        inst = tiny_instance(seed)
        ctx = _context(inst, PARTS_PER_HEATER)
        rows = _draw(ctx, random.Random(seed * 17 + 1))
        initial = _uncut(inst, rows, ctx=ctx)
        improved = _schedule(_improve(inst, ctx, initial))
        assert schedule_makespan(improved) <= schedule_makespan(
            _schedule(initial))
        assert validate_schedule(inst, improved).ok


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
@pytest.mark.parametrize("corpus", ["tiny", "plants"])
def test_improve_gives_the_reference_improvement(corpus, mode):
    """On every start whose first split covers demand, at 20 starts on
    tiny 1000-1199 and 100 on the plants, `_improve` keeps the rows the
    improvement step on `AssignmentTuple`s keeps (`reference_improvement`,
    which places with `reference_placement`), and it returns the incumbent
    list itself exactly when the reference keeps the incumbent schedule.
    Both outcomes occur."""
    kinds = Counter()
    starts = 100 if corpus == "plants" else 20
    for inst in _corpus(corpus):
        ctx = _context(inst, mode)
        for i in range(starts):
            rows = _draw(ctx, random.Random(iteration_seed(1, i)))
            if _split_misses_demand(inst, rows):
                continue
            try:
                placed = _uncut(inst, rows, mode, ctx)
            except NoFeasiblePlacement:
                continue
            initial = _schedule(placed)
            expected = reference_improvement(inst, initial, mode)
            got = _improve(inst, ctx, placed)
            assert sorted(got) == _tuple_rows(expected), (inst.name, i)
            assert (got is placed) == (expected is initial), (inst.name, i)
            kinds[got is placed] += 1
    assert kinds[True] and kinds[False]


# ── multi-start driver ───────────────────────────────────────────────

def test_run_heuristic_toy1():
    sched = run_heuristic(toy1(), HeuristicConfig(total_iterations=100, seed=0))
    assert schedule_makespan(sched) == 2
    assert validate_schedule(toy1(), sched).ok


def test_run_heuristic_toy2():
    sched = run_heuristic(toy2(), HeuristicConfig(total_iterations=100, seed=0))
    assert schedule_makespan(sched) == 2
    assert validate_schedule(toy2(), sched).ok


def test_run_heuristic_big_mold():
    inst = single_mold_big(copies=4, heaters=2)
    sched = run_heuristic(inst, HeuristicConfig(total_iterations=100, seed=0))
    assert schedule_makespan(sched) == 10


def test_run_heuristic_zero_demand():
    inst = variant(
        toy1(),
        molds=tuple(Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin, 0)
                    for m in toy1().molds),
    )
    sched = run_heuristic(inst, HeuristicConfig(total_iterations=10, seed=0))
    assert sched.tuples == []
    assert not sched.sentinel
    assert schedule_makespan(sched) == 0


def test_run_heuristic_deterministic():
    inst = tiny_instance(3)
    cfg = HeuristicConfig(total_iterations=50, seed=11)
    a = run_heuristic(inst, cfg)
    b = run_heuristic(inst, cfg)
    key = lambda s: [(t.id, t.m1, t.m2, t.q, t.heater, t.start, t.length) for t in s.tuples]
    assert key(a) == key(b)


def test_run_heuristic_tiny_instances_feasible():
    for seed in range(15):
        inst = tiny_instance(100 + seed)
        sched = run_heuristic(inst, HeuristicConfig(total_iterations=30, seed=seed))
        report = validate_schedule(inst, sched)
        assert report.ok, f"seed {seed}: {report.violations}"


@pytest.mark.parametrize("inst,stops_early", [
    (generate_instance(SCENARIOS["small"], 2), True),
    (generate_instance(SCENARIOS["small"], 11), False),  # root bound 5 < 6
    (tiny_instance(1001), True),
    (tiny_instance(1021), False),  # root bound 2 < 4
], ids=lambda v: getattr(v, "name", None))
def test_run_heuristic_stops_at_the_root_bound(monkeypatch, inst, stops_early):
    cfg = HeuristicConfig(total_iterations=20, seed=1)
    ctx = curesched.heuristic._context(inst, cfg.parts_mode)
    every = [_start_schedule(curesched.heuristic._single_start(
                 inst, ctx, iteration_seed(cfg.seed, i)))
             for i in range(cfg.total_iterations)]
    best = min(every, key=schedule_makespan)  # the first of the shortest
    witness = horizon_witness(inst)
    if schedule_makespan(witness) < schedule_makespan(best):
        best = witness
    bound = root_bound(inst, cfg.parts_mode)
    first = next((i for i, s in enumerate(every)
                  if schedule_makespan(s) <= bound), None)
    assert (first is not None) == stops_early

    taken = []
    single_start = curesched.heuristic._single_start

    def counted(*args):
        taken.append(args[2])
        return single_start(*args)

    monkeypatch.setattr(curesched.heuristic, "_single_start", counted)
    sched = run_heuristic(inst, cfg)
    assert _tuple_rows(sched) == _tuple_rows(best)
    stop = cfg.total_iterations if first is None else first + 1
    assert taken == [iteration_seed(cfg.seed, i) for i in range(stop)]


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_a_run_builds_one_schedule_outside_the_improvement_step(monkeypatch,
                                                                mode):
    """Starts hand back rows, so outside `_improve`, which builds each
    candidate it validates, a run calls `_schedule` once, for its result,
    or never when the safe horizon's witness wins, on small 1-15 and tiny
    1000-1039 at 20 starts.  Both kinds of result occur."""
    built, witnesses = [], []
    schedule, witness = _schedule, horizon_witness

    def counted(placed):
        built.append((sys._getframe(1).f_code.co_name, schedule(placed)))
        return built[-1][1]

    def kept_witness(inst):
        witnesses.append(witness(inst))
        return witnesses[-1]

    monkeypatch.setattr(curesched.heuristic, "_schedule", counted)
    monkeypatch.setattr(curesched.heuristic, "horizon_witness", kept_witness)
    cfg = HeuristicConfig(total_iterations=20, seed=1, parts_mode=mode)
    kinds = Counter()
    for inst in _corpus("small") + [tiny_instance(s) for s in range(1000, 1040)]:
        del built[:], witnesses[:]
        sched = run_heuristic(inst, cfg)
        outside = [(caller, b) for caller, b in built if caller != "_improve"]
        if witnesses and sched is witnesses[0]:
            assert outside == [], inst.name
        else:
            assert outside == [("run_heuristic", sched)], inst.name
            assert outside[0][1] is sched, inst.name
        kinds[bool(outside)] += 1
        kinds["improved"] += len(built) - len(outside)
    assert kinds[True] and kinds[False] and kinds["improved"]


@pytest.mark.parametrize("inst,meets_bound", [
    (generate_instance(SCENARIOS["small"], 2), True),
    (generate_instance(SCENARIOS["small"], 11), False),
    (tiny_instance(1001), True),
    (tiny_instance(1021), False),
], ids=lambda v: getattr(v, "name", None))
def test_witness_is_built_only_when_no_start_meets_the_bound(
        monkeypatch, inst, meets_bound):
    # a one-period stand-in for the witness: shorter than any start, so it
    # wins wherever it is still a candidate
    short = Schedule([AssignmentTuple(1, 0, inst.mold_ids[0], 1,
                                      heater=inst.heaters[0], start=0,
                                      length=1)])
    built = []

    def witness(inst):
        built.append(inst)
        return short

    monkeypatch.setattr(curesched.heuristic, "horizon_witness", witness)
    sched = run_heuristic(inst, HeuristicConfig(total_iterations=20, seed=1))
    assert len(built) == (0 if meets_bound else 1)
    assert (sched is short) == (not meets_bound)


def _start_schedule(placed):
    """The `Schedule` of a start's placed rows; the sentinel for None."""
    return Schedule.empty_candidate() if placed is None else _schedule(placed)


def _tuple_rows(schedule):
    return [(t.id, t.m1, t.m2, t.q, t.heater, t.start, t.length)
            for t in schedule.tuples]


def _split_misses_demand(inst, rows):
    """Whether halving each two-mold (id, m1, m2, q) row, a mixed pair into
    singles of ceil(q/2) and floor(q/2), leaves some demand uncured."""
    produced = Counter()
    for _id, m1, m2, q in rows:
        if m1 == m2:
            produced[m1] += 2 * q
        elif m1:
            produced[m1] += (q + 1) // 2
            produced[m2] += q // 2
        else:
            produced[m2] += q
    return any(produced[m.id] < m.demand for m in inst.molds)


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_start_cutoff_is_exact(monkeypatch, mode):
    """A cutoff at or below a placement's makespan gives no rows, one
    above gives the same rows, and a start whose first split misses
    demand is settled by placing alone."""
    improved = []

    def counted_improve(*args, **kwargs):
        improved.append(args[2])
        return _improve(*args, **kwargs)

    monkeypatch.setattr(curesched.heuristic, "_improve", counted_improve)
    single_start = curesched.heuristic._single_start
    kinds = Counter()
    for inst in _corpus("tiny"):
        ctx = _context(inst, mode)
        for i in range(20):
            seed = iteration_seed(1, i)
            rows = _draw(ctx, random.Random(seed))
            try:
                uncut = _uncut(inst, rows, mode, ctx)
            except NoFeasiblePlacement:
                continue
            makespan = schedule_makespan(_schedule(uncut))
            for cutoff in (1, makespan):
                assert _place(inst, ctx, rows, cutoff)[1]
            again, cut = _place(inst, ctx, rows, makespan + 1)
            assert not cut and again == uncut

            improved.clear()
            start = single_start(inst, ctx, seed, makespan)
            misses = _split_misses_demand(inst, rows)
            kinds[misses] += 1
            if misses:
                assert improved == [] and start is None
                assert single_start(inst, ctx, seed, makespan + 1) == uncut
                assert single_start(inst, ctx, seed) == uncut
                assert improved == []
            else:  # improving may shorten it, so it runs uncut
                assert len(improved) == 1 and start is not None
    assert kinds[True] and kinds[False]


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_work_bound_cut_is_exact_where_it_fires(mode):
    """On every plant, a cutoff at the best makespan so far or at the
    start's own gives the sentinel, having placed a prefix of what the
    uncut run placed and no tuple past the first one ending at or after
    the cutoff; the work bound stops some runs sooner, before their first
    placement and after one. A cutoff above the makespan gives the uncut
    rows."""
    fired = Counter()
    for inst in _corpus("plants"):
        ctx = _context(inst, mode)
        best = None  # the cutoff run_heuristic would pass: the best so far
        for i in range(5):
            rows = _draw(ctx, random.Random(iteration_seed(1, i)))
            # every tuple placed, in placement order
            order, stopped = _place(inst, ctx, rows)
            assert not stopped
            makespan = schedule_makespan(_schedule(order))
            for cutoff in {best, makespan, makespan + 1} - {None}:
                seen, stopped = _place(inst, ctx, rows, cutoff)
                if cutoff > makespan:
                    assert not stopped and seen == order
                    continue
                assert stopped
                # placing stops at the latest at the first tuple ending at
                # or after the cutoff, so the bound fired if fewer were placed
                late = next(j for j, (*_, start, length) in enumerate(order)
                            if start + length >= cutoff)
                assert seen == order[:len(seen)]
                assert len(seen) <= late
                if len(seen) < late:
                    fired["after a placement" if seen else "at once"] += 1
            best = makespan if best is None else min(best, makespan)
    assert fired["at once"] and fired["after a placement"]


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
@pytest.mark.parametrize("corpus", ["tiny", "plants"])
def test_heater_cut_places_as_every_heater_would(corpus, mode):
    """Visiting a pair's heaters fastest first, and skipping each that
    cannot end by the chosen heater's end, places every tuple where the
    plain reference, which plans each heater in id order, does: the same
    schedule or failure with no cutoff, and with one, the sentinel exactly
    when the reference ends at or after it."""
    seen = Counter()
    for inst in _corpus(corpus):
        ctx = _context(inst, mode)
        best = math.inf  # the cutoff run_heuristic would pass
        for i in range(20):
            rows = _draw(ctx, random.Random(iteration_seed(1, i)))
            try:
                expected = reference_placement(inst, _tuples(rows), mode)
            except NoFeasiblePlacement:
                expected = None
            makespan = schedule_makespan(expected or Schedule.empty_candidate())
            for cutoff in {math.inf, best, makespan, makespan + 1}:
                try:
                    got, cut = _place(inst, ctx, rows, cutoff)
                except NoFeasiblePlacement:
                    assert expected is None, (inst.name, i, cutoff)
                    seen["no placement"] += 1
                    continue
                if makespan >= cutoff:  # the reference fails or ends late
                    assert cut and cutoff < math.inf, (inst.name, i, cutoff)
                    seen["sentinel"] += 1
                else:
                    assert not cut and sorted(got) == _tuple_rows(expected), (
                        inst.name, i, cutoff)
                    seen["schedule"] += 1
            best = min(best, makespan)
    assert seen["sentinel"] and seen["schedule"]


class _VisitedRows(list):
    """A pair's heater rows that log each visit `_place` makes: the row,
    and the kernel's ready period, quantity and chosen end as it comes to
    the row; each loop over the rows gets its own log."""

    def __init__(self, rows, loops):
        super().__init__(rows)
        self.loops = loops

    def __iter__(self):
        visits = []
        self.loops.append((self, visits))
        for row in list.__iter__(self):
            kernel = sys._getframe(1).f_locals
            visits.append((row, kernel["tuple_id"], kernel["ready"],
                           kernel["q"], kernel["chosen_end"]))
            yield row


class _PlannedMemo(curesched.domain.ChangeoverMemo):
    """A `ChangeoverMemo` that logs the (tuple id, heater) of each lookup
    `_place` makes."""

    def __init__(self, inst, planned):
        super().__init__(inst)
        self.planned = planned

    def __getitem__(self, key):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_place":
            self.planned.append((caller.f_locals["tuple_id"],
                                 caller.f_locals["k"]))
        return super().__getitem__(key)


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_heater_visit_stops_at_the_first_heater_that_cannot_win(mode):
    """On the plants, a tuple's heaters are visited fastest first up to
    and including the first one that could not end by the chosen end even
    from the tuple's ready period, ready + ceil(q / r) > chosen end, and
    no further: no later heater is visited, so none is planned (looked up
    in `ctx.plans`).  A visit that stops short of the last row stops at
    such a heater; some do."""
    stopped_short = 0
    for inst in _corpus("plants"):
        loops, planned = [], []
        ctx = _context(inst, mode)
        ctx = replace(ctx, plans=_PlannedMemo(inst, planned), pairs={
            pair: record._replace(heaters=_VisitedRows(record.heaters, loops))
            for pair, record in ctx.pairs.items()})
        for i in range(3):
            rows = _draw(ctx, random.Random(iteration_seed(1, i)))
            del loops[:], planned[:]
            _uncut(inst, rows, ctx=ctx)
            allowed = {}  # tuple id -> the heaters its visit came to
            for options, visits in loops:
                for j, ((k, r, _cure), _id, ready, q, end) in enumerate(visits):
                    allowed.setdefault(_id, set()).add(k)
                    cannot_win = ready + -(-q // r) > end
                    if j < len(visits) - 1:  # a later heater was visited
                        assert not cannot_win, (inst.name, _id, k)
                    elif len(visits) < len(options):  # it stopped short
                        assert cannot_win, (inst.name, _id, k)
                        stopped_short += 1
            assert planned and all(k in allowed[_id] for _id, k in planned)
    assert stopped_short


def test_a_heater_that_cures_nothing_in_a_period_is_never_chosen():
    """On heater 1 mold 1 cures slower than a period, so every pair holding
    it has rate 0 there: its changeover fits, but the heater's own half of
    `plan_slot` fails.  Sized anyway, such a heater would take any quantity
    in one period, and as the lowest id it would win every tie; instead
    each tuple lands where the plain reference puts it, with no cutoff, a
    cutoff at the reference's makespan and one past it."""
    base = toy1_two_heaters()
    inst = variant(base, curing={**base.curing,
                                 (1, 1): base.period_dmin + 1})
    plan = curesched.domain.plan_slot(inst, 1, {}, 0, 0, {1: 1, 2: 1})
    assert plan.problems == ("cure time exceeds the period budget on heater 1",)
    rows = [(1, 1, 2, 30), (2, 0, 1, 30), (3, 0, 2, 30), (4, 1, 1, 10)]
    expected = reference_placement(inst, _tuples(rows))
    assert all(t.heater == 2 for t in expected.tuples if 1 in (t.m1, t.m2))
    makespan = schedule_makespan(expected)
    for cutoff in (math.inf, makespan, makespan + 1):
        got, cut = _place(inst, _context(inst, PARTS_PER_HEATER), rows,
                          cutoff)
        if cutoff <= makespan:
            assert cut
        else:
            assert sorted(got) == _tuple_rows(expected), cutoff


def test_work_bound_counts_only_heaters_some_pair_runs_on():
    """Heater 2 cures no mold, so the heater time left is heater 1's
    alone: two tuples whose least periods sum to the makespan are cut
    before the first is placed (counting heater 2's periods too, the
    first would be placed), and a cutoff past the makespan gives the
    uncut rows."""
    inst = variant(toy1(), heaters=(1, 2), init={(1, 1): 1})
    # mold 1 is mounted, so each tuple cures its full rate from period 0
    rows = [(1, 0, 1, 72), (2, 0, 1, 108)]
    uncut = reference_placement(inst, _tuples(rows))
    assert _tuple_rows(uncut) == [(1, 0, 1, 72, 1, 0, 2),
                                  (2, 0, 1, 108, 1, 2, 3)]
    ctx = _context(inst, PARTS_PER_HEATER)
    placed, stopped = _place(inst, ctx, rows, 5)
    assert stopped and placed == []
    placed, stopped = _place(inst, ctx, rows, 6)
    assert not stopped and sorted(placed) == _tuple_rows(uncut)
    assert ctx.working == 1


def _boundary_instance(resource, units):
    """Two heaters that cure molds 1 and 2; an identical pair holds two
    units of its mold and two of part 1 (molds 1 and 2).  `resource`
    ("mold" or "part") gets `units` units, the other plenty."""
    inst = toy1_two_heaters()
    copies = units if resource == "mold" else 4
    molds = tuple(replace(m, copies=copies) for m in inst.molds)
    parts = (Part(id=1, units=units if resource == "part" else 4,
                  molds=frozenset({1, 2})),)
    return variant(inst, molds=molds, parts=parts)


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
@pytest.mark.parametrize("resource", ["mold", "part"])
@pytest.mark.parametrize("units", [3, 4])  # 2|H| - 1 and 2|H|, |H| = 2
def test_a_resource_gets_a_profile_unless_it_can_never_bind(resource, units,
                                                            mode):
    """A mold with fewer than 2|H| copies, or in global mode a part with
    fewer than 2|H| units, H its heaters, gets a usage profile, and one
    with 2|H| gets none; either way each tuple lands where the plain
    reference puts it, with no cutoff, a cutoff at the reference's
    makespan and one past it.  At 2|H| - 1 units the second identical
    pair waits for the first."""
    inst = _boundary_instance(resource, units)
    ctx = _context(inst, mode)
    profiled = {res for record in ctx.pairs.values()
                for res, _n, _cap in record.held}
    binds = units < 4 and (resource == "mold" or mode == PARTS_GLOBAL)
    ids = (1, 2) if resource == "mold" else (1,)
    assert profiled == ({(resource, i) for i in ids} if binds else set())
    first = 1 if resource == "mold" else 2  # the part spans both molds
    rows = [(1, 1, 1, 40), (2, first, first, 40)]
    expected = reference_placement(inst, _tuples(rows), mode)
    assert (expected.tuples[1].start > 0) == binds
    makespan = schedule_makespan(expected)
    for cutoff in (math.inf, makespan, makespan + 1):
        got, cut = _place(inst, ctx, rows, cutoff)
        if cutoff <= makespan:
            assert cut
        else:
            assert sorted(got) == _tuple_rows(expected), cutoff


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_a_start_cut_at_once_builds_no_profile(monkeypatch, mode):
    """Where the work bound stops a start before its first placement,
    no usage profile has been built; the uncut runs of the same starts
    build some."""
    built = []

    class Counted(_Profile):
        def __init__(self, capacity):
            super().__init__(capacity)
            built.append(self)

    monkeypatch.setattr(curesched.heuristic, "_Profile", Counted)
    at_once = uncut_built = 0
    for inst in _corpus("plants"):
        ctx = _context(inst, mode)
        best = math.inf
        for i in range(3):
            rows = _draw(ctx, random.Random(iteration_seed(1, i)))
            built[:] = []
            uncut, _stopped = _place(inst, ctx, rows)
            first_end = uncut[0][5] + uncut[0][6]
            uncut_built += len(built)
            built[:] = []
            seen, stopped = _place(inst, ctx, rows, best)
            # nothing placed, though the first tuple ends before the cutoff
            if stopped and not seen and first_end < best:
                at_once += 1
                assert built == [], (inst.name, i)
            best = min(best, max(start + length
                                 for *_, start, length in uncut))
    assert at_once and uncut_built


def test_work_bound_premise_holds_for_every_slot_plan():
    """Each pair's `_context` heater rows are its heaters with their
    `slot_rate` and slowest cure time, fastest first and ids breaking
    ties, and no tuple a `ChangeoverMemo` deduction sizes for the pair on
    heater k, from empty or initial residents, with or without an idle
    gap, cures q in fewer than ceil(q / r_k) periods, r_k the heater's own
    rate; each such length is the length of `plan_slot`'s plan.  The
    first row's rate is the pair's best, so the work bound's ceil(q / r)
    holds too."""
    instances = ([tiny_instance(seed) for seed in range(1000, 1040)]
                 + _corpus("plants"))
    checked = 0
    for inst in instances:
        ctx = curesched.heuristic._context(inst, PARTS_PER_HEATER)
        rows = curesched.domain.pair_slots(inst)
        rate = {(s.m1, s.m2, s.heater):
                curesched.domain.slot_rate(inst.period_dmin, s.max_tv)
                for s in rows}
        cure = {(s.m1, s.m2, s.heater): s.max_tv for s in rows}
        expected = {}
        for (m1, m2, k), r in sorted(rate.items(), key=lambda kv: -kv[1]):
            expected.setdefault((m1, m2), []).append((k, r, cure[m1, m2, k]))
        assert {pair: record.heaters
                for pair, record in ctx.pairs.items()} == expected
        memo = curesched.domain.ChangeoverMemo(inst)
        for s in rows:
            r = rate[s.m1, s.m2, s.heater]
            molds = curesched.domain.multiset(s.counts)
            for residents in ((), ctx.initial[s.heater]):
                for gap in (False, True):
                    work = memo[residents, molds, gap]
                    plan = curesched.domain.plan_slot(
                        inst, s.heater, dict(residents), 0, int(gap),
                        s.counts)
                    # None, or a slot that cures nothing in a period,
                    # exactly when plan_slot makes no plan
                    assert (work is None or r <= 0) == bool(plan.problems)
                    if plan.problems:
                        continue
                    checked += 1
                    cap_first = curesched.domain.first_capacity(
                        inst.period_dmin, work, s.max_tv)
                    for q in range(1, 2 * r + 2):
                        length = curesched.domain.periods_for(q, cap_first, r)
                        assert length == plan.length_for(q) >= -(-q // r), (
                            inst.name, s, residents, gap, q)
    assert checked


def test_split_production_is_the_split_lists_production():
    instances = [tiny_instance(seed) for seed in range(1000, 1200)]
    for inst in instances + _corpus("plants"):
        ctx = _context(inst, PARTS_PER_HEATER)
        for i in range(20):
            rows = _draw(ctx, random.Random(iteration_seed(1, i)))
            assert curesched.heuristic._split_production(rows) \
                == produced_by_mold(_tuples(curesched.heuristic._split(rows)))


# sha256 of repr(_tuple_rows(...)) at 20 starts, seed 1, earliest-finish
# placement
PLANT_DIGESTS = {
    ("medium", 5, PARTS_PER_HEATER):
        "871e3dc15616248b1e46d5adca544f0cfd12e93b10e8d1634430605dd65a25cb",
    ("medium", 5, PARTS_GLOBAL):
        "8cbb4ea1311fcde6cfc96dbace4502c8f032580ca7c1bdb46e637688320f09ff",
    ("large", 2, PARTS_PER_HEATER):
        "5fe0fe577770d3af94ed3a14d95f3f9cae352b7a9664357470272e3658eabc6e",
    ("large", 2, PARTS_GLOBAL):
        "a10dc543a959cd76354aa45f8ac65431f37376310212376f2ae7aaae461b1488",
}


@pytest.mark.parametrize("size,seed,mode", sorted(PLANT_DIGESTS))
def test_run_heuristic_plant_schedules_frozen(size, seed, mode):
    inst = generate_instance(SCENARIOS[size], seed)
    sched = run_heuristic(
        inst, HeuristicConfig(total_iterations=20, seed=1, parts_mode=mode))
    digest = hashlib.sha256(repr(_tuple_rows(sched)).encode()).hexdigest()
    assert digest == PLANT_DIGESTS[(size, seed, mode)]


# sha256 over repr(_tuple_rows(...)) of every instance in turn, seed 1,
# earliest-finish placement; tiny 1000-1199 and small 1-15 at 20 starts, the
# plants (medium 1-10, then large 1-5) at 100 as `heuristic-plant` runs them;
# tiny 1000-1199 holds 32 instances with initial residents and 58 with a part.
# "plants-4241" runs the plants again at the held-out seed 4241, so a speed
# change tuned at seed 1 keeps its schedules at a seed it was not tuned on
CORPUS_DIGESTS = {
    ("tiny", PARTS_PER_HEATER):
        "4114e1f955fc6a0b0731c14a5a3905a7a35af46de28880aadf2297afcdcee38c",
    ("tiny", PARTS_GLOBAL):
        "9e192eecff1e4ddc2314c0e3addc2b89d163d9ac6880e7ac82917b39b5177343",
    ("small", PARTS_PER_HEATER):
        "2a5b45d48e868fe3ea3175ae1673ef80d3170c07adc45694bfff3f9074c0ec91",
    ("small", PARTS_GLOBAL):
        "cada6d98c2fd8c5105ca3033902dc8482e2e2f8f3db4e4b70cc76be065361555",
    ("plants", PARTS_PER_HEATER):
        "3cb48fde4b5e31fd2aec61f3e4d84b2a1d1c4148743180bf2c914a98539423db",
    ("plants", PARTS_GLOBAL):
        "7c2e6a22c716e52d591fef39e52080cee713a881e60ee327ea464f0deda79755",
    ("plants-4241", PARTS_PER_HEATER):
        "11d9bf7a3c44cc29505725a971e1aededcccdab3eee2e427807fb243d06df006",
    ("plants-4241", PARTS_GLOBAL):
        "f2f85310bcdf20f01580a1221d05893063d45686084eb7e26663ef61500e6c00",
}
# corpus -> (instances, starts, seed) of its digest run
_CORPUS_RUNS = {"tiny": ("tiny", 20, 1), "small": ("small", 20, 1),
                "plants": ("plants", 100, 1),
                "plants-4241": ("plants", 100, 4241)}


def _corpus(name):
    if name == "tiny":
        return [tiny_instance(seed) for seed in range(1000, 1200)]
    if name == "plants":
        return [generate_instance(SCENARIOS[size], seed)
                for size, count in (("medium", 10), ("large", 5))
                for seed in range(1, count + 1)]
    return [generate_instance(SCENARIOS["small"], seed) for seed in range(1, 16)]


@pytest.mark.parametrize("corpus,mode", sorted(CORPUS_DIGESTS))
def test_run_heuristic_corpus_schedules_frozen(corpus, mode):
    instances, starts, seed = _CORPUS_RUNS[corpus]
    cfg = HeuristicConfig(total_iterations=starts, seed=seed, parts_mode=mode)
    digest = hashlib.sha256()
    for inst in _corpus(instances):
        sched = run_heuristic(inst, cfg)
        digest.update(repr(_tuple_rows(sched)).encode())
    assert digest.hexdigest() == CORPUS_DIGESTS[(corpus, mode)]


# ── makespans no change to the placement rule may lengthen ──────────

# the heuristic makespan of each instance in turn, seed 1, as the
# earliest-start placement rule gave them: tiny 1000-1199 at 20 starts,
# small 1-15, medium 1-10 and large 1-5 at 100
RECORDED_MAKESPANS = {
    ("tiny", PARTS_PER_HEATER): (
        2, 1, 3, 2, 2, 4, 3, 1, 3, 4, 6, 1, 1, 3, 4, 1, 7, 2, 3, 1,
        3, 6, 2, 2, 1, 3, 1, 1, 2, 3, 4, 4, 4, 6, 1, 6, 7, 2, 2, 10,
        3, 7, 2, 3, 1, 7, 1, 1, 1, 3, 3, 1, 1, 4, 3, 2, 4, 5, 4, 3,
        6, 3, 2, 4, 2, 4, 2, 2, 1, 4, 3, 3, 1, 3, 3, 4, 3, 7, 1, 2,
        1, 3, 2, 1, 8, 2, 3, 3, 3, 3, 3, 5, 3, 4, 4, 1, 2, 4, 1, 4,
        7, 2, 2, 3, 1, 1, 4, 4, 1, 4, 6, 2, 2, 1, 2, 1, 2, 5, 7, 2,
        4, 6, 4, 1, 1, 1, 4, 5, 2, 3, 3, 1, 5, 2, 1, 2, 3, 3, 2, 1,
        5, 1, 1, 3, 3, 1, 2, 2, 2, 6, 3, 1, 4, 3, 4, 1, 5, 3, 2, 3,
        6, 5, 3, 2, 1, 1, 6, 5, 10, 1, 1, 4, 8, 4, 1, 2, 6, 2, 4, 4,
        2, 2, 8, 9, 6, 5, 4, 4, 6, 4, 2, 1, 4, 2, 2, 1, 2, 7, 6, 7,
    ),
    ("tiny", PARTS_GLOBAL): (
        2, 1, 3, 2, 2, 4, 3, 1, 3, 4, 6, 1, 1, 3, 4, 1, 7, 2, 3, 1,
        3, 6, 2, 2, 1, 3, 1, 1, 2, 3, 4, 4, 4, 6, 1, 6, 7, 2, 2, 10,
        3, 7, 2, 4, 1, 7, 1, 1, 1, 3, 3, 1, 1, 4, 3, 2, 4, 5, 4, 3,
        6, 3, 2, 4, 2, 4, 2, 2, 1, 4, 3, 3, 1, 3, 3, 4, 3, 7, 1, 2,
        1, 3, 2, 1, 8, 2, 3, 3, 3, 3, 3, 5, 3, 4, 4, 1, 2, 4, 1, 4,
        7, 2, 4, 3, 1, 1, 4, 4, 1, 4, 6, 2, 2, 1, 2, 1, 2, 5, 7, 2,
        4, 6, 4, 1, 1, 1, 4, 5, 2, 3, 3, 1, 5, 2, 1, 2, 3, 3, 4, 1,
        5, 1, 1, 3, 3, 1, 4, 2, 3, 6, 3, 1, 4, 5, 4, 1, 5, 3, 2, 3,
        6, 5, 3, 2, 1, 1, 6, 5, 10, 1, 1, 4, 8, 4, 1, 2, 6, 2, 4, 4,
        4, 2, 8, 9, 6, 5, 6, 4, 6, 4, 2, 1, 6, 2, 2, 1, 2, 7, 6, 7,
    ),
    ("small", PARTS_PER_HEATER): (
        4, 6, 4, 4, 9, 5, 11, 3, 10, 3, 16, 7, 11, 3, 4,
    ),
    ("medium", PARTS_PER_HEATER): (
        6, 14, 8, 10, 23, 10, 28, 10, 25, 6,
    ),
    ("large", PARTS_PER_HEATER): (
        40, 42, 36, 39, 55,
    ),
}
_SIZES = {"small": 15, "medium": 10, "large": 5}


@pytest.mark.parametrize("corpus,mode", list(RECORDED_MAKESPANS))
def test_run_heuristic_makespans_never_longer_than_recorded(corpus, mode):
    if corpus == "tiny":
        instances, starts = _corpus("tiny"), 20
    else:
        instances = [generate_instance(SCENARIOS[corpus], seed)
                     for seed in range(1, _SIZES[corpus] + 1)]
        starts = 100
    cfg = HeuristicConfig(total_iterations=starts, seed=1, parts_mode=mode)
    for inst, recorded in zip(instances, RECORDED_MAKESPANS[corpus, mode],
                              strict=True):
        sched = run_heuristic(inst, cfg)
        assert schedule_makespan(sched) <= recorded, inst.name
        assert validate_schedule(inst, sched, mode).ok, inst.name


# ── the per-run plan memo ────────────────────────────────────────────

def _counted_run(monkeypatch, inst):
    """(the function behind each `changeover` call, the run's context) of
    one 20-start run."""
    calls, contexts = [], []
    changeover = curesched.domain.changeover
    context = curesched.heuristic._context

    def counted_changeover(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return changeover(*args)

    def kept_context(inst, parts_mode):
        contexts.append(context(inst, parts_mode))
        return contexts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(curesched.domain, "changeover", counted_changeover)
        patch.setattr(curesched.heuristic, "_context", kept_context)
        run_heuristic(inst, HeuristicConfig(total_iterations=20, seed=1))
    assert len(contexts) == 1
    return calls, contexts[0]


def test_assignment_plans_each_changeover_once_per_run(monkeypatch):
    inst = generate_instance(SCENARIOS["medium"], 1)
    calls, ctx = _counted_run(monkeypatch, inst)
    # placements on every heater, their one-period retries and shaving all
    # read the changeover memo; only the check of each improved candidate
    # plans on its own, through plan_slot
    assert set(calls) == {"__missing__", "plan_slot"}
    assert 0 < len(ctx.plans) == calls.count("__missing__")


def test_plan_memo_lives_and_dies_with_one_run(monkeypatch):
    first, second = (generate_instance(SCENARIOS["medium"], seed)
                     for seed in (1, 2))
    alone = _counted_run(monkeypatch, second)
    _counted_run(monkeypatch, first)
    after = _counted_run(monkeypatch, second)
    assert after[0] == alone[0]
    assert after[1].plans == alone[1].plans
    assert after[1].plans is not alone[1].plans


# ── starts that cannot place every tuple ─────────────────────────────

def test_two_removals_blocks_a_following_single():
    inst = _two_removals()
    assert validate_instance(inst).ok
    assert solve_exact(inst, 3).makespan == 1
    with pytest.raises(NoFeasiblePlacement):
        _place(inst, _context(inst, PARTS_PER_HEATER),
               [(1, 1, 1, 4), (2, 0, 2, 8)])


def test_a_pair_no_heater_cures_is_not_placed():
    """Mold 2 cures on no heater, so its pair with mold 1 fits none."""
    inst = variant(toy1(), curing={(1, 1): 400})
    with pytest.raises(NoFeasiblePlacement,
                       match=r"^pair \(1, 2\) fits no heater$"):
        _place(inst, _context(inst, PARTS_PER_HEATER), [(1, 1, 2, 4)])


def test_run_heuristic_skips_failed_starts():
    inst = _two_removals()
    sched = run_heuristic(inst, HeuristicConfig(total_iterations=100, seed=0))
    assert validate_schedule(inst, sched).ok
    assert schedule_makespan(sched) == 2


def test_run_heuristic_raises_when_every_start_fails():
    # seed 0's only start cannot place its tuples, and neither can the
    # witness: (1, 1), then (0, 2)
    with pytest.raises(NoFeasiblePlacement):
        run_heuristic(_two_removals(), HeuristicConfig(total_iterations=1, seed=0))


def test_improvement_keeps_incumbent_when_split_cannot_be_placed(monkeypatch):
    inst = toy1()
    ctx = _context(inst, PARTS_PER_HEATER)
    initial = _uncut(inst, [(1, 1, 1, 5), (2, 2, 2, 5)], ctx=ctx)

    def unplaceable(*args, **kwargs):
        raise NoFeasiblePlacement("no heater budget")

    monkeypatch.setattr(curesched.heuristic, "_place", unplaceable)
    assert _improve(inst, ctx, initial) is initial


def test_config_validation():
    # "per_heater" is not a parts mode; the constant is "per-heater"
    with pytest.raises(ValueError):
        HeuristicConfig(parts_mode="per_heater")
    with pytest.raises(ValueError):
        HeuristicConfig(total_iterations=-1)
    HeuristicConfig(total_iterations=0)
