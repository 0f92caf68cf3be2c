"""Data model, pair table, capacity arithmetic, schedule validation.

Expected values are frozen from hand enumeration on the toy instances:
  - toy1 pair slots: (1,1,1), (1,2,1), (2,2,1) plus the singles (0,1,1), (0,2,1)
  - toy1 first-period capacity after two setups: (14400 - 1200) // 400 = 33
  - toy1 single-tuple optimum schedule ((1,2), q=10, one period) is feasible
"""

import math
import random
from dataclasses import replace

import pytest

import curesched.domain
from curesched.domain import (
    AssignmentTuple,
    ChangeoverMemo,
    Instance,
    Mold,
    Part,
    PARTS_GLOBAL,
    PARTS_PER_HEATER,
    Schedule,
    SlotPlan,
    components,
    first_capacity,
    heater_walk,
    initial_residents,
    multiset,
    pair_table,
    part_usage,
    periods_for,
    plan_slot,
    schedule_makespan,
    slot_rate,
    transition_work,
    validate_instance,
    validate_schedule,
)

from curesched.gen import SCENARIOS, generate_instance
from curesched.horizon import model_size

from helpers import (
    malformed_variants,
    pair_table_corpus,
    reference_pair_slots,
    table_slots,
    tiny_instance,
    toy1,
    toy1_two_heaters,
    toy2,
    variant,
)


# ── pair table ───────────────────────────────────────────────────────

def _keys(slots):
    return [(s.m1, s.m2, s.heater) for s in slots]


def test_toy1_pair_triples():
    slots = table_slots(toy1())
    assert _keys(slots) == [(0, 1, 1), (0, 2, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1)]
    assert [s.counts for s in slots] == [
        {1: 1}, {2: 1}, {1: 2}, {1: 1, 2: 1}, {2: 2}]
    assert all(s.usage == {} and s.max_tv == 400 for s in slots)


def test_toy1_triples_by_mold():
    slots = table_slots(toy1())
    # slots holding the mold, keyed (m1, m2, heater), with its copies on board
    on_board = {m: {(s.m1, s.m2, s.heater): s.counts[m]
                    for s in slots if m in s.counts} for m in (1, 2)}
    assert on_board[1] == {(0, 1, 1): 1, (1, 1, 1): 2, (1, 2, 1): 1}
    assert on_board[2] == {(0, 2, 1): 1, (1, 2, 1): 1, (2, 2, 1): 2}
    # the empty slot holds no mold
    assert all(0 not in s.counts for s in slots)


def test_toy1_pairs_by_heater():
    slots = table_slots(toy1())
    assert {s.heater for s in slots} == {1}
    assert {(s.m1, s.m2) for s in slots if s.heater == 1} == {
        (1, 1), (1, 2), (2, 2), (0, 1), (0, 2)}


def test_toy2_part_index():
    """toy2 has one copy of each mold and one unit of the part they share,
    so only the singles can run."""
    usage = {(s.m1, s.m2): s.usage for s in table_slots(toy2())}
    assert usage == {(0, 1): {1: 1}, (0, 2): {1: 1}}


def test_pair_slots_deterministic_and_order_independent():
    inst = variant(toy1_two_heaters(), curing={(1, 1): 400, (2, 1): 700,
                                                (1, 2): 900, (2, 2): 300})
    a = table_slots(inst)
    assert table_slots(inst) == a
    assert {(s.m1, s.m2, s.heater): s.max_tv for s in a} == {
        (0, 1, 1): 400, (0, 2, 1): 700, (1, 1, 1): 400, (1, 2, 1): 700,
        (2, 2, 1): 700, (0, 1, 2): 900, (0, 2, 2): 300, (1, 1, 2): 900,
        (1, 2, 2): 900, (2, 2, 2): 300}
    shuffled = variant(
        inst,
        molds=tuple(reversed(inst.molds)),
        heaters=tuple(reversed(inst.heaters)),
        mold_compat=tuple(reversed(sorted(inst.mold_compat))),
    )
    assert table_slots(shuffled) == a


def test_mixed_pair_needs_common_heater():
    # drop mold 2's curing entry: (1,2) stays compatible but has no heater
    inst = toy1()
    inst = variant(
        inst,
        curing={(1, 1): 400},
        molds=(inst.molds[0], Mold(id=2, copies=2, setup_dmin=600, removal_dmin=300, demand=0)),
    )
    assert _keys(table_slots(inst)) == [(0, 1, 1), (1, 1, 1)]


def _pair_table_inputs() -> list:
    """The pair-table corpus, its components and every malformed variant."""
    insts = pair_table_corpus()
    insts += [c for inst in insts for c in components(inst)]
    return insts + list(malformed_variants().values())


def test_pair_table_is_kept_and_matches_the_per_heater_derivation():
    """`pair_table` is kept on the instance, and each record is what the
    per-heater reference derivation gives for its pair, on
    `_pair_table_inputs()`: its rows are its heaters with their
    `slot_rate` and slowest cure time, fastest first and ids breaking
    ties, and its setup flag is what an in-test check of its copies, part
    units and joint setup against the period gives."""
    for inst in _pair_table_inputs():
        phi = inst.period_dmin
        table = pair_table(inst)
        assert pair_table(inst) is table, inst.name
        on = {}
        for s in reference_pair_slots(inst):
            on.setdefault((s.m1, s.m2), []).append(s)
        assert list(table) == list(on), inst.name
        for pair, record in table.items():
            rows = [(s.heater, slot_rate(phi, s.max_tv), s.max_tv)
                    for s in on[pair]]
            assert record.rows == sorted(rows, key=lambda r: (-r[1], r[0]))
            assert record.heaters == tuple(s.heater for s in on[pair])
            assert record.molds == multiset(record.counts)
            copies = all(c <= inst.mold_by_id[m].copies
                         for m, c in record.counts.items())
            units = all(u <= inst.part_by_id[p].units
                        for p, u in part_usage(inst, record.counts).items())
            setup = sum(inst.mold_by_id[m].setup_dmin * c
                        for m, c in record.counts.items())
            assert record.setup_fits == (copies and units and setup <= phi), (
                inst.name, pair)


def test_the_flat_rows_are_the_pair_table_flattened():
    """`pair_table` flattens into the per-heater reference derivation, row
    for row and in order, on `_pair_table_inputs()`."""
    for inst in _pair_table_inputs():
        assert table_slots(inst) == reference_pair_slots(inst), inst.name


def test_pair_slots_keeps_only_rows_a_schedule_can_run():
    """A (pair, heater) gets a row only if the pair alone has the copies
    and part units it needs and each of its cure times there lies in
    (0, period]; every such one does.  Small plants have one copy per
    mold, so none of their identical pairs remains."""
    for inst in pair_table_corpus():
        rows = table_slots(inst)
        for s in rows:
            assert all(c <= inst.mold_by_id[m].copies
                       for m, c in s.counts.items()), inst.name
            assert all(u <= inst.part_by_id[p].units
                       for p, u in s.usage.items()), inst.name
            assert 0 < s.max_tv <= inst.period_dmin, inst.name
        if inst.name.startswith("S"):
            assert all(m.copies == 1 for m in inst.molds)
            assert all(s.m1 != s.m2 for s in rows), inst.name
    plant = malformed_variants()
    all_rows = [(0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 1, 1),
                (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2)]
    assert _keys(table_slots(plant["base"])) == all_rows
    # malformed instances lose the rows concerned, and raise nothing
    assert _keys(table_slots(plant["zero_cure"])) == [
        key for key in all_rows if key[2] == 2 or 1 not in key[:2]]
    assert _keys(table_slots(plant["slow"])) == [
        key for key in all_rows if key[2] == 1 or 1 not in key[:2]]
    assert not validate_instance(plant["unknown"]).ok
    assert _keys(table_slots(plant["unknown"])) == all_rows
    assert _keys(table_slots(plant["short"])) == [
        key for key in all_rows if key[:2] != (1, 1)]
    assert _keys(table_slots(plant["scarce"])) == [
        key for key in all_rows if key[0] == 0]


# ── instance validation ──────────────────────────────────────────────

def test_toy_instances_admissible():
    assert validate_instance(toy1()).violations == []
    assert validate_instance(toy2()).violations == []
    assert validate_instance(toy1()).ok


def test_validate_rejects_cure_time_beyond_period():
    inst = variant(toy1(), curing={(1, 1): 15000, (2, 1): 400})
    report = validate_instance(inst)
    assert any("cure" in v or "period" in v for v in report.violations)


def test_validate_rejects_demanded_mold_without_heater():
    inst = variant(toy1(), curing={(1, 1): 400})
    report = validate_instance(inst)
    assert not report.ok
    assert any("mold 2" in v for v in report.violations)


def test_validate_rejects_demanded_mold_without_copies():
    bad = Mold(id=1, copies=0, setup_dmin=600, removal_dmin=300, demand=10)
    inst = variant(toy1(), molds=(bad, toy1().molds[1]))
    assert any("mold 1" in v for v in validate_instance(inst).violations)


def test_validate_rejects_unknown_ids():
    inst = variant(toy1(), mold_compat=((1, 1), (1, 2), (2, 2), (2, 9)))
    assert not validate_instance(inst).ok
    inst2 = variant(toy1(), init={(9, 1): 1})
    assert not validate_instance(inst2).ok


def test_validate_rejects_overfull_init():
    inst = variant(toy1(), init={(1, 1): 2, (2, 1): 1})
    assert any("init" in v for v in validate_instance(inst).violations)


def test_validate_rejects_starved_part():
    base = toy2()
    starved = (Part(id=1, units=0, molds=frozenset({1, 2})),)
    inst = variant(base, parts=starved)
    assert any("part" in v for v in validate_instance(inst).violations)


def test_validate_rejects_nonpositive_times_and_demand():
    bad = Mold(id=1, copies=2, setup_dmin=0, removal_dmin=300, demand=-1)
    inst = variant(toy1(), molds=(bad, toy1().molds[1]))
    report = validate_instance(inst)
    assert len(report.violations) >= 2


# ── capacity arithmetic ──────────────────────────────────────────────

def test_slot_rate():
    assert slot_rate(14400, 400) == 36


def test_transition_work_two_setups():
    inst = toy1()
    setups, removals = transition_work(inst, {}, {1: 1, 2: 1})
    assert (setups, removals) == (1200, 0)


def test_transition_work_swap_and_copy():
    inst = toy1()
    # heater held {1: 1, 2: 1}; next tuple is the identical pair (1,1)
    setups, removals = transition_work(inst, {1: 1, 2: 1}, {1: 2})
    assert setups == 600  # one extra copy of mold 1
    assert removals == 300  # mold 2 leaves


def test_toy1_first_period_capacity():
    inst = toy1()
    plan = plan_slot(inst, heater=1, residents={}, prev_end=0, start=0,
                     molds={1: 1, 2: 1})
    assert plan.cap_first == 33  # (14400 - 600 - 600) // 400
    assert plan.cap_int == 36
    assert plan.length_for(10) == 1


def test_plan_slot_multi_period_length():
    inst = toy1()
    plan = plan_slot(inst, heater=1, residents={}, prev_end=0, start=0,
                     molds={1: 1, 2: 1})
    assert plan.length_for(34) == 2  # 33 in the first period, 36 afterwards


def test_plan_slot_gap_skips_removal_charge():
    inst = toy1()
    # resident mold 1 is cleared during the gap period; only the setup is paid
    plan = plan_slot(inst, heater=1, residents={1: 1}, prev_end=1, start=2,
                     molds={2: 1})
    assert plan.cap_first == 34  # (14400 - 600) // 400
    assert plan.length_for(34) == 1


def test_plan_slot_contiguous_charges_removal():
    inst = toy1()
    plan = plan_slot(inst, heater=1, residents={1: 1}, prev_end=1, start=1,
                     molds={2: 1})
    assert plan.cap_first == 33  # (14400 - 300 - 600) // 400
    assert plan.length_for(34) == 2


def test_plan_slot_init_resident_needs_no_setup():
    inst = variant(toy1(), init={(1, 1): 1})
    plan = plan_slot(inst, heater=1, residents={1: 1}, prev_end=0, start=0,
                     molds={1: 1})
    assert plan.cap_first == 36
    assert plan.length_for(36) == 1


def test_plan_slot_sizes_every_quantity_from_one_plan():
    """One plan sizes every quantity with `length_for`: each length is the
    fewest periods whose capacity covers the quantity. The run's
    `ChangeoverMemo` rebuilds that same plan from the deduction under the
    changeover's key and the heater's slowest cure time, and holds None,
    or the slot cures nothing in a period, exactly when the plan breaks a
    budget, whatever periods the tuple occupies."""
    for seed in range(1000, 1200):
        inst = tiny_instance(seed)
        phi, plans = inst.period_dmin, ChangeoverMemo(inst)
        slots = table_slots(inst)
        initial = initial_residents(inst)
        held = [{}] + list({(s.m1, s.m2): s.counts for s in slots}.values())
        for s in slots:
            for residents in held + [initial[s.heater]]:
                for prev_end, start in ((0, 0), (0, 1), (3, 3), (3, 5)):
                    plan = plan_slot(inst, s.heater, residents, prev_end,
                                     start, s.counts)
                    work = plans[multiset(residents), multiset(s.counts),
                                 start > prev_end]
                    cap_int = slot_rate(phi, s.max_tv)
                    assert (work is None or cap_int <= 0) \
                        == bool(plan.problems)
                    if plan.problems:
                        continue
                    assert SlotPlan(first_capacity(phi, work, s.max_tv),
                                    cap_int, work) == plan
                    for q in range(1, 61):
                        length = plan.length_for(q)
                        cover = plan.cap_first + (length - 1) * plan.cap_int
                        assert cover >= q > cover - plan.cap_int or (
                            length == 1 and q <= plan.cap_first)


def test_changeover_memo_agrees_with_plan_slot_on_every_heater():
    """The heuristic's `ChangeoverMemo` is None exactly when `plan_slot`
    reports a changeover problem on a heater, and otherwise holds the
    plan's deduction, which with the heater's slowest cure time gives the
    plan's `cap_first`, `cap_int` and length for every quantity: no heater
    changes a changeover.  The stock instances never exceed a period on
    changeover, so each also runs with setup and removal times scaled by 9,
    as the oracle's check does."""
    stock = [tiny_instance(seed) for seed in range(1000, 1200)]
    stock += [generate_instance(SCENARIOS[size], seed)
              for size, count in (("medium", 10), ("large", 5))
              for seed in range(1, count + 1)]
    heavy = [variant(inst, molds=tuple(
        replace(m, setup_dmin=9 * m.setup_dmin, removal_dmin=9 * m.removal_dmin)
        for m in inst.molds)) for inst in stock]
    seen = {"fits": 0, "breaks": 0}
    for inst in stock + heavy:
        phi, memo = inst.period_dmin, ChangeoverMemo(inst)
        initial = initial_residents(inst)
        on_heater = {}
        for s in table_slots(inst):
            on_heater.setdefault(s.heater, []).append(s)
        for k, on_k in on_heater.items():
            for residents in [initial[k], {}] + [s.counts for s in on_k]:
                held = multiset(residents)
                for s in on_k:
                    for gap in (False, True):
                        plan = plan_slot(inst, k, residents, 0, int(gap),
                                         s.counts)
                        work = memo[held, multiset(s.counts), gap]
                        broken = [p for p in plan.problems
                                  if not p.startswith("cure time")]
                        assert (work is None) == bool(broken), (
                            inst.name, k, residents, s, gap)
                        if work is None:
                            seen["breaks"] += 1
                            continue
                        seen["fits"] += 1
                        cap_first = first_capacity(phi, work, s.max_tv)
                        cap_int = slot_rate(phi, s.max_tv)
                        assert (work, cap_first, cap_int) == (
                            plan.deduction, plan.cap_first, plan.cap_int)
                        for q in {1, cap_first, cap_first + 1,
                                  cap_first + cap_int + 1, 3 * cap_int}:
                            assert periods_for(q, cap_first, cap_int) \
                                == plan.length_for(q), (inst.name, k, s, q)
    assert seen["fits"] and seen["breaks"]


# ── schedules and makespan ───────────────────────────────────────────

def _tuple(tid, m1, m2, q, heater, start, length):
    return AssignmentTuple(id=tid, m1=m1, m2=m2, q=q, heater=heater,
                           start=start, length=length)


def test_schedule_makespan_two_sequential_tuples():
    sched = Schedule(tuples=[
        _tuple(1, 0, 1, 5, 1, 0, 1),
        _tuple(2, 0, 2, 5, 1, 1, 1),
    ])
    assert schedule_makespan(sched) == 2


def test_schedule_makespan_empty_and_sentinel():
    assert schedule_makespan(Schedule(tuples=[])) == 0
    assert schedule_makespan(Schedule.empty_candidate()) == math.inf


def test_toy1_optimal_schedule_validates():
    inst = toy1()
    sched = Schedule(tuples=[_tuple(1, 1, 2, 10, 1, 0, 1)])
    report = validate_schedule(inst, sched)
    assert report.violations == []
    assert schedule_makespan(sched) == 1
    # the sentinel is no schedule, and an unknown parts mode no rule set
    assert validate_schedule(inst, Schedule.empty_candidate()).violations == [
        "sentinel candidate, not a schedule"]
    with pytest.raises(ValueError, match="unknown parts mode"):
        validate_schedule(inst, sched, parts_mode="shared")


def test_heater_walk_replays_each_heater_in_order():
    inst = variant(toy1_two_heaters(), init={(1, 2): 1})
    t1 = _tuple(1, 1, 2, 10, 1, 0, 1)
    t2 = _tuple(2, 0, 1, 5, 2, 0, 2)
    t3 = _tuple(3, 0, 2, 5, 1, 2, 1)
    t4 = _tuple(4, 0, 2, 5, 1, 2, 1)
    walk = [(k, t.id, residents, prev_end)
            for k, t, residents, prev_end in heater_walk(inst, [t4, t3, t2, t1])]
    assert walk == [
        (1, 1, {}, 0),
        (1, 3, {1: 1, 2: 1}, 1),
        (1, 4, {2: 1}, 3),
        (2, 2, {1: 1}, 0),
    ]


def test_validate_flags_heater_overlap():
    inst = toy1()
    sched = Schedule(tuples=[
        _tuple(1, 1, 2, 5, 1, 0, 1),
        _tuple(2, 1, 1, 5, 1, 0, 1),
    ])
    assert any("overlap" in v for v in validate_schedule(inst, sched).violations)


def test_validate_flags_mold_overuse():
    inst = toy1_two_heaters()
    sched = Schedule(tuples=[
        _tuple(1, 1, 1, 5, 1, 0, 1),   # two copies of mold 1
        _tuple(2, 1, 2, 5, 2, 0, 1),   # third copy: nm = 2 exceeded
    ])
    assert any("mold 1" in v for v in validate_schedule(inst, sched).violations)


def test_validate_flags_part_conflict_within_pair():
    inst = toy2()
    sched = Schedule(tuples=[_tuple(1, 1, 2, 10, 1, 0, 1)])
    report = validate_schedule(inst, sched, parts_mode=PARTS_PER_HEATER)
    assert any("part 1" in v for v in report.violations)


def test_validate_part_modes_differ_across_heaters():
    # two heaters, each holding one mold that needs the shared part
    inst = toy2()
    curing = dict(inst.curing)
    curing[(1, 2)] = 400
    curing[(2, 2)] = 400
    inst = variant(inst, heaters=(1, 2), curing=curing)
    sched = Schedule(tuples=[
        _tuple(1, 0, 1, 10, 1, 0, 1),
        _tuple(2, 0, 2, 10, 2, 0, 1),
    ])
    assert validate_schedule(inst, sched, parts_mode=PARTS_PER_HEATER).ok
    report = validate_schedule(inst, sched, parts_mode=PARTS_GLOBAL)
    assert any("part 1" in v for v in report.violations)


def test_validate_checks_per_heater_parts_once_per_tuple():
    # toy2 plus mold 3, whose identical pair needs two units of part 2
    inst = variant(
        toy2(),
        molds=toy2().molds + (Mold(3, 2, 600, 300, 0),),
        curing={**toy2().curing, (3, 1): 400},
        mold_compat=((1, 1), (1, 2), (2, 2), (3, 3)),
        parts=toy2().parts + (Part(id=2, units=1, molds=frozenset({3})),),
    )
    overlapping = Schedule(tuples=[
        _tuple(1, 0, 1, 10, 1, 0, 1),
        _tuple(2, 0, 2, 10, 1, 0, 1),
    ])
    report = validate_schedule(inst, overlapping, parts_mode=PARTS_PER_HEATER)
    assert any("overlap" in v for v in report.violations)
    assert not any("part" in v for v in report.violations)
    two_periods = Schedule(tuples=[
        _tuple(1, 0, 1, 10, 1, 0, 1),
        _tuple(2, 0, 2, 10, 1, 1, 1),
        _tuple(3, 3, 3, 5, 1, 2, 2),
    ])
    report = validate_schedule(inst, two_periods, parts_mode=PARTS_PER_HEATER)
    assert [v for v in report.violations if "part" in v] == [
        "tuple 3 on heater 1: part 2 needs 2 units, only 1 exist"]


def test_validate_counts_global_part_units_once_per_tuple(monkeypatch):
    """In global mode each tuple's part units are worked out once, not
    once per period, and still added up per period: over four periods
    three tuples make three `part_usage` calls in either mode, and each
    period's violations come in part order."""
    inst = toy2()
    inst = variant(inst, heaters=(1, 2),
                   curing={**inst.curing, (1, 2): 400, (2, 2): 400},
                   parts=inst.parts + (Part(id=2, units=0,
                                            molds=frozenset({2})),))
    sched = Schedule(tuples=[_tuple(1, 0, 1, 10, 1, 0, 2),
                             _tuple(2, 0, 2, 20, 2, 1, 2),
                             _tuple(3, 0, 1, 5, 1, 3, 1)])
    calls = []
    real = curesched.domain.part_usage

    def counted(inst, counts):
        calls.append(counts)
        return real(inst, counts)

    monkeypatch.setattr(curesched.domain, "part_usage", counted)
    assert validate_schedule(inst, sched, PARTS_GLOBAL).violations == [
        "part 1 needs 2 units in period 1, only 1 exist",
        "part 2 needs 1 units in period 1, only 0 exist",
        "part 2 needs 1 units in period 2, only 0 exist"]
    assert len(calls) == 3
    del calls[:]
    assert validate_schedule(inst, sched, PARTS_PER_HEATER).violations == [
        "tuple 2 on heater 2: part 2 needs 1 units, only 0 exist"]
    assert len(calls) == 3


def test_validate_flags_capacity_excess():
    inst = toy1()
    sched = Schedule(tuples=[_tuple(1, 1, 2, 34, 1, 0, 1)])
    assert any("capacity" in v for v in validate_schedule(inst, sched).violations)
    ok = Schedule(tuples=[_tuple(1, 1, 2, 34, 1, 0, 2)])
    assert validate_schedule(inst, ok).ok


def test_validate_flags_demand_shortfall():
    inst = toy1()
    sched = Schedule(tuples=[_tuple(1, 0, 1, 10, 1, 0, 1)])
    report = validate_schedule(inst, sched)
    assert any("mold 2" in v and "demand" in v for v in report.violations)


def test_validate_counts_identical_pair_twice():
    # one identical-pair tuple with q=5 covers a demand of 10
    inst = toy1()
    sched = Schedule(tuples=[
        _tuple(1, 1, 1, 5, 1, 0, 1),
        _tuple(2, 2, 2, 5, 1, 1, 1),
    ])
    assert validate_schedule(inst, sched).ok


def test_validate_flags_incompatible_heater_and_pair():
    inst = toy1_two_heaters()
    compat = tuple(p for p in sorted(inst.mold_compat) if p != (1, 2))
    inst = variant(inst, mold_compat=compat)
    sched = Schedule(tuples=[_tuple(1, 1, 2, 10, 1, 0, 1)])
    assert not validate_schedule(inst, sched).ok
    inst2 = variant(toy1(), curing={(1, 1): 400, (2, 1): 400})
    sched2 = Schedule(tuples=[_tuple(1, 0, 1, 10, 7, 0, 1)])
    assert not validate_schedule(inst2, sched2).ok


def test_validate_accepts_gap_after_resident():
    inst = toy1()
    sched = Schedule(tuples=[
        _tuple(1, 0, 1, 10, 1, 0, 1),
        _tuple(2, 0, 2, 34, 1, 2, 1),  # gap at period 1 clears mold 1 free of charge
    ])
    assert validate_schedule(inst, sched).ok


def test_validate_zero_demand_empty_schedule():
    inst = variant(
        toy1(),
        molds=tuple(Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin, 0) for m in toy1().molds),
    )
    assert validate_schedule(inst, Schedule(tuples=[])).ok


def _timed(setup, removal):
    """toy1 with every mold's setup and removal time replaced."""
    return variant(toy1(), molds=tuple(
        Mold(m.id, m.copies, setup, removal, m.demand) for m in toy1().molds))


_UNCOVERED = ["mold 1 demand 10 not covered (produced 0)",
              "mold 2 demand 10 not covered (produced 0)"]


@pytest.mark.parametrize("inst,placed,expected", [
    (toy1(), AssignmentTuple(1, 1, 2, 10),
     ["tuple 1 is not fully assigned"] + _UNCOVERED),
    (toy1(), _tuple(1, 1, 2, -1, 1, 0, 1),
     ["tuple 1 has negative quantity"] + _UNCOVERED),
    (toy1(), _tuple(1, 0, 0, 10, 1, 0, 1),
     ["tuple 1 holds no mold"] + _UNCOVERED),
    (toy1(), _tuple(1, 0, 9, 10, 1, 0, 1),
     ["tuple 1 references unknown mold 9"] + _UNCOVERED),
    (toy1(), _tuple(1, 1, 2, 10, 7, 0, 1),
     ["tuple 1 references unknown heater 7"] + _UNCOVERED),
    (toy1(), _tuple(1, 1, 2, 10, 1, -1, 1),
     ["tuple 1 has an invalid placement window"] + _UNCOVERED),
    (toy1(), _tuple(1, 1, 2, 10, 1, 0, 0),
     ["tuple 1 has an invalid placement window"] + _UNCOVERED),
    (variant(toy1_two_heaters(), curing={(1, 1): 400, (2, 1): 400, (1, 2): 400}),
     _tuple(1, 1, 2, 10, 2, 0, 1),
     ["tuple 1: mold 2 is not compatible with heater 2"] + _UNCOVERED),
    (variant(toy1(), mold_compat=((1, 1), (2, 2))), _tuple(1, 1, 2, 10, 1, 0, 1),
     ["tuple 1: pair (1, 2) is not an allowed mold pair"] + _UNCOVERED),
    # two 8000 setups in the first period
    (_timed(8000, 300), _tuple(1, 1, 2, 10, 1, 0, 1),
     ["tuple 1 on heater 1: changeover work 16000 at period 0 exceeds the "
      "period budget 14400",
      "tuple 1 on heater 1: capacity 0 over 1 period(s) cannot cover "
      "quantity 10"]),
    # two 8000 removals in the idle period before the tuple
    (variant(_timed(600, 8000), init={(1, 1): 1, (2, 1): 1}),
     _tuple(1, 1, 2, 10, 1, 1, 1),
     ["tuple 1 on heater 1: removal work 16000 in the gap at period 0 "
      "exceeds the period budget 14400"]),
    # inadmissible: one tire takes longer than a period
    (variant(toy1(), curing={(1, 1): 20000, (2, 1): 400}),
     _tuple(1, 1, 2, 10, 1, 0, 2),
     ["tuple 1 on heater 1: cure time exceeds the period budget on heater 1",
      "tuple 1 on heater 1: capacity 0 over 2 period(s) cannot cover "
      "quantity 10"]),
    # inadmissible: a cure time of 0 cures nothing, even beside a mold
    # that cures, and divides nothing
    (variant(toy1(), curing={(1, 1): 0, (2, 1): 400}),
     _tuple(1, 1, 2, 10, 1, 0, 2),
     ["tuple 1 on heater 1: cure time 0 on heater 1 is not positive",
      "tuple 1 on heater 1: capacity 0 over 2 period(s) cannot cover "
      "quantity 10"]),
])
def test_validate_schedule_rejection_text(inst, placed, expected):
    report = validate_schedule(inst, Schedule(tuples=[placed]))
    assert report.violations == expected


def _with_mold(mold):
    return variant(toy1(), molds=toy1().molds + (mold,))


@pytest.mark.parametrize("inst,expected", [
    (_with_mold(Mold(1, 2, 600, 300, 0)), ["duplicate mold id 1"]),
    (_with_mold(Mold(0, 2, 600, 300, 0)),
     ["mold id 0 must be positive (0 is the empty slot)"]),
    (_with_mold(Mold(3, -1, 600, 300, 0)),
     ["mold 3 copy count must be non-negative"]),
    (_with_mold(Mold(3, 1, 0, 300, 0)), ["mold 3 setup time must be positive"]),
    (_with_mold(Mold(3, 1, 600, 0, 0)),
     ["mold 3 removal time must be positive"]),
    (_with_mold(Mold(3, 1, 600, 300, -1)),
     ["mold 3 demand must be non-negative"]),
    (variant(toy1(), curing={**toy1().curing, (9, 1): 400}),
     ["curing entry references unknown mold 9"]),
    (variant(toy1(), curing={**toy1().curing, (1, 7): 400}),
     ["curing entry references unknown heater 7"]),
    (variant(toy1(), curing={**toy1().curing, (1, 1): 0}),
     ["cure time for mold 1 in heater 1 must be positive"]),
    (variant(toy1(), curing={**toy1().curing, (1, 1): 20000}),
     ["cure time 20000 for mold 1 in heater 1 exceeds the period"]),
    (variant(toy1(), mold_compat=((1, 1), (1, 2), (1, 9), (2, 2))),
     ["mold_compat pair (1, 9) references unknown mold 9"]),
    (variant(toy1(), parts=(Part(1, 1, frozenset({1})),
                            Part(1, 1, frozenset({2})))),
     ["duplicate part id 1"]),
    (variant(toy1(), parts=(Part(1, -1, frozenset({1})),)),
     ["part 1 unit count must be non-negative",
      "demanded mold 1 requires part 1 with fewer than one unit"]),
    (variant(toy1(), parts=(Part(1, 1, frozenset({9})),)),
     ["part 1 references unknown mold 9"]),
    (variant(toy1(), init={(9, 1): 1}), ["init references unknown mold 9"]),
    (variant(toy1(), init={(1, 7): 1}), ["init references unknown heater 7"]),
    (variant(toy1(), init={(1, 1): 3}),
     ["init count 3 for mold 1 in heater 1 must be 1 or 2",
      "init load on heater 1 exceeds two slots"]),
    (variant(toy1(), init={(1, 1): 2, (2, 1): 1}),
     ["init load on heater 1 exceeds two slots"]),
])
def test_validate_instance_rejection_text(inst, expected):
    assert validate_instance(inst).violations == expected


def test_tiny_instances_admissible():
    for seed in range(25):
        inst = tiny_instance(seed)
        assert validate_instance(inst).ok


# ── independent components ───────────────────────────────────────────


def _layout(parts):
    return [(c.mold_ids, c.heaters) for c in parts]


def small(seed):
    return generate_instance(SCENARIOS["small"], seed)


def test_components_split_s11_by_group():
    inst = small(11)
    parts = components(inst)
    assert _layout(parts) == [((1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6, 7)),
                              ((6, 7), (8, 9, 10))]
    for c in parts:
        assert c.name == inst.name and c.period_dmin == inst.period_dmin
        assert validate_instance(c).ok
        assert all(m in c.mold_ids and k in c.heaters for m, k in c.curing)
    assert [p.id for p in parts[0].parts] == [1] and parts[1].parts == ()


def test_components_drop_heaters_no_mold_can_use():
    inst = small(4)
    assert len(inst.heaters) == 12
    assert _layout(components(inst)) == [((1, 2, 3, 4, 5),
                                          (1, 2, 3, 4, 5, 6, 7))]


def test_part_spanning_two_groups_joins_them():
    inst = small(11)
    joined = variant(inst, parts=inst.parts + (
        Part(id=2, units=1, molds=frozenset({3, 6})),))
    assert _layout(components(joined)) == [(tuple(range(1, 8)),
                                            tuple(range(1, 11)))]


def test_initial_resident_keeps_an_unused_heater():
    inst = small(11)
    assert 11 in inst.heaters and not any(k == 11 for _, k in inst.curing)
    loaded = variant(inst, init={(6, 11): 1})
    parts = components(loaded)
    assert _layout(parts)[1] == ((6, 7), (8, 9, 10, 11))
    assert parts[1].init == {(6, 11): 1} and parts[0].init == {}


def test_components_without_demand_are_left_out():
    inst = small(11)
    idle = variant(inst, molds=tuple(
        Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin,
             0 if m.id in (6, 7) else m.demand) for m in inst.molds))
    assert _layout(components(idle)) == [((1, 2, 3, 4, 5),
                                          (1, 2, 3, 4, 5, 6, 7))]


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_component_models_never_exceed_the_whole(mode):
    insts = [small(s) for s in range(1, 16)]
    insts += [tiny_instance(s) for s in range(1000, 1040)]
    for inst in insts:
        for horizon in (1, 4, 9):
            whole = model_size(inst, horizon, mode)
            for c in components(inst):
                part = model_size(c, horizon, mode)
                assert part.n_constraints <= whole.n_constraints, inst.name
                assert part.n_binary_vars <= whole.n_binary_vars, inst.name
                assert part.n_integer_vars <= whole.n_integer_vars, inst.name
