"""Exact search and the external-solver adapter.

Frozen oracle values:
  toy1 at a 2-period horizon: optimum 1 (pair (1,2) cures 33 >= 10 of each
      mold within the first period's leftover budget).
  toy2: the shared part keeps molds 1 and 2 apart, single copies rule out
      identical pairs, so two sequential single-mold periods: optimum 2.
  toy1 with demand 50 per mold: one period holds at most 33 per slot, so a
      1-period horizon is infeasible and a 2-period one is optimal.
"""

import hashlib
import math
import random
import sys
from dataclasses import replace

import pytest

import curesched.domain
import curesched.exact
import curesched.milp
from curesched.domain import (
    ChangeoverMemo,
    Mold,
    Part,
    PARTS_GLOBAL,
    PARTS_PER_HEATER,
    components,
    initial_residents,
    multiset,
    pair_slots,
    plan_slot,
    schedule_makespan,
    slot_rate,
    validate_instance,
    validate_schedule,
)
from curesched.errors import (
    AdapterFailure,
    AdapterUnavailable,
    InfeasibleAssignment,
    SolutionParseError,
)
from curesched.exact import SolverAdapter, solve_exact
from curesched.gen import SCENARIOS, generate_instance
from curesched.heuristic import HeuristicConfig, run_heuristic
from curesched.horizon import compute_thb
from curesched.lpformat import TIME_LIMIT_ENV
from curesched.milp import build_model, solve_with_adapter

from helpers import (
    PHI,
    brute_force_optimum,
    brute_force_optimum_all_levels,
    child_within_reach,
    plain_memo_solve,
    reference_heater_table,
    single_mold_big,
    tiny_instance,
    toy1,
    toy1_two_heaters,
    toy2,
    uncut_joint_configs,
    variant,
)

STUB = (sys.executable, "-m", "curesched.lpsolve")


def toy1_heavy():
    return variant(
        toy1(),
        molds=tuple(Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin, 50)
                    for m in toy1().molds),
    )


def micro_instance(seed: int):
    """|M| <= 2, one heater, demand <= 6: small enough to enumerate every
    production level, not just the capacity-greedy ones."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(1, 2)
        molds = tuple(
            Mold(id=m, copies=rng.randint(1, 2),
                 setup_dmin=rng.randint(400, 1200),
                 removal_dmin=rng.randint(200, 800),
                 demand=rng.randint(0, 6))
            for m in range(1, n + 1)
        )
        compat = {(m, m) for m in range(1, n + 1)}
        if n == 2 and rng.random() < 0.7:
            compat.add((1, 2))
        parts = ()
        if rng.random() < 0.3:
            parts = (Part(id=1, units=1,
                          molds=frozenset(rng.sample(range(1, n + 1), 1))),)
        inst = variant(
            toy1(),
            name=f"micro{seed}",
            molds=molds,
            heaters=(1,),
            curing={(m, 1): rng.choice((7200, 4800)) for m in range(1, n + 1)},
            mold_compat=tuple(sorted(compat)),
            parts=parts,
        )
        if validate_instance(inst).ok and any(m.demand for m in molds):
            return inst


# ── internal search ──────────────────────────────────────────────────

def test_toy1_exact_optimum():
    report = solve_exact(toy1(), 2)
    assert report.status == "optimal"
    assert report.makespan == 1
    assert report.gap_percent == 0.0
    assert validate_schedule(toy1(), report.schedule).ok


def test_toy2_exact_optimum_both_part_modes():
    for mode in (PARTS_PER_HEATER, PARTS_GLOBAL):
        report = solve_exact(toy2(), 2, parts_mode=mode)
        assert report.status == "optimal"
        assert report.makespan == 2
        assert validate_schedule(toy2(), report.schedule, mode).ok


def test_exact_zero_demand():
    inst = variant(
        toy1(),
        molds=tuple(Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin, 0)
                    for m in toy1().molds),
    )
    report = solve_exact(inst, 1)
    assert (report.status, report.makespan) == ("optimal", 0)


def test_exact_infeasible_horizon():
    report = solve_exact(toy1_heavy(), 1)
    assert report.status == "infeasible"
    assert report.makespan is None
    report2 = solve_exact(toy1_heavy(), 2)
    assert (report2.status, report2.makespan) == ("optimal", 2)


def test_exact_horizon_insensitive_above_optimum():
    assert solve_exact(toy1(), 2).makespan == 1
    assert solve_exact(toy1(), 5).makespan == 1
    assert solve_exact(toy1(), 1).makespan == 1


def test_exact_with_initial_load():
    inst = variant(toy1(), init={(1, 1): 2})
    report = solve_exact(inst, 2)
    assert report.makespan == 1
    assert validate_schedule(inst, report.schedule).ok


def test_exact_node_limit_without_incumbent(monkeypatch):
    monkeypatch.setattr(curesched.exact, "_MAX_NODES", 2)
    inst = single_mold_big(copies=4, heaters=2)
    report = solve_exact(inst, 20)
    assert report.status == "limit"
    assert report.makespan is None
    assert report.schedule is None


def test_exact_node_limit_with_incumbent(monkeypatch):
    # the horizon below a witnessed 25: the cap stops the search before it
    # finds anything, and no incumbent stands in for what it did not find
    monkeypatch.setattr(curesched.exact, "_MAX_NODES", 2)
    inst = single_mold_big(copies=4, heaters=2)
    report = solve_exact(inst, 24)
    assert (report.status, report.makespan, report.gap_percent) == (
        "limit", None, None)
    assert report.schedule is None


def test_exact_rejects_a_non_positive_time_limit():
    with pytest.raises(ValueError):
        solve_exact(toy1(), 2, time_limit_seconds=0)
    with pytest.raises(ValueError):
        solve_exact(toy1(), 2, time_limit_seconds=math.nan)
    # and the other arguments it cannot search with
    with pytest.raises(ValueError, match="unknown parts mode"):
        solve_exact(toy1(), 2, parts_mode="shared")
    with pytest.raises(ValueError, match="thb must be non-negative"):
        solve_exact(toy1(), -1)


def test_exact_proves_incumbent_optimal():
    # toy2 optimum is 2: the horizon below it holds no schedule
    report = solve_exact(toy2(), 1)
    assert (report.status, report.makespan) == ("infeasible", None)


def test_exact_floor_stops_at_first_schedule_within_it():
    # S11's molds 6-7: root bound 5, optimum 6, heuristic horizon 16
    inst = components(generate_instance(SCENARIOS["small"], 11))[1]
    full = solve_exact(inst, 15)
    assert (full.status, full.makespan) == ("optimal", 6)
    # a floor at or below the root bound changes nothing
    same = solve_exact(inst, 15, floor=5)
    assert (same.status, same.makespan, same.nodes) == (
        full.status, full.makespan, full.nodes)
    early = solve_exact(inst, 15, floor=8)
    assert early.makespan <= 8 and early.nodes < full.nodes
    assert validate_schedule(inst, early.schedule).ok
    # stopping at the floor proves nothing beyond the root bound
    assert early.status == "feasible"
    assert early.gap_percent == 100.0 * (early.makespan - 5) / early.makespan
    with pytest.raises(ValueError):
        solve_exact(inst, 16, floor=-1)


def test_exact_agrees_with_plain_search():
    for seed in range(20):
        inst = tiny_instance(200 + seed)
        thb = compute_thb(inst)
        expected = brute_force_optimum(inst, thb)
        report = solve_exact(inst, thb)
        assert report.status == "optimal", (inst.name, report.status)
        assert report.makespan == expected, inst.name
        assert validate_schedule(inst, report.schedule).ok, inst.name


def test_capacity_greedy_production_loses_nothing():
    for seed in range(6):
        inst = micro_instance(seed)
        thb = compute_thb(inst)
        greedy = brute_force_optimum(inst, thb)
        every_level = brute_force_optimum_all_levels(inst, thb)
        assert greedy == every_level, inst.name
        assert solve_exact(inst, thb).makespan == greedy, inst.name


# sha256 of repr([(status, makespan, schedule rows), ...]) over tiny
# 1000-1199 at compute_thb with no limit: what the search answers, which a
# change to how much it searches must leave alone
TINY_ORACLE_ANSWER_DIGESTS = {
    PARTS_PER_HEATER:
        "760798e74ca3e7926c6e7dc03701ca8d429cba5c27bff30aefcc9c47e01e2aab",
    PARTS_GLOBAL:
        "0b595c51c12bfa50282357f020701bebc1f541504226b73a7373d4aac2772329",
}


def _tiny_oracle_runs(mode):
    """(status, makespan, nodes, schedule rows) over tiny 1000-1199."""
    out = []
    for seed in range(1000, 1200):
        inst = tiny_instance(seed)
        r = solve_exact(inst, compute_thb(inst), parts_mode=mode)
        rows = None if r.schedule is None else [
            (t.id, t.m1, t.m2, t.q, t.heater, t.start, t.length)
            for t in r.schedule.tuples]
        out.append((r.status, r.makespan, r.nodes, rows))
    return out


@pytest.mark.parametrize("mode", sorted(TINY_ORACLE_ANSWER_DIGESTS))
def test_exact_tiny_answers_frozen(mode):
    out = [(status, makespan, rows)
           for status, makespan, _, rows in _tiny_oracle_runs(mode)]
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == TINY_ORACLE_ANSWER_DIGESTS[mode]


# sha256 of repr([(status, makespan, nodes, schedule rows), ...]) over tiny
# 1000-1199 at compute_thb with no limit (3,295 nodes per-heater and 3,627
# global; the exact-repeat memo took 5,416 and 5,874)
TINY_ORACLE_DIGESTS = {
    PARTS_PER_HEATER:
        "3ddca889244e53875328683590f4dc32ca3e672689f9067e9b68ffbabf399aad",
    PARTS_GLOBAL:
        "9a0412ad6ae575150bfb7b83604c6937b503bc265b1f0292f476634cea7bb4d6",
}


@pytest.mark.parametrize("mode", sorted(TINY_ORACLE_DIGESTS))
def test_exact_tiny_results_frozen(mode):
    digest = hashlib.sha256(repr(_tiny_oracle_runs(mode)).encode()).hexdigest()
    assert digest == TINY_ORACLE_DIGESTS[mode]


@pytest.mark.parametrize("mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_dominance_memo_keeps_every_answer_with_fewer_nodes(mode):
    """The dominance memo answers as the exact-repeat memo does (status,
    makespan and schedule) and never expands more nodes: on tiny
    1000-1199 at compute_thb, and on every component of small 1-15 at
    horizon 9 and one below the heuristic's makespan."""
    runs = [(tiny_instance(seed), None) for seed in range(1000, 1200)]
    for seed in range(1, 16):
        inst = generate_instance(SCENARIOS["small"], seed)
        horizon = int(schedule_makespan(run_heuristic(
            inst, HeuristicConfig(parts_mode=mode))))
        runs += [(comp, h) for comp in components(inst)
                 for h in (9, horizon - 1)]
    fewer = 0
    for inst, horizon in runs:
        thb = compute_thb(inst) if horizon is None else horizon
        got = solve_exact(inst, thb, mode)
        want = plain_memo_solve(inst, thb, mode)
        assert (got.status, got.makespan, got.schedule) == (
            want.status, want.makespan, want.schedule), (inst.name, thb)
        assert got.nodes <= want.nodes, (inst.name, thb)
        fewer += got.nodes < want.nodes
    assert fewer > 0


def test_dominance_memo_cuts_s11s_component():
    """S11's 3-heater component below its witnessed 7: the exact-repeat
    memo expands 223 nodes, the dominance memo 67."""
    inst = components(generate_instance(SCENARIOS["small"], 11))[1]
    got = solve_exact(inst, 6)
    assert (got.status, got.makespan, got.nodes) == ("optimal", 6, 67)
    assert plain_memo_solve(inst, 6).nodes == 223


def test_exact_stops_at_its_proof(monkeypatch):
    # S01's root bound is 2 and the search reaches it after 4 nodes; from
    # then on no open frame can beat it, so few more configurations are
    # drawn (checking floors on first touch alone drew 41,289)
    draws = 0
    original = curesched.exact._iter_joint_configs

    def counted(*args, **kwargs):
        nonlocal draws
        for joint in original(*args, **kwargs):
            draws += 1
            yield joint

    monkeypatch.setattr(curesched.exact, "_iter_joint_configs", counted)
    inst = generate_instance(SCENARIOS["small"], 1)
    report = solve_exact(inst, 3)
    assert (report.status, report.makespan, report.nodes) == ("optimal", 2, 4)
    assert validate_schedule(inst, report.schedule).ok
    assert draws < 5000


def test_exact_builds_one_frame_per_counted_node(monkeypatch):
    # a state is checked where it is reached, so only the nodes the search
    # counts become frames (checking each frame on first touch built 1,349)
    frames = 0

    class Counted(curesched.exact._Frame):
        __slots__ = ()

        def __init__(self, *args):
            nonlocal frames
            frames += 1
            super().__init__(*args)

    monkeypatch.setattr(curesched.exact, "_Frame", Counted)
    report = solve_exact(generate_instance(SCENARIOS["small"], 1), 3)
    assert (report.status, report.makespan, report.nodes) == ("optimal", 2, 4)
    assert frames == report.nodes


@pytest.mark.parametrize("seed, horizon, heaters, nodes", [
    (1, 4, 7, 4), (9, 8, 12, 7),
])
def test_exact_plans_each_heater_once_per_counted_node(monkeypatch, seed,
                                                       horizon, heaters,
                                                       nodes):
    # a heater's options depend on the state alone, so the joint walk
    # reuses them (asking per partial configuration made 2,007 and 193)
    calls = 0
    original = curesched.exact._heater_options

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(curesched.exact, "_heater_options", counted)
    inst = generate_instance(SCENARIOS["small"], seed)
    report = solve_exact(inst, horizon - 1)
    assert (report.status, report.nodes, len(inst.heaters)) == (
        "optimal", nodes, heaters)
    assert calls == nodes * heaters


def _checked_walks(monkeypatch):
    """Make every joint-configuration walk check itself against the uncut
    cross product, filtered by the reach in force at each draw (it only
    falls, so what the walk skipped before stays out).  Returns the count
    of configurations the walks cut, read after the search."""
    cut = [0]
    original = curesched.exact._iter_joint_configs

    def checked(search, residents, res, period):
        inst, rate = search.inst, search.rate
        options = [curesched.exact._heater_options(
                       search.plans, search.table[k], held, res)
                   for k, held in zip(inst.heaters, residents)]
        uncut = uncut_joint_configs(inst.heaters, options)
        for joint in original(search, residents, res, period):
            for want in uncut:
                if child_within_reach(want, res, rate, period, search.reach):
                    break
                cut[0] += 1
            else:
                pytest.fail("the cut walk yielded more than the uncut one")
            assert joint == want
            yield joint
        for want in uncut:
            assert not child_within_reach(want, res, rate, period,
                                          search.reach)
            cut[0] += 1

    monkeypatch.setattr(curesched.exact, "_iter_joint_configs", checked)
    return cut


@pytest.mark.parametrize("parts_mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_cut_walk_yields_exactly_the_children_within_reach(monkeypatch,
                                                           parts_mode):
    """In every state the search reaches, the cut walk yields exactly the
    uncut walk's configurations whose child passes its floor check, in the
    same order: on tiny 1000-1199 and on the 3-heater components of S09
    and S11."""
    cut = _checked_walks(monkeypatch)
    runs = [(tiny_instance(seed), None) for seed in range(1000, 1200)]
    runs += [(components(generate_instance(SCENARIOS["small"], seed))[1], 8)
             for seed in (9, 11)]
    for inst, horizon in runs:
        thb = compute_thb(inst) if horizon is None else horizon
        report = solve_exact(inst, thb, parts_mode=parts_mode)
        assert report.status in ("optimal", "infeasible"), inst.name
    assert cut[0] > 0


def test_a_walk_cut_short_by_the_clock_ends_the_search_at_limit(
        monkeypatch):
    """The clock passes the deadline at the first reading inside a walk,
    while it cuts configurations: the search stops at "limit", never
    "infeasible", though a schedule within thb exists."""
    inst = components(generate_instance(SCENARIOS["small"], 11))[1]
    assert solve_exact(inst, 6).makespan == 6
    readings = []

    def perf_counter():
        in_walk = sys._getframe(1).f_code.co_name == "_iter_joint_configs"
        readings.append(in_walk)
        return 100.0 if in_walk else 0.0

    monkeypatch.setattr(curesched.exact.time, "perf_counter", perf_counter)
    report = solve_exact(inst, 6, time_limit_seconds=1.0)
    assert (report.status, report.makespan, report.schedule) == (
        "limit", None, None)
    # the walk's reading is the search's last before its final one
    assert readings.index(True) == len(readings) - 2


@pytest.mark.parametrize("parts_mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_heater_table_leaves_out_rows_that_can_never_fit(parts_mode):
    """A pair slot that alone needs more copies of a mold, or more units
    of a part, than exist, or whose slowest cure time exceeds the period,
    has no row in the heater table in either parts mode; every other
    `pair_slots` row is there, in order, with its slowest cure time, and
    its needs stay within their limits.  Small plants have one copy per
    mold, so none of their identical pairs remains."""
    plants = [tiny_instance(seed) for seed in range(1000, 1200)]
    for scenario, count in (("small", 15), ("medium", 10), ("large", 5)):
        plants += [generate_instance(SCENARIOS[scenario], seed)
                   for seed in range(1, count + 1)]
    for inst in plants:
        table = curesched.exact._heater_table(inst, parts_mode)
        kept = [s for s in pair_slots(inst)
                if all(c <= inst.mold_by_id[m].copies
                       for m, c in s.counts.items())
                and all(u <= inst.part_by_id[p].units
                        for p, u in s.usage.items())
                and s.max_tv <= inst.period_dmin]
        assert [(k, pair, max_tv) for k in inst.heaters
                for pair, _, _, max_tv in table[k]] \
            == sorted((s.heater, (s.m1, s.m2), s.max_tv) for s in kept), \
            inst.name
        for rows in table.values():
            for _, _, needs, _ in rows:
                assert all(c <= limit for _, c, limit in needs), inst.name
        if inst.name.startswith("S"):
            assert all(m.copies == 1 for m in inst.molds)
            assert all(m1 != m2 for rows in table.values()
                       for (m1, m2), _, _, _ in rows), inst.name


@pytest.mark.parametrize("parts_mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_heater_table_is_the_one_the_flat_rows_gave(parts_mode):
    """Read from the `pair_table` records, `_heater_table` gives what it
    gave when it regrouped the flat `pair_slots` rows: the same lists in
    the same order, on tiny 1000-1199 and small 1-15."""
    insts = [tiny_instance(seed) for seed in range(1000, 1200)]
    insts += [generate_instance(SCENARIOS["small"], seed)
              for seed in range(1, 16)]
    for inst in insts:
        got = curesched.exact._heater_table(inst, parts_mode)
        want = reference_heater_table(inst, parts_mode)
        assert list(got.items()) == list(want.items()), inst.name


@pytest.mark.parametrize("parts_mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_oracle_never_mounts_a_pair_whose_cure_time_exceeds_the_period(
        parts_mode):
    """On toy1 with two heaters, heater 2 cures each mold one deciminute
    slower than a period lasts, so `plan_slot` lets nothing run there and
    the pair table holds no row for it: the oracle's schedule keeps to
    heater 1 and passes the validator."""
    base = toy1_two_heaters()
    curing = dict(base.curing)
    curing[(1, 2)] = curing[(2, 2)] = base.period_dmin + 1
    inst = variant(base, curing=curing)
    assert not [s for s in pair_slots(inst) if s.heater == 2]
    report = solve_exact(inst, 2, parts_mode=parts_mode)
    assert (report.status, report.makespan) == ("optimal", 1)
    assert validate_schedule(inst, report.schedule, parts_mode).violations \
        == []
    assert [(t.m1, t.m2, t.q, t.heater) for t in report.schedule.tuples] \
        == [(1, 2, 33, 1)]


@pytest.mark.parametrize("parts_mode", [PARTS_PER_HEATER, PARTS_GLOBAL])
def test_pair_table_and_oracle_options_follow_plan_slot(parts_mode):
    """`plan_slot` stays the one capacity rule: the model's eq-5/6 and eq-7
    rows and the oracle's per-heater options agree with it on every pair
    slot, after the initial loading and after every pair the heater can
    hold (each start contiguous, with no mold finished or in use).  The
    stock instances never exceed a period on changeover, so each also runs
    with setup and removal times scaled by 9, where pairs get dropped for
    changeover work and idling stops fitting."""
    options = curesched.exact._heater_options
    stock = [tiny_instance(seed) for seed in range(1000, 1060)]
    heavy = [variant(inst, molds=tuple(
        replace(m, setup_dmin=9 * m.setup_dmin, removal_dmin=9 * m.removal_dmin)
        for m in inst.molds)) for inst in stock]
    for inst in stock + heavy:
        name, phi = inst.name, inst.period_dmin
        rows = {c.name: {v: coef for coef, v in c.terms}
                for c in build_model(inst, 1, parts_mode).constraints}
        table = curesched.exact._heater_table(inst, parts_mode)
        plans = ChangeoverMemo(inst)
        res = {m: 10 ** 9 for m in inst.mold_ids}
        for k in inst.heaters:
            on_k = [s for s in pair_slots(inst) if s.heater == k]
            for residents in [initial_residents(inst)[k], {}] + [s.counts for s in on_k]:
                offered = {pair: cap for pair, _, _, cap in options(
                    plans, table[k], multiset(residents), res)}
                gap = plan_slot(inst, k, residents, 0, 1, {})
                assert (None in offered) == (not gap.problems), (name, k, residents)
                for s in on_k:
                    plan = plan_slot(inst, k, residents, 0, 0, s.counts)
                    tag = f"{s.m1}_{s.m2}_{k}_1"
                    assert -rows[f"rate_{tag}"][f"z_{tag}"] == plan.cap_int
                    assert slot_rate(phi, s.max_tv) == plan.cap_int
                    if (s.m1, s.m2) in offered:
                        assert not plan.problems, (name, tag, residents)
                        assert offered[(s.m1, s.m2)] == plan.cap_first
                        u_coef = rows[f"cap_{tag}"][f"u_{tag}"]
                        assert (phi - plan.deduction) // u_coef == plan.cap_first
                    else:  # dropped for its changeover work alone
                        assert plan.problems, (name, tag, residents)


def test_exact_deterministic():
    inst = tiny_instance(42)
    thb = compute_thb(inst)
    a = solve_exact(inst, thb)
    b = solve_exact(inst, thb)
    key = lambda r: [(t.id, t.m1, t.m2, t.q, t.heater, t.start, t.length)
                     for t in r.schedule.tuples]
    assert (a.makespan, key(a)) == (b.makespan, key(b))


def test_exact_plans_each_changeover_once_per_search(monkeypatch):
    """Each search fills a `ChangeoverMemo` of its own: a second search on
    the same instance works out every changeover again, each exactly once,
    though heaters share changeovers: a (residents, molds, gap) key that
    two heaters meet is still worked out once."""
    memos, calls, met_on = [], [], {}
    changeover = curesched.domain.changeover
    table_of = curesched.exact._heater_table
    options_of = curesched.exact._heater_options
    heater_of, asking = {}, [None]

    class KeptMemo(ChangeoverMemo):
        def __init__(self, inst):
            super().__init__(inst)
            memos.append(self)

        def __getitem__(self, key):
            met_on.setdefault(key, set()).add(asking[0])
            return super().__getitem__(key)

    def counted_changeover(*args):
        calls.append(args)
        return changeover(*args)

    def kept_table(*args):
        table = table_of(*args)
        heater_of.update((id(rows), k) for k, rows in table.items())
        return table

    def named_options(plans, rows, *args):
        asking[0] = heater_of[id(rows)]
        return options_of(plans, rows, *args)

    monkeypatch.setattr(curesched.exact, "ChangeoverMemo", KeptMemo)
    monkeypatch.setattr(curesched.domain, "changeover", counted_changeover)
    monkeypatch.setattr(curesched.exact, "_heater_table", kept_table)
    monkeypatch.setattr(curesched.exact, "_heater_options", named_options)
    inst = generate_instance(SCENARIOS["small"], 1)
    counts = []
    for _ in range(2):
        calls.clear()
        solve_exact(inst, 3)
        counts.append(len(calls))
    assert len(memos) == 2 and memos[0] is not memos[1]
    assert memos[0] == memos[1]
    assert counts == [len(memos[0])] * 2 and counts[0] > 0
    assert set(met_on) == set(memos[0])
    assert any(len(heaters) > 1 for heaters in met_on.values())


# ── adapter ──────────────────────────────────────────────────────────

def _fake_adapter(tmp_path, body: str) -> SolverAdapter:
    path = tmp_path / "fake_solver.py"
    path.write_text(body)
    return SolverAdapter(command=(sys.executable, str(path)))


def test_adapter_stub_solves_toy1():
    m = build_model(toy1(), 2)
    report = solve_with_adapter(m, SolverAdapter(command=STUB))
    assert report.status == "optimal"
    assert report.makespan == 1
    assert validate_schedule(toy1(), report.schedule).ok
    assert report.stats.n_constraints == 49


def test_adapter_stub_solves_toy2():
    m = build_model(toy2(), 2)
    report = solve_with_adapter(m, SolverAdapter(command=STUB))
    assert (report.status, report.makespan) == ("optimal", 2)


def test_adapter_stub_reports_infeasible():
    m = build_model(toy1_heavy(), 1)
    report = solve_with_adapter(m, SolverAdapter(command=STUB))
    assert report.status == "infeasible"
    assert report.schedule is None


def test_adapter_missing_command():
    m = build_model(toy1(), 2)
    with pytest.raises(AdapterUnavailable):
        solve_with_adapter(m, SolverAdapter(command=("/nonexistent/solver",)))
    with pytest.raises(AdapterUnavailable):
        solve_with_adapter(m, None)


def test_adapter_failure_exit_code(tmp_path):
    adapter = _fake_adapter(tmp_path, "import sys; sys.exit(7)\n")
    with pytest.raises(AdapterFailure):
        solve_with_adapter(build_model(toy1(), 2), adapter)


def test_adapter_garbage_solution(tmp_path):
    adapter = _fake_adapter(
        tmp_path,
        "import sys\n"
        "open(sys.argv[2], 'w').write('w_1 banana\\n')\n",
    )
    with pytest.raises(SolutionParseError):
        solve_with_adapter(build_model(toy1(), 2), adapter)


def test_adapter_missing_solution_file(tmp_path):
    adapter = _fake_adapter(tmp_path, "import sys\n")
    with pytest.raises(SolutionParseError):
        solve_with_adapter(build_model(toy1(), 2), adapter)


def test_adapter_infeasible_assignment_propagates(tmp_path):
    adapter = _fake_adapter(
        tmp_path,
        "import sys\n"
        "open(sys.argv[2], 'w').write('objective 0\\n')\n",
    )
    with pytest.raises(InfeasibleAssignment):
        solve_with_adapter(build_model(toy1(), 2), adapter)


def test_adapter_timeout_reports_limit(tmp_path):
    path = tmp_path / "sleepy.py"
    path.write_text("import time; time.sleep(10)\n")
    adapter = SolverAdapter(command=(sys.executable, str(path)))
    report = solve_with_adapter(build_model(toy1(), 2), adapter, 0.4)
    assert report.status == "limit"
    assert report.makespan is None


def _slow_emit(monkeypatch, seconds):
    """Make the adapter's LP write take `seconds` on a fake clock that
    moves only then."""
    now = [0.0]

    class FakeTime:
        @staticmethod
        def perf_counter():
            return now[0]

    real = curesched.milp.emit_lp

    def slow(m):
        now[0] += seconds
        return real(m)

    monkeypatch.setattr(curesched.milp, "time", FakeTime)
    monkeypatch.setattr(curesched.milp, "emit_lp", slow)


@pytest.mark.parametrize("limit, passed", [
    (math.inf, "unset"), (1e9, "999999999.75"), (60.0, "59.75"),
])
def test_adapter_takes_any_time_limit(tmp_path, monkeypatch, limit, passed):
    """subprocess refuses a wait beyond 2**31 - 1 ms: a longer limit, inf
    too, does not bound the wait, and only a finite one reaches the
    solver's environment, less the 0.25 s the LP write took."""
    _slow_emit(monkeypatch, 0.25)
    seen = tmp_path / "limit.txt"
    adapter = _fake_adapter(
        tmp_path,
        "import os, sys\n"
        f"open({str(seen)!r}, 'w').write("
        f"os.environ.get({TIME_LIMIT_ENV!r}, 'unset'))\n"
        "sys.exit(10)\n",
    )
    report = solve_with_adapter(build_model(toy1(), 2), adapter, limit)
    assert report.status == "infeasible"
    assert seen.read_text() == passed


def test_adapter_starts_no_child_when_the_lp_write_spends_the_time(
        tmp_path, monkeypatch):
    _slow_emit(monkeypatch, 1.0)
    started = tmp_path / "started.txt"
    adapter = _fake_adapter(tmp_path, f"open({str(started)!r}, 'w')\n")
    report = solve_with_adapter(build_model(toy1(), 2), adapter, 1.0)
    assert (report.status, report.makespan, report.wall_seconds) == (
        "limit", None, 1.0)
    assert not started.exists()


def test_adapter_agrees_with_exact_on_tiny_instances():
    for seed in range(4):
        inst = tiny_instance(300 + seed)
        thb = compute_thb(inst)
        internal = solve_exact(inst, thb)
        external = solve_with_adapter(build_model(inst, thb),
                                      SolverAdapter(command=STUB))
        assert internal.makespan == external.makespan, inst.name
