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
import random
import sys

import pytest

import curesched.domain
import curesched.heuristic
from curesched.domain import (
    PARTS_GLOBAL,
    PARTS_PER_HEATER,
    AssignmentTuple,
    Mold,
    Schedule,
    Part,
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
    assignment_procedure,
    improvement_procedure,
    mold_pairs_procedure,
    run_heuristic,
)

from helpers import (
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


def _pairs(tuples):
    return [(t.m1, t.m2, t.q) for t in tuples]


# ── pairing ──────────────────────────────────────────────────────────

def test_toy1_pairing_mixed_draws():
    tuples = mold_pairs_procedure(toy1(), ScriptedRng([(1, 2), (1, 2)]))
    assert _pairs(tuples) == [(1, 2, 5), (1, 2, 5)]
    assert [t.id for t in tuples] == [1, 2]
    assert all(not t.assigned for t in tuples)


def test_toy1_pairing_identical_draws():
    tuples = mold_pairs_procedure(toy1(), ScriptedRng([(1, 1), (2, 2)]))
    assert _pairs(tuples) == [(1, 1, 5), (2, 2, 5)]


def test_toy2_pairing_forced_singles():
    tuples = mold_pairs_procedure(toy2(), ScriptedRng())
    assert sorted(_pairs(tuples)) == [(0, 1, 10), (0, 2, 10)]


def test_pairing_covers_demand_with_batch_ceiling():
    inst = variant(
        toy1(),
        molds=(
            Mold(id=1, copies=3, setup_dmin=600, removal_dmin=300, demand=10),
            Mold(id=2, copies=2, setup_dmin=600, removal_dmin=300, demand=0),
        ),
    )
    tuples = mold_pairs_procedure(inst, random.Random(7))
    produced = sum(t.production().get(1, 0) for t in tuples)
    assert produced >= 10
    assert all(t.q <= 4 for t in tuples)  # ceil(10/3) = 4


def test_pairing_raises_when_nothing_admissible():
    # inadmissible on purpose: the required part has no units at all
    inst = variant(toy2(), parts=(Part(id=1, units=0, molds=frozenset({1, 2})),))
    with pytest.raises(UnproduciblePair):
        mold_pairs_procedure(inst, random.Random(0))


def test_pairing_zero_demand():
    inst = variant(
        toy1(),
        molds=tuple(Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin, 0)
                    for m in toy1().molds),
    )
    assert mold_pairs_procedure(inst, random.Random(0)) == []


# ── assignment ───────────────────────────────────────────────────────

def test_toy2_assignment_sequential():
    tuples = [AssignmentTuple(1, 0, 1, 10), AssignmentTuple(2, 0, 2, 10)]
    sched = assignment_procedure(toy2(), tuples)
    placed = sorted(sched.tuples, key=lambda t: t.id)
    assert (placed[0].heater, placed[0].start, placed[0].length) == (1, 0, 1)
    assert (placed[1].heater, placed[1].start, placed[1].length) == (1, 1, 1)
    assert schedule_makespan(sched) == 2
    assert validate_schedule(toy2(), sched).ok


def test_assignment_prefers_preloaded_heater():
    inst = variant(toy1_two_heaters(), init={(1, 2): 1})
    sched = assignment_procedure(inst, [AssignmentTuple(1, 0, 1, 7)])
    t = sched.tuples[0]
    assert (t.heater, t.start, t.length) == (2, 0, 1)


def test_assignment_waits_for_mold_copies():
    molds = (
        Mold(id=1, copies=1, setup_dmin=600, removal_dmin=300, demand=10),
        Mold(id=2, copies=2, setup_dmin=600, removal_dmin=300, demand=0),
    )
    inst = variant(toy1_two_heaters(), molds=molds)
    sched = assignment_procedure(
        inst, [AssignmentTuple(1, 0, 1, 5), AssignmentTuple(2, 0, 1, 5)]
    )
    placed = sorted(sched.tuples, key=lambda t: t.id)
    assert (placed[0].heater, placed[0].start) == (1, 0)
    # the single copy frees at period 1; staying on heater 1 avoids a setup
    assert (placed[1].heater, placed[1].start) == (1, 1)
    assert validate_schedule(inst, sched).ok


def test_assignment_two_heaters_parallel():
    inst = toy1_two_heaters()
    sched = assignment_procedure(
        inst, [AssignmentTuple(1, 1, 2, 5), AssignmentTuple(2, 1, 2, 5)]
    )
    assert schedule_makespan(sched) == 1
    assert {t.heater for t in sched.tuples} == {1, 2}


def test_assignment_is_deterministic():
    inst = toy1()
    tuples = [AssignmentTuple(1, 1, 2, 5), AssignmentTuple(2, 1, 2, 5)]
    a = assignment_procedure(inst, tuples)
    b = assignment_procedure(inst, tuples)
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


# ── improvement ──────────────────────────────────────────────────────

def test_improvement_splits_identical_pair_across_heaters():
    inst = single_mold_big(copies=4, heaters=2)
    initial = assignment_procedure(inst, [AssignmentTuple(1, 1, 1, 500)])
    assert schedule_makespan(initial) == 20
    improved = improvement_procedure(inst, initial)
    assert schedule_makespan(improved) == 10
    assert validate_schedule(inst, improved).ok


def test_improvement_shaves_overproduction():
    inst = variant(
        toy1(),
        molds=(Mold(id=1, copies=2, setup_dmin=606, removal_dmin=449, demand=9),),
        curing={(1, 1): 1440},
        mold_compat=((1, 1),),
    )
    initial = assignment_procedure(inst, [AssignmentTuple(1, 0, 1, 12)])
    assert schedule_makespan(initial) == 2
    improved = improvement_procedure(inst, initial)
    assert schedule_makespan(improved) == 1
    assert [t.q for t in improved.tuples] == [9]


def test_improvement_keeps_toy1_at_two_periods():
    inst = toy1()
    initial = assignment_procedure(
        inst, [AssignmentTuple(1, 1, 1, 5), AssignmentTuple(2, 2, 2, 5)]
    )
    assert schedule_makespan(initial) == 2
    improved = improvement_procedure(inst, initial)
    assert schedule_makespan(improved) == 2


def test_improvement_never_degrades_and_stays_feasible():
    for seed in range(12):
        inst = tiny_instance(seed)
        tuples = mold_pairs_procedure(inst, random.Random(seed * 17 + 1))
        initial = assignment_procedure(inst, tuples)
        improved = improvement_procedure(inst, initial)
        assert schedule_makespan(improved) <= schedule_makespan(initial)
        assert validate_schedule(inst, improved).ok


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


def _tuple_rows(schedule):
    return [(t.id, t.m1, t.m2, t.q, t.heater, t.start, t.length)
            for t in schedule.tuples]


# sha256 of repr(_tuple_rows(...)) at 20 starts, seed 1
PLANT_DIGESTS = {
    ("medium", 5, PARTS_PER_HEATER):
        "e3686d19bfaa597d9f878902d72311102badda6433052d83e59fc67fb2c9b9c4",
    ("medium", 5, PARTS_GLOBAL):
        "abc60e5097f353906a891cc480b5626a06afaa54805d9a52b5ef8d9a612973cd",
    ("large", 2, PARTS_PER_HEATER):
        "7bff67a290d47e317678892135620bbfffa5933d52ba6776351bc3d5143047c9",
    ("large", 2, PARTS_GLOBAL):
        "3c1c9ce4f86605e4c7b74a030faaedc612fab576c922d3b8a7a235b5b80aa734",
}


@pytest.mark.parametrize("size,seed,mode", sorted(PLANT_DIGESTS))
def test_run_heuristic_plant_schedules_frozen(size, seed, mode):
    inst = generate_instance(SCENARIOS[size], seed)
    sched = run_heuristic(
        inst, HeuristicConfig(total_iterations=20, seed=1, parts_mode=mode))
    digest = hashlib.sha256(repr(_tuple_rows(sched)).encode()).hexdigest()
    assert digest == PLANT_DIGESTS[(size, seed, mode)]


# sha256 over repr(_tuple_rows(...)) of every instance in turn, 20 starts,
# seed 1; tiny 1000-1199 holds 32 instances with initial residents and 58
# with a part
CORPUS_DIGESTS = {
    ("tiny", PARTS_PER_HEATER):
        "ef9e636c9eb01730557595fd67e454fab28785d201fca0ead1c8fb6172bf6e88",
    ("tiny", PARTS_GLOBAL):
        "acc0ec333e6688c90ad8f554d2c22b00d5b3d4aa8ebd4b3fa7367d3e6c6802ef",
    ("small", PARTS_PER_HEATER):
        "84748a48eb1120f8cf93da7a23cb8ce810801f714681f1aa2cd5bb527d95e567",
    ("small", PARTS_GLOBAL):
        "61ebfc98485493034cc9e7496af81fa8a6288156abafe17ba59e245a38cb7db9",
}


def _corpus(name):
    if name == "tiny":
        return [tiny_instance(seed) for seed in range(1000, 1200)]
    return [generate_instance(SCENARIOS["small"], seed) for seed in range(1, 16)]


@pytest.mark.parametrize("corpus,mode", sorted(CORPUS_DIGESTS))
def test_run_heuristic_corpus_schedules_frozen(corpus, mode):
    digest = hashlib.sha256()
    for inst in _corpus(corpus):
        sched = run_heuristic(
            inst, HeuristicConfig(total_iterations=20, seed=1, parts_mode=mode))
        digest.update(repr(_tuple_rows(sched)).encode())
    assert digest.hexdigest() == CORPUS_DIGESTS[(corpus, mode)]


# ── the per-run plan memo ────────────────────────────────────────────

def _counted_run(monkeypatch, inst):
    """(the function behind each plan_slot call, the run's context) of one
    20-start run."""
    calls, contexts = [], []
    plan_slot = curesched.domain.plan_slot
    context = curesched.heuristic._context

    def counted_plan_slot(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return plan_slot(*args)

    def kept_context(inst):
        contexts.append(context(inst))
        return contexts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(curesched.domain, "plan_slot", counted_plan_slot)
        patch.setattr(curesched.heuristic, "_context", kept_context)
        run_heuristic(inst, HeuristicConfig(total_iterations=20, seed=1))
    assert len(contexts) == 1
    return calls, contexts[0]


def test_assignment_plans_each_changeover_once_per_run(monkeypatch):
    inst = generate_instance(SCENARIOS["medium"], 1)
    calls, ctx = _counted_run(monkeypatch, inst)
    # placements, their one-period retries and shaving all read the memo;
    # only the check of each improved candidate plans on its own
    assert set(calls) == {"__missing__", "validate_schedule"}
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
        assignment_procedure(
            inst, [AssignmentTuple(1, 1, 1, 4), AssignmentTuple(2, 0, 2, 8)])


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
    initial = assignment_procedure(
        inst, [AssignmentTuple(1, 1, 1, 5), AssignmentTuple(2, 2, 2, 5)])

    def unplaceable(*args, **kwargs):
        raise NoFeasiblePlacement("no heater budget")

    monkeypatch.setattr(curesched.heuristic, "assignment_procedure", unplaceable)
    assert improvement_procedure(inst, initial) is initial


def test_config_validation():
    # "per_heater" is not a parts mode; the constant is "per-heater"
    with pytest.raises(ValueError):
        HeuristicConfig(parts_mode="per_heater")
    with pytest.raises(ValueError):
        HeuristicConfig(total_iterations=-1)
    HeuristicConfig(total_iterations=0)
