"""Planning-horizon bound and the pooled molds feeding it.

Frozen values (hand arithmetic):
  toy1: both molds in the pooled class; per mold
        ceil((4*ceil(600/400) + 4*ceil(300/400) + 10) / (2*(14400//400)))
        = ceil(22/72) = 1, so the bound is 2.
  toy2: both molds in the serial class (single copy, shared part); per mold
        ceil((2 + 1 + 10) / 36) = 1, so the bound is 2.
  single mold, nm=2, tc=606, tq=449, tv=550, demand 1000:
        ceil((8 + 4 + 1000) / 52) = 20.
  same but nm=1: ceil((2 + 1 + 1000) / 26) = 39.

The witness tests run `horizon_witness`, the serial schedule the bound's
argument describes, on the whole corpus (toys, tiny 1000-1199, small 1-15,
medium 1-10, large 1-5): it must validate in both parts modes and end
within the bound, so the argument is checked where no oracle can run.
"""

import pytest

from curesched.domain import (
    PARTS_MODES,
    AssignmentTuple,
    Mold,
    Part,
    schedule_makespan,
    validate_schedule,
)
from curesched.exact import solve_exact
from curesched.gen import SCENARIOS, generate_instance
from curesched.horizon import compute_thb, horizon_witness, pooled_molds

from helpers import PHI, single_mold_big, tiny_instance, toy1, toy2, variant


def corpus():
    yield toy1()
    yield toy2()
    for seed in range(1000, 1200):
        yield tiny_instance(seed)
    for size, count in (("small", 15), ("medium", 10), ("large", 5)):
        for seed in range(1, count + 1):
            yield generate_instance(SCENARIOS[size], seed)


def unpaired_mold():
    """One heater, two copies of one mold that may not share it: the pair
    (1, 1) is not allowed, so the copies cure one at a time.
    Serially ceil((1 + 1 + 40) / 6) = 7 periods, and 7 is optimal."""
    return variant(toy1(), molds=(Mold(1, 2, 600, 300, 40),),
                   curing={(1, 1): 2400}, mold_compat=())


def test_toy1_partition():
    assert pooled_molds(toy1()) == frozenset({1, 2})


def test_toy2_partition():
    assert pooled_molds(toy2()) == frozenset()


def test_partition_mixed():
    # mold 1 keeps two copies and loses the part; mold 2 stays serial
    inst = toy2()
    molds = (
        Mold(id=1, copies=2, setup_dmin=600, removal_dmin=300, demand=10),
        inst.molds[1],
    )
    parts = (Part(id=1, units=1, molds=frozenset({2})),)
    inst = variant(inst, molds=molds, parts=parts)
    assert pooled_molds(inst) == frozenset({1})


def test_partition_skips_zero_demand():
    inst = toy1()
    molds = (inst.molds[0], Mold(id=2, copies=2, setup_dmin=600, removal_dmin=300, demand=0))
    assert pooled_molds(variant(inst, molds=molds)) == frozenset({1})


def test_toy1_bound():
    assert compute_thb(toy1()) == 2


def test_toy2_bound():
    assert compute_thb(toy2()) == 2


def test_bound_single_big_mold():
    assert compute_thb(single_mold_big(copies=2, heaters=1)) == 20


def test_bound_single_big_mold_serial():
    inst = single_mold_big(copies=2, heaters=1)
    molds = (Mold(id=1, copies=1, setup_dmin=606, removal_dmin=449, demand=1000),)
    assert compute_thb(variant(inst, molds=molds)) == 39


def test_bound_ignores_zero_demand_molds():
    inst = toy1()
    molds = (inst.molds[0], Mold(id=2, copies=2, setup_dmin=600, removal_dmin=300, demand=0))
    assert compute_thb(variant(inst, molds=molds)) == 1


def test_bound_zero_total_demand():
    inst = toy1()
    molds = tuple(Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin, 0) for m in inst.molds)
    assert compute_thb(variant(inst, molds=molds)) == 0


def test_bound_uses_worst_heater_rate():
    # a slower second heater must not lower the bound, but it raises tv_max
    inst = single_mold_big(copies=2, heaters=1)
    curing = dict(inst.curing)
    curing[(1, 2)] = 1440  # rate 10/period instead of 26
    slow = variant(inst, heaters=(1, 2), curing=curing)
    # ceil((4*1 + 4*1 + 1000) / (2*10)) = ceil(1008/20) = 51
    assert compute_thb(slow) == 51


def test_bound_monotone_in_demand():
    for seed in range(10):
        inst = tiny_instance(seed)
        bumped = variant(
            inst,
            molds=tuple(
                Mold(m.id, m.copies, m.setup_dmin, m.removal_dmin,
                     m.demand + (3 if m.demand else 0))
                for m in inst.molds
            ),
        )
        assert compute_thb(bumped) >= compute_thb(inst)


def test_partition_requires_admissible_identical_pair():
    assert pooled_molds(unpaired_mold()) == frozenset()
    # two setups over the period budget: the pair never fits one heater
    inst = variant(toy1(), molds=(Mold(1, 2, 7300, 300, 10), toy1().molds[1]))
    assert pooled_molds(inst) == frozenset({2})


def test_bound_covers_optimum_without_identical_pair():
    inst = unpaired_mold()
    report = solve_exact(inst, 20)
    assert (report.status, report.makespan) == ("optimal", 7)
    assert compute_thb(inst) >= report.makespan


def test_toy_witnesses():
    # toy1 pools both molds, toy2 runs them one copy at a time
    assert horizon_witness(toy1()).tuples == [
        AssignmentTuple(1, 1, 1, 5, heater=1, start=0, length=1),
        AssignmentTuple(2, 2, 2, 5, heater=1, start=1, length=1),
    ]
    assert horizon_witness(toy2()).tuples == [
        AssignmentTuple(1, 0, 1, 10, heater=1, start=0, length=1),
        AssignmentTuple(2, 0, 2, 10, heater=1, start=1, length=1),
    ]


@pytest.mark.parametrize("parts_mode", PARTS_MODES)
def test_witness_validates_within_bound_on_corpus(parts_mode):
    bad = []
    for inst in list(corpus()) + [unpaired_mold()]:
        witness = horizon_witness(inst)
        report = validate_schedule(inst, witness, parts_mode)
        if not report.ok:
            bad.append(f"{inst.name}: {report.violations[:2]}")
        elif schedule_makespan(witness) > compute_thb(inst):
            bad.append(f"{inst.name}: witness {schedule_makespan(witness)}"
                       f" > bound {compute_thb(inst)}")
    assert not bad, bad


def test_witness_is_sentinel_when_a_pair_cannot_leave():
    # removing both copies of mold 1 takes more than a period, so nothing
    # can follow its block on the only heater
    inst = variant(toy1(), molds=(Mold(1, 2, 600, 7300, 10),
                                  Mold(2, 1, 600, 300, 10)))
    assert horizon_witness(inst).sentinel


@pytest.mark.parametrize("parts_mode", PARTS_MODES)
def test_witness_is_sentinel_when_a_block_lacks_part_units(parts_mode):
    # mold 2 needs a unit of a part that has none: its block fits a heater
    # by `plan_slot`, which counts no part units, but can never run
    inst = variant(toy2(), parts=(Part(1, 1, frozenset({1})),
                                  Part(2, 0, frozenset({2}))))
    assert horizon_witness(inst).sentinel
    # with units, mold 2's block runs and the witness validates
    inst = variant(inst, parts=inst.parts[:1])
    assert validate_schedule(inst, horizon_witness(inst), parts_mode).ok
