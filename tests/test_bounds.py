"""Makespan lower bounds.

Hand derivations:
  single_mold_big (demand 1000, 4 copies, tv 550, two heaters): one slot
      cures 14400 // 550 = 26 a period, four copies fit the two heaters'
      four slots, so 104 a period and ceil(1000 / 104) = 10 periods.
  with a one-unit part on the mold: per heater each heater may use that
      unit, so two slots run (52 a period, 20 periods); shared globally
      only one slot runs (26 a period, 39 periods).
  the first-period check (one heater, tv 1440, so 10 a slot and period,
      setup 606): a copy not mounted at the start cures
      (14400 - 606) // 1440 = 9 in period 0, so one copy cures 20 in 3
      periods, not 2; mounted, it cures 10 in period 0 and 20 in 2.  Two
      copies as an identical pair cure 2 * ((14400 - 1212) // 1440) = 18
      in period 0, a second slot worth 18 - 9 = 9, so 38 fit in 2 periods
      as a pair and in no fewer than 3 without it.
"""

import math

import pytest

from curesched.bounds import (
    first_period_most,
    mold_rate,
    residual_bound,
    root_bound,
)
from curesched.domain import (
    PARTS_GLOBAL,
    PARTS_PER_HEATER,
    Mold,
    Part,
    components,
)
from curesched.exact import solve_exact
from curesched.gen import SCENARIOS, generate_instance
from curesched.horizon import compute_thb

from helpers import single_mold_big, tiny_instance, variant

# the reference optima of small 1-15 (HiGHS proofs)
SMALL_OPTIMA = (2, 6, 3, 3, 6, 4, 8, 3, 7, 2, 6, 5, 11, 2, 3)
# every one is met but S11's, whose molds 6-7 need 6
SMALL_ROOT_BOUNDS = (2, 6, 3, 3, 6, 4, 8, 3, 7, 2, 5, 5, 11, 2, 3)


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_root_bound_on_the_small_corpus(mode):
    bounds = tuple(root_bound(generate_instance(SCENARIOS["small"], seed), mode)
                   for seed in range(1, 16))
    assert bounds == SMALL_ROOT_BOUNDS
    assert all(b <= opt for b, opt in zip(bounds, SMALL_OPTIMA))


# medium 1-10, then large 1-5; the first-period check raises M05 from 13,
# M08 from 6 and M10 from 4, in both modes, and no other plant
PLANT_ROOT_BOUNDS = {
    PARTS_PER_HEATER: (5, 14, 7, 7, 14, 10, 18, 7, 18, 5,
                       17, 10, 13, 19, 34),
    PARTS_GLOBAL: (5, 14, 7, 7, 14, 10, 18, 7, 18, 5,
                   24, 36, 42, 37, 47),
}


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_root_bound_on_the_plants(mode):
    plants = [generate_instance(SCENARIOS[size], seed)
              for size, count in (("medium", 10), ("large", 5))
              for seed in range(1, count + 1)]
    assert tuple(root_bound(inst, mode) for inst in plants) \
        == PLANT_ROOT_BOUNDS[mode]


@pytest.mark.parametrize("mode,raised", [(PARTS_PER_HEATER, 63),
                                         (PARTS_GLOBAL, 60)])
def test_root_bound_never_exceeds_a_proven_optimum(mode, raised):
    """On tiny 1000-1199 the oracle, run to the end on `compute_thb`,
    proves every optimum, and the root bound never exceeds it, though the
    first-period check raises it above `residual_bound` on `raised` of
    the 200; nor does it exceed a small instance's reference optimum."""
    rises = 0
    for seed in range(1000, 1200):
        inst = tiny_instance(seed)
        bound = root_bound(inst, mode)
        demand = {m.id: m.demand for m in inst.molds if m.demand > 0}
        rises += bound > residual_bound(
            demand, {i: mold_rate(inst, i, mode) for i in demand})
        proof = solve_exact(inst, compute_thb(inst), mode)
        assert proof.status == "optimal", inst.name
        assert bound <= proof.makespan, inst.name
    assert rises == raised
    for seed, optimum in enumerate(SMALL_OPTIMA, 1):
        assert root_bound(generate_instance(SCENARIOS["small"], seed),
                          mode) <= optimum


def _one_mold(copies, demand, setup=606, init=None, pairs=True):
    """One mold on one heater at cure time 1440 (10 a slot and period)."""
    return variant(single_mold_big(heaters=1),
                   molds=(Mold(id=1, copies=copies, setup_dmin=setup,
                               removal_dmin=449, demand=demand),),
                   curing={(1, 1): 1440},
                   mold_compat=((1, 1),) if pairs else (),
                   init=init or {})


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_an_initial_copy_cancels_the_rise(mode):
    cold, warm = _one_mold(1, 20), _one_mold(1, 20, init={(1, 1): 1})
    assert first_period_most(cold, 1) == 9
    assert first_period_most(warm, 1) == 10
    assert root_bound(cold, mode) == 3
    assert root_bound(warm, mode) == 2
    for inst in (cold, warm):  # both are met
        assert solve_exact(inst, compute_thb(inst), mode).makespan \
            == root_bound(inst, mode)


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_the_identical_pair_adds_a_second_slot(mode):
    pair, alone = _one_mold(2, 38), _one_mold(2, 38, pairs=False)
    assert mold_rate(pair, 1, mode) == mold_rate(alone, 1, mode) == 20
    assert first_period_most(pair, 1) == 18
    assert first_period_most(alone, 1) == 9
    assert root_bound(pair, mode) == 2
    assert root_bound(alone, mode) == 3
    assert solve_exact(pair, compute_thb(pair), mode).makespan == 2


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_a_setup_that_fills_the_period_cures_nothing_in_it(mode):
    """Mounting one copy takes the whole first period, and two more than
    it: every slot of period 0 is worth 0, so 10 units take 2 periods."""
    inst = _one_mold(2, 10, setup=14400)
    assert first_period_most(inst, 1) == 0
    assert root_bound(inst, mode) == 2
    assert solve_exact(inst, compute_thb(inst), mode).makespan == 2


def test_mold_rate_counts_copies_and_heaters():
    inst = single_mold_big(copies=4, heaters=2)
    assert mold_rate(inst, 1, PARTS_PER_HEATER) == 104
    assert root_bound(inst, PARTS_PER_HEATER) == 10
    # three copies fill three of the four slots
    assert mold_rate(single_mold_big(copies=3), 1, PARTS_PER_HEATER) == 78


@pytest.mark.parametrize("mode,rate,bound", [
    (PARTS_PER_HEATER, 52, 20),
    (PARTS_GLOBAL, 26, 39),
])
def test_mold_rate_counts_part_units_by_mode(mode, rate, bound):
    inst = variant(single_mold_big(),
                   parts=(Part(id=1, units=1, molds=frozenset({1})),))
    assert mold_rate(inst, 1, mode) == rate
    assert root_bound(inst, mode) == bound


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_a_mold_no_heater_cures_has_no_rate(mode):
    """A demanded mold with no compatible heater cures nothing in a period,
    so no finite makespan bounds the demand."""
    inst = variant(single_mold_big(), curing={})
    assert mold_rate(inst, 1, mode) == 0
    assert root_bound(inst, mode) == math.inf


def test_residual_bound_is_the_slowest_mold():
    assert residual_bound({1: 10, 2: 7, 3: 0}, {1: 5, 2: 2, 3: 0}) == 4
    assert residual_bound({1: 0}, {1: 0}) == 0
    assert residual_bound({1: 1}, {1: 0}) == math.inf


@pytest.mark.parametrize("mode", (PARTS_PER_HEATER, PARTS_GLOBAL))
def test_root_bound_is_the_largest_component_bound(mode):
    """A mold's rate reads only its own component, so the instance's root
    bound is the largest of its components': on tiny 1000-1199, small
    1-15, medium 1-10 and large 1-5."""
    plants = [tiny_instance(seed) for seed in range(1000, 1200)]
    for scenario, count in (("small", 15), ("medium", 10), ("large", 5)):
        plants += [generate_instance(SCENARIOS[scenario], seed)
                   for seed in range(1, count + 1)]
    for inst in plants:
        assert root_bound(inst, mode) == max(
            root_bound(c, mode) for c in components(inst)), inst.name
