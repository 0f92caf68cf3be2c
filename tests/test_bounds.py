"""Makespan lower bounds.

Hand derivations:
  single_mold_big (demand 1000, 4 copies, tv 550, two heaters): one slot
      cures 14400 // 550 = 26 a period, four copies fit the two heaters'
      four slots, so 104 a period and ceil(1000 / 104) = 10 periods.
  with a one-unit part on the mold: per heater each heater may use that
      unit, so two slots run (52 a period, 20 periods); shared globally
      only one slot runs (26 a period, 39 periods).
"""

import math

import pytest

from curesched.bounds import mold_rate, residual_bound, root_bound
from curesched.domain import PARTS_GLOBAL, PARTS_PER_HEATER, Part, components
from curesched.gen import SCENARIOS, generate_instance

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
