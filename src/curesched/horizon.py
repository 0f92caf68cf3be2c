"""Closed-form planning-horizon bound and the schedule behind it.

The model needs an a-priori number of periods (THB) large enough that an
optimal schedule fits. The bound charges every demanded mold with a serial,
worst-heater production plan and sums the periods: molds whose identical
pair is admissible on its own (at least two copies, (m, m) an allowed pair,
both setups inside one period) and that need no scarce part may run as an
identical pair (double rate, double changeover allowance); everything else
runs one copy at a time. The sum of per-mold ceilings is a valid horizon
because the mold blocks can simply be lined up one after another on
compatible heaters; `horizon_witness` builds that line-up, so the tests can
check the argument on every instance they hold.  `model_size` gives the
size of the integer model on a horizon without building it.
"""

from dataclasses import dataclass

from .domain import (
    EMPTY,
    PARTS_MODES,
    PARTS_PER_HEATER,
    AssignmentTuple,
    Instance,
    Schedule,
    ceil_div,
    cure_times,
    initial_residents,
    pair_table,
    plan_slot,
    slot_rate,
)
from .errors import UnproduciblePair


def pooled_molds(inst: Instance) -> frozenset:
    """Demanded molds charged at identical-pair rate: an admissible
    identical pair and no part required.  Every other demanded mold is
    charged one copy at a time."""
    table = pair_table(inst)
    return frozenset(
        m.id for m in inst.molds
        if m.demand > 0
        and not inst.parts_of.get(m.id)
        and (m.id, m.id) in table and table[m.id, m.id].setup_fits)


def compute_thb(inst: Instance) -> int:
    """Periods sufficient to cover all demand; 0 when nothing is demanded.
    Each mold is charged at its slowest cure time among the heaters that
    can cure it (`cure_times`); raises UnproduciblePair when a demanded
    mold has none, since no horizon then suffices."""
    pooled = pooled_molds(inst)
    phi = inst.period_dmin
    total = 0
    for m in inst.molds:
        if m.demand <= 0:
            continue
        times = cure_times(inst, m.id)
        if not times:
            raise UnproduciblePair(f"demanded mold {m.id} cures on no heater")
        tv = max(times.values())
        rate = slot_rate(phi, tv)
        setup_units = ceil_div(m.setup_dmin, tv)
        removal_units = ceil_div(m.removal_dmin, tv)
        if m.id in pooled:
            total += ceil_div(4 * setup_units + 4 * removal_units + m.demand,
                              2 * rate)
        else:
            total += ceil_div(setup_units + removal_units + m.demand, rate)
    return total


def horizon_witness(inst: Instance) -> Schedule:
    """The serial schedule behind `compute_thb`: one block per demanded mold.

    Blocks go in mold id order: an identical pair of ceil(demand / 2) for a
    pooled mold, a single slot of the whole demand otherwise. Each block
    starts where the previous one ends, on the compatible heater that
    finishes it soonest (lowest id on ties), as `plan_slot` sizes it; a
    block that fits no heater there starts one period later, once a heater
    has emptied. Only one block runs at a time, so the schedule is the same
    in both parts modes. Its makespan stays within `compute_thb` on every
    instance of the test corpus.

    Returns the sentinel candidate (`Schedule.empty_candidate`) when a block
    fits no heater even then, or is no runnable pair (`pair_table`, which
    also counts the copies and part units that `plan_slot` does not
    check): the bound's argument does not hold there.
    """
    pooled = pooled_molds(inst)
    residents = initial_residents(inst)
    free = {k: 0 for k in inst.heaters}
    end = 0
    tuples = []
    for m in inst.molds:
        if m.demand <= 0:
            continue
        if m.id in pooled:
            m1, q, counts = m.id, ceil_div(m.demand, 2), {m.id: 2}
        else:
            m1, q, counts = EMPTY, m.demand, {m.id: 1}
            single = pair_table(inst).get((EMPTY, m.id))
            if single is None or not single.setup_fits:
                return Schedule.empty_candidate()
        for start in (end, end + 1):
            fits = []
            for k in inst.compat_heaters[m.id]:
                plan = plan_slot(inst, k, residents[k], free[k], start,
                                 counts)
                if not plan.problems:
                    fits.append((plan.length_for(q), k))
            if fits:
                break
        else:
            return Schedule.empty_candidate()
        length, k = min(fits)
        tuples.append(AssignmentTuple(id=len(tuples) + 1, m1=m1, m2=m.id,
                                      q=q, heater=k, start=start,
                                      length=length))
        residents[k] = counts
        free[k] = end = start + length
    return Schedule(tuples=tuples)


@dataclass(frozen=True)
class ModelStats:
    """The size of the integer model on a horizon of `thb` periods."""

    n_constraints: int
    n_binary_vars: int   # z and w
    n_integer_vars: int  # u and prd
    thb: int


def model_size(inst: Instance, thb: int,
               parts_mode: str = PARTS_PER_HEATER) -> ModelStats:
    """The counts `milp.model_stats` gives for `milp.build_model(inst, thb,
    parts_mode)`, in closed form and without building anything.

    Every row and variable family of `build_model` is a product of the
    mold, heater and part counts, the number of runnable (pair, heater)s
    (the sum of the `pair_table` records' heater counts) and the periods;
    only the prefix rows (`max(thb - 1, 0)`) and the demand rows (none at
    `thb == 0`) break the pattern.  `tests/test_milp.py::
    test_model_size_matches_build` checks the two agree.
    """
    if parts_mode not in PARTS_MODES:
        raise ValueError(f"unknown parts mode {parts_mode!r}")
    if thb < 0:
        raise ValueError("horizon must be non-negative")
    n_molds = len(inst.mold_ids)
    n_heaters = len(inst.heaters)
    n_ext = sum(len(r.heaters) for r in pair_table(inst).values())
    part_scopes = n_heaters if parts_mode == PARTS_PER_HEATER else 1
    per_period = (
        1                               # active
        + n_heaters                     # slots
        + 2 * n_ext                     # cap, rate
        + 2 * n_molds                   # prod, copies
        + 3 * n_molds * n_heaters       # molds, setup, removal
        + len(inst.parts) * part_scopes  # parts
    )
    rows = (max(thb - 1, 0) + per_period * thb
            + (n_molds if thb > 0 else 0)   # demand
            + n_molds * n_heaters)          # start
    return ModelStats(
        n_constraints=rows,
        n_binary_vars=(n_ext + 1) * thb,
        n_integer_vars=(n_ext + n_molds) * thb,
        thb=thb,
    )
