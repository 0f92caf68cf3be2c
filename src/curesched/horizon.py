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
check the argument on every instance they hold.
"""

from .domain import (
    EMPTY,
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
