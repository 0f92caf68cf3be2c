"""Lower bounds on the makespan.

Each demanded mold is charged at `mold_rate`, the most units of it the
plant could cure in one period if it had every compatible heater to
itself; the periods its (residual) demand needs at that rate bound any
schedule from below.  The exact search prunes with `residual_bound` at
every node.  `root_bound`, the bound of the whole demand, adds one check
of the first period, which pays for the setups of the molds not mounted
at the start (`first_period_most`); it tells the hybrid which component
is most constrained and when a heuristic schedule is optimal, and the
heuristic when no start can do better.
"""

import math

from .domain import (
    PARTS_PER_HEATER,
    Instance,
    ceil_div,
    cure_times,
    slot_rate,
)

__all__ = ["first_period_most", "mold_rate", "mold_rates", "residual_bound",
           "root_bound"]


def mold_rate(inst: Instance, mold_id: int, parts_mode: str) -> int:
    """Upper bound on units of one mold the plant can cure per period."""
    heaters = cure_times(inst, mold_id)
    if not heaters:
        return 0
    per_slot = max(slot_rate(inst.period_dmin, tv) for tv in heaters.values())
    concurrent = min(inst.mold_by_id[mold_id].copies, 2 * len(heaters))
    part_units = [inst.part_by_id[p].units for p in inst.parts_of.get(mold_id, ())]
    if part_units:
        tightest = min(part_units)
        if parts_mode == PARTS_PER_HEATER:
            concurrent = min(concurrent, min(2, tightest) * len(heaters))
        else:
            concurrent = min(concurrent, tightest)
    return concurrent * per_slot


def residual_bound(res, rate):
    """Lower bound on the periods left to cure the residual demand `res`:
    those the slowest mold needs at its `mold_rate` in `rate`; inf when a
    mold with demand left has no rate at all."""
    lb = 0
    for i, r in res.items():
        if r > 0:
            if rate[i] == 0:
                return math.inf
            lb = max(lb, ceil_div(r, rate[i]))
    return lb


def first_period_most(inst: Instance, mold_id: int) -> int:
    """Upper bound on units of one mold the plant can cure in period 0,
    where every copy not mounted at the start pays its setup.

    Each heater k that cures the mold, at cure time tv, with `on` of its
    copies mounted by `init`, offers slots: one worth
    floor((period - max(0, 1 - on) * setup) / tv), and, when the identical
    pair is allowed and the mold has two copies, a second worth what the
    pair cures, 2 * floor((period - max(0, 2 - on) * setup) / tv), beyond
    the first; each floored at 0.  The bound is the sum of the `copies`
    largest slots.

    It holds by `plan_slot`: a tuple that cures the mold in period 0
    starts there, directly after its heater's initial residents (an idle
    gap would start it later), so its first-period deduction
    (`changeover`) includes a setup for each copy of the mold it mounts
    beyond those residents, and its slowest cure time on board is at least
    tv; `first_capacity` is then at most the slot's worth per copy.  A
    heater holds one tuple at a time, with one or two copies of the mold,
    and the pair cures at most the two slots' sum, so no placement of at
    most `copies` copies cures more.
    """
    mold = inst.mold_by_id[mold_id]
    phi, setup = inst.period_dmin, mold.setup_dmin
    pairs = mold.copies >= 2 and (mold_id, mold_id) in inst.mold_compat
    slots = []
    for k, tv in cure_times(inst, mold_id).items():
        on = inst.init.get((mold_id, k), 0)
        one = max((phi - max(0, 1 - on) * setup) // tv, 0)
        slots.append(one)
        if pairs:
            two = 2 * ((phi - max(0, 2 - on) * setup) // tv)
            slots.append(max(two - one, 0))
    slots.sort(reverse=True)
    return sum(slots[:mold.copies])


def mold_rates(inst: Instance, parts_mode: str) -> dict:
    """Demanded mold -> its `mold_rate` in `parts_mode`, ids ascending: the
    rates `root_bound` rests on, kept with it, so no caller may change it."""
    return _root(inst, parts_mode)[0]


def root_bound(inst: Instance, parts_mode: str):
    """Lower bound on the makespan of the whole instance in `parts_mode`:
    L, the `residual_bound` of the whole demand, or L + 1 when some mold
    m at L cannot cure its demand d_m in L periods, period 0 at
    `first_period_most` and each later one at `mold_rate`:
    first_period_most < d_m - (L - 1) * mold_rate.  A mold below L cures
    its demand in L - 1 periods at `mold_rate`, so only a mold at L can
    fail; and the check asks only whether L periods can do, so the bound
    rises by at most 1."""
    return _root(inst, parts_mode)[1]


def _root(inst: Instance, parts_mode: str) -> tuple:
    """(`mold_rates`, `root_bound`), derived once and kept on the instance."""
    if parts_mode not in inst._root_bounds:
        inst._root_bounds[parts_mode] = _derive_root(inst, parts_mode)
    return inst._root_bounds[parts_mode]


def _derive_root(inst: Instance, parts_mode: str) -> tuple:
    demand = {m.id: m.demand for m in inst.molds if m.demand > 0}
    rate = {i: mold_rate(inst, i, parts_mode) for i in demand}
    lb = residual_bound(demand, rate)
    if lb != math.inf and any(
            ceil_div(d, rate[i]) == lb
            and first_period_most(inst, i) < d - (lb - 1) * rate[i]
            for i, d in demand.items()):
        lb += 1
    return rate, lb
