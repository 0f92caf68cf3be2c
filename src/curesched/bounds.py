"""Lower bounds on the makespan.

Each demanded mold is charged at `mold_rate`, the most units of it the
plant could cure in one period if it had every compatible heater to
itself; the periods its (residual) demand needs at that rate bound any
schedule from below.  The exact search prunes with `residual_bound` at
every node; `root_bound`, the bound of the whole demand, tells the hybrid
which component is most constrained and the heuristic when no start can
do better.
"""

import math

from .domain import (
    PARTS_PER_HEATER,
    Instance,
    ceil_div,
    slot_rate,
)

__all__ = ["mold_rate", "residual_bound", "root_bound"]


def mold_rate(inst: Instance, mold_id: int, parts_mode: str) -> int:
    """Upper bound on units of one mold the plant can cure per period."""
    heaters = inst.compat_heaters.get(mold_id, ())
    if not heaters:
        return 0
    per_slot = max(slot_rate(inst.period_dmin, inst.curing[(mold_id, k)])
                   for k in heaters)
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


def root_bound(inst: Instance, parts_mode: str):
    """Lower bound on the makespan of the whole instance in `parts_mode`:
    `residual_bound` of the whole demand."""
    demand = {m.id: m.demand for m in inst.molds if m.demand > 0}
    return residual_bound(
        demand, {i: mold_rate(inst, i, parts_mode) for i in demand})
