"""Random instance generator over three size scenarios.

A scenario sets the demand baselines and range, the mold-copy choices and
whether part 2 is present (`ScenarioSpec`); an instance is then a
deterministic function of (scenario spec, seed).  The plant is the same in
every scenario: the setup, removal and curing-time pools, the period, the
compatibility template and part 2's two units are module constants.  Mold
and heater counts are drawn per instance from {5, 7} and {7, 12} and
recorded in the instance metadata.  Compatibility follows the template:
molds 1..5 pair among themselves and cure in heaters 1..7, molds 6..7 pair
together and cure in heaters 8..10.  A 7-mold draw therefore forces the
12-heater layout, since the smaller plant has no heater that could cure
molds 6 and 7 at all.

Demands are drawn uniformly within ±20% of the mold's baseline, rounded,
and clamped to the scenario range.  The default baselines are spread
log-uniformly so the ±20% band itself stays inside the range.
"""

import random
from dataclasses import dataclass

from .domain import Instance, Mold, Part, validate_instance

__all__ = ["SCENARIOS", "ScenarioSpec", "generate_instance"]

_MOLD_COUNTS = (5, 7)
_HEATER_COUNTS = (7, 12)
_SETUP_POOL = (416, 606, 668)
_REMOVAL_POOL = (252, 449, 622)
_CURING_POOL = (125, 180, 260, 300, 400, 420, 530, 550)
_PERIOD_DMIN = 14400
_MOLD_GROUPS = ((1, 2, 3, 4, 5), (6, 7))
_HEATER_GROUPS = ((1, 2, 3, 4, 5, 6, 7), (8, 9, 10))
_PART2_UNITS = 2


def _log_spaced(lo: int, hi: int, n: int = 7) -> tuple:
    """n integers spread log-uniformly from lo to hi inclusive."""
    return tuple(round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n))


@dataclass(frozen=True)
class ScenarioSpec:
    """What one instance family varies; the plant itself is fixed."""

    size: str
    demand_baselines: tuple
    demand_range: tuple
    nm_choices: tuple = (1,)
    include_part2: bool = False

    def __post_init__(self):
        lo, hi = self.demand_range
        if lo > hi or lo < 0:
            raise ValueError(f"bad demand range {self.demand_range}")
        if len(self.demand_baselines) < max(_MOLD_COUNTS):
            raise ValueError("need one demand baseline per possible mold")
        if any(b <= 0 for b in self.demand_baselines):
            raise ValueError("demand baselines must be positive")
        if not self.nm_choices:
            raise ValueError("nm_choices must be non-empty")


SCENARIOS = {
    "small": ScenarioSpec(
        size="small",
        demand_baselines=_log_spaced(28, 495),
        demand_range=(22, 595),
        nm_choices=(1,),
    ),
    "medium": ScenarioSpec(
        size="medium",
        demand_baselines=_log_spaced(139, 2510),
        demand_range=(111, 3012),
        nm_choices=(2,),
    ),
    "large": ScenarioSpec(
        size="large",
        demand_baselines=_log_spaced(2024, 5955),
        demand_range=(1619, 7147),
        nm_choices=(2, 10, 15),
        include_part2=True,
    ),
}


def _heater_count_covers(n_molds: int, n_heaters: int) -> bool:
    """True when every mold group in play has at least one heater."""
    for group, heaters in zip(_MOLD_GROUPS, _HEATER_GROUPS):
        if any(m <= n_molds for m in group):
            if not any(k <= n_heaters for k in heaters):
                return False
    return True


def generate_instance(spec: ScenarioSpec, seed: int) -> Instance:
    """One admissible instance, a pure function of (spec, seed).

    Draw order is fixed: mold count, heater count, then per mold its copy
    count, setup, removal and demand, then curing times in (group, mold,
    heater) order.
    """
    rng = random.Random(seed)
    n_molds = rng.choice(_MOLD_COUNTS)
    n_heaters = rng.choice([h for h in _HEATER_COUNTS
                            if _heater_count_covers(n_molds, h)])

    lo, hi = spec.demand_range
    molds = []
    for m in range(1, n_molds + 1):
        copies = rng.choice(spec.nm_choices)
        setup = rng.choice(_SETUP_POOL)
        removal = rng.choice(_REMOVAL_POOL)
        baseline = spec.demand_baselines[m - 1]
        demand = min(hi, max(lo, round(rng.uniform(0.8 * baseline,
                                                   1.2 * baseline))))
        molds.append(Mold(id=m, copies=copies, setup_dmin=setup,
                          removal_dmin=removal, demand=demand))

    heaters = tuple(range(1, n_heaters + 1))
    curing = {}
    compat = set()
    for group, group_heaters in zip(_MOLD_GROUPS, _HEATER_GROUPS):
        members = [m for m in group if m <= n_molds]
        for m in members:
            for k in group_heaters:
                if k <= n_heaters:
                    curing[(m, k)] = rng.choice(_CURING_POOL)
        for a in members:
            for b in members:
                if a <= b:
                    compat.add((a, b))

    parts = [Part(id=1, units=1, molds=frozenset({1, 2}))]
    meta = {
        "scenario": spec.size,
        "seed": seed,
        "n_molds": n_molds,
        "n_heaters": n_heaters,
    }
    if spec.include_part2:
        parts.append(Part(id=2, units=_PART2_UNITS, molds=frozenset({3, 4})))
        meta["part2_units"] = _PART2_UNITS

    inst = Instance(
        name=f"{spec.size[:1].upper()}{seed:02d}",
        period_dmin=_PERIOD_DMIN,
        molds=tuple(molds),
        heaters=heaters,
        curing=curing,
        mold_compat=tuple(sorted(compat)),
        parts=tuple(parts),
        meta=meta,
    )
    report = validate_instance(inst)
    if not report.ok:
        raise ValueError("generated instance failed validation: "
                         + "; ".join(report.violations))
    return inst
