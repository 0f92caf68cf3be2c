"""Problem data model and the shared feasibility arithmetic.

A plant cures tires in heaters. Each heater holds up to two molds at once
(one "slot" each); both slots cure in lockstep, so a mixed pair advances at
the slower mold's rate. Mounting a mold costs its setup time, taking one out
costs its removal time, and both come out of the period budget of the heater
they happen on. All durations are integer deciminutes and every period has
the same budget (`period_dmin`, 14400 = 24h in the stock data).

The capacity rules in `plan_slot` are the single source of truth used by the
constructive heuristic, the schedule validator, the exact search's
per-heater options, and the encoder that turns schedules into model
variable assignments.  `plan_slot` is two halves: the heater-independent
`changeover` (its setup and removal work and the budget checks) and the
heater's own (slowest cure time, first-period and full-period capacity,
through `first_capacity` and `slot_rate`).  The heuristic and the exact
search read only changeovers, each through a `ChangeoverMemo` of its own
run, and size each heater's tuple from the deduction with the same
`first_capacity` (and, in the heuristic, `periods_for`):

  * a tuple placed directly after its heater's previous occupant pays the
    multiset difference (new copies mounted, leaving copies removed) in its
    first period;
  * a tuple placed after an idle gap pays only its own setups, because an
    idle heater cannot hold molds: the previous occupant is taken out during
    the first gap period, which must fit that removal work;
  * every later period of the tuple runs at the full rate
    floor(period / max cure time of the molds on board).

Beside it, `pair_table` is the one rule of which mold pairs can run where:
one `PairRecord` per runnable pair, which the heuristic, the exact search,
the horizon and the model size read.  It is built on first use and kept
on the instance, so a solve derives it once for its instance and once for
each component its exact stage searches.  `pair_slots` is its flat view,
one row per (pair, heater), built only for the model and for callers.
"""

import math
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

MoldId = int
HeaterId = int
Period = int

EMPTY: MoldId = 0

PARTS_PER_HEATER = "per-heater"
PARTS_GLOBAL = "global"
PARTS_MODES = (PARTS_PER_HEATER, PARTS_GLOBAL)


@dataclass(frozen=True)
class Mold:
    """One mold type: interchangeable physical copies and their timings."""

    id: MoldId
    copies: int         # physical copies available
    setup_dmin: int     # time to mount one copy in a heater
    removal_dmin: int   # time to take one copy out
    demand: int         # tires to cure


@dataclass(frozen=True)
class Part:
    """A scarce accessory needed by every copy of the molds listed."""

    id: int
    units: int
    molds: frozenset


class Instance:
    """Immutable problem instance.

    `curing` maps compatible (mold, heater) pairs to the cure time of one
    tire; absence means the pair is incompatible. `mold_compat` lists the
    unordered mold pairs allowed to share a heater, (m, m) meaning two copies
    of m may run together. `init` maps (mold, heater) to copies already
    mounted before the first period.

    The pair table, its flat view and the root bounds are not built here:
    the first call builds each and keeps it on the instance, so loading or
    generating an instance never pays for them.
    """

    def __init__(self, name, period_dmin, molds, heaters, curing,
                 mold_compat, parts=(), init=None, meta=None):
        self.name = name
        self.period_dmin = int(period_dmin)
        self.molds = tuple(sorted(molds, key=lambda m: m.id))
        self.heaters = tuple(sorted(set(heaters)))
        self.curing = {(int(m), int(h)): int(tv) for (m, h), tv in dict(curing).items()}
        self.mold_compat = frozenset(
            (min(i, j), max(i, j)) for i, j in mold_compat
        )
        self.parts = tuple(sorted(parts, key=lambda p: p.id))
        self.init = {k: int(c) for k, c in (init or {}).items() if int(c) > 0}
        self.meta = dict(meta or {})

        self.mold_by_id = {m.id: m for m in self.molds}
        self.part_by_id = {p.id: p for p in self.parts}
        self.mold_ids = tuple(m.id for m in self.molds)
        self.compat_heaters = {
            m.id: tuple(h for h in self.heaters if (m.id, h) in self.curing)
            for m in self.molds
        }
        self.parts_of = {
            m.id: tuple(p.id for p in self.parts if m.id in p.molds)
            for m in self.molds
        }
        self._pair_table = None  # built by the first `pair_table` call
        self._pair_slots = None  # built by the first `pair_slots` call
        self._root_bounds = {}  # parts mode -> `bounds._root`, when asked

    def __repr__(self):
        return (f"Instance({self.name!r}, molds={len(self.molds)}, "
                f"heaters={len(self.heaters)}, demand={self.total_demand})")

    @property
    def total_demand(self):
        return sum(m.demand for m in self.molds)


class PairRecord(NamedTuple):
    """One runnable mold pair of the `pair_table`; its dicts and list are
    shared by every reader, so no caller may change them.

    counts, usage : its mold multiset and the part units it ties down
    molds         : `multiset(counts)`
    heaters       : the ids of the heaters that can run it, ascending
    cures         : the slowest cure time on board on each of `heaters`
    rows          : (heater, `slot_rate`, cure) of each of `heaters`,
                    fastest first and ids breaking ties
    setup_fits    : whether its joint setup work fits one period budget
    """

    counts: dict
    usage: dict
    molds: tuple
    heaters: tuple
    cures: tuple
    rows: list
    setup_fits: bool


def pair_table(inst: Instance) -> dict:
    """(m1, m2) -> its `PairRecord`, for every runnable pair, singles
    (m1 = 0) included and m1 <= m2, in ascending pair order.

    A pair runs on a heater that cures both its molds, each at a cure time
    in (0, period] (`cure_times`, read once per mold), so every rate is at
    least 1; it runs at all when it has such a heater and on its own needs
    no more copies of a mold (an unknown mold has none) and no more units
    of a part than exist.  No schedule can hold any other (pair, heater);
    an invalid instance loses those without error, leaving
    `validate_instance` to report it.  Built on the first call, it is kept
    on the instance."""
    if inst._pair_table is None:
        inst._pair_table = _derive_pair_table(inst)
    return inst._pair_table


def _derive_pair_table(inst: Instance) -> dict:
    phi, mold_by_id = inst.period_dmin, inst.mold_by_id
    heater_set = set(inst.heaters)
    pairs = {(EMPTY, j) for (j, k) in inst.curing if k in heater_set}
    pairs.update(inst.mold_compat)
    times = {m: cure_times(inst, m) for m in inst.mold_ids}
    table = {}
    for i, j in sorted(pairs):
        counts = {i: 2} if i == j else {m: 1 for m in (i, j) if m != EMPTY}
        if any(m not in mold_by_id or c > mold_by_id[m].copies
               for m, c in counts.items()):
            continue
        usage = part_usage(inst, counts)
        if any(u > inst.part_by_id[p].units for p, u in usage.items()):
            continue
        other = times[j] if i == EMPTY else times[i]
        cures = {k: max(tv, other[k]) for k, tv in times[j].items()
                 if k in other}  # heaters ascending
        if not cures:
            continue
        rows = [(k, slot_rate(phi, tv), tv) for k, tv in cures.items()]
        rows.sort(key=lambda row: -row[1])  # stable: ids ascending on ties
        table[i, j] = PairRecord(
            counts, usage, multiset(counts), tuple(cures),
            tuple(cures.values()), rows,
            sum(mold_by_id[m].setup_dmin * c for m, c in counts.items())
            <= phi)
    return table


class PairSlot(NamedTuple):
    """A `pair_slots` row: a runnable pair (m1 may be 0, the empty slot;
    m1 <= m2) on one heater, with its record's `counts` and `usage` and
    `max_tv`, the slowest cure time there."""

    m1: MoldId
    m2: MoldId
    heater: HeaterId
    counts: dict
    usage: dict
    max_tv: int


def pair_slots(inst: Instance) -> tuple:
    """The flat view of `pair_table`, built on the first call (for the
    model and for callers; the solvers read the records) and kept on the
    instance: every runnable (m1, m2, heater) as a `PairSlot`, sorted."""
    if inst._pair_slots is None:
        inst._pair_slots = tuple(
            PairSlot(m1, m2, k, record.counts, record.usage, tv)
            for (m1, m2), record in pair_table(inst).items()
            for k, tv in zip(record.heaters, record.cures))
    return inst._pair_slots


def cure_times(inst: Instance, mold_id: MoldId) -> dict:
    """Heater -> cure time of `mold_id`, on the heaters that can cure it:
    those whose cure time lies in (0, period], as in `pair_table`.  A cure
    time out of that range (`validate_instance` reports it) leaves its
    heater out, so no caller divides by it."""
    phi, curing = inst.period_dmin, inst.curing
    return {k: curing[(mold_id, k)]
            for k in inst.compat_heaters.get(mold_id, ())
            if 0 < curing[(mold_id, k)] <= phi}


# ── schedules ────────────────────────────────────────────────────────


@dataclass
class AssignmentTuple:
    """A batch: mold pair, quantity per slot, and its placement.

    m1 may be 0 (empty slot). An identical pair (m, m) cures 2q tires of m;
    a mixed pair cures q of each mold; a single mold cures q. Placement
    fields stay None until the assignment step fills them. `start` counts
    periods from 0.
    """

    id: int
    m1: MoldId
    m2: MoldId
    q: int
    heater: HeaterId | None = None
    start: Period | None = None
    length: int | None = None

    def __post_init__(self):
        if self.m1 > self.m2:
            self.m1, self.m2 = self.m2, self.m1

    @property
    def assigned(self) -> bool:
        return self.heater is not None and self.start is not None and self.length is not None

    def mold_counts(self) -> dict:
        counts = {}
        for m in (self.m1, self.m2):
            if m != EMPTY:
                counts[m] = counts.get(m, 0) + 1
        return counts


@dataclass
class Schedule:
    """A set of placed tuples. `sentinel` marks the pre-search placeholder
    candidate that compares worse than any real schedule."""

    tuples: list
    sentinel: bool = False

    @classmethod
    def empty_candidate(cls) -> "Schedule":
        return cls(tuples=[], sentinel=True)


def schedule_from_periods(inst: Instance, periods_by_heater) -> Schedule:
    """Merge per-heater period sequences into placed tuples.

    `periods_by_heater` maps a heater to its periods in order, each as
    (pair, produced), the pair None for an idle period.  Consecutive
    periods holding the same pair merge into one tuple whose quantity is
    their summed production; ids run by heater, then by start.
    """
    tuples = []
    for k in inst.heaters:
        start = 0
        for pair, run in groupby(periods_by_heater.get(k, ()),
                                 key=lambda period: period[0]):
            run = [produced for _, produced in run]
            if pair is not None:
                tuples.append(AssignmentTuple(
                    id=len(tuples) + 1, m1=pair[0], m2=pair[1], q=sum(run),
                    heater=k, start=start, length=len(run)))
            start += len(run)
    return Schedule(tuples=tuples)


def produced_by_mold(tuples) -> dict:
    """Tires the tuples cure per mold; a mold none of them holds is absent."""
    produced = {}
    for t in tuples:
        for m in (t.m1, t.m2):  # each mold slot cures q
            if m != EMPTY:
                produced[m] = produced.get(m, 0) + t.q
    return produced


def uncovered_molds(inst: Instance, produced) -> list:
    """Molds, in instance order, whose demand `produced` falls short of."""
    return [m for m in inst.molds if produced.get(m.id, 0) < m.demand]


def schedule_makespan(schedule: Schedule):
    """Last busy period count; 0 for a real empty schedule, +inf for the
    sentinel candidate."""
    if schedule.sentinel:
        return math.inf
    return max((t.start + t.length for t in schedule.tuples), default=0)


# ── capacity arithmetic (shared by all solver modes) ─────────────────


def slot_rate(period_dmin: int, cure_dmin: int) -> int:
    """Tires one slot delivers in an undisturbed period."""
    return period_dmin // cure_dmin


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def transition_work(inst: Instance, before, after):
    """(setup, removal) deciminutes to re-equip a heater from multiset
    `before` to multiset `after`."""
    setups = 0
    removals = 0
    for m in set(before) | set(after):
        diff = after.get(m, 0) - before.get(m, 0)
        if diff > 0:
            setups += diff * inst.mold_by_id[m].setup_dmin
        elif diff < 0:
            removals += (-diff) * inst.mold_by_id[m].removal_dmin
    return setups, removals


def changeover(inst: Instance, residents, prev_end: Period, start: Period,
               molds) -> tuple:
    """The heater-independent half of `plan_slot`: (deduction, problems)
    of re-equipping a heater that holds `residents` with `molds`.

    The deduction is the setup and removal work the tuple's first period
    pays; the problems name a changeover, or an idle gap's removal work,
    that does not fit one period budget.
    """
    phi = inst.period_dmin
    problems = []
    if start > prev_end:
        # the old molds leave during the first idle period
        _, gap_removal = transition_work(inst, residents, {})
        if gap_removal > phi:
            problems.append(
                f"removal work {gap_removal} in the gap at period {prev_end} "
                f"exceeds the period budget {phi}"
            )
        setups, _ = transition_work(inst, {}, molds)
        deduction = setups
    else:
        setups, removals = transition_work(inst, residents, molds)
        deduction = setups + removals
    if deduction > phi:
        problems.append(
            f"changeover work {deduction} at period {start} exceeds "
            f"the period budget {phi}"
        )
    return deduction, tuple(problems)


def first_capacity(period_dmin: int, deduction: int, max_tv: int) -> int:
    """Tires one slot delivers in a tuple's first period, whose budget
    pays `deduction` of changeover work, at slowest cure time `max_tv`."""
    return max((period_dmin - deduction) // max_tv, 0)


def periods_for(quantity: int, cap_first: int, cap_int: int) -> int:
    """Periods a slot needs to cure `quantity`: the first period's
    `cap_first`, then whole periods at the full rate `cap_int`."""
    if quantity <= cap_first or cap_int <= 0:
        return 1
    return 1 + ceil_div(quantity - cap_first, cap_int)


@dataclass(frozen=True)
class SlotPlan:
    """First-period budget accounting for a tuple of any quantity on one
    heater; `length_for` sizes each quantity from it."""

    cap_first: int
    cap_int: int
    deduction: int
    problems: tuple = ()

    def length_for(self, quantity: int) -> int:
        """Periods the slot needs to cure `quantity` per slot."""
        return periods_for(quantity, self.cap_first, self.cap_int)


def plan_slot(inst: Instance, heater: HeaterId, residents, prev_end: Period,
              start: Period, molds) -> SlotPlan:
    """Work out the feasible per-period output of a tuple of `molds`: its
    `changeover`, then the heater's own half, which sizes the slot at its
    slowest cure time on board; it fails a cure time past the period, or
    one not positive, where `pair_table` has no heater.

    `residents` is the mold multiset left by the heater's previous occupant
    (or its initial loading), `prev_end` that occupant's end period. The
    caller guarantees start >= prev_end.
    """
    deduction, problems = changeover(inst, residents, prev_end, start, molds)
    phi = inst.period_dmin
    cures = [inst.curing[(m, heater)] for m in molds] or [phi]
    if min(cures) <= 0:  # such a cure time cures nothing, nor divides
        return SlotPlan(cap_first=0, cap_int=0, deduction=deduction,
                        problems=problems + (
                            f"cure time {min(cures)} on heater {heater} is "
                            "not positive",))
    max_tv = max(cures)
    cap_int = slot_rate(phi, max_tv)
    if cap_int <= 0:
        problems += (f"cure time exceeds the period budget on heater {heater}",)
    return SlotPlan(cap_first=first_capacity(phi, deduction, max_tv),
                    cap_int=cap_int, deduction=deduction, problems=problems)


def multiset(counts) -> tuple:
    """A mold multiset's hashable form: its (mold, copies) items by mold."""
    return tuple(sorted(counts.items()))


class ChangeoverMemo(dict):
    """The `changeover`s of one heuristic run or exact search, keyed
    (residents, molds, gap): the `multiset`s a heater holds and gets, and
    whether an idle gap comes first.  No heater changes a changeover, so
    the key names none. A value is the deduction, or None when it breaks a
    budget; a heater then sizes a tuple from it with `first_capacity` (and
    `periods_for`) at its own slowest cure time."""

    def __init__(self, inst: Instance):
        super().__init__()
        self.inst = inst

    def __missing__(self, key):
        residents, molds, gap = key
        deduction, problems = changeover(self.inst, dict(residents), 0,
                                         int(gap), dict(molds))
        self[key] = deduction = None if problems else deduction
        return deduction


def initial_residents(inst: Instance) -> dict:
    """Heater -> mold multiset mounted before the first period."""
    residents = {k: {} for k in inst.heaters}
    for (m, k), c in inst.init.items():
        # an unknown heater is validate_instance's finding, not a crash here
        on_k = residents.setdefault(k, {})
        on_k[m] = on_k.get(m, 0) + c
    return residents


def components(inst: Instance) -> list:
    """The instance's independent components, as sub-instances.

    A union-find joins a mold and a heater it cures in, the two molds of an
    allowed pair, the molds of one part, and a mold and the heater it
    starts mounted in.  Nothing then ties one component to another: no
    mold, heater or part is shared, so each can be scheduled on its own and
    the instance's makespan is the largest of theirs.

    Each component holding a demanded mold comes back as an `Instance` with
    the original name, period and ids, ordered by smallest mold id.  A
    heater that cures no demanded mold and holds no initial resident drops
    out: nothing would ever run there.
    """
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for (m, k) in inst.curing:
        union(("m", m), ("h", k))
    for (m, k) in inst.init:
        union(("m", m), ("h", k))
    for i, j in inst.mold_compat:
        union(("m", i), ("m", j))
    for p in inst.parts:
        members = sorted(p.molds)
        for m in members[1:]:
            union(("m", members[0]), ("m", m))

    groups = {}
    for m in inst.molds:
        groups.setdefault(find(("m", m.id)), []).append(m)
    demanded = {m.id for m in inst.molds if m.demand > 0}
    used = {k for (m, k) in inst.curing if m in demanded}
    used.update(k for (_, k) in inst.init)
    out = []
    for root, molds in groups.items():
        ids = {m.id for m in molds}
        if not ids & demanded:
            continue
        heaters = {k for k in inst.heaters
                   if k in used and find(("h", k)) == root}
        out.append(Instance(
            name=inst.name,
            period_dmin=inst.period_dmin,
            molds=molds,
            heaters=heaters,
            curing={(m, k): tv for (m, k), tv in inst.curing.items()
                    if m in ids and k in heaters},
            mold_compat=[pair for pair in inst.mold_compat if pair[0] in ids],
            parts=[p for p in inst.parts if p.molds & ids],
            init={(m, k): c for (m, k), c in inst.init.items() if m in ids},
            meta=inst.meta,
        ))
    return out


def heater_walk(inst: Instance, tuples):
    """Replay every heater's tuples: yields (heater, tuple, residents,
    prev_end), heaters ascending and each heater's tuples in (start, id)
    order, where residents and prev_end are what the heater's previous
    occupant (at first its initial loading, ending at 0) left behind."""
    by_heater = {}
    for t in tuples:
        by_heater.setdefault(t.heater, []).append(t)
    initial = initial_residents(inst)
    for k in inst.heaters:
        residents, prev_end = initial[k], 0
        for t in sorted(by_heater.get(k, ()), key=lambda t: (t.start, t.id)):
            yield k, t, residents, prev_end
            residents, prev_end = t.mold_counts(), t.start + t.length


# ── validation ───────────────────────────────────────────────────────


@dataclass
class ValidationReport:
    """Findings of a check on an instance, a schedule or an assignment;
    empty means admissible, or feasible."""

    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every instance invariant; returns all violations found."""
    v = []
    if inst.period_dmin <= 0:
        v.append("period budget must be positive")

    seen = set()
    for m in inst.molds:
        if m.id in seen:
            v.append(f"duplicate mold id {m.id}")
        seen.add(m.id)
        if m.id <= 0:
            v.append(f"mold id {m.id} must be positive (0 is the empty slot)")
        if m.copies < 0:
            v.append(f"mold {m.id} copy count must be non-negative")
        if m.setup_dmin <= 0:
            v.append(f"mold {m.id} setup time must be positive")
        if m.removal_dmin <= 0:
            v.append(f"mold {m.id} removal time must be positive")
        if m.demand < 0:
            v.append(f"mold {m.id} demand must be non-negative")

    heater_set = set(inst.heaters)
    for (m, h), tv in sorted(inst.curing.items()):
        if m not in inst.mold_by_id:
            v.append(f"curing entry references unknown mold {m}")
            continue
        if h not in heater_set:
            v.append(f"curing entry references unknown heater {h}")
        if tv <= 0:
            v.append(f"cure time for mold {m} in heater {h} must be positive")
        elif tv > inst.period_dmin:
            v.append(
                f"cure time {tv} for mold {m} in heater {h} exceeds the period"
            )

    for i, j in sorted(inst.mold_compat):
        for m in {i, j}:
            if m not in inst.mold_by_id:
                v.append(f"mold_compat pair ({i}, {j}) references unknown mold {m}")

    part_seen = set()
    for p in inst.parts:
        if p.id in part_seen:
            v.append(f"duplicate part id {p.id}")
        part_seen.add(p.id)
        if p.units < 0:
            v.append(f"part {p.id} unit count must be non-negative")
        for m in sorted(p.molds):
            if m not in inst.mold_by_id:
                v.append(f"part {p.id} references unknown mold {m}")

    for (m, h), c in sorted(inst.init.items()):
        if m not in inst.mold_by_id:
            v.append(f"init references unknown mold {m}")
        if h not in heater_set:
            v.append(f"init references unknown heater {h}")
        if c not in (1, 2):
            v.append(f"init count {c} for mold {m} in heater {h} must be 1 or 2")
    for h in sorted(heater_set):
        load = sum(c for (m, hh), c in inst.init.items() if hh == h)
        if load > 2:
            v.append(f"init load on heater {h} exceeds two slots")

    # every demanded mold must be producible by at least the single-mold route
    for m in inst.molds:
        if m.demand <= 0:
            continue
        if m.copies < 1:
            v.append(f"demanded mold {m.id} has no copies")
        if m.id in inst.mold_by_id and not inst.compat_heaters.get(m.id):
            v.append(f"demanded mold {m.id} has no compatible heater")
        if m.setup_dmin > inst.period_dmin:
            v.append(f"demanded mold {m.id} setup time exceeds the period")
        if m.removal_dmin > inst.period_dmin:
            v.append(f"demanded mold {m.id} removal time exceeds the period")
        for pid in inst.parts_of.get(m.id, ()):
            if inst.part_by_id[pid].units < 1:
                v.append(f"demanded mold {m.id} requires part {pid} "
                         "with fewer than one unit")

    return ValidationReport(violations=v)


def part_usage(inst: Instance, counts) -> dict:
    """Part units tied down by a mold multiset."""
    usage = {}
    for p in inst.parts:
        u = sum(c for m, c in counts.items() if m in p.molds)
        if u:
            usage[p.id] = u
    return usage


def validate_schedule(inst: Instance, schedule: Schedule,
                      parts_mode: str = PARTS_PER_HEATER) -> ValidationReport:
    """Check a schedule against every feasibility rule of the problem."""
    if parts_mode not in PARTS_MODES:
        raise ValueError(f"unknown parts mode {parts_mode!r}")
    v = []
    if schedule.sentinel:
        return ValidationReport(violations=["sentinel candidate, not a schedule"])

    heater_set = set(inst.heaters)
    usable = []
    for t in schedule.tuples:
        bad = False
        if not t.assigned:
            v.append(f"tuple {t.id} is not fully assigned")
            bad = True
        if t.q < 0:
            v.append(f"tuple {t.id} has negative quantity")
            bad = True
        if t.m1 == EMPTY and t.m2 == EMPTY:
            v.append(f"tuple {t.id} holds no mold")
            bad = True
        for m in (t.m1, t.m2):
            if m != EMPTY and m not in inst.mold_by_id:
                v.append(f"tuple {t.id} references unknown mold {m}")
                bad = True
        if t.heater is not None and t.heater not in heater_set:
            v.append(f"tuple {t.id} references unknown heater {t.heater}")
            bad = True
        if bad:
            continue
        if t.start < 0 or t.length < 1:
            v.append(f"tuple {t.id} has an invalid placement window")
            continue
        for m in (t.m1, t.m2):
            if m != EMPTY and (m, t.heater) not in inst.curing:
                v.append(f"tuple {t.id}: mold {m} is not compatible with heater {t.heater}")
                bad = True
        if t.m1 != EMPTY and (t.m1, t.m2) not in inst.mold_compat:
            v.append(f"tuple {t.id}: pair ({t.m1}, {t.m2}) is not an allowed mold pair")
            bad = True
        if not bad:
            usable.append(t)

    # heater walks: occupancy, changeover budgets, per-tuple capacity, and
    # per-heater part units, which the one tuple holding the heater decides
    for h, t, residents, prev_end in heater_walk(inst, usable):
        if t.start < prev_end:
            v.append(f"tuples overlap on heater {h} at period {t.start}")
            # resync so this tuple's own budgets still get checked
            prev_end = t.start
        plan = plan_slot(inst, h, residents, prev_end, t.start,
                         t.mold_counts())
        for p in plan.problems:
            v.append(f"tuple {t.id} on heater {h}: {p}")
        available = plan.cap_first + (t.length - 1) * plan.cap_int
        if t.q > available:
            v.append(
                f"tuple {t.id} on heater {h}: capacity {available} over "
                f"{t.length} period(s) cannot cover quantity {t.q}"
            )
        if parts_mode == PARTS_PER_HEATER:
            for pid, u in sorted(part_usage(inst, t.mold_counts()).items()):
                if u > inst.part_by_id[pid].units:
                    v.append(f"tuple {t.id} on heater {h}: part {pid} needs "
                             f"{u} units, only {inst.part_by_id[pid].units} "
                             f"exist")

    # per-period mold copies, and in global mode each tuple's part units
    shared = parts_mode != PARTS_PER_HEATER
    horizon = max((t.start + t.length for t in usable), default=0)
    counts_at = [{} for _ in range(horizon)]
    units_at = [{} for _ in range(horizon)] if shared else ()
    for t in usable:
        molds = t.mold_counts()
        usage = part_usage(inst, molds) if shared else {}
        for t0 in range(t.start, t.start + t.length):
            counts = counts_at[t0]
            for m, c in molds.items():
                counts[m] = counts.get(m, 0) + c
            if usage:
                units = units_at[t0]
                for pid, u in usage.items():
                    units[pid] = units.get(pid, 0) + u
    for t0, counts in enumerate(counts_at):
        for m, c in sorted(counts.items()):
            if c > inst.mold_by_id[m].copies:
                v.append(
                    f"mold {m} uses {c} copies in period {t0}, "
                    f"only {inst.mold_by_id[m].copies} exist"
                )
        if shared:
            for pid, u in sorted(units_at[t0].items()):
                if u > inst.part_by_id[pid].units:
                    v.append(
                        f"part {pid} needs {u} units in period {t0}, "
                        f"only {inst.part_by_id[pid].units} exist"
                    )

    # demand coverage
    produced = produced_by_mold(usable)
    for m in uncovered_molds(inst, produced):
        v.append(
            f"mold {m.id} demand {m.demand} not covered "
            f"(produced {produced.get(m.id, 0)})"
        )

    return ValidationReport(violations=v)
