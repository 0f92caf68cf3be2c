"""Randomized multi-start constructive heuristic.

Each start draws mold pairs at random into batch tuples, places them
greedily, each on the heater where it finishes first, then tries a local
improvement (split big pair tuples, re-place everything, shave overproduced
quantities). The driver runs up to a set number of independent starts from
per-iteration seeds and keeps the best schedule, so results are
reproducible for a given seed; it stops early once that schedule meets the
root lower bound (`root_bound`, first period included), which no start can
beat. A start whose tuples cannot all be placed is skipped. The safe
horizon's serial schedule competes too, when no start meets the root
bound, and wins only when strictly shorter.

A start runs the paper's three procedures on plain rows: it draws
(id, m1, m2, q) rows (`_draw`), places them with the one placement
kernel, `_place`, which gives (id, m1, m2, q, heater, start, length)
rows, and improves those (`_improve`), which splits, places and shaves
rows too. A start hands back its placed rows; `AssignmentTuple`s and a
`Schedule` are built only for the run's result and for an improved
candidate to validate.

Placing (`_place`) is exact list scheduling sped up three ways, each
argued in its docstring: a lazy greedy scan of the pending pairs, cuts
from one bound (a tuple of q takes at least ceil(q / r) periods on a
heater of full-period rate r), which skip heaters that cannot win and
stop a later start that cannot beat the best so far, and a per-run
`ChangeoverMemo`, which works out each changeover once for every heater.
"""

import math
import random
from collections import deque, namedtuple
from dataclasses import dataclass
from heapq import heappop, heapreplace
from operator import itemgetter

from .bounds import root_bound
from .domain import (
    EMPTY,
    PARTS_GLOBAL,
    PARTS_MODES,
    PARTS_PER_HEATER,
    AssignmentTuple,
    ChangeoverMemo,
    Instance,
    Schedule,
    ceil_div,
    first_capacity,
    initial_residents,
    multiset,
    pair_table,
    periods_for,
    schedule_makespan,
    uncovered_molds,
    validate_schedule,
)
from .errors import NoFeasiblePlacement, UnproduciblePair
from .horizon import horizon_witness

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ROW_ID = itemgetter(0)


def _mix64(x: int) -> int:
    """splitmix64 finalizer; decorrelates consecutive integers."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def iteration_seed(seed: int, index: int) -> int:
    """Independent per-start RNG seed."""
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class HeuristicConfig:
    """Settings of one multi-start run.

    total_iterations : the most starts a run takes; it stops sooner once a
                       start meets the instance's root lower bound
    seed             : the run's seed; each start derives its own from it
    parts_mode       : how part units are shared, per heater or globally
    """

    total_iterations: int = 100
    seed: int = 0
    parts_mode: str = PARTS_PER_HEATER

    def __post_init__(self):
        if self.total_iterations < 0:
            raise ValueError("total_iterations must be non-negative")
        if self.parts_mode not in PARTS_MODES:
            raise ValueError(f"unknown parts mode {self.parts_mode!r}")


# ── what every start of a run shares ─────────────────────────────────


_Pair = namedtuple("_Pair", "heaters molds held heater_set")


@dataclass(frozen=True)
class _Context:
    """Data a run derives from the instance's `pair_table` once, for all
    its starts, in its parts mode; the row functions take it as `ctx`.

    batch       : demanded mold -> its batch size, ceil(demand / copies)
    demand      : demanded mold -> its demand, each draw's first residuals
    pool        : drawable (m1, m2) pairs, singles included, 0 = empty slot:
                  the `pair_table` pairs (so enough copies and part units
                  for both slots) that hold only molds with demand and
                  whose joint setup work fits one period (`setup_fits`)
    pools       : frozenset of used-up molds -> the `pool` pairs holding none
                  of them, in pool order; filled by the run's draws as they
                  meet each set, and never changed once filled
    pairs       : (m1, m2) -> its `_Pair` record, for every runnable pair:
                  heaters: the record's (heater, rate, cure) `rows`,
                  fastest first; molds: `multiset` of the pair's molds;
                  held: (resource, units, capacity) of each mold,
                  and in the global parts mode each part, the pair holds
                  that can block a start (see `_place`); heater_set: the
                  index of its heaters in `heater_sets`
    parts_mode  : how part units are shared in the run
    initial     : heater -> `multiset` mounted before the first period
    plans       : the run's `ChangeoverMemo`: each changeover (what a
                  heater holds, the pair, whether an idle gap comes first)
                  is worked out once, whichever start, round or heater
                  meets it; a value is its deduction, None past a budget
    heater_sets : the distinct sets of a pair's heaters, as id-sorted tuples
    working     : how many heaters some pair can run on
    sets_with   : heater -> indices of the `heater_sets` holding it
    """

    batch: dict
    demand: dict
    pool: list
    pools: dict
    pairs: dict
    parts_mode: str
    initial: dict
    plans: ChangeoverMemo
    heater_sets: list
    working: int
    sets_with: dict


def _context(inst: Instance, parts_mode: str) -> _Context:
    """The run's `_Context`, read from the instance's `pair_table`."""
    table = pair_table(inst)
    heater_sets = sorted({record.heaters for record in table.values()})
    index = {hs: i for i, hs in enumerate(heater_sets)}
    sets_with = {k: [] for k in inst.heaters}
    for i, hs in enumerate(heater_sets):
        for k in hs:
            sets_with[k].append(i)
    demand = {m.id: m.demand for m in inst.molds if m.demand > 0}

    # no mold with 2 copies per heater that cures it binds, nor a part with
    # 2 units per heater that cures one of its molds, nor any per heater
    cures = inst.compat_heaters
    binding_copies = {m.id: m.copies for m in inst.molds
                      if m.copies < 2 * len(cures[m.id])}
    binding_units = {p.id: p.units for p in inst.parts
                     if p.units < 2 * len(set().union(
                         *(cures.get(m, ()) for m in p.molds)))
                     } if parts_mode == PARTS_GLOBAL else {}
    pairs = {
        pair: _Pair(record.rows, record.molds,
                    [(("mold", m), c, binding_copies[m])
                     for m, c in record.molds if m in binding_copies]
                    + [(("part", p), u, binding_units[p])
                       for p, u in record.usage.items()
                       if p in binding_units],
                    index[record.heaters])
        for pair, record in table.items()}
    pool = [pair for pair, record in table.items() if record.setup_fits
            and all(m in demand for m in pair if m != EMPTY)]
    return _Context(
        batch={m.id: ceil_div(m.demand, m.copies) for m in inst.molds
               if m.id in demand and m.copies > 0},
        demand=demand,
        pool=pool,
        pools={frozenset(): pool},
        pairs=pairs,
        parts_mode=parts_mode,
        initial={k: multiset(r) for k, r in initial_residents(inst).items()},
        plans=ChangeoverMemo(inst),
        heater_sets=heater_sets,
        working=len(set().union(*heater_sets)),
        sets_with=sets_with,
    )


# ── pairing ──────────────────────────────────────────────────────────


def _draw(ctx: _Context, rng) -> list:
    """Draw batch tuples until every demand is covered, as (id, m1, m2, q)
    rows with ids 1, 2, ... in draw order.

    Batch size per mold is ceil(demand / copies); a draw's quantity is the
    smallest batch size or leftover demand among its molds. An identical
    pair burns demand twice as fast. `rng` only needs a choice() method.
    """
    batch, residual = ctx.batch, dict(ctx.demand)

    # the pool holds only molds with demand; residuals only fall, so a pair
    # stops being drawable only when a draw uses up one of its molds, and
    # the run keeps the pairs left once a set of molds is used up
    pools = ctx.pools
    used = frozenset()
    candidates = pools[used]
    choice = rng.choice
    rows = []
    while candidates:
        i, j = choice(candidates)
        q = batch[j]
        if residual[j] < q:
            q = residual[j]
        if i == j:
            residual[j] -= 2 * q
        else:
            if i != EMPTY:
                if batch[i] < q:
                    q = batch[i]
                if residual[i] < q:
                    q = residual[i]
                residual[i] -= q
            residual[j] -= q
        rows.append((len(rows) + 1, i, j, q))
        if residual[j] <= 0 or (i != EMPTY and residual[i] <= 0):
            now = {m for m in (i, j) if m != EMPTY and residual[m] <= 0}
            used |= now
            left = pools.get(used)
            if left is None:
                pools[used] = left = [pair for pair in candidates
                                      if now.isdisjoint(pair)]
            candidates = left
    stuck = sorted(m for m, r in residual.items() if r > 0)
    if stuck:
        raise UnproduciblePair(
            f"no admissible mold pair covers remaining demand of molds {stuck}"
        )
    return rows


# ── assignment ───────────────────────────────────────────────────────


class _Profile:
    """Units of one mold (or part) in use per period, and clear[n]: the
    first period from which n more units (n = 1, 2) fit for good."""

    def __init__(self, capacity: int):
        self.capacity, self.use, self.clear = capacity, [], [0, 0, 0]

    def add(self, start: int, end: int, amount: int) -> None:
        """Hold `amount` more units over periods [start, end)."""
        use, capacity = self.use, self.capacity
        if len(use) < end:
            use.extend([0] * (end - len(use)))
        # the last period in which one (two) more units would not fit
        last1 = last2 = -1
        for p in range(start, end):
            use[p] = held = use[p] + amount
            if held + 2 > capacity:
                last2 = p
                if held + 1 > capacity:
                    last1 = p
        clear = self.clear
        if clear[1] <= last1:
            clear[1] = last1 + 1
        if clear[2] <= last2:
            clear[2] = last2 + 1


def _schedule(placed) -> Schedule:
    """The `Schedule` of placed (id, m1, m2, q, heater, start, length)
    rows, in id order."""
    return Schedule(tuples=[AssignmentTuple(*row)
                            for row in sorted(placed, key=_ROW_ID)])


def _makespan(placed) -> int:
    """The last end among placed rows; 0 for none."""
    return max((start + length for *_, start, length in placed), default=0)


def _place(inst: Instance, ctx: _Context, rows, cutoff=math.inf) -> tuple:
    """(placed, cut): the (id, m1, m2, q) `rows`, given in id order, placed
    as (id, m1, m2, q, heater, start, length) rows in placement order, and
    whether the `cutoff` stopped placing first; then `placed` holds what
    was placed before the stop.

    Each round takes the pending tuple that can start soonest (heater
    free, mold copies free, shared part units free in global mode), ids
    breaking ties. It goes to the heater that finishes it soonest, so a
    fast heater that frees a little later beats a slow one that is free
    now (the minimum-completion-time rule of list scheduling on unrelated
    machines); ties go to the earlier start, then the least changeover
    work, then the lowest id. The heaters are visited fastest first (the
    pair's `_Pair.heaters`), and one whose start plus ceil(q / r) at its
    rate r ends after the best end so far is not planned: it could only
    lose, so the choice is the one every heater's plan would give. No
    heater starts before the tuple's ready period and the rates only fall,
    so once the ready period plus ceil(q / r) ends after the best end, no
    later heater can win either, and the visit stops there.

    Each mold, and each part in global mode, that a pending pair holds
    keeps a usage profile that answers one question: from which period on
    do one (or two) more units fit for good? A placement updates the
    profiles it uses over its own periods, so a pair can start at the
    largest answer among its molds and parts, or later if none of its
    heaters is free by then. Each distinct heater set (`ctx.heater_sets`)
    keeps its earliest free period; a placement refreshes it only for the
    sets that hold its heater and whose minimum that heater was, since
    availabilities only grow.

    A resource with at least 2|H| units, H the heaters that cure it (for a
    part, one of its molds), gets no profile (`_Pair.held`): a tuple holds
    at most 2 units of it, so a period in which one or two more units do
    not fit has at least 2|H| - 1 held, every heater of H busy, and a pair
    holding it, whose heaters all lie in H, has none free in that period
    either. Its answer is never the largest.

    The scan is lazy (Minoux's accelerated greedy): each pending pair
    sits in a heap keyed by the ready period worked out when it was
    pushed and the rank, in id order, of its next tuple. Both only grow,
    and ranks are distinct, so a pair at the top whose ready period has
    not grown is the one a full scan would pick; one whose period grew is
    pushed back with it. The chosen pair's next tuple is pushed with the
    same ready period.

    A tuple's length on a heater is what `plan_slot` gives, from the
    `ctx.plans` deduction of its changeover, which is the same on every
    heater, and the heater row's cure time and rate: `periods_for(q,
    first_capacity(period, deduction, cure), rate)`, written out.  A
    deduction the memo keeps fits the period budget, so the first
    period's capacity is never negative, and every row's rate is at least
    1.  A pair whose changeover breaks a budget waits one period more, so
    that the heater empties in an idle gap first.

    With a `cutoff`, placing stops at the first tuple that ends at or after
    it: the makespan is the largest end, so the full placement could not
    have been shorter. It also stops, before anything else is built and
    after each placement, once a work bound shows that the pending tuples
    cannot all end by period last = cutoff - 1: their least periods
    L = ceil(q / r), r the pair's best rate, must fit in the periods left
    before `last` on the heaters some pair can run on (`ctx.working`), and
    for each mold, their sum of copies * L in copies * last, less what
    placed tuples hold before `last`. Both are kept as spares, which a
    placement changes only for the heater time and for its own molds.
    Without a cutoff none of this runs.
    """
    pairs, plans = ctx.pairs, ctx.plans
    phi = inst.period_dmin
    heater_sets, sets_with = ctx.heater_sets, ctx.sets_with
    placed = []

    bounded = cutoff != math.inf
    if bounded:  # the work bound's spares, before anything is built
        last = cutoff - 1
        least = []  # rank -> the fewest periods the tuple takes anywhere
        mold_by_id, mold_spare = inst.mold_by_id, {}
        for _id, m1, m2, q in rows:
            record = pairs.get((m1, m2))
            if record is None:
                raise NoFeasiblePlacement(f"pair {(m1, m2)} fits no heater")
            n = -(-q // record.heaters[0][1])  # at the pair's best rate
            least.append(n)
            for m, c in record.molds:
                if m in mold_spare:
                    mold_spare[m] -= c * n
                else:
                    mold_spare[m] = mold_by_id[m].copies * last - c * n
        spare = ctx.working * max(last, 0) - sum(least)
        if spare < 0 or min(mold_spare.values(), default=0) < 0:
            return placed, True

    # pair -> its scan row: its heater set's index, the (clear list, units,
    # profile) of each resource it holds that can bind, its pending ranks
    # after the one in the heap, its heater rows and molds; a resource gets
    # its usage profile once a pending pair holds it
    profiles, scan, heap = {}, {}, []
    for rank, (_id, m1, m2, _q) in enumerate(rows):
        pair = m1, m2
        row = scan.get(pair)
        if row is not None:
            row[2].append(rank)
            continue
        record = pairs.get(pair)
        if record is None:
            raise NoFeasiblePlacement(f"pair {pair} fits no heater")
        held = []
        for res, n, capacity in record.held:
            profile = profiles.get(res)
            if profile is None:
                profile = profiles[res] = _Profile(capacity)
            held.append((profile.clear, n, profile))
        row = scan[pair] = (record.heater_set, held, deque(), record.heaters,
                            record.molds)
        # ranks ascend, so this is a heap; they are distinct, so two
        # entries never compare their rows
        heap.append((0, rank, row))
    avail = dict.fromkeys(inst.heaters, 0)
    avail_of = avail.__getitem__
    holds = dict(ctx.initial)  # heater -> multiset its last tuple left
    # heater set -> the earliest period one of its heaters is free
    earliest = [0] * len(heater_sets)

    while heap:
        # the pending pair that can start soonest, the lowest rank on ties
        stored, rank, row = heap[0]
        set_index, held, queue, options, molds = row
        ready = earliest[set_index]
        for clear, n, _profile in held:
            if clear[n] > ready:
                ready = clear[n]
        if ready != stored:  # it grew: look again at its new place
            heapreplace(heap, (ready, rank, row))
            continue
        if queue:
            heapreplace(heap, (ready, queue.popleft(), row))
        else:
            heappop(heap)

        tuple_id, m1, m2, q = rows[rank]
        chosen, chosen_end = None, math.inf
        for k, r, cure in options:
            free = avail[k]
            base = free if free > ready else ready
            least_here = -(-q // r)
            if base + least_here > chosen_end:  # it cannot end by then
                if ready + least_here > chosen_end:
                    break  # nor can any slower heater
                continue
            held_k = holds[k]
            work, wait = plans[held_k, molds, base > free], 0
            if work is None:
                work, wait = plans[held_k, molds, True], 1
                if work is None:
                    continue
            start = base + wait
            first = (phi - work) // cure  # the first period's capacity
            end = start + 1 if q <= first else start + 1 - (first - q) // r
            key = (end, start, work, k)
            if chosen is None or key < chosen:
                chosen, chosen_end = key, end
        if chosen is None:
            raise NoFeasiblePlacement(
                f"tuple {tuple_id} ({m1}, {m2}) fits no heater budget"
            )
        end, start, _cost, k = chosen
        if end >= cutoff:
            return placed, True
        placed.append((tuple_id, m1, m2, q, k, start, end - start))
        was, avail[k] = avail[k], end
        for i in sets_with[k]:
            if earliest[i] == was:
                earliest[i] = min(map(avail_of, heater_sets[i]))
        holds[k] = molds
        for _clear, n, profile in held:
            profile.add(start, end, n)
        if bounded:  # end <= last, so heater k lost end - was periods
            spare -= end - was - least[rank]
            if spare < 0:
                return placed, True
            for m, c in molds:
                mold_spare[m] -= c * (end - start - least[rank])
                if mold_spare[m] < 0:
                    return placed, True

    return placed, False


# ── improvement ──────────────────────────────────────────────────────


def _split(rows) -> list:
    """The improvement step's split list of `rows`, as (id, m1, m2, q)
    rows in id order, the order `_place` takes: each two-mold row, in id
    order, becomes two halves (identical pairs two identical pairs, mixed
    pairs two singles) with fresh ids past the largest; singles stay as
    they are."""
    base = sorted(rows, key=_ROW_ID)
    next_id = base[-1][0] if base else 0
    split = []
    for tuple_id, m1, m2, q, *_ in base:
        if m1 != EMPTY:
            q_hi = ceil_div(q, 2)
            q_lo = q - q_hi
            if m1 == m2:
                halves = ((m1, m2, q_hi), (m1, m2, q_lo))
            else:
                halves = ((EMPTY, m1, q_hi), (EMPTY, m2, q_lo))
            for h1, h2, hq in halves:
                if hq >= 1:
                    next_id += 1
                    split.append((next_id, h1, h2, hq))
        else:
            split.append((tuple_id, m1, m2, q))
    split.sort(key=_ROW_ID)
    return split


def _split_production(rows) -> dict:
    """What `_split(rows)` cures per mold, without building it, from
    (id, m1, m2, q) rows: a mixed pair's halves cure ceil(q/2) of its
    first mold and floor(q/2) of its second; identical pairs (two slots)
    and singles cure what they did."""
    produced = {}
    get = produced.get
    for _id, m1, m2, q in rows:
        if q < 1 or m2 == EMPTY:
            continue
        if m1 == EMPTY:
            produced[m2] = get(m2, 0) + q
        elif m1 == m2:
            produced[m2] = get(m2, 0) + 2 * q
        else:
            lo = q // 2
            produced[m1] = get(m1, 0) + q - lo
            if lo:
                produced[m2] = get(m2, 0) + lo
    return produced


def _shave(inst: Instance, ctx: _Context, placed: list,
           produced: dict) -> None:
    """Trim, in place, the last of the `placed` rows on each heater down to
    what demand still needs, heaters ascending; `produced` is what the
    rows cure per mold, and loses what is trimmed.

    An identical pair loses two tires per quantity step, so its cut is
    halved. A trimmed row keeps its heater, start and predecessor, so the
    changeover it was placed with (`ctx.plans`), at its heater's cure time
    and rate, sizes its new length. On one heater placement order is start
    order, so a row's predecessor is the row placed there before it, or
    the heater's initial loading, ending at 0.
    """
    last, before = {}, {}  # heater -> its last row's index, the row before
    for i, row in enumerate(placed):
        k = row[4]
        if k in last:
            before[k] = placed[last[k]]
        last[k] = i
    pairs, mold_by_id = ctx.pairs, inst.mold_by_id
    for k in sorted(last):
        i = last[k]
        tuple_id, m1, m2, q, _k, start, _length = placed[i]
        if q <= 1:
            continue
        record = pairs[m1, m2]
        molds = record.molds
        surplus = min(produced[m] - mold_by_id[m].demand for m, _c in molds)
        delta = min(q - 1, surplus // 2 if m1 == m2 else surplus)
        if delta <= 0:
            continue
        prev = before.get(k)
        if prev is None:
            residents, prev_end = ctx.initial[k], 0
        else:
            residents = pairs[prev[1], prev[2]].molds
            prev_end = prev[5] + prev[6]
        work = ctx.plans[residents, molds, start > prev_end]
        _k, r, cure = next(row for row in record.heaters if row[0] == k)
        placed[i] = (tuple_id, m1, m2, q - delta, k, start, periods_for(
            q - delta, first_capacity(inst.period_dmin, work, cure), r))
        for m, c in molds:
            produced[m] -= c * delta


def _improve(inst: Instance, ctx: _Context, placed: list) -> list:
    """Split-reassign-shave local search on a start's placed rows: the
    placed rows it keeps, `placed` itself when it keeps no candidate.

    Every two-mold row splits into two halves (identical pairs into two
    identical pairs, mixed pairs into two singles, `_split`), everything
    is placed from scratch (`_place`), and overproduced tails are shaved
    (`_shave`). The candidate replaces the incumbent only when it can be
    placed, is strictly shorter and is feasible; only then is it built
    into a `Schedule`, for `validate_schedule`.

    Splitting a mixed pair halves each mold's output, so the split list
    often no longer covers demand. Such a list is dropped before it is
    placed: placement keeps every quantity and shaving only trims surplus,
    so its candidate could never be accepted. For the same reason the
    split's production (`_split_production`) is what the candidate cures
    before it is shaved.
    """
    best, makespan = placed, _makespan(placed)
    while True:
        produced = _split_production(row[:4] for row in best)
        if uncovered_molds(inst, produced):
            return best
        try:
            candidate, _cut = _place(inst, ctx, _split(best))
        except NoFeasiblePlacement:
            return best
        _shave(inst, ctx, candidate, produced)
        end = _makespan(candidate)
        if not (end < makespan and validate_schedule(
                inst, _schedule(candidate), ctx.parts_mode).ok):
            return best
        best, makespan = candidate, end


# ── multi-start driver ───────────────────────────────────────────────


def _single_start(inst: Instance, ctx: _Context, seed: int,
                  cutoff=math.inf) -> list | None:
    """One randomized start: its placed rows, or None if its tuples cannot
    all be placed, or if it cannot end before `cutoff`.

    The start draws (`_draw`) and places (`_place`) plain rows. The cutoff
    is the run's best makespan so far. It applies only when the
    improvement step's first split misses demand (`_split_production`):
    that step then returns the placement unchanged, so placing alone
    settles the start, and `_place` stops it once it cannot end before
    the cutoff. A start whose split covers demand is placed and improved
    in full, since improving can shorten it.
    """
    rows = _draw(ctx, random.Random(seed))
    settled = uncovered_molds(inst, _split_production(rows))
    try:
        placed, cut = _place(inst, ctx, rows, cutoff if settled else math.inf)
    except NoFeasiblePlacement:
        return None
    if cut:
        return None
    return placed if settled else _improve(inst, ctx, placed)


def run_heuristic(inst: Instance, config: HeuristicConfig | None = None) -> Schedule:
    """Best schedule over at most `config.total_iterations` independent
    randomized starts.

    The run stops taking starts once its best schedule meets `root_bound`:
    a later start replaces the best only when strictly shorter, and no
    feasible schedule is shorter than a lower bound, so the result is the
    one all the starts would give. For the same reason each later start
    gets the best makespan as its cutoff (see `_single_start`): a start
    that cannot end before it could only tie or lose. The best start's
    rows become a `Schedule` once, at the end.

    The serial schedule behind the safe horizon (`horizon_witness`) is one
    more candidate. It replaces the best start only when strictly shorter,
    so the result is never longer than the witness, and start-derived
    results stay as they were everywhere else. It is built only when no
    start meets the root bound, since it could not be shorter than one
    that does. Raises NoFeasiblePlacement only when every start fails and
    the witness does too.
    """
    config = config or HeuristicConfig()
    ctx = _context(inst, config.parts_mode)
    bound = root_bound(inst, config.parts_mode)
    best, best_makespan = None, math.inf
    for i in range(config.total_iterations):
        # with no schedule yet, not even an infinite bound is met: its
        # starts show why no schedule exists
        if best is not None and best_makespan <= bound:
            break  # no later start, nor the witness, can be shorter
        placed = _single_start(inst, ctx, iteration_seed(config.seed, i),
                               best_makespan)
        if placed is not None and _makespan(placed) < best_makespan:
            best, best_makespan = placed, _makespan(placed)
    if best is None or best_makespan > bound:
        witness = horizon_witness(inst)
        if schedule_makespan(witness) < best_makespan:
            return witness
    if best is None:
        raise NoFeasiblePlacement(
            f"no start placed every tuple in {config.total_iterations} tries "
            "and the safe horizon's serial schedule fits nowhere"
        )
    return _schedule(best)
