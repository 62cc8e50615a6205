"""Overlap and missing-rule detection over rule regions.

Every analysis reads one ``TableGeometry`` per table: the category
codes, the universe and each rule's canonical ``entry ∩ facet`` set
per input column, each set a sorted tuple of ``Interval1D``.  A rule's
region is the product of its column sets, and a rule with an empty set
in some column covers nothing.  A box is a tuple of
``Interval1D``, one per input column, and all interval semantics come
from :mod:`dmncheck.intervals`; the witnesses and missing regions
reported here are such tuples.  ``table_rects`` is the only geometry
builder, and ``DecisionTable.geometry`` caches it, so the sweep,
witness and region rendering, the masked-rule check, the structure
check and the grid oracles share a single build.  The build pays per
distinct condition, not per cell: each column's distinct condition
objects are taken in order of first appearance (``load_table`` gives
equal cell texts of a column one object), and each is lowered and cut
to the universe once.  Equal sets of one column share one set id there,
also when different objects hold equal conditions.  Only input columns
are geometry.

Numeric columns map onto the number line directly.  A categorical
input column is coded once, by ``sfeel.category_codes``: its k-th
category is the integer point [k..k], and the column is discrete like
an integer column, so ``VG,G`` becomes [0..1] and ``-`` over k
categories becomes [0..k-1].  The order is the facet's literals first,
then first appearance scanning the rules top to bottom; a boolean
column with an unrestricted facet starts with ``false, true``.  Scanning
the column's distinct conditions in order of first appearance gives the
same order, since a repeated condition names no literal its first
appearance did not.

Both analyses are one N-dimensional line sweep in table column order.
``_suffix_forest`` hash-conses the rules' suffixes of set ids, keyed by
(set id, tail id), so rules whose sets agree from column d onward share
one suffix id there.  A sub-sweep takes a set of suffix ids and a
column, runs once and is memoised, and returns both halves: the gap
boxes over that column and the deeper ones, and an antichain of masks
of two or more of its ids that share a point there.  ``sweep_table``
runs either half alone or both in one walk.  The ids of one set are
active together, so a sub-sweep groups its ids by set id and sorts one
pair of bound events per member of each distinct set; each set's events
are built once per ``sweep_table`` call.  Events sort by value and,
at equal values, by the tie rank from :mod:`dmncheck.intervals`, so
closed-touching intervals count as overlapping while open-touching ones
do not.  A canonical set's members are disjoint and non-contiguous, so
a set is active at most once at any point; the walk keeps the active
sets and a running count of their ids.  Every column set is
``entry ∩ facet``, so it lies inside the hull of the column's universe,
and the walk spans that hull: it starts at the hull's lower bound and
closes at its upper bound, open or closed as the hull is.  It visits
each non-empty stretch between those ends and the events, with the ids
of the active sets; a stretch recurses over the tails of those ids,
their suffix ids at the next column.

Overlaps: only each column's maximal cliques count, where a lower bound
event is directly followed by an upper bound event (Gupta, Lee & Leung,
1982); any other stretch's active ids are a subset of a clique's.  The
tie ranks let a lower and an upper bound at one value meet only as
``[v..v]``, and discrete sets have closed finite bounds, so no clique is
empty.  At the last column a clique of two or more ids is a mask.
Deeper, one step descends into the clique: its ids are grouped by
tail.  Ids with one tail share every point of it, and only non-empty
rules are swept, so a group of two or more ids shares a point.  With
two or more distinct tails the clique recurses over them, and each
returned mask of tails maps back to its preimage, the union of its
tails' groups.  The top level is the clique of all rules, whose tails
are their suffix ids at column 0, so identical rules form a group.  A
clique is itself a stretch, whose tails are the ids the clique
recurses over, so every overlap sub-sweep is also a gap sub-sweep and
the two halves share memo entries.  Masks form an antichain: each
sub-sweep collects its candidate masks and ``_maximal`` reduces them
once, largest first, so a candidate is dropped when a kept mask holds
it and no kept mask is ever purged.  A group's witness is a
function of the group alone: the least corner of its region, per
column the first member of the ``intersect_sets`` fold of the group's
distinct column sets, picked by set id.  Each column folds each
distinct set of set ids once per call.

Missing values: only the rules' union matters.  A stretch where no id
is active lies inside the hull; it is cut to the column's universe only
when the universe has more than one member, since a one-member universe
is its own hull, and it recurses over no suffixes, which yields the
universe's members in every deeper column.  A stretch still active at
the last column is covered, and no interval is built for it.  Gap boxes
are hash-consed as suffixes are: a box over columns d.. is the pair
(its interval in column d, the id of its rest over the deeper columns),
a sub-result holds box ids, and each box is materialised once, at the
top.  Each level merges once, in its own column: the fragments of the
stretches whose sub-sweeps yield one rest are joined by
``join_ordered``, so a closed point such as ``[1..1]`` meets the open
stretch ``(1..2]`` that follows it.  Each interval is normalised once:
a discrete stretch is built from its tightened bounds and a continuous
one by ``interval``.  The fragments of one rest then arrive normal,
disjoint and in line order, as ``join_ordered`` needs: the walk visits
its stretches left to right, and they are disjoint; a fragment is its
stretch, or a piece of the stretch cut to the universe, and a cut of
one interval by a canonical set is canonical, so its pieces are in
order, normal and inside the stretch.  So every fragment of a later
stretch lies after every fragment of an earlier one.  That one merge
is the fixpoint, where no two boxes are contiguous in one column and
equal in all others.  In column d no more can join.  Deeper, each
sub-result is a fixpoint by induction, and the stretches of one walk
are disjoint, so two boxes that share a merged interval F in column d
hold rests that both lie in the sub-result of each stretch F is made
of, and those never join.

The module also carries deliberately naive oracles that enumerate the
compressed endpoint grid cell by cell.  They exist to cross-check the
sweeps and refuse to run past a configurable cell cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .errors import CapacityError
from .intervals import (FULL, LOWER_CLOSED, LOWER_OPEN, NEG_INF, POS_INF,
                        UPPER_CLOSED, UPPER_OPEN, Interval1D, _new,
                        intersect_sets, interval, join_ordered)
from .sfeel import (Alternative, AnyValue, Condition, Kind, Match, Not,
                    category_codes, category_index, format_literal,
                    lower_to_intervals, render_condition)

if TYPE_CHECKING:  # pragma: no cover
    from .model import DecisionTable


@dataclass(frozen=True)
class OverlapGroup:
    """A maximal set of rules sharing a common region, with a witness
    and one condition text per input column describing it."""

    rule_ids: frozenset[str]
    witness: tuple[Interval1D, ...]
    conditions: tuple[str, ...]

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.rule_ids))


@dataclass(frozen=True)
class MissingRegion:
    """An uncovered box of legal inputs, with one condition text per
    input column describing a candidate rule that would close it."""

    box: tuple[Interval1D, ...]
    conditions: tuple[str, ...]


class TableGeometry(NamedTuple):
    """The geometric view of one table, built once by ``table_rects``."""

    # Every rule id, in table order, to its canonical entry ∩ facet set
    # per input column; an empty set marks a cell that admits no value.
    columns_of: dict[str, tuple[tuple[Interval1D, ...], ...]]
    discrete: tuple[bool, ...]
    universe: tuple[tuple[Interval1D, ...], ...]
    # Per input column, its categories in code order and its code table
    # from sfeel.category_codes; () and None for a numeric column.
    categories: tuple[tuple, ...]
    codes: tuple[Optional[dict], ...]
    # render_box's text of each (column, interval) it has rendered.
    texts: dict[tuple[int, Interval1D], str]
    # Per column, its distinct sets; a set's id is its index there.
    sets: tuple[tuple[tuple[Interval1D, ...], ...], ...]
    # Every rule id to the id of its set per column, so equal sets of
    # one column share one id.
    set_ids_of: dict[str, tuple[int, ...]]


def _condition_literals(cond: Condition) -> list:
    if isinstance(cond, (Match, Not)):
        return [cond.value]
    if isinstance(cond, Alternative):
        return [v for part in cond.parts for v in _condition_literals(part)]
    return []


def table_rects(table: "DecisionTable") -> TableGeometry:
    """Build the table's geometry.  Callers read the cached
    ``table.geometry`` instead of calling this again."""
    rule_ids = [rule.id for rule in table.rules]
    codes: list[Optional[dict]] = []
    universe = []
    sets = []
    set_id_columns = []
    for d, attr in enumerate(table.inputs):
        column = [rule.input_entries[d] for rule in table.rules]
        # The column's distinct condition objects, in the order first
        # met; load_table gives equal cell texts one object.
        distinct = dict(zip(map(id, column), column))
        column_codes = None
        if attr.kind.is_categorical:
            literals = _condition_literals(attr.facet)
            for cond in distinct.values():
                literals += _condition_literals(cond)
            if attr.kind is Kind.BOOLEAN and isinstance(attr.facet, AnyValue):
                literals[:0] = [False, True]
            # A string column that names no category collapses its
            # infinite domain to one representative, so the geometry
            # stays finite.
            column_codes = category_codes(literals or ["<any>"])
        codes.append(column_codes)
        hull = lower_to_intervals(attr.facet, attr.kind, column_codes)
        universe.append(hull)
        # Each distinct set to its id, in the order first met; equal
        # conditions held by different objects share one id here.
        id_of_set: dict[tuple[Interval1D, ...], int] = {}
        sid_of = {}
        for key, cond in distinct.items():
            members = intersect_sets(
                lower_to_intervals(cond, attr.kind, column_codes), hull)
            sid_of[key] = id_of_set.setdefault(members, len(id_of_set))
        sets.append(tuple(id_of_set))
        set_id_columns.append([sid_of[key] for key in map(id, column)])
    sets = tuple(sets)
    set_ids_of = dict(zip(rule_ids, zip(*set_id_columns)))
    columns_of = dict(zip(rule_ids, zip(*(
        [column_sets[sid] for sid in ids]
        for column_sets, ids in zip(sets, set_id_columns)))))
    discrete = tuple(attr.kind is not Kind.REAL for attr in table.inputs)
    return TableGeometry(columns_of, discrete, tuple(universe),
                         tuple(tuple(column or ()) for column in codes),
                         tuple(codes), {}, sets, set_ids_of)


def encode_point(table: "DecisionTable", config: dict) -> tuple:
    """Geometric coordinates of an input configuration: a categorical
    value becomes its code, CodecError if the column has none."""
    return tuple(config[attr.name] if column is None
                 else category_index(column, config[attr.name])
                 for attr, column in zip(table.inputs, table.geometry.codes))


def columns_contained(inner: Sequence[tuple[Interval1D, ...]],
                      outer: Sequence[tuple[Interval1D, ...]]) -> bool:
    """True when the product of the column sets ``inner`` lies inside
    the product of ``outer``; both hold one canonical set per column.

    An empty product lies inside anything.  A non-empty one lies inside
    exactly when each of its column sets does, and since canonical sets
    are sorted, disjoint and non-contiguous, a set lies inside another
    when each of its members lies inside a single member of the other.
    """
    if not all(inner):
        return True
    return all(any(big.covers(small) for big in bigs)
               for smalls, bigs in zip(inner, outer) for small in smalls)


# ---------------------------------------------------------------------------
# Sweep skeleton shared by both analyses


def _suffix_forest(rows: Sequence[tuple[int, ...]], n_dims: int
                   ) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Hash-cons the suffixes of rows of set ids, column by column.

    A suffix is keyed by (set id, tail id), so rows that agree from
    column d onward share one suffix id at d and sub-sweeps over equal
    suffix sets are computed once.  Columns are interned from last to
    first, each suffix id numbered by the first row that holds it.
    Returns, per column, the set id and the suffix id at the next column
    (tail; 0 past the last column) of each suffix id; and each row's
    suffix id at column 0.
    """
    set_of: list[list[int]] = [[] for _ in range(n_dims)]
    tails: list[list[int]] = [[] for _ in range(n_dims)]
    tids = [0] * len(rows)
    for d in range(n_dims - 1, -1, -1):
        intern: dict[tuple[int, int], int] = {}
        tids = [intern.setdefault(pair, len(intern))
                for pair in zip([row[d] for row in rows], tids)]
        set_of[d] = [s for s, _ in intern]
        tails[d] = [tid for _, tid in intern]
    return set_of, tails, tids


def _bound_events(sets: Sequence[tuple[Interval1D, ...]]) -> list[list]:
    # Per set id s, the bound events (value, rank, s) of the set's
    # members; lower bounds have odd ranks.
    out = []
    for s, members in enumerate(sets):
        events = []
        for lo, lo_closed, hi, hi_closed in members:
            events.append((lo, LOWER_CLOSED if lo_closed else LOWER_OPEN, s))
            events.append((hi, UPPER_CLOSED if hi_closed else UPPER_OPEN, s))
        out.append(events)
    return out


def _nonempty_rules(geometry: TableGeometry) -> list[str]:
    # Rules that cover some point: no column set is empty.
    return [rid for rid, sets in geometry.columns_of.items() if all(sets)]


def _maximal(masks: list[int]) -> list[int]:
    """The set-maximal masks among ``masks``.

    Largest first, a mask is kept unless a kept mask holds all of its
    bits; two distinct masks of one size never hold each other, so no
    kept mask is ever purged.  Bit k of ``holders[b]`` marks the k-th
    kept mask as holding bit b, so the kept masks holding a candidate
    are the AND of the holders of its bits.
    """
    if len(masks) < 2:
        return masks
    kept: list[int] = []
    holders: dict[int, int] = {}
    for mask in sorted(set(masks), key=int.bit_count, reverse=True):
        bits = []
        rest = mask
        while rest:
            low = rest & -rest
            bits.append(low.bit_length() - 1)
            rest ^= low
        common = -1
        for bit in bits:
            common &= holders.get(bit, 0)
            if not common:
                break
        if common:
            continue  # a kept mask holds every bit
        flag = 1 << len(kept)
        kept.append(mask)
        for bit in bits:
            holders[bit] = holders.get(bit, 0) | flag
    return kept


def sweep_table(table: "DecisionTable", only: str = "all"
                ) -> tuple[list[OverlapGroup], list[MissingRegion]]:
    """The table's overlap groups and missing regions, from one sweep.

    ``only`` is "all" for both halves, or "overlap" or "missing" for
    one; the half not swept comes back empty.
    """
    overlaps, gaps = only != "missing", only != "overlap"
    geometry = table.geometry
    discrete = geometry.discrete
    universe = geometry.universe
    n_dims = len(table.inputs)
    last = n_dims - 1
    # Each column's walk spans its universe's hull: the bound it starts
    # from and the closing sentinel event.  An uncovered stretch is cut
    # to the universe only when the hull holds values outside it; an
    # empty universe keeps the whole line, and every cut of it is empty.
    starts, ends, cuts = [], [], []
    for members in universe:
        lo, lo_closed, _, _ = (members or FULL)[0]
        _, _, hi, hi_closed = (members or FULL)[-1]
        starts.append((lo, lo_closed))
        ends.append((hi, UPPER_CLOSED if hi_closed else UPPER_OPEN, -1))
        cuts.append(len(members) != 1)
    rule_order = _nonempty_rules(geometry)
    rows = [geometry.set_ids_of[rid] for rid in rule_order]
    # Only the rules' union matters to the gaps, and rules that agree
    # from a column onward share every point there, so both halves sweep
    # such rules there as one suffix.
    set_of, tails, tops = _suffix_forest(rows, n_dims)
    bounds = [_bound_events(column_sets) for column_sets in geometry.sets]
    memo: dict[tuple, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    # Gap boxes are hash-consed like suffixes: a box over columns d..
    # is the pair (its interval in column d, the id of its rest over
    # the deeper columns).  Id 0 is the empty box past the last column.
    box_ids: dict[tuple[Interval1D, int] | None, int] = {None: 0}

    def sweep(ids: frozenset[int], dim: int
              ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # The ids of the gap boxes over columns dim.. and the antichain
        # of the masks of two or more ids that share a point there.
        # Only a stretch where no suffix is active reaches past the last
        # column.
        if dim == n_dims:
            return (0,), ()
        key = (ids, dim)
        cached = memo.get(key)
        if cached is not None:
            return cached
        tail, is_discrete = tails[dim], discrete[dim]
        # The ids of each set id: a set's ids are active together.
        ids_of: dict[int, list[int]] = {}
        column_set_of = set_of[dim]
        for j in ids:
            s = column_set_of[j]
            if s in ids_of:
                ids_of[s].append(j)
            else:
                ids_of[s] = [j]
        events = []
        column_bounds = bounds[dim]
        for s in ids_of:
            events += column_bounds[s]
        events.sort()
        if gaps:
            # Every set lies inside the hull, so its upper bound, of a
            # set that holds no id, sorts last.
            events.append(ends[dim])
            ids_of[-1] = []
        # Each rest id to its fragments in column dim.
        frags_of: dict[int, list[Interval1D]] = {}
        chain: list[int] = []
        active: set[int] = set()  # set ids
        n_active = 0  # ids of the active sets
        rising = False
        lo, lo_closed = starts[dim]
        for hi, rank, s in events:
            sub = nexts = None
            # A lower bound directly followed by an upper bound closes a
            # maximal clique of the column's sets.
            if overlaps and rising and not rank & 1 and n_active >= 2:
                if dim == last:
                    chain.append(sum(1 << j for t in active
                                     for j in ids_of[t]))
                else:
                    nexts = frozenset([tail[j] for t in active
                                       for j in ids_of[t]])
                    sub = descend(chain, nexts, n_active,
                                  (j for t in active for j in ids_of[t]),
                                  tail, dim + 1)
            # A stretch still active at the last column is covered.
            if gaps and (dim < last or not active):
                hi_closed = rank >= UPPER_CLOSED
                stretch = None
                if is_discrete:
                    # Between the closed bounds of a discrete column
                    # most stretches are empty: tightened to integers,
                    # their bounds cross.  A stretch that is not empty
                    # is built from its tightened bounds; only an
                    # infinite bound stays open.
                    a = lo if lo_closed else lo + 1
                    b = hi if hi_closed else hi - 1
                    if a <= b and a != POS_INF and b != NEG_INF:
                        stretch = _new(Interval1D, (a, a != NEG_INF,
                                                    b, b != POS_INF))
                else:
                    stretch = interval(lo, lo_closed, hi, hi_closed)
                if stretch is not None and active:
                    # A clique's stretch reuses the clique's sub-sweep.
                    if sub is None:
                        sub = sweep(nexts or frozenset(
                            [tail[j] for t in active for j in ids_of[t]]),
                            dim + 1)
                    for rest in sub[0]:
                        if rest in frags_of:
                            frags_of[rest].append(stretch)
                        else:
                            frags_of[rest] = [stretch]
                elif stretch is not None:
                    frags = (intersect_sets(universe[dim], (stretch,))
                             if cuts[dim] else (stretch,))
                    for rest in sweep(frozenset(), dim + 1)[0] if frags else ():
                        if rest in frags_of:
                            frags_of[rest].extend(frags)
                        else:
                            frags_of[rest] = list(frags)
            lo, lo_closed = hi, rank <= LOWER_CLOSED
            rising = rank & 1
            if rising:
                active.add(s)
                n_active += len(ids_of[s])
            else:
                active.discard(s)
                n_active -= len(ids_of[s])
        # One merge in column dim is the fixpoint, and each rest's
        # fragments arrive normal, disjoint and in line order: see the
        # module docstring.
        out: list[int] = []
        for rest, parts in frags_of.items():
            if len(parts) > 1:
                parts = join_ordered(parts, is_discrete)
            out += [box_ids.setdefault((frag, rest), len(box_ids))
                    for frag in parts]
        result = tuple(out), tuple(_maximal(chain))
        memo[key] = result
        return result

    def descend(chain: list[int], nexts: frozenset[int], n_members: int,
                members: Iterable[int], tail_of: Sequence[int], dim: int
                ) -> tuple | None:
        # Sweep the tails ``nexts`` of the ``n_members`` members at dim
        # and add to the chain each returned mask of tails mapped back
        # to the members above them.  Members with one tail share every
        # point of it, so each such group of two or more is realised on
        # its own.  Returns the sub-sweep over the tails, or None for
        # fewer than two tails.
        sub = sweep(nexts, dim) if len(nexts) >= 2 else None
        # Members with distinct tails and no deeper group share no
        # point: nothing to map back, and ``members`` is not read.
        if len(nexts) < n_members or sub and sub[1]:
            group_of: dict[int, int] = {}
            for j in members:
                group_of[tail_of[j]] = group_of.get(tail_of[j], 0) | 1 << j
            for mask in () if sub is None else sub[1]:
                union = 0
                while mask:
                    low = mask & -mask
                    union |= group_of[low.bit_length() - 1]
                    mask ^= low
                chain.append(union)
            chain.extend(group for group in group_of.values()
                         if group & (group - 1))
        return sub

    chain: list[int] = []
    if overlaps:
        # The top level is the clique of all rules, whose tails are
        # their suffix ids at column 0, so identical rules form a group.
        descend(chain, frozenset(tops), len(tops), range(len(tops)), tops, 0)
        chain = _maximal(chain)
    top = sweep(frozenset(tops), 0)[0] if gaps else ()
    # sweep and descend refer to each other through their closures;
    # dropping the name frees the memo now rather than at the next
    # cyclic collection.
    del sweep
    # Each box is materialised once, from its chain of pairs.
    pairs = list(box_ids)
    boxes = []
    for bid in top:
        box = []
        while bid:
            frag, bid = pairs[bid]
            box.append(frag)
        boxes.append(tuple(box))
    boxes.sort()

    groups = []
    # Per column, the least corner of each distinct set of set ids.
    corners: list[dict[frozenset[int], Interval1D]] = [{} for _ in universe]
    for mask in chain:
        members = []
        while mask:
            low = mask & -mask
            members.append(low.bit_length() - 1)
            mask ^= low
        # The least corner of the group's region.  Meeting canonical
        # sets gives one canonical set in any order, so each distinct
        # column set is folded once, and each distinct choice of sets
        # of a column once per call.
        least = []
        for d, column_sets in enumerate(geometry.sets):
            key = frozenset([rows[j][d] for j in members])
            corner = corners[d].get(key)
            if corner is None:
                corner = corners[d][key] = reduce(
                    intersect_sets, map(column_sets.__getitem__, key))[0]
            least.append(corner)
        witness = tuple(least)
        groups.append(OverlapGroup(frozenset(rule_order[j] for j in members),
                                   witness,
                                   render_box(table, witness)))
    groups.sort(key=lambda g: g.sorted_ids())
    return groups, [MissingRegion(box, render_box(table, box))
                    for box in boxes]


def find_overlapping_rules(table: "DecisionTable") -> list[OverlapGroup]:
    """Maximal groups of rules with a common point, as an antichain.

    Each group carries a witness: the least corner of the group's
    region, per column the first member of the intersection of the
    group's column sets.
    """
    return sweep_table(table, "overlap")[0]


def find_missing_rules(table: "DecisionTable") -> list[MissingRegion]:
    """Boxes of legal inputs not covered by any rule.

    The reported boxes are pairwise disjoint, meet no rule's region,
    and jointly cover exactly the uncovered part of the Universe.
    """
    return sweep_table(table, "missing")[1]


def render_box(table: "DecisionTable",
               box: tuple[Interval1D, ...]) -> tuple[str, ...]:
    """Condition-style texts describing a box, one per input column."""
    geometry = table.geometry
    texts = geometry.texts
    out = []
    for d, iv in enumerate(box):
        # Each distinct interval of a column is rendered once per table.
        # Equal keys render alike: a column's endpoints all have its
        # kind (ints in integer and categorical columns, floats in real
        # ones, where the parser folds -0 to 0.0), so equal intervals
        # of one column hold the same values.
        text = texts.get((d, iv))
        if text is None:
            text = texts[d, iv] = _render_region_condition(
                iv, table.inputs[d], geometry.categories[d],
                geometry.universe[d], geometry.discrete[d])
        out.append(text)
    return tuple(out)


def _render_region_condition(iv: Interval1D, attr, categories: tuple,
                             universe_set: tuple[Interval1D, ...],
                             discrete: bool) -> str:
    # canonical([iv], discrete) is the normal form of its one part, so
    # a box that is not normalised still compares exactly.
    whole = interval(*iv, discrete)
    if universe_set == (() if whole is None else (whole,)):
        return "-"
    if attr.kind.is_categorical:
        return ",".join(map(format_literal, categories[iv.lo:iv.hi + 1]))
    lo, _, hi, _ = iv
    if lo == NEG_INF and hi == POS_INF:
        return "-"
    if lo == hi:
        return format_literal(lo)
    return render_condition(iv)


# ---------------------------------------------------------------------------
# Compressed-grid oracles


@dataclass(frozen=True)
class CellGrid:
    """Elementary cells induced by all rule and universe endpoints."""

    pieces: tuple[tuple[Interval1D, ...], ...]
    reps: tuple[tuple, ...]
    in_universe: tuple[tuple[bool, ...], ...]

    def cell_box(self, cell: tuple[int, ...]) -> tuple[Interval1D, ...]:
        return tuple(self.pieces[d][p] for d, p in enumerate(cell))


def _dimension_pieces(values: list,
                      discrete: bool) -> tuple[list[Interval1D], list]:
    pieces: list[Interval1D] = []
    reps: list = []
    if not values:
        pieces.append(Interval1D(NEG_INF, False, POS_INF, False))
        reps.append(0)
        return pieces, reps
    values = sorted(set(values))
    if discrete:
        pieces.append(Interval1D(NEG_INF, False, values[0] - 1, True))
        reps.append(values[0] - 1)
        for i, v in enumerate(values):
            pieces.append(Interval1D(v, True, v, True))
            reps.append(v)
            if i + 1 < len(values) and values[i + 1] > v + 1:
                pieces.append(Interval1D(v + 1, True, values[i + 1] - 1, True))
                reps.append(v + 1)
        pieces.append(Interval1D(values[-1] + 1, True, POS_INF, False))
        reps.append(values[-1] + 1)
    else:
        pieces.append(Interval1D(NEG_INF, False, values[0], False))
        reps.append(values[0] - 1)
        for i, v in enumerate(values):
            pieces.append(Interval1D(v, True, v, True))
            reps.append(v)
            if i + 1 < len(values):
                pieces.append(Interval1D(v, False, values[i + 1], False))
                reps.append((v + values[i + 1]) / 2)
        pieces.append(Interval1D(values[-1], False, POS_INF, False))
        reps.append(values[-1] + 1)
    return pieces, reps


def build_grid(table: "DecisionTable", cell_cap: int = 10 ** 6) -> CellGrid:
    """Compressed endpoint grid for the table; CapacityError when the
    cell product exceeds ``cell_cap``."""
    geometry = table.geometry
    discrete, universe = geometry.discrete, geometry.universe
    rows = [geometry.columns_of[rid] for rid in _nonempty_rules(geometry)]
    n_dims = len(table.inputs)
    pieces: list[tuple[Interval1D, ...]] = []
    reps: list[tuple] = []
    inside: list[tuple[bool, ...]] = []
    total = 1
    for d in range(n_dims):
        values = []
        for member in universe[d] + tuple(m for row in rows for m in row[d]):
            if member.lo != NEG_INF:
                values.append(member.lo)
            if member.hi != POS_INF:
                values.append(member.hi)
        dim_pieces, dim_reps = _dimension_pieces(values, discrete[d])
        pieces.append(tuple(dim_pieces))
        reps.append(tuple(dim_reps))
        inside.append(tuple(any(m.contains(r) for m in universe[d])
                            for r in dim_reps))
        total *= len(dim_pieces)
        if total > cell_cap:
            raise CapacityError(f"compressed grid needs {total}+ cells, "
                                f"cap is {cell_cap}")
    return CellGrid(tuple(pieces), tuple(reps), tuple(inside))


def _rule_piece_masks(table: "DecisionTable",
                      grid: CellGrid) -> list[list[int]]:
    # Per column and grid piece, the mask of the rules (bit i for the
    # i-th rule in table order) whose column set holds the piece.
    rows = list(table.geometry.columns_of.values())
    masks: list[list[int]] = []
    for d, dim_reps in enumerate(grid.reps):
        dim_masks = []
        for rep in dim_reps:
            mask = 0
            for i, row in enumerate(rows):
                if any(m.contains(rep) for m in row[d]):
                    mask |= 1 << i
            dim_masks.append(mask)
        masks.append(dim_masks)
    return masks


def oracle_missing(table: "DecisionTable",
                   cell_cap: int = 10 ** 6) -> set[tuple[int, ...]]:
    """Uncovered universe cells of the compressed grid, by brute force."""
    grid = build_grid(table, cell_cap)
    masks = _rule_piece_masks(table, grid)
    n_dims = len(grid.pieces)
    full = (1 << len(table.rules)) - 1
    out: set[tuple[int, ...]] = set()

    def walk(dim: int, prefix: tuple[int, ...], mask: int) -> None:
        if dim == n_dims:
            if mask == 0:
                out.add(prefix)
            return
        inside = grid.in_universe[dim]
        dim_masks = masks[dim]
        for p in range(len(grid.pieces[dim])):
            if inside[p]:
                walk(dim + 1, prefix + (p,), mask & dim_masks[p])

    walk(0, (), full)
    return out


def oracle_overlaps(table: "DecisionTable",
                    cell_cap: int = 10 ** 6) -> list[OverlapGroup]:
    """Maximal overlap groups by cell-wise enumeration of the grid."""
    grid = build_grid(table, cell_cap)
    masks = _rule_piece_masks(table, grid)
    n_dims = len(grid.pieces)
    # First cell, in walk order, of every mask of two or more rules.
    found: dict[int, tuple[int, ...]] = {}

    def walk(dim: int, prefix: tuple[int, ...], mask: int) -> None:
        if not mask:
            return
        if dim == n_dims:
            if mask.bit_count() >= 2:
                found.setdefault(mask, prefix)
            return
        dim_masks = masks[dim]
        for p in range(len(grid.pieces[dim])):
            walk(dim + 1, prefix + (p,), mask & dim_masks[p])

    walk(0, (), (1 << len(table.rules)) - 1)

    keep: list[int] = []
    for mask in sorted(found, key=int.bit_count, reverse=True):
        if not any(mask & other == mask for other in keep):
            keep.append(mask)
    groups = []
    for mask in keep:
        ids = frozenset(rule.id for i, rule in enumerate(table.rules)
                        if mask >> i & 1)
        box = grid.cell_box(found[mask])
        groups.append(OverlapGroup(ids, box, render_box(table, box)))
    groups.sort(key=lambda g: g.sorted_ids())
    return groups


def grid_cells_of_boxes(grid: CellGrid, boxes: Iterable[tuple[Interval1D, ...]]
                        ) -> set[tuple[int, ...]]:
    """Grid cells whose representative point falls inside any box."""
    out: set[tuple[int, ...]] = set()
    for box in boxes:
        per_dim: list[list[int]] = []
        for d, iv in enumerate(box):
            per_dim.append([p for p, rep in enumerate(grid.reps[d])
                            if iv.contains(rep)])
        out.update(product(*per_dim))
    return out
