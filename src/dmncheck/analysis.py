"""Overlap and missing-rule detection over rule regions.

Every analysis reads one ``TableGeometry`` per table: the codec, the
universe and each rule's canonical ``entry ∩ facet`` set per input
column, each set a sorted tuple of ``Interval1D``.  A rule's region is
the product of its column sets, and a rule with an empty set in some
column covers nothing.  A box is a tuple of
``Interval1D``, one per input column, and all interval semantics come
from :mod:`dmncheck.intervals`; the witnesses and missing regions
reported here are such tuples.  ``table_rects`` is the only geometry
builder, and ``DecisionTable.geometry`` caches it, so the sweep,
witness and region rendering, the masked-rule check, the structure
check and the grid oracles share a single build.  Each distinct
``entry ∩ facet`` is lowered once per column.

Both analyses are one N-dimensional line sweep in table column order.
``_suffix_forest`` hash-conses the rules' column-set suffixes, so rules
whose sets agree from column d onward share one suffix id there.  A
sub-sweep takes a set of suffix ids and a column, runs once and is
memoised, and returns both halves: the gap boxes over that column and
the deeper ones, and an antichain of masks of two or more of its ids
that share a point there.  ``sweep_table`` runs either half alone or
both in one walk.  ``_events`` sorts one column's bound events, one
pair per member of each swept set, by value and, at equal values, by
the tie rank from :mod:`dmncheck.intervals`, so closed-touching
intervals count as overlapping while open-touching ones do not.  A
canonical set's members are disjoint and non-contiguous, so an id is
active at most once at any point.  The walk visits each non-empty
stretch between events, both unbounded ends included, with the ids
active there; a stretch recurses over the tails of those ids, their
suffix ids at the next column.

Overlaps: only each column's maximal cliques count, where a lower bound
event is directly followed by an upper bound event (Gupta, Lee & Leung,
1982); any other stretch's active ids are a subset of a clique's.  The
tie ranks let a lower and an upper bound at one value meet only as
``[v..v]``, and discrete sets have closed finite bounds, so no clique is
empty.  At the last column a clique of two or more ids is a mask.
Deeper, the clique's ids are grouped by tail.  Ids with one tail share
every point of it, and only non-empty rules are swept, so a group of
two or more ids shares a point.  With two or more distinct tails the
clique recurses over them, and each returned mask of tails maps back to
its preimage, the union of its tails' groups.  The top level maps rules
to their suffix ids at column 0 the same way, so identical rules form a
group.  A clique is itself a stretch, whose tails are the ids the clique
recurses over, so every overlap sub-sweep is also a gap sub-sweep and
the two halves share memo entries.  Masks form an antichain: a
candidate that is a subset of an existing mask is dropped, and
inserting a new mask purges its subsets.  A group's witness is a
function of the group alone: the least corner of its region, per
column the first member of the ``intersect_sets`` fold of the group's
column sets.

Missing values: only the rules' union matters.  A stretch where no id
is active is cut to the column's universe and recurses over no
suffixes, which yields the universe's members in every deeper column.
A stretch still active at the last column is covered.  Each level
merges once, in its own column: the fragments of the stretches whose
sub-sweeps yield one rest (a box over the deeper columns) are joined by
``canonical``, which orders them canonically, so a closed point such as
``[1..1]`` meets the open stretch ``(1..2]`` that follows it.  That one
merge is the fixpoint, where no two boxes are contiguous in one column
and equal in all others.  In column d no more can join.  Deeper, each
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
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import CapacityError
from .geometry import (CategoryCodec, build_codec, build_universe,
                       lower_condition)
from .intervals import (LOWER_CLOSED, LOWER_OPEN, NEG_INF, POS_INF,
                        UPPER_CLOSED, UPPER_OPEN, Interval1D, canonical,
                        interval, intersect_sets)
from .sfeel import (ANY, Comparison, Interval, Kind, Match, format_literal,
                    render_condition)

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
    codec: CategoryCodec


def table_rects(table: "DecisionTable") -> TableGeometry:
    """Build the table's geometry.  Callers read the cached
    ``table.geometry`` instead of calling this again."""
    codec = build_codec(table)
    universe = build_universe(table, codec)
    discrete = tuple(attr.kind is not Kind.REAL for attr in table.inputs)
    # Literals in one column share its kind (load_table folds real
    # literals to floats), so equal conditions lower alike there.
    lowered: dict[tuple, tuple[Interval1D, ...]] = {}
    columns_of: dict[str, tuple[tuple[Interval1D, ...], ...]] = {}
    for rule in table.rules:
        per_column = []
        for d, (attr, cond) in enumerate(zip(table.inputs,
                                             rule.input_entries)):
            members = lowered.get((d, cond))
            if members is None:
                members = intersect_sets(lower_condition(cond, attr, codec),
                                         universe[d])
                lowered[d, cond] = members
            per_column.append(members)
        columns_of[rule.id] = tuple(per_column)
    return TableGeometry(columns_of, discrete, universe, codec)


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


def _suffix_forest(rows: Iterable[tuple],
                   n_dims: int) -> tuple[list, list, list[int]]:
    """Hash-cons the suffixes of rows of column sets, column by column.

    Rows that agree from column d onward share one suffix id at d, so
    sub-sweeps over equal suffix sets are computed once.  Returns, per
    column, the column set (head) and the suffix id at the next column
    (tail; 0 past the last column) of each suffix id, and each row's
    suffix id at column 0.
    """
    heads: list[list[tuple[Interval1D, ...]]] = [[] for _ in range(n_dims)]
    tails: list[list[int]] = [[] for _ in range(n_dims)]
    intern: list[dict] = [{} for _ in range(n_dims)]
    tops: list[int] = []
    for row in rows:
        tid = 0
        for d in range(n_dims - 1, -1, -1):
            key = (row[d], tid)
            got = intern[d].get(key)
            if got is None:
                got = len(heads[d])
                heads[d].append(row[d])
                tails[d].append(tid)
                intern[d][key] = got
            tid = got
        tops.append(tid)
    return heads, tails, tops


def _events(ids: Iterable[int], head: list[tuple[Interval1D, ...]]) -> list:
    """The sorted bound events ``(value, rank, id)`` of the sets
    ``head[i]`` for ``i`` in ``ids``; lower bounds have odd ranks."""
    events = []
    for i in ids:
        for lo, lo_closed, hi, hi_closed in head[i]:
            events.append((lo, LOWER_CLOSED if lo_closed else LOWER_OPEN, i))
            events.append((hi, UPPER_CLOSED if hi_closed else UPPER_OPEN, i))
    events.sort()
    return events


def _nonempty_rules(geometry: TableGeometry) -> list[str]:
    # Rules that cover some point: no column set is empty.
    return [rid for rid, sets in geometry.columns_of.items() if all(sets)]


def _insert_antichain(chain: list[int], mask: int) -> None:
    # Keep only set-maximal masks.
    for other in chain:
        if mask & other == mask:
            return
    chain[:] = [other for other in chain if other & mask != other]
    chain.append(mask)


def _insert_preimages(chain: list[int], ids: Iterable[int],
                      tail_of: Sequence[int], masks: Iterable[int]) -> None:
    # Each mask of tails maps back to the ids above its tails.  Ids with
    # one tail share every point of it, so each such group of two or
    # more ids is realised on its own.
    group_of: dict[int, int] = {}
    for j in ids:
        group_of[tail_of[j]] = group_of.get(tail_of[j], 0) | 1 << j
    for mask in masks:
        union = 0
        while mask:
            low = mask & -mask
            union |= group_of[low.bit_length() - 1]
            mask ^= low
        _insert_antichain(chain, union)
    for group in group_of.values():
        if group & (group - 1):
            _insert_antichain(chain, group)


def sweep_table(table: "DecisionTable", only: str = "all"
                ) -> tuple[list[OverlapGroup], list[MissingRegion]]:
    """The table's overlap groups and missing regions, from one sweep.

    ``only`` is "all" for both halves, or "overlap" or "missing" for
    one; the half not swept comes back empty.
    """
    overlaps, gaps = only != "missing", only != "overlap"
    geometry = table.geometry
    columns_of = geometry.columns_of
    discrete = geometry.discrete
    universe = geometry.universe
    n_dims = len(table.inputs)
    last = n_dims - 1
    rule_order = _nonempty_rules(geometry)
    # Only the rules' union matters to the gaps, and rules that agree
    # from a column onward share every point there, so both halves sweep
    # such rules there as one suffix.
    heads, tails, tops = _suffix_forest(
        [columns_of[rid] for rid in rule_order], n_dims)
    memo: dict[tuple, tuple[tuple, tuple[int, ...]]] = {}

    def sweep(ids: frozenset[int], dim: int) -> tuple[tuple, tuple[int, ...]]:
        # The gap boxes over columns dim.. and the antichain of the
        # masks of two or more ids that share a point there.  Only a
        # stretch where no suffix is active reaches past the last column.
        if dim == n_dims:
            return ((),), ()
        key = (ids, dim)
        cached = memo.get(key)
        if cached is not None:
            return cached
        head, tail, is_discrete = heads[dim], tails[dim], discrete[dim]
        # Each rest (a box over the deeper columns) to its fragments in
        # column dim.
        frags_of: dict[tuple, list[Interval1D]] = {}
        chain: list[int] = []
        active: set[int] = set()
        rising = False
        events = _events(ids, head)
        if gaps:
            events.append((POS_INF, UPPER_OPEN, -1))  # the bound at +inf
        lo, lo_closed = NEG_INF, False
        for hi, rank, i in events:
            nexts = sub = None
            # A lower bound directly followed by an upper bound closes a
            # maximal clique of the column's sets.
            if overlaps and rising and not rank & 1 and len(active) >= 2:
                if dim == last:
                    _insert_antichain(chain, sum(1 << j for j in active))
                else:
                    nexts = frozenset(map(tail.__getitem__, active))
                    if len(nexts) >= 2:
                        sub = sweep(nexts, dim + 1)
                    # Ids with distinct tails and no deeper group share
                    # no point: nothing to map back.
                    if len(nexts) < len(active) or sub and sub[1]:
                        _insert_preimages(chain, active, tail,
                                          () if sub is None else sub[1])
            if gaps:
                hi_closed = rank >= UPPER_CLOSED
                # Between the closed bounds of a discrete column most
                # stretches are empty: tightened to integers, their
                # bounds cross.  An infinite bound stays infinite, and
                # interval() judges the rest.
                if (not is_discrete or (lo if lo_closed else lo + 1)
                        <= (hi if hi_closed else hi - 1)):
                    stretch = interval(lo, lo_closed, hi, hi_closed,
                                       is_discrete)
                    if stretch is None:
                        rests = ()
                    elif not active:
                        frags = intersect_sets(universe[dim], (stretch,))
                        rests = sweep(frozenset(), dim + 1)[0] if frags else ()
                    elif dim < last:
                        # A clique's stretch reuses the clique's sub-sweep.
                        frags = (stretch,)
                        if sub is None:
                            sub = sweep(nexts or frozenset(
                                map(tail.__getitem__, active)), dim + 1)
                        rests = sub[0]
                    else:
                        rests = ()  # covered in every column
                    for rest in rests:
                        frags_of.setdefault(rest, []).extend(frags)
                lo, lo_closed = hi, rank <= LOWER_CLOSED
            rising = rank & 1
            if rising:
                active.add(i)
            else:
                active.discard(i)
        # One merge in column dim is the fixpoint: see the module
        # docstring.
        out: list[tuple] = []
        for rest, parts in frags_of.items():
            if len(parts) > 1:
                parts = canonical(parts, is_discrete)
            out.extend((frag,) + rest for frag in parts)
        result = tuple(out), tuple(chain)
        memo[key] = result
        return result

    top = frozenset(tops)
    chain: list[int] = []
    if overlaps:
        # Identical rules share a top suffix id, so the top level maps
        # masks of ids back to rules as each clique does.
        found = sweep(top, 0)[1] if len(top) >= 2 else ()
        if len(top) < len(tops) or found:
            _insert_preimages(chain, range(len(tops)), tops, found)
    boxes = sorted(sweep(top, 0)[0]) if gaps else []
    # sweep refers to itself through its closure; dropping the name
    # frees the memo now rather than at the next cyclic collection.
    del sweep

    groups = []
    for mask in chain:
        ids = []
        while mask:
            low = mask & -mask
            ids.append(rule_order[low.bit_length() - 1])
            mask ^= low
        # The least corner of the group's region.  Meeting canonical
        # sets gives one canonical set in any order, so each distinct
        # column set is folded once.
        witness = tuple(
            reduce(intersect_sets, {columns_of[rid][d] for rid in ids})[0]
            for d in range(n_dims))
        groups.append(OverlapGroup(frozenset(ids), witness,
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
    return tuple(
        _render_region_condition(iv, attr, geometry.codec,
                                 geometry.universe[d], geometry.discrete[d])
        for d, (iv, attr) in enumerate(zip(box, table.inputs)))


def _render_region_condition(iv: Interval1D, attr, codec: CategoryCodec,
                             universe_set: tuple[Interval1D, ...],
                             discrete: bool) -> str:
    # canonical([iv], discrete) is the normal form of its one part, so
    # a box that is not normalised still compares exactly.
    whole = interval(*iv, discrete)
    if universe_set == (() if whole is None else (whole,)):
        return "-"
    if attr.kind.is_categorical:
        return ",".join(format_literal(c) for c in codec.decode(attr.name, iv))
    lo, lo_closed, hi, hi_closed = iv
    if lo == NEG_INF and hi == POS_INF:
        cond = ANY
    elif lo == NEG_INF:
        cond = Comparison("<=" if hi_closed else "<", hi)
    elif hi == POS_INF:
        cond = Comparison(">=" if lo_closed else ">", lo)
    elif lo == hi:
        cond = Match(lo)
    else:
        cond = Interval(lo_closed, lo, hi, hi_closed)
    return render_condition(cond)


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
