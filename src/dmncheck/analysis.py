"""Overlap and missing-rule detection over rule regions.

Every analysis reads one ``TableGeometry`` per table: the codec, the
universe and each rule's canonical ``entry ∩ facet`` set per input
column, each set a sorted tuple of ``Interval1D``.  A rule's region is
the product of its column sets, and a rule with an empty set in some
column covers nothing.  A box is a tuple of
``Interval1D``, one per input column, and all interval semantics come
from :mod:`dmncheck.intervals`; the witnesses and missing regions
reported here are such tuples.  ``table_rects`` is the only geometry
builder, and ``DecisionTable.geometry`` caches it, so the sweeps,
witness and region rendering, the masked-rule check, the structure
check and the grid oracles share a single build.  Each distinct
``entry ∩ facet`` is lowered once per column.

Both analyses are N-dimensional line sweeps in table column order over
one event encoding.  ``_events`` sorts one column's bound events, one
pair per member of each swept set, by value and, at equal values, by the
tie rank from :mod:`dmncheck.intervals`, so closed-touching intervals
count as overlapping while open-touching ones do not.  A canonical set's
members are disjoint and non-contiguous, so an id is active at most once
at any point.

Overlaps: the sweep recurses over rule indices at each column's maximal
cliques, where a lower bound event is directly followed by an upper
bound event (Gupta, Lee & Leung, 1982); any other stretch's active rules
are a subset of a clique's.  The tie ranks let a lower and an upper bound
at one value meet only as ``[v..v]``, and discrete sets have closed
finite bounds, so no clique is empty.  A clique of two or more rules
recurses into the next dimension over them; past the last dimension
their bits form a mask.  Each sub-sweep over a set of rules runs once and
is memoised.  Reported masks form an antichain: a candidate that is a
subset of an existing mask is dropped, and inserting a new mask purges
its subsets.  A group's witness is a function of the group alone: the
least corner of its region, per column the first member of the
``intersect_sets`` fold of the group's column sets.

Missing values: ``_walk`` yields each non-empty stretch between events,
both unbounded ends included, with the suffix ids active there.
``_suffix_forest`` hash-conses the rules' column-set suffixes, so rules
whose sets agree from column d onward share one suffix id there and each
sub-sweep over a set of suffix ids runs once and is memoised.  Sweeping
one dimension, a span recurses over the tails of the suffixes active
there; a span where none is active is cut to the column's universe and
recurses over no suffixes, which yields the universe's members in every
deeper column.  A span still active at the last column is covered.
Discovered gap boxes merge when exactly one column's intervals are
contiguous and all other columns agree, repeated to a fixpoint, so no
two reported boxes could still merge.  Each merge is ``canonical``, which
orders a column's intervals canonically, so a closed point such as
``[1..1]`` meets the open stretch ``(1..2]`` that follows it.

The module also carries deliberately naive oracles that enumerate the
compressed endpoint grid cell by cell.  They exist to cross-check the
sweeps and refuse to run past a configurable cell cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import (TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

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
                   n_dims: int) -> tuple[list, list, frozenset[int]]:
    """Hash-cons the suffixes of rows of column sets, column by column.

    Rows that agree from column d onward share one suffix id at d, so
    sub-sweeps over equal suffix sets are computed once.  Returns, per
    column, the column set (head) and the suffix id at the next column
    (tail; 0 past the last column) of each suffix id, and the suffix
    ids at column 0.
    """
    heads: list[list[tuple[Interval1D, ...]]] = [[] for _ in range(n_dims)]
    tails: list[list[int]] = [[] for _ in range(n_dims)]
    intern: list[dict] = [{} for _ in range(n_dims)]
    top_ids: set[int] = set()
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
        top_ids.add(tid)
    return heads, tails, frozenset(top_ids)


def _span(last: Optional[tuple], current: Optional[tuple],
          discrete: bool) -> Optional[Interval1D]:
    # The stretch strictly between two consecutive events; None stands
    # for the virtual bound at either infinity.
    if last is None:
        lo, lo_closed = NEG_INF, False
    else:
        lo, lo_closed = last[0], last[1] <= LOWER_CLOSED
    if current is None:
        hi, hi_closed = POS_INF, False
    else:
        hi, hi_closed = current[0], current[1] >= UPPER_CLOSED
    return interval(lo, lo_closed, hi, hi_closed, discrete)


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


def _walk(ids: Iterable[int], head: list[tuple[Interval1D, ...]],
          discrete: bool) -> Iterator[tuple[Interval1D, set[int]]]:
    """Yield ``(stretch, active)`` for each non-empty stretch between the
    events of the suffix sets ``head[i]``, ``i`` in ``ids``, both
    unbounded ends included; ``active``, the suffix ids active there, is
    updated in place, so read it before resuming the walk."""
    active: set[int] = set()
    last: Optional[tuple] = None
    for event in _events(ids, head) + [None]:  # None: the bound at +inf
        stretch = _span(last, event, discrete)
        if stretch is not None:
            yield stretch, active
        if event is not None:
            _value, rank, i = event
            if rank & 1:
                active.add(i)
            else:
                active.discard(i)
        last = event


def _nonempty_rules(geometry: TableGeometry) -> list[str]:
    # Rules that cover some point: no column set is empty.
    return [rid for rid, sets in geometry.columns_of.items() if all(sets)]


# ---------------------------------------------------------------------------
# Overlap sweep


def _insert_antichain(chain: list[int], mask: int) -> None:
    # Keep only set-maximal masks.
    for other in chain:
        if mask & other == mask:
            return
    chain[:] = [other for other in chain if other & mask != other]
    chain.append(mask)


def find_overlapping_rules(table: "DecisionTable") -> list[OverlapGroup]:
    """Maximal groups of rules with a common point, as an antichain.

    Each group carries a witness: the least corner of the group's
    region, per column the first member of the intersection of the
    group's column sets.
    """
    geometry = table.geometry
    columns_of = geometry.columns_of
    n_dims = len(table.inputs)
    rule_order = _nonempty_rules(geometry)
    if not rule_order:
        return []

    # A rule's column set is canonical, so it is active at most once
    # at any point and ``len(active)`` counts the rules there.
    rows = [columns_of[rid] for rid in rule_order]
    heads = [[row[d] for row in rows] for d in range(n_dims)]
    memo: dict[tuple, tuple[int, ...]] = {}

    def sweep(rules: frozenset[int], dim: int) -> tuple[int, ...]:
        # Antichain of the rule masks realised over dims dim..
        if dim == n_dims:
            return (sum(1 << i for i in rules),)
        key = (rules, dim)
        cached = memo.get(key)
        if cached is not None:
            return cached
        chain: list[int] = []
        active: set[int] = set()
        rising = False
        for _value, rank, i in _events(rules, heads[dim]):
            # A lower bound directly followed by an upper bound closes a
            # maximal clique of the column's intervals.
            if rising and not rank & 1 and len(active) >= 2:
                for mask in sweep(frozenset(active), dim + 1):
                    _insert_antichain(chain, mask)
            rising = rank & 1
            if rising:
                active.add(i)
            else:
                active.discard(i)
        result = tuple(chain)
        memo[key] = result
        return result

    found = sweep(frozenset(range(len(rows))), 0)
    # sweep refers to itself through its closure; dropping the name
    # frees the memo now rather than at the next cyclic collection.
    del sweep

    groups = []
    for mask in found:
        ids = []
        while mask:
            low = mask & -mask
            ids.append(rule_order[low.bit_length() - 1])
            mask ^= low
        # The least corner of the group's region, inside which the
        # depth-first sweep first meets the group.
        witness = tuple(
            reduce(intersect_sets, (columns_of[rid][d] for rid in ids))[0]
            for d in range(n_dims))
        groups.append(OverlapGroup(frozenset(ids), witness,
                                   render_box(table, witness)))
    groups.sort(key=lambda g: g.sorted_ids())
    return groups


# ---------------------------------------------------------------------------
# Missing-rule sweep


def _merge_boxes(boxes: list[tuple], discrete: Sequence[bool]) -> list[tuple]:
    """Fixpoint merge: two boxes fuse when exactly one column is
    contiguous and every other column is identical."""
    if len(boxes) < 2:
        return list(boxes)
    n_dims = len(discrete)
    changed = True
    while changed:
        changed = False
        for d in range(n_dims):
            groups: dict[tuple, list[Interval1D]] = {}
            for box in boxes:
                groups.setdefault((box[:d], box[d + 1:]), []).append(box[d])
            rebuilt: list[tuple] = []
            for (prefix, suffix), ivs in groups.items():
                # Boxes of one group are disjoint, so the canonical
                # merge fuses exactly the contiguous intervals.  Most
                # groups hold one interval, which needs no merge.
                if len(ivs) > 1:
                    merged = canonical(ivs, discrete[d])
                    changed = changed or len(merged) < len(ivs)
                    ivs = merged
                for iv in ivs:
                    rebuilt.append(prefix + (iv,) + suffix)
            boxes = rebuilt
    return boxes


def find_missing_rules(table: "DecisionTable") -> list[MissingRegion]:
    """Boxes of legal inputs not covered by any rule.

    The reported boxes are pairwise disjoint, meet no rule's region,
    and jointly cover exactly the uncovered part of the Universe.
    """
    geometry = table.geometry
    discrete = geometry.discrete
    universe = geometry.universe
    n_dims = len(table.inputs)

    # Only the rules' union matters, so rules that agree from a column
    # onward are swept there as one suffix.
    heads, tails, top_ids = _suffix_forest(
        (geometry.columns_of[rid] for rid in _nonempty_rules(geometry)),
        n_dims)

    memo: dict[tuple, tuple[tuple, ...]] = {}

    def gaps(suffix_ids: frozenset[int], dim: int) -> tuple[tuple, ...]:
        # Only a stretch where no suffix is active reaches past the
        # last column.
        if dim == n_dims:
            return ((),)
        key = (suffix_ids, dim)
        cached = memo.get(key)
        if cached is not None:
            return cached
        tail = tails[dim]
        out: list[tuple] = []
        for stretch, active in _walk(suffix_ids, heads[dim], discrete[dim]):
            if not active:
                frags = intersect_sets(universe[dim], (stretch,))
            elif dim + 1 < n_dims:
                frags = (stretch,)
            else:
                continue  # covered in every column
            for frag in frags:
                for box in gaps(frozenset(tail[sid] for sid in active),
                                dim + 1):
                    out.append((frag,) + box)
        result = tuple(_merge_boxes(out, discrete[dim:]))
        memo[key] = result
        return result

    boxes = sorted(gaps(top_ids, 0))
    del gaps  # frees the memo now, as in find_overlapping_rules
    return [MissingRegion(box, render_box(table, box)) for box in boxes]


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
    if canonical([iv], discrete) == universe_set:
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
