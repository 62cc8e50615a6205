"""Overlap and missing-rule detection over rule hyper-rectangles.

Every analysis reads one ``TableGeometry`` per table: the codec, the
universe, each rule's canonical set per column and the boxes of their
product with the owning rule, and the input cells that admit no legal
value.  A box is a tuple of ``Interval1D``, one per input column, and
all interval semantics come from :mod:`dmncheck.intervals`.
``table_rects`` builds the geometry and ``DecisionTable.geometry``
caches it, so the sweeps, witness and region rendering, the masked-rule
check, the structure check and the grid oracles share a single build.
Each distinct ``entry ∩ facet`` is lowered once per column.

Both analyses are N-dimensional line sweeps in table column order over
one skeleton.  ``_suffix_forest`` hash-conses the box suffixes: boxes
that agree from column d onward, and carry the same tag, share one
suffix id there, so each sub-sweep over a set of suffix ids runs once
and is memoised.  The overlap sweep tags each box with its rule's bit;
the missing sweep tags them all alike.  ``_events`` lists one column's
bound events as ``(value, tie rank, suffix id)`` tuples, sorted by
value and, at equal values, by the tie rank from
:mod:`dmncheck.intervals`, so closed-touching boxes count as
overlapping while open-touching ones do not.  ``_span`` gives the
stretch between two consecutive events.  Each sweep keeps its own
per-event loop.

Overlaps: sweeping one dimension, every span between consecutive
events recurses into the next dimension over the boxes active there;
at the last dimension the active rule set is reported.  Reported
groups form an antichain: a candidate that is a subset of an existing
group is dropped, and inserting a new group purges its subsets.  The
witness of a group is the joint intersection of the overlapping
boxes, one per rule.

Missing values: sweeping one dimension, spans where no box is active
are uncovered for every legal deeper value; spans with active boxes
recurse over them.  Discovered gap boxes merge when exactly one
column's intervals are contiguous and all other columns agree, repeated
to a fixpoint, so no two reported boxes could still merge.  The merge
orders each column's intervals canonically, so a closed point such as
``[1..1]`` meets the open stretch ``(1..2]`` that follows it.

The module also carries deliberately naive oracles that enumerate the
compressed endpoint grid cell by cell.  They exist to cross-check the
sweeps and refuse to run past a configurable cell cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .errors import CapacityError
from .geometry import (CategoryCodec, HyperRect, build_codec, build_universe,
                       lower_condition)
from .intervals import (LOWER_CLOSED, LOWER_OPEN, NEG_INF, POS_INF,
                        UPPER_CLOSED, UPPER_OPEN, Interval1D, IntervalSet,
                        canonical_key, contiguous, interval)
from .sfeel import Kind, format_literal

if TYPE_CHECKING:  # pragma: no cover
    from .model import DecisionTable


@dataclass(frozen=True)
class OverlapGroup:
    """A maximal set of rules sharing a common region, with a witness
    and one condition text per input column describing it."""

    rule_ids: frozenset[str]
    witness: HyperRect
    conditions: tuple[str, ...]

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.rule_ids))


@dataclass(frozen=True)
class MissingRegion:
    """An uncovered box of legal inputs, with one condition text per
    input column describing a candidate rule that would close it."""

    box: HyperRect
    conditions: tuple[str, ...]


class TableGeometry(NamedTuple):
    """The geometric view of one table, built once by ``table_rects``.
    A box is a tuple of ``Interval1D``, one per input column."""

    boxes: tuple[tuple[Interval1D, ...], ...]
    # Owning rule id of each box, parallel to ``boxes``.
    box_rule: tuple[str, ...]
    # Every rule id, in table order, to its boxes; empty for a rule
    # with an empty cell.
    boxes_of: dict[str, tuple[tuple[Interval1D, ...], ...]]
    # Every rule id to its canonical entry ∩ facet set per input column;
    # the rule's boxes are their product.
    columns_of: dict[str, tuple[tuple[Interval1D, ...], ...]]
    discrete: tuple[bool, ...]
    universe: tuple[IntervalSet, ...]
    codec: CategoryCodec
    # (rule id, input column index) of every cell whose entry ∩ facet
    # is empty.
    empty_cells: frozenset[tuple[str, int]]


def table_rects(table: "DecisionTable") -> TableGeometry:
    """Build the table's geometry.  Callers read the cached
    ``table.geometry`` instead of calling this again."""
    codec = build_codec(table)
    universe = build_universe(table, codec)
    discrete = tuple(attr.kind is Kind.INTEGER for attr in table.inputs)
    # Literals in one column share its kind (load_table folds real
    # literals to floats), so equal conditions lower alike there.
    lowered: dict[tuple, tuple[Interval1D, ...]] = {}
    boxes: list[tuple[Interval1D, ...]] = []
    box_rule: list[str] = []
    boxes_of: dict[str, tuple[tuple[Interval1D, ...], ...]] = {}
    columns_of: dict[str, tuple[tuple[Interval1D, ...], ...]] = {}
    empty_cells: set[tuple[str, int]] = set()
    for rule in table.rules:
        per_column = []
        for d, (attr, cond) in enumerate(zip(table.inputs,
                                             rule.input_entries)):
            members = lowered.get((d, cond))
            if members is None:
                cell = lower_condition(cond, attr, codec)
                members = cell.intersect(universe[d]).members
                lowered[d, cond] = members
            if not members:
                empty_cells.add((rule.id, d))
            per_column.append(members)
        own = tuple(product(*per_column))
        boxes.extend(own)
        box_rule.extend([rule.id] * len(own))
        boxes_of[rule.id] = own
        columns_of[rule.id] = tuple(per_column)
    return TableGeometry(tuple(boxes), tuple(box_rule), boxes_of, columns_of,
                         discrete, universe, codec, frozenset(empty_cells))


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


def _suffix_forest(boxes: Iterable[tuple], tags: Iterable[int],
                   n_dims: int) -> tuple[list, list, list, frozenset[int]]:
    """Hash-cons the tagged box suffixes column by column.

    Two boxes with equal tags that agree from column d onward share one
    suffix id at d, so sub-sweeps over equal suffix sets are computed
    once.  Returns, per column, the interval (head), the suffix id at
    the next column (tail; 0 past the last column) and the tag of each
    suffix id, and the suffix ids at column 0.
    """
    heads: list[list[Interval1D]] = [[] for _ in range(n_dims)]
    tails: list[list[int]] = [[] for _ in range(n_dims)]
    tags_at: list[list[int]] = [[] for _ in range(n_dims)]
    intern: list[dict] = [{} for _ in range(n_dims)]
    top_ids: set[int] = set()
    for box, tag in zip(boxes, tags):
        tid = 0
        for d in range(n_dims - 1, -1, -1):
            key = (box[d], tag, tid)
            got = intern[d].get(key)
            if got is None:
                got = len(heads[d])
                heads[d].append(box[d])
                tails[d].append(tid)
                tags_at[d].append(tag)
                intern[d][key] = got
            tid = got
        top_ids.add(tid)
    return heads, tails, tags_at, frozenset(top_ids)


def _events(suffix_ids: Iterable[int], head: list[Interval1D]) -> list:
    """The bound events ``(value, tie rank, suffix id)`` of the given
    suffixes' intervals at one column, in sweep order."""
    events = []
    for sid in suffix_ids:
        lo, lo_closed, hi, hi_closed = head[sid]
        events.append((lo, LOWER_CLOSED if lo_closed else LOWER_OPEN, sid))
        events.append((hi, UPPER_CLOSED if hi_closed else UPPER_OPEN, sid))
    events.sort()
    return events


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


# ---------------------------------------------------------------------------
# Overlap sweep


def _insert_antichain(chain: list, mask: int, box: tuple) -> None:
    # Keep only set-maximal masks; first witness for a mask wins.
    for other, _ in chain:
        if mask & other == mask:
            return
    chain[:] = [(other, b) for other, b in chain
                if other & mask != other]
    chain.append((mask, box))


def find_overlapping_rules(table: "DecisionTable") -> list[OverlapGroup]:
    """Maximal groups of rules with a common point, as an antichain.

    Each group carries a witness: the joint intersection of the
    overlapping boxes, one per rule of the group.
    """
    geometry = table.geometry
    rects, rect_rule = geometry.boxes, geometry.box_rule
    discrete = geometry.discrete
    n_dims = len(table.inputs)
    if not rects:
        return []

    rule_order: list[str] = []
    rule_bit_by_id: dict[str, int] = {}
    for rid in rect_rule:
        if rid not in rule_bit_by_id:
            rule_bit_by_id[rid] = 1 << len(rule_order)
            rule_order.append(rid)

    # Tagging suffixes with their rule's bit keeps boxes of different
    # rules apart, so the sweep can count the active boxes per rule.
    heads, tails, bits, top_ids = _suffix_forest(
        rects, (rule_bit_by_id[rid] for rid in rect_rule), n_dims)
    memo: dict[tuple, tuple] = {}

    def sweep(suffix_ids: frozenset[int], dim: int) -> tuple:
        # Antichain of (rule mask, witness cell over dims dim..) pairs.
        key = (suffix_ids, dim)
        cached = memo.get(key)
        if cached is not None:
            return cached
        tail, bit_of = tails[dim], bits[dim]
        disc = discrete[dim]
        chain: list[tuple[int, tuple]] = []
        active: set[int] = set()
        counts: dict[int, int] = {}
        rule_mask = 0
        last: Optional[tuple] = None
        for event in _events(suffix_ids, heads[dim]):
            if active and rule_mask.bit_count() >= 2:
                stretch = _span(last, event, disc)
                if stretch is not None:
                    if dim + 1 == n_dims:
                        _insert_antichain(chain, rule_mask, (stretch,))
                    else:
                        sub = sweep(frozenset(tail[sid] for sid in active),
                                    dim + 1)
                        for mask, cell in sub:
                            _insert_antichain(chain, mask,
                                              (stretch,) + cell)
            _value, rank, sid = event
            bit = bit_of[sid]
            if rank & 1:
                active.add(sid)
                seen = counts.get(bit, 0)
                counts[bit] = seen + 1
                if seen == 0:
                    rule_mask |= bit
            else:
                active.discard(sid)
                seen = counts[bit] - 1
                counts[bit] = seen
                if seen == 0:
                    rule_mask &= ~bit
            last = event
        result = tuple(chain)
        memo[key] = result
        return result

    found = sweep(top_ids, 0)
    # sweep refers to itself through its closure; dropping the name
    # frees the memo now rather than at the next cyclic collection.
    del sweep

    groups = []
    for mask, cell in found:
        ids = [rid for rid in rule_order if mask & rule_bit_by_id[rid]]
        witness: Optional[tuple] = None
        for rid in ids:
            for rect in geometry.boxes_of[rid]:
                if all(iv.covers(part) for iv, part in zip(rect, cell)):
                    if witness is None:
                        witness = rect
                    else:
                        witness = tuple(a.intersect(b)
                                        for a, b in zip(witness, rect))
                        assert None not in witness, \
                            "witness cell inside both boxes"
                    break
        assert witness is not None
        box = HyperRect(witness)
        groups.append(OverlapGroup(frozenset(ids), box,
                                   render_box(table, box)))
    groups.sort(key=lambda g: g.sorted_ids())
    return groups


# ---------------------------------------------------------------------------
# Missing-rule sweep


def _merge_boxes(boxes: list[tuple], discrete: Sequence[bool]) -> list[tuple]:
    """Fixpoint merge: two boxes fuse when exactly one column is
    contiguous and every other column is identical."""
    if len(boxes) < 2:
        return list(boxes)
    boxes = list(boxes)
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
                ivs.sort(key=canonical_key)
                merged = [ivs[0]]
                for iv in ivs[1:]:
                    tail = merged[-1]
                    if contiguous(tail, iv, discrete[d]):
                        merged[-1] = Interval1D(tail.lo, tail.lo_closed,
                                                iv.hi, iv.hi_closed)
                        changed = True
                    else:
                        merged.append(iv)
                for iv in merged:
                    rebuilt.append(prefix + (iv,) + suffix)
            boxes = rebuilt
    return boxes


def find_missing_rules(table: "DecisionTable") -> list[MissingRegion]:
    """Boxes of legal inputs not covered by any rule.

    The reported boxes are pairwise disjoint, intersect no rule box,
    and jointly cover exactly the uncovered part of the Universe.
    """
    geometry = table.geometry
    discrete = geometry.discrete
    universe = geometry.universe
    n_dims = len(table.inputs)

    # Every suffix carries the same tag: only the boxes' union matters.
    heads, tails, _, top_ids = _suffix_forest(geometry.boxes, repeat(0),
                                              n_dims)

    # Per-column products of universe member intervals: the tail of a
    # gap box when no rule is active at some column.
    universe_tails: list[list[tuple]] = [[] for _ in range(n_dims + 1)]
    universe_tails[n_dims] = [()]
    for d in range(n_dims - 1, -1, -1):
        universe_tails[d] = [(m,) + tail for m in universe[d].members
                             for tail in universe_tails[d + 1]]

    memo: dict[tuple, tuple[tuple, ...]] = {}

    def gaps(suffix_ids: frozenset[int], dim: int) -> tuple[tuple, ...]:
        if dim == n_dims:
            return ()
        key = (suffix_ids, dim)
        cached = memo.get(key)
        if cached is not None:
            return cached
        tail = tails[dim]
        disc = discrete[dim]
        uni = universe[dim]
        out: list[tuple] = []
        active: set[int] = set()
        last: Optional[tuple] = None

        def flush(current: Optional[tuple]) -> None:
            stretch = _span(last, current, disc)
            if stretch is None:
                return
            if active:
                if dim + 1 < n_dims:
                    sub = gaps(frozenset(tail[sid] for sid in active),
                               dim + 1)
                    for box in sub:
                        out.append((stretch,) + box)
            else:
                for frag in uni.intersect(IntervalSet((stretch,),
                                                      disc)).members:
                    for ubox in universe_tails[dim + 1]:
                        out.append((frag,) + ubox)

        for event in _events(suffix_ids, heads[dim]):
            flush(event)
            _value, rank, sid = event
            if rank & 1:
                active.add(sid)
            else:
                active.discard(sid)
            last = event
        flush(None)

        result = tuple(_merge_boxes(out, discrete[dim:]))
        memo[key] = result
        return result

    rects = [HyperRect(box) for box in sorted(gaps(top_ids, 0))]
    del gaps  # frees the memo now, as in find_overlapping_rules
    return [MissingRegion(rect, render_box(table, rect)) for rect in rects]


def render_box(table: "DecisionTable", box: HyperRect) -> tuple[str, ...]:
    """Condition-style texts describing a box, one per input column."""
    geometry = table.geometry
    return tuple(
        _render_region_condition(iv, attr, geometry.codec,
                                 geometry.universe[d], geometry.discrete[d])
        for d, (iv, attr) in enumerate(zip(box.intervals, table.inputs)))


def _render_region_condition(iv: Interval1D, attr, codec: CategoryCodec,
                             universe_set: IntervalSet,
                             discrete: bool) -> str:
    as_set = IntervalSet.build([iv], discrete)
    if as_set == universe_set:
        return "-"
    if attr.kind.is_categorical:
        cats = codec.decode(attr.name, iv)
        if len(cats) == len(codec.categories(attr.name)):
            return "-"
        return ",".join(format_literal(c) for c in cats)
    lo, lo_closed, hi, hi_closed = iv
    if lo == NEG_INF and hi == POS_INF:
        return "-"
    if lo == NEG_INF:
        return ("<=" if hi_closed else "<") + format_literal(hi)
    if hi == POS_INF:
        return (">=" if lo_closed else ">") + format_literal(lo)
    if lo == hi:
        return format_literal(lo)
    left = "[" if lo_closed else "("
    right = "]" if hi_closed else ")"
    return f"{left}{format_literal(lo)}..{format_literal(hi)}{right}"


# ---------------------------------------------------------------------------
# Compressed-grid oracles


@dataclass(frozen=True)
class CellGrid:
    """Elementary cells induced by all box and universe endpoints."""

    pieces: tuple[tuple[Interval1D, ...], ...]
    reps: tuple[tuple, ...]
    in_universe: tuple[tuple[bool, ...], ...]

    def cell_box(self, cell: tuple[int, ...]) -> HyperRect:
        return HyperRect(tuple(self.pieces[d][p]
                               for d, p in enumerate(cell)))


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
    rects, discrete, universe = (geometry.boxes, geometry.discrete,
                                 geometry.universe)
    n_dims = len(table.inputs)
    pieces: list[tuple[Interval1D, ...]] = []
    reps: list[tuple] = []
    inside: list[tuple[bool, ...]] = []
    total = 1
    for d in range(n_dims):
        values = []
        for rect in rects:
            lo, _, hi, _ = rect[d]
            if lo != NEG_INF:
                values.append(lo)
            if hi != POS_INF:
                values.append(hi)
        for member in universe[d].members:
            if member.lo != NEG_INF:
                values.append(member.lo)
            if member.hi != POS_INF:
                values.append(member.hi)
        dim_pieces, dim_reps = _dimension_pieces(values, discrete[d])
        pieces.append(tuple(dim_pieces))
        reps.append(tuple(dim_reps))
        inside.append(tuple(universe[d].contains(r) for r in dim_reps))
        total *= len(dim_pieces)
        if total > cell_cap:
            raise CapacityError(f"compressed grid needs {total}+ cells, "
                                f"cap is {cell_cap}")
    return CellGrid(tuple(pieces), tuple(reps), tuple(inside))


def _rect_piece_masks(table: "DecisionTable", grid: CellGrid):
    rects, rect_rule = table.geometry.boxes, table.geometry.box_rule
    n_dims = len(grid.pieces)
    masks: list[list[int]] = []
    for d in range(n_dims):
        dim_masks = []
        for rep in grid.reps[d]:
            mask = 0
            for i, rect in enumerate(rects):
                if rect[d].contains(rep):
                    mask |= 1 << i
            dim_masks.append(mask)
        masks.append(dim_masks)
    return rects, rect_rule, masks


def oracle_missing(table: "DecisionTable",
                   cell_cap: int = 10 ** 6) -> set[tuple[int, ...]]:
    """Uncovered universe cells of the compressed grid, by brute force."""
    grid = build_grid(table, cell_cap)
    rects, _, masks = _rect_piece_masks(table, grid)
    n_dims = len(grid.pieces)
    full = (1 << len(rects)) - 1
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
    rects, rect_rule, masks = _rect_piece_masks(table, grid)
    n_dims = len(grid.pieces)
    found: dict[frozenset[str], tuple[int, ...]] = {}
    rule_sets: dict[int, frozenset[str]] = {}

    def rules_of(mask: int) -> frozenset[str]:
        got = rule_sets.get(mask)
        if got is None:
            ids = set()
            i = 0
            m = mask
            while m:
                if m & 1:
                    ids.add(rect_rule[i])
                m >>= 1
                i += 1
            got = frozenset(ids)
            rule_sets[mask] = got
        return got

    def walk(dim: int, prefix: tuple[int, ...], mask: int) -> None:
        if not mask:
            return
        if dim == n_dims:
            ids = rules_of(mask)
            if len(ids) >= 2 and ids not in found:
                found[ids] = prefix
            return
        dim_masks = masks[dim]
        for p in range(len(grid.pieces[dim])):
            walk(dim + 1, prefix + (p,), mask & dim_masks[p])

    walk(0, (), (1 << len(rects)) - 1)

    keep: list[tuple[frozenset[str], tuple[int, ...]]] = []
    for ids in sorted(found, key=len, reverse=True):
        if not any(ids < other for other, _ in keep):
            keep.append((ids, found[ids]))
    groups = []
    for ids, cell in keep:
        box = grid.cell_box(cell)
        groups.append(OverlapGroup(ids, box, render_box(table, box)))
    groups.sort(key=lambda g: g.sorted_ids())
    return groups


def grid_cells_of_boxes(grid: CellGrid,
                        boxes: Iterable[HyperRect]) -> set[tuple[int, ...]]:
    """Grid cells whose representative point falls inside any box."""
    out: set[tuple[int, ...]] = set()
    for box in boxes:
        per_dim: list[list[int]] = []
        for d, iv in enumerate(box.intervals):
            per_dim.append([p for p, rep in enumerate(grid.reps[d])
                            if iv.contains(rep)])
        out.update(product(*per_dim))
    return out
