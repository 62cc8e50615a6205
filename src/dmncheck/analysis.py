"""Overlap and missing-rule detection over rule hyper-rectangles.

Every analysis reads one ``TableGeometry`` per table: the codec, the
universe, each rule's canonical set per column and the boxes of their
product with the owning rule, and the input cells that admit no legal
value.  ``table_rects`` builds it and
``DecisionTable.geometry`` caches it, so the sweeps, witness and region
rendering, the masked-rule check, the structure check and the grid
oracles share a single build.  Each distinct ``entry ∩ facet`` is
lowered once per column.

Both analyses are N-dimensional line sweeps in table column order.
Endpoint events sort by value and, at equal values, by the tie rank
from :mod:`dmncheck.intervals`, so closed-touching boxes count as
overlapping while open-touching ones do not.

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
to a fixpoint, so the output does not depend on sweep order.  Identical
box suffixes are shared and sub-sweeps memoised, which keeps the
recursion tractable on partition-like tables.

The module also carries deliberately naive oracles that enumerate the
compressed endpoint grid cell by cell.  They exist to cross-check the
sweeps and refuse to run past a configurable cell cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .errors import CapacityError
from .geometry import (CategoryCodec, HyperRect, build_codec, build_universe,
                       lower_condition)
from .intervals import (LOWER_CLOSED, LOWER_OPEN, NEG_INF, POS_INF,
                        UPPER_CLOSED, UPPER_OPEN, Interval1D, IntervalSet,
                        interval)
from .sfeel import Kind, format_literal

if TYPE_CHECKING:  # pragma: no cover
    from .model import DecisionTable

# Boxes are handled internally as tuples of (lo, lo_closed, hi, hi_closed)
# tuples: hashing and sorting plain tuples is much cheaper than dataclasses.
Iv = tuple
Box = tuple


@dataclass(frozen=True)
class OverlapGroup:
    """A maximal set of rules sharing a common region, with a witness."""

    rule_ids: frozenset[str]
    witness: HyperRect

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.rule_ids))


@dataclass(frozen=True)
class MissingRegion:
    """An uncovered box of legal inputs, with one condition text per
    input column describing a candidate rule that would close it."""

    box: HyperRect
    conditions: tuple[str, ...]


def _iv_tuple(iv: Interval1D) -> Iv:
    return (iv.lo, iv.lo_closed, iv.hi, iv.hi_closed)


def _iv_contains(iv: Iv, x) -> bool:
    lo, lo_closed, hi, hi_closed = iv
    if x < lo or (x == lo and not lo_closed):
        return False
    if x > hi or (x == hi and not hi_closed):
        return False
    return True


def _iv_intersect(a: Iv, b: Iv, discrete: bool) -> Optional[Iv]:
    lo, lo_closed = a[0], a[1]
    if (b[0], not b[1]) > (lo, not lo_closed):
        lo, lo_closed = b[0], b[1]
    hi, hi_closed = a[2], a[3]
    if (b[2], b[3]) < (hi, hi_closed):
        hi, hi_closed = b[2], b[3]
    got = interval(lo, lo_closed, hi, hi_closed, discrete)
    return None if got is None else _iv_tuple(got)


def _iv_covers(outer: Iv, inner: Iv) -> bool:
    if (inner[0], not inner[1]) < (outer[0], not outer[1]):
        return False
    return (inner[2], inner[3]) <= (outer[2], outer[3])


class TableGeometry(NamedTuple):
    """The geometric view of one table, built once by ``table_rects``."""

    boxes: tuple[Box, ...]
    # Owning rule id of each box, parallel to ``boxes``.
    box_rule: tuple[str, ...]
    # Every rule id, in table order, to its boxes; empty for a rule
    # with an empty cell.
    boxes_of: dict[str, tuple[Box, ...]]
    # Every rule id to its canonical entry ∩ facet set per input column;
    # the rule's boxes are their product.
    columns_of: dict[str, tuple[tuple[Iv, ...], ...]]
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
    lowered: dict[tuple, tuple[Iv, ...]] = {}
    boxes: list[Box] = []
    box_rule: list[str] = []
    boxes_of: dict[str, tuple[Box, ...]] = {}
    columns_of: dict[str, tuple[tuple[Iv, ...], ...]] = {}
    empty_cells: set[tuple[str, int]] = set()
    for rule in table.rules:
        per_column = []
        for d, (attr, cond) in enumerate(zip(table.inputs,
                                             rule.input_entries)):
            members = lowered.get((d, cond))
            if members is None:
                cell = lower_condition(cond, attr, codec)
                members = tuple(_iv_tuple(iv) for iv in
                                cell.intersect(universe[d]).members)
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


def columns_contained(inner: Sequence[tuple[Iv, ...]],
                      outer: Sequence[tuple[Iv, ...]]) -> bool:
    """True when the product of the column sets ``inner`` lies inside
    the product of ``outer``; both hold one canonical set per column.

    An empty product lies inside anything.  A non-empty one lies inside
    exactly when each of its column sets does, and since canonical sets
    are sorted, disjoint and non-contiguous, a set lies inside another
    when each of its members lies inside a single member of the other.
    """
    if not all(inner):
        return True
    return all(any(_iv_covers(big, small) for big in bigs)
               for smalls, bigs in zip(inner, outer) for small in smalls)


# ---------------------------------------------------------------------------
# Overlap sweep


def _insert_antichain(chain: list, mask: int, box: Box) -> None:
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

    # Hash-cons box suffixes tagged with the owning rule's bit, so
    # sub-sweeps over equal suffix sets are computed once.
    heads: list[list[Iv]] = [[] for _ in range(n_dims)]
    tails: list[list[int]] = [[] for _ in range(n_dims)]
    bits: list[list[int]] = [[] for _ in range(n_dims)]
    intern: list[dict] = [{} for _ in range(n_dims)]
    top_ids: set[int] = set()
    for rect, rid in zip(rects, rect_rule):
        bit = rule_bit_by_id[rid]
        tid = 0
        for d in range(n_dims - 1, -1, -1):
            key = (rect[d], bit, tid)
            got = intern[d].get(key)
            if got is None:
                got = len(heads[d])
                heads[d].append(rect[d])
                tails[d].append(tid)
                bits[d].append(bit)
                intern[d][key] = got
            tid = got
        top_ids.add(tid)

    memo: dict[tuple, tuple] = {}

    def sweep(suffix_ids: frozenset[int], dim: int) -> tuple:
        # Antichain of (rule mask, witness cell over dims dim..) pairs.
        key = (suffix_ids, dim)
        cached = memo.get(key)
        if cached is not None:
            return cached
        head, tail, bit_of = heads[dim], tails[dim], bits[dim]
        disc = discrete[dim]
        events = []
        for sid in suffix_ids:
            lo, lo_closed, hi, hi_closed = head[sid]
            events.append(
                (lo, LOWER_CLOSED if lo_closed else LOWER_OPEN, sid))
            events.append(
                (hi, UPPER_CLOSED if hi_closed else UPPER_OPEN, sid))
        events.sort()

        chain: list[tuple[int, Box]] = []
        active: set[int] = set()
        counts: dict[int, int] = {}
        rule_mask = 0
        last: Optional[tuple] = None
        for event in events:
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

    found = sweep(frozenset(top_ids), 0)

    groups = []
    for mask, cell in found:
        ids = [rid for rid in rule_order if mask & rule_bit_by_id[rid]]
        witness: Optional[Box] = None
        for rid in ids:
            for rect in geometry.boxes_of[rid]:
                if all(_iv_covers(rect[d], cell[d])
                       for d in range(n_dims)):
                    if witness is None:
                        witness = rect
                    else:
                        pieces = []
                        for d in range(n_dims):
                            piece = _iv_intersect(witness[d], rect[d],
                                                  discrete[d])
                            assert piece is not None, \
                                "witness cell inside both boxes"
                            pieces.append(piece)
                        witness = tuple(pieces)
                    break
        assert witness is not None
        rect = HyperRect(tuple(Interval1D(*iv) for iv in witness))
        groups.append(OverlapGroup(frozenset(ids), rect))
    groups.sort(key=lambda g: g.sorted_ids())
    return groups


# ---------------------------------------------------------------------------
# Missing-rule sweep


def _span(last: Optional[tuple], current: Optional[tuple],
          discrete: bool) -> Optional[Iv]:
    # The uncovered stretch strictly between two consecutive events;
    # None stands for the virtual bound at either infinity.
    if last is None:
        lo, lo_closed = NEG_INF, False
    else:
        lo, lo_closed = last[0], last[1] <= LOWER_CLOSED
    if current is None:
        hi, hi_closed = POS_INF, False
    else:
        hi, hi_closed = current[0], current[1] >= UPPER_CLOSED
    got = interval(lo, lo_closed, hi, hi_closed, discrete)
    return None if got is None else _iv_tuple(got)


def _contiguous_tuples(a: Iv, b: Iv, discrete: bool) -> bool:
    # a sorted before b; True when the union is a single interval and
    # the two do not share a point.
    if discrete:
        return a[2] + 1 == b[0]
    return a[2] == b[0] and (a[3] != b[1])


def _merge_boxes(boxes: list[Box], discrete: Sequence[bool]) -> list[Box]:
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
            groups: dict[tuple, list[Iv]] = {}
            for box in boxes:
                groups.setdefault((box[:d], box[d + 1:]), []).append(box[d])
            rebuilt: list[Box] = []
            for (prefix, suffix), ivs in groups.items():
                ivs.sort()
                merged = [ivs[0]]
                for iv in ivs[1:]:
                    tail = merged[-1]
                    if _contiguous_tuples(tail, iv, discrete[d]):
                        merged[-1] = (tail[0], tail[1], iv[2], iv[3])
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
    rects, discrete = geometry.boxes, geometry.discrete
    universe, codec = geometry.universe, geometry.codec
    n_dims = len(table.inputs)

    # Hash-cons box suffixes: two boxes identical from column d onward
    # share one suffix id, which deduplicates sweeps and makes
    # memoisation effective.
    heads: list[list[Iv]] = [[] for _ in range(n_dims)]
    tails: list[list[int]] = [[] for _ in range(n_dims)]
    intern: list[dict] = [{} for _ in range(n_dims)]
    top_ids: set[int] = set()
    for rect in rects:
        tid = 0  # the empty suffix beyond the last column
        for d in range(n_dims - 1, -1, -1):
            key = (rect[d], tid)
            got = intern[d].get(key)
            if got is None:
                got = len(heads[d])
                heads[d].append(rect[d])
                tails[d].append(tid)
                intern[d][key] = got
            tid = got
        top_ids.add(tid)

    # Per-column products of universe member intervals: the tail of a
    # gap box when no rule is active at some column.
    universe_tails: list[list[Box]] = [[] for _ in range(n_dims + 1)]
    universe_tails[n_dims] = [()]
    for d in range(n_dims - 1, -1, -1):
        members = [_iv_tuple(iv) for iv in universe[d].members]
        universe_tails[d] = [(m,) + tail for m in members
                             for tail in universe_tails[d + 1]]

    memo: dict[tuple, tuple[Box, ...]] = {}

    def gaps(suffix_ids: frozenset[int], dim: int) -> tuple[Box, ...]:
        if dim == n_dims:
            return ()
        key = (suffix_ids, dim)
        cached = memo.get(key)
        if cached is not None:
            return cached
        head, tail = heads[dim], tails[dim]
        disc = discrete[dim]
        uni = universe[dim]
        events = []
        for sid in suffix_ids:
            lo, lo_closed, hi, hi_closed = head[sid]
            events.append(
                (lo, LOWER_CLOSED if lo_closed else LOWER_OPEN, sid))
            events.append(
                (hi, UPPER_CLOSED if hi_closed else UPPER_OPEN, sid))
        events.sort()

        out: list[Box] = []
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
                piece = IntervalSet.build([Interval1D(*stretch)], disc)
                for frag in uni.intersect(piece).members:
                    frag_t = _iv_tuple(frag)
                    for ubox in universe_tails[dim + 1]:
                        out.append((frag_t,) + ubox)

        for event in events:
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

    boxes = list(gaps(frozenset(top_ids), 0))
    boxes.sort()
    regions = []
    for box in boxes:
        rect = HyperRect(tuple(Interval1D(*iv) for iv in box))
        conditions = tuple(
            _render_region_condition(iv, attr, codec, universe[d],
                                     discrete[d])
            for d, (iv, attr) in enumerate(zip(box, table.inputs)))
        regions.append(MissingRegion(rect, conditions))
    return regions


def render_box(table: "DecisionTable", box: HyperRect) -> tuple[str, ...]:
    """Condition-style texts describing a box, one per input column."""
    geometry = table.geometry
    return tuple(
        _render_region_condition(_iv_tuple(iv), attr, geometry.codec,
                                 geometry.universe[d], geometry.discrete[d])
        for d, (iv, attr) in enumerate(zip(box.intervals, table.inputs)))


def _render_region_condition(iv: Iv, attr, codec: CategoryCodec,
                             universe_set: IntervalSet,
                             discrete: bool) -> str:
    as_set = IntervalSet.build([Interval1D(*iv)], discrete)
    if as_set == universe_set:
        return "-"
    if attr.kind.is_categorical:
        cats = codec.decode(attr.name, Interval1D(*iv))
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

    pieces: tuple[tuple[Iv, ...], ...]
    reps: tuple[tuple, ...]
    in_universe: tuple[tuple[bool, ...], ...]

    def cell_count(self) -> int:
        total = 1
        for dim_pieces in self.pieces:
            total *= len(dim_pieces)
        return total

    def cell_box(self, cell: tuple[int, ...]) -> HyperRect:
        return HyperRect(tuple(Interval1D(*self.pieces[d][p])
                               for d, p in enumerate(cell)))


def _dimension_pieces(values: list, discrete: bool) -> tuple[list[Iv], list]:
    pieces: list[Iv] = []
    reps: list = []
    if not values:
        pieces.append((NEG_INF, False, POS_INF, False))
        reps.append(0)
        return pieces, reps
    values = sorted(set(values))
    if discrete:
        pieces.append((NEG_INF, False, values[0] - 1, True))
        reps.append(values[0] - 1)
        for i, v in enumerate(values):
            pieces.append((v, True, v, True))
            reps.append(v)
            if i + 1 < len(values) and values[i + 1] > v + 1:
                pieces.append((v + 1, True, values[i + 1] - 1, True))
                reps.append(v + 1)
        pieces.append((values[-1] + 1, True, POS_INF, False))
        reps.append(values[-1] + 1)
    else:
        pieces.append((NEG_INF, False, values[0], False))
        reps.append(values[0] - 1)
        for i, v in enumerate(values):
            pieces.append((v, True, v, True))
            reps.append(v)
            if i + 1 < len(values):
                pieces.append((v, False, values[i + 1], False))
                reps.append((v + values[i + 1]) / 2)
        pieces.append((values[-1], False, POS_INF, False))
        reps.append(values[-1] + 1)
    return pieces, reps


def build_grid(table: "DecisionTable", cell_cap: int = 10 ** 6) -> CellGrid:
    """Compressed endpoint grid for the table; CapacityError when the
    cell product exceeds ``cell_cap``."""
    geometry = table.geometry
    rects, discrete, universe = (geometry.boxes, geometry.discrete,
                                 geometry.universe)
    n_dims = len(table.inputs)
    pieces: list[tuple[Iv, ...]] = []
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
                if _iv_contains(rect[d], rep):
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
    groups = [OverlapGroup(ids, grid.cell_box(cell)) for ids, cell in keep]
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
