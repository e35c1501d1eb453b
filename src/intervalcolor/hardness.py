"""Hardness constructions: positive not-all-equal 3-SAT to balanced
rectangle coloring, Partition to weighted intervals, and not-all-equal
3-SAT to same-color interval groups.

The rectangle reduction lays a formula out on an integer grid.  Clause
gadgets sit in a bottom row: three rectangles that all overlap in one
shared region and nowhere else, so a balanced 2-coloring exists there
exactly when they are not monochromatic.  Variable rectangles sit in a
top row.  Every literal is wired to its variable by a chain of
rectangles in which consecutive links overlap pairwise and only
pairwise; a chain with an odd number of links forces its two endpoints
to share a color.  Chains run on dedicated horizontal tracks and
vertical columns, and wherever two chains cross, a three-rectangle
crossing gadget lets them pass without constraining each other.  For
k > 2, nested cover rectangles enclose the construction and share a
witness point outside it, which pins k - 2 colors and keeps the core
argument two-colored.  A box instance's cells are bitmasks over box ids,
which box_imbalance and core's exact search count by popcount.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .core import (
    Coord,
    CoordInput,
    Coloring,
    ImbalanceReport,
    Instance,
    InvariantViolation,
    _check_coloring,
    _covers,
    _mask,
    _point,
    _search_colorings,
    make_instance,
    normalize,
)

__all__ = [
    "NaeFormula",
    "Box",
    "BoxInstance",
    "WeightedInstance",
    "make_box_instance",
    "nae_brute_force",
    "reduce_nae_to_boxes",
    "box_imbalance",
    "decide_balanced_boxes",
    "reduce_partition_to_weighted",
    "weighted_imbalance",
    "reduce_nae_to_multiple_intervals",
    "decide_grouped_intervals",
]

BOX_TAGS = ("clause", "variable", "chain", "crossing", "cover")


@dataclass(frozen=True)
class NaeFormula:
    """Positive not-all-equal 3-SAT: each clause lists three variable ids.

    Variables occur unnegated.  A clause is satisfied when its three
    variables do not all carry the same truth value.  Repeats inside a
    clause are allowed: naming one variable three times makes the clause
    unsatisfiable, naming it twice reduces the clause to an inequality.
    """

    num_vars: int
    clauses: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError(f"num_vars must be >= 0, got {self.num_vars}")
        normalized = []
        for pos, clause in enumerate(self.clauses):
            triple = tuple(clause)
            if len(triple) != 3:
                raise ValueError(f"clause {pos} has {len(triple)} literals, not 3")
            for v in triple:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise TypeError(f"clause {pos}: variable ids must be int")
                if not 1 <= v <= self.num_vars:
                    raise ValueError(
                        f"clause {pos}: variable {v} outside 1..{self.num_vars}"
                    )
            normalized.append(triple)
        object.__setattr__(self, "clauses", tuple(normalized))


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box: one [lo, hi] interval per dimension.

    BoxInstance.boxes builds these from an instance's keys, which the
    instance has validated; nothing takes a Box as input.
    """

    id: int
    bounds: Tuple[Tuple[Coord, Coord], ...]
    tag: str


@dataclass(frozen=True)
class BoxInstance:
    """Boxes in d dimensions plus the number of colors k.

    Box i is interval i of every Instance in dims, one per dimension, all
    with the same n and k, and carries tags[i].  The Box objects, and the
    coverage masks and cells that box_imbalance and decide_balanced_boxes
    share, are built on first request.  provenance maps a box id to the
    formula element it realizes when the instance came out of
    reduce_nae_to_boxes; hand-built instances leave it empty.
    """

    dims: Tuple[Instance, ...]
    tags: Tuple[str, ...]
    provenance: Mapping[int, Tuple] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.dims:
            raise ValueError("a box instance needs at least one dimension")
        for j, dim in enumerate(self.dims):
            if (dim.n, dim.k) != (self.n, self.k):
                raise ValueError(f"dim {j} has n={dim.n}, k={dim.k}, not n={self.n}, k={self.k}")
        if len(self.tags) != self.n:
            raise ValueError(f"{len(self.tags)} tags for {self.n} boxes")
        for pos, tag in enumerate(self.tags):
            if tag not in BOX_TAGS:
                raise ValueError(f"box {pos}: unknown tag {tag!r}")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return self.dims[0].n

    @property
    def k(self) -> int:
        return self.dims[0].k

    @cached_property
    def boxes(self) -> Tuple[Box, ...]:
        columns = [dim.intervals for dim in self.dims]
        return tuple(
            Box(i, tuple((itv.lo, itv.hi) for itv in row), tag)
            for i, (tag, *row) in enumerate(zip(self.tags, *columns))
        )

    @cached_property
    def sample_masks(self) -> Tuple[List[int], ...]:
        """Per dimension, the coverage mask of each of its sample points."""
        return tuple([_mask(ids) for ids in _covers(dim)] for dim in self.dims)

    @cached_property
    def cells(self) -> Set[int]:
        """The distinct sets of boxes, as masks, covering a point of d-space:
        the sample masks folded together one dimension at a time."""
        cells = {-1}  # every box, as a mask
        for masks in self.sample_masks:
            distinct = set(masks)
            cells = {a & m for a in cells for m in distinct}
        return cells


def make_box_instance(
    bounds: Iterable[Sequence[Sequence[CoordInput]]], k: int, tags: Optional[Sequence[str]] = None
) -> BoxInstance:
    """Build a BoxInstance from per-box ((lo, hi), ...) bounds, ids in order.

    d is the first box's dimension count, 2 when there is no box.
    """
    bounds = list(bounds)
    dims = _read_dims(bounds, len(bounds[0]) if bounds else 2, k)
    return BoxInstance(dims, ["clause"] * len(bounds) if tags is None else tags)


# A box file with no boxes does not bound its "d" by its size.
MAX_BOX_DIMS = 100_000


def _read_dims(bounds: Sequence[Sequence[Sequence[CoordInput]]], d: int, k: int) -> List[Instance]:
    """One Instance per dimension of the boxes' bounds, read by make_instance.

    d above MAX_BOX_DIMS is refused before anything of size d is built.
    """
    if d > MAX_BOX_DIMS:
        raise ValueError(f"box instance needs d <= {MAX_BOX_DIMS}, got {d}")
    if not bounds:  # then d is not bounded by the input, so share one instance
        return [make_instance((), k)] * d
    for pos, box in enumerate(bounds):
        if len(box) != d:
            raise ValueError(f"box {pos} has {len(box)} dimensions, instance has {d}")
    return [make_instance([box[j] for box in bounds], k) for j in range(d)]


@dataclass(frozen=True)
class WeightedInstance:
    """An interval instance with a positive integer weight per interval."""

    instance: Instance
    weights: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) != self.n:
            raise ValueError(f"{len(self.weights)} weights for {self.n} intervals")
        for pos, w in enumerate(self.weights):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ValueError(f"weight at position {pos} must be a positive int")

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def k(self) -> int:
        return self.instance.k


def nae_brute_force(
    formula: NaeFormula,
) -> Tuple[bool, Optional[Tuple[bool, ...]]]:
    """Exhaustively decide not-all-equal satisfiability.

    Returns (True, assignment) for the first satisfying assignment in
    counting order (variable 1 is the lowest bit, False before True),
    or (False, None) if none exists.
    """
    if formula.num_vars > 24:
        raise ValueError(
            f"brute force limited to 24 variables, got {formula.num_vars}"
        )
    for bits in range(1 << formula.num_vars):
        for a, b, c in formula.clauses:
            va = bits >> (a - 1) & 1
            if va == bits >> (b - 1) & 1 == bits >> (c - 1) & 1:
                break
        else:
            assignment = tuple(
                bool(bits >> v & 1) for v in range(formula.num_vars)
            )
            return True, assignment
    return False, None


# Grid layout constants for reduce_nae_to_boxes.  Vertical chain runs
# occupy one-unit-wide columns at x = 7j; horizontal runs occupy
# one-unit-tall tracks spaced 6 apart so a crossing gadget (which pokes
# 2 below and 3 above its track) never touches the neighboring track.
_COL_PITCH = 7
_TRACK0 = 8
_TRACK_PITCH = 6

# Literal slot s of a clause attaches to one of the three clause
# rectangles: the wide left one, the wide right one, or the tall one
# covering their overlap.  Columns within the clause and the y level
# where the chain dips into the rectangle differ per slot.
_SLOT_RECT = ("left", "right", "tall")
_SLOT_COL = (0, 2, 1)
_SLOT_DIP = (1, 1, 4)

# Largest k, variable count and clause count reduce_nae_to_boxes
# accepts: every color past two adds a cover box, every variable a box,
# and the crossings 33 to 45 boxes per squared clause.  The largest
# accepted formula gives about 163k boxes and 18 MB of JSON, in about
# 2 s through the command line.
MAX_REDUCTION_K = 10_000
MAX_REDUCTION_VARS = 1000
MAX_REDUCTION_CLAUSES = 60


def reduce_nae_to_boxes(formula: NaeFormula, k: int, d: int = 2) -> BoxInstance:
    """Build a box instance with a balanced k-coloring iff the formula is
    not-all-equal satisfiable.

    Clause i occupies x in [21i, 21i+15] at the bottom: left rectangle
    [21i, 21i+10] x [0, 2], right [21i+5, 21i+15] x [0, 2], tall
    [21i+5, 21i+10] x [0, 5]; all three pairwise intersections equal the
    shared region [21i+5, 21i+10] x [0, 2].  Variable rectangles sit in
    a top row, one column slot per occurrence.  The chain for literal
    slot s of clause i runs: down a column from the variable row, along
    a private horizontal track, and down a second column into the clause
    rectangle.  Crossings between a vertical run and another chain's
    track get the crossing gadget: two overlapping one-tall rectangles
    in the horizontal chain and one pass-through rectangle in the
    vertical chain, arranged so any two of the three share a region that
    the third also covers, hence no color constraint between the chains.
    A chain whose horizontal run has an odd number of crossings would
    have even length, so it gets one extra parity rectangle at the
    variable end.  For k > 2, k - 2 nested cover rectangles contain
    every other box and share the point (xmax + 1, 1) beyond the
    construction.  d > 2 pads every box with zero-length dimensions.

    The rectangles are audited before they become boxes: every pair must
    intersect exactly when the construction plan says it should,
    otherwise InvariantViolation is raised.  k, the variable count and
    the clause count are limited to MAX_REDUCTION_K, MAX_REDUCTION_VARS
    and MAX_REDUCTION_CLAUSES.
    """
    if not 2 <= k <= MAX_REDUCTION_K:
        raise ValueError(f"reduction needs 2 <= k <= {MAX_REDUCTION_K}, got {k}")
    if formula.num_vars > MAX_REDUCTION_VARS:
        raise ValueError(
            f"reduction takes at most MAX_REDUCTION_VARS = {MAX_REDUCTION_VARS}"
            f" variables, got {formula.num_vars}"
        )
    if len(formula.clauses) > MAX_REDUCTION_CLAUSES:
        raise ValueError(
            f"reduction takes at most MAX_REDUCTION_CLAUSES = {MAX_REDUCTION_CLAUSES}"
            f" clauses, got {len(formula.clauses)}"
        )
    if d < 2:
        raise ValueError(f"reduction needs d >= 2, got {d}")
    m = len(formula.clauses)
    n_conn = 3 * m
    n_covers = k - 2

    # Connection c = 3i + s wires literal slot s of clause i to its
    # variable.  Each connection owns one horizontal track, one column
    # at the clause (bottom) and one column at the variable (top).
    deg = Counter(v for clause in formula.clauses for v in clause)
    var_slot: Dict[int, int] = {}
    var_width: Dict[int, int] = {}
    slot = n_conn
    for v in range(1, formula.num_vars + 1):
        var_slot[v] = slot
        var_width[v] = max(deg.get(v, 0), 1)
        slot += var_width[v]

    var_of = [0] * n_conn
    b_col = [0] * n_conn
    q_col = [0] * n_conn
    track = [0] * n_conn
    dip = [0] * n_conn
    used: Counter = Counter()
    for c in range(n_conn):
        i, s = divmod(c, 3)
        v = formula.clauses[i][s]
        var_of[c] = v
        b_col[c] = 3 * i + _SLOT_COL[s]
        dip[c] = _SLOT_DIP[s]
        track[c] = _TRACK0 + _TRACK_PITCH * c
        q_col[c] = var_slot[v] + used[v]
        used[v] += 1
    vy = _TRACK0 + _TRACK_PITCH * n_conn  # variable row baseline

    # A vertical run and a horizontal track cross exactly when the
    # column lies strictly inside the track's span and the run's y range
    # covers the track.  With tracks ordered by connection and all
    # variable columns right of all clause columns, that reduces to two
    # index comparisons.
    h_cols: List[List[int]] = [[] for _ in range(n_conn)]
    top_tracks: List[List[int]] = [[] for _ in range(n_conn)]
    bot_tracks: List[List[int]] = [[] for _ in range(n_conn)]
    vert_of_col: Dict[int, int] = {}
    for c in range(n_conn):
        vert_of_col[q_col[c]] = c
        vert_of_col[b_col[c]] = c
    for a in range(n_conn):
        for b in range(n_conn):
            if a < b and q_col[a] < q_col[b]:
                top_tracks[a].append(track[b])
                h_cols[b].append(q_col[a])
            if a > b and b_col[a] > b_col[b]:
                bot_tracks[a].append(track[b])
                h_cols[b].append(b_col[a])
    for lst in itertools.chain(h_cols, top_tracks, bot_tracks):
        lst.sort()

    # Construction boxes get ids after the covers so the decider's
    # id-order search colors covers first.
    entries: List[Tuple[Tuple[int, int, int, int], str, Tuple]] = []
    expected: Set[Tuple[int, int]] = set()

    def add(x0: int, x1: int, y0: int, y1: int, tag: str, prov: Tuple) -> int:
        bid = n_covers + len(entries)
        entries.append(((x0, x1, y0, y1), tag, prov))
        return bid

    def expect(a: int, b: int) -> None:
        expected.add((a, b) if a < b else (b, a))

    var_rect: Dict[int, int] = {}
    for v in range(1, formula.num_vars + 1):
        x0 = _COL_PITCH * var_slot[v]
        x1 = _COL_PITCH * (var_slot[v] + var_width[v] - 1) + 1
        var_rect[v] = add(x0, x1, vy, vy + 2, "variable", ("variable", v))

    # registry[(vertical conn, horizontal conn)] collects the three
    # gadget boxes of one crossing.
    registry: Dict[Tuple[int, int], Dict[str, int]] = {}
    pending_junction: List[Tuple[int, int]] = []  # (last link id, connection)

    for c in range(n_conn):
        links: List[int] = []

        def chain_add(
            x0: int, x1: int, y0: int, y1: int, tag: str, detail: Optional[str] = None
        ) -> int:
            if detail is None:
                prov: Tuple = ("chain", c, len(links))
            else:
                prov = ("chain", c, len(links), detail)
            bid = add(x0, x1, y0, y1, tag, prov)
            links.append(bid)
            return bid

        def vertical_run(x0: int, x1: int, bottom: int, top: int, tracks: List[int]) -> None:
            # down from top to bottom, with a pass-through box at each crossed track
            for u in reversed(tracks):
                chain_add(x0, x1, u + 2, top, "chain")
                wid = chain_add(x0, x1, u - 2, u + 3, "crossing", "cross-pass")
                registry.setdefault((c, (u - _TRACK0) // _TRACK_PITCH), {})["pass"] = wid
                top = u - 1
            chain_add(x0, x1, bottom, top, "chain")

        t = track[c]
        xq0, xq1 = _COL_PITCH * q_col[c], _COL_PITCH * q_col[c] + 1
        xb0, xb1 = _COL_PITCH * b_col[c], _COL_PITCH * b_col[c] + 1

        # Chain length is 2*(top crossings) + 3*(track crossings)
        # + 2*(bottom crossings) + 3, odd iff the track crossing count
        # is even; otherwise one parity rectangle restores oddness.
        if len(h_cols[c]) % 2 == 1:
            chain_add(xq0, xq1, vy - 2, vy + 1, "chain", "parity")
            top_end = vy - 1
        else:
            top_end = vy + 1

        # Top vertical run, from the variable row down to the track.
        vertical_run(xq0, xq1, t, top_end, top_tracks[c])

        # Horizontal run along the track, traversed variable side first:
        # a plain link up to each crossed column, then its two gadget boxes.
        right = xq1
        for j in reversed(h_cols[c]):
            x = _COL_PITCH * j
            chain_add(x + 2, right, t, t + 1, "chain")
            g = registry.setdefault((vert_of_col[j], c), {})
            g["right"] = chain_add(x - 1, x + 3, t, t + 1, "crossing", "cross-right")
            g["left"] = chain_add(x - 3, x + 1, t, t + 1, "crossing", "cross-left")
            right = x - 2
        chain_add(xb0, right, t, t + 1, "chain")

        # Bottom vertical run, from the track down into the clause rect.
        vertical_run(xb0, xb1, dip[c], t + 1, bot_tracks[c])

        if len(links) % 2 != 1:
            raise InvariantViolation(f"chain {c} has even length {len(links)}")
        for aid, bid in zip(links, links[1:]):
            expect(aid, bid)
        expect(var_rect[var_of[c]], links[0])
        pending_junction.append((links[-1], c))

    clause_rect: Dict[Tuple[int, str], int] = {}
    for i in range(m):
        ox = 21 * i
        left = add(ox, ox + 10, 0, 2, "clause", ("clause", i, "left"))
        right = add(ox + 5, ox + 15, 0, 2, "clause", ("clause", i, "right"))
        tall = add(ox + 5, ox + 10, 0, 5, "clause", ("clause", i, "tall"))
        clause_rect[(i, "left")] = left
        clause_rect[(i, "right")] = right
        clause_rect[(i, "tall")] = tall
        expect(left, right)
        expect(left, tall)
        expect(right, tall)
    for last_link, c in pending_junction:
        i, s = divmod(c, 3)
        expect(last_link, clause_rect[(i, _SLOT_RECT[s])])

    for key, g in registry.items():
        if set(g) != {"pass", "left", "right"}:
            raise InvariantViolation(f"crossing {key} is missing gadget boxes")
        expect(g["pass"], g["left"])
        expect(g["pass"], g["right"])

    if entries:
        xmax = max(e[0][1] for e in entries)
        ymax = max(e[0][3] for e in entries)
    else:
        xmax = ymax = 0
    cover_entries = [
        ((-j, xmax + 1 + j, -j, ymax + j), "cover", ("cover", j))
        for j in range(1, n_covers + 1)
    ]
    all_entries = cover_entries + entries
    provenance = {bid: prov for bid, (_, _, prov) in enumerate(all_entries)}
    rects = [rect for rect, _, _ in all_entries]
    _audit_reduction(rects, n_covers, expected, provenance)

    dims = [Instance([x for r in rects for x in r[:2]], 1, k)]
    dims += [Instance([y for r in rects for y in r[2:]], 1, k)]
    dims += [Instance((0, 0) * len(rects), 1, k)] * (d - 2)
    return BoxInstance(dims, [tag for _, tag, _ in all_entries], provenance)


def _audit_reduction(
    rects: Sequence[Tuple[int, int, int, int]],
    n_covers: int,
    expected: Set[Tuple[int, int]],
    provenance: Mapping[int, Tuple],
) -> None:
    """Check that the rectangles, in box id order with the n_covers covers
    first, intersect exactly as planned; expected holds the planned pairs
    (a, b), a < b, of the rest.  Every cover meets every other box when
    each cover contains the one before it and the first contains the hull
    of the rest, so nested covers cost O(k) and only the rest are swept.
    A mismatch names the smallest pair whose intersection is not as planned.
    """
    nested = True
    if n_covers:
        x0s, x1s, y0s, y1s = zip(*(rects[n_covers:] or rects[:1]))
        chain = [(min(x0s), max(x1s), min(y0s), max(y1s))] + list(rects[:n_covers])
        nested = all(
            o[0] <= i[0] and i[1] <= o[1] and o[2] <= i[2] and i[3] <= o[3]
            for i, o in zip(chain, chain[1:])
        )
    if not nested:  # then the covers are swept too, pair by pair
        expected = expected | {(a, b) for a in range(n_covers) for b in range(a + 1, len(rects))}
    actual = _meeting_pairs(rects, n_covers if nested else 0)
    if actual != expected:
        a, b = min(actual ^ expected)
        raise InvariantViolation(
            f"{'unplanned' if (a, b) in actual else 'missing'} intersection between "
            f"box {a} {provenance.get(a)} and box {b} {provenance.get(b)}"
        )


def _meeting_pairs(
    rects: Sequence[Tuple[int, int, int, int]], first: int
) -> Set[Tuple[int, int]]:
    """Pairs (a, b), a < b, of ids from first on whose closed rectangles
    (x0, x1, y0, y1) share a point.  One sweep over x tests each rectangle
    as it starts for y-overlap with those active; starts sort before ends
    at equal x, so rectangles touching along an edge still meet."""
    ids = range(first, len(rects))
    events = sorted([(rects[i][0], 0, i) for i in ids] + [(rects[i][1], 1, i) for i in ids])
    active: Dict[int, Tuple[int, int]] = {}
    pairs: Set[Tuple[int, int]] = set()
    for _, is_end, b in events:
        if is_end:
            del active[b]
            continue
        y0, y1 = rects[b][2], rects[b][3]
        for a, (ay0, ay1) in active.items():
            if ay0 <= y1 and y0 <= ay1:
                pairs.add((a, b) if a < b else (b, a))
        active[b] = (y0, y1)
    return pairs


def box_imbalance(instance: BoxInstance, coloring: Coloring) -> ImbalanceReport:
    """Worst color-count spread over every point of d-space.

    Samples the arrangement grid: the Cartesian product, over
    dimensions, of each dimension's sample points, the flagged ranks of
    its normalize ranking (see core._point), whose cover sets
    sample_masks holds in rank order.  Every distinct covering set
    attains one of those samples, so the maximum, taken over the
    distinct covering sets, is exact.  witness is the first grid point
    (lexicographic in dimension order) attaining it, as a coordinate
    tuple, or None for an empty instance; the grid is scanned only as far
    as that point.
    """
    _check_coloring(instance, coloring, "boxes")
    if not instance.n:
        return ImbalanceReport(0, None)
    by_color = dict.fromkeys(coloring.colors, 0)
    for i, c in enumerate(coloring.colors):
        by_color[c] |= 1 << i
    masks = [*by_color.values(), 0][: instance.k]  # 0 for the absent colors, if any
    spread = {}
    for cell in instance.cells:
        top, bottom = 0, instance.n
        for mask in masks:
            count = (cell & mask).bit_count()
            if count > top:
                top = count
            if count < bottom:
                bottom = count
        spread[cell] = top - bottom
    best = max(spread.values())
    for point in itertools.product(*map(enumerate, instance.sample_masks)):
        msk = -1
        for _, m in point:
            msk &= m
        if spread[msk] == best:
            witness = []
            for dim, (s, _) in zip(instance.dims, point):  # sample s is the s-th flagged rank
                ranks = itertools.compress(range(2 * dim.n), normalize(dim).flags)
                witness.append(_point(dim, next(itertools.islice(ranks, s, None))))
            return ImbalanceReport(best, tuple(witness))
    raise InvariantViolation("no grid point attains the largest cell spread")


# The box decider's exhaustive search refuses more boxes than this.
MAX_DECIDER_BOXES = 600


def decide_balanced_boxes(instance: BoxInstance) -> Optional[Coloring]:
    """Search for a balanced k-coloring of the boxes, or return None.

    Exhaustive backtracking in box id order, colors ascending, so the
    first balanced coloring in that order is returned.  The cells of the
    search are the distinct sets of boxes covering a point of the
    arrangement grid, and a partial assignment is abandoned as soon as a
    cell whose boxes are all colored shows a spread above one.  That prune
    makes the search practical on reduction outputs, where chains
    propagate forced colors link by link; arbitrary instances this size
    may still take exponential time.
    """
    n = instance.n
    if n > MAX_DECIDER_BOXES:
        raise ValueError(f"decider limited to n <= {MAX_DECIDER_BOXES} boxes, got {n}")
    if not n:  # nothing to color; the cells would still fold all d dimensions
        return Coloring((), instance.k)
    found = _search_colorings(n, instance.k, instance.cells, minimize=False)
    return None if found is None else Coloring(found[1], instance.k)


def reduce_partition_to_weighted(values: Sequence[int]) -> WeightedInstance:
    """Partition to weighted interval coloring: n identical intervals
    [0, 1] carrying the given weights, k = 2.  The weighted imbalance of
    a 2-coloring is the absolute difference of the two side sums, so
    zero is achievable iff the values split evenly."""
    n = len(values)
    return WeightedInstance(Instance((0, 1) * n, 1, 2), values)


def weighted_imbalance(weighted: WeightedInstance, coloring: Coloring) -> int:
    """Worst weighted color-count spread over every point of the line.

    The spread of the summed weights per color, colors absent there
    included, at each sample point of the coverage walk _covers.  Only the
    colors present are summed, so nothing is allocated in proportion to k.
    """
    _check_coloring(weighted, coloring, "intervals")
    cols = coloring.colors
    w = weighted.weights
    best = 0
    for ids in _covers(weighted.instance):
        sums: Dict[int, int] = {}
        for i in ids:
            sums[cols[i]] = sums.get(cols[i], 0) + w[i]
        if len(sums) < weighted.k:
            sums[0] = 0  # no color is 0: this stands for the absent ones
        best = max(best, max(sums.values()) - min(sums.values()))
    return best


def reduce_nae_to_multiple_intervals(
    formula: NaeFormula,
) -> Tuple[Instance, Tuple[Tuple[int, ...], ...]]:
    """Not-all-equal 3-SAT to interval coloring with same-color groups.

    Clause i becomes three unit intervals at [3i, 3i+1], disjoint from
    every other clause; interval 3i+s stands for literal slot s.  Group
    g collects the intervals of variable g+1, which a grouped coloring
    must paint alike.  With k = 2, a balanced grouped coloring exists
    iff the formula is satisfiable: inside one clause the spread is 1
    when the three intervals are not monochromatic and 3 when they are.
    """
    bounds = []
    for i in range(len(formula.clauses)):
        for _ in range(3):
            bounds.append((3 * i, 3 * i + 1))
    instance = make_instance(bounds, 2)
    groups = tuple(
        tuple(
            3 * i + s
            for i, clause in enumerate(formula.clauses)
            for s in range(3)
            if clause[s] == v
        )
        for v in range(1, formula.num_vars + 1)
    )
    return instance, groups


# The grouped-interval decider's brute force refuses more groups than this.
MAX_GROUPS = 20


def decide_grouped_intervals(
    instance: Instance, groups: Sequence[Sequence[int]]
) -> Optional[Coloring]:
    """Search for a balanced coloring constant on each group, or None.

    Groups must partition the interval ids.  Exhaustive search over the
    group color assignments in counting order, so the first balanced
    assignment in that order is returned.  The cells of the search are the
    coverage sets of _covers with each interval replaced by its group, so a
    group counts once per member.
    """
    flat = sorted(i for group in groups for i in group)
    if flat != list(range(instance.n)):
        raise ValueError("groups must partition the interval ids exactly")
    if len(groups) > MAX_GROUPS:
        raise ValueError(f"brute force limited to {MAX_GROUPS} groups, got {len(groups)}")
    n = len(groups)
    group_of = [0] * instance.n
    for g, group in enumerate(groups):
        for i in group:
            group_of[i] = g
    # a group there m times sets its bit in each of the first m blocks of n
    counted = (Counter(map(group_of.__getitem__, ids)).items() for ids in _covers(instance))
    cells = (sum(((1 << n * m) - 1) // ((1 << n) - 1) << g for g, m in c) for c in counted)
    found = _search_colorings(n, instance.k, cells, minimize=False)
    if found is None:
        return None
    return Coloring(tuple(found[1][g] for g in group_of), instance.k)
