"""Balanced k-coloring: halving passes, then edge coloring of the odd part.

Write k = 2^t * m with m odd.  k_color runs t halving passes of the
shared event order (two_color.halve), each splitting every current class
into two balanced halves, so 2^t classes come out.  Nested rounding makes
that exact: for integers d and a, b >= 1, floor(floor(d/a)/b) =
floor(d/ab) and ceil(ceil(d/a)/b) = ceil(d/ab), so a balanced a-coloring
whose classes are each balanced b-colored is a balanced ab-coloring, and
when ab divides a depth every count there is exact at every level.

Only when m > 1 is a class m-colored by the constraint sweep: the event
scan cuts the class's ranked events into windows holding m events of one
type; each window is a constraint whose m items must get pairwise
distinct colors.  Padding with virtual items keeps every constraint at
exactly m items and every item in exactly one start-side and one end-side
constraint, so the constraints are the vertices of an m-regular bipartite
multigraph whose edges are the items.  The sweep writes that graph
directly as edge arrays; a proper m-edge-coloring of it (which exists on
bipartite multigraphs) assigns each interval its color within its class.

When k is at least the largest depth, no split is needed: first-free
greedy in rank order gives the intervals at any point distinct colors,
which is balanced, costs O(n log n) and nothing in proportion to k.  This
also covers stopping the halving early once 2^level reaches the depth:
halving runs only when k, and so every 2^level, is below the depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from intervalcolor.core import (
    Coloring,
    Instance,
    InvariantViolation,
    NormalizedInstance,
    _sweep,
    make_instance,
    normalize,
)
from intervalcolor.two_color import halve

__all__ = [
    "EdgeGraph",
    "constraint_graph",
    "edge_color",
    "k_color",
    "k_color_dewerra",
    "hypergraph_to_instance",
]


@dataclass(frozen=True)
class EdgeGraph:
    """Bipartite multigraph as edge arrays.

    Edge e joins start-side vertex starts[e] to end-side vertex ends[e] and
    carries items[e]: an interval id, or -1 for a virtual item.  Vertices
    are numbered 0, 1, ... on each side.
    """

    starts: Tuple[int, ...]
    ends: Tuple[int, ...]
    items: Tuple[int, ...]


def constraint_graph(order: Sequence[int], k: int) -> EdgeGraph:
    """Scan the ranked events once and emit the constraint multigraph.

    order ranks the event slots of intervals 0..len(order)/2 - 1 as
    NormalizedInstance.order does: 2i the start of interval i, 2i + 1 its
    end.

    A window collects events of one type (chosen by the first event after a
    clear) into an active list.  k collected events close it as one
    constraint.  An event of the opposite type closes the window early with
    two constraints instead: the active items padded to k with fresh x
    virtuals on the window's own side, and the interrupting interval plus
    the same x's padded with fresh y virtuals on the opposite side.  The
    y's become the new active list, carrying the still-open overlap
    forward.

    Each constraint is numbered on its side in the order it closes.  An
    item's edge is written when its second constraint closes, in the order
    of the items within that constraint: active items, then the
    interrupting interval, then the x's.  Virtual items are never named:
    an x joins the two constraints of one interruption, and a y is carried
    in the active list as ~v, v being its opposite-side vertex.
    """
    if k < 2:
        raise ValueError(f"constraint construction needs k >= 2, got {k}")
    n = len(order) // 2
    starts: List[int] = []
    ends: List[int] = []
    items: List[int] = []
    start_vertex = [-1] * n  # -2 once the interval's edge is written
    closed = [0, 0]  # constraints closed so far on the end, start side

    def close(members: Sequence[int], on_start: bool) -> int:
        v = closed[on_start]
        closed[on_start] = v + 1
        for m in members:
            if m < 0:  # a y, first seen at opposite-side vertex ~m
                starts.append(v if on_start else ~m)
                ends.append(~m if on_start else v)
                items.append(-1)
            elif on_start:
                if start_vertex[m] != -1:
                    raise InvariantViolation(
                        f"interval {m} occurs on a second start-side vertex"
                    )
                start_vertex[m] = v
            else:
                u = start_vertex[m]
                if u < 0:
                    raise InvariantViolation(
                        f"interval {m} occurs on an end-side vertex"
                        " without a matching start-side vertex"
                    )
                start_vertex[m] = -2
                starts.append(u)
                ends.append(v)
                items.append(m)
        return v

    active: List[int] = []
    collecting = 0  # 0 at root, +1 collecting starts, -1 collecting ends
    depth = 0
    for ev in order:
        is_start = not ev & 1
        depth += 1 if is_start else -1
        if collecting == 0:
            collecting = 1 if is_start else -1
        on_start = collecting == 1
        if is_start == on_start:
            active.append(ev >> 1)
            if len(active) < k:
                continue
            close(active, on_start)
            active.clear()
        else:
            j = len(active)
            own = close(active, on_start)  # plus k - j x's seen first here
            other = close((ev >> 1,), not on_start)
            starts.extend([own if on_start else other] * (k - j))
            ends.extend([other if on_start else own] * (k - j))
            items.extend([-1] * (k - j))
            active[:] = [~other] * (j - 1)
            if j > 1:
                continue
        collecting = 0
        if depth % k:
            raise InvariantViolation(
                f"window cleared at depth {depth}, not a multiple of {k}"
            )
    if collecting != 0 or active:
        raise InvariantViolation("event scan ended inside an open window")
    return EdgeGraph(tuple(starts), tuple(ends), tuple(items))


def edge_color(graph: EdgeGraph, k: int) -> Tuple[int, ...]:
    """Proper edge coloring of a bipartite multigraph with colors 1..k.

    For each edge (u, v) in order: let a be the smallest color free at u
    and b the smallest free at v.  If they agree, use them.  Otherwise
    swapping a and b along a maximal alternating path, either from v
    (making a free at both ends) or from u (making b free at both ends),
    legalizes the edge: the walk from v cannot reach u because a is free
    at u and start-side vertices are only entered through a-colored
    edges, and mirrored for the walk from u.  Both walks advance in
    lockstep and the first to terminate is swapped, so each edge costs
    twice the shorter path rather than the length of a fixed one.
    """
    starts = graph.starts
    ends = graph.ends
    nl = max(starts, default=-1) + 1
    nr = max(ends, default=-1) + 1
    full = (1 << k) - 1
    free_l = [full] * nl
    free_r = [full] * nr
    slot_l = [-1] * (nl * k)  # (vertex, color) -> edge index
    slot_r = [-1] * (nr * k)
    colors = [0] * len(starts)

    for idx, (u, v) in enumerate(zip(starts, ends)):
        fu = free_l[u]
        fv = free_r[v]
        if not fu or not fv:
            raise InvariantViolation(f"vertex degree exceeds {k}")
        a = (fu & -fu).bit_length() - 1
        b = (fv & -fv).bit_length() - 1
        if a == b:
            c = a
        else:
            # Two maximal alternating paths could free a shared color:
            # from v seeking a, or from u seeking b.  They lie in
            # different components of the a/b-subgraph (a is free at u
            # and start-side vertices are only entered through a-edges,
            # so the walk from v cannot reach u; mirrored for the other
            # walk), so walking both in lockstep and swapping whichever
            # ends first costs twice the shorter path, not the full one.
            ab = a + b
            path_v: List[int] = []
            vert_v = v
            right_v = True
            want_v = a
            path_u: List[int] = []
            vert_u = u
            right_u = False
            want_u = b
            while True:
                e2 = (
                    slot_r[vert_v * k + want_v]
                    if right_v
                    else slot_l[vert_v * k + want_v]
                )
                if e2 < 0:
                    path, vertex, on_right, want, c = path_v, vert_v, right_v, want_v, a
                    break
                path_v.append(e2)
                vert_v = starts[e2] if right_v else ends[e2]
                right_v = not right_v
                want_v = ab - want_v
                e2 = (
                    slot_r[vert_u * k + want_u]
                    if right_u
                    else slot_l[vert_u * k + want_u]
                )
                if e2 < 0:
                    path, vertex, on_right, want, c = path_u, vert_u, right_u, want_u, b
                    break
                path_u.append(e2)
                vert_u = starts[e2] if right_u else ends[e2]
                right_u = not right_u
                want_u = ab - want_u
            if path:
                # Swap a and b along the path in one pass.  Interior
                # vertices keep both colors occupied, just by swapped
                # edges, and every such slot is rewritten here; only the
                # two path ends change their free sets.
                swap = ab + 2  # colors are stored 1-based
                for e2 in path:
                    c2 = swap - colors[e2]
                    colors[e2] = c2
                    ci = c2 - 1
                    slot_l[starts[e2] * k + ci] = e2
                    slot_r[ends[e2] * k + ci] = e2
                if c == a:
                    slot_r[v * k + a] = -1  # first edge moved off a
                    free_r[v] &= ~(1 << b)  # and now occupies b
                else:
                    slot_l[u * k + b] = -1  # first edge moved off b
                    free_l[u] &= ~(1 << a)  # and now occupies a
                last_freed = ab - want  # old color of the final path edge
                if on_right:
                    slot_r[vertex * k + last_freed] = -1
                    free_r[vertex] = (free_r[vertex] | (1 << last_freed)) & ~(1 << want)
                else:
                    slot_l[vertex * k + last_freed] = -1
                    free_l[vertex] = (free_l[vertex] | (1 << last_freed)) & ~(1 << want)
            if slot_l[u * k + c] >= 0 or slot_r[v * k + c] >= 0:
                raise InvariantViolation("alternating path failed to free a color")
        colors[idx] = c + 1
        slot_l[u * k + c] = idx
        slot_r[v * k + c] = idx
        free_l[u] &= ~(1 << c)
        free_r[v] &= ~(1 << c)

    return tuple(colors)


def k_color(instance: Instance) -> Coloring:
    """Balanced k-coloring of a closed-interval instance.

    k = 1 trivially colors everything alike, and k at least the largest
    depth takes first-free greedy colors.  Otherwise, with k = 2^t * m and
    m odd, t halving passes split the intervals into 2^t classes, and when
    m > 1 all classes are m-colored by one constraint graph over their
    events, class after class; class c takes colors c*m + 1 .. c*m + m.
    """
    k = instance.k
    n = instance.n
    if k == 1:
        return Coloring((1,) * n, 1)
    norm = normalize(instance)
    if not _deeper_than(norm.order, k):
        return Coloring(tuple(_greedy_colors(norm.order, n)), k)
    classes = [0] * n
    count = 1
    m = k
    while m % 2 == 0:
        classes = halve(norm.order, classes, count)
        count *= 2
        m //= 2
    if m == 1:
        return Coloring(tuple([c + 1 for c in classes]), k)
    # each class's events in turn: one order, as if the classes lay side
    # by side on the line, so one graph holds every class's constraints
    by_class: List[List[int]] = [[] for _ in range(count)]
    for e in norm.order:
        by_class[classes[e >> 1]].append(e)
    graph = constraint_graph([e for events in by_class for e in events], m)
    colors = [0] * n
    for item, color in zip(graph.items, edge_color(graph, m)):
        if item >= 0:
            colors[item] = classes[item] * m + color
    return Coloring(tuple(colors), k)


def _deeper_than(order: Sequence[int], k: int) -> bool:
    """True iff more than k intervals share a point.

    Starts rank before ends at equal coordinates, so the deepest point's
    intervals are all live after some start; the scan stops at the first
    start that makes more than k live.
    """
    depth = 0
    for e in order:
        if e & 1:
            depth -= 1
        else:
            depth += 1
            if depth > k:
                return True
    return False


def _greedy_colors(order: Sequence[int], n: int) -> List[int]:
    """First-free coloring in rank order, using as many colors as the depth.

    A start takes the smallest color its earlier holders have released, or
    a new one; an end releases its interval's color.
    """
    import heapq  # only this path needs it; the CLI's start-up stays lean

    colors = [0] * n
    free: List[int] = []  # heap of released colors
    used = 0
    for e in order:
        if e & 1:
            heapq.heappush(free, colors[e >> 1])
        elif free:
            colors[e >> 1] = heapq.heappop(free)
        else:
            used += 1
            colors[e >> 1] = used
    return colors


def k_color_dewerra(instance: Instance) -> Coloring:
    """Balanced k-coloring by repeated pairwise rebalancing.

    Starts from the round-robin-by-id coloring.  Each pass finds the color
    pair (i, j) whose pointwise count difference is largest (ties to the
    lexicographically smallest pair), stops if that difference is at most
    one, and otherwise 2-colors the intervals of those two colors from
    scratch: halve splits them, as class 0 of the shared order, and the
    half holding their lowest id keeps color i.

    A pass balances colors i and j at every sample point (see core._point)
    with their sum there fixed, so the potential, the squared color counts
    at the sample points summed, falls, and the passes end; a pass that
    does not lower it raises InvariantViolation.  Pairs already balanced
    can re-break, so the classical k(k-1)/2 passes do not always suffice.
    """
    k = instance.k
    if k < 2:
        raise ValueError(f"pairwise rebalancing needs k >= 2, got {k}")
    norm = normalize(instance)
    colors = [(i % k) + 1 for i in range(instance.n)]
    potential = _potential(norm, colors)
    while True:
        value, r = _sweep(instance, colors)
        if value <= 1:  # always so when k >= n, where each interval has its own color
            return Coloring(tuple(colors), k)
        i, j = _worst_pair(instance, colors, r)
        # halve walks ids ascending, so half 0 holds the pair's lowest id;
        # the other intervals, class 1, land in halves 2 and 3 untouched
        halves = halve(norm.order, [0 if c == i or c == j else 1 for c in colors], 2)
        colors = [c if h > 1 else j if h else i for c, h in zip(colors, halves)]
        before, potential = potential, _potential(norm, colors)
        if potential >= before:
            raise InvariantViolation(
                f"a rebalancing pass left the potential at {potential}, not below {before}"
            )


def _potential(norm: NormalizedInstance, colors: List[int]) -> int:
    """The squared color counts at each flagged rank of norm, summed; after
    the last rank nothing is left, so it adds 0 there."""
    counts = [0] * (max(colors, default=0) + 1)
    squares = total = 0
    for e, measured in zip(norm.order, norm.flags):
        c = colors[e >> 1]
        step = -1 if e & 1 else 1
        squares += 2 * step * counts[c] + 1  # (v + step)^2 - v^2
        counts[c] += step
        if measured:
            total += squares
    return total


def _worst_pair(instance: Instance, colors: List[int], r: Optional[int]) -> Tuple[int, int]:
    """The pair of colors showing the largest pointwise count difference
    at rank r, the first rank attaining it, as _sweep returns it.

    The pair holds the first color with the largest count and the first
    with the smallest there, in ascending order, counting the events
    ranked up to r in k slots: a difference above 1 needs k < n.
    """
    counts = [0] * instance.k
    if r is not None:
        for e in normalize(instance).order[: r + 1]:
            counts[colors[e >> 1] - 1] += -1 if e & 1 else 1
    hi, lo = max(counts), min(counts)
    return tuple(sorted((counts.index(hi) + 1, counts.index(lo) + 1)))


def hypergraph_to_instance(matrix: Sequence[Sequence[int]], k: int) -> Instance:
    """Intervals [first 1, last 1] per row of a consecutive-ones matrix.

    Column j of the matrix becomes point j on the line (1-based), so a
    balanced coloring of the intervals is balanced on every column.
    All-zero rows become isolated points beyond the last column and may
    take any color.  Rows whose 1-entries are not consecutive under the
    given column order are rejected.
    """
    width = len(matrix[0]) if len(matrix) else 0
    bounds = []
    zero_rows = 0
    for r, row in enumerate(matrix):
        if len(row) != width:
            raise ValueError(f"row {r} has {len(row)} entries, expected {width}")
        ones = row.count(1)
        if ones + row.count(0) != width:
            raise ValueError(f"row {r} contains entries other than 0 and 1")
        if not ones:
            spot = width + 1 + zero_rows
            zero_rows += 1
            bounds.append((spot, spot))
            continue
        first, last = row.index(1), width - 1 - row[::-1].index(1)
        if last - first + 1 != ones:
            raise ValueError(
                f"row {r}: ones are not consecutive in the given column order"
            )
        bounds.append((first + 1, last + 1))
    return make_instance(bounds, k)
