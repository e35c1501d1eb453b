"""Coloring arcs of a circle with spread at most two.

Arcs are unfolded at the zero angle into closed intervals on the line:
arcs avoiding zero keep their position right of zero, arcs crossing zero
shift left so their counterclockwise part past zero lands on the positive
axis, and arcs covering the whole circle become one interval spanning
everything built so far.  A balanced coloring of the unfolded intervals
pulls back to the arcs with spread at most two, because a circle point has
at most two images on the line.

Three arcs that pairwise intersect without a common point already force a
spread of two for k = 2, so two is tight.

Spreads on the circle are measured on the line as well, by cutting each arc
into at most two closed pieces of [0, C]: a full arc becomes [0, C], an arc
reaching C or past it becomes [s, C] and [0, s + L - C], and any other arc
stays [s, s + L].  Line point p in [0, C) is the circle point p: the pieces
holding it are those of the arcs containing p, one each, since the two
pieces of an arc shorter than a turn are disjoint.  Line point C holds the
arcs reaching C, which are those containing the points just below angle 0.
So every coverage set of the circle appears at some line point, each arc
counted once, and no line point shows any other; imbalance and
point_cliques on the pieces measure the circle exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from intervalcolor.core import (
    Coord,
    CoordInput,
    Coloring,
    ImbalanceReport,
    Instance,
    _search_colorings,
    imbalance,
    make_instance,
    normalize,
    point_cliques,
    to_coord,
)
from intervalcolor.k_color import k_color

__all__ = [
    "Arc",
    "ArcInstance",
    "make_arc_instance",
    "unfold",
    "arc_imbalance",
    "arc_color",
    "min_arc_imbalance_oracle",
]


@dataclass(frozen=True)
class Arc:
    """Closed arc starting at `start` and extending `length` counterclockwise.

    A length of at least the circumference means the arc covers the full
    circle.  Validation against the circumference happens in ArcInstance,
    which owns that shared value.
    """

    id: int
    start: Coord
    length: Coord

    def __post_init__(self) -> None:
        for name in ("start", "length"):
            value = getattr(self, name)
            if not isinstance(value, Coord):
                raise TypeError(f"{name} must be a Coord, got {type(value).__name__}")
        if self.length <= 0:
            raise ValueError(f"arc length must be positive, got {self.length}")


@dataclass(frozen=True)
class ArcInstance:
    arcs: Tuple[Arc, ...]
    circumference: Coord
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(self.arcs))
        if not isinstance(self.circumference, Coord):
            raise TypeError("circumference must be a Coord")
        if self.circumference <= 0:
            raise ValueError(f"circumference must be positive, got {self.circumference}")
        if self.k < 1:
            raise ValueError(f"need at least one color, got k={self.k}")
        for pos, arc in enumerate(self.arcs):
            if arc.id != pos:
                raise ValueError(f"arc ids must be 0..n-1 in order; got {arc.id} at {pos}")
            if not (0 <= arc.start < self.circumference):
                raise ValueError(
                    f"arc {arc.id} start {arc.start} outside [0, {self.circumference})"
                )

    @property
    def n(self) -> int:
        return len(self.arcs)


def make_arc_instance(
    pairs: Sequence[Sequence[CoordInput]],
    circumference: CoordInput,
    k: int,
) -> ArcInstance:
    """ArcInstance from (start, length) pairs of ints, strings, or Fractions."""
    arcs = tuple(
        Arc(i, to_coord(start), to_coord(length))
        for i, (start, length) in enumerate(pairs)
    )
    return ArcInstance(arcs, to_coord(circumference), k)


def unfold(instance: ArcInstance) -> Instance:
    """Line-interval instance equivalent to the arcs; interval i is arc i.

    Proper arcs keep their length: [s, s+L] when they stay inside one turn,
    [s-C, s+L-C] when they cross zero (the positive part equals the part of
    the arc counterclockwise from zero).  An arc ending exactly at zero is
    treated as not crossing it.

    Full-circle arcs all become one shared interval.  While the hull of the
    proper intervals is narrower than the circumference C, that interval
    extends the hull by a margin of half the smallest gap between distinct
    endpoints (1 when there are no proper arcs), capped at (C - hull)/4 so
    its width stays below C.  When the hull is at least C wide, it becomes
    [hull_lo - margin, hull_lo - margin + C] instead: exactly one turn,
    anchored just left of the hull.  Either way the interval never covers
    two images of a circle point that carries a proper arc, which is what
    keeps the pulled-back spread at two; a naive hull-covering interval
    would count full arcs twice at some points and allow spread three.
    """
    C = instance.circumference
    bounds: List[Optional[Tuple[Coord, Coord]]] = []
    for arc in instance.arcs:
        if arc.length >= C:
            bounds.append(None)
        elif arc.start + arc.length > C:
            bounds.append((arc.start - C, arc.start + arc.length - C))
        else:
            bounds.append((arc.start, arc.start + arc.length))

    if None in bounds:
        proper = make_instance([b for b in bounds if b is not None], instance.k)
        norm = normalize(proper)
        coords, scale = norm.coords or (0,), norm.scale
        hull_lo = Coord(coords[0], scale)
        hull_hi = Coord(coords[-1], scale)
        gaps = [b - a for a, b in zip(coords, coords[1:])]
        margin = Coord(min(gaps), 2 * scale) if gaps else Coord(1)
        hull_width = hull_hi - hull_lo
        if hull_width < C:
            margin = min(margin, (C - hull_width) / 4)
            span = (hull_lo - margin, hull_hi + margin)
        else:
            span = (hull_lo - margin, hull_lo - margin + C)
        bounds = [span if b is None else b for b in bounds]

    return make_instance(bounds, instance.k)


def _pieces(instance: ArcInstance) -> Tuple[Instance, List[int]]:
    """The arcs cut at angle 0 into closed intervals of [0, C].

    Returns the pieces as an instance and, for each piece, its arc's id.
    """
    C = instance.circumference
    zero = Coord(0)
    bounds: List[Tuple[Coord, Coord]] = []
    owners: List[int] = []
    for arc in instance.arcs:
        end = arc.start + arc.length
        if arc.length >= C:
            cut = ((zero, C),)
        elif end >= C:
            cut = ((arc.start, C), (zero, end - C))
        else:
            cut = ((arc.start, end),)
        bounds += cut
        owners += [arc.id] * len(cut)
    return make_instance(bounds, instance.k), owners


def arc_imbalance(instance: ArcInstance, coloring: Coloring) -> ImbalanceReport:
    """Largest color-count spread over all circle points.

    Measured by imbalance on the arcs' pieces in [0, C], each piece in its
    arc's color; the witness is a point of [0, C).
    """
    if len(coloring.colors) != instance.n:
        raise ValueError(
            f"coloring has {len(coloring.colors)} entries for {instance.n} arcs"
        )
    if coloring.k != instance.k:
        raise ValueError(f"coloring uses k={coloring.k}, instance has k={instance.k}")
    if not instance.arcs:
        return ImbalanceReport(0, None)
    pieces, owners = _pieces(instance)
    colors = coloring.colors
    return imbalance(pieces, Coloring([colors[a] for a in owners], instance.k))


def arc_color(instance: ArcInstance) -> Coloring:
    """Coloring of the arcs with spread at most two.

    Unfolds to the line and colors the intervals balanced there; interval
    i is arc i, so its color is the arc's.
    """
    return k_color(unfold(instance))


def min_arc_imbalance_oracle(
    instance: ArcInstance, limit_n: int = 12
) -> Tuple[int, Coloring]:
    """Exhaustive minimum spread over all arc colorings, desk scale only.

    Returns the minimum and its lexicographically smallest witness coloring.
    The cells of the search are the coverage sets of point_cliques on the
    arcs' pieces, mapped back to arc ids; the work can grow exponentially
    in n, so instances beyond limit_n arcs are rejected.
    """
    n, k = instance.n, instance.k
    if n > limit_n:
        raise ValueError(f"exhaustive search limited to {limit_n} arcs, got {n}")
    pieces, owners = _pieces(instance)
    cells = ([owners[i] for i in clique] for _, clique in point_cliques(pieces))
    value, colors = _search_colorings(n, k, cells, minimize=True)
    return value, Coloring(colors, k)
