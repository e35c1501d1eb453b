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
the coverage walk core._covers on the pieces measure the circle exactly.

An ArcInstance is an interval Instance of the arcs, [start, start +
length] each, plus the circumference as a key at the same scale: ints
read once from the input, or Fractions with scale 1 when the scale would
pass core._KEY_BITS.  unfold and the pieces compute on those keys and
hand them to the Instance constructor.  The full-arc margin of unfold,
half the smallest gap between distinct endpoint keys capped at a quarter
of C minus the hull width, is an int once every key is multiplied by 4.
A Fraction is built only where a value leaves the module, as a witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

from intervalcolor.core import (
    MAX_ORACLE_N,
    CoordInput,
    Coloring,
    ImbalanceReport,
    Instance,
    _check_coloring,
    _covers,
    _keys,
    _mask,
    _read_pairs,
    _Record,
    _search_colorings,
    _split,
    imbalance,
)
from intervalcolor.k_color import k_color

__all__ = [
    "ArcInstance",
    "make_arc_instance",
    "unfold",
    "arc_imbalance",
    "arc_color",
    "min_arc_imbalance_oracle",
]


class ArcInstance(_Record):
    """Closed arcs on a circle plus the number of colors k.

    line holds arc i as interval i, [start, start + length], and turn is
    the circumference as a key at line.scale, as Instance keeps its
    endpoints; n, k and scale are the line's.  Every length must be
    positive, and a length of at least the circumference covers the full
    circle; every start must lie in [0, circumference).
    make_arc_instance reads an instance from coordinates.  Instances
    compare by identity.
    """

    _fields = ("line", "turn")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, line: Instance, turn: Union[int, Fraction]) -> None:
        keys, C, s = line.keys, turn, line.scale
        pairs = iter(keys)
        for a, b in zip(pairs, pairs):
            if a >= b:
                raise ValueError(f"arc length must be positive, got {Fraction(b - a, s)}")
        if C <= 0:
            raise ValueError(f"circumference must be positive, got {Fraction(C, s)}")
        for i, a in enumerate(keys[0::2]):
            if not 0 <= a < C:
                raise ValueError(
                    f"arc {i} start {Fraction(a, s)} outside [0, {Fraction(C, s)})"
                )
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "turn", turn)

    @property
    def n(self) -> int:
        return self.line.n

    @property
    def k(self) -> int:
        return self.line.k

    @property
    def scale(self) -> int:
        return self.line.scale


def make_arc_instance(
    pairs: Iterable[Sequence[CoordInput]],
    circumference: CoordInput,
    k: int,
) -> ArcInstance:
    """ArcInstance from (start, length) pairs of ints, strings, or Fractions.

    Every coordinate, the circumference last, is read once into an
    integer numerator and denominator, as make_instance reads endpoints;
    no Fraction or Arc is built on the way.
    """
    nums, dens = _read_pairs(pairs)
    c, d = _split(circumference)
    nums.append(c)
    dens.append(d)
    keys, scale = _keys(nums, dens)
    turn = keys.pop()
    # each length becomes its arc's end in place; a length is checked
    # before the line is built, which would report it as an interval
    for e in range(1, len(keys), 2):
        if keys[e] <= 0:
            raise ValueError(f"arc length must be positive, got {Fraction(keys[e], scale)}")
        keys[e] += keys[e - 1]
    return ArcInstance(Instance(keys, scale, k), turn)


def unfold(instance: ArcInstance) -> Instance:
    """Line-interval instance equivalent to the arcs; interval i is arc i.

    Proper arcs keep their length: [s, s+L] when they stay inside one turn,
    [s-C, s+L-C] when they cross zero (the positive part equals the part of
    the arc counterclockwise from zero).  An arc ending exactly at zero is
    treated as not crossing it.

    Full-circle arcs all become one shared interval.  While the hull of the
    proper intervals is narrower than the circumference C, that interval
    extends the hull by a margin of half the smallest gap between distinct
    endpoint keys (one unit when there are no proper arcs), capped at a
    quarter of C minus the hull width so its width stays below C.  When the
    hull is at least C wide, it becomes [hull_lo - margin, hull_lo - margin
    + C] instead: exactly one turn, anchored just left of the hull.  Either
    way the interval never covers two images of a circle point that carries
    a proper arc, which is what keeps the pulled-back spread at two; a
    naive hull-covering interval would count full arcs twice at some points
    and allow spread three.

    Everything is computed on the instance's keys.  With full arcs and int
    keys, every key is multiplied by 4 (and the scale with it), so the
    margin, a half gap or a quarter of the room left, is an int too; with
    Fraction keys the scale stays 1 and the margin is divided out exactly.
    """
    C = instance.turn
    keys: List = []
    pairs = iter(instance.line.keys)
    for s, e in zip(pairs, pairs):
        if e - s >= C:
            keys += (None, None)
            continue
        if e > C:
            s -= C
            e -= C
        keys += (s, e)

    scale = instance.scale
    if None in keys:
        xs = sorted({x for x in keys if x is not None}) or [0]
        hull_lo, hull_hi = xs[0], xs[-1]
        gap = min((b - a for a, b in zip(xs, xs[1:])), default=None)
        room = C - (hull_hi - hull_lo)
        if isinstance(C, int):  # keys times 4: a half gap and a quarter room stay ints
            up, margin = 4, 4 * scale if gap is None else 2 * gap
        else:
            up, margin, room = 1, 1 if gap is None else gap / 2, room / 4
        if room > 0:
            margin = min(margin, room)
            span = (up * hull_lo - margin, up * hull_hi + margin)
        else:
            span = (up * hull_lo - margin, up * (hull_lo + C) - margin)
        keys = [span[e & 1] if x is None else up * x for e, x in enumerate(keys)]
        scale *= up

    return Instance(keys, scale, instance.k)


def _pieces(instance: ArcInstance) -> Tuple[Instance, List[int]]:
    """The arcs cut at angle 0 into closed intervals of [0, C].

    Returns the pieces as an instance on the arcs' keys and, for each
    piece, its arc's id.
    """
    C = instance.turn
    keys: List = []
    owners: List[int] = []
    pairs = iter(instance.line.keys)
    for i, (s, end) in enumerate(zip(pairs, pairs)):
        if end - s >= C:
            keys += (0, C)
        elif end >= C:
            keys += (s, C, 0, end - C)
            owners.append(i)
        else:
            keys += (s, end)
        owners.append(i)
    return Instance(keys, instance.scale, instance.k), owners


def arc_imbalance(instance: ArcInstance, coloring: Coloring) -> ImbalanceReport:
    """Largest color-count spread over all circle points.

    Measured by imbalance on the arcs' pieces in [0, C], each piece in its
    arc's color; the witness is a point of [0, C).
    """
    _check_coloring(instance, coloring, "arcs")
    if not instance.n:
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


def min_arc_imbalance_oracle(instance: ArcInstance) -> Tuple[int, Coloring]:
    """Exhaustive minimum spread over all arc colorings, desk scale only.

    Returns the minimum and its lexicographically smallest witness coloring.
    The cells of the search are the coverage sets of core's walk _covers on
    the arcs' pieces, mapped back to arc ids; the work can grow exponentially
    in n, so instances beyond core.MAX_ORACLE_N arcs are rejected.
    """
    n, k = instance.n, instance.k
    if n > MAX_ORACLE_N:
        raise ValueError(f"exhaustive search limited to {MAX_ORACLE_N} arcs, got {n}")
    pieces, owners = _pieces(instance)
    cells = (_mask(map(owners.__getitem__, ids)) for ids in _covers(pieces))
    value, colors = _search_colorings(n, k, cells, minimize=True)
    return value, Coloring(colors, k)
