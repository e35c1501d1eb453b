"""Exact interval instances, event normalization, and imbalance measurement.

Coordinates are arbitrary-precision rationals so that coinciding endpoints
are detected exactly; floats are rejected at the boundary.  Rationals only
order endpoints: an instance keeps each endpoint as a key, its coordinate
times the instance's positive int scale, in one tuple in slot order: 2i the
start of interval i, 2i + 1 its end.  make_instance takes the lcm of the
denominators, so keys are ints, or the Fractions with scale 1 when the lcm
would pass _KEY_BITS bits; the online adversary's power-of-two scale,
bounded by MAX_PRESENTATIONS, passes 64 bits with int keys.  normalize()
ranks the event slots, on the line, the circle, boxes (an Instance per
dimension) and weighted intervals: it sorts them once by key and marks in
flags the ranks that close a block of equal-coordinate starts or ends;
every sweep (imbalance, the colorers, the coverage walk) walks that integer
order, whatever the keys, reading slot e as interval e >> 1 and as an end
when e & 1.  Every measure samples the line at the same points, the flagged
ranks but the last (see _point): a rank that closes a block of starts
stands for their coordinate, one that closes a block of ends for the
midpoint to the next coordinate.  imbalance's sweep returns the rank it
first peaks at, and _covers, the one coverage walk, yields the ids covering
each sample, from which every exact search (the oracles, the deciders, the
box masks, weighted_imbalance) reads its cells, the searches as bitmasks.
A few places order keys on their own: the online trace ranks right ends and
the reduction audit of hardness sweeps its rectangles, so that neither
check leans on the ranking it checks; arcs.unfold sorts the distinct keys
for its margin, and GreedyLeastLoaded bisects its own answers.  A
coordinate becomes a Fraction again only where it leaves the library: in a
witness, and in an Interval or Box built on first request.  All types are
immutable values and safe to share between threads; the kept ranking and
intervals are pure functions of the instance, so a race merely computes
them twice.  imbalance, the check behind every result, costs O(1) per event
whatever k is and allocates nothing in proportion to k.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import lcm
from operator import gt, xor
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Coord",
    "CoordInput",
    "InvariantViolation",
    "to_coord",
    "Interval",
    "Instance",
    "make_instance",
    "NormalizedInstance",
    "normalize",
    "Coloring",
    "ImbalanceReport",
    "imbalance",
    "divisibility_predicts_zero",
    "min_imbalance_oracle",
]

Coord = Fraction
CoordInput = Union[Fraction, int, str]

# a scale wider than this ranks Fraction keys instead of int keys, so a
# hostile spread of denominators cannot grow the keys without bound
_KEY_BITS = 64

# the exhaustive oracles refuse instances of more intervals or arcs
MAX_ORACLE_N = 12

class InvariantViolation(RuntimeError):
    """A structural guarantee of a construction failed.

    Raised when an internal consistency check trips.  It signals a bug in
    this library (or a hand-assembled intermediate), never bad user input.
    """


def to_coord(value: CoordInput) -> Coord:
    """Convert an int, a decimal or fraction string, or a Fraction to a Coord.

    Floats are rejected: binary rounding would silently merge or split
    coincident endpoints, and the tie-breaking rules depend on exact
    collision detection.  A decimal exponent is refused when it and the
    digits before it pass Python's int-string digit limit
    (sys.get_int_max_str_digits()), the limit a long digit string already
    meets, so "1e1000000" cannot build a million-digit integer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool passes the int check below
        raise TypeError("coordinate must be int, str, or Fraction, not bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        head, e, exponent = value.lower().rpartition("e")
        if e and limit:
            try:
                digits = abs(int(exponent)) + sum(c.isdigit() for c in head)
            except ValueError:  # not an exponent; Fraction decides
                digits = 0
            if digits > limit:
                raise ValueError(
                    f"not a valid coordinate: {value!r} passes the {limit}-digit limit"
                )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a valid coordinate: {value!r}") from exc
    raise TypeError(
        f"coordinate must be int, str, or Fraction, not {type(value).__name__}"
    )


def _split(value: CoordInput) -> Tuple[int, int]:
    """(numerator, denominator > 0) of a coordinate, as to_coord reads it.

    Plain ints, Fractions and the ASCII strings "a" and "a/b" (a an
    optional minus sign and digits, b digits) are split directly;
    everything else, failures included, goes through to_coord.
    """
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is str and value.isascii():
        head, slash, tail = value.partition("/")
        if (head[1:] if head[:1] == "-" else head).isdigit() and (tail.isdigit() or not slash):
            try:  # int() refuses very long digit strings, as Fraction does
                d = int(tail) if slash else 1
                if d:
                    return int(head), d
            except ValueError:
                pass
    elif kind is Fraction:
        return value.numerator, value.denominator
    x = to_coord(value)
    return x.numerator, x.denominator


def _read_pairs(pairs: Iterable[Sequence[CoordInput]]) -> Tuple[List[int], List[int]]:
    """Numerators and denominators of the coordinates of (a, b) pairs.

    Two flat lists: entry 2i is pair i's first coordinate and 2i + 1 its
    second.  A plain int is read in place; any other coordinate is read
    once, by _split.  No Fraction and no per-coordinate tuple is kept.
    """
    nums: List[int] = []
    dens: List[int] = []
    num, den = nums.append, dens.append
    for a, b in pairs:
        if type(a) is int:
            num(a)
            den(1)
        else:
            x, d = _split(a)
            num(x)
            den(d)
        if type(b) is int:
            num(b)
            den(1)
        else:
            x, d = _split(b)
            num(x)
            den(d)
    return nums, dens


def _keys(nums: List[int], dens: List[int]) -> Tuple[list, int]:
    """Keys of the coordinates nums[i] / dens[i], and their scale.

    The scale is the lcm of the denominators and key i is
    nums[i] * (scale // dens[i]).  When the scale would pass _KEY_BITS
    bits, the keys are the coordinates as Fractions and the scale is 1.
    Either way key / scale is the coordinate.
    """
    distinct = set(dens)
    scale = 1
    for d in distinct:
        scale = lcm(scale, d)
        if scale.bit_length() > _KEY_BITS:
            return list(map(Fraction, nums, dens)), 1
    if scale == 1:
        return nums, 1
    factor = {d: scale // d for d in distinct}
    return [a * factor[d] for a, d in zip(nums, dens)], scale


def _check_positive_int(name: str, value) -> None:
    """Refuse a value that is not an int (a bool included) or is below 1."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi], built by Instance.intervals; nothing takes one as input."""

    id: int
    lo: Coord
    hi: Coord


@dataclass(frozen=True, eq=False, repr=False)
class Instance:
    """An ordered list of closed intervals plus the number of colors k.

    keys holds the endpoint keys in slot order, the order normalize ranks:
    interval i is [keys[2i] / scale, keys[2i + 1] / scale].  Keys are ints,
    or Fractions when scale is 1 (see _keys).  An odd key count, a start
    above its end, and a scale or a k that is not a positive int are
    rejected.  make_instance reads an instance from coordinates; the
    Interval objects are built on first request.  Instances compare by
    identity.
    """

    keys: Tuple
    scale: int
    k: int
    # the ranking normalize() keeps here
    _normalized: Optional["NormalizedInstance"] = field(default=None, init=False)

    def __post_init__(self) -> None:
        keys, s = tuple(self.keys), self.scale
        _check_positive_int("scale", s)
        _check_positive_int("k", self.k)
        if len(keys) & 1:
            raise ValueError(f"{len(keys)} keys: each interval needs a start and an end")
        pairs = iter(keys)
        if any(map(gt, pairs, pairs)):  # only then find the first such interval
            e = next(e for e in range(0, len(keys), 2) if keys[e] > keys[e + 1])
            lo, hi = Fraction(keys[e], s), Fraction(keys[e + 1], s)
            raise ValueError(f"interval {e >> 1}: lo {lo} > hi {hi}")
        object.__setattr__(self, "keys", keys)

    @property
    def n(self) -> int:
        return len(self.keys) >> 1

    @cached_property
    def intervals(self) -> Tuple[Interval, ...]:
        s, pairs = self.scale, iter(self.keys)
        return tuple(
            Interval(i, Fraction(a, s), Fraction(b, s)) for i, (a, b) in enumerate(zip(pairs, pairs))
        )

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, k={self.k}, scale={self.scale})"


def make_instance(bounds: Iterable[Sequence[CoordInput]], k: int) -> Instance:
    """Build an Instance from (lo, hi) pairs, assigning ids in order.

    Each coordinate is read once into an integer numerator and
    denominator (see _read_pairs), in the slot order Instance keeps; no
    Fraction or Interval is built on the way.
    """
    keys, scale = _keys(*_read_pairs(bounds))
    return Instance(keys, scale, k)


@dataclass(frozen=True, repr=False)
class NormalizedInstance:
    """The 2n endpoint events of an instance in one exact order.

    order lists the event slots by rank: 2i stands for the start of
    interval i and 2i + 1 for its end, so slot e is an event of interval
    e >> 1, an end when e & 1, and e ^ 1 is its partner.  Equal
    coordinates are tie-broken with all starts before all ends, then by
    interval id.  This realizes the usual infinitesimal nudge of
    coinciding endpoints symbolically: every set of intervals covering a
    common point of the original instance covers a common rank region
    afterwards, so nothing that matters to balancedness is lost.

    At each coordinate its starts form one block of consecutive ranks and
    its ends the next.  flags[r] is 1 where a nonempty block ends at rank
    r, so a sweep walks order and flags side by side.  The flagged ranks
    but the last are the sample points of every exact measure (see
    _point); the coordinates stay with the instance.
    """

    order: Tuple[int, ...]
    flags: bytes


def normalize(instance: Instance) -> NormalizedInstance:
    """Rank the 2n endpoint events once; later calls reuse the ranking.

    Every sweep of the library walks this ranking.  It sorts the event
    slots by the instance's keys: ints, exact and cheap to compare,
    unless the scale was too wide and they are Fractions.  The keys are
    in slot order, so the slots sort by them directly.  They enter the
    stable sort as the starts 0, 2, ..., 2n - 2, then the ends 1, 3, ...,
    2n - 1, which leaves equal keys with starts first, then ids ascending.  One pass over the ranks then
    marks the block ends in flags.  No start can rank after its own end:
    Instance rejects a start above its end and an equal key puts the
    start first.
    """
    if instance._normalized is not None:
        return instance._normalized
    n = instance.n
    keys = instance.keys
    order = sorted(chain(range(0, 2 * n, 2), range(1, 2 * n, 2)), key=keys.__getitem__)
    flags = bytearray(2 * n)
    previous = None
    ending = True  # in an ends block; at the start, that of no coordinate
    for rank, e in enumerate(order):
        key = keys[e]
        if key != previous:
            previous = key
            flags[rank - 1] = 1  # at rank 0 this marks the last rank, which ends a block too
            ending = e & 1
        elif e & 1 and not ending:
            flags[rank - 1] = 1
            ending = True
    # the sort hands back the int objects made in slot order; fresh ones,
    # made in rank order, lie in memory as the walks over order read them
    order = tuple(map(xor, order, repeat(0)))
    norm = NormalizedInstance(order, bytes(flags))
    object.__setattr__(instance, "_normalized", norm)
    return norm


@dataclass(frozen=True)
class Coloring:
    """Color per interval, aligned with instance order; colors are 1..k."""

    colors: Tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        _check_positive_int("k", self.k)
        colors = self.colors
        # when every color is a plain int (a bool equal to 1 would hide in
        # a set of the colors), the few distinct colors' min and max judge
        # them; otherwise the loop names the first bad color
        if {*map(type, colors)} <= {int}:
            distinct = set(colors)
            if not distinct or 1 <= min(distinct) and max(distinct) <= self.k:
                return
        for pos, c in enumerate(colors):
            if type(c) is not int:
                raise TypeError(f"color {c!r} at position {pos} is not an int")
            if not 1 <= c <= self.k:
                raise ValueError(f"color {c} at position {pos} outside 1..{self.k}")


@dataclass(frozen=True)
class ImbalanceReport:
    """Worst-point color imbalance.

    value is the maximum, over all points of the line, of the largest
    color-class count minus the smallest among intervals covering the
    point; colors with zero count there are included in the minimum.
    witness is the first measured point attaining the maximum.
    """

    value: int
    witness: Coord


def _check_coloring(instance, coloring: Coloring, noun: str) -> None:
    """Refuse a coloring whose length or k differs from the instance's."""
    if len(coloring.colors) != instance.n:
        raise ValueError(
            f"coloring has {len(coloring.colors)} entries for {instance.n} {noun}"
        )
    if coloring.k != instance.k:
        raise ValueError(
            f"coloring uses k={coloring.k} but instance has k={instance.k}"
        )


def imbalance(instance: Instance, coloring: Coloring) -> ImbalanceReport:
    """Measure the worst color-count spread over every point of the line.

    The sweep visits events in normalized rank order but measures once per
    sample point (see _point): at each distinct coordinate after the
    intervals starting there have been admitted (so a closed interval still
    counts at its own right endpoint), and at the midpoint of each region
    between consecutive distinct coordinates.  Those points realize every
    coverage set that exists on the line, so the maximum is exact.

    Each event costs O(1) whatever k is.  Besides each color's count the
    sweep keeps freq[v], the number of colors whose count is v, with the
    k - (colors in use) absent colors folded into freq[0] as one int, and
    the largest and smallest counts top and bottom.  An event moves one
    count by one, so each pointer moves at most one step, and freq grows
    and shrinks with top: it holds top + 1 ints, at most the depth plus
    one.  The counts take min(k, n) + 1 slots, so nothing is allocated in
    proportion to k.
    """
    _check_coloring(instance, coloring, "intervals")
    value, r = _sweep(instance, coloring.colors)
    return ImbalanceReport(value, Fraction(0) if r is None else _point(instance, r))


def _sweep(instance: Instance, cols: Sequence[int]) -> Tuple[int, Optional[int]]:
    """imbalance's count-of-counts walk over the colors cols, one per interval.

    Returns the imbalance and the first rank attaining it, or None when
    it is 0.  The walk visits order and flags side by side and measures
    at the flagged ranks, the ends of the nonempty blocks.  An empty
    block repeats the state of an earlier measured block, so it is never
    the first to attain the maximum; after the last block nothing is
    left, which never attains it either.
    """
    n = instance.n
    if n and max(cols) > n:
        # at most n colors are in use; dense slots keep counts within n slots
        slot = {c: s for s, c in enumerate(set(cols))}
        cols = [slot[c] for c in cols]
    counts = [0] * (min(instance.k, n) + 1)  # per color, or per slot
    freq = [instance.k]  # freq[v]: colors whose count is v, for v <= top
    top = bottom = 0
    best = 0
    at = None  # the event whose rank first attains best

    norm = normalize(instance)
    order = norm.order
    for e, measured in zip(order, norm.flags):
        c = cols[e >> 1]
        v = counts[c]
        if e & 1:
            counts[c] = v - 1
            freq[v - 1] += 1
            if v == top and freq[v] == 1:
                top = v - 1
                freq.pop()
            else:
                freq[v] -= 1
            if v == bottom:
                bottom = v - 1
        else:
            counts[c] = v + 1
            freq[v] -= 1
            if v == top:
                top = v + 1
                freq.append(1)
            else:
                freq[v + 1] += 1
            if v == bottom and not freq[v]:
                bottom = v + 1
        if measured and top - bottom > best:
            best = top - bottom
            at = e
    if at is None:
        return 0, None
    return best, order.index(at)


def _point(instance: Instance, r: int) -> Coord:
    """The sample point at flagged rank r of normalize(instance)'s order.

    When r closes a block of starts it is their coordinate, where the
    intervals starting there have been admitted and none ending there has
    left.  When r closes a block of ends it is the midpoint to the next
    event's coordinate, which is larger, so r must not be the last rank.
    Every exact measure samples the line at these points only: an empty
    block repeats the cover set before it, so these cover sets are all
    the cover sets there are.
    """
    order = normalize(instance).order
    keys, scale = instance.keys, instance.scale
    e = order[r]
    if not e & 1:
        return Fraction(keys[e], scale)
    return Fraction(keys[e] + keys[order[r + 1]], 2 * scale)


def _covers(instance: Instance) -> Iterator[Tuple[int, ...]]:
    """Per sample point of normalize(instance) in turn (see _point), the
    ids of the intervals covering it, in the order they were admitted.

    The one coverage walk: it admits and drops ids rank by rank and
    yields at each flagged rank but the last, after which nothing is
    left.  The live ids sit in an insertion-ordered dict, so a sample
    costs the number covering it.
    """
    norm = normalize(instance)
    live: Dict[int, None] = {}
    for e, measured in zip(norm.order, norm.flags[:-1]):
        if e & 1:
            del live[e >> 1]
        else:
            live[e >> 1] = None
        if measured:
            yield tuple(live)


def divisibility_predicts_zero(instance: Instance) -> bool:
    """True iff every point's coverage depth is a multiple of k.

    When true the minimum achievable imbalance is 0; otherwise it is 1
    (a balanced coloring always exists, and any point whose depth is not a
    multiple of k forces two color counts there to differ).
    """
    k = instance.k
    norm = normalize(instance)
    depth = 0
    for e, measured in zip(norm.order, norm.flags):
        depth += -1 if e & 1 else 1
        if measured and depth % k:
            return False
    return True


def _mask(ids: Iterable[int]) -> int:
    """The bitmask of the ids: bit i is set when i is among them."""
    msk = 0
    for i in ids:
        msk |= 1 << i
    return msk


def _search_colorings(
    n: int, k: int, cells: Iterable[int], minimize: bool
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Exact search over the k-colorings of items 0..n-1, desk scale only.

    A cell is a bitmask: bit j * n + i is set when item i is in it more
    than j times.  A coloring's spread is the largest, over the cells, of
    the top color count minus the bottom one, colors absent from the cell
    included.  Items take colors in id order, colors ascending, and each
    cell is checked once its highest item has a color, by popcount against
    one mask per color.  An item takes no color above one more than the
    largest before it, so item 0 is pinned to color 1: relabeling colors
    never changes a spread, and relabeling them by first use never makes a
    coloring lexicographically larger, so the first answer has that form
    anyway.  It also makes the cost the same for every k above n.

    With minimize, returns the minimum spread and its lexicographically
    first coloring, abandoning every partial coloring that cannot beat the
    best found so far and stopping at 0.  Otherwise returns the
    lexicographically first coloring of spread at most 1 with its spread,
    or None when there is none; a one-member cell is then not checked.
    """
    if n == 0:
        return 0, ()
    unique = {cell for cell in cells if cell & (cell - 1) or minimize and cell}
    items = (1 << n) - 1
    by_last: List[List[int]] = [[] for _ in range(n)]
    for cell in unique:
        by_last[(cell & items).bit_length() - 1].append(cell)
    layers = -(-max(map(int.bit_length, unique), default=0) // n)
    unit = ((1 << layers * n) - 1) // items  # an item's bit in every layer
    most = layers * n  # no color counts more in a cell
    # partial colorings whose spread reaches bound are abandoned
    bound = 1 + max(map(int.bit_count, unique), default=0) if minimize else 2
    # colors stay at most n, so when k > n one always-empty slot stands
    # for every color above n
    masks = [0] * min(k, n + 1)
    colors = [0] * n
    running = [0] * n  # spread of the cells completed before item i
    used = [0] * n  # largest color before item i
    best = None
    i = 0
    while i >= 0:
        color = colors[i] + 1
        bit = unit << i
        if colors[i]:
            masks[colors[i] - 1] ^= bit
        if color > min(k, used[i] + 1) or running[i] >= bound:
            colors[i] = 0
            i -= 1
            continue
        colors[i] = color
        masks[color - 1] |= bit
        spread = running[i]
        for cell in by_last[i]:
            top, bottom = 0, most
            for mask in masks:
                count = (cell & mask).bit_count()
                if count > top:
                    top = count
                if count < bottom:
                    bottom = count
            if top - bottom > spread:
                spread = top - bottom
                if spread >= bound:
                    break
        if spread >= bound:
            continue
        if i + 1 < n:
            running[i + 1] = spread
            used[i + 1] = max(used[i], color)
            i += 1
            continue
        best = spread, tuple(colors)
        if spread == 0 or not minimize:
            break
        bound = spread
    return best


def min_imbalance_oracle(instance: Instance) -> Tuple[int, Coloring]:
    """Exhaustive minimum imbalance with its lexicographically smallest coloring.

    The cells of the search are the coverage sets of _covers; the work can
    grow exponentially in n, so instances beyond MAX_ORACLE_N intervals are
    rejected.
    """
    n = instance.n
    if n > MAX_ORACLE_N:
        raise ValueError(f"oracle limited to n <= {MAX_ORACLE_N} intervals, got {n}")
    cells = map(_mask, _covers(instance))
    value, colors = _search_colorings(n, instance.k, cells, minimize=True)
    return value, Coloring(colors, instance.k)
