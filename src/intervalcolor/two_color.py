"""Balanced 2-coloring by pairing rank-consecutive events, and balanced halving.

Consecutive events (ranks 2i-1, 2i) enclose the regions of odd depth, so
each such pair constrains its two intervals: a start/end pair of different
intervals must share a color, a pair of two starts or two ends must get
opposite colors.  Every event lies in exactly one pair and every interval
has two events, so the constraints link the intervals into paths and
cycles, and the cycles are even; walking each path or cycle 2-colors it.

halve() is the same step applied to every class of a partition at once.
A class's events are a subsequence of the shared order and rank its
intervals exactly as normalizing the class alone would, so pairing
consecutive events within each class (one pending event per class) and
walking the mates splits every class into two balanced halves in one
integer pass over normalize's slot order, where slot e is an event of
interval e >> 1, an end when e & 1, and e ^ 1 is the interval's other
event.  two_color is halve() on the single class of all intervals.
k_color halves t times for k = 2^t * m; since floor(floor(d/2)/2) =
floor(d/4), and likewise for ceil and every further level, the 2^t
classes hold floor(d/2^t) or ceil(d/2^t) intervals at a point of depth d.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

from intervalcolor.core import Coloring, Instance, InvariantViolation, normalize

__all__ = ["two_color"]


def two_color(instance: Instance) -> Coloring:
    """Balanced 2-coloring of a closed-interval instance.

    Intervals are visited in id order; the first interval of each path or
    cycle gets color 1 and the walk carries colors along the pairs in both
    directions from it.
    """
    if instance.k != 2:
        raise ValueError(f"two_color requires k = 2, got k = {instance.k}")
    halves = halve(normalize(instance).order, [0] * instance.n, 1)
    return Coloring(tuple([c + 1 for c in halves]), 2)


def halve(order: Sequence[int], classes: List[int], count: int) -> List[int]:
    """Split every class of a partition into two balanced halves.

    order ranks the event slots of intervals 0..len(classes)-1 as
    NormalizedInstance.order does, and classes[i] in 0..count-1 is the
    class of interval i.  Returns each interval's new class, 2c or
    2c + 1; the first interval of each path or cycle, in id order, takes
    2c.
    """
    n = len(classes)
    # unboxed, as the walk reads it in no order and a list would send
    # each read on to an int object elsewhere in memory
    mate = array("q", [0]) * len(order)  # the slot each slot pairs with
    if count == 1:  # one class: ranks 2j and 2j + 1 pair up
        pairs = iter(order)
        for s, p in zip(pairs, pairs):
            mate[p] = s
            mate[s] = p
    else:
        pending = [-1] * count  # the unpaired slot of each class
        for s in order:
            c = classes[s >> 1]
            p = pending[c]
            if p < 0:
                pending[c] = s
            else:
                mate[p] = s
                mate[s] = p
                pending[c] = -1

    sides = [0] * n  # 1 or 2 once walked
    for first in range(n):
        if sides[first]:
            continue
        sides[first] = 1
        for slot in (2 * first, 2 * first + 1):
            i, c = first, 1
            while True:
                other = mate[slot]
                j = other >> 1
                if j == i:
                    break  # the interval's own events are paired
                # a start/end pair shares the side, a same-type pair flips it
                cj = c if (slot ^ other) & 1 else 3 - c
                if sides[j]:
                    if sides[j] != cj:
                        raise InvariantViolation("constraint graph has an odd cycle")
                    break
                sides[j] = cj
                i, c, slot = j, cj, other ^ 1
    return [2 * c + s - 1 for c, s in zip(classes, sides)]
