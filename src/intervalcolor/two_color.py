"""Balanced 2-coloring by pairing rank-consecutive events.

Consecutive events (ranks 2i-1, 2i) enclose the regions of odd depth, so
each such pair constrains its two intervals: a start/end pair of different
intervals must share a color, a pair of two starts or two ends must get
opposite colors.  Every event lies in exactly one pair and every interval
has two events, so the constraints link the intervals into paths and
cycles, and the cycles are even; walking each path or cycle 2-colors it.
"""

from __future__ import annotations

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
    order = normalize(instance).order
    # event slot 2i is the start of interval i and 2i + 1 its end
    mate = [0] * len(order)
    for p in range(0, len(order), 2):
        a, b = order[p], order[p + 1]
        sa = 2 * a if a >= 0 else 2 * ~a + 1
        sb = 2 * b if b >= 0 else 2 * ~b + 1
        mate[sa] = sb
        mate[sb] = sa

    colors = [0] * instance.n
    for first in range(instance.n):
        if colors[first]:
            continue
        colors[first] = 1
        for slot in (2 * first, 2 * first + 1):
            i, c = first, 1
            while True:
                other = mate[slot]
                j = other >> 1
                if j == i:
                    break  # the interval's own events are paired
                # a start/end pair shares the color, a same-type pair flips it
                cj = c if (slot ^ other) & 1 else 3 - c
                if colors[j]:
                    if colors[j] != cj:
                        raise InvariantViolation("constraint graph has an odd cycle")
                    break
                colors[j] = cj
                i, c, slot = j, cj, other ^ 1
    return Coloring(tuple(colors), 2)
