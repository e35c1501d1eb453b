"""Online interval coloring and the adversary that makes it unbounded.

Intervals arrive in order of startpoint and must be colored immediately.
The adversary maintains two probe regions L left of R, presents intervals
reaching from inside L to inside R, and halves the regions based on the
algorithm's choice so that inside the current R exactly the color-1 picks
accumulate while inside the current L the signed choices accumulate.  One
of the two region counts must drift at rate t/3, so no online algorithm
can keep the spread bounded.  For k > 2 only two colors are tracked; an
interval answered with an untracked color is re-presented with a slightly
larger startpoint until the algorithm yields a tracked color or the
stacked copies themselves certify a large spread.  Every coordinate the
adversary makes is dyadic, so it computes on int keys at one power-of-two
scale fixed from t and the repeat budget, and a run presents at most
MAX_PRESENTATIONS intervals.

Both run_online and the adversary present intervals through one session
that asks the algorithm for a color, checks it, and records the arrival.
No answer depends on the trace, so it is computed when the run ends, in
one pass on endpoint keys (a stream's own, or the adversary's ints)
resting on the online contract that starts never decrease: points left
of the latest start are final, and at or right of it the intervals
covering a point are those ending at or after it.  So the counts per
distinct right end are packed into ints, a field per end, an arrival
adds a run of ones to one of them, and no prefix is ever re-ranked: at
k = 2 to one column of the two colors' differences, and otherwise to its
color's column, with a tree over the columns keeping their minimum once
every color is in use.  Then one offline imbalance of the whole
presented instance must equal the last trace value, so every run still
has an independent check.  An arrival works on ints with a field per
right end of the run from the latest start on, so a run is quadratic, a
machine word at a time: the staircase [i, 2000 + i], i < 2000, takes
0.021 s at k = 3 and 0.038 s at k = 64 on a 2-vCPU Xeon under Python 3.11.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import gt
from typing import Dict, List, Optional, Tuple

from intervalcolor.core import Coloring, Instance, InvariantViolation, imbalance

__all__ = [
    "OnlineAlgorithm",
    "RoundRobin",
    "GreedyLeastLoaded",
    "SeededRandom",
    "ALGORITHM_NAMES",
    "make_algorithm",
    "Transcript",
    "run_online",
    "adversary_general",
]

# The most intervals one adversary run presents, whatever its rounds and
# budget; it also bounds the bits of the run's scale.  A run to it takes
# about 0.13 s with round robin at k = 2, and one just below it 0.2 s with
# all of k = 200 colors in use (2-vCPU Xeon, Python 3.11): an arrival costs
# a few operations on ints as wide as the live right ends, plus a few for
# each level of the tree over the colors where the least count rises.
MAX_PRESENTATIONS = 5000


class OnlineAlgorithm:
    """Irrevocable one-interval-at-a-time coloring strategy.

    reset(k) starts a fresh run.  assign(lo, hi) is called once per
    arrival, in arrival order (startpoints never decrease), with the
    interval's endpoint keys: its coordinates times one positive scale
    fixed for the run, so the keys keep the order of the coordinates and
    the ratios of their differences.  Keys are ints, or Fractions when the
    scale is 1.  assign must return a color in 1..k; the interval keeps
    that color, so an algorithm that needs the past records it itself.
    Implementations must be deterministic given k, the arrivals so far,
    and their own construction arguments (e.g. a seed).
    """

    def reset(self, k: int) -> None:
        raise NotImplementedError

    def assign(self, lo, hi) -> int:
        raise NotImplementedError


class RoundRobin(OnlineAlgorithm):
    """Colors 1, 2, ..., k, 1, 2, ... in arrival order."""

    def reset(self, k: int) -> None:
        self.k = k
        self.calls = 0

    def assign(self, lo, hi):
        self.calls += 1
        return (self.calls - 1) % self.k + 1


class GreedyLeastLoaded(OnlineAlgorithm):
    """Least-used color among those counted at the new startpoint.

    Counts previously assigned intervals containing the arriving interval's
    startpoint per color (absent colors count zero) and picks the smallest
    count, ties to the lowest color.  Startpoints never decrease, so an
    answer ending before one startpoint contains no later one: only the
    answers still active are kept, in right-end order, with their counts.
    The colors used so far are always 1..u, since a new color is taken
    only when every used one is busy, so counts holds u slots, not k.
    """

    def reset(self, k: int) -> None:
        self.k = k
        self.start = None  # the latest start key
        self.ends: list = []  # right end keys of the active answers, ascending
        self.active: List[int] = []  # their colors
        self.counts: List[int] = []  # active answers per used color

    def assign(self, lo, hi):
        if self.start is not None and lo < self.start:
            raise ValueError(f"start key {lo} after {self.start}: starts must not decrease")
        self.start = lo
        counts, ends, active = self.counts, self.ends, self.active
        gone = bisect_left(ends, lo)
        for color in active[:gone]:
            counts[color - 1] -= 1
        del ends[:gone], active[:gone]
        if len(counts) < self.k and 0 not in counts:
            counts.append(0)  # every used color is busy: take the next one
        color = counts.index(min(counts)) + 1
        counts[color - 1] += 1
        at = bisect_right(ends, hi)
        ends.insert(at, hi)
        active.insert(at, color)
        return color


class SeededRandom(OnlineAlgorithm):
    """Uniform random color from a fixed seed; reproducible per run."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def reset(self, k: int) -> None:
        self.k = k
        self.rng = random.Random(self.seed)

    def assign(self, lo, hi):
        return self.rng.randint(1, self.k)


ALGORITHM_NAMES = ("round_robin", "greedy_least_loaded", "seeded_random")


def make_algorithm(name: str, seed: Optional[int] = None) -> OnlineAlgorithm:
    if name not in ALGORITHM_NAMES:
        raise ValueError(f"unknown online algorithm {name!r}")
    if name == "round_robin":
        return RoundRobin()
    if name == "greedy_least_loaded":
        return GreedyLeastLoaded()
    return SeededRandom(0 if seed is None else seed)


@dataclass(frozen=True)
class Transcript:
    """The whole record of an adversary run.

    instance holds every presentation in arrival order, including the
    re-presented copies for k > 2, as integer keys at the run's scale.
    colors and trace have one entry per presentation: its color and the
    imbalance of the prefix instance it closes, computed in one pass when
    the run ends; the last one is confirmed by one offline imbalance of
    instance.  The presentations of one round share their right end,
    and consecutive rounds do not, so the rounds and the region counts
    can be replayed from the transcript alone.
    """

    instance: Instance
    colors: Tuple[int, ...]
    trace: Tuple[int, ...]

    @property
    def presented(self) -> tuple:
        """The presented intervals, as Interval objects built on request."""
        return self.instance.intervals

    @property
    def final_imbalance(self) -> int:
        return self.trace[-1] if self.trace else 0


# the trace passes' field widths w, each with the format that reads a field
_FIELDS = ((16, "H"), (32, "I"), (64, "Q"))


def _fields(keys, spare: int):
    """The layout of a trace pass over the n arrivals of endpoint keys keys.

    Returns the field width w, the smallest whose counts up to n leave
    spare top bits free, the format that reads a field, the distinct right
    ends ascending, their ranks, and an int with a 1 in the field of each.
    """
    w, fmt = next(f for f in _FIELDS if len(keys) >> 1 < 1 << (f[0] - spare))
    ends = sorted(set(keys[1::2]))
    rank = {e: r for r, e in enumerate(ends)}
    every = int.from_bytes((1).to_bytes(w // 8, "little") * len(ends), "little")
    return w, fmt, ends, rank, every


def _packed_trace(keys, colors, k: int) -> List[int]:
    """The imbalance of every prefix of a run, in one pass over its arrivals.

    keys holds the endpoint keys in slot order, as Instance keeps them, in
    arrival order, starts nondecreasing.  With the run's distinct right
    ends ranked once, the points at or right of the latest start and in
    (ends[r - 1], ends[r]] are covered by the intervals ending at or after
    ends[r].  A pass packs counts of those intervals into ints, a w-bit
    field per rank from base, the first end at or after the latest start,
    so an arrival adds a run of ones to the fields of the ranks
    base..rank[b].  frozen is the largest spread left of the latest start,
    where every point is final.  A spread moves by at most one per arrival,
    so live stays at least the largest one from base on, and equals it
    whenever it is above frozen.  k = 2 keeps one difference column
    (_difference_trace), any other k a column per color and a tree of their
    minima (_tree_trace).
    """
    if k == 2:
        return _difference_trace(keys, colors)
    return _tree_trace(keys, colors, k)


def _tree_trace(keys, colors, k: int) -> List[int]:
    """_packed_trace with a column of counts per color in use.

    top packs per field the largest count.  Until all k colors are in use
    the smallest is 0; then the columns become the leaves cols[k:] of a
    tree whose node i packs the field-wise minimum of nodes 2i and 2i + 1,
    so the root cols[1] is the smallest count.  An arrival raises its leaf
    by one in its fields, and a node rises where the child that rose was
    below its sibling, so the climb stops at the first node that keeps its
    value.  Counts stay below 2^(w - 1), so a top bit per field guards a
    subtraction that compares every field at once.  Only where the
    smallest count rose can the largest spread fall.
    """
    w, fmt, ends, rank, every = _fields(keys, 1)
    w1 = w - 1
    field = (1 << w) - 1
    span = w * len(ends)
    slot: Dict[int, int] = {}  # color -> its column's index among the columns
    cols: List[int] = []  # the columns, and once every color is in use the tree
    leaf = 0  # the index of the first column in cols
    top = low = spread = frozen = live = base = 0
    reach = 0  # a 1 in each field some arrival has reached
    start = None
    trace: List[int] = []

    def peak(x: int) -> int:
        """The largest field of x."""
        if x <= field:
            return x
        size = -(-x.bit_length() // w) * w >> 3
        return max(memoryview(x.to_bytes(size, "little")).cast(fmt), default=0)

    pairs = iter(keys)
    for a, b, color in zip(pairs, pairs, colors):
        if start is not None and a > start:
            # the points left of a are final now: those of the ranks
            # ending before a, and some of the first rank left
            gone = bisect_left(ends, a, base) - base
            if gone:
                cut = w * gone
                if live > frozen:  # else none of them passes frozen
                    frozen = max(frozen, peak(spread & ((1 << cut) - 1)))
                cols = [col >> cut for col in cols]
                top, low, spread, reach = top >> cut, low >> cut, spread >> cut, reach >> cut
                base += gone
            if spread & field > frozen:
                frozen = spread & field
        start = a
        s = slot.get(color)
        if s is None:
            s = slot[color] = len(cols)
            cols.append(0)
            if len(cols) == k:  # every color in use: build the tree
                cols = [0] * k + cols
                leaf = k
                guard = every << w1
                for i in range(k - 1, 0, -1):
                    x, y = cols[2 * i], cols[2 * i + 1]
                    d = (x | guard) - y  # a guard bit left where x >= y
                    g = d & guard
                    cols[i] = x - (d & g - (g >> w1))
        ones = every >> span - w * (rank[b] - base + 1)  # the ranks base..rank[b]
        high = ones << w1
        if ones > reach:
            reach = ones
        i = leaf + s
        col = cols[i]
        node = cols[i] = col + ones
        risen = 0
        if leaf:
            up = high  # a guard bit in each field where node rose
            while i > 1:
                up &= (cols[i ^ 1] | high) - node
                if not up:
                    break
                i >>= 1
                node = cols[i] = cols[i] + (up >> w1)
            else:
                risen = up
                low = node
        rise = (col | high) - top & high  # where col held the largest count
        top += rise >> w1
        spread = top - low
        if rise and (spread | high) - (live + 1) * ones & high:  # a field passed live
            live += 1
        elif risen and live > frozen:  # else live need not be exact
            h = reach << w1
            if not (spread | h) - live * reach & h:
                live -= 1  # none is left at live
        trace.append(live if live > frozen else frozen)
    return trace


def _difference_trace(keys, colors) -> List[int]:
    """_packed_trace for two colors, with one column of their differences.

    diff packs per field bias + c1 - c2, where c1 and c2 count colors 1
    and 2, in the fields of biased, those some arrival has reached, and 0
    above them; the spread of a field is its distance from bias.  Counts
    stay below bias = 2^(w - 2), so every field stays below 2^(w - 1) and
    a top bit per field guards a subtraction that compares every field at
    once.  An arrival of color 1 adds its run of ones to diff, one of
    color 2 subtracts it, and only a field moved away from bias can pass
    live.
    """
    w, fmt, ends, rank, every = _fields(keys, 2)
    w1 = w - 1
    field = (1 << w) - 1
    span = w * len(ends)
    bias = 1 << (w - 2)
    diff = biased = frozen = live = base = 0
    start = None
    trace: List[int] = []

    def peak(x: int, fields: int) -> int:
        """The largest spread in the first fields of x, all of them biased."""
        x = memoryview(x.to_bytes(fields * w >> 3, "little")).cast(fmt)
        return max(max(x) - bias, bias - min(x)) if fields else 0

    def below(diff: int, biased: int, live: int) -> bool:
        """Whether every spread is below live."""
        h = biased << w1
        if (diff | h) - (bias + live) * biased & h:  # a field at bias + live or above
            return False
        return not ((bias - live) * biased | h) - diff & h  # or at bias - live or below

    pairs = iter(keys)
    for a, b, color in zip(pairs, pairs, colors):
        if start is not None and a > start:
            gone = bisect_left(ends, a, base) - base  # as in _tree_trace
            if gone:
                cut = w * gone
                if live > frozen:
                    reached = -(-biased.bit_length() // w)
                    frozen = max(frozen, peak(diff & ((1 << cut) - 1), min(gone, reached)))
                diff, biased = diff >> cut, biased >> cut
                base += gone
            if biased & 1 and abs((diff & field) - bias) > frozen:
                frozen = abs((diff & field) - bias)
        start = a
        ones = every >> span - w * (rank[b] - base + 1)
        if ones > biased:  # bias the fields reached first now
            diff += ones - biased << w - 2
            biased = ones
        high = ones << w1
        if color == 1:
            diff += ones
            if (diff | high) - (bias + live + 1) * ones & high:
                live += 1
            elif live > frozen and ((bias - live + 1) * ones | high) - diff & high:
                live -= below(diff, biased, live)  # a field left live: is any left there?
        else:
            diff -= ones
            if ((bias - live - 1) * ones | high) - diff & high:
                live += 1
            elif live > frozen and (diff | high) - (bias + live - 1) * ones & high:
                live -= below(diff, biased, live)
        trace.append(live if live > frozen else frozen)
    return trace


class _Session:
    """One run: each presented interval and its color.

    Nothing reads the trace during a run, so finish computes it in one
    pass and confirms its last value by an offline imbalance of the run.
    """

    def __init__(self, alg: OnlineAlgorithm, k: int):
        alg.reset(k)
        self.alg = alg
        self.k = k
        self.keys: list = []  # endpoint keys in slot order, arrivals in order
        self.colors: List[int] = []

    def present(self, lo, hi) -> int:
        """Color the interval with endpoint keys lo and hi, and record it."""
        color = self.alg.assign(lo, hi)
        if type(color) is not int:
            raise TypeError(f"algorithm returned color {color!r}, not an int")
        if not (1 <= color <= self.k):
            raise ValueError(f"algorithm returned color {color}, outside 1..{self.k}")
        self.keys += (lo, hi)
        self.colors.append(color)
        return color

    def finish(self, instance: Instance) -> Tuple[Coloring, Tuple[int, ...]]:
        """The run's coloring and trace, once an offline imbalance confirms it.

        instance holds the presented intervals in arrival order.
        """
        coloring = Coloring(tuple(self.colors), self.k)
        trace = tuple(_packed_trace(self.keys, self.colors, self.k))
        last = trace[-1] if trace else 0
        value = imbalance(instance, coloring).value
        if value != last:
            raise InvariantViolation(
                f"the trace ends at {last}, but the run's imbalance is {value}"
            )
        return coloring, trace


def run_online(
    alg: OnlineAlgorithm, instance: Instance
) -> Tuple[Coloring, Tuple[int, ...]]:
    """Feed an instance to an online algorithm in the given order.

    Startpoints must be nondecreasing (the online contract).  The
    algorithm sees the instance's keys.  Returns the final coloring and
    the realized imbalance after each assignment.
    """
    starts = instance.keys[0::2]
    if any(map(gt, starts, islice(starts, 1, None))):  # only then find the first such start
        i = next(i for i in range(1, instance.n) if starts[i] < starts[i - 1])
        was, now = (Fraction(x, instance.scale) for x in starts[i - 1 : i + 1])
        raise ValueError(f"interval {i} starts at {now}, before previous {was}")
    session = _Session(alg, instance.k)
    pairs = iter(instance.keys)
    for a, b in zip(pairs, pairs):
        session.present(a, b)
    return session.finish(instance)


def adversary_general(
    alg: OnlineAlgorithm, k: int, t: int, repeat_budget: Optional[int] = None
) -> Transcript:
    """Adaptive nemesis: t rounds of region halving, tracking colors 1 and 2.

    Starting from L=[0,1] and R=[2,3], each round presents the interval
    from the middle of L to the middle of R.  A color-1 answer moves R to
    its left half (the interval keeps covering R, so R's count rises); a
    color-2 answer moves R to its right half (the interval stops short of
    R's interior).  L always moves to its right half, so every presented
    interval keeps covering L and L accumulates the signed sum of all
    choices.  After t rounds with p color-1 and m color-2 answers, the
    color-1-minus-color-2 counts inside R and L are p and p - m; for k = 2
    one of them has magnitude at least ceil(t/3).

    For k > 2, an interval answered with an untracked color is presented
    again with a slightly larger startpoint (a geometric nudge strictly
    below the next round's startpoint), up to repeat_budget presentations
    per round; the copies count for nothing in the tracked accounting but
    stack up at a common point, so an algorithm that refuses the tracked
    colors builds a spread of at least repeat_budget / (k - 2) on its own,
    and the run ends once a round spends its budget.  repeat_budget
    defaults to 2t, which for k up to 8 certifies the same ceil(t/3) rate
    as the tracked drift.  For k = 2 nothing is re-presented and the
    budget is 1, whatever is passed.
    """
    if k < 2:
        raise ValueError(f"the adversary needs k >= 2, got k={k}")
    if t < 1:
        raise ValueError(f"need at least one round, got t={t}")
    if k == 2:
        repeat_budget = 1
    elif repeat_budget is None:
        repeat_budget = 2 * t
    if repeat_budget < 1:
        raise ValueError(f"repeat budget must be positive, got {repeat_budget}")
    limit = (
        f"the adversary presents at most MAX_PRESENTATIONS ="
        f" {MAX_PRESENTATIONS} intervals, and t={t} rounds need more"
    )
    if t > MAX_PRESENTATIONS:
        raise ValueError(limit)
    # every coordinate is dyadic: a round halves L and R, and the nudges
    # of one round halve its gap at most min(repeat_budget,
    # MAX_PRESENTATIONS) - 1 times, so keys at this scale are exact ints
    scale = 1 << (t + min(repeat_budget, MAX_PRESENTATIONS) + 2)
    session = _Session(alg, k)
    keys = session.keys
    L = (0, scale)
    R = (2 * scale, 3 * scale)

    def present(lo: int, hi: int) -> int:
        if len(keys) >= 2 * MAX_PRESENTATIONS:
            raise ValueError(limit)
        if keys and lo <= keys[-2]:
            raise InvariantViolation(
                f"adversary startpoints must increase strictly:"
                f" {Fraction(lo, scale)} after {Fraction(keys[-2], scale)}"
            )
        return session.present(lo, hi)

    for _ in range(t):
        mid_l = (L[0] + L[1]) >> 1
        mid_r = (R[0] + R[1]) >> 1
        color = present(mid_l, mid_r)
        # untracked answers: nudge the startpoint geometrically toward
        # (but never up to) the next round's startpoint and ask again
        gap = (L[1] - mid_l) >> 1
        attempt = 1
        while color > 2 and attempt < repeat_budget:
            color = present(mid_l + gap - (gap >> attempt), mid_r)
            attempt += 1
        if color > 2:
            break  # the stacked copies already certify the spread
        R = (R[0], mid_r) if color == 1 else (mid_r, R[1])
        L = (mid_l, L[1])

    instance = Instance(keys, scale, k)
    coloring, trace = session.finish(instance)
    return Transcript(instance, coloring.colors, trace)
