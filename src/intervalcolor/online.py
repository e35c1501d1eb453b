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
that asks the algorithm for a color, checks it, and records the
imbalance of the prefix so far.  The session and the algorithms see
endpoint keys only: a stream's own, or the adversary's ints.  The trace
is one incremental sweep resting on the online contract that starts
never decrease: points left of the latest start are final, and at or
right of it the intervals covering a point are those ending at or after
it.  So an arrival updates only the color counts kept per distinct right
end at or below its own, O(k) each, and no prefix is ever re-ranked.
When the run ends, one offline imbalance of the whole presented instance
must equal the last trace value, so every run still has an independent
check.  The worst case is every interval alive with rising right ends,
O(n^2 k) per run: the staircase [i, 2000 + i], i < 2000, with k = 3
takes about 0.6 s on a 2-vCPU Xeon under Python 3.11.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
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
# budget; it also bounds the bits of the run's scale.  With the shipped
# algorithms a run reaching it is the slowest (1.8 s at k = 2, 2-vCPU Xeon,
# Python 3.11); an arrival costs O(groups x colors in use), so a library
# algorithm using many colors can run far longer below it.
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
    if name == "round_robin":
        return RoundRobin()
    if name == "greedy_least_loaded":
        return GreedyLeastLoaded()
    if name == "seeded_random":
        return SeededRandom(0 if seed is None else seed)
    raise ValueError(f"unknown online algorithm {name!r}")


@dataclass(frozen=True)
class Transcript:
    """The whole record of an adversary run.

    instance holds every presentation in arrival order, including the
    re-presented copies for k > 2, as integer keys at the run's scale.
    colors and trace have one entry per presentation: its color and the
    imbalance of the prefix instance it closes, kept by the session's
    incremental sweep; the last one is confirmed by one offline imbalance
    of instance.  The presentations of one round share their right end,
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
    def k(self) -> int:
        return self.instance.k

    @property
    def final_imbalance(self) -> int:
        return self.trace[-1] if self.trace else 0


class _Session:
    """One run: each presented interval, its color, and its prefix imbalance.

    The session keeps the endpoint keys of every presentation in lo and
    hi, and the trace is one incremental sweep over them.  Starts never
    decrease, so every point left of the latest start is final; frozen is
    the largest spread there.  At or right of the latest start, the
    intervals covering a point are those ending at or after it.  So the
    active intervals, those ending at or after the latest start, are
    grouped by distinct right end, ends ascending, and group j keeps
    suf[j], the color counts of every interval ending at or after ends[j],
    and top[j], the largest spread (top count minus bottom count) of the
    counts of groups j and later.  Group j's counts hold on the points
    after ends[j - 1] up to ends[j], so the prefix imbalance is
    max(frozen, top[0]).  finish() confirms the last value by one offline
    imbalance of the whole run.

    The counts are indexed by slot, not color: colors get slots in order
    of first use, and while fewer than k colors are in use one more slot,
    always 0, stands for the rest, so a count list holds at most one slot
    more than the colors in use, however large k is.
    """

    def __init__(self, alg: OnlineAlgorithm, k: int):
        alg.reset(k)
        self.alg = alg
        self.k = k
        self.lo: list = []  # start keys, in arrival order
        self.hi: list = []  # end keys
        self.colors: List[int] = []
        self.trace: List[int] = []
        self.frozen = 0
        self.slot: Dict[int, int] = {}  # color -> index into the count lists
        self.ends: list = []
        self.suf: List[List[int]] = []
        self.top: List[int] = []

    def present(self, lo, hi) -> int:
        """Color the interval with endpoint keys lo and hi, and record its prefix."""
        color = self.alg.assign(lo, hi)
        if not (1 <= color <= self.k):
            raise ValueError(f"algorithm returned color {color}, outside 1..{self.k}")
        ends, suf, top = self.ends, self.suf, self.top
        if ends and lo > self.lo[-1]:
            # the points left of lo are final now; each group ending before
            # lo, and the first group left, holds at one of them
            gone = bisect_left(ends, lo)
            for counts in suf[: gone + 1]:
                self.frozen = max(self.frozen, max(counts) - min(counts))
            del ends[:gone], suf[:gone], top[:gone]
        self.lo.append(lo)
        self.hi.append(hi)
        self.colors.append(color)
        slot = self.slot.get(color)
        if slot is None:
            # the new color takes the zero slot; a fresh one stands for the rest
            slot = self.slot[color] = len(self.slot)
            if slot + 1 < self.k:
                for counts in suf:
                    counts.append(0)
        g = bisect_left(ends, hi)
        if g == len(ends) or ends[g] != hi:
            ends.insert(g, hi)
            suf.insert(g, suf[g][:] if g < len(suf) else [0] * min(self.k, len(self.slot) + 1))
            top.insert(g, 0)
        best = top[g + 1] if g + 1 < len(top) else 0
        for j in range(g, -1, -1):
            counts = suf[j]
            counts[slot] += 1
            s = max(counts) - min(counts)
            if s > best:
                best = s
            top[j] = best
        self.trace.append(max(self.frozen, best))
        return color

    def finish(self, instance: Instance) -> Coloring:
        """The run's coloring, once an offline imbalance confirms the trace.

        instance holds the presented intervals in arrival order.
        """
        coloring = Coloring(tuple(self.colors), self.k)
        last = self.trace[-1] if self.trace else 0
        value = imbalance(instance, coloring).value
        if value != last:
            raise InvariantViolation(
                f"incremental trace ends at {last}, but the run's imbalance is {value}"
            )
        return coloring


def run_online(
    alg: OnlineAlgorithm, instance: Instance
) -> Tuple[Coloring, Tuple[int, ...]]:
    """Feed an instance to an online algorithm in the given order.

    Startpoints must be nondecreasing (the online contract).  The
    algorithm sees the instance's keys.  Returns the final coloring and
    the realized imbalance after each assignment.
    """
    lo, hi = instance.lo, instance.hi
    for i in range(1, instance.n):
        if lo[i] < lo[i - 1]:
            raise ValueError(
                f"interval {i} starts at {Fraction(lo[i], instance.scale)},"
                f" before previous {Fraction(lo[i - 1], instance.scale)}"
            )
    session = _Session(alg, instance.k)
    for a, b in zip(lo, hi):
        session.present(a, b)
    return session.finish(instance), tuple(session.trace)


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
    starts = session.lo
    L = (0, scale)
    R = (2 * scale, 3 * scale)

    def present(lo: int, hi: int) -> int:
        if len(starts) >= MAX_PRESENTATIONS:
            raise ValueError(limit)
        if starts and lo <= starts[-1]:
            raise InvariantViolation(
                f"adversary startpoints must increase strictly:"
                f" {Fraction(lo, scale)} after {Fraction(starts[-1], scale)}"
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

    instance = Instance(session.lo, session.hi, scale, k)
    session.finish(instance)
    return Transcript(instance, tuple(session.colors), tuple(session.trace))
