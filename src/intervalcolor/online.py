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
stacked copies themselves certify a large spread.

Both run_online and the adversary present intervals through one session
that asks the algorithm for a color, checks it, and measures the
imbalance of the prefix so far with the offline sweep, so every recorded
bound is observed, not assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from intervalcolor.core import (
    Coloring,
    Coord,
    Instance,
    Interval,
    InvariantViolation,
    imbalance,
)

__all__ = [
    "OnlineAlgorithm",
    "RoundRobin",
    "GreedyLeastLoaded",
    "SeededRandom",
    "AlwaysColor",
    "ALGORITHM_NAMES",
    "make_algorithm",
    "Transcript",
    "transcript_instance",
    "run_online",
    "adversary_k2",
    "adversary_general",
]


class OnlineAlgorithm:
    """Irrevocable one-interval-at-a-time coloring strategy.

    reset(k) starts a fresh run.  assign is called once per arrival, in
    arrival order, and must return a color in 1..k; the interval keeps that
    color, so an algorithm that needs the past records it itself.
    Implementations must be deterministic given k, the arrivals so far, and
    their own construction arguments (e.g. a seed).
    """

    def reset(self, k: int) -> None:
        raise NotImplementedError

    def assign(self, interval: Interval) -> int:
        raise NotImplementedError


class RoundRobin(OnlineAlgorithm):
    """Colors 1, 2, ..., k, 1, 2, ... in arrival order."""

    def reset(self, k: int) -> None:
        self.k = k
        self.calls = 0

    def assign(self, interval):
        self.calls += 1
        return (self.calls - 1) % self.k + 1


class GreedyLeastLoaded(OnlineAlgorithm):
    """Least-used color among those counted at the new startpoint.

    Counts previously assigned intervals containing the arriving interval's
    startpoint per color (absent colors count zero) and picks the smallest
    count, ties to the lowest color.
    """

    def reset(self, k: int) -> None:
        self.k = k
        self.answers: List[Tuple[Interval, int]] = []

    def assign(self, interval):
        counts = [0] * self.k
        for old, color in self.answers:
            if old.contains(interval.lo):
                counts[color - 1] += 1
        color = counts.index(min(counts)) + 1
        self.answers.append((interval, color))
        return color


class SeededRandom(OnlineAlgorithm):
    """Uniform random color from a fixed seed; reproducible per run."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def reset(self, k: int) -> None:
        self.k = k
        self.rng = random.Random(self.seed)

    def assign(self, interval):
        return self.rng.randint(1, self.k)


class AlwaysColor(OnlineAlgorithm):
    """Constant strategy, mainly an adversary test opponent."""

    def __init__(self, color: int):
        self.color = color

    def reset(self, k: int) -> None:
        if not (1 <= self.color <= k):
            raise ValueError(f"constant color {self.color} outside 1..{k}")

    def assign(self, interval):
        return self.color


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
    """Record of an adversary run.

    presented, colors, and trace have one entry per presentation,
    including the re-presented copies for k > 2: the interval, its color,
    and the imbalance of the prefix instance it closes, measured by the
    offline sweep.  simb_l and simb_r have one entry per completed
    adversary round: the signed color-1-minus-color-2 count inside the
    current L and R regions.
    """

    presented: Tuple[Interval, ...]
    colors: Tuple[int, ...]
    trace: Tuple[int, ...]
    simb_l: Tuple[int, ...]
    simb_r: Tuple[int, ...]
    k: int

    @property
    def final_imbalance(self) -> int:
        return self.trace[-1] if self.trace else 0


def transcript_instance(transcript: Transcript) -> Instance:
    """The presented intervals as an offline instance, in arrival order."""
    return Instance(transcript.presented, transcript.k)


class _Session:
    """One run: each presented interval, its color, and its prefix imbalance."""

    def __init__(self, alg: OnlineAlgorithm, k: int):
        alg.reset(k)
        self.alg = alg
        self.k = k
        self.presented: List[Interval] = []
        self.colors: List[int] = []
        self.trace: List[int] = []

    def present(self, itv: Interval) -> int:
        color = self.alg.assign(itv)
        if not (1 <= color <= self.k):
            raise ValueError(f"algorithm returned color {color}, outside 1..{self.k}")
        self.presented.append(itv)
        self.colors.append(color)
        prefix = Instance(tuple(self.presented), self.k)
        self.trace.append(imbalance(prefix, Coloring(tuple(self.colors), self.k)).value)
        return color


def _signed_count(session: _Session, point: Coord) -> int:
    total = 0
    for itv, color in zip(session.presented, session.colors):
        if itv.contains(point):
            if color == 1:
                total += 1
            elif color == 2:
                total -= 1
    return total


def run_online(
    alg: OnlineAlgorithm, instance: Instance
) -> Tuple[Coloring, Tuple[int, ...]]:
    """Feed an instance to an online algorithm in the given order.

    Startpoints must be nondecreasing (the online contract).  Returns the
    final coloring and the realized imbalance after each assignment.
    """
    intervals = instance.intervals
    for prev, itv in zip(intervals, intervals[1:]):
        if itv.lo < prev.lo:
            raise ValueError(
                f"interval {itv.id} starts at {itv.lo}, before previous {prev.lo}"
            )
    session = _Session(alg, instance.k)
    for itv in intervals:
        session.present(itv)
    return Coloring(tuple(session.colors), instance.k), tuple(session.trace)


def adversary_k2(alg: OnlineAlgorithm, t: int) -> Transcript:
    """Adaptive nemesis for two colors: t rounds of region halving.

    Starting from L=[0,1] and R=[2,3], each round presents the interval
    from the middle of L to the middle of R.  A color-1 answer moves R to
    its left half (the interval keeps covering R, so R's count rises); any
    other answer moves R to its right half (the interval stops short of R's
    interior).  L always moves to its right half, so every presented
    interval keeps covering L and L accumulates the signed sum of all
    choices.  After t rounds with p color-1 answers the counts inside R and
    L are p and 2p - t, one of which has magnitude at least ceil(t/3).
    """
    if t < 1:
        raise ValueError(f"need at least one round, got t={t}")
    return _run_adversary(alg, 2, t, repeat_budget=1)


def adversary_general(
    alg: OnlineAlgorithm, k: int, t: int, repeat_budget: Optional[int] = None
) -> Transcript:
    """Adversary for any k: track colors 1 and 2, re-present on others.

    An interval answered with an untracked color is presented again with a
    slightly larger startpoint (a geometric nudge strictly below the next
    round's startpoint), up to repeat_budget presentations per round; the
    copies count for nothing in the tracked accounting but stack up at a
    common point, so an algorithm that refuses the tracked colors builds a
    spread of at least repeat_budget / (k - 2) on its own.  repeat_budget
    defaults to 2t, which for k up to 8 certifies the same ceil(t/3) rate
    as the tracked drift.
    """
    if t < 1:
        raise ValueError(f"need at least one round, got t={t}")
    if k < 2:
        raise ValueError(f"the adversary needs k >= 2, got k={k}")
    if k == 2:
        return adversary_k2(alg, t)
    budget = 2 * t if repeat_budget is None else repeat_budget
    if budget < 1:
        raise ValueError(f"repeat budget must be positive, got {budget}")
    return _run_adversary(alg, k, t, repeat_budget=budget)


def _run_adversary(
    alg: OnlineAlgorithm, k: int, t: int, repeat_budget: int
) -> Transcript:
    session = _Session(alg, k)
    presented = session.presented
    L = (Coord(0), Coord(1))
    R = (Coord(2), Coord(3))
    simb_l: List[int] = []
    simb_r: List[int] = []

    def record() -> None:
        simb_l.append(_signed_count(session, (L[0] + L[1]) / 2))
        simb_r.append(_signed_count(session, (R[0] + R[1]) / 2))

    def present(lo: Coord, hi: Coord) -> int:
        if presented and lo <= presented[-1].lo:
            raise InvariantViolation(
                f"adversary startpoints must increase strictly:"
                f" {lo} after {presented[-1].lo}"
            )
        return session.present(Interval(len(presented), lo, hi))

    for _ in range(t):
        mid_l = (L[0] + L[1]) / 2
        mid_r = (R[0] + R[1]) / 2
        color = present(mid_l, mid_r)
        # untracked answers: nudge the startpoint geometrically toward
        # (but never up to) the next round's startpoint and ask again
        gap = (L[1] - mid_l) / 2
        attempt = 1
        while color > 2 and attempt < repeat_budget:
            nudge = gap * (1 - Coord(1, 2 ** attempt))
            color = present(mid_l + nudge, mid_r)
            attempt += 1
        if color > 2:
            # the algorithm exhausted the budget with untracked colors;
            # the stacked copies already certify the spread
            record()
            break
        if color == 1:
            R = (R[0], mid_r)
        else:
            R = (mid_r, R[1])
        L = (mid_l, L[1])
        record()

    return Transcript(
        tuple(presented),
        tuple(session.colors),
        tuple(session.trace),
        tuple(simb_l),
        tuple(simb_r),
        k,
    )
