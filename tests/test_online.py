"""Online harness, builtin strategies, and the unbounded-imbalance adversary."""

import math
import random
from fractions import Fraction

import pytest

from intervalcolor.core import (
    Coloring,
    Instance,
    InvariantViolation,
    imbalance,
    is_balanced,
    make_instance,
)
from intervalcolor.k_color import k_color
from intervalcolor.online import (
    ALGORITHM_NAMES,
    AlwaysColor,
    GreedyLeastLoaded,
    OnlineAlgorithm,
    RoundRobin,
    SeededRandom,
    adversary_general,
    adversary_k2,
    make_algorithm,
    run_online,
    transcript_instance,
)


class BadAlgorithm(OnlineAlgorithm):
    def reset(self, k):
        pass

    def assign(self, interval):
        return 0


def test_round_robin_pair():
    coloring, trace = run_online(RoundRobin(), make_instance([(0, 3), (1, 2)], 2))
    assert coloring.colors == (1, 2)
    assert trace == (1, 1)


def test_round_robin_three_intervals():
    coloring, _ = run_online(RoundRobin(), make_instance([(0, 1), (1, 2), (2, 3)], 2))
    assert coloring.colors == (1, 2, 1)


def test_greedy_counts_at_startpoint():
    coloring, _ = run_online(
        GreedyLeastLoaded(), make_instance([(0, 10), (1, 2), (3, 4)], 2)
    )
    assert coloring.colors == (1, 2, 2)


def test_greedy_disjoint_stays_at_one():
    coloring, trace = run_online(
        GreedyLeastLoaded(), make_instance([(0, 1), (2, 3), (4, 5)], 2)
    )
    assert trace == (1, 1, 1)


def test_empty_stream():
    coloring, trace = run_online(RoundRobin(), make_instance([], 2))
    assert coloring.colors == ()
    assert trace == ()


def test_run_online_rejects_decreasing_startpoints():
    with pytest.raises(ValueError):
        run_online(RoundRobin(), make_instance([(1, 2), (0, 3)], 2))


def test_run_online_rejects_bad_color():
    with pytest.raises(ValueError):
        run_online(BadAlgorithm(), make_instance([(0, 1)], 2))


def test_seeded_random_is_reproducible():
    inst = make_instance([(i, i + 2) for i in range(20)], 3)
    first, _ = run_online(SeededRandom(11), inst)
    second, _ = run_online(SeededRandom(11), inst)
    assert first.colors == second.colors


def test_make_algorithm_names():
    for name in ALGORITHM_NAMES:
        assert isinstance(make_algorithm(name, seed=1), OnlineAlgorithm)
    with pytest.raises(ValueError):
        make_algorithm("nope")


def test_adversary_k2_always_plus_one():
    tr = adversary_k2(AlwaysColor(1), 4)
    assert tr.simb_r[-1] == 4
    assert tr.final_imbalance >= 4


def test_adversary_k2_always_minus_one():
    tr = adversary_k2(AlwaysColor(2), 3)
    assert tr.simb_l[-1] == -3
    assert tr.final_imbalance >= 3


def test_adversary_k2_round_arguments():
    with pytest.raises(ValueError):
        adversary_k2(RoundRobin(), 0)
    with pytest.raises(ValueError):
        adversary_general(RoundRobin(), 1, 5)


def test_adversary_k2_signed_accounting_per_round():
    # after each round: simb(R) = p and simb(L) = p - m, where p and m
    # count the color-1 and color-2 answers so far
    for name in ALGORITHM_NAMES:
        tr = adversary_k2(make_algorithm(name, seed=3), 40)
        p = m = 0
        for i, color in enumerate(tr.colors):
            if color == 1:
                p += 1
            else:
                m += 1
            assert tr.simb_r[i] == p
            assert tr.simb_l[i] == p - m
            assert tr.trace[i] >= max(abs(tr.simb_r[i]), abs(tr.simb_l[i]))


def test_adversary_startpoints_strictly_increase():
    tr = adversary_k2(make_algorithm("seeded_random", seed=5), 50)
    starts = [itv.lo for itv in tr.presented]
    assert all(a < b for a, b in zip(starts, starts[1:]))
    tr = adversary_general(AlwaysColor(3), 4, 5, repeat_budget=6)
    starts = [itv.lo for itv in tr.presented]
    assert all(a < b for a, b in zip(starts, starts[1:]))


def test_adversary_k2_rate_for_all_builtins():
    for name in ALGORITHM_NAMES:
        seeds = (1, 2, 3) if name == "seeded_random" else (None,)
        for seed in seeds:
            for t in (1, 2, 3, 10, 31, 60):
                tr = adversary_k2(make_algorithm(name, seed=seed), t)
                assert tr.final_imbalance >= math.ceil(t / 3), (name, seed, t)


def test_adversary_transcripts_are_balanced_offline():
    # the gap is about online-ness, not about the instances themselves
    for name in ALGORITHM_NAMES:
        tr = adversary_k2(make_algorithm(name, seed=9), 45)
        inst = transcript_instance(tr)
        assert imbalance(inst, k_color(inst)).value <= 1


def test_adversary_general_round_robin():
    tr = adversary_general(make_algorithm("round_robin"), 3, 30, 16)
    assert tr.final_imbalance >= 10
    # round robin cycles back to a tracked color within three presentations
    assert len(tr.presented) <= 3 * 30
    tracked = [c for c in tr.colors if c <= 2]
    assert len(tracked) == 30


def test_adversary_general_stubborn_algorithm_stacks_copies():
    tr = adversary_general(AlwaysColor(3), 3, 30, repeat_budget=5)
    assert len(tr.presented) == 5
    assert set(tr.colors) == {3}
    assert tr.final_imbalance >= 5


def test_adversary_general_reduces_to_k2():
    assert adversary_general(RoundRobin(), 2, 10) == adversary_k2(RoundRobin(), 10)


def test_adversary_general_rate_with_default_budget():
    for k in (3, 5, 8):
        for name in ALGORITHM_NAMES:
            for t in (6, 30):
                tr = adversary_general(make_algorithm(name, seed=4), k, t)
                assert tr.final_imbalance >= math.ceil(t / 3), (k, name, t)


def test_adversary_general_signed_accounting_with_storms():
    tr = adversary_general(make_algorithm("seeded_random", seed=12), 4, 25)
    p = m = rounds = 0
    for color in tr.colors:
        if color > 2:
            continue
        if color == 1:
            p += 1
        else:
            m += 1
        assert tr.simb_r[rounds] == p
        assert tr.simb_l[rounds] == p - m
        rounds += 1
    assert rounds == 25


def prefix_imbalances(intervals, colors, k):
    """The oracle: imbalance of every prefix, each ranked from scratch."""
    return tuple(
        imbalance(Instance(tuple(intervals[:i]), k), Coloring(tuple(colors[:i]), k)).value
        for i in range(1, len(intervals) + 1)
    )


def random_stream(rng, n, k):
    """Nondecreasing starts with repeats; touching, nested and point
    intervals; coordinates in halves and thirds."""
    step = (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1))
    length = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2, 3), Fraction(5))
    lo, bounds = Fraction(0), []
    for _ in range(n):
        lo += rng.choice(step)
        bounds.append((lo, lo + rng.choice(length)))
    return make_instance(bounds, k)


def greedy_reference(intervals, k):
    """Least-loaded color at each startpoint, scanning the whole history."""
    colors = []
    for pos, itv in enumerate(intervals):
        counts = [0] * k
        for old, color in zip(intervals[:pos], colors):
            if old.lo <= itv.lo <= old.hi:
                counts[color - 1] += 1
        colors.append(counts.index(min(counts)) + 1)
    return tuple(colors)


def test_run_online_trace_matches_prefix_oracle():
    rng = random.Random(61)
    for _ in range(60):
        k = rng.randint(1, 5)
        inst = random_stream(rng, rng.randint(0, 25), k)
        for name in ALGORITHM_NAMES:
            coloring, trace = run_online(make_algorithm(name, seed=7), inst)
            assert trace == prefix_imbalances(inst.intervals, coloring.colors, k), name


def test_builtin_colors_match_references():
    rng = random.Random(62)
    for _ in range(60):
        k = rng.randint(1, 5)
        inst = random_stream(rng, rng.randint(0, 25), k)
        greedy, _ = run_online(GreedyLeastLoaded(), inst)
        assert greedy.colors == greedy_reference(inst.intervals, k)
        robin, _ = run_online(RoundRobin(), inst)
        assert robin.colors == tuple(i % k + 1 for i in range(inst.n))
        draws = random.Random(5)
        seeded, _ = run_online(SeededRandom(5), inst)
        assert seeded.colors == tuple(draws.randint(1, k) for _ in range(inst.n))


def test_adversary_trace_matches_prefix_oracle():
    for k in (2, 3, 4):
        for name in ALGORITHM_NAMES:
            tr = adversary_general(make_algorithm(name, seed=k), k, 12)
            assert tr.trace == prefix_imbalances(tr.presented, tr.colors, k), (k, name)
            assert tr.final_imbalance == tr.trace[-1]
