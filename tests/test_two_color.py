"""Event pairing, chain merging, and the balanced 2-coloring."""

import random

import pytest

from intervalcolor.core import (
    InvariantViolation,
    NormalizedInstance,
    imbalance,
    make_instance,
    min_imbalance_oracle,
    normalize,
)
from intervalcolor.two_color import two_color

from helpers import random_instance, steady_pair_seconds


def pairs(inst):
    """The ranked event slots two by two: ranks (2j, 2j + 1), each slot 2i
    the start of interval i or 2i + 1 its end."""
    order = normalize(inst).order
    return list(zip(order[0::2], order[1::2]))


def test_pair_events_single_interval():
    assert pairs(make_instance([[0, 1]], 2)) == [(0, 1)]


def test_pair_events_nested():
    assert pairs(make_instance([[0, 3], [1, 2]], 2)) == [(0, 2), (3, 1)]


def test_pair_events_staggered():
    inst = make_instance([[0, 2], [1, 4], [3, 6], [5, 7]], 2)
    assert pairs(inst) == [(0, 2), (1, 4), (3, 6), (5, 7)]


def test_pair_ranks_are_consecutive():
    # every pair encloses a region of odd depth: rank 2i-1 ends at odd depth
    rng = random.Random(3)
    for _ in range(50):
        inst = random_instance(rng, rng.randint(0, 20), 2)
        depth = 0
        for first, second in pairs(inst):
            depth += -1 if first % 2 else 1
            assert depth % 2 == 1
            depth += -1 if second % 2 else 1
        assert depth == 0


def test_graph_parallel_edges():
    # a start pair and an end pair join the same two intervals
    col = two_color(make_instance([[0, 3], [1, 2]], 2))
    assert col.colors == (1, 2)


def test_graph_merges_chains():
    inst = make_instance([[0, 2], [1, 4], [3, 6], [5, 7]], 2)
    col = two_color(inst).colors
    assert col[0] == col[2] and col[1] == col[3]  # merged by start/end pairs
    assert col[0] != col[1]  # opposed by the start pair and the end pair


def test_graph_isolated_chain():
    assert two_color(make_instance([[0, 1]], 2)).colors == (1,)


def test_graph_incidence_is_at_most_one_per_kind():
    # a start/end pair of two intervals merges them into one chain; each
    # chain meets at most one start pair and one end pair, and the
    # coloring keeps chains alike and opposes the two sides of every pair
    rng = random.Random(5)
    for _ in range(200):
        inst = random_instance(rng, rng.randint(0, 40), 2, collide=0.4)
        colors = two_color(inst).colors
        chain = list(range(inst.n))

        def root(i):
            while chain[i] != i:
                i = chain[i]
            return i

        same_kind = []
        for a, b in pairs(inst):
            i, j = a // 2, b // 2
            if i == j:
                continue
            if a % 2 != b % 2:
                chain[root(i)] = root(j)
                assert colors[i] == colors[j]
            else:
                same_kind.append((i, j, a % 2))
                assert colors[i] != colors[j]
        seen = set()
        for i, j, kind in same_kind:
            for c in (root(i), root(j)):
                assert (c, kind) not in seen
                seen.add((c, kind))


def test_two_color_rejects_contradictory_pairs():
    # interval 0 starts twice and never ends: the pairs ask intervals 0
    # and 1 to be both alike and opposite
    inst = make_instance([[0, 1], [0, 1]], 2)
    ranking = NormalizedInstance((0, 2, 0, 3), bytes(4))
    object.__setattr__(inst, "_normalized", ranking)
    with pytest.raises(InvariantViolation, match="odd cycle"):
        two_color(inst)


def test_two_color_examples():
    inst = make_instance([[0, 3], [1, 2]], 2)
    col = two_color(inst)
    assert col.colors[0] != col.colors[1]
    assert imbalance(inst, col).value == 1

    inst = make_instance([[0, 2], [1, 4], [3, 6], [5, 7]], 2)
    col = two_color(inst)
    assert col.colors == (1, 2, 1, 2)
    assert imbalance(inst, col).value <= 1

    assert two_color(make_instance([], 2)).colors == ()


def test_two_color_requires_k2():
    with pytest.raises(ValueError):
        two_color(make_instance([[0, 1]], 3))


def test_two_color_identical_intervals_cancel():
    inst = make_instance([[0, 1], [0, 1]], 2)
    assert imbalance(inst, two_color(inst)).value == 0


def test_two_color_point_intervals():
    inst = make_instance([[1, 1], [1, 1], [0, 2], [1, 3]], 2)
    assert imbalance(inst, two_color(inst)).value <= 1


def test_two_color_random_instances_are_balanced():
    rng = random.Random(29)
    for _ in range(300):
        inst = random_instance(rng, rng.randint(0, 120), 2, collide=0.35)
        assert imbalance(inst, two_color(inst)).value <= 1


def test_two_color_matches_oracle_on_small_instances():
    rng = random.Random(31)
    for _ in range(120):
        inst = random_instance(rng, rng.randint(0, 9), 2)
        value, _ = min_imbalance_oracle(inst)
        assert imbalance(inst, two_color(inst)).value == value


def test_two_color_near_linear_scaling():
    # big is two disjoint copies of small, so the workload exactly doubles
    rng = random.Random(37)
    small = random_instance(rng, 100_000, 2, span=600_000)
    offset = 1_200_000
    bounds = [(itv.lo, itv.hi) for itv in small.intervals]
    bounds += [(itv.lo + offset, itv.hi + offset) for itv in small.intervals]
    big = make_instance(bounds, 2)
    two_color(big)  # warm caches and allocator before measuring
    t_small, t_big = steady_pair_seconds(
        lambda: two_color(small), lambda: two_color(big), reps=4
    )
    assert t_big / t_small < 2.5, f"{t_small:.3f}s -> {t_big:.3f}s"
