"""Acceptance gate: ten end-to-end checks, one test per criterion.

Each test prints nothing on its own; conftest.py emits a PASS/FAIL line
per criterion in the terminal summary.  Random corpora are seeded, so
every run exercises the same instances.
"""

import itertools
import random
import time

import pytest

from intervalcolor.arcs import (
    arc_color,
    arc_imbalance,
    make_arc_instance,
    min_arc_imbalance_oracle,
)
from intervalcolor.core import (
    Coloring,
    Instance,
    InvariantViolation,
    divisibility_predicts_zero,
    imbalance,
    make_instance,
    min_imbalance_oracle,
)
from intervalcolor.hardness import (
    decide_balanced_boxes,
    decide_grouped_intervals,
    nae_brute_force,
    reduce_nae_to_boxes,
    reduce_nae_to_multiple_intervals,
    reduce_partition_to_weighted,
    weighted_imbalance,
)
from intervalcolor.k_color import (
    edge_color,
    hypergraph_to_instance,
    k_color,
)
from intervalcolor.online import adversary_general, make_algorithm
from intervalcolor.two_color import two_color
from helpers import (
    assert_proper_edge_coloring,
    dewerra_with_passes,
    formula_corpus,
    random_arc_instance,
    random_bipartite_multigraph,
    random_instance,
    steady_pair_seconds,
)


def test_criterion_01_balanced_random_instances():
    rng = random.Random(101)
    started = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(0, 200)
        k = rng.randint(1, 16)
        instance = random_instance(rng, n, k, collide=0.3)
        assert imbalance(instance, k_color(instance)).value <= 1
        pair = Instance(instance.keys, instance.scale, 2)
        assert imbalance(pair, two_color(pair)).value <= 1
    assert time.perf_counter() - started < 60


def test_criterion_02_exact_optimality_small_corpus():
    rng = random.Random(102)
    started = time.perf_counter()
    for _ in range(300):
        n = rng.randint(0, 9)
        k = rng.choice((2, 3))
        instance = random_instance(rng, n, k)
        best, _ = min_imbalance_oracle(instance)
        achieved = imbalance(instance, k_color(instance)).value
        assert achieved == best
        assert (best == 0) == divisibility_predicts_zero(instance)
    assert time.perf_counter() - started < 60


def test_criterion_03_near_linear_scaling():
    # doubled is two disjoint copies of base, so the workload exactly
    # doubles; drawing twice as many intervals from one span would also
    # double the depth everywhere and measure a denser problem instead
    rng = random.Random(103)
    base = random_instance(rng, 100_000, 8, span=10**6)
    offset = 4 * 10**6
    bounds = [(itv.lo, itv.hi) for itv in base.intervals]
    bounds += [(itv.lo + offset, itv.hi + offset) for itv in base.intervals]
    doubled = make_instance(bounds, 8)
    k_color(base)  # warm caches and allocator before measuring
    base_time, doubled_time = steady_pair_seconds(
        lambda: k_color(base), lambda: k_color(doubled), reps=5
    )
    assert base_time < 10
    assert doubled_time < 2.5 * base_time, (
        f"doubling n took {doubled_time:.2f}s vs {base_time:.2f}s"
    )
    assert imbalance(base, k_color(base)).value <= 1


def test_criterion_04_rebalancing_pass_bound():
    rng = random.Random(104)
    over_budget = []
    aborted = []
    for trial in range(200):
        n = rng.randint(2, 60)
        k = rng.randint(2, 8)
        instance = random_instance(rng, n, k)
        budget = k * (k - 1) // 2
        try:
            coloring, passes = dewerra_with_passes(instance)
        except InvariantViolation:
            aborted.append((trial, k))
            continue
        assert imbalance(instance, coloring).value <= 1
        if passes > budget:
            over_budget.append((trial, k, passes, budget))
    assert not over_budget and not aborted, (
        f"of 200 runs, {len(over_budget)} needed more than k(k-1)/2 passes "
        f"and {len(aborted)} had a pass that did not lower the potential; worst overrun "
        f"(trial, k, passes, budget): "
        f"{max(over_budget, key=lambda row: row[2] - row[3], default=None)}"
    )


def test_criterion_05_bipartite_edge_coloring():
    rng = random.Random(105)
    sizes = [10_000] + [rng.randint(1, 10_000) for _ in range(99)]
    for m in sizes:
        max_degree = rng.randint(1, 8)
        side = m // max_degree + 5
        graph = random_bipartite_multigraph(rng, side, side, m, max_degree)
        degrees = {}
        for edge in graph.edges:
            degrees[("L", edge.start_pos)] = degrees.get(("L", edge.start_pos), 0) + 1
            degrees[("R", edge.end_pos)] = degrees.get(("R", edge.end_pos), 0) + 1
        delta = max(degrees.values())
        assert delta <= 8
        colors = edge_color(graph, delta)
        assert_proper_edge_coloring(graph, colors, delta)


def test_criterion_06_arc_spread_within_two():
    rng = random.Random(106)
    for _ in range(500):
        n = rng.randint(0, 40)
        k = rng.randint(1, 6)
        instance = random_arc_instance(rng, n, k)
        assert arc_imbalance(instance, arc_color(instance)).value <= 2
    tight = make_arc_instance([(0, 2), (1, 2), (2, 2)], 3, 2)
    best, _ = min_arc_imbalance_oracle(tight)
    assert best == 2
    assert arc_imbalance(tight, arc_color(tight)).value == 2


def test_criterion_07_online_adversary_rate():
    runs = [("round_robin", None), ("greedy_least_loaded", None)]
    runs += [("seeded_random", seed) for seed in (1, 2, 3)]
    for name, seed in runs:
        transcript = adversary_general(make_algorithm(name, seed=seed), 2, 60)
        assert transcript.final_imbalance >= 20, (name, seed)
        offline = transcript.instance
        assert imbalance(offline, k_color(offline)).value <= 1


def test_criterion_08_box_decider_matches_brute_force():
    started = time.perf_counter()
    corpus = formula_corpus()
    for formula in corpus:
        expected = nae_brute_force(formula)[0]
        found = decide_balanced_boxes(reduce_nae_to_boxes(formula, 2))
        assert (found is not None) == expected, formula
    for formula in corpus:
        if len(formula.clauses) > 2:
            continue
        expected = nae_brute_force(formula)[0]
        found = decide_balanced_boxes(reduce_nae_to_boxes(formula, 3))
        assert (found is not None) == expected, formula
    assert time.perf_counter() - started < 300


def test_criterion_09_consecutive_ones_columns():
    rng = random.Random(109)
    for _ in range(100):
        rows = rng.randint(1, 50)
        cols = rng.randint(1, 50)
        k = rng.randint(1, 5)
        matrix = []
        for _ in range(rows):
            row = [0] * cols
            if rng.random() >= 0.1:
                a = rng.randrange(cols)
                b = rng.randrange(a, cols)
                for j in range(a, b + 1):
                    row[j] = 1
            matrix.append(tuple(row))
        instance = hypergraph_to_instance(matrix, k)
        colors = k_color(instance).colors
        for j in range(cols):
            counts = [0] * k
            for r in range(rows):
                if matrix[r][j]:
                    counts[colors[r] - 1] += 1
            assert max(counts) - min(counts) <= 1
    with pytest.raises(ValueError, match="consecutive"):
        hypergraph_to_instance([(1, 0, 1)], 2)


def test_criterion_10_appendix_reductions():
    def minimum_weighted(values):
        weighted = reduce_partition_to_weighted(values)
        k = weighted.k
        return min(
            weighted_imbalance(weighted, Coloring(tuple(assignment), k))
            for assignment in itertools.product(
                range(1, k + 1), repeat=len(values)
            )
        )

    assert minimum_weighted((1, 1, 2)) == 0
    assert minimum_weighted((1, 2)) == 1
    for formula in formula_corpus():
        expected = nae_brute_force(formula)[0]
        instance, groups = reduce_nae_to_multiple_intervals(formula)
        found = decide_grouped_intervals(instance, groups)
        assert (found is not None) == expected, formula
