"""Constraint sweep, edge coloring, and the general k-coloring."""

import importlib
import random
import time
from fractions import Fraction

import pytest

from intervalcolor.core import (
    Coloring,
    Instance,
    InvariantViolation,
    divisibility_predicts_zero,
    _covers,
    _sweep,
    imbalance,
    make_instance,
    min_imbalance_oracle,
    normalize,
)
from intervalcolor.k_color import (
    EdgeGraph,
    _greedy_colors,
    _worst_pair,
    constraint_graph,
    edge_color,
    hypergraph_to_instance,
    k_color,
    k_color_dewerra,
)
from intervalcolor.two_color import halve, two_color

from helpers import (
    assert_proper_edge_coloring,
    assert_sweep_graph,
    brute_force_counts,
    dewerra_with_passes,
    random_bipartite_multigraph,
    random_instance,
    reference_dewerra,
    reference_halve,
)


def sweep(bounds, k):
    return constraint_graph(normalize(make_instance(bounds, k)).order, k)


def edges(graph):
    return list(zip(graph.starts, graph.ends, graph.items))


def test_three_starts_open_a_full_window():
    graph = sweep([[0, 1], ["0.2", "1.5"], ["0.4", 2]], 3)
    # one start-side window of all three, closed by one end-side window
    assert edges(graph) == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]


def test_worked_example_constraints():
    # start side S0 = {I0, I1, x0}, S1 = {y0, I2, x1}, S2 = {y1, x2, x3};
    # end side E0 = {y0, I0, x0}, E1 = {y1, I1, x1}, E2 = {I2, x2, x3}.
    # Each item's edge is written when its second constraint closes.
    graph = sweep([[0, 2], [1, 5], [4, 6]], 3)
    assert edges(graph) == [
        (0, 0, 0),  # E0: I0
        (0, 0, -1),  # E0: x0
        (1, 0, -1),  # S1: y0
        (0, 1, 1),  # E1: I1
        (1, 1, -1),  # E1: x1
        (2, 1, -1),  # S2: y1
        (1, 2, 2),  # E2: I2
        (2, 2, -1),  # E2: x2
        (2, 2, -1),  # E2: x3
    ]


def test_single_interval_k2_hits_both_sides():
    # S0 = {I0, x0} and E0 = {I0, x0}
    assert edges(sweep([[0, 1]], 2)) == [(0, 0, 0), (0, 0, -1)]


def test_build_constraints_rejects_k1():
    with pytest.raises(ValueError):
        sweep([[0, 1]], 1)


def test_constraint_structure_on_random_instances():
    rng = random.Random(41)
    for _ in range(150):
        k = rng.randint(2, 6)
        inst = random_instance(rng, rng.randint(0, 40), k, collide=0.4)
        graph = constraint_graph(normalize(inst).order, k)
        assert_sweep_graph(graph, inst.n, k)
        virtuals = graph.items.count(-1)
        assert virtuals <= 2 * max(inst.n, 1) * (k - 1)


def test_graph_for_single_interval_is_two_parallel_edges():
    graph = sweep([[0, 1]], 2)
    assert graph.starts == (0, 0) and graph.ends == (0, 0)


def test_graph_for_worked_example_is_3_regular():
    graph = sweep([[0, 2], [1, 5], [4, 6]], 3)
    assert_sweep_graph(graph, 3, 3)
    assert len(set(graph.starts)) == len(set(graph.ends)) == 3


def test_graph_of_empty_constraint_list():
    assert sweep([], 3) == EdgeGraph((), (), ())


def test_graph_rejects_inconsistent_occurrences():
    # hand-built slot orders that no instance ranks to
    cases = [
        ((1, 0), 2, "without a matching start-side"),  # end ranked before start
        ((0, 2, 3, 3), 2, "without a matching start-side"),  # second end
        ((0, 0), 2, "second start-side vertex"),
        ((0, 2, 2, 0), 3, "second start-side vertex"),
        ((0, 0), 3, "ended inside an open window"),
    ]
    for order, k, message in cases:
        with pytest.raises(InvariantViolation, match=message):
            constraint_graph(order, k)


def test_edge_color_shared_left_vertex_path():
    graph = EdgeGraph((0, 0), (0, 1), (0, 1))
    assert edge_color(graph, 2) == (1, 2)


def test_edge_color_parallel_edges_use_all_colors():
    k = 4
    graph = EdgeGraph((0,) * k, (0,) * k, tuple(range(k)))
    assert sorted(edge_color(graph, k)) == list(range(1, k + 1))


def test_edge_color_rejects_degree_overflow():
    graph = EdgeGraph((0,) * 3, (0,) * 3, (0, 1, 2))
    with pytest.raises(InvariantViolation):
        edge_color(graph, 2)


def test_edge_color_random_multigraphs_are_proper():
    rng = random.Random(43)
    for _ in range(50):
        delta = rng.randint(1, 8)
        graph = random_bipartite_multigraph(
            rng, rng.randint(1, 30), rng.randint(1, 30), rng.randint(0, 400), delta
        )
        colors = edge_color(graph, delta)
        assert_proper_edge_coloring(graph, colors, delta)


def test_k_color_worked_example():
    inst = make_instance([[0, 2], [1, 5], [4, 6]], 3)
    col = k_color(inst)
    assert imbalance(inst, col).value <= 1
    assert col.colors[0] != col.colors[1]
    assert col.colors[1] != col.colors[2]


def test_k_color_k1_and_empty():
    inst = make_instance([[0, 5], [1, 2]], 1)
    assert k_color(inst).colors == (1, 1)
    assert imbalance(inst, k_color(inst)).value == 0
    assert k_color(make_instance([], 4)).colors == ()


def test_k_color_three_interval_k2():
    inst = make_instance([[0, 2], [1, 3], [0, 3]], 2)
    assert imbalance(inst, k_color(inst)).value == 1


def test_k_color_random_instances_are_balanced():
    rng = random.Random(47)
    for _ in range(300):
        k = rng.randint(2, 16)
        inst = random_instance(rng, rng.randint(0, 120), k, collide=0.35)
        assert imbalance(inst, k_color(inst)).value <= 1


def test_k_color_matches_oracle_and_two_color_value():
    rng = random.Random(53)
    for _ in range(100):
        k = rng.choice((2, 3))
        inst = random_instance(rng, rng.randint(0, 9), k)
        value, _ = min_imbalance_oracle(inst)
        assert imbalance(inst, k_color(inst)).value == value
        if k == 2:
            assert imbalance(inst, two_color(inst)).value == value


def test_k_color_at_or_above_depth_gives_each_point_distinct_colors():
    # first-free in rank order: starts before ends at a shared coordinate
    inst = make_instance([[0, 2], [1, 3], [2, 4], [3, 5]], 3)
    assert k_color(inst).colors == (1, 2, 3, 1)
    rng = random.Random(73)
    for _ in range(100):
        n = rng.randint(1, 30)
        inst = random_instance(rng, n, n, collide=0.4)
        colors = k_color(inst).colors
        for clique in _covers(inst):
            assert len({colors[i] for i in clique}) == len(clique)


def test_k_color_huge_k_costs_nothing_in_k():
    inst = make_instance([[0, 2], [1, 3], [2, 4]], 99_999)
    started = time.perf_counter()
    coloring = k_color(inst)
    assert imbalance(inst, coloring).value <= 1
    assert time.perf_counter() - started < 0.5
    assert coloring.colors == (1, 2, 3)


def test_k_color_edge_colors_only_the_odd_part(monkeypatch):
    module = importlib.import_module("intervalcolor.k_color")
    seen = []

    def recording(graph, k):
        seen.append(k)
        return edge_color(graph, k)

    monkeypatch.setattr(module, "edge_color", recording)
    rng = random.Random(79)
    inst = random_instance(rng, 200, 2, collide=0.3)  # depth well above 24
    for k, calls in ((2, []), (8, []), (16, []), (3, [3]), (12, [3]), (24, [3]), (20, [5])):
        seen.clear()
        coloring = k_color(Instance(inst.keys, inst.scale, k))
        assert seen == calls, k
        assert set(coloring.colors) == set(range(1, k + 1))


def test_dewerra_balanced_on_worked_example():
    inst = make_instance([[0, 2], [1, 5], [4, 6]], 3)
    coloring, passes = dewerra_with_passes(inst)
    assert imbalance(inst, coloring).value <= 1
    assert passes <= 3


def test_dewerra_keeps_already_balanced_start():
    # round-robin start on disjoint intervals is balanced: no pass runs
    inst = make_instance([[0, 1], [2, 3], [4, 5]], 2)
    coloring, passes = dewerra_with_passes(inst)
    assert coloring.colors == (1, 2, 1)
    assert passes == 0


def test_dewerra_requires_k2():
    with pytest.raises(ValueError):
        k_color_dewerra(make_instance([[0, 1]], 1))


def test_dewerra_two_identical_intervals():
    # round-robin start (1, 2) splits the pair immediately: zero passes
    inst = make_instance([[0, 1], [0, 1]], 2)
    coloring, passes = dewerra_with_passes(inst)
    assert sorted(coloring.colors) == [1, 2]
    assert passes == 0


def test_dewerra_small_instances_meet_pass_bound():
    # at this size the k(k-1)/2 pass figure holds empirically
    rng = random.Random(59)
    for _ in range(80):
        k = rng.choice((2, 3))
        inst = random_instance(rng, rng.randint(0, 9), k, collide=0.35)
        coloring, passes = dewerra_with_passes(inst)
        assert imbalance(inst, coloring).value <= 1
        assert passes <= k * (k - 1) // 2


def test_dewerra_returns_are_balanced_or_abort_is_diagnosed():
    # there is no pass cap: every run ends balanced, since each pass lowers
    # the potential; a pass that does not is diagnosed (see test_cli.py)
    rng = random.Random(67)
    for _ in range(60):
        k = rng.randint(2, 8)
        inst = random_instance(rng, rng.randint(0, 60), k, collide=0.35)
        assert imbalance(inst, k_color_dewerra(inst)).value <= 1


def test_dewerra_matches_oracle_small():
    rng = random.Random(61)
    for _ in range(60):
        k = rng.choice((2, 3))
        inst = random_instance(rng, rng.randint(0, 9), k)
        value, _ = min_imbalance_oracle(inst)
        assert imbalance(inst, k_color_dewerra(inst)).value == value


def test_dewerra_matches_the_extracting_reference():
    # each pass halves the worst pair as class 0 of the shared order; the
    # reference extracts and renumbers the pair's intervals instead
    # pass by pass, every run included: no pass leaves the potential unlowered
    rng = random.Random(73)
    for _ in range(150):
        k = rng.randint(2, 6)
        inst = random_instance(rng, rng.randint(0, 40), k, collide=0.35)
        coloring, passes = dewerra_with_passes(inst)
        assert (list(coloring.colors), passes) == reference_dewerra(inst)


def test_worst_pair_counts_at_the_witness_by_keys():
    # the pair read from integer (or Fraction) keys is the pair that direct
    # counting at the witness gives, midpoints included
    rng = random.Random(71)
    tiny = Fraction(1, 10**30)
    for trial in range(120):
        k = rng.randint(2, 5)
        inst = random_instance(rng, rng.randint(1, 25), k, collide=0.4)
        if trial % 2:  # nudged coordinates rank as Fraction keys
            inst = make_instance(
                [(itv.lo + itv.id * tiny, itv.hi + itv.id * tiny) for itv in inst.intervals], k
            )
            assert inst.scale == 1
        colors = [rng.randint(1, k) for _ in range(inst.n)]
        value, s = _sweep(inst, colors)
        pair = _worst_pair(inst, colors, s)
        report = imbalance(inst, Coloring(tuple(colors), k))
        counts = brute_force_counts(inst, Coloring(tuple(colors), k), report.witness)
        top, bottom = counts.index(max(counts)) + 1, counts.index(min(counts)) + 1
        assert value == report.value == max(counts) - min(counts)
        assert pair == tuple(sorted((top, bottom)))


def column_counts(matrix, coloring, k):
    width = len(matrix[0]) if matrix else 0
    per_column = []
    for c in range(width):
        counts = [0] * k
        for r, row in enumerate(matrix):
            if row[c] == 1:
                counts[coloring.colors[r] - 1] += 1
        per_column.append(counts)
    return per_column


def test_hypergraph_identity_matrix():
    inst = hypergraph_to_instance([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert [(itv.lo, itv.hi) for itv in inst.intervals] == [
        (1, 1),
        (2, 2),
        (3, 3),
    ]


def test_hypergraph_overlapping_rows_force_distinct_colors():
    matrix = [[1, 1, 0], [0, 1, 1]]
    inst = hypergraph_to_instance(matrix, 2)
    col = k_color(inst)
    assert col.colors[0] != col.colors[1]
    for counts in column_counts(matrix, col, 2):
        assert max(counts) - min(counts) <= 1


def test_hypergraph_rejects_non_consecutive_row():
    with pytest.raises(ValueError):
        hypergraph_to_instance([[1, 0, 1]], 2)
    with pytest.raises(ValueError):
        hypergraph_to_instance([[1, 2, 0]], 2)
    with pytest.raises(ValueError):
        hypergraph_to_instance([[1, 0], [1, 0, 0]], 2)


def test_hypergraph_zero_rows_become_disjoint_points():
    inst = hypergraph_to_instance([[0, 0], [0, 0], [1, 1]], 2)
    a, b = inst.intervals[0], inst.intervals[1]
    assert a.lo == a.hi and b.lo == b.hi and a.lo != b.lo
    assert a.lo > 2 and b.lo > 2


def test_hypergraph_random_matrices_are_column_balanced():
    rng = random.Random(67)
    for _ in range(40):
        rows = rng.randint(1, 30)
        width = rng.randint(1, 30)
        k = rng.randint(2, 5)
        matrix = []
        for _ in range(rows):
            if rng.random() < 0.1:
                matrix.append([0] * width)
                continue
            a = rng.randrange(width)
            b = rng.randrange(a, width)
            matrix.append([1 if a <= c <= b else 0 for c in range(width)])
        inst = hypergraph_to_instance(matrix, k)
        col = k_color(inst)
        for counts in column_counts(matrix, col, k):
            assert max(counts) - min(counts) <= 1


DIFFERENTIAL_KS = (2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 1024)


def replicated_instance(rng, base_n, k):
    """k copies of each of base_n random intervals, ids shuffled.

    Every depth is a multiple of k, so a balanced coloring must be exact.
    """
    base = random_instance(rng, base_n, k, collide=0.4)
    bounds = [(itv.lo, itv.hi) for itv in base.intervals for _ in range(k)]
    rng.shuffle(bounds)
    return make_instance(bounds, k)


def test_k_color_differential_against_divisibility_and_oracle():
    # composite k (6, 12, 24) covers halving followed by the odd part;
    # depths reach about 50, so k = 32 halves and k = 1024 does not
    rng = random.Random(71)
    for trial in range(440):
        k = DIFFERENTIAL_KS[trial % len(DIFFERENTIAL_KS)]
        if trial % 4 == 3:
            inst = replicated_instance(rng, rng.randint(0, max(1, 96 // k)), k)
        else:
            inst = random_instance(rng, rng.randint(0, 100), k, collide=0.35)
        value = imbalance(inst, k_color(inst)).value
        assert value <= 1, (trial, k)
        assert (value == 0) == divisibility_predicts_zero(inst), (trial, k)
    for _ in range(120):
        k = rng.choice((2, 3, 4))
        inst = random_instance(rng, rng.randint(0, 9), k, collide=0.35)
        best, _ = min_imbalance_oracle(inst)
        assert imbalance(inst, k_color(inst)).value == best


def test_halving_levels_match_the_per_level_reference():
    # every level on the shared slot order, against a reference pairing
    # that keys its mates by (interval, end); the pool brings equal
    # starts, equal ends and touching intervals, and arbitrary partitions
    # take the general path
    rng = random.Random(83)
    compared = set()
    for trial in range(150):
        n = rng.randint(0, 60)
        inst = random_instance(rng, n, 2, collide=0.5, span=rng.choice((8, 40)))
        order = normalize(inst).order
        t = trial % 5 + 1
        classes = expected = [0] * n
        for level in range(t):
            classes = halve(order, classes, 2**level)
            expected = reference_halve(order, expected, 2**level)
            assert classes == expected
        if _greedy_colors(order, n, 2**t) is None:  # else k_color colors greedily
            colors = k_color(Instance(inst.keys, inst.scale, 2**t)).colors
            assert colors == tuple(c + 1 for c in expected)
            compared.add(t)
        count = rng.randint(2, 6)
        partition = [rng.randrange(count) for _ in range(n)]
        assert halve(order, partition, count) == reference_halve(order, partition, count)
    assert compared == {1, 2, 3, 4, 5}
