"""The exact searches against a product over every coloring.

The two oracles and the two deciders share one pruned search.  Here each
is checked against a plain loop over itertools.product that measures
every coloring with the library's own imbalance functions, and arcs with
a brute-force membership count that shares no code with the arc oracle.
The oracles must return the minimum and its lexicographically first
coloring, the deciders the first balanced coloring in counting order, or
None.
"""

import itertools
import random
from fractions import Fraction

from intervalcolor import core
from intervalcolor.arcs import min_arc_imbalance_oracle
from intervalcolor.core import Coloring, imbalance, min_imbalance_oracle
from intervalcolor.hardness import (
    box_imbalance,
    decide_balanced_boxes,
    decide_grouped_intervals,
    make_box_instance,
)

from helpers import (
    brute_force_arc_cells,
    cell_spread,
    random_arc_instance,
    random_instance,
)


def first_by_product(n, k, spread, minimize):
    """Minimum spread and its first coloring, or the first of spread <= 1."""
    best = None
    for colors in itertools.product(range(1, k + 1), repeat=n):
        value = spread(colors)
        if not minimize and value <= 1:
            return colors
        if minimize and (best is None or value < best[0]):
            best = value, colors
    return best


def random_boxes(rng, n, d, k):
    """Boxes with integer corners in 0..4, so faces often touch."""
    bounds = []
    for _ in range(n):
        dims = []
        for _ in range(d):
            a, b = sorted(Fraction(rng.randrange(0, 5)) for _ in range(2))
            dims.append((a, b))
        bounds.append(dims)
    return make_box_instance(bounds, k)


def test_searches_match_product_over_all_colorings():
    rng = random.Random(29)
    for trial in range(60):
        k = rng.randint(1, 3)

        inst = random_instance(rng, rng.randint(0, 7), k)
        value, colors = first_by_product(
            inst.n, k, lambda c: imbalance(inst, Coloring(c, k)).value, True
        )
        assert min_imbalance_oracle(inst) == (value, Coloring(colors, k))

        arcs = random_arc_instance(rng, rng.randint(0, 6), k, circumference=8)
        cells = brute_force_arc_cells(arcs)
        value, colors = first_by_product(
            arcs.n, k, lambda c: cell_spread(cells, Coloring(c, k)), True
        )
        assert min_arc_imbalance_oracle(arcs) == (value, Coloring(colors, k))

        d = trial % 3 + 1
        boxes = random_boxes(rng, rng.randint(0, 7), d, k)
        colors = first_by_product(
            boxes.n, k, lambda c: box_imbalance(boxes, Coloring(c, k)).value, False
        )
        expected = None if colors is None else Coloring(colors, k)
        assert decide_balanced_boxes(boxes) == expected

        inst = random_instance(rng, rng.randint(0, 8), k)
        groups = [[] for _ in range(rng.randint(1, 4))]
        for i in range(inst.n):
            rng.choice(groups).append(i)

        def item_colors(assignment):
            by_item = [0] * inst.n
            for group, color in zip(groups, assignment):
                for i in group:
                    by_item[i] = color
            return Coloring(by_item, k)

        assignment = first_by_product(
            len(groups), k, lambda a: imbalance(inst, item_colors(a)).value, False
        )
        expected = None if assignment is None else item_colors(assignment)
        assert decide_grouped_intervals(inst, groups) == expected


def test_searches_build_no_sample_point(monkeypatch):
    # the three interval searches read their cells off the coverage walk
    # alone: with no sample coordinate buildable they answer as before
    rng = random.Random(31)
    cases = []
    for _ in range(20):
        k = rng.randint(1, 3)
        inst = random_instance(rng, rng.randint(0, 8), k)
        arcs = random_arc_instance(rng, rng.randint(0, 6), k, circumference=8)
        groups = [list(range(0, inst.n, 2)), list(range(1, inst.n, 2))]
        answers = (
            min_imbalance_oracle(inst),
            min_arc_imbalance_oracle(arcs),
            decide_grouped_intervals(inst, groups),
        )
        cases.append((inst, arcs, groups, answers))

    def refuse(*args):
        raise AssertionError("a sample point was built")

    monkeypatch.setattr(core, "_point", refuse)
    for inst, arcs, groups, answers in cases:
        assert (
            min_imbalance_oracle(inst),
            min_arc_imbalance_oracle(arcs),
            decide_grouped_intervals(inst, groups),
        ) == answers
