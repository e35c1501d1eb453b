"""The bitmask search against the id-tuple search it replaced.

core._search_colorings counts a cell by popcount against one mask per
color.  helpers.reference_search is the search before that change, which
counts each cell member by member.  Both must give the same first
coloring, minimum and "none" on the deciders' and oracles' own cells,
past the sizes tests/test_search.py can enumerate.
"""

import random
from itertools import combinations

import pytest

from intervalcolor import hardness
from intervalcolor.arcs import _pieces, min_arc_imbalance_oracle
from intervalcolor.core import Coloring, _covers, min_imbalance_oracle
from intervalcolor.hardness import (
    NaeFormula,
    decide_balanced_boxes,
    decide_grouped_intervals,
    make_box_instance,
    reduce_nae_to_boxes,
)

from helpers import (
    formula_corpus,
    mask_ids,
    random_arc_instance,
    random_instance,
    reference_search,
)

FANO = NaeFormula(7, ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)))
ALL_TRIPLES_OF_FIVE = NaeFormula(5, tuple(combinations(range(1, 6), 3)))


def reference_boxes(instance):
    found = reference_search(instance.n, instance.k, map(mask_ids, instance.cells), False)
    return None if found is None else Coloring(found[1], instance.k)


def test_box_decider_matches_reference_on_the_reductions():
    # criterion 8's formulas at k = 2, and those of at most two clauses at k = 3
    for formula in formula_corpus():
        for k in (2, 3) if len(formula.clauses) <= 2 else (2,):
            inst = reduce_nae_to_boxes(formula, k)
            assert decide_balanced_boxes(inst) == reference_boxes(inst), (formula, k)


@pytest.mark.parametrize(
    "formula, k",
    [(FANO, 2), (FANO, 3), (ALL_TRIPLES_OF_FIVE, 2)],
    ids=["fano-k2", "fano-k3", "all-triples-of-five-k2"],
)
def test_box_decider_matches_reference_saying_no(formula, k, monkeypatch):
    inst = reduce_nae_to_boxes(formula, k)
    monkeypatch.setattr(hardness, "MAX_DECIDER_BOXES", inst.n)
    assert decide_balanced_boxes(inst) is reference_boxes(inst) is None


def test_box_decider_matches_reference_on_random_boxes():
    rng = random.Random(37)
    for _ in range(100):
        n, d, k = rng.randint(0, 12), rng.randint(1, 3), rng.randint(1, 4)
        bounds = []
        for _ in range(n):
            corners = [sorted(rng.randint(0, 6) for _ in range(2)) for _ in range(d)]
            bounds.append(corners)
        inst = make_box_instance(bounds, k)
        assert decide_balanced_boxes(inst) == reference_boxes(inst)


def test_grouped_decider_matches_reference_with_repeated_groups():
    # few groups over many intervals, so cells hold a group several times
    rng = random.Random(43)
    repeats = 0
    for _ in range(300):
        k = rng.randint(1, 3)
        inst = random_instance(rng, rng.randint(0, 18), k, span=12)
        groups = [[] for _ in range(rng.randint(1, 6))]
        for i in range(inst.n):
            rng.choice(groups).append(i)
        group_of = {i: g for g, group in enumerate(groups) for i in group}
        cells = [[group_of[i] for i in ids] for ids in _covers(inst)]
        repeats += any(len(set(cell)) < len(cell) for cell in cells)
        found = reference_search(len(groups), k, cells, False)
        expected = None if found is None else Coloring(
            tuple(found[1][group_of[i]] for i in range(inst.n)), k
        )
        assert decide_grouped_intervals(inst, groups) == expected
    assert repeats > 200


def test_oracles_match_reference():
    rng = random.Random(47)
    for _ in range(150):
        k = rng.randint(1, 4)
        inst = random_instance(rng, rng.randint(0, 12), k)
        value, colors = reference_search(inst.n, k, _covers(inst), True)
        assert min_imbalance_oracle(inst) == (value, Coloring(colors, k))

        arcs = random_arc_instance(rng, rng.randint(0, 12), k, circumference=10)
        pieces, owners = _pieces(arcs)
        cells = ([owners[i] for i in ids] for ids in _covers(pieces))
        value, colors = reference_search(arcs.n, k, cells, True)
        assert min_arc_imbalance_oracle(arcs) == (value, Coloring(colors, k))
