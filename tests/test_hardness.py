"""Reductions, the box decider, and their gadget-level guarantees."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, compress, product

import pytest

from intervalcolor import hardness
from intervalcolor.core import (
    Coloring,
    Instance,
    InvariantViolation,
    _point,
    make_instance,
    normalize,
)
from intervalcolor.hardness import (
    Box,
    BoxInstance,
    NaeFormula,
    WeightedInstance,
    _audit_reduction,
    _meeting_pairs,
    box_imbalance,
    decide_balanced_boxes,
    decide_grouped_intervals,
    make_box_instance,
    nae_brute_force,
    reduce_nae_to_boxes,
    reduce_nae_to_multiple_intervals,
    reduce_partition_to_weighted,
    weighted_imbalance,
)
from helpers import (
    boxes_intersect,
    distinct_cell_masks,
    formula_corpus,
    random_coloring,
    random_formula,
    reference_audit_reduction,
    reference_block_samples,
    reference_box_imbalance,
)


def grid_rects(instance):
    """Each box's first two dimensions as an int tuple (x0, x1, y0, y1)."""
    return [
        (int(x0), int(x1), int(y0), int(y1))
        for (x0, x1), (y0, y1), *_ in (box.bounds for box in instance.boxes)
    ]


def all_meeting_pairs(instance, first=0):
    """Every pair (a, b), first <= a < b, of intersecting boxes, by testing all pairs."""
    boxes = instance.boxes
    return {
        (a, b)
        for a in range(first, len(boxes))
        for b in range(a + 1, len(boxes))
        if boxes_intersect(boxes[a], boxes[b])
    }


def test_formula_validation():
    with pytest.raises(ValueError):
        NaeFormula(2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        NaeFormula(3, [(1, 2)])
    with pytest.raises(TypeError):
        NaeFormula(3, [(1, 2, True)])
    with pytest.raises(ValueError):
        NaeFormula(-1, [])


def test_brute_force_examples():
    assert nae_brute_force(NaeFormula(3, [(1, 2, 3)]))[0]
    assert nae_brute_force(NaeFormula(1, [(1, 1, 1)])) == (False, None)
    sat, assignment = nae_brute_force(NaeFormula(2, [(1, 1, 2)]))
    assert sat and assignment[0] != assignment[1]
    with pytest.raises(ValueError):
        nae_brute_force(NaeFormula(25, []))


def test_brute_force_witness_satisfies():
    rng = random.Random(3)
    for _ in range(20):
        formula = random_formula(rng)
        sat, assignment = nae_brute_force(formula)
        if not sat:
            continue
        for a, b, c in formula.clauses:
            vals = {assignment[a - 1], assignment[b - 1], assignment[c - 1]}
            assert len(vals) == 2


def test_box_validation():
    with pytest.raises(TypeError):
        make_box_instance([[(0.0, 1.0)]], 2)
    with pytest.raises(ValueError, match="unknown tag 'wall'"):
        make_box_instance([[(0, 1)]], 2, ["wall"])
    with pytest.raises(ValueError, match="2 dimensions, instance has 1"):
        make_box_instance([[(0, 1)], [(0, 1), (0, 1)]], 2)
    one, two = make_instance([(0, 1)], 2), make_instance([(0, 1), (2, 3)], 2)
    with pytest.raises(ValueError, match="dim 1 has n=2, k=2, not n=1"):
        BoxInstance((one, two), ("clause",))
    with pytest.raises(ValueError, match="dim 1 has n=1, k=3, not n=1, k=2"):
        BoxInstance((one, make_instance([(0, 1)], 3)), ("clause",))
    with pytest.raises(ValueError, match="2 tags for 1 boxes"):
        BoxInstance((one,), ("clause", "chain"))
    with pytest.raises(ValueError, match="unknown tag 'wall'"):
        BoxInstance((one,), ("wall",))
    with pytest.raises(ValueError, match="at least one dimension"):
        BoxInstance((), ())
    with pytest.raises(ValueError, match="lo 1 > hi 0"):
        make_box_instance([[(0, 1), (1, 0)]], 2)


def test_boxes_are_built_on_request():
    inst = make_box_instance([[(0, "1/2"), (2, 3)], [(1, 1), (0, 5)]], 2, ["chain", "cover"])
    assert (inst.d, inst.n, inst.k) == (2, 2, 2)
    assert "boxes" not in inst.__dict__
    assert inst.boxes == (
        Box(0, ((Fraction(0), Fraction(1, 2)), (Fraction(2), Fraction(3))), "chain"),
        Box(1, ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(5))), "cover"),
    )
    assert inst.boxes is inst.boxes
    assert [dim.scale for dim in inst.dims] == [2, 1]


def test_boxes_intersect_touching_edges_count():
    a = Box(0, ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))), "chain")
    b = Box(1, ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))), "chain")
    c = Box(2, ((Fraction(2), Fraction(3)), (Fraction(5), Fraction(6))), "chain")
    assert boxes_intersect(a, b)
    assert not boxes_intersect(a, c)


def test_reduce_single_clause_shape():
    inst = reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3)]), 2)
    tags = [b.tag for b in inst.boxes]
    assert tags.count("clause") == 3
    assert tags.count("variable") == 3
    assert tags.count("cover") == 0
    lengths = {}
    for prov in inst.provenance.values():
        if prov[0] == "chain":
            lengths[prov[1]] = lengths.get(prov[1], 0) + 1
    assert set(lengths) == {0, 1, 2}
    assert all(n % 2 == 1 for n in lengths.values())
    coloring = decide_balanced_boxes(inst)
    assert coloring is not None
    assert box_imbalance(inst, coloring).value <= 1


def test_reduce_unsat_clause_has_no_balanced_coloring():
    inst = reduce_nae_to_boxes(NaeFormula(1, [(1, 1, 1)]), 2)
    assert decide_balanced_boxes(inst) is None


def test_reduce_argument_errors():
    with pytest.raises(ValueError):
        reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3)]), 1)
    with pytest.raises(ValueError):
        reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3)]), 2, d=1)
    with pytest.raises(ValueError, match="k <= 10000,"):
        reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3)]), 10_001)


def test_reduce_formula_limits_are_inclusive(monkeypatch):
    monkeypatch.setattr(hardness, "MAX_REDUCTION_CLAUSES", 2)
    assert reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3)] * 2), 2).n > 0
    with pytest.raises(ValueError, match="MAX_REDUCTION_CLAUSES = 2 clauses, got 3"):
        reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3)] * 3), 2)
    most = hardness.MAX_REDUCTION_VARS
    assert reduce_nae_to_boxes(NaeFormula(most, ()), 2).n == most
    with pytest.raises(ValueError, match=f"MAX_REDUCTION_VARS = {most} variables, got {most + 1}"):
        reduce_nae_to_boxes(NaeFormula(most + 1, ()), 2)


def test_reduce_ten_clauses_in_bounded_time():
    # checking all pairs of these 3488 boxes took about 12 s on a 2-vCPU Xeon
    # under Python 3.11; the sweep takes milliseconds
    rng = random.Random(20)
    formula = NaeFormula(8, [tuple(rng.randint(1, 8) for _ in range(3)) for _ in range(10)])
    started = time.perf_counter()
    inst = reduce_nae_to_boxes(formula, 2)
    elapsed = time.perf_counter() - started
    assert inst.n > 3000
    assert elapsed < 2, elapsed


def test_swept_pairs_match_all_pairs():
    rng = random.Random(20)
    formulas = [NaeFormula(0, ()), NaeFormula(2, ()), NaeFormula(1, [(1, 1, 1)])]
    formulas += [random_formula(rng) for _ in range(4)]
    for formula, k, d in product(formulas, (2, 3, 5), (2, 3)):
        inst = reduce_nae_to_boxes(formula, k, d)
        covers = k - 2
        rects = grid_rects(inst)
        assert _meeting_pairs(rects, covers) == all_meeting_pairs(inst, covers)
        assert all(
            boxes_intersect(inst.boxes[a], box) for a in range(covers) for box in inst.boxes
        )
    # random rectangles on a small grid, so edges and corners touch often
    for _ in range(200):
        bounds = [
            [sorted((rng.randint(0, 6), rng.randint(0, 6))) for _ in range(2)]
            for _ in range(rng.randint(0, 12))
        ]
        inst = make_box_instance(bounds, 2)
        first = rng.randint(0, 2)
        assert _meeting_pairs(grid_rects(inst), first) == all_meeting_pairs(inst, first)


def audit_message(inst, rects, planned):
    """The audit's error on rects, checked to be the all-pairs check's error."""
    covers = inst.k - 2
    xs = [x for rect in rects for x in rect[:2]]
    ys = [y for rect in rects for y in rect[2:]]
    tampered = BoxInstance(
        (Instance(xs, 1, inst.k), Instance(ys, 1, inst.k)),
        inst.tags,
        inst.provenance,
    )
    with_covers = planned | {(a, b) for a in range(covers) for b in range(a + 1, inst.n)}
    with pytest.raises(InvariantViolation) as reference:
        reference_audit_reduction(tampered, with_covers)
    with pytest.raises(InvariantViolation) as audit:
        _audit_reduction(rects, covers, planned, inst.provenance)
    assert str(audit.value) == str(reference.value)
    return str(audit.value)


def test_audit_names_the_pair_that_all_pairs_names():
    rng = random.Random(21)
    inst = reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3), (3, 1, 2)]), 5)
    covers, rects = 3, grid_rects(inst)
    planned = all_meeting_pairs(inst, covers)
    _audit_reduction(rects, covers, planned, inst.provenance)

    dropped = rng.choice(sorted(planned))
    message = audit_message(inst, rects, planned - {dropped})
    assert message.startswith(f"unplanned intersection between box {dropped[0]} ")

    apart = [(a, b) for a in range(covers, inst.n) for b in range(a + 1, inst.n)]
    added = rng.choice([pair for pair in apart if pair not in planned])
    message = audit_message(inst, rects, planned | {added})
    assert message.startswith(f"missing intersection between box {added[0]} ")

    for c in range(covers):
        x0, x1, y0, _ = rects[c]
        shrunk = rects[:c] + [(x0, x1, y0, y0)] + rects[c + 1 :]
        assert audit_message(inst, shrunk, planned).startswith("missing intersection")

    # covers out of nesting order are swept with the rest, and pass while
    # every cover still meets every box
    swapped = [rects[1], rects[0]] + rects[2:]
    _audit_reduction(swapped, covers, planned, inst.provenance)


def test_reduce_lifts_to_three_dimensions():
    inst = reduce_nae_to_boxes(NaeFormula(2, [(1, 1, 2)]), 2, d=3)
    assert inst.d == 3
    assert all(b.bounds[2] == (Fraction(0), Fraction(0)) for b in inst.boxes)
    assert decide_balanced_boxes(inst) is not None


def test_clause_rectangles_share_exactly_one_cell():
    inst = reduce_nae_to_boxes(NaeFormula(4, [(1, 2, 3), (2, 3, 4)]), 2)
    by_prov = {prov: bid for bid, prov in inst.provenance.items()}
    masks = distinct_cell_masks(inst)
    for i in range(2):
        triple = 0
        for name in ("left", "right", "tall"):
            triple |= 1 << by_prov[("clause", i, name)]
        covering = {m for m in masks if m & triple == triple}
        assert len(covering) == 1
        # the shared cell holds nothing but the three clause rectangles
        assert covering.pop() == triple


def test_chain_links_overlap_consecutively_only():
    inst = reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3), (3, 1, 2)]), 2)
    chains = {}
    for bid, prov in inst.provenance.items():
        if prov[0] == "chain":
            chains.setdefault(prov[1], {})[prov[2]] = bid
    for links in chains.values():
        ordered = [links[pos] for pos in sorted(links)]
        for a in range(len(ordered)):
            for b in range(a + 1, len(ordered)):
                touching = boxes_intersect(
                    inst.boxes[ordered[a]], inst.boxes[ordered[b]]
                )
                assert touching == (b == a + 1), (a, b)


def test_chains_force_variable_and_clause_rectangle_to_agree():
    formula = NaeFormula(3, [(1, 2, 3), (1, 3, 2)])
    inst = reduce_nae_to_boxes(formula, 2)
    coloring = decide_balanced_boxes(inst)
    assert coloring is not None
    by_prov = {prov: bid for bid, prov in inst.provenance.items()}
    names = ("left", "right", "tall")
    for i, clause in enumerate(formula.clauses):
        for s in range(3):
            var_id = by_prov[("variable", clause[s])]
            rect_id = by_prov[("clause", i, names[s])]
            assert coloring.colors[var_id] == coloring.colors[rect_id]


def test_covers_take_their_own_colors():
    for k in (3, 4):
        inst = reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3)]), k)
        cover_ids = [b.id for b in inst.boxes if b.tag == "cover"]
        assert len(cover_ids) == k - 2
        coloring = decide_balanced_boxes(inst)
        assert coloring is not None
        assert box_imbalance(inst, coloring).value <= 1
        cover_colors = {coloring.colors[i] for i in cover_ids}
        assert len(cover_colors) == len(cover_ids)
        rest = {coloring.colors[b.id] for b in inst.boxes if b.tag != "cover"}
        assert not rest & cover_colors


def test_cover_solvability_matches_two_color_case():
    sat = NaeFormula(3, [(1, 2, 3)])
    unsat = NaeFormula(1, [(1, 1, 1)])
    assert decide_balanced_boxes(reduce_nae_to_boxes(sat, 3)) is not None
    assert decide_balanced_boxes(reduce_nae_to_boxes(unsat, 3)) is None


def test_reduction_equivalence_on_random_formulas():
    rng = random.Random(41)
    for _ in range(20):
        formula = random_formula(rng)
        sat, _ = nae_brute_force(formula)
        inst = reduce_nae_to_boxes(formula, 2)
        coloring = decide_balanced_boxes(inst)
        assert (coloring is not None) == sat
        if coloring is not None:
            assert box_imbalance(inst, coloring).value <= 1


FANO = NaeFormula(7, ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)))
ALL_TRIPLES_OF_FIVE = NaeFormula(5, tuple(combinations(range(1, 6), 3)))


@pytest.mark.parametrize(
    "formula, k, n",
    [(FANO, 2, 1879), (FANO, 3, 1880), (ALL_TRIPLES_OF_FIVE, 2, 3899)],
    ids=["fano-k2", "fano-k3", "all-triples-of-five-k2"],
)
def test_reduction_says_no_without_a_repeated_clause(formula, k, n, monkeypatch):
    # neither formula repeats a variable inside a clause, so no single
    # (x, x, x) gadget decides them: every clause is satisfiable alone
    assert nae_brute_force(formula) == (False, None)
    inst = reduce_nae_to_boxes(formula, k)
    assert inst.n == n
    monkeypatch.setattr(hardness, "MAX_DECIDER_BOXES", n)
    assert decide_balanced_boxes(inst) is None


def test_decider_is_deterministic():
    inst = reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3)]), 2)
    assert decide_balanced_boxes(inst) == decide_balanced_boxes(inst)


def test_decider_empty_and_limit(monkeypatch):
    assert decide_balanced_boxes(make_box_instance([], 2)) == Coloring((), 2)
    inst = reduce_nae_to_boxes(NaeFormula(3, [(1, 2, 3)]), 2)
    monkeypatch.setattr(hardness, "MAX_DECIDER_BOXES", 10)
    with pytest.raises(ValueError):
        decide_balanced_boxes(inst)


def test_box_imbalance_basics():
    single = make_box_instance([[(0, 1), (0, 1)]], 2)
    assert box_imbalance(single, Coloring((1,), 2)).value == 1
    disjoint = make_box_instance([[(0, 1), (0, 1)], [(5, 6), (0, 1)]], 2)
    assert box_imbalance(disjoint, Coloring((1, 2), 2)).value == 1
    empty = make_box_instance([], 2)
    report = box_imbalance(empty, Coloring((), 2))
    assert report.value == 0 and report.witness is None
    with pytest.raises(ValueError):
        box_imbalance(single, Coloring((), 2))
    with pytest.raises(ValueError):
        box_imbalance(single, Coloring((1,), 3))


def test_box_imbalance_counts_touching_faces():
    # closed boxes: two boxes meeting only along x = 1 both count there
    inst = make_box_instance([[(0, 1), (0, 1)], [(1, 2), (0, 1)]], 2)
    report = box_imbalance(inst, Coloring((1, 1), 2))
    assert (report.value, report.witness) == (2, (Fraction(1), Fraction(0)))


def test_box_imbalance_matches_pointwise_counts():
    # integer endpoints in 0..4, so the half-integer grid meets every
    # endpoint and every open gap between consecutive endpoints
    rng = random.Random(17)
    grid = [Fraction(v, 2) for v in range(-1, 10)]
    for _ in range(120):
        d, n, k = rng.randint(1, 3), rng.randint(1, 6), rng.randint(1, 3)
        bounds = [
            [sorted((rng.randint(0, 4), rng.randint(0, 4))) for _ in range(d)]
            for _ in range(n)
        ]
        inst = make_box_instance(bounds, k)
        coloring = Coloring(tuple(rng.randint(1, k) for _ in range(n)), k)
        best = 0
        for point in product(grid, repeat=d):
            counts = [0] * k
            for box, color in zip(inst.boxes, coloring.colors):
                if all(lo <= x <= hi for (lo, hi), x in zip(box.bounds, point)):
                    counts[color - 1] += 1
            best = max(best, max(counts) - min(counts))
        assert box_imbalance(inst, coloring).value == best


def test_box_imbalance_matches_the_grid_reference():
    def check(inst, coloring):
        report = box_imbalance(inst, coloring)
        assert (report.value, report.witness) == reference_box_imbalance(inst, coloring)

    rng = random.Random(23)
    check(make_box_instance([], 2), Coloring((), 2))
    for _ in range(300):
        # small integer endpoints, so faces and corners of boxes touch
        d, n, k = rng.randint(1, 3), rng.randint(1, 7), rng.randint(1, 4)
        bounds = [
            [sorted((rng.randint(0, 5), rng.randint(0, 5))) for _ in range(d)]
            for _ in range(n)
        ]
        check(make_box_instance(bounds, k), random_coloring(rng, n, k))
    # rational endpoints of mixed denominators from a small pool, and many
    # boxes flat in some dimension (lo == hi), so ties sit off the integers
    pool = [Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3, 7)]
    for _ in range(300):
        d, n, k = rng.randint(1, 3), rng.randint(1, 7), rng.randint(1, 4)
        bounds = []
        for _ in range(n):
            box = []
            for _ in range(d):
                lo = rng.choice(pool)
                hi = lo if rng.random() < 0.3 else rng.choice(pool)
                box.append([str(x) for x in sorted((lo, hi))])
            bounds.append(box)
        inst = make_box_instance(bounds, k)
        reference = reference_block_samples(inst)
        assert list(inst.sample_masks) == [masks for _, masks in reference]
        for dim, (samples, _) in zip(inst.dims, reference):
            ranks = [*compress(range(2 * dim.n), normalize(dim).flags)][:-1]
            assert [_point(dim, r) for r in ranks] == samples
        check(inst, random_coloring(rng, n, k))
    for formula in formula_corpus():
        for k in (2, 3) if len(formula.clauses) <= 2 else (2,):
            inst = reduce_nae_to_boxes(formula, k)
            check(inst, decide_balanced_boxes(inst) or random_coloring(rng, inst.n, k))
            check(inst, random_coloring(rng, inst.n, k))


def test_three_rectangles_can_force_spread_two():
    # pairwise-only regions for each pair plus one triple region: any
    # 2-coloring leaves some pair monochromatic in its private region
    inst = make_box_instance(
        [[(0, 6), (0, 2)], [(4, 10), (0, 2)], [(0, 10), (1, 2)]], 2
    )
    values = [
        box_imbalance(inst, Coloring(c, 2)).value
        for c in product((1, 2), repeat=3)
    ]
    assert min(values) == 2


def test_partition_reduction_examples():
    w = reduce_partition_to_weighted([1, 1, 2])
    assert w.k == 2 and w.n == 3
    best = min(
        weighted_imbalance(w, Coloring(c, 2)) for c in product((1, 2), repeat=3)
    )
    assert best == 0
    w2 = reduce_partition_to_weighted([1, 2])
    assert min(
        weighted_imbalance(w2, Coloring(c, 2)) for c in product((1, 2), repeat=2)
    ) == 1
    assert weighted_imbalance(reduce_partition_to_weighted([]), Coloring((), 2)) == 0


def test_weighted_validation():
    with pytest.raises(ValueError):
        reduce_partition_to_weighted([1, 0])
    with pytest.raises(ValueError):
        reduce_partition_to_weighted([1, -2])
    w = reduce_partition_to_weighted([3])
    with pytest.raises(ValueError):
        weighted_imbalance(w, Coloring((1, 2), 2))
    with pytest.raises(ValueError, match="2 weights for 1 intervals"):
        WeightedInstance(w.instance, (1, 2))


def test_weighted_imbalance_reuses_the_instance_ranking():
    w = reduce_partition_to_weighted([2, 1, 1])
    assert weighted_imbalance(w, Coloring((1, 2, 2), 2)) == 0
    norm = w.instance._normalized
    assert norm is not None and "intervals" not in w.instance.__dict__
    assert weighted_imbalance(w, Coloring((1, 1, 2), 2)) == 2
    assert w.instance._normalized is norm


def test_weighted_imbalance_varying_overlap():
    inst = WeightedInstance(make_instance([(0, 2), (1, 3)], 2), (3, 1))
    assert weighted_imbalance(inst, Coloring((1, 2), 2)) == 3
    assert weighted_imbalance(inst, Coloring((1, 1), 2)) == 4


# weighted_imbalance at k = 10^9 in a fresh interpreter capped at 1 GB of
# address space, where a list of k counts cannot be allocated
HUGE_K_WEIGHTED = (
    "import resource\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "from intervalcolor.core import Coloring, make_instance\n"
    "from intervalcolor.hardness import WeightedInstance, weighted_imbalance\n"
    "inst = WeightedInstance(make_instance([(0, 2), (1, 3)], 10**9), (3, 1))\n"
    "print(weighted_imbalance(inst, Coloring((1, 2), 10**9)),"
    " weighted_imbalance(inst, Coloring((1, 1), 10**9)))\n"
)


def test_weighted_imbalance_counts_only_the_colors_in_use():
    # absent colors count 0, so the spreads are those of k = 2 above
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_K_WEIGHTED],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "3 4\n"), proc.stderr


def test_multiple_intervals_reduction_examples():
    inst, groups = reduce_nae_to_multiple_intervals(NaeFormula(3, [(1, 2, 3)]))
    assert inst.n == 3 and groups == ((0,), (1,), (2,))
    assert decide_grouped_intervals(inst, groups) is not None

    inst, groups = reduce_nae_to_multiple_intervals(NaeFormula(1, [(1, 1, 1)]))
    assert groups == ((0, 1, 2),)
    assert decide_grouped_intervals(inst, groups) is None

    inst, groups = reduce_nae_to_multiple_intervals(
        NaeFormula(4, [(1, 2, 3), (1, 2, 4)])
    )
    assert inst.n == 6
    assert groups == ((0, 3), (1, 4), (2,), (5,))


def test_multiple_intervals_matches_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        formula = random_formula(rng, max_clauses=4, max_vars=5)
        sat, _ = nae_brute_force(formula)
        inst, groups = reduce_nae_to_multiple_intervals(formula)
        assert (decide_grouped_intervals(inst, groups) is not None) == sat


def test_grouped_decider_validation(monkeypatch):
    inst, groups = reduce_nae_to_multiple_intervals(NaeFormula(3, [(1, 2, 3)]))
    with pytest.raises(ValueError):
        decide_grouped_intervals(inst, groups[:-1])
    monkeypatch.setattr(hardness, "MAX_GROUPS", 2)
    with pytest.raises(ValueError):
        decide_grouped_intervals(inst, groups)
