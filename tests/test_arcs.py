"""Unfolding, circular imbalance, and the spread-2 arc coloring."""

import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from intervalcolor import core
from intervalcolor.arcs import (
    ArcInstance,
    _pieces,
    arc_color,
    arc_imbalance,
    make_arc_instance,
    min_arc_imbalance_oracle,
    unfold,
)
from intervalcolor.cli import main
from intervalcolor.core import Coloring, Instance, imbalance, to_coord
from intervalcolor.formats import parse_arc_json
from intervalcolor.k_color import k_color

from helpers import (
    Arc,
    arc_contains,
    arcs_of,
    brute_force_arc_spread,
    cell_spread,
    circumference_of,
    interval_contains,
    random_arc_instance,
    random_coloring,
    reference_pieces,
    reference_unfold,
)


def bounds(interval):
    return interval.lo, interval.hi


def test_unfold_arc_without_wrap_keeps_position():
    line = unfold(make_arc_instance([(0, 1)], 3, 2))
    assert bounds(line.intervals[0]) == (0, 1)


def test_unfold_wrapping_arc_shifts_left():
    # positive part has length 0.5, the counterclockwise part past zero
    line = unfold(make_arc_instance([("2.5", 1)], 3, 2))
    assert bounds(line.intervals[0]) == (Fraction(-1, 2), Fraction(1, 2))


def test_unfold_arc_ending_exactly_at_zero_does_not_wrap():
    line = unfold(make_arc_instance([(2, 1)], 3, 2))
    assert bounds(line.intervals[0]) == (2, 3)


def test_unfold_full_arc_against_full_width_hull():
    # proper arcs unfold to [-0.5, 0.5] and [1.5, 2.5]: hull [-0.5, 2.5] is
    # already one full turn wide, so the full arc becomes one exact turn
    # anchored margin 0.5 left of the hull rather than a hull-covering
    # interval (which would count it twice at some circle points)
    inst = make_arc_instance([("2.5", 1), ("1.5", 1), (0, 3)], 3, 2)
    line = unfold(inst)
    assert bounds(line.intervals[2]) == (-1, 2)


def test_unfold_full_arc_margin_capped_below_circumference():
    # hull [0, 1] on a circumference-10 circle: margin capped at 9/4 so the
    # spanning interval stays narrower than one full turn
    inst = make_arc_instance([(0, 1), (0, 12)], 10, 2)
    line = unfold(inst)
    lo, hi = bounds(line.intervals[1])
    assert lo < 0 < 1 < hi
    assert hi - lo < 10


def test_unfold_only_full_arcs():
    line = unfold(make_arc_instance([(0, 5), (0, 7)], 5, 2))
    assert bounds(line.intervals[0]) == bounds(line.intervals[1])
    assert line.intervals[0].hi - line.intervals[0].lo < 5


def test_arc_validation():
    with pytest.raises(ValueError):
        make_arc_instance([(5, 1)], 3, 2)  # start outside [0, C)
    with pytest.raises(ValueError):
        make_arc_instance([(0, 0)], 3, 2)  # zero length
    with pytest.raises(ValueError):
        make_arc_instance([(0, 1)], 0, 2)  # bad circumference
    with pytest.raises(ValueError):
        make_arc_instance([(0, 1)], 3, 0)  # bad k


def test_arc_contains_wraps_and_closes():
    C = to_coord(3)
    wrapping = Arc(0, to_coord("2.5"), to_coord(1))
    assert arc_contains(wrapping, C, to_coord("2.75"))
    assert arc_contains(wrapping, C, to_coord(0))
    assert arc_contains(wrapping, C, to_coord("0.5"))
    assert not arc_contains(wrapping, C, to_coord(1))
    # ending exactly at the zero angle still contains the zero point
    ending = Arc(0, to_coord(2), to_coord(1))
    assert arc_contains(ending, C, to_coord(0))
    assert not arc_contains(ending, C, to_coord("0.5"))


def test_arc_imbalance_single_arc():
    inst = make_arc_instance([(0, 1)], 3, 2)
    assert arc_imbalance(inst, Coloring((1,), 2)).value == 1


def test_arc_imbalance_empty():
    report = arc_imbalance(make_arc_instance([], 5, 2), Coloring((), 2))
    assert report.value == 0
    assert report.witness is None


def test_arc_imbalance_rejects_mismatches():
    inst = make_arc_instance([(0, 1)], 3, 2)
    with pytest.raises(ValueError):
        arc_imbalance(inst, Coloring((1, 2), 2))
    with pytest.raises(ValueError):
        arc_imbalance(inst, Coloring((1,), 3))


def test_arc_imbalance_measures_wrap_gap_midpoint():
    # endpoints 2 and 8 each see both colors; only the interior of the
    # wrapping gap (witness 0, the wrap midpoint) exposes spread 1
    inst = make_arc_instance([(8, 4), (2, 6)], 10, 2)
    report = arc_imbalance(inst, Coloring((1, 2), 2))
    assert report.value == 1
    assert report.witness == 0


def _membership_case_pairs(rng, n, C):
    pairs = []
    for _ in range(n):
        start = Fraction(rng.randrange(0, 2 * C), 2)
        length = Fraction(rng.randrange(1, 2 * C), 2)
        kind = rng.randrange(4)
        if kind == 0:
            start = Fraction(0)
        elif kind == 1:
            start = C - length
        elif kind == 2:
            length += C - Fraction(1, 2)
        pairs.append((start, length))
    return pairs


def _assert_matches_membership(inst, col):
    report = arc_imbalance(inst, col)
    assert report.value == brute_force_arc_spread(inst, col)
    if inst.n:
        C = circumference_of(inst)
        assert 0 <= report.witness < C
        at_witness = [
            arc.id for arc in arcs_of(inst) if arc_contains(arc, C, report.witness)
        ]
        assert cell_spread([at_witness], col) == report.value


def test_arc_imbalance_matches_membership_reference():
    # arcs starting at 0, arcs ending exactly at the circumference, full
    # arcs and plain ones, for every n in 0..12 and k in 1..4
    rng = random.Random(107)
    C = 8
    for trial in range(260):
        n, k = trial % 13, trial % 4 + 1
        inst = make_arc_instance(_membership_case_pairs(rng, n, C), C, k)
        col = Coloring(tuple(rng.randint(1, k) for _ in range(n)), k)
        _assert_matches_membership(inst, col)


def test_arc_imbalance_matches_membership_reference_at_large_k():
    # k = 64 and 1024 with colors drawn from a few palette entries spread
    # over 1..k, so spreads vary and colors above n are remapped
    rng = random.Random(113)
    C = 8
    for trial in range(260):
        n, k = trial % 13, (64, 1024)[trial % 2]
        inst = make_arc_instance(_membership_case_pairs(rng, n, C), C, k)
        palette = rng.sample(range(1, k + 1), rng.randint(1, 4))
        col = Coloring(tuple(rng.choice(palette) for _ in range(n)), k)
        _assert_matches_membership(inst, col)


def test_arc_imbalance_cost_does_not_grow_with_k():
    rng = random.Random(109)
    k = 10**5
    inst = random_arc_instance(rng, 100, k, circumference=20)
    col = Coloring(tuple(rng.randint(1, k) for _ in range(inst.n)), k)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        report = arc_imbalance(inst, col)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.value == brute_force_arc_spread(inst, col)
    assert elapsed < 1.0
    assert peak < 4 << 20


def test_three_pairwise_intersecting_arcs_need_two():
    inst = make_arc_instance([(0, "1.5"), (1, "1.5"), (2, "1.5")], 3, 2)
    for colors in product((1, 2), repeat=3):
        assert arc_imbalance(inst, Coloring(colors, 2)).value >= 2
    value, witness = min_arc_imbalance_oracle(inst)
    assert value == 2
    assert arc_imbalance(inst, witness).value == 2
    assert arc_imbalance(inst, arc_color(inst)).value == 2


def test_arc_color_pure_interval_instance_stays_balanced():
    inst = make_arc_instance([(0, 1), ("0.5", 1), (1, 1), (2, 2)], 10, 2)
    assert arc_imbalance(inst, arc_color(inst)).value <= 1


def test_arc_color_full_plus_proper():
    inst = make_arc_instance([(0, 5), (2, 1)], 5, 2)
    assert arc_imbalance(inst, arc_color(inst)).value <= 2


def test_arc_color_random_instances_spread_at_most_two():
    rng = random.Random(83)
    for _ in range(150):
        k = rng.randint(2, 8)
        inst = random_arc_instance(rng, rng.randint(0, 100), k)
        assert arc_imbalance(inst, arc_color(inst)).value <= 2


def test_arc_color_no_zero_crossing_gives_balanced():
    rng = random.Random(89)
    for _ in range(60):
        k = rng.randint(2, 6)
        n = rng.randint(0, 40)
        pairs = []
        for _ in range(n):
            start = Fraction(rng.randrange(1, 20), 2)
            # closed arcs ending exactly at the zero angle contain it, so
            # stay strictly short of a full turn back to zero
            longest = 20 - start - Fraction(1, 2)
            length = Fraction(rng.randrange(1, max(2, int(2 * longest) + 1)), 2)
            pairs.append((start, min(length, longest)))
        inst = make_arc_instance(pairs, 20, k)
        assert arc_imbalance(inst, arc_color(inst)).value <= 1


def test_unfold_preserves_membership():
    # without full arcs each circle point has at most two line images and
    # every arc's interval contains exactly one image of each covered point
    rng = random.Random(97)
    for _ in range(40):
        k = rng.randint(2, 4)
        inst = random_arc_instance(rng, rng.randint(1, 30), k, full_rate=0.0)
        line = unfold(inst)
        C, arcs = circumference_of(inst), arcs_of(inst)
        samples = {arc.start for arc in arcs}
        samples |= {(arc.start + arc.length) % C for arc in arcs}
        samples |= {(arc.start + arc.length / 2) % C for arc in arcs}
        for p in samples:
            on_circle = {arc.id for arc in arcs if arc_contains(arc, C, p)}
            # p + C catches arcs ending exactly at the zero angle
            images = (p - C, p, p + C)
            on_line = {
                itv.id
                for itv in line.intervals
                if any(interval_contains(itv, x) for x in images)
            }
            assert on_circle == on_line


def test_oracle_bounds_algorithm():
    rng = random.Random(101)
    for _ in range(40):
        k = rng.randint(2, 3)
        inst = random_arc_instance(rng, rng.randint(0, 7), k, circumference=8)
        opt, _ = min_arc_imbalance_oracle(inst)
        got = arc_imbalance(inst, arc_color(inst)).value
        assert opt <= got <= 2


def test_oracle_rejects_large_instances():
    inst = random_arc_instance(random.Random(1), 13, 2)
    with pytest.raises(ValueError):
        min_arc_imbalance_oracle(inst)


def test_arc_instances_compare_by_identity_and_keep_their_fields():
    arcs = make_arc_instance([[0, 1], [1, 2]], 4, 2)
    twin = ArcInstance(arcs.line, arcs.turn)
    assert arcs == arcs and arcs != twin and len({arcs, twin}) == 2
    assert repr(arcs) == "ArcInstance(line=Instance(n=2, k=2, scale=1), turn=4)"
    with pytest.raises(AttributeError):
        arcs.turn = 5
    with pytest.raises(AttributeError):
        arcs.line = twin.line


def test_arc_instance_keys_and_equality_across_scales():
    halves = make_arc_instance([["1/2", 1], [0, "3/2"]], 2, 2)
    quarters = make_arc_instance([["2/4", 1], [0, "6/4"]], "8/4", 2)
    line = halves.line
    assert (line.keys, halves.turn, halves.scale) == ((1, 3, 0, 3), 4, 2)
    assert (halves.n, halves.k) == (2, 2)
    assert (quarters.scale, quarters.k) == (4, 2) and arcs_of(quarters) == arcs_of(halves)
    assert circumference_of(quarters) == circumference_of(halves) == 2
    again = make_arc_instance(
        [(a.start, a.length) for a in arcs_of(halves)], circumference_of(halves), 2
    )
    assert (again.line.keys, again.turn, again.scale) == (line.keys, halves.turn, halves.scale)
    other = make_arc_instance([["1/2", 1], [0, "3/2"]], 3, 2)
    assert arcs_of(other) == arcs_of(halves) and circumference_of(other) != circumference_of(halves)
    with pytest.raises(ValueError, match=r"arc 1 start 5/2 outside \[0, 2\)"):
        make_arc_instance([[0, 1], ["5/2", 1]], 2, 2)
    with pytest.raises(ValueError, match=r"arc length must be positive, got -1/2"):
        make_arc_instance([(0, "-1/2")], 2, 2)
    with pytest.raises(ValueError, match=r"arc length must be positive, got 0"):
        ArcInstance(Instance((1, 1), 2, 2), 4)
    with pytest.raises(ValueError, match=r"arc 0 start 2 outside \[0, 2\)"):
        ArcInstance(Instance((4, 5), 2, 2), 4)
    with pytest.raises(ValueError, match=r"circumference must be positive, got 0"):
        ArcInstance(Instance((), 2, 2), 0)
    with pytest.raises(TypeError):
        make_arc_instance([(0, 1)], 0.5, 2)  # float circumference
    with pytest.raises(AttributeError):
        halves.k = 3


def _differential_pairs(rng, kind, n, C):
    """(start, length) pairs on circumference C for one differential kind.

    Coordinates are thirds and halves; about a quarter of the arcs start at
    0 and a quarter end exactly at C.  "tiny" nudges half the starts by
    10**-30 and adds an arc of that length, so the keys pass _KEY_BITS and
    fall back to Fractions.
    """
    pairs = []
    for _ in range(n):
        step = Fraction(1, rng.choice((2, 3)))
        slots = int(C / step)
        start = step * rng.randrange(slots)
        if kind == "full" or (kind != "proper" and rng.random() < 0.2):
            length = C + step * rng.randrange(slots)
        else:
            length = step * rng.randrange(1, slots)
            roll = rng.random()
            if roll < 0.25:
                start = Fraction(0)
            elif roll < 0.5:
                start = C - length
        if kind == "tiny" and rng.random() < 0.5:
            start += Fraction(1, 10**30)
        pairs.append((start, length))
    if kind == "tiny":
        pairs.append((Fraction(0), Fraction(1, 10**30)))
    if kind == "wide":
        # one arc crossing zero and one ending at C: hull at least C wide
        pairs += [(C - 1, 2), (C - 3, 3), (0, C)]
    return pairs


@pytest.mark.parametrize("kind", ["proper", "mixed", "full", "wide", "tiny"])
def test_key_path_matches_the_fraction_reference(kind):
    rng = random.Random(f"arckeys/{kind}")
    for trial in range(60):
        C = Fraction(rng.randint(3, 9))
        k = rng.randint(1, 5)
        inst = make_arc_instance(_differential_pairs(rng, kind, rng.randint(0, 14), C), C, k)
        if kind == "tiny":
            assert inst.scale == 1 and type(inst.turn) is Fraction
        elif kind != "tiny":
            assert all(type(x) is int for x in inst.line.keys)
        line, ref_line = unfold(inst), reference_unfold(inst)
        assert line.k == ref_line.k and line.intervals == ref_line.intervals
        pieces, owners = _pieces(inst)
        ref_pieces, ref_owners = reference_pieces(inst)
        assert pieces.k == ref_pieces.k and pieces.intervals == ref_pieces.intervals
        assert owners == ref_owners
        coloring = arc_color(inst)
        assert coloring == k_color(ref_line)
        for col in (coloring, random_coloring(rng, inst.n, k)):
            report = arc_imbalance(inst, col)
            if not inst.n:
                assert (report.value, report.witness) == (0, None)
                continue
            expected = imbalance(ref_pieces, Coloring([col.colors[a] for a in ref_owners], k))
            assert (report.value, report.witness) == (expected.value, expected.witness)
            assert report.value == brute_force_arc_spread(inst, col)


def test_arc_paths_build_no_arc_and_skip_to_coord(tmp_path, monkeypatch, capsys):
    # the arc op reads integer keys and builds no arc object
    def refuse(*args):
        raise AssertionError(f"called on {args!r}")

    arcs = [[0, "3/2"], ["15/2", 2], ["1/3", 9], [4, "9/2"]]
    text = json.dumps({"k": 3, "circumference": "17/2", "arcs": arcs})
    path = tmp_path / "arcs.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(core, "to_coord", refuse)
    inst = parse_arc_json(text)
    assert arc_imbalance(inst, arc_color(inst)).value <= 2
    assert main(["arcs", "--input", str(path), "--k", "2"]) == 0
    assert main(["arcs", "--input", str(path)]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    third, half = Fraction(1, 3), Fraction(1, 2)
    assert arcs_of(inst) == (
        Arc(0, Fraction(0), 3 * half),
        Arc(1, 15 * half, Fraction(2)),
        Arc(2, third, Fraction(9)),
        Arc(3, Fraction(4), 9 * half),
    )
    assert circumference_of(inst) == 17 * half
