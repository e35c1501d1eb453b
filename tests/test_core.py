"""Core model: coordinates, normalization, imbalance, and the oracle."""

import dataclasses
import itertools
import json
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from intervalcolor import core
from intervalcolor.arcs import make_arc_instance
from intervalcolor.core import (
    Coloring,
    Instance,
    Interval,
    _covers,
    _point,
    _sweep,
    divisibility_predicts_zero,
    imbalance,
    make_instance,
    min_imbalance_oracle,
    normalize,
    to_coord,
)

from intervalcolor.formats import parse_instance_json
from intervalcolor.k_color import _deeper_than, k_color

from helpers import (
    block_max_depth,
    block_sweep,
    brute_force_counts,
    cell_spread,
    flags_of_cuts,
    random_coloring,
    random_instance,
    reference_imbalance,
    reference_ranking,
    steady_pair_seconds,
    steady_seconds,
)


def test_to_coord_accepts_exact_inputs():
    assert to_coord("0.5") == Fraction(1, 2)
    assert to_coord("1/3") == Fraction(1, 3)
    assert to_coord("-2") == Fraction(-2)
    assert to_coord(7) == Fraction(7)
    assert to_coord(Fraction(3, 4)) == Fraction(3, 4)


def test_to_coord_rejects_floats_and_garbage():
    with pytest.raises(TypeError):
        to_coord(0.5)
    with pytest.raises(TypeError):
        to_coord(True)
    with pytest.raises(ValueError):
        to_coord("abc")
    with pytest.raises(ValueError):
        to_coord("1/0")


def test_instance_requires_sequential_ids():
    # ids are positions: the intervals built on request carry 0..n-1
    inst = make_instance([[1, 1], [0, 2]], 2)  # a point interval is allowed
    assert inst.intervals == (
        Interval(0, Fraction(1), Fraction(1)), Interval(1, Fraction(0), Fraction(2))
    )
    with pytest.raises(ValueError):
        make_instance([[0, 1]], 0)
    with pytest.raises(ValueError, match="^3 keys: each interval needs a start and an end$"):
        Instance((0, 1, 2), 1, 2)
    # a negative scale would turn lo <= hi keys into lo > hi coordinates,
    # and scale 0 would divide by zero in a witness
    with pytest.raises(ValueError, match=r"^scale must be >= 1, got -1$"):
        Instance((0, 1, 1, 2), -1, 2)
    with pytest.raises(ValueError, match=r"^scale must be >= 1, got 0$"):
        Instance((0, 1, 1, 2), 0, 2)
    with pytest.raises(TypeError, match=r"^scale must be an int, not Fraction$"):
        Instance((0, 1), Fraction(1), 2)
    # a fractional k would surface as a broken invariant deep in k_color,
    # and k = True would color as k = 1
    with pytest.raises(TypeError, match=r"^k must be an int, not float$"):
        make_instance([[0, 1], [0, 1]], 2.5)
    with pytest.raises(TypeError, match=r"^k must be an int, not bool$"):
        make_instance([[0, 1]], True)


def test_coloring_validation():
    Coloring((1, 2, 1), 2)
    with pytest.raises(ValueError):
        Coloring((1, 3), 2)
    with pytest.raises(ValueError):
        Coloring((0,), 2)
    # the first bad color is named, and a color must be a plain int,
    # whatever min and max or a comparison would say of it
    with pytest.raises(ValueError, match=r"^color 5 at position 2 outside 1\.\.4$"):
        Coloring((2, 1, 5, 0), 4)
    with pytest.raises(TypeError, match=r"^color nan at position 1 is not an int$"):
        Coloring((1, float("nan"), 2), 2)
    with pytest.raises(TypeError, match=r"^color \[1\] at position 1 is not an int$"):
        Coloring((1, [1]), 2)
    with pytest.raises(TypeError, match=r"^color Fraction\(3, 2\) at position 0 is not an int$"):
        Coloring((Fraction(3, 2), 1), 2)
    with pytest.raises(TypeError, match=r"^color True at position 1 is not an int$"):
        Coloring((1, True), 2)
    with pytest.raises(TypeError, match=r"^k must be an int, not bool$"):
        Coloring((1,), True)
    with pytest.raises(TypeError, match=r"^k must be an int, not float$"):
        Coloring((1,), 2.0)


def test_normalize_shared_start_breaks_by_id():
    inst = make_instance([[0, 2], [0, 1]], 2)
    norm = normalize(inst)
    # slots: 2i the start of interval i, 2i + 1 its end
    assert norm.order == (0, 2, 3, 1)
    order, coords, cuts = reference_ranking(inst)
    assert coords == (0, 1, 2) and cuts == (0, 2, 2, 2, 3, 3, 4)
    # the starts at 0 close at rank 1, the ends at 1 and 2 at ranks 2 and 3
    assert norm.flags == bytes((0, 1, 1, 1)) == flags_of_cuts(order, cuts)


def test_normalize_touching_endpoints_keep_their_clique():
    inst = make_instance([[0, 1], [1, 2]], 2)
    norm = normalize(inst)
    assert norm.order == (0, 2, 1, 3)  # at x = 1 the start ranks first
    # the region between ranks 2 and 3 carries both intervals, like x = 1
    ranks = itertools.compress(range(len(norm.order)), norm.flags)
    cliques = {_point(inst, r): frozenset(ids) for r, ids in zip(ranks, _covers(inst))}
    assert cliques[Fraction(1)] == frozenset({0, 1})


def test_normalize_empty():
    inst = make_instance([], 2)
    norm = normalize(inst)
    assert (norm.order, norm.flags) == ((), b"")
    assert reference_ranking(inst) == ((), (), (0,))
    assert list(_covers(inst)) == []


def test_normalize_ranks_once_per_instance():
    inst = make_instance([[0, 2], [1, 3]], 2)
    norm = normalize(inst)
    imbalance(inst, Coloring((1, 2), 2))
    assert normalize(inst) is norm
    # a new instance with other k has its own ranking, equal in value
    other = Instance(inst.keys, inst.scale, 3)
    assert normalize(other) is not norm and normalize(other) == norm
    # a copy by dataclasses.replace does not carry the kept ranking over
    copy = dataclasses.replace(inst, k=3)
    assert copy._normalized is None
    assert normalize(copy) is not norm and normalize(copy) == norm


def test_events_are_a_rank_permutation():
    rng = random.Random(7)
    for _ in range(50):
        inst = random_instance(rng, rng.randint(0, 12), 2)
        norm = normalize(inst)
        order = norm.order
        assert sorted(order) == list(range(2 * inst.n))
        rank = {e: r for r, e in enumerate(order)}
        assert all(rank[2 * i] < rank[2 * i + 1] for i in range(inst.n))
        # blocks alternate starts and ends at strictly increasing
        # coordinates, and flags closes each nonempty one
        _, coords, cuts = reference_ranking(inst)
        assert norm.flags == flags_of_cuts(order, cuts)
        for b in range(len(cuts) - 1):
            for e in order[cuts[b] : cuts[b + 1]]:
                itv = inst.intervals[e // 2]
                assert e % 2 == b % 2  # an end in a block of ends
                x = itv.hi if e % 2 else itv.lo
                assert x == coords[b // 2]
            block = list(order[cuts[b] : cuts[b + 1]])
            ids = [e // 2 for e in block]
            assert ids == sorted(ids)  # ties break by interval id


def test_normalize_exact_on_float_ties_and_overflow():
    tiny = Fraction(1, 10**30)
    inst = make_instance([[1 + tiny, 2], [1, 1 + tiny], [1, 2]], 2)
    assert float(1 + tiny) == 1.0
    norm = normalize(inst)
    order, coords, cuts = reference_ranking(inst)
    assert coords == (1, 1 + tiny, 2)
    assert norm.order == order == (2, 4, 0, 3, 1, 5)
    assert norm.flags == flags_of_cuts(order, cuts) == bytes((0, 1, 1, 1, 0, 1))
    huge = 10**400  # beyond float range: the exact fallback sorts
    inst = make_instance([[huge, huge + 1], [-huge, huge]], 2)
    norm = normalize(inst)
    order, coords, cuts = reference_ranking(inst)
    assert coords == (-huge, huge, huge + 1)
    assert norm.order == order == (2, 0, 3, 1)
    assert norm.flags == flags_of_cuts(order, cuts) == bytes((1, 1, 1, 1))


GRAMMAR_CASES = [
    " 3", "+3", "1_000", "\u0663", "007", "-0/5", "3/0", "3/-2", "0.25", "1e3",
    "1/2 ", "", True, 0.5, 10**400, "1e1000000",
]


def outcome(read, value):
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("value", GRAMMAR_CASES, ids=lambda v: ascii(v)[:12])
def test_coordinate_split_matches_to_coord(value):
    # the integer split accepts and rejects what to_coord does, same value,
    # same error
    def through_instance(v):
        return make_instance([[v, v]], 2).intervals[0].lo

    expected = outcome(to_coord, value)
    if value == "1e1000000":  # a million digits: refused before they are built
        limit = sys.get_int_max_str_digits()
        message = f"not a valid coordinate: '1e1000000' passes the {limit}-digit limit"
        assert expected == (ValueError, message)
    assert outcome(lambda v: Fraction(*core._split(v)), value) == expected
    assert outcome(through_instance, value) == expected


def test_decimal_exponents_stop_at_the_int_digit_limit():
    # the written digits plus the exponent may not pass the limit a long
    # digit string meets; arcs read coordinates through the same split
    limit = sys.get_int_max_str_digits()
    assert to_coord(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert to_coord(f"-2.5E-{limit - 2}") == Fraction(-25, 10 ** (limit - 1))
    for value in (f"1e{limit}", f"1e-{limit}", f"25e+{limit - 1}"):
        with pytest.raises(ValueError, match=f"passes the {limit}-digit limit"):
            to_coord(value)
        with pytest.raises(ValueError, match=f"passes the {limit}-digit limit"):
            make_arc_instance([[0, value]], 3, 2)


def test_ints_ratios_and_fractions_skip_to_coord(monkeypatch):
    def refuse(value):
        raise AssertionError(f"to_coord called on {value!r}")

    monkeypatch.setattr(core, "to_coord", refuse)
    inst = make_instance([[0, "1/2"], ["-3/4", 7], [Fraction(1, 3), 10**400]], 2)
    assert inst.scale == 12
    assert inst.intervals[1].lo == Fraction(-3, 4)


def test_split_reads_directly_exactly_the_int_and_ratio_strings(monkeypatch):
    # every string of up to four characters from an alphabet of digits,
    # signs, separators, whitespace and non-ASCII digits is read directly
    # when the pattern below accepts it with a nonzero denominator, and
    # handed to to_coord otherwise
    pattern = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch
    handed = []
    monkeypatch.setattr(core, "to_coord", lambda v: handed.append(v) or Fraction(0))
    for size in range(5):
        for chars in itertools.product("-/07 +_.\u00b2\u0663", repeat=size):
            value = "".join(chars)
            match = pattern(value)
            direct = match is not None and int(match[2] or 1) != 0
            handed.clear()
            pair = core._split(value)
            assert handed == ([] if direct else [value]), value
            if direct:
                assert Fraction(*pair) == Fraction(value)
    limit = sys.get_int_max_str_digits()
    for value in ("1" * (limit + 1), "1/" + "2" * (limit + 1)):  # int() refuses these
        handed.clear()
        core._split(value)
        assert handed == [value]


def test_instance_keys_and_equality_across_scales():
    halves = make_instance([["1/2", 1], [0, "3/2"]], 2)
    quarters = make_instance([["2/4", 1], [0, "6/4"]], 2)
    assert (halves.keys, halves.scale) == ((1, 2, 0, 3), 2)
    assert quarters.scale == 4 and quarters.intervals == halves.intervals
    assert make_instance([["1/2", 1], [0, 2]], 2).intervals != halves.intervals
    with pytest.raises(ValueError, match=r"interval 1: lo 3/2 > hi 1/2"):
        make_instance([[0, 1], ["3/2", "1/2"]], 2)
    with pytest.raises(ValueError, match=r"interval 0: lo 3/2 > hi 1/2"):
        Instance((3, 1), 2, 2)
    # the first pair, the last, and a key count that leaves a start alone
    with pytest.raises(ValueError, match=r"^interval 0: lo 2 > hi 1$"):
        Instance((2, 1, 0, 5, 1, 1), 1, 2)
    with pytest.raises(ValueError, match=r"^interval 2: lo 3/2 > hi 1/2$"):
        Instance((0, 1, 1, 1, 3, 1), 2, 2)
    with pytest.raises(ValueError, match=r"^5 keys: each interval needs a start and an end$"):
        Instance((0, 1, 1, 2, 3), 1, 2)
    with pytest.raises(ValueError, match=r"^interval 1: lo 3 > hi 1$"):
        make_instance([[0, 1], [3, 1], [5, 2]], 2)


def quarter_string(v):
    """Decimal string of v / 4, such as "-1.25"."""
    sign, v = ("-", -v) if v < 0 else ("", v)
    return f"{sign}{v // 4}.{v % 4 * 25:02d}"


COORDINATE_KINDS = {
    "ints": lambda rng: rng.randrange(-20, 20),
    "halves": lambda rng: f"{rng.randrange(-40, 40)}/2",
    "decimals": lambda rng: quarter_string(rng.randrange(-80, 80)),
    "huge": lambda rng: rng.choice((-1, 1)) * 10**400 + rng.randrange(-6, 6),
    # denominators near 10**30 pass the key width: Fraction keys
    "tiny": lambda rng: rng.randrange(-3, 3) + Fraction(rng.randrange(1, 6), 10**30),
}


def random_keyed_instance(rng, kind, n, k):
    """Seeded instance whose coordinates are drawn as COORDINATE_KINDS says.

    Endpoints repeat through a shared pool, and about one interval in five
    is a point.
    """
    draws = list(COORDINATE_KINDS.values()) if kind == "mixed" else [COORDINATE_KINDS[kind]]
    pool = [rng.choice(draws)(rng) for _ in range(max(2, n // 2))]

    def coord():
        return rng.choice(pool) if rng.random() < 0.4 else rng.choice(draws)(rng)

    bounds = []
    for _ in range(n):
        a = coord()
        b = a if rng.random() < 0.2 else coord()
        bounds.append((a, b) if to_coord(a) <= to_coord(b) else (b, a))
    return make_instance(bounds, k)


@pytest.mark.parametrize("kind", [*COORDINATE_KINDS, "mixed"])
def test_ranking_matches_the_fraction_sort(kind):
    rng = random.Random(f"keys/{kind}")
    for _ in range(60):
        inst = random_keyed_instance(rng, kind, rng.randint(0, 20), rng.randint(1, 4))
        if kind == "tiny" and inst.n:
            assert inst.scale == 1 and all(type(x) is Fraction for x in inst.keys)
        elif kind != "mixed":
            assert all(type(x) is int for x in inst.keys)
        norm = normalize(inst)
        # the Fraction sort of (coordinate, end, id), each event mapped to
        # its slot 2 * id + end: the same event at every rank
        order, _, cuts = reference_ranking(inst)
        assert (norm.order, norm.flags) == (order, flags_of_cuts(order, cuts))
        # the same intervals read back from their coordinates rank alike
        again = normalize(make_instance([(x.lo, x.hi) for x in inst.intervals], inst.k))
        assert again == norm
        col = random_coloring(rng, inst.n, inst.k)
        report = imbalance(inst, col)
        assert (report.value, report.witness) == reference_imbalance(inst, col)
        counts = brute_force_counts(inst, col, report.witness)
        assert max(counts, default=0) - min(counts, default=0) == report.value


@pytest.mark.parametrize("kind", ["mixed", "tiny"])
def test_rank_walks_match_the_block_walks(kind):
    # equal starts, equal ends, touching pairs and points come from the
    # shared pool; "tiny" ranks Fraction keys, and k above n remaps slots
    rng = random.Random(f"ranks/{kind}")
    for n in range(15):
        for _ in range(25):
            k = rng.choice((rng.randint(1, 4), n + rng.randint(1, 5)))
            inst = random_keyed_instance(rng, kind, n, k)
            norm = normalize(inst)
            order, coords, cuts = reference_ranking(inst)
            assert norm.order == order
            assert norm.flags == flags_of_cuts(order, cuts)
            cols = random_coloring(rng, n, k).colors
            value, s = block_sweep(inst, cols)
            # the sweep's rank is the last of sample s's block, and its
            # point is sample s: coords[g] for s = 2g, else the midpoint
            r = None if s is None else cuts[s + 1] - 1
            assert _sweep(inst, cols) == (value, r)
            witness = Fraction(0)
            if s is not None:
                g = s // 2
                witness = coords[g] if s % 2 == 0 else (coords[g] + coords[g + 1]) / 2
                assert _point(inst, r) == witness
            assert (value, witness) == reference_imbalance(inst, Coloring(cols, k))
            assert imbalance(inst, Coloring(cols, k)).witness == witness
            assert _deeper_than(norm.order, k) == (k < block_max_depth(cuts))
            depths = [sum(-1 if e % 2 else 1 for e in order[:c]) for c in cuts]
            assert divisibility_predicts_zero(inst) == all(d % k == 0 for d in depths)
            assert divisibility_predicts_zero(Instance(inst.keys * 2, inst.scale, 2))


@pytest.mark.parametrize("kind", ["mixed", "tiny"])
def test_every_measure_samples_at_the_flagged_ranks(kind):
    # one sample index: cover set s of _covers, the point _point builds for
    # the s-th flagged rank and the rank _sweep returns name the same sample
    rng = random.Random(f"samples/{kind}")
    for n in range(13):
        for _ in range(20):
            k = rng.choice((rng.randint(1, 4), n + rng.randint(1, 3)))
            inst = random_keyed_instance(rng, kind, n, k)
            ranks = [*itertools.compress(range(2 * n), normalize(inst).flags)][:-1]
            covers = list(_covers(inst))
            assert len(covers) == len(ranks)
            for r, ids in zip(ranks, covers):
                x = _point(inst, r)
                assert len(set(ids)) == len(ids)
                assert set(ids) == {itv.id for itv in inst.intervals if itv.lo <= x <= itv.hi}
            col = random_coloring(rng, n, k)
            spreads = [cell_spread([ids], col) for ids in covers]
            value = max(spreads, default=0)
            r = ranks[spreads.index(value)] if value else None
            assert _sweep(inst, col.colors) == (value, r)
            report = imbalance(inst, col)
            assert report.value == value
            assert report.witness == (Fraction(0) if r is None else _point(inst, r))


def first_primes(count):
    limit = 50_000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    primes = [p for p in range(limit) if sieve[p]]
    assert len(primes) >= count
    return primes[:count]


def test_hostile_denominators_stay_bounded():
    # every endpoint has its own prime denominator, so their lcm would
    # have tens of thousands of bits; past the key width the instance
    # ranks the Fractions instead, and time and memory stay small
    n = 2000
    primes = first_primes(2 * n)
    rng = random.Random(29)
    intervals = []
    for p, q in zip(primes[::2], primes[1::2]):
        a, b = (rng.randrange(1, 1000 * p), p), (rng.randrange(1, 1000 * q), q)
        if a[0] * b[1] > b[0] * a[1]:
            a, b = b, a
        intervals.append([f"{a[0]}/{a[1]}", f"{b[0]}/{b[1]}"])
    text = json.dumps({"k": 3, "intervals": intervals})
    tracemalloc.start()
    try:
        started = time.perf_counter()
        inst = parse_instance_json(text)
        value = imbalance(inst, k_color(inst)).value
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.scale == 1 and value <= 1
    assert elapsed < 10, f"{elapsed:.1f} s"
    assert peak < 4 << 20, f"peak {peak / 2**20:.1f} MB"


def test_imbalance_monochromatic_overlap():
    inst = make_instance([[0, 2], [1, 3]], 2)
    report = imbalance(inst, Coloring((1, 1), 2))
    assert report.value == 2
    assert Fraction(1) <= report.witness <= Fraction(2)


def test_imbalance_counts_unused_colors():
    inst = make_instance([[0, 1]], 3)
    assert imbalance(inst, Coloring((1,), 3)).value == 1


def test_imbalance_three_interval_example():
    # at x = 0 only ids 0 and 2 are present; coloring them alike costs 2
    inst = make_instance([[0, 2], [1, 3], [0, 3]], 2)
    assert imbalance(inst, Coloring((1, 2, 1), 2)).value == 2
    assert imbalance(inst, Coloring((1, 1, 2), 2)).value == 1


def test_imbalance_identical_intervals_can_cancel():
    inst = make_instance([[0, 1], [0, 1]], 2)
    assert imbalance(inst, Coloring((1, 2), 2)).value == 0


def test_imbalance_argument_mismatches():
    inst = make_instance([[0, 1]], 2)
    with pytest.raises(ValueError):
        imbalance(inst, Coloring((1, 2), 2))
    with pytest.raises(ValueError):
        imbalance(inst, Coloring((1,), 3))


def brute_force_value(inst, col):
    """Largest spread of the direct counts at every endpoint and gap midpoint."""
    xs = sorted({x for itv in inst.intervals for x in (itv.lo, itv.hi)})
    points = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    counts = [brute_force_counts(inst, col, x) for x in points]
    return max((max(c) - min(c) for c in counts), default=0)


def test_imbalance_report_regions_attain_value():
    rng = random.Random(11)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(1, 15), rng.randint(1, 4))
        col = random_coloring(rng, inst.n, inst.k)
        report = imbalance(inst, col)
        assert report.value == brute_force_value(inst, col)
        witness_counts = brute_force_counts(inst, col, report.witness)
        assert max(witness_counts) - min(witness_counts) == report.value


def test_sweep_counts_match_direct_counting():
    rng = random.Random(13)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(0, 20), rng.randint(1, 4))
        col = random_coloring(rng, inst.n, inst.k)
        assert imbalance(inst, col).value == brute_force_value(inst, col)


def test_imbalance_with_more_colors_than_intervals():
    # colors above n are counted in dense slots; value and witness stay
    # those of direct counting
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(0, 12)
        k = n + 2 + rng.choice((0, 1, 5, 100))
        inst = random_instance(rng, n, k)
        palette = rng.sample(range(1, k + 1), rng.randint(1, 3))
        if rng.random() < 0.5:
            col = Coloring(tuple(rng.choice(palette) for _ in range(n)), k)
        else:
            col = random_coloring(rng, n, k)
        report = imbalance(inst, col)
        assert report.value == brute_force_value(inst, col)
        witness_counts = brute_force_counts(inst, col, report.witness)
        assert max(witness_counts) - min(witness_counts) == report.value


def test_imbalance_memory_does_not_grow_with_k():
    k = 10**7
    inst = make_instance([[0, 2], [1, 3], [2, 4]], k)
    col = Coloring((1, k, 1), k)
    tracemalloc.start()
    try:
        report = imbalance(inst, col)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.value, report.witness) == (2, 2)
    assert peak < 1 << 20


def test_imbalance_matches_reference_at_every_k():
    # k below, at and just above n, and far above it; palettes of a few
    # colors, some above n, leave most colors absent from every point
    rng = random.Random(23)
    for trial in range(400):
        n = rng.randint(0, 14)
        k = (1, 2, 3, 8, max(1, n - 1), n or 1, n + 1, n + 102)[trial % 8]
        inst = random_instance(rng, n, k)
        if trial % 16 < 8:
            col = random_coloring(rng, n, k)
        else:
            palette = rng.sample(range(1, k + 1), min(k, rng.randint(1, 3)))
            if k > n:
                palette.append(rng.randint(n + 1, k))
            col = Coloring(tuple(rng.choice(palette) for _ in range(n)), k)
        report = imbalance(inst, col)
        assert (report.value, report.witness) == reference_imbalance(inst, col)


def test_imbalance_time_does_not_grow_with_k():
    # every count is 0 or 1 at k = n - 1 on nested intervals, and a scan
    # of the count slots at each coordinate took 18 s at this size
    n = 16000
    inst = make_instance([(i, n + i) for i in range(n)], n - 1)
    col = Coloring(tuple(i % (n - 1) + 1 for i in range(n)), n - 1)
    assert imbalance(inst, col).value == 1
    assert steady_seconds(lambda: imbalance(inst, col)) < 1.0


def test_imbalance_invariant_under_color_relabeling():
    rng = random.Random(17)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(1, 12), rng.randint(2, 4))
        col = random_coloring(rng, inst.n, inst.k)
        perm = list(range(1, inst.k + 1))
        rng.shuffle(perm)
        relabeled = Coloring(tuple(perm[c - 1] for c in col.colors), inst.k)
        assert imbalance(inst, col).value == imbalance(inst, relabeled).value


def test_is_balanced_examples():
    assert imbalance(make_instance([], 5), Coloring((), 5)).value <= 1
    inst = make_instance([[0, 2], [1, 3]], 2)
    assert not imbalance(inst, Coloring((1, 1), 2)).value <= 1
    assert imbalance(inst, Coloring((1, 2), 2)).value <= 1


def test_divisibility_examples():
    assert divisibility_predicts_zero(make_instance([[0, 1], [0, 1]], 2))
    assert not divisibility_predicts_zero(make_instance([[0, 1]], 2))
    assert not divisibility_predicts_zero(make_instance([[0, 2], [1, 3], [0, 3]], 3))


def test_normalize_is_clique_complete():
    rng = random.Random(19)
    for _ in range(150):
        inst = random_instance(rng, rng.randint(0, 10), 2, collide=0.5)
        rank_cliques = {frozenset()}
        active = set()
        for e in normalize(inst).order:
            if e % 2:
                active.discard(e // 2)
            else:
                active.add(e // 2)
            rank_cliques.add(frozenset(active))
        ranks = itertools.compress(range(2 * inst.n), normalize(inst).flags)
        for r, ids in zip(ranks, _covers(inst)):
            point = _point(inst, r)
            assert {itv.id for itv in inst.intervals if itv.lo <= point <= itv.hi} == set(ids)
            assert frozenset(ids) in rank_cliques


def test_oracle_examples():
    value, col = min_imbalance_oracle(make_instance([[0, 2], [1, 3], [0, 3]], 2))
    assert value == 1
    value, col = min_imbalance_oracle(make_instance([[0, 1], [0, 1]], 2))
    assert value == 0
    assert col.colors == (1, 2)  # lexicographically smallest minimizer
    value, _ = min_imbalance_oracle(make_instance([[0, 1]], 2))
    assert value == 1


def test_oracle_empty_and_limit(monkeypatch):
    value, col = min_imbalance_oracle(make_instance([], 3))
    assert value == 0 and col.colors == ()
    big = make_instance([[i, i + 1] for i in range(13)], 2)
    with pytest.raises(ValueError):
        min_imbalance_oracle(big)
    monkeypatch.setattr(core, "MAX_ORACLE_N", 13)
    min_imbalance_oracle(big)


def test_oracle_with_far_more_colors_than_intervals():
    # unused colors are interchangeable, so the search tries only one of
    # them per interval and a huge k costs what k = n + 1 does
    inst = make_instance([[0, 3], [1, 4], [2, 5], [0, 5]], 10**9)
    value, col = min_imbalance_oracle(inst)
    assert value == 1 and col.colors == (1, 2, 3, 4)


def test_oracle_lexicographic_tie_break():
    # both (1,2) and (2,1) reach value 1; the oracle must pick (1,2)
    inst = make_instance([[0, 1], [0, 1], [0, 1]], 2)
    value, col = min_imbalance_oracle(inst)
    assert value == 1
    assert col.colors == (1, 1, 2) or col.colors[0] == 1
    full = [Coloring((a, b, c), 2) for a in (1, 2) for b in (1, 2) for c in (1, 2)]
    minimizers = sorted(
        c.colors for c in full if imbalance(inst, c).value == value
    )
    assert col.colors == minimizers[0]


def test_oracle_value_is_zero_or_one_and_matches_divisibility():
    rng = random.Random(23)
    for _ in range(120):
        inst = random_instance(rng, rng.randint(0, 8), rng.randint(2, 4))
        value, col = min_imbalance_oracle(inst)
        assert value in (0, 1)
        assert imbalance(inst, col).value == value
        assert (value == 0) == divisibility_predicts_zero(inst)


def test_point_cliques_stays_near_linear():
    # the coverage walk, building each sample's set of covering intervals,
    # costs each sample the intervals covering it, so quadrupling n costs
    # about 4x; a bitmask walk, O(n / word) per event, made it 9x here
    def shaped(n):
        rng = random.Random(n)
        starts = [rng.randrange(4 * n) for _ in range(n)]
        return make_instance([(a, a + rng.randrange(201)) for a in starts], 2)

    small, big = shaped(2500), shaped(10000)
    normalize(small), normalize(big)
    def cliques(inst):
        return tuple(map(frozenset, _covers(inst)))

    seconds = steady_pair_seconds(lambda: cliques(small), lambda: cliques(big), reps=3)
    assert seconds[1] < 6 * seconds[0], seconds
