"""Online harness, builtin strategies, and the unbounded-imbalance adversary."""

import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from intervalcolor import online
from intervalcolor.core import (
    Coloring,
    Instance,
    InvariantViolation,
    imbalance,
    make_instance,
)
from intervalcolor.formats import coord_json, format_transcript_jsonl
from intervalcolor.k_color import k_color
from intervalcolor.online import (
    ALGORITHM_NAMES,
    MAX_PRESENTATIONS,
    GreedyLeastLoaded,
    OnlineAlgorithm,
    RoundRobin,
    SeededRandom,
    _Session,
    _packed_trace,
    adversary_general,
    make_algorithm,
    run_online,
)
from helpers import (
    AlwaysColor,
    Replay,
    reference_adversary,
    reference_trace,
    region_counts,
    steady_seconds,
)


class BadAlgorithm(OnlineAlgorithm):
    """Answers every arrival with one fixed color, 0 unless told."""

    def __init__(self, color=0):
        self.color = color

    def reset(self, k):
        pass

    def assign(self, lo, hi):
        return self.color


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
    with pytest.raises(ValueError, match=r"^algorithm returned color 0, outside 1\.\.2$"):
        run_online(BadAlgorithm(), make_instance([(0, 1)], 2))
    # a color equal to 1 that is no int is refused, not recorded
    for color in (1.0, True):
        message = rf"^algorithm returned color {color!r}, not an int$"
        with pytest.raises(TypeError, match=message):
            run_online(BadAlgorithm(color), make_instance([(0, 1)], 2))
        with pytest.raises(TypeError, match=message):
            adversary_general(BadAlgorithm(color), 2, 3)


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
    tr = adversary_general(AlwaysColor(1), 2, 4)
    assert region_counts(tr)[1][-1] == 4
    assert tr.final_imbalance >= 4


def test_adversary_k2_always_minus_one():
    tr = adversary_general(AlwaysColor(2), 2, 3)
    assert region_counts(tr)[0][-1] == -3
    assert tr.final_imbalance >= 3


def test_adversary_k2_round_arguments():
    with pytest.raises(ValueError):
        adversary_general(RoundRobin(), 2, 0)
    with pytest.raises(ValueError):
        adversary_general(RoundRobin(), 1, 5)


def test_adversary_k2_signed_accounting_per_round():
    # after each round: simb(R) = p and simb(L) = p - m, where p and m
    # count the color-1 and color-2 answers so far
    for name in ALGORITHM_NAMES:
        tr = adversary_general(make_algorithm(name, seed=3), 2, 40)
        simb_l, simb_r = region_counts(tr)
        p = m = 0
        for i, color in enumerate(tr.colors):
            if color == 1:
                p += 1
            else:
                m += 1
            assert simb_r[i] == p
            assert simb_l[i] == p - m
            assert tr.trace[i] >= max(abs(simb_r[i]), abs(simb_l[i]))


def test_adversary_startpoints_strictly_increase():
    tr = adversary_general(make_algorithm("seeded_random", seed=5), 2, 50)
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
                tr = adversary_general(make_algorithm(name, seed=seed), 2, t)
                assert tr.final_imbalance >= math.ceil(t / 3), (name, seed, t)


def test_adversary_transcripts_are_balanced_offline():
    # the gap is about online-ness, not about the instances themselves
    for name in ALGORITHM_NAMES:
        tr = adversary_general(make_algorithm(name, seed=9), 2, 45)
        inst = tr.instance
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


def test_repeat_budget_changes_nothing_for_k2():
    # two colors leave nothing to re-present, so the budget is 1 and the
    # scale 2^(t + 3) whatever is passed
    for name in ALGORITHM_NAMES:
        tr = adversary_general(make_algorithm(name, seed=2), 2, 10)
        assert tr.instance.scale == 1 << 13
        for budget in (1, 2, 5, 10**6):
            other = adversary_general(make_algorithm(name, seed=2), 2, 10, repeat_budget=budget)
            assert other.instance.scale == tr.instance.scale
            assert (other.instance.keys, other.colors, other.trace) == (
                tr.instance.keys, tr.colors, tr.trace,
            )


def test_adversary_general_rate_with_default_budget():
    for k in (3, 5, 8):
        for name in ALGORITHM_NAMES:
            for t in (6, 30):
                tr = adversary_general(make_algorithm(name, seed=4), k, t)
                assert tr.final_imbalance >= math.ceil(t / 3), (k, name, t)


def test_adversary_general_signed_accounting_with_storms():
    tr = adversary_general(make_algorithm("seeded_random", seed=12), 4, 25)
    simb_l, simb_r = region_counts(tr)
    p = m = rounds = 0
    for color in tr.colors:
        if color > 2:
            continue
        if color == 1:
            p += 1
        else:
            m += 1
        assert simb_r[rounds] == p
        assert simb_l[rounds] == p - m
        rounds += 1
    assert rounds == 25


def prefix_imbalances(intervals, colors, k):
    """The oracle: imbalance of every prefix, each read from its
    coordinates and ranked from scratch."""
    bounds = [(itv.lo, itv.hi) for itv in intervals]
    return tuple(
        imbalance(make_instance(bounds[:i], k), Coloring(tuple(colors[:i]), k)).value
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


def test_greedy_cost_does_not_grow_with_k():
    # the greedy's colors are always 1..u, so it keeps u counts, not k
    rng = random.Random(65)
    for _ in range(40):
        n = rng.randint(0, 25)
        inst = random_stream(rng, n, n + 5)
        greedy, _ = run_online(GreedyLeastLoaded(), inst)
        assert greedy.colors == greedy_reference(inst.intervals, n + 5)
    inst = make_instance([(i, i + 5) for i in range(200)], 10**6)
    assert steady_seconds(lambda: run_online(GreedyLeastLoaded(), inst)) < 0.5


def test_run_online_trace_matches_prefix_oracle_up_to_200():
    # longer streams keep many right ends alive and drop many at once;
    # k beyond n leaves colors unused, so an absent color holds the minimum
    rng = random.Random(63)
    for _ in range(24):
        k = rng.choice((1, 2, 3, 4, 5, 40, 500))
        inst = random_stream(rng, rng.randint(0, 200), k)
        for name in ALGORITHM_NAMES:
            coloring, trace = run_online(make_algorithm(name, seed=8), inst)
            assert trace == prefix_imbalances(inst.intervals, coloring.colors, k), (k, name)


@pytest.mark.parametrize("shape", ["nested", "staircase"])
def test_run_online_trace_on_nested_and_staircase_streams(shape):
    # nested: [i, N - i], every right end new and lowest; staircase:
    # [i, N + i], every interval alive and every right end new and highest
    N = 90
    bounds = [(i, N - i) for i in range(N // 2)] if shape == "nested" else [
        (i, N + i) for i in range(N)
    ]
    for k in (2, 3, 7):
        inst = make_instance(bounds, k)
        for name in ALGORITHM_NAMES:
            coloring, trace = run_online(make_algorithm(name, seed=k), inst)
            assert trace == prefix_imbalances(inst.intervals, coloring.colors, k), (k, name)


class ManyColors(OnlineAlgorithm):
    """Color 1, each of colors 3..k once, then color 2: against the
    adversary all k colors come into use and then every right end rises."""

    def reset(self, k):
        self.answers = iter(range(3, k + 1))
        self.first = True

    def assign(self, lo, hi):
        if self.first:
            self.first = False
            return 1
        return next(self.answers, 2)


def adversary_runs():
    """Transcripts of every builtin for k = 2..5, of a constant untracked
    color that exhausts a small repeat budget, of an algorithm that puts
    every color in use, and of random colors from a million."""
    for k in (2, 3, 4, 5):
        for name in ALGORITHM_NAMES:
            yield adversary_general(make_algorithm(name, seed=k), k, 12)
        yield adversary_general(make_algorithm("seeded_random", seed=k), k, 20, repeat_budget=2)
    for k in (3, 4, 5):
        yield adversary_general(AlwaysColor(3), k, 12, repeat_budget=4)
    for k in (3, 7, 12):
        yield adversary_general(ManyColors(), k, 12)
    yield adversary_general(make_algorithm("seeded_random", seed=6), 10**6, 12)


def test_adversary_trace_matches_prefix_oracle():
    for tr in adversary_runs():
        assert tr.trace == prefix_imbalances(tr.presented, tr.colors, tr.instance.k), tr.colors
        assert tr.final_imbalance == tr.trace[-1]


def test_region_counts_take_one_round_per_tracked_answer_or_break():
    # consecutive rounds end at different right ends, so the runs of equal
    # right end are the rounds: one per tracked answer, and one more when
    # a round spends its budget on untracked colors and the run breaks off
    broke = 0
    for tr in adversary_runs():
        rounds = sum(color <= 2 for color in tr.colors) + (tr.colors[-1] > 2)
        simb_l, simb_r = region_counts(tr)
        assert len(simb_l) == len(simb_r) == rounds
        broke += tr.colors[-1] > 2
    assert broke >= 3  # the budget-exhausted break path ran


def test_count_lists_stay_within_the_colors_in_use():
    # one packed column per color in use, however large k is: at k = 10^9
    # the pass allocates what it does at k = 7, where the six colors in use
    # leave one unused
    inst = make_instance([(i, 10 + i) for i in range(6)], 10**9)
    colors = run_online(RoundRobin(), inst)[0].colors
    peaks = []
    for k in (7, 10**9):
        tracemalloc.start()
        trace = _packed_trace(inst.keys, colors, k)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert trace == [1] * 6
    assert peaks[1] <= peaks[0] + 1024, peaks


def test_break_path_probes_left_of_the_latest_start():
    # a round that spends its budget moves neither region: L's midpoint 1/2
    # lies left of the stacked copies' last start 47/64, and none of them
    # carries a tracked color
    tr = adversary_general(AlwaysColor(3), 3, 30, repeat_budget=5)
    assert tr.presented[-1].lo == Fraction(47, 64)
    assert {itv.hi for itv in tr.presented} == {Fraction(5, 2)}
    assert region_counts(tr) == ((0,), (0,))


def test_greedy_rejects_decreasing_startpoints():
    greedy = GreedyLeastLoaded()
    greedy.reset(2)
    greedy.assign(1, 2)
    with pytest.raises(ValueError):
        greedy.assign(0, 3)


def edge_streams():
    """Equal starts and ends, touching and zero-length intervals."""
    yield [(0, 1)] * 6
    yield [(0, 3), (0, 3), (0, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 5)]
    yield [(i // 2, i // 2) for i in range(8)]
    yield [(0, 4), (1, 4), (1, 2), (2, 4), (4, 4), (4, 5), (5, 5), (5, 9)]


def colorings(rng, inst):
    """The three shipped algorithms, round robin among them, which puts all
    k colors in use once the stream is long enough, a constant color, and
    random colors."""
    k = inst.k
    for name in ALGORITHM_NAMES:
        yield run_online(make_algorithm(name, seed=rng.randrange(100)), inst)[0].colors
    yield run_online(AlwaysColor(rng.randint(1, min(k, 3))), inst)[0].colors
    yield tuple(rng.randint(1, min(k, 4)) for _ in range(inst.n))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 10**6])
def test_trace_pass_matches_the_prefix_oracle_and_the_reference_session(k):
    # the packed pass against an imbalance of every prefix, ranked from
    # scratch, and against the per-group sweep it replaced; keys are ints
    # at the instance's scale, or the Fraction coordinates at scale 1
    rng = random.Random(66 + k)
    instances = [make_instance(bounds, k) for bounds in edge_streams()]
    instances += [random_stream(rng, rng.randint(1, 30), k) for _ in range(8)]
    # 3k intervals (at most 27) alive together, right ends falling and repeating
    instances.append(make_instance([(i, 40 - i % 5) for i in range(3 * min(k, 9))], k))
    instances += [
        Instance([x for itv in inst.intervals for x in (itv.lo, itv.hi)], 1, k)
        for inst in instances[-3:]
    ]
    for inst in instances:
        for colors in colorings(rng, inst):
            expected = prefix_imbalances(inst.intervals, colors, k)
            assert tuple(_packed_trace(inst.keys, colors, k)) == expected, (k, colors)
            assert reference_trace(inst.intervals, colors, k) == expected
            assert run_online(Replay(colors), inst) == (Coloring(colors, k), expected)


def test_trace_pass_takes_wider_fields_past_2_to_the_15():
    # 2^15 + 1 intervals share one right end, so a count passes 2^15 and
    # the fields are 32 bits wide; with two or three colors in use
    n = (1 << 15) + 1
    for k, colors in (
        (2, [1] * n),
        (2, [1] * (n - 1) + [2]),
        (3, [1 + (i % 7 == 0) + (i % 11 == 0) for i in range(n)]),
    ):
        inst = make_instance([(i, n) for i in range(n)], k)
        trace = _packed_trace(inst.keys, colors, k)
        assert tuple(trace) == reference_trace(inst.intervals, colors, k)
        assert trace[-1] == imbalance(inst, Coloring(tuple(colors), k)).value


def test_difference_column_takes_wider_fields_past_2_to_the_14():
    # the k = 2 column biases every field by 2^(w - 2), so a lead of n
    # needs n < 2^(w - 2): 2^14 - 1 intervals on one right end, all of one
    # color, fill a 16-bit field to its top or down to 1, and 2^14 + 1
    # take 32-bit fields
    for n, width in (((1 << 14) - 1, 16), ((1 << 14) + 1, 32)):
        inst = make_instance([(i, n) for i in range(n)], 2)
        assert online._fields(inst.keys, 2)[0] == width
        for colors in ([1] * n, [2] * n, [1] * (n - 1) + [2]):
            # the last arrival leaves the lead of n - 1 left of its start
            expected = list(range(1, n)) + [n if colors[-1] == colors[0] else n - 1]
            assert online._difference_trace(inst.keys, colors) == expected
            assert online._tree_trace(inst.keys, colors, 2) == expected


def two_color_streams(rng):
    """k = 2 streams: the edge streams, random ones, right ends falling
    and repeating, nested and staircase, and Fraction keys at scale 1."""
    streams = [make_instance(bounds, 2) for bounds in edge_streams()]
    streams += [random_stream(rng, rng.randint(1, 40), 2) for _ in range(12)]
    streams.append(make_instance([(i, 40 - i % 5) for i in range(24)], 2))
    streams.append(make_instance([(i, 60 - i) for i in range(30)], 2))
    streams.append(make_instance([(i, 30 + i) for i in range(30)], 2))
    streams += [
        Instance([x for itv in inst.intervals for x in (itv.lo, itv.hi)], 1, 2)
        for inst in streams[-4:]
    ]
    return streams


def test_difference_column_and_minimum_tree_agree_at_k_2():
    # both private passes on one color only, alternating colors, runs of
    # one color, and random colors, against an imbalance of every prefix
    rng = random.Random(67)
    for inst in two_color_streams(rng):
        n = inst.n
        for colors in (
            [1] * n,
            [2] * n,
            [i % 2 + 1 for i in range(n)],
            [i // 3 % 2 + 1 for i in range(n)],
            [rng.randint(1, 2) for _ in range(n)],
        ):
            expected = list(prefix_imbalances(inst.intervals, colors, 2))
            assert online._difference_trace(inst.keys, colors) == expected, colors
            assert online._tree_trace(inst.keys, colors, 2) == expected, colors


@pytest.mark.parametrize("k", [8, 64, 200])
def test_minimum_tree_with_every_color_in_use(k):
    # once all k colors are in use the minimum rises, at many fields at
    # once on the staircase, wherever the last color at it gains one
    n = k + 40
    for bounds in (
        [(i, 2 * n - i) for i in range(n)],
        [(i, n + i) for i in range(n)],
    ):
        inst = make_instance(bounds, k)
        for algorithm in (RoundRobin(), ManyColors()):
            coloring, trace = run_online(algorithm, inst)
            assert len(set(coloring.colors)) == k
            assert trace == prefix_imbalances(inst.intervals, coloring.colors, k)


def off_by_one(monkeypatch):
    """Make both trace passes end one above the true last value."""
    for name in ("_difference_trace", "_tree_trace"):

        def wrong(*args, right=getattr(online, name)):
            trace = right(*args)
            trace[-1] += 1
            return trace

        monkeypatch.setattr(online, name, wrong)


@pytest.mark.parametrize("k", [2, 3])
def test_finish_refuses_a_trace_the_offline_check_disagrees_with(monkeypatch, k):
    inst = make_instance([(0, 2), (1, 3)], k)
    session = _Session(RoundRobin(), k)
    for lo, hi in zip(inst.keys[0::2], inst.keys[1::2]):
        session.present(lo, hi)
    assert session.finish(inst) == (Coloring((1, 2), k), (1, 1))
    off_by_one(monkeypatch)
    with pytest.raises(InvariantViolation, match="trace ends at 2, but the run's imbalance is 1"):
        session.finish(inst)


def test_run_online_stays_near_linear():
    # shaped like the benchmark's stream: starts uniform in [0, 2 * 10^4),
    # lengths in [0, 2500); re-ranking every prefix took seconds at n = 1000
    rng = random.Random(64)
    starts = sorted(rng.randrange(0, 2 * 10**4) for _ in range(2000))
    inst = make_instance([(a, a + rng.randrange(0, 2500)) for a in starts], 3)
    assert steady_seconds(lambda: run_online(GreedyLeastLoaded(), inst)) < 1.0


def test_staircase_and_a_full_palette_stay_fast():
    # every interval alive with every right end new and highest, at k = 64
    # (2.8 s when an arrival looped over every group and color); and all
    # of k = 1500 colors in use on one shared right end
    stair = make_instance([(i, 2000 + i) for i in range(2000)], 64)
    assert steady_seconds(lambda: run_online(RoundRobin(), stair)) < 1.0
    full = make_instance([(i, 3000) for i in range(3000)], 1500)
    assert steady_seconds(lambda: run_online(RoundRobin(), full)) < 0.1


def test_adversary_stays_near_linear():
    seconds = steady_seconds(lambda: adversary_general(RoundRobin(), 2, 240))
    assert seconds < 0.5


@pytest.mark.parametrize("k", [2, 3, 4, 5, 10**6])
def test_adversary_matches_the_fraction_reference(k):
    # the int-key adversary against the Fraction one it replaced: same
    # coordinates, colors, trace and region counts, with every key an int
    # at a power-of-two scale
    opponents = [lambda name=name: make_algorithm(name, seed=k) for name in ALGORITHM_NAMES]
    opponents += [lambda: AlwaysColor(1), lambda: AlwaysColor(2)]
    if k > 2:
        opponents += [lambda: AlwaysColor(3), ManyColors]
    budgets = (1, 2, 5, None) if k > 2 else (None,)
    for t in (1, 2, 7, 24, 60):
        for budget in budgets:
            for opponent in opponents:
                tr = adversary_general(opponent(), k, t, repeat_budget=budget)
                ref = reference_adversary(
                    opponent(), k, t, 1 if k == 2 else 2 * t if budget is None else budget
                )
                inst = tr.instance
                assert tr.presented == ref.presented, (k, t, budget)
                assert (tr.colors, tr.trace) == (ref.colors, ref.trace), (k, t, budget)
                assert region_counts(tr) == (ref.simb_l, ref.simb_r), (k, t, budget)
                assert all(type(x) is int for x in inst.keys)
                assert inst.scale & (inst.scale - 1) == 0


def test_adversary_refuses_rounds_above_the_limit_at_once():
    for t in (MAX_PRESENTATIONS + 1, 10**9):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"MAX_PRESENTATIONS = {MAX_PRESENTATIONS}"):
            adversary_general(RoundRobin(), 3, t)
        assert time.perf_counter() - started < 0.1


def test_adversary_stops_at_the_presentation_limit():
    # round robin answers k - 2 untracked colors a round, so 1000 rounds at
    # k = 1000 need far more presentations than the limit allows
    with pytest.raises(ValueError, match=f"MAX_PRESENTATIONS = {MAX_PRESENTATIONS}"):
        adversary_general(RoundRobin(), 1000, 1000)
    # a constant untracked color spends its whole budget in round one
    with pytest.raises(ValueError, match="MAX_PRESENTATIONS"):
        adversary_general(AlwaysColor(3), 3, 10, repeat_budget=10**9)
    # at the limit itself the run completes
    tr = adversary_general(AlwaysColor(1), 2, MAX_PRESENTATIONS)
    assert len(tr.colors) == MAX_PRESENTATIONS == tr.final_imbalance


def test_benchmark_and_golden_runs_stay_under_the_limit():
    assert len(adversary_general(RoundRobin(), 2, 240).colors) == 240
    most = max(
        len(adversary_general(SeededRandom(seed), 4, 120).colors) for seed in range(20)
    )
    assert most < MAX_PRESENTATIONS // 10


def test_transcript_lines_are_the_json_dumps_of_each_record():
    # int keys at scale 1 and at a power-of-two scale, Fraction keys, and
    # colors of other types, which json.dumps writes its own way
    rng = random.Random(89)
    tiny = Fraction(1, 10**30)
    for trial in range(60):
        n = rng.randint(0, 12)
        bounds = []
        for _ in range(n):
            a = Fraction(rng.randrange(-40, 40), rng.choice((1, 2, 8)))
            bounds.append((a, a + Fraction(rng.randrange(0, 9), 4)))
        if trial % 3 == 2:  # nudged coordinates keep Fraction keys
            bounds = [(a + i * tiny, b + i * tiny) for i, (a, b) in enumerate(bounds)]
        inst = make_instance(bounds, 3)
        palette = (1, 2, 3, True, 2.5) if trial % 2 else (1, 2, 3)
        colors = [rng.choice(palette) for _ in range(n)]
        trace = [rng.randint(0, 5) for _ in range(n)]
        expected = "".join(
            json.dumps({"interval": [coord_json(itv.lo), coord_json(itv.hi)],
                        "color": color, "max_imbalance": value}) + "\n"
            for itv, color, value in zip(inst.intervals, colors, trace)
        )
        assert format_transcript_jsonl(inst, colors, trace) == expected
