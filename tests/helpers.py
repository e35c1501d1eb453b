"""Shared random generators, references and timing utilities for the test suite."""

import gc
import importlib
import json
import random
import time
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import compress, product
from typing import NamedTuple

from intervalcolor.core import (
    Coloring,
    Instance,
    Interval,
    InvariantViolation,
    imbalance,
    make_instance,
    normalize,
)
from intervalcolor.formats import FormatError, _counted_rows, _keys_json, coord_json
from intervalcolor.hardness import NaeFormula
from intervalcolor.k_color import EdgeGraph
from intervalcolor.online import OnlineAlgorithm


def random_instance(rng, n, k, collide=0.3, span=60):
    """Random closed-interval instance.

    With probability `collide` an endpoint is drawn from a small shared
    pool, forcing coordinate collisions (equal starts, equal ends, and
    touching start/end pairs).  Coordinates are halves of integers so
    non-integer ties occur too.
    """
    pool = [Fraction(rng.randrange(-span, span), 2) for _ in range(max(4, n // 2))]

    def coord():
        if rng.random() < collide:
            return rng.choice(pool)
        return Fraction(rng.randrange(-span, span), 2)

    bounds = []
    for _ in range(n):
        a, b = coord(), coord()
        if b < a:
            a, b = b, a
        bounds.append((a, b))
    return make_instance(bounds, k)


def format_instance_json(instance: Instance) -> str:
    """The JSON instance file the command line reads, for an Instance."""
    payload = {
        "k": instance.k,
        "intervals": [
            [coord_json(itv.lo), coord_json(itv.hi)] for itv in instance.intervals
        ],
    }
    return json.dumps(payload) + "\n"


def random_coloring(rng, n, k):
    return Coloring(tuple(rng.randint(1, k) for _ in range(n)), k)


def random_arc_instance(rng, n, k, circumference=20, full_rate=0.1):
    """Random arc instance on a fixed circumference.

    Starts and lengths are halves of integers so endpoint collisions occur;
    roughly full_rate of the arcs cover the whole circle.
    """
    from intervalcolor.arcs import make_arc_instance

    C = Fraction(circumference)
    pairs = []
    for _ in range(n):
        start = Fraction(rng.randrange(0, 2 * circumference), 2)
        if rng.random() < full_rate:
            length = C + Fraction(rng.randrange(0, 2 * circumference), 2)
        else:
            length = Fraction(rng.randrange(1, 2 * circumference), 2)
        pairs.append((start, length))
    return make_arc_instance(pairs, C, k)


def interval_contains(itv, x):
    """Closed-interval membership of the coordinate x."""
    return itv.lo <= x <= itv.hi


def brute_force_counts(instance: Instance, coloring: Coloring, x):
    """Per-color counts at x by direct membership testing."""
    counts = [0] * instance.k
    for itv in instance.intervals:
        if interval_contains(itv, x):
            counts[coloring.colors[itv.id] - 1] += 1
    return tuple(counts)


def reference_ranking(instance: Instance):
    """(order, coords, cuts) of the endpoint events by exact Fraction sort.

    Events sort by coordinate, then starts before ends, then interval id,
    and are named by slot: 2i the start of interval i, 2i + 1 its end.
    coords are the distinct coordinates as Fractions.  The reference for
    normalize, which sorts integer keys instead.
    """
    events = sorted(
        [(itv.lo, 0, itv.id) for itv in instance.intervals]
        + [(itv.hi, 1, itv.id) for itv in instance.intervals]
    )
    order = tuple(2 * i + end for _, end, i in events)
    coords = sorted({x for x, _, _ in events})
    blocks = Counter((x, end) for x, end, _ in events)
    cuts = [0]
    for x in coords:
        cuts.append(cuts[-1] + blocks[x, 0])
        cuts.append(cuts[-1] + blocks[x, 1])
    return order, tuple(coords), tuple(cuts)


def reference_imbalance(instance: Instance, coloring: Coloring):
    """(value, witness) by direct counting at every coordinate and gap midpoint.

    The points are visited left to right and the witness is the first one
    attaining the largest spread, 0 when every spread is 0.
    """
    _, xs, _ = reference_ranking(instance)
    points = [p for a, b in zip(xs, xs[1:]) for p in (a, (a + b) / 2)] + list(xs[-1:])
    best, witness = 0, Fraction(0)
    for p in points:
        counts = brute_force_counts(instance, coloring, p)
        if max(counts) - min(counts) > best:
            best, witness = max(counts) - min(counts), p
    return best, witness


def block_sweep(instance: Instance, cols):
    """(value, s) of imbalance's sweep, walking the ranking block by block.

    The reference for core._sweep, which walks order and flags instead:
    it measures sample 2g after the starts at coords[g], and sample 2g + 1
    after a nonempty block of ends there, but not at the last coordinate.
    s is the first sample attaining the value, None when it is 0.  The
    blocks come from reference_ranking, not from normalize.
    """
    n = instance.n
    if n and max(cols) > n:
        slot = {c: s for s, c in enumerate(set(cols))}
        cols = [slot[c] for c in cols]
    counts = [0] * (min(instance.k, n) + 1)
    freq = [instance.k]
    top = bottom = 0
    best, at = 0, None
    order, coords, cuts = reference_ranking(instance)
    last = len(coords) - 1
    for g in range(last + 1):
        for e in order[cuts[2 * g] : cuts[2 * g + 1]]:
            c = cols[e // 2]
            v = counts[c]
            counts[c] = v + 1
            freq[v] -= 1
            if v == top:
                top = v + 1
                freq.append(1)
            else:
                freq[v + 1] += 1
            if v == bottom and not freq[v]:
                bottom = v + 1
        if top - bottom > best:
            best, at = top - bottom, 2 * g
        if g == last:
            break
        ends = order[cuts[2 * g + 1] : cuts[2 * g + 2]]
        if ends:
            for e in ends:
                c = cols[e // 2]
                v = counts[c]
                counts[c] = v - 1
                freq[v - 1] += 1
                if v == top and freq[v] == 1:
                    top = v - 1
                    freq.pop()
                else:
                    freq[v] -= 1
                if v == bottom:
                    bottom = v - 1
            if top - bottom > best:
                best, at = top - bottom, 2 * g + 1
    return best, at


def block_max_depth(cuts):
    """Largest number of intervals sharing a point, read off block sizes."""
    depth = deepest = 0
    for b in range(0, len(cuts) - 1, 2):
        depth += cuts[b + 1] - cuts[b]
        deepest = max(deepest, depth)
        depth -= cuts[b + 2] - cuts[b + 1]
    return deepest


def flags_of_cuts(order, cuts):
    """Per rank of order, 1 where a nonempty block of cuts ends there."""
    flags = [0] * len(order)
    for a, b in zip(cuts, cuts[1:]):
        if a < b:
            flags[b - 1] = 1
    return bytes(flags)


def dewerra_with_passes(instance: Instance):
    """(coloring, passes) of k_color_dewerra on the instance.

    Each rebalancing pass halves the worst pair once, so the passes are
    counted as the calls to halve in the k_color module, fetched by
    import_module since the package attribute intervalcolor.k_color is the
    function.
    """
    module = importlib.import_module("intervalcolor.k_color")
    halve_once = module.halve
    passes = 0

    def counted(*args):
        nonlocal passes
        passes += 1
        return halve_once(*args)

    module.halve = counted
    try:
        coloring = module.k_color_dewerra(instance)
    finally:
        module.halve = halve_once
    return coloring, passes


def reference_halve(order, classes, count):
    """Split every class of a partition into two balanced halves, one level.

    order ranks the event slots of intervals 0..len(classes)-1 (2i the
    start of interval i, 2i + 1 its end) and classes[i] in 0..count-1 is
    the class of interval i.  Each class pairs its own rank-consecutive
    events, read off order with one pending event per class into a mate
    table keyed by (interval, is end); walking the pairs from the lowest
    unwalked id gives each interval side 0 or 1, a start/end pair the
    same side and a same-type pair opposite sides.  Returns 2c + side
    per interval.  The reference for two_color.halve, which pairs slots
    in a list and reads the partner event as slot ^ 1.
    """
    n = len(classes)
    mate = {}
    pending = {}
    for s in order:
        e = divmod(s, 2)  # (interval, 1 for an end)
        c = classes[e[0]]
        if c in pending:
            p = pending.pop(c)
            mate[p], mate[e] = e, p
        else:
            pending[c] = e
    side = [None] * n
    for first in range(n):
        if side[first] is not None:
            continue
        side[first] = 0
        for e in ((first, 0), (first, 1)):
            i = first
            while True:
                other = mate[e]
                j = other[0]
                if j == i:
                    break
                want = side[i] if e[1] != other[1] else 1 - side[i]
                if side[j] is not None:
                    if side[j] != want:
                        raise InvariantViolation("constraint graph has an odd cycle")
                    break
                side[j] = want
                i, e = j, (j, 1 - other[1])
    return [2 * c + s for c, s in zip(classes, side)]


def reference_potential(instance: Instance, colors):
    """The squared color counts at every coordinate and gap midpoint,
    summed, by direct counting: a potential every rebalancing pass lowers."""
    _, xs, _ = reference_ranking(instance)
    points = [*xs, *((a + b) / 2 for a, b in zip(xs, xs[1:]))]
    coloring = Coloring(tuple(colors), instance.k)
    return sum(c * c for p in points for c in brute_force_counts(instance, coloring, p))


def reference_dewerra(instance: Instance):
    """(colors, passes) of k_color_dewerra with each pass 2-coloring the
    worst pair's intervals extracted, renumbered in id order and ranked by
    their own sub-order, the pair found by counting at imbalance's witness.

    Raises InvariantViolation when a pass does not lower
    reference_potential.  The reference for the pass on the shared order.
    """
    k, n = instance.k, instance.n
    order = normalize(instance).order
    colors = [(i % k) + 1 for i in range(n)]
    done = 0
    while True:
        report = imbalance(instance, Coloring(tuple(colors), k))
        if report.value <= 1:
            return colors, done
        counts = brute_force_counts(instance, Coloring(tuple(colors), k), report.witness)
        i, j = sorted((counts.index(max(counts)) + 1, counts.index(min(counts)) + 1))
        extracted = [t for t in range(n) if colors[t] in (i, j)]
        pos = {t: p for p, t in enumerate(extracted)}
        sub = [2 * pos[e // 2] + e % 2 for e in order if colors[e // 2] in (i, j)]
        halves = reference_halve(sub, [0] * len(extracted), 1)
        before = reference_potential(instance, colors)
        for p, t in enumerate(extracted):
            colors[t] = j if halves[p] else i
        if reference_potential(instance, colors) >= before:
            raise InvariantViolation(f"pass {done + 1} did not lower the potential")
        done += 1


class Arc(NamedTuple):
    """Closed arc from start, extending length counterclockwise, in Fractions.

    A length of at least the circumference covers the full circle.
    """

    id: int
    start: Fraction
    length: Fraction


def arcs_of(instance):
    """The arcs of an ArcInstance as Arc tuples, a view read off its keys."""
    s = instance.scale
    return tuple(
        Arc(i, Fraction(a, s), Fraction(b - a, s))
        for i, (a, b) in enumerate(zip(instance.line.keys[0::2], instance.line.keys[1::2]))
    )


def circumference_of(instance):
    """The circumference of an ArcInstance as a Fraction."""
    return Fraction(instance.turn, instance.scale)


def arc_contains(arc, circumference, point):
    """Closed-arc membership of a circle point given by any real coordinate."""
    if arc.length >= circumference:
        return True
    p = point % circumference
    end = arc.start + arc.length
    return arc.start <= p <= end or arc.start <= p + circumference <= end


def reference_unfold(instance):
    """unfold computed on the instance's arcs in Fractions.

    The reference for unfold, which computes on keys: the same intervals,
    with the full-arc margin taken from reference_ranking's coordinates.
    """
    C = circumference_of(instance)
    bounds = []
    for arc in arcs_of(instance):
        if arc.length >= C:
            bounds.append(None)
        elif arc.start + arc.length > C:
            bounds.append((arc.start - C, arc.start + arc.length - C))
        else:
            bounds.append((arc.start, arc.start + arc.length))

    if None in bounds:
        proper = make_instance([b for b in bounds if b is not None], instance.k)
        coords = reference_ranking(proper)[1] or (Fraction(0),)
        hull_lo, hull_hi = coords[0], coords[-1]
        gaps = [b - a for a, b in zip(coords, coords[1:])]
        margin = min(gaps) / 2 if gaps else Fraction(1)
        hull_width = hull_hi - hull_lo
        if hull_width < C:
            margin = min(margin, (C - hull_width) / 4)
            span = (hull_lo - margin, hull_hi + margin)
        else:
            span = (hull_lo - margin, hull_lo - margin + C)
        bounds = [span if b is None else b for b in bounds]

    return make_instance(bounds, instance.k)


def reference_pieces(instance):
    """_pieces computed on the instance's arcs in Fractions."""
    C = circumference_of(instance)
    zero = Fraction(0)
    bounds = []
    owners = []
    for arc in arcs_of(instance):
        end = arc.start + arc.length
        if arc.length >= C:
            cut = ((zero, C),)
        elif end >= C:
            cut = ((arc.start, C), (zero, end - C))
        else:
            cut = ((arc.start, end),)
        bounds += cut
        owners += [arc.id] * len(cut)
    return make_instance(bounds, instance.k), owners


def brute_force_arc_cells(instance):
    """Ids of the arcs covering each sample point, by direct arc membership.

    Counts change only at the endpoints of proper arcs, so the samples are
    each endpoint, the midpoint between consecutive endpoints and the
    midpoint of the gap across zero (just zero when every arc is full).
    """
    C, arcs = circumference_of(instance), arcs_of(instance)
    ends = sorted(
        {p % C for arc in arcs if arc.length < C
         for p in (arc.start, arc.start + arc.length)}
    ) or [Fraction(0)]
    samples = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    samples.append((ends[-1] + ends[0] + C) / 2 % C)
    return [[arc.id for arc in arcs if arc_contains(arc, C, p)] for p in samples]


def cell_spread(cells, coloring):
    """Largest color-count spread over the cells, absent colors included."""
    spread = 0
    for cell in cells:
        counts = [0] * coloring.k
        for i in cell:
            counts[coloring.colors[i] - 1] += 1
        spread = max(spread, max(counts) - min(counts))
    return spread


def brute_force_arc_spread(instance, coloring):
    """Largest color-count spread on the circle by direct arc membership."""
    return cell_spread(brute_force_arc_cells(instance), coloring)


def reference_search(n, k, cells, minimize):
    """The exact search on id-tuple cells that the bitmask search replaced.

    A cell lists item ids and a repeated id counts once per occurrence;
    each cell is counted member by member once its highest member has a
    color.  Items take colors in id order, colors ascending, with no color
    above one more than the largest before it.  Returns what
    core._search_colorings returns for the same cells.
    """
    if n == 0:
        return 0, ()
    unique = {tuple(sorted(cell)) for cell in cells}
    unique.discard(())
    by_last = [[] for _ in range(n)]
    for cell in unique:
        by_last[cell[-1]].append(cell)
    bound = 1 + max(map(len, unique), default=0) if minimize else 2
    width = min(k, n + 1)
    colors = [0] * n
    running = [0] * n
    used = [0] * n
    best = None
    i = 0
    while i >= 0:
        color = colors[i] + 1
        if color > min(k, used[i] + 1) or running[i] >= bound:
            colors[i] = 0
            i -= 1
            continue
        colors[i] = color
        spread = running[i]
        for cell in by_last[i]:
            counts = [0] * width
            for member in cell:
                counts[colors[member] - 1] += 1
            spread = max(spread, max(counts) - min(counts))
            if spread >= bound:
                break
        if spread >= bound:
            continue
        if i + 1 < n:
            running[i + 1] = spread
            used[i + 1] = max(used[i], color)
            i += 1
            continue
        best = spread, tuple(colors)
        if spread == 0 or not minimize:
            break
        bound = spread
    return best


def mask_ids(msk):
    """Ids of the set bits of msk, ascending."""
    return [i for i in range(msk.bit_length()) if msk >> i & 1]


def random_formula(rng, max_clauses=3, max_vars=5):
    nv = rng.randint(1, max_vars)
    nc = rng.randint(0, max_clauses)
    clauses = [tuple(rng.randint(1, nv) for _ in range(3)) for _ in range(nc)]
    return NaeFormula(nv, clauses)


def formula_corpus(count=50):
    """The formulas of acceptance criterion 8: two fixed, the rest seeded."""
    rng = random.Random(88)
    fixed = [NaeFormula(3, ((1, 2, 3),)), NaeFormula(1, ((1, 1, 1),))]
    return fixed + [random_formula(rng) for _ in range(count)]


def reference_format_box_instance_json(instance):
    """The box file as one json.dumps of the whole payload."""
    columns = [_keys_json(dim.keys, dim.scale) for dim in instance.dims]
    boxes = [
        {"id": i, "tag": tag, "bounds": [column[2 * i : 2 * i + 2] for column in columns]}
        for i, tag in enumerate(instance.tags)
    ]
    provenance = {
        str(box_id): list(entry)
        for box_id, entry in sorted(instance.provenance.items())
    }
    payload = {"d": instance.d, "k": instance.k, "boxes": boxes, "provenance": provenance}
    return json.dumps(payload) + "\n"


def boxes_intersect(a, b):
    """True iff the closed boxes share at least one point."""
    return all(
        alo <= bhi and blo <= ahi
        for (alo, ahi), (blo, bhi) in zip(a.bounds, b.bounds)
    )


def reference_audit_reduction(instance, expected):
    """Raise InvariantViolation at the first pair of boxes, in (a, b) order,
    whose intersection differs from the planned pairs in expected.

    The all-pairs check of every box, covers included, that the reduction's
    audit replaces; expected must list the cover pairs too.
    """
    boxes = instance.boxes
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            actual = boxes_intersect(boxes[a], boxes[b])
            if actual != ((a, b) in expected):
                kind = "unplanned" if actual else "missing"
                raise InvariantViolation(
                    f"{kind} intersection between box {a} "
                    f"{instance.provenance.get(a)} and box {b} "
                    f"{instance.provenance.get(b)}"
                )


def reference_samples_and_masks(instance):
    """Per dimension: the sample coordinates and, per sample, the bitmask of
    the boxes whose projection covers it, from the Box objects in Fractions.

    The samples are the sorted distinct endpoints with the midpoint of each
    consecutive pair between them; endpoint coords[i] is sample 2i.  Each
    box's bit is toggled in at its lo sample and out just after its hi
    sample.  The reference for the masks box_imbalance reads off normalize.
    """
    per_dim = []
    for dim in range(instance.d):
        coords = sorted(
            {b.bounds[dim][0] for b in instance.boxes}
            | {b.bounds[dim][1] for b in instance.boxes}
        )
        samples = []
        for idx, x in enumerate(coords):
            if idx:
                samples.append((coords[idx - 1] + x) / 2)
            samples.append(x)
        slot = {x: 2 * idx for idx, x in enumerate(coords)}
        toggles = [0] * (len(samples) + 1)
        for box in instance.boxes:
            lo, hi = box.bounds[dim]
            toggles[slot[lo]] ^= 1 << box.id
            toggles[slot[hi] + 1] ^= 1 << box.id
        masks = []
        msk = 0
        for change in toggles[:-1]:
            msk ^= change
            masks.append(msk)
        per_dim.append((samples, masks))
    return per_dim


def reference_block_samples(instance):
    """reference_samples_and_masks with one sample per nonempty block of a
    dimension's ranking: an endpoint where some box starts, and the
    midpoint after an endpoint where some box ends.  Each sample left out
    repeats the mask of the sample before it.
    """
    per_dim = []
    for dim, (samples, masks) in enumerate(reference_samples_and_masks(instance)):
        los = {b.bounds[dim][0] for b in instance.boxes}
        his = {b.bounds[dim][1] for b in instance.boxes}
        keep = [x in los if i % 2 == 0 else samples[i - 1] in his for i, x in enumerate(samples)]
        per_dim.append((list(compress(samples, keep)), list(compress(masks, keep))))
    return per_dim


def distinct_cell_masks(instance):
    """The nonempty sets of boxes, as masks, covering a point of the grid."""
    per_dim = reference_samples_and_masks(instance)
    seen = set()
    for combo in product(*(masks for _, masks in per_dim)):
        msk = combo[0]
        for other in combo[1:]:
            msk &= other
        if msk:
            seen.add(msk)
    return seen


def reference_box_imbalance(instance, coloring):
    """(value, witness) of box_imbalance by visiting the whole sample grid.

    The witness is the first grid point, lexicographic in dimension order,
    attaining the largest spread; None for an empty instance.
    """
    if not instance.boxes:
        return 0, None
    per_dim = reference_samples_and_masks(instance)
    spread_cache = {}
    best, witness = -1, None
    for combo in product(*(range(len(samples)) for samples, _ in per_dim)):
        msk = -1
        for (_, masks), i in zip(per_dim, combo):
            msk &= masks[i]
        spread = spread_cache.get(msk)
        if spread is None:
            members = [b for b in range(instance.n) if msk >> b & 1]
            spread = spread_cache[msk] = cell_spread([members], coloring)
        if spread > best:
            best = spread
            witness = tuple(samples[i] for (samples, _), i in zip(per_dim, combo))
    return best, witness


def reference_parse_hypergraph_text(text):
    """The 0/1 matrix of a hypergraph file, each entry read by int()."""
    m, rows = _counted_rows(text, "hypergraph", "n m", "rows")
    matrix = []
    for pos, row in enumerate(rows):
        if len(row) != m or not frozenset("01").issuperset(row):
            raise FormatError(f"hypergraph: row {pos} must be {m} entries of 0 or 1")
        matrix.append(tuple(map(int, row)))
    return tuple(matrix)


def reference_column_spread(matrix, coloring):
    """Largest color spread over the matrix's columns, one Counter per
    column; a color absent from a column counts 0 there."""
    colors = coloring.colors
    if len(colors) != len(matrix):
        raise InvariantViolation(f"{len(colors)} colors for {len(matrix)} rows")
    worst = 0
    for column in zip(*matrix):
        counts = Counter(compress(colors, column)).values()
        low = min(counts) if len(counts) == coloring.k else 0
        worst = max(worst, max(counts, default=0) - low)
    return worst


def random_c1p_matrix(rng, rows, width, zero_rate=0.1):
    """rows rows of one run of 1s each (or none), consecutive-ones by construction."""
    matrix = []
    for _ in range(rows):
        if not width or rng.random() < zero_rate:
            matrix.append((0,) * width)
            continue
        a = rng.randrange(width)
        b = rng.randrange(a, width)
        matrix.append(tuple(int(a <= c <= b) for c in range(width)))
    return tuple(matrix)


class AlwaysColor(OnlineAlgorithm):
    """Constant online strategy, an adversary test opponent."""

    def __init__(self, color: int):
        self.color = color

    def reset(self, k: int) -> None:
        if not (1 <= self.color <= k):
            raise ValueError(f"constant color {self.color} outside 1..{k}")

    def assign(self, lo, hi):
        return self.color


def region_counts(transcript):
    """Color-1 minus color-2 presentations covering the middles of the
    adversary's regions L and R after each round, replayed from the
    transcript alone: (the L counts, the R counts), one each per round.

    The presentations of one round share their right end and consecutive
    rounds do not, so the rounds are the runs of equal right end.  L and R
    start at [0, 1] and [2, 3].  A round whose last color is 1 moves R to
    its left half, one whose last color is 2 to its right half, and either
    moves L to its right half; a round that ends on an untracked color
    spent its budget and moves neither.  Each count is taken from scratch
    over the presentations so far.
    """
    presented, colors = transcript.presented, transcript.colors
    mid = lambda region: (region[0] + region[1]) / 2
    L, R = (Fraction(0), Fraction(1)), (Fraction(2), Fraction(3))
    simb_l, simb_r = [], []
    for end in range(1, len(colors) + 1):
        if end < len(colors) and presented[end].hi == presented[end - 1].hi:
            continue  # the round goes on
        color = colors[end - 1]
        if color <= 2:
            R = (R[0], mid(R)) if color == 1 else (mid(R), R[1])
            L = (mid(L), L[1])
        for point, out in ((mid(L), simb_l), (mid(R), simb_r)):
            out.append(sum(
                (c == 1) - (c == 2)
                for itv, c in zip(presented[:end], colors)
                if interval_contains(itv, point)
            ))
    return tuple(simb_l), tuple(simb_r)


class ReferenceTranscript(NamedTuple):
    presented: tuple
    colors: tuple
    trace: tuple
    simb_l: tuple
    simb_r: tuple


class _ReferenceSession:
    """The online session as it was when it kept Interval objects and the
    adversary computed in Fractions; reference_adversary runs on it."""

    def __init__(self, alg, k):
        alg.reset(k)
        self.alg = alg
        self.k = k
        self.presented = []
        self.colors = []
        self.trace = []
        self.start = None
        self.frozen = 0
        self.slot = {}
        self.ends = []
        self.suf = []
        self.top = []

    def present(self, itv):
        lo, hi = itv.lo, itv.hi
        color = self.alg.assign(lo, hi)
        assert 1 <= color <= self.k
        self.presented.append(itv)
        self.colors.append(color)
        ends, suf, top = self.ends, self.suf, self.top
        if ends and lo > self.start:
            gone = bisect_left(ends, lo)
            for counts in suf[: gone + 1]:
                self.frozen = max(self.frozen, max(counts) - min(counts))
            del ends[:gone], suf[:gone], top[:gone]
        self.start = lo
        slot = self.slot.get(color)
        if slot is None:
            slot = self.slot[color] = len(self.slot)
            if slot + 1 < self.k:
                for counts in suf:
                    counts.append(0)
        g = bisect_left(ends, hi)
        if g == len(ends) or ends[g] != hi:
            ends.insert(g, hi)
            suf.insert(g, suf[g][:] if g < len(suf) else [0] * min(self.k, len(self.slot) + 1))
            top.insert(g, 0)
        best = top[g + 1] if g + 1 < len(top) else 0
        for j in range(g, -1, -1):
            counts = suf[j]
            counts[slot] += 1
            best = max(best, max(counts) - min(counts))
            top[j] = best
        self.trace.append(max(self.frozen, best))
        return color

    def signed_count(self, point):
        if point >= self.start:
            j = bisect_left(self.ends, point)
            if j == len(self.ends):
                return 0
            counts, slot = self.suf[j], self.slot
            return (counts[slot[1]] if 1 in slot else 0) - (counts[slot[2]] if 2 in slot else 0)
        return sum(
            (color == 1) - (color == 2)
            for itv, color in zip(self.presented, self.colors)
            if interval_contains(itv, point)
        )


class Replay(OnlineAlgorithm):
    """Answers a fixed sequence of colors, one per arrival."""

    def __init__(self, colors):
        self.colors = colors

    def reset(self, k):
        self.answers = iter(self.colors)

    def assign(self, lo, hi):
        return next(self.answers)


def reference_trace(intervals, colors, k):
    """The prefix imbalances of colors on intervals, kept by the
    incremental session reference_adversary runs on."""
    session = _ReferenceSession(Replay(colors), k)
    for itv in intervals:
        session.present(itv)
    return tuple(session.trace)


def reference_adversary(alg, k, t, repeat_budget):
    """The adversary computed in Fractions on Interval objects, as it was
    before it moved to int keys at one dyadic scale.

    The algorithm is handed the Fraction coordinates as its keys (scale
    1).  The final trace value is checked by one offline imbalance of the
    presented intervals, read from their coordinates by make_instance.
    """
    session = _ReferenceSession(alg, k)
    presented = session.presented
    L = (Fraction(0), Fraction(1))
    R = (Fraction(2), Fraction(3))
    simb_l, simb_r = [], []

    def record():
        simb_l.append(session.signed_count((L[0] + L[1]) / 2))
        simb_r.append(session.signed_count((R[0] + R[1]) / 2))

    def present(lo, hi):
        assert not presented or lo > presented[-1].lo
        return session.present(Interval(len(presented), lo, hi))

    for _ in range(t):
        mid_l = (L[0] + L[1]) / 2
        mid_r = (R[0] + R[1]) / 2
        color = present(mid_l, mid_r)
        gap = (L[1] - mid_l) / 2
        attempt = 1
        while color > 2 and attempt < repeat_budget:
            nudge = gap * (1 - Fraction(1, 2**attempt))
            color = present(mid_l + nudge, mid_r)
            attempt += 1
        if color > 2:
            record()
            break
        if color == 1:
            R = (R[0], mid_r)
        else:
            R = (mid_r, R[1])
        L = (mid_l, L[1])
        record()

    instance = make_instance([(itv.lo, itv.hi) for itv in presented], k)
    value = imbalance(instance, Coloring(tuple(session.colors), k)).value
    assert value == (session.trace[-1] if session.trace else 0)
    return ReferenceTranscript(
        tuple(presented), tuple(session.colors), tuple(session.trace),
        tuple(simb_l), tuple(simb_r),
    )


class Edge(NamedTuple):
    item: int
    start_pos: int
    end_pos: int


class ListedEdgeGraph(EdgeGraph):
    """EdgeGraph that also lists its edges as records, for readable tests."""

    @property
    def edges(self):
        return tuple(map(Edge, self.items, self.starts, self.ends))


def random_bipartite_multigraph(rng, n_left, n_right, m, max_degree):
    """Random bipartite multigraph with all degrees capped at max_degree."""
    deg_l = [0] * n_left
    deg_r = [0] * n_right
    starts, ends, items = [], [], []
    for item in range(m):
        for _ in range(80):
            u = rng.randrange(n_left)
            v = rng.randrange(n_right)
            if deg_l[u] < max_degree and deg_r[v] < max_degree:
                deg_l[u] += 1
                deg_r[v] += 1
                starts.append(u)
                ends.append(v)
                items.append(item)
                break
    return ListedEdgeGraph(tuple(starts), tuple(ends), tuple(items))


def assert_proper_edge_coloring(graph, colors, k):
    """Fail unless colors is a proper edge coloring with colors in 1..k."""
    assert len(colors) == len(graph.starts)
    seen = set()
    for u, v, color in zip(graph.starts, graph.ends, colors):
        assert 1 <= color <= k
        for key in (("L", u, color), ("R", v, color)):
            assert key not in seen, f"color {color} repeated at vertex {key}"
            seen.add(key)


def assert_sweep_graph(graph, n, k):
    """Fail unless graph is the k-regular bipartite multigraph of an n-interval sweep.

    The two sides are numbered independently, so the graph is bipartite by
    construction; each side's vertices must be 0..m-1 with every degree k,
    both sides must have the same size, and every interval must appear as
    exactly one edge while every other edge is virtual.
    """
    sizes = []
    for side in (graph.starts, graph.ends):
        degree = Counter(side)
        assert sorted(degree) == list(range(len(degree)))
        assert set(degree.values()) <= {k}
        sizes.append(len(degree))
    assert sizes[0] == sizes[1]
    assert len(graph.starts) == len(graph.ends) == len(graph.items) == k * sizes[0]
    real = sorted(item for item in graph.items if item >= 0)
    assert real == list(range(n))
    assert all(item == -1 for item in graph.items if item < 0)


def steady_seconds(fn, reps=3):
    """Best-of-reps wall time with the cyclic collector quiesced.

    Collector pauses scale with the live heap, not with the measured
    work, so they are excluded to keep doubling ratios meaningful.
    """
    best = float("inf")
    for _ in range(reps):
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        gc.enable()
        best = min(best, elapsed)
    return best


def steady_pair_seconds(fn_small, fn_big, reps=4):
    """Interleaved best-of wall times for a sizing comparison.

    Running small and big back to back inside each rep means background
    load drifts hit both, so their best-of ratio stays meaningful on a
    busy machine.
    """
    best_small = best_big = float("inf")
    for _ in range(reps):
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        fn_small()
        t1 = time.perf_counter()
        fn_big()
        t2 = time.perf_counter()
        gc.enable()
        best_small = min(best_small, t1 - t0)
        best_big = min(best_big, t2 - t1)
    return best_small, best_big
