"""Independent checker for the stdout of every benchmark op.

Nothing here imports the program under test.  Colorings are recounted
with this module's own sweeps, decider answers are compared with a brute
force over truth assignments, and oracle minima are cross-checked with
the `color` op on the same instance and with depths computed here.  The
checker runs after a pass, outside the timed region.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product
from typing import Dict, List, Sequence, Tuple


class CheckFailed(Exception):
    """An op's exit code or stdout is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def coord(value) -> Fraction:
    _require(isinstance(value, (int, str)) and not isinstance(value, bool), f"bad coordinate {value!r}")
    return Fraction(value)


def scale_of(bounds: Sequence[Tuple[Fraction, Fraction]]) -> int:
    """Common denominator of all endpoints."""
    den = 1
    for lo, hi in bounds:
        den = math.lcm(den, lo.denominator, hi.denominator)
    return den


def integer_bounds(bounds: Sequence[Tuple[Fraction, Fraction]]) -> List[Tuple[int, int]]:
    """The same intervals scaled by the common denominator, so sorting stays cheap."""
    den = scale_of(bounds)
    return [(int(lo * den), int(hi * den)) for lo, hi in bounds]


def sample_points(bounds: Sequence[Tuple[int, int]]) -> List[int]:
    """Every distinct endpoint plus the midpoint of each gap, in doubled units.

    Coverage only changes at endpoints, so these points meet every
    coverage set that occurs anywhere on the line.  Doubling keeps the
    midpoints integral.
    """
    xs = sorted({x for pair in bounds for x in pair})
    points = [2 * x for x in xs]
    points += [x + y for x, y in zip(xs, xs[1:])]
    points.sort()
    return points


def _coverage_ranges(bounds, points):
    for lo, hi in bounds:
        yield bisect_left(points, 2 * lo), bisect_right(points, 2 * hi)


def _max_spread(ranges, colors, k: int, m: int) -> int:
    """Largest spread over m points, each color's points given as [first, stop) ranges."""
    diff = [[0] * (m + 1) for _ in range(k)]
    for (first, stop), color in zip(ranges, colors):
        diff[color - 1][first] += 1
        diff[color - 1][stop] -= 1
    counts = [0] * k
    best = 0
    for p in range(m):
        for c in range(k):
            counts[c] += diff[c][p]
        spread = max(counts) - min(counts)
        if spread > best:
            best = spread
    return best


def line_spread(bounds: Sequence[Tuple[int, int]], colors: Sequence[int], k: int) -> int:
    """Largest max-minus-min color count over all points of the line."""
    points = sample_points(bounds)
    return _max_spread(_coverage_ranges(bounds, points), colors, k, len(points))


def spread_at(bounds, colors, k: int, x: Fraction) -> int:
    counts = [0] * k
    for (lo, hi), color in zip(bounds, colors):
        if lo <= x <= hi:
            counts[color - 1] += 1
    return max(counts) - min(counts)


def depths_divisible(bounds: Sequence[Tuple[int, int]], k: int) -> bool:
    points = sample_points(bounds)
    depth = [0] * (len(points) + 1)
    for first, stop in _coverage_ranges(bounds, points):
        depth[first] += 1
        depth[stop] -= 1
    running = 0
    for p in range(len(points)):
        running += depth[p]
        if running % k:
            return False
    return True


def prefix_spreads(bounds: Sequence[Tuple[int, int]], colors: Sequence[int], k: int) -> List[int]:
    """Spread of every prefix of an arrival sequence.

    The sample points of the whole sequence refine those of each prefix,
    so one fixed set of points measures every prefix exactly.
    """
    points = sample_points(bounds)
    counts = [[0] * k for _ in points]
    spread = [0] * len(points)
    out = []
    for (first, stop), color in zip(_coverage_ranges(bounds, points), colors):
        for p in range(first, stop):
            row = counts[p]
            row[color - 1] += 1
            spread[p] = max(row) - min(row)
        out.append(max(spread, default=0))
    return out


def arc_spread(arcs: Sequence[Tuple[Fraction, Fraction]], circumference: Fraction, colors, k: int) -> int:
    """Largest spread over the circle, from endpoints and the midpoints between them."""
    den = scale_of(list(arcs) + [(circumference, circumference)])
    C = int(circumference * den)
    scaled = [(int(start * den), int(length * den)) for start, length in arcs]
    # with only full-circle arcs every point looks alike, so one will do
    xs = sorted({x for start, length in scaled if length < C for x in (start, (start + length) % C)}) or [0]
    # doubled units; the last midpoint is the gap that wraps across zero
    points = sorted([2 * x for x in xs] + [x + y for x, y in zip(xs, xs[1:])] + [(xs[-1] + xs[0] + C) % (2 * C)])
    m = len(points)
    ranges, owners = [], []
    for (start, length), color in zip(scaled, colors):
        if length >= C:
            spans = [(0, m)]
        elif start + length < C:
            spans = [(bisect_left(points, 2 * start), bisect_right(points, 2 * (start + length)))]
        else:
            spans = [(bisect_left(points, 2 * start), m), (0, bisect_right(points, 2 * (start + length - C)))]
        ranges += spans
        owners += [color] * len(spans)
    return _max_spread(ranges, owners, k, m)


def box_spread(boxes: Sequence[Sequence[Tuple[Fraction, Fraction]]], colors, k: int) -> int:
    """Largest spread over every cell of a box arrangement.

    Each dimension is sampled at its endpoints and gap midpoints; a cell
    is a combination of one sample per dimension, and the boxes covering
    it are the AND of the per-dimension bit masks.
    """
    if not boxes:
        return 0
    per_dim = []
    for dim in range(len(boxes[0])):
        bounds = integer_bounds([box[dim] for box in boxes])
        points = sample_points(bounds)
        masks = [0] * len(points)
        for b, (first, stop) in enumerate(_coverage_ranges(bounds, points)):
            for p in range(first, stop):
                masks[p] |= 1 << b
        per_dim.append(sorted(set(masks)))
    best = 0
    seen = set()
    for combo in product(*per_dim):
        mask = combo[0]
        for other in combo[1:]:
            mask &= other
        if not mask or mask in seen:
            continue
        seen.add(mask)
        counts = [0] * k
        b = 0
        while mask:
            if mask & 1:
                counts[colors[b] - 1] += 1
            mask >>= 1
            b += 1
        best = max(best, max(counts) - min(counts))
    return best


def nae_satisfiable(num_vars: int, clauses) -> bool:
    for bits in product((False, True), repeat=num_vars):
        if all(len({bits[v - 1] for v in clause}) > 1 for clause in clauses):
            return True
    return False


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _colors(data, n: int, k: int) -> List[int]:
    colors = data.get("colors") if isinstance(data, dict) else None
    _require(isinstance(colors, list) and len(colors) == n, f"expected {n} colors")
    _require(all(isinstance(c, int) and 1 <= c <= k for c in colors), f"a color is outside 1..{k}")
    return colors


class Checker:
    """Checks op results; keeps what it parsed, and each op's verdict.

    An op is checked once: later passes must repeat its stdout byte for
    byte, which the caller compares before asking for the verdict.
    """

    def __init__(self) -> None:
        self._files: Dict[str, object] = {}
        self._verdicts: Dict[str, Tuple[int, Dict[str, int]]] = {}
        self._scale: Dict[str, int] = {}

    def _load(self, path: str, parse):
        if path not in self._files:
            with open(path, encoding="utf-8") as fh:
                self._files[path] = parse(fh.read())
        return self._files[path]

    def _intervals(self, path: str) -> List[Tuple[int, int]]:
        def parse(text):
            data = json.loads(text)
            bounds = [(coord(lo), coord(hi)) for lo, hi in data["intervals"]]
            self._scale[path] = scale_of(bounds)
            return integer_bounds(bounds)

        return self._load(path, parse)

    def check(self, op: Dict, rc, stdout: str, outputs: Dict[str, str]) -> Tuple[int, Dict[str, int]]:
        """Verdict for one op: (items, exact counts), or CheckFailed.

        outputs maps earlier op ids of the same pass to their stdout, for
        ops that consume or cross-check another op's result.
        """
        if op["id"] not in self._verdicts:
            self._verdicts[op["id"]] = getattr(self, "_" + op["cmd"])(op["check"], rc, stdout, outputs)
        return self._verdicts[op["id"]]

    def _color(self, info, rc, stdout, outputs):
        _require(rc == 0, f"exit code {rc}")
        bounds = self._intervals(info["input"])
        data = _json(stdout)
        colors = _colors(data, len(bounds), info["k"])
        value = line_spread(bounds, colors, info["k"])
        _require(data.get("imbalance") == value, f"reported imbalance {data.get('imbalance')}, recount {value}")
        _require(value <= 1, f"imbalance {value} above 1")
        coords = len({x for pair in bounds for x in pair})
        return len(bounds), {"events": 2 * len(bounds), "distinct_coords": coords}

    def _verify(self, info, rc, stdout, outputs):
        bounds = self._intervals(info["input"])
        colors = _colors(_json(outputs[info["coloring"]]), len(bounds), info["k"])
        value = line_spread(bounds, colors, info["k"])
        data = _json(stdout)
        _require(data.get("imbalance") == value, f"verify says {data.get('imbalance')}, recount {value}")
        _require(rc == (0 if value <= 1 else 1), f"exit code {rc} for imbalance {value}")
        if value:
            witness = coord(data.get("witness")) * self._scale[info["input"]]  # undoubled units
            _require(
                spread_at(bounds, colors, info["k"], witness) == value,
                "witness does not attain the imbalance",
            )
        return len(bounds), {}

    def _oracle(self, info, rc, stdout, outputs):
        _require(rc == 0, f"exit code {rc}")
        bounds = self._intervals(info["input"])
        k = info["k"]
        data = _json(stdout)
        colors = _colors(data, len(bounds), k)
        minimum = data.get("minimum")
        _require(line_spread(bounds, colors, k) == minimum, "oracle coloring does not attain its minimum")
        _require((minimum == 0) == depths_divisible(bounds, k), "minimum 0 disagrees with the depths")
        achieved = _json(outputs[info["color"]]).get("imbalance")
        _require(achieved == minimum, f"color reached {achieved}, oracle minimum {minimum}")
        return len(bounds), {}

    def _arcs(self, info, rc, stdout, outputs):
        _require(rc == 0, f"exit code {rc}")

        def parse(text):
            data = json.loads(text)
            arcs = [(coord(s), coord(length)) for s, length in data["arcs"]]
            return arcs, coord(data["circumference"]), data["k"]

        arcs, circumference, k = self._load(info["input"], parse)
        data = _json(stdout)
        colors = _colors(data, len(arcs), k)
        value = arc_spread(arcs, circumference, colors, k)
        _require(data.get("imbalance") == value, f"reported spread {data.get('imbalance')}, recount {value}")
        _require(value <= 2, f"arc spread {value} above 2")
        return len(arcs), {}

    def _hypergraph(self, info, rc, stdout, outputs):
        _require(rc == 0, f"exit code {rc}")

        def parse(text):
            return [[int(cell) for cell in line.split()] for line in text.splitlines()[1:]]

        matrix = self._load(info["input"], parse)
        k = info["k"]
        data = _json(stdout)
        colors = _colors(data, len(matrix), k)
        _require(data.get("imbalance", 2) <= 1, "reported imbalance above 1")
        for j in range(len(matrix[0]) if matrix else 0):
            counts = [0] * k
            for row, color in zip(matrix, colors):
                counts[color - 1] += row[j]
            _require(max(counts) - min(counts) <= 1, f"column {j} unbalanced")
        return len(matrix), {}

    def _transcript(self, lines, k):
        records = [_json(line) for line in lines]
        bounds = [(coord(r["interval"][0]), coord(r["interval"][1])) for r in records]
        colors = [r["color"] for r in records]
        _require(all(isinstance(c, int) and 1 <= c <= k for c in colors), f"a color is outside 1..{k}")
        starts = [lo for lo, _ in bounds]
        _require(starts == sorted(starts), "startpoints decrease")
        trace = prefix_spreads(integer_bounds(bounds), colors, k)
        _require([r["max_imbalance"] for r in records] == trace, "running imbalance disagrees with the recount")
        return bounds, trace

    def _online(self, info, rc, stdout, outputs):
        _require(rc == 0, f"exit code {rc}")
        with open(info["input"], encoding="utf-8") as fh:
            expected = [(coord(lo), coord(hi)) for lo, hi in json.load(fh)["intervals"]]
        bounds, _ = self._transcript(stdout.splitlines(), info["k"])
        _require(bounds == expected, "transcript intervals differ from the stream")
        return len(bounds), {"presentations": len(bounds)}

    def _adversary(self, info, rc, stdout, outputs):
        _require(rc == 0, f"exit code {rc}")
        lines = stdout.splitlines()
        _require(len(lines) >= 1, "empty transcript")
        bounds, trace = self._transcript(lines[:-1], info["k"])
        summary = _json(lines[-1])
        final = summary.get("final_imbalance")
        _require(summary.get("rounds") == info["rounds"], "summary rounds differ")
        _require(final == (trace[-1] if trace else 0), "final imbalance differs from the transcript")
        if info["k"] == 2:
            bound = -(-info["rounds"] // 3)
            _require(final >= bound, f"final imbalance {final} below ceil(t/3) = {bound}")
        return len(bounds), {"presentations": len(bounds)}

    def _boxes(self, text: str, k: int):
        data = _json(text)
        _require(isinstance(data, dict) and data.get("k") == k, f"box instance without k={k}")
        return [tuple((coord(lo), coord(hi)) for lo, hi in box["bounds"]) for box in data["boxes"]]

    def _reduce(self, info, rc, stdout, outputs):
        _require(rc == 0, f"exit code {rc}")
        boxes = self._boxes(stdout, info["k"])
        return len(boxes), {"boxes": len(boxes)}

    def _decide(self, info, rc, stdout, outputs):
        boxes = self._boxes(outputs[info["reduced"]], info["k"])
        expected = nae_satisfiable(info["num_vars"], info["clauses"])
        data = _json(stdout)
        _require(data.get("balanced") is expected, f"balanced={data.get('balanced')}, brute force says {expected}")
        _require(rc == (0 if expected else 1), f"exit code {rc}")
        if expected:
            colors = _colors(data, len(boxes), info["k"])
            value = box_spread(boxes, colors, info["k"])
            _require(value <= 1 and data.get("imbalance") == value, f"box coloring spread {value}")
        return len(boxes), {"balanced": int(expected), "decided": 1}
