"""Seeded inputs and command lists for the benchmark workloads.

Each workload is a fixed list of CLI operations ("ops") over inputs drawn
from one seed.  Every generator here is the benchmark's own code: nothing
is imported from the program, so the inputs stay the same bytes whatever
the program under test does.  Coordinates are written the way the CLI
documents them: JSON integers, or "num/den" strings for halves.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Tuple

WHY = {
    "line-large": "the core pipeline at scale: color then verify on n=100000, k=8;"
    " parsing, ranking, the sweep, the graph and imbalance carry the time",
    "wide-k": "k rather than n drives the cost: k=32, k=1024 above the depth,"
    " and wrapping arcs, so edge coloring and window padding dominate",
    "online": "the online loop and the adversary: thousands of small prefix"
    " imbalance calls instead of one large call",
    "exact-small": "many small ops: the NAE reduction and box decider, the"
    " exhaustive oracle, rebalancing, hypergraphs, small arcs and CLI overhead",
}

WORKLOADS = tuple(WHY)

# op seconds of one full-size pass on a 2-vCPU Xeon under Python 3.11;
# a run's pass count is --seconds divided by this, rounded
PASS_S = {"line-large": 15.0, "wide-k": 8.0, "online": 8.5, "exact-small": 12.5}

# fewest passes of an untraced run: a line-large pass is a single color
# and a single verify, so three passes give each of them a median
MIN_PASSES = {"line-large": 3}


def _rng(seed: int, workload: str, part: str) -> random.Random:
    return random.Random(f"{seed}/{workload}/{part}")


def _half(v: int):
    """JSON coordinate for v/2."""
    return v // 2 if v % 2 == 0 else f"{v}/2"


def interval_bounds(rng: random.Random, n: int, span: int, collide: float = 0.3):
    """n closed intervals with endpoints in halves of [-span, span).

    With probability `collide` an endpoint comes from a shared pool of
    n/2 values, so equal starts, equal ends and touching pairs occur.
    Returned in half units: (2*lo, 2*hi).
    """
    pool = [rng.randrange(-span, span) for _ in range(max(4, n // 2))]
    out = []
    for _ in range(n):
        a = rng.choice(pool) if rng.random() < collide else rng.randrange(-span, span)
        b = rng.choice(pool) if rng.random() < collide else rng.randrange(-span, span)
        out.append((a, b) if a <= b else (b, a))
    return out


def instance_json(bounds, k: int) -> str:
    return json.dumps({"k": k, "intervals": [[_half(a), _half(b)] for a, b in bounds]}) + "\n"


def stream_bounds(rng: random.Random, n: int, span: int):
    """n intervals whose starts do not decrease (the online contract)."""
    starts = sorted(rng.randrange(0, 2 * span) for _ in range(n))
    return [(s, s + rng.randrange(0, span // 4)) for s in starts]


def arc_json(rng: random.Random, n: int, k: int, circumference: int, full_rate: float) -> str:
    """Arcs as (start, length) in halves; some wrap zero, some cover the circle."""
    arcs = []
    for _ in range(n):
        start = rng.randrange(0, 2 * circumference)
        if rng.random() < full_rate:
            length = 2 * circumference + rng.randrange(0, 2 * circumference)
        else:
            length = rng.randrange(1, 2 * circumference)
        arcs.append([_half(start), _half(length)])
    return json.dumps({"k": k, "circumference": circumference, "arcs": arcs}) + "\n"


def hypergraph_text(rng: random.Random, rows: int, cols: int) -> str:
    """Consecutive-ones 0/1 matrix; about one row in ten is all zero."""
    lines = [f"{rows} {cols}"]
    for _ in range(rows):
        row = ["0"] * cols
        if rng.random() >= 0.1:
            a = rng.randrange(cols)
            b = rng.randrange(a, cols)
            row[a : b + 1] = ["1"] * (b + 1 - a)
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def nae_formula(rng: random.Random, max_clauses: int = 3, max_vars: int = 5):
    nv = rng.randint(1, max_vars)
    nc = rng.randint(0, max_clauses)
    return nv, [tuple(rng.randint(1, nv) for _ in range(3)) for _ in range(nc)]


def nae_text(num_vars: int, clauses) -> str:
    lines = [f"p nae {num_vars} {len(clauses)}"]
    lines += [f"{a} {b} {c}" for a, b, c in clauses]
    return "\n".join(lines) + "\n"


class Plan:
    """Writes input files and collects the op list of one workload."""

    def __init__(self, root: Path):
        self.inputs = root / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.ops: List[Dict] = []
        self.input_sha: Dict[str, str] = {}

    def file(self, name: str, text: str) -> str:
        data = text.encode()
        path = self.inputs / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
        self.input_sha[name] = hashlib.sha256(data).hexdigest()
        return str(path)

    def op(self, cmd: str, argv: List[str], **check) -> str:
        op_id = f"{len(self.ops):04d}-{cmd}"
        self.ops.append({"id": op_id, "cmd": cmd, "argv": argv, "check": check})
        return op_id

    def color_verify(self, name: str, bounds, k: int) -> None:
        path = self.file(f"{name}.json", instance_json(bounds, k))
        cid = self.op("color", ["color", "--input", path], input=path, k=k)
        self.op("verify", ["verify", "--input", path, "--coloring", f"@{cid}"], input=path, k=k, coloring=cid)


def build(workload: str, seed: int, smoke: bool, root: Path) -> Tuple[List[Dict], Dict[str, str]]:
    """Write the workload's inputs under root and return (ops, input sha256s).

    Ops whose argv holds "@<op id>" read that earlier op's stdout.
    """
    b = Plan(root)
    if workload == "line-large":
        n = 2_000 if smoke else 100_000
        b.color_verify("line", interval_bounds(_rng(seed, workload, "line"), n, 10**6), 8)
    elif workload == "wide-k":
        n = 500 if smoke else 20_000
        b.color_verify("wide", interval_bounds(_rng(seed, workload, "wide"), n, 10**6), 32)
        few = 30 if smoke else 300
        path = b.file("deep-k.json", instance_json(interval_bounds(_rng(seed, workload, "deep-k"), few, 10**3), 2))
        argv = ["color", "--input", path, "--k", "1024"]
        b.op("color", argv, input=path, k=1024)
        path = b.file("arcs.json", arc_json(_rng(seed, workload, "arcs"), 300 if smoke else 10_000, 16, 10**6, 0.05))
        b.op("arcs", ["arcs", "--input", path], input=path)
    elif workload == "online":
        n = 100 if smoke else 1_000
        path = b.file("stream.json", instance_json(stream_bounds(_rng(seed, workload, "stream"), n, 10**4), 3))
        argv = ["online", "--algorithm", "greedy_least_loaded", "--k", "3", "--rounds", str(n), "--input", path]
        b.op("online", argv, input=path, k=3)
        for alg, k, rounds in (("round_robin", 2, 240), ("seeded_random", 4, 120)):
            rounds = rounds // 8 if smoke else rounds
            argv = ["online", "--algorithm", alg, "--k", str(k), "--rounds", str(rounds), "--adversary"]
            if alg == "seeded_random":
                argv += ["--seed", str(_rng(seed, workload, alg).randrange(10**6))]
            b.op("adversary", argv, k=k, rounds=rounds)
    elif workload == "exact-small":
        _exact_small(b, seed, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return b.ops, b.input_sha


def interleave(groups: List[List[Callable[[], None]]]) -> List[Callable[[], None]]:
    """The units of all groups in one order that spreads each group evenly.

    Unit i of a group of m sits at (i + 0.5) / m of the pass, so every
    command's samples span the whole pass instead of a few seconds of it,
    and a slow spell of the machine weighs on all commands alike.
    """
    keyed = [((i + 0.5) / len(g), gi, i) for gi, g in enumerate(groups) for i in range(len(g))]
    return [groups[gi][i] for _, gi, i in sorted(keyed)]


def _exact_small(b: Plan, seed: int, smoke: bool) -> None:
    """The decider and oracle corpora are those of acceptance criteria 8 and 2.

    They are drawn as tests/test_acceptance.py draws them (seeds 88 and
    102), so these ops time exactly the instances the gate checks; the
    rest of the workload follows --seed.  Sizes and k of the seeded
    groups are fixed schedules and only their contents are drawn, so
    every seed makes the same number of items of each size.
    """
    w = "exact-small"
    nae, oracle, dewerra, hyper, arcs = [], [], [], [], []

    def reduce_decide(path, k, nv, clauses):
        rid = b.op("reduce", ["reduce", "nae3sat", "--input", path, "--k", str(k)], k=k)
        b.op("decide", ["decide-boxes", "--input", f"@{rid}"], k=k, reduced=rid, num_vars=nv, clauses=clauses)

    def color_oracle(path, k):
        cid = b.op("color", ["color", "--input", path], input=path, k=k)
        b.op("oracle", ["oracle", "--input", path], input=path, k=k, color=cid)

    rng = random.Random(88)
    formulas = [(3, [(1, 2, 3)]), (1, [(1, 1, 1)])]
    formulas += [nae_formula(rng) for _ in range(4 if smoke else 50)]
    for pos, (nv, clauses) in enumerate(formulas):
        ks = (2, 3) if len(clauses) <= 2 else (2,)
        path = b.file(f"nae-{pos}.cnf", nae_text(nv, clauses))
        nae += [partial(reduce_decide, path, k, nv, clauses) for k in ks]
    rng = random.Random(102)
    for pos in range(10 if smoke else 300):
        n = rng.randint(0, 9)
        k = rng.choice((2, 3))
        path = b.file(f"small-{pos}.json", instance_json(interval_bounds(rng, n, 60), k))
        oracle.append(partial(color_oracle, path, k))
    # rebalancing gives up after k(k-1)/2 + k passes, which happens on a
    # few instances in a thousand once n reaches 40 (criterion 4); none of
    # 30000 draws at these sizes needed that many
    rng = _rng(seed, w, "dewerra")
    for pos in range(3 if smoke else 30):
        n, k = 2 + pos % 15, 2 + pos % 3
        path = b.file(f"dewerra-{pos}.json", instance_json(interval_bounds(rng, n, 60), k))
        argv = ["color", "--input", path, "--algorithm", "dewerra"]
        dewerra.append(partial(b.op, "color", argv, input=path, k=k))
    rng = _rng(seed, w, "hypergraph")
    for pos in range(2 if smoke else 20):
        k = 1 + pos % 5
        path = b.file(f"matrix-{pos}.txt", hypergraph_text(rng, 50, 50))
        hyper.append(partial(b.op, "hypergraph", ["hypergraph", "--input", path, "--k", str(k)], input=path, k=k))
    rng = _rng(seed, w, "arcs")
    count = 4 if smoke else 60
    for pos in range(count):
        n, k = pos * 41 // count, 1 + pos % 6
        path = b.file(f"arcs-{pos}.json", arc_json(rng, n, k, 20, 0.1))
        arcs.append(partial(b.op, "arcs", ["arcs", "--input", path], input=path))
    for unit in interleave([nae, oracle, dewerra, hyper, arcs]):
        unit()
