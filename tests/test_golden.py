"""Golden CLI output: sha256 of stdout on seeded inputs, pinned byte for byte.

The inputs are generated here from fixed seeds and written in the CLI's
own formats.  Each case pins the exit code and the digest of stdout, so
any change to the colors a command prints shows up as a failure; a
deliberate change of output must update the digests and say so in
CHANGES.md.
"""

import hashlib
import json
import random
import pytest

from intervalcolor.cli import main
from intervalcolor.formats import coord_json, format_instance_json
from helpers import random_arc_instance, random_instance


def interval_file(seed, n, k):
    rng = random.Random(seed)
    return format_instance_json(random_instance(rng, n, k, collide=0.5, span=1000))


def arc_file(seed, n, k):
    rng = random.Random(seed)
    inst = random_arc_instance(rng, n, k, circumference=200, full_rate=0.05)
    payload = {
        "k": inst.k,
        "circumference": coord_json(inst.circumference),
        "arcs": [[coord_json(arc.start), coord_json(arc.length)] for arc in inst.arcs],
    }
    return json.dumps(payload) + "\n"


def matrix_file(seed, rows, width):
    rng = random.Random(seed)
    lines = [f"{rows} {width}"]
    for _ in range(rows):
        if rng.random() < 0.05:
            row = [0] * width
        else:
            a = rng.randrange(width)
            b = rng.randrange(a, width)
            row = [1 if a <= c <= b else 0 for c in range(width)]
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


# name -> (input text, extra argv, exit code, sha256 of stdout)
CASES = {
    "color-k2": (
        lambda: interval_file(1, 2000, 2),
        ["color"],
        0,
        "987855ee53b3486392a3578ac5f561acef2a5f143ea84bcd4a871f910fa23809",
    ),
    "color-k3": (
        lambda: interval_file(2, 2000, 3),
        ["color"],
        0,
        "d0d85ad6a550436f25054297212ce7d5a717ef5c9675a58ab4f32ce7333d89d4",
    ),
    "color-k8": (
        lambda: interval_file(3, 2000, 8),
        ["color"],
        0,
        "41e02a9734b932bc17f64620862e3a863b177e1247ce538b925c0f760c24aadd",
    ),
    "color-k32": (
        lambda: interval_file(4, 2000, 32),
        ["color"],
        0,
        "86db52cb9409980073565754e99b90bc9dfaa778be81ba2b39a90e0a7ab5875e",
    ),
    "color-dewerra-k2": (
        lambda: interval_file(5, 40, 2),
        ["color", "--algorithm", "dewerra"],
        0,
        "9a4ac7bddf0befe5959fb7dcc46f23f54a770551ea9b0174426328749ade741b",
    ),
    "color-dewerra-k3": (
        lambda: interval_file(6, 12, 3),
        ["color", "--algorithm", "dewerra"],
        0,
        "a77f6be20dcd2973626b247a3dc81a5643a3d08c86e9e9ccce9e0dc52504c94e",
    ),
    "arcs-k4": (
        lambda: arc_file(7, 1000, 4),
        ["arcs"],
        0,
        "7bdc83d4b331d81fe762ff79d6270222a5221bfe37cfd6be05e5b1bf86fac4b8",
    ),
    "hypergraph-k3": (
        lambda: matrix_file(8, 300, 80),
        ["hypergraph", "--k", "3"],
        0,
        "c75d579e2a30e3e25fa8a6a5f2ddfb6d3eda5153730f3ff742eec9decb67e64b",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_is_pinned(name, tmp_path, capsys):
    make_input, argv, code, digest = CASES[name]
    path = tmp_path / "input"
    path.write_text(make_input(), encoding="utf-8")
    got = main(argv + ["--input", str(path)])
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
