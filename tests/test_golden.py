"""Golden CLI output: sha256 of stdout on seeded inputs, pinned byte for byte.

The inputs are generated here from fixed seeds and written in the CLI's
own formats.  Each case pins the exit code and the digest of stdout, so
any change to the colors a command prints shows up as a failure; a
deliberate change of output must update the digests and say so in
CHANGES.md.

Run as a script (`PYTHONPATH=src python tests/test_golden.py`) to print
each case's name, exit code and stdout sha256 at the current code, so
deliberate changes can be recaptured and reviewed as a diff.
"""

import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from intervalcolor.cli import main
from intervalcolor.core import make_instance
from intervalcolor.formats import (
    coord_json,
    format_box_instance_json,
    parse_nae_text,
)
from intervalcolor.hardness import reduce_nae_to_boxes
from helpers import (
    arcs_of,
    circumference_of,
    format_instance_json,
    random_arc_instance,
    random_instance,
)


def interval_file(seed, n, k):
    rng = random.Random(seed)
    return format_instance_json(random_instance(rng, n, k, collide=0.5, span=1000))


def coloring_file(seed, n, k):
    rng = random.Random(seed)
    return json.dumps({"colors": [rng.randint(1, k) for _ in range(n)]}) + "\n"


def verify_files(seed, n, k):
    """An interval file and a random coloring of it, for verify."""
    return {"--input": interval_file(seed, n, k), "--coloring": coloring_file(seed, n, k)}


def arc_file(seed, n, k):
    rng = random.Random(seed)
    inst = random_arc_instance(rng, n, k, circumference=200, full_rate=0.05)
    payload = {
        "k": inst.k,
        "circumference": coord_json(circumference_of(inst)),
        "arcs": [[coord_json(arc.start), coord_json(arc.length)] for arc in arcs_of(inst)],
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


def stream_file(seed, n, k):
    """Online stream: nondecreasing half-integer starts with repeats."""
    rng = random.Random(seed)
    lo, bounds = Fraction(0), []
    for _ in range(n):
        lo += Fraction(rng.choice((0, 0, 1, 1, 2, 3)), 2)
        bounds.append((lo, lo + Fraction(rng.randrange(0, 40), 2)))
    return format_instance_json(make_instance(bounds, k))


NAE_FORMULA = "p nae 4 3\n1 2 3\n2 3 4\n1 3 4\n"
UNSAT_FORMULA = "p nae 1 1\n1 1 1\n"


def box_file(formula, k):
    return format_box_instance_json(reduce_nae_to_boxes(parse_nae_text(formula), k))


# name -> (input text or None, argv, exit code, sha256 of stdout); with an
# input the case's argv gets "--input PATH" appended, and with a dict of
# flag -> text each flag with its file's path
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
        "74b3de033772640db7f358e9932841d4c4599ff3a23af85e2587ffa0d3d44abf",
    ),
    "color-k32": (
        lambda: interval_file(4, 2000, 32),
        ["color"],
        0,
        "2dff5fb95b21cef2c099eeff0c60a6f0fae5ac17fe6e9f56436e063e630cadfa",
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
    "arcs-k3": (
        lambda: arc_file(14, 1000, 3),
        ["arcs"],
        0,
        "d40c1c634057a847fe90b62dfc0c02e4a51497d61a7e296d37043ca9be5bc3a4",
    ),
    "arcs-k4": (
        lambda: arc_file(7, 1000, 4),
        ["arcs"],
        0,
        "878ddb9db605b6714124571dcd7fe48737cd4b4299fa5bcd57efcc9366d75419",
    ),
    # a random coloring's first worst point: the coordinate -699/2 for
    # verify-k3 and the midpoint -183/4 of -92 and -91/2 for verify-k4
    "verify-k3": (
        lambda: verify_files(16, 300, 3),
        ["verify"],
        1,
        "4bbc6ab2c5b51ccfe357d3d436043fee5630ae5f8e247ce71ea8a596b54ecfd5",
    ),
    "verify-k4": (
        lambda: verify_files(18, 300, 4),
        ["verify"],
        1,
        "6a2d2402d8af7898b8431ab6986ff96e8ff043e69c88bd621250fa8b723a1812",
    ),
    "hypergraph-k3": (
        lambda: matrix_file(8, 300, 80),
        ["hypergraph", "--k", "3"],
        0,
        "c75d579e2a30e3e25fa8a6a5f2ddfb6d3eda5153730f3ff742eec9decb67e64b",
    ),
    "online-greedy-k3": (
        lambda: stream_file(9, 300, 3),
        ["online", "--algorithm", "greedy_least_loaded", "--k", "3", "--rounds", "300"],
        0,
        "af28b368427a71e0c74388679090116fdac1b161a0918065e6e97f71c562bbce",
    ),
    "online-adversary-round-robin-k2": (
        None,
        ["online", "--adversary", "--algorithm", "round_robin", "--k", "2", "--rounds", "60"],
        0,
        "f658c69a3e6dded7e180b9ca6d7217ca98fba98861e9c7bbc86a7fc528d2c5f0",
    ),
    "online-adversary-seeded-random-k4": (
        None,
        ["online", "--adversary", "--algorithm", "seeded_random", "--seed", "10",
         "--k", "4", "--rounds", "30"],
        0,
        "a07da906e684ef70fa7ebce00e2cecaf4c09ca9ce01023118de1eae7bf754fa9",
    ),
    "online-adversary-greedy-k3": (
        None,
        ["online", "--adversary", "--algorithm", "greedy", "--k", "3", "--rounds", "20"],
        0,
        "9c3f2ea8a587d66a5e6bc7ea451ad1ad38754b86a3441c6bc1fd43f78afe9583",
    ),
    "reduce-nae3sat": (
        lambda: NAE_FORMULA,
        ["reduce", "nae3sat"],
        0,
        "0a458737f9129e69f619d4ef8fdb31671aa597805c1f491015419e7e5b6c87e5",
    ),
    "decide-boxes": (
        lambda: box_file(NAE_FORMULA, 2),
        ["decide-boxes"],
        0,
        "92da5570e7e94f06d54f81caca0b4bc97f3c16dfab5e4986b07a6130022b9651",
    ),
    "decide-boxes-k3": (
        lambda: box_file(NAE_FORMULA, 3),
        ["decide-boxes"],
        0,
        "910c878109e772ee6e817892fbb327b1078df1876b661166e18150699598671e",
    ),
    "decide-boxes-unsat": (
        lambda: box_file(UNSAT_FORMULA, 2),
        ["decide-boxes"],
        1,
        "33aa75946278672d7dd31e7a55b7aa21c5e10be100acaf7d57732388a02a1744",
    ),
    "oracle-k2": (
        lambda: interval_file(12, 12, 2),
        ["oracle"],
        0,
        "7546fb03e0f5b11a9f447739a30e5b7fd6b2e574a55b853d0a55e2902b39cba1",
    ),
    "oracle-k3": (
        lambda: interval_file(13, 11, 3),
        ["oracle"],
        0,
        "8c4012cd5198bfa3eb5f7accc03fa6ae6f32cdfc527ebcced315e2ac672bda6a",
    ),
}


def case_output(name, directory):
    """Exit code and stdout of one case at the current code."""
    make_input, argv, _, _ = CASES[name]
    files = {} if make_input is None else make_input()
    if isinstance(files, str):
        files = {"--input": files}
    for flag, text in files.items():
        path = Path(directory) / flag.lstrip("-")
        path.write_text(text, encoding="utf-8")
        argv = argv + [flag, str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_case(name, directory):
    """Exit code and stdout sha256 of one case at the current code."""
    code, stdout = case_output(name, directory)
    return code, hashlib.sha256(stdout.encode()).hexdigest()


# k -> sha256 of the file `reduce nae3sat --svg` writes for NAE_FORMULA;
# k = 3 adds a cover box, whose corner lies at negative coordinates
SVG_DIGESTS = {
    2: "1892920de30dfa5b513d096213c51053aae7c2fd28792044b8ac1c7ed3a697c5",
    3: "6abce5f07824d8dac58674a51002c61bf87e128dbb2ee1cee6ea9cbe318d864a",
}


def svg_digest(k, directory):
    """sha256 of the SVG drawing of NAE_FORMULA's reduction at k."""
    formula = Path(directory) / "formula.nae"
    svg = Path(directory) / "boxes.svg"
    formula.write_text(NAE_FORMULA, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["reduce", "nae3sat", "--input", str(formula), "--k", str(k),
                     "--svg", str(svg)]) == 0
    return hashlib.sha256(svg.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_is_pinned(name, tmp_path):
    assert run_case(name, tmp_path) == CASES[name][2:]


@pytest.mark.parametrize("name, at_coordinate", [("verify-k3", True), ("verify-k4", False)])
def test_verify_cases_witness_a_coordinate_and_a_midpoint(name, at_coordinate, tmp_path):
    intervals = json.loads(CASES[name][0]()["--input"])["intervals"]
    endpoints = {Fraction(x) for pair in intervals for x in pair}
    witness = Fraction(json.loads(case_output(name, tmp_path)[1])["witness"])
    assert witness.denominator > 1  # half-integer inputs, a non-integer witness
    assert (witness in endpoints) == at_coordinate


@pytest.mark.parametrize("k", sorted(SVG_DIGESTS))
def test_reduce_svg_is_pinned(k, tmp_path):
    assert svg_digest(k, tmp_path) == SVG_DIGESTS[k]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        for name in sorted(CASES):
            code, digest = run_case(name, directory)
            print(f"{name} {code} {digest}")
        for k in sorted(SVG_DIGESTS):
            print(f"reduce-svg-k{k} {svg_digest(k, directory)}")
