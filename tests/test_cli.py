"""End-to-end tests of the command line: files in, JSON and exit codes out."""

import argparse
import ast
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import product

import pytest

from intervalcolor import cli, hardness
from intervalcolor.cli import main
from intervalcolor.core import Coloring, ImbalanceReport, imbalance, make_instance, to_coord
from intervalcolor.formats import (
    FormatError,
    coord_json,
    format_box_instance_json,
    parse_arc_json,
    parse_box_instance_json,
    parse_coloring_json,
    parse_instance_json,
)
from intervalcolor.hardness import (
    MAX_BOX_DIMS,
    MAX_REDUCTION_CLAUSES,
    MAX_REDUCTION_K,
    MAX_REDUCTION_VARS,
    BoxInstance,
    box_imbalance,
    reduce_nae_to_boxes,
)
from intervalcolor.online import MAX_PRESENTATIONS
from test_cli_bytes import COMMANDS
from helpers import (
    format_instance_json,
    formula_corpus,
    random_c1p_matrix,
    random_coloring,
    random_instance,
    reference_box_imbalance,
    reference_column_spread,
    reference_format_box_instance_json,
    reference_parse_hypergraph_text,
)

TWO = '{"k": 2, "intervals": [[0, 2], ["1/2", "5/2"]]}\n'


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_color_two_intervals(tmp_path, capsys):
    path = write(tmp_path, "two.json", TWO)
    code, out, err = run(capsys, "color", "--input", path)
    assert code == 0
    assert err == ""
    data = json.loads(out)
    assert sorted(data["colors"]) == [1, 2]
    assert data["imbalance"] == 1


def test_color_empty_instance(tmp_path, capsys):
    path = write(tmp_path, "empty.json", '{"k": 3, "intervals": []}')
    code, out, _ = run(capsys, "color", "--input", path)
    assert code == 0
    assert json.loads(out) == {"colors": [], "imbalance": 0}


def test_color_text_format(tmp_path, capsys):
    path = write(tmp_path, "two.txt", "2 2\n0 1\n0.5 2\n")
    code, out, _ = run(capsys, "color", "--input", path, "--format", "text")
    assert code == 0
    assert json.loads(out)["imbalance"] == 1


def test_color_malformed_json(tmp_path, capsys):
    path = write(tmp_path, "bad.json", '{"k": 2, "intervals": [[0')
    code, out, err = run(capsys, "color", "--input", path)
    assert code == 2
    assert out == ""
    assert err != ""


@pytest.mark.parametrize(
    "read, text, message",
    [
        (parse_instance_json, '{"k": 2, "intervals": [[0, 1], "12"]}',
         'instance: "intervals"[1] must be a two-element list'),
        (parse_instance_json, '{"k": 2, "intervals": [[2, 1], {"1": 0, "2": 1}]}',
         'instance: "intervals"[1] must be a two-element list'),
        # a malformed entry is named before an earlier bad coordinate or k
        (parse_instance_json, '{"k": 0, "intervals": [["x", 1], [1, 2, 3]]}',
         'instance: "intervals"[1] must be a two-element list'),
        (parse_instance_json, '{"k": 2, "intervals": [[0, 1], [3, 1], []]}',
         'instance: "intervals"[2] must be a two-element list'),
        (parse_instance_json, '{"k": 2, "intervals": [["x", 1], [0, 1]]}',
         "instance: not a valid coordinate: 'x'"),
        (parse_arc_json, '{"k": 2, "circumference": "x", "arcs": [[0, 1], [1]]}',
         'arc instance: "arcs"[1] must be a two-element list'),
        (parse_box_instance_json,
         '{"d": 1, "k": 2, "boxes": [{"id": 0, "tag": "a", "bounds": [[0]]}, {"id": 5}]}',
         'box instance: boxes[0]: "bounds"[0] must be a two-element list'),
        (parse_coloring_json, '{"colors": [1, 2, true, "3"]}', "coloring: color 2 must be an integer"),
    ],
)
def test_malformed_entries_are_named_by_position(read, text, message):
    with pytest.raises(FormatError) as caught:
        read(text)
    assert str(caught.value) == message


def test_color_malformed_text_line(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "2 2\n0 1\n3\n")
    code, out, err = run(capsys, "color", "--input", path, "--format", "text")
    assert code == 2
    assert "line 1" in err


def test_duplicate_json_keys_exit_2(tmp_path, capsys):
    inputs = [
        ("color", '{"k": 2, "intervals": [[0, 1], [0, 1]], "k": 3}'),
        ("arcs", '{"k": 2, "circumference": 4, "circumference": 5, "arcs": []}'),
        ("decide-boxes", '{"d": 1, "k": 2, "boxes": [], "boxes": []}'),
    ]
    for command, text in inputs:
        path = write(tmp_path, "dup.json", text)
        code, out, err = run(capsys, command, "--input", path)
        assert (code, out) == (2, "")
        assert "duplicate key" in err
    inst = write(tmp_path, "two.json", TWO)
    coloring = write(tmp_path, "col.json", '{"colors": [1, 2], "colors": [1, 1]}')
    code, out, err = run(capsys, "verify", "--input", inst, "--coloring", coloring)
    assert (code, out) == (2, "")
    assert "duplicate key" in err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    # past the interpreter's recursion limit, json raises RecursionError
    deep = write(tmp_path, "deep.json", "[" * 100_000)
    inst = write(tmp_path, "two.json", TWO)
    for argv in (
        ["color", "--input", deep],
        ["verify", "--input", deep, "--coloring", deep],
        ["verify", "--input", inst, "--coloring", deep],
        ["oracle", "--input", deep],
        ["arcs", "--input", deep],
        ["online", "--algorithm", "greedy", "--k", "2", "--rounds", "3", "--input", deep],
        ["decide-boxes", "--input", deep],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "nested too deeply" in err, argv


def test_guarantee_breach_exits_3(tmp_path, monkeypatch, capsys):
    # a colorer that paints everything alike breaks the promised bound;
    # the command must refuse its own result instead of printing it
    import intervalcolor.cli as cli
    from intervalcolor.core import Coloring

    def alike(instance):
        return Coloring((1,) * instance.n, instance.k)

    monkeypatch.setattr(cli, "k_color", alike)
    monkeypatch.setattr(cli, "k_color_dewerra", alike)
    monkeypatch.setattr(cli, "arc_color", alike)
    stacked = write(tmp_path, "stacked.json", '{"k": 2, "intervals": [[0, 1], [0, 1]]}')
    matrix = write(tmp_path, "m.txt", "2 1\n1\n1\n")
    arcs = write(
        tmp_path, "arcs.json", '{"k": 2, "circumference": 4, "arcs": [[0, 1], [0, 1], [0, 1]]}'
    )
    for argv in (
        ["color", "--input", stacked],
        ["color", "--input", stacked, "--algorithm", "dewerra"],
        ["hypergraph", "--input", matrix, "--k", "2"],
        ["arcs", "--input", arcs],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert "above the guaranteed" in err
    # spread 2 is within the arc guarantee
    two = write(tmp_path, "two.json", '{"k": 2, "circumference": 4, "arcs": [[0, 1], [0, 1]]}')
    code, out, _ = run(capsys, "arcs", "--input", two)
    assert code == 0 and json.loads(out)["imbalance"] == 2


def test_color_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "color", "--input", str(tmp_path / "nope.json"))
    assert code == 2
    assert err != ""


def test_color_k_override(tmp_path, capsys):
    path = write(tmp_path, "two.json", TWO)
    code, out, _ = run(capsys, "color", "--input", path, "--k", "4")
    assert code == 0
    colors = json.loads(out)["colors"]
    assert len(colors) == 2 and all(1 <= c <= 4 for c in colors)


def test_color_dewerra_algorithm(tmp_path, capsys):
    rng = random.Random(5)
    instance = random_instance(rng, 25, 3)
    path = write(tmp_path, "inst.json", format_instance_json(instance))
    code, out, _ = run(capsys, "color", "--input", path, "--algorithm", "dewerra")
    assert code == 0
    assert json.loads(out)["imbalance"] <= 1


def dewerra_corpus_instance(trial):
    """Trial trial of the acceptance corpus of rebalancing runs (seed 104)."""
    rng = random.Random(104)
    for _ in range(trial + 1):
        n, k = rng.randint(2, 60), rng.randint(2, 8)
        instance = random_instance(rng, n, k)
    return instance


@pytest.mark.parametrize("trial", [1, 42, 190])
def test_color_dewerra_finishes_past_the_old_pass_cap(tmp_path, capsys, trial):
    # these runs need more than k(k-1)/2 + k passes, where a guessed cap used
    # to stop them with exit 3
    path = write(tmp_path, "inst.json", format_instance_json(dewerra_corpus_instance(trial)))
    code, out, _ = run(capsys, "color", "--input", path, "--algorithm", "dewerra")
    assert code == 0 and json.loads(out)["imbalance"] <= 1


def test_color_dewerra_pass_that_keeps_the_potential_exits_3(tmp_path, monkeypatch, capsys):
    # a halve that moves no interval leaves the potential where it was
    module = importlib.import_module("intervalcolor.k_color")
    monkeypatch.setattr(module, "halve", lambda order, classes, count: [2 + c for c in classes])
    path = write(tmp_path, "inst.json", format_instance_json(dewerra_corpus_instance(1)))
    code, out, err = run(capsys, "color", "--input", path, "--algorithm", "dewerra")
    assert (code, out) == (3, "")
    assert "left the potential at" in err


def test_color_then_verify_round_trip(tmp_path, capsys):
    rng = random.Random(11)
    for seed in range(6):
        instance = random_instance(rng, 5 * seed, rng.choice((1, 2, 3, 5)))
        inst = write(tmp_path, f"i{seed}.json", format_instance_json(instance))
        code = main(["color", "--input", inst])
        colored = write(tmp_path, f"c{seed}.json", capsys.readouterr().out)
        assert code == 0
        assert main(["verify", "--input", inst, "--coloring", colored]) == 0
        capsys.readouterr()


@pytest.mark.parametrize(
    "value",
    [" 3", "+3", "1_000", "\u0663", "007", "-0/5", "3/0", "3/-2", "0.25", "1e3",
     "1/2 ", "", True, "1e1000000"],
    ids=ascii,
)
def test_coordinate_grammar_at_the_command_line(tmp_path, capsys, value):
    # every coordinate string reads as to_coord reads it, in interval and
    # box files alike; a rejected one exits 2 with to_coord's message
    path = write(tmp_path, "one.json", json.dumps({"k": 2, "intervals": [[value, 10**4]]}))
    code, out, err = run(capsys, "color", "--input", path)
    box = {"id": 0, "tag": "clause", "bounds": [[0, 1], [value, 10**4]]}
    boxes = write(tmp_path, "box.json", json.dumps({"d": 2, "k": 2, "boxes": [box]}))
    box_result = run(capsys, "decide-boxes", "--input", boxes)
    try:
        x = to_coord(value)
    except (TypeError, ValueError) as exc:
        assert (code, out, err) == (2, "", f"error: instance: {exc}\n")
        assert box_result == (2, "", f"error: box instance: {exc}\n")
        return
    assert code == 0 and json.loads(out) == {"colors": [1], "imbalance": 1}
    assert box_result[0] == 0
    assert json.loads(box_result[1]) == {"balanced": True, "colors": [1], "imbalance": 1}
    coloring = write(tmp_path, "one-colors.json", out)
    code, out, _ = run(capsys, "verify", "--input", path, "--coloring", coloring)
    assert json.loads(out) == {"imbalance": 1, "witness": coord_json(x)}


def test_color_and_verify_build_no_intervals(tmp_path, capsys, monkeypatch):
    # the sweeps read integer keys; Interval objects are built only on
    # request, and no command here requests them
    loaded = []
    load = cli._load_instance

    def keep(args):
        loaded.append(load(args))
        return loaded[-1]

    monkeypatch.setattr(cli, "_load_instance", keep)
    rng = random.Random(37)
    # ids 0, 3, 6, ... pile up near 0 and the rest near 5, so rebalancing
    # has work to do; denominators of 10**30 give Fraction keys
    tiny = [
        [f"{i + 5 * bool(i % 3) * 10**30}/{10**30}", 1 + 5 * bool(i % 3)]
        for i in range(20)
    ]
    for text in (
        format_instance_json(random_instance(rng, 40, 3)),
        json.dumps({"k": 3, "intervals": tiny}),
    ):
        path = write(tmp_path, "inst.json", text)
        code, out, _ = run(capsys, "color", "--input", path)
        coloring = write(tmp_path, "colors.json", out)
        assert code == 0
        assert run(capsys, "verify", "--input", path, "--coloring", coloring)[0] == 0
        assert run(capsys, "color", "--input", path, "--algorithm", "dewerra")[0] == 0
        assert run(capsys, "color", "--input", path, "--k", "4")[0] == 0
    assert len(loaded) == 8
    assert all("intervals" not in vars(instance) for instance in loaded)


def test_verify_monochromatic_pair(tmp_path, capsys):
    inst = write(tmp_path, "two.json", TWO)
    colored = write(tmp_path, "mono.json", '{"colors": [1, 1]}')
    code, out, _ = run(capsys, "verify", "--input", inst, "--coloring", colored)
    assert code == 1
    data = json.loads(out)
    assert data["imbalance"] == 2
    assert data["witness"] is not None


def test_verify_wrong_length(tmp_path, capsys):
    inst = write(tmp_path, "two.json", TWO)
    colored = write(tmp_path, "short.json", '{"colors": [1]}')
    code, _, err = run(capsys, "verify", "--input", inst, "--coloring", colored)
    assert code == 2
    assert "2 intervals" in err


def test_verify_color_out_of_range(tmp_path, capsys):
    inst = write(tmp_path, "two.json", TWO)
    colored = write(tmp_path, "oob.json", '{"colors": [1, 9]}')
    code, _, err = run(capsys, "verify", "--input", inst, "--coloring", colored)
    assert code == 2
    assert err != ""


def test_oracle_reports_minimum(tmp_path, capsys):
    inst = write(tmp_path, "two.json", TWO)
    code, out, _ = run(capsys, "oracle", "--input", inst)
    assert code == 0
    assert json.loads(out)["minimum"] == 1


def test_oracle_rejects_large_instance(tmp_path, capsys):
    pairs = ", ".join(f"[{i}, {i + 1}]" for i in range(13))
    inst = write(tmp_path, "big.json", '{"k": 2, "intervals": [%s]}' % pairs)
    code, _, err = run(capsys, "oracle", "--input", inst)
    assert code == 2
    assert "oracle" in err


def test_oracle_checks_the_minimum_it_prints(tmp_path, capsys, monkeypatch):
    # three stacked intervals and k = 2: the minimum is 1, by divisibility
    stacked = write(tmp_path, "stacked.json", '{"k": 2, "intervals": [[0, 1], [0, 1], [0, 1]]}')
    code, out, _ = run(capsys, "oracle", "--input", stacked)
    assert (code, json.loads(out)) == (0, {"minimum": 1, "colors": [1, 1, 2]})
    # an oracle whose coloring does not attain its minimum is refused
    monkeypatch.setattr(cli, "min_imbalance_oracle", lambda inst: (0, Coloring((1, 1, 1), 2)))
    code, out, err = run(capsys, "oracle", "--input", stacked)
    assert (code, out) == (3, "")
    assert "oracle minimum 0 comes with a coloring of imbalance 3" in err
    # and so is one whose minimum the divisibility theorem contradicts
    monkeypatch.setattr(cli, "min_imbalance_oracle", lambda inst: (3, Coloring((1, 1, 1), 2)))
    code, out, err = run(capsys, "oracle", "--input", stacked)
    assert (code, out) == (3, "")
    assert "oracle minimum 3, but the depths' divisibility gives 1" in err


def test_arcs_three_pairwise(tmp_path, capsys):
    path = write(
        tmp_path,
        "arcs.json",
        '{"k": 2, "circumference": 3, "arcs": [[0, 2], [1, 2], [2, 2]]}',
    )
    code, out, _ = run(capsys, "arcs", "--input", path)
    assert code == 0
    assert json.loads(out)["imbalance"] == 2


def test_online_adversary_round_robin(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "online", "--algorithm", "round_robin", "--k", "2", "--rounds", "30",
        "--adversary",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 31
    summary = json.loads(lines[-1])
    assert summary["lower_bound"] == 10
    assert summary["final_imbalance"] >= 10
    for line in lines[:-1]:
        record = json.loads(line)
        assert record["color"] in (1, 2)
        assert record["max_imbalance"] >= 0


def test_online_adversary_three_colors(capsys):
    code, out, _ = run(
        capsys,
        "online", "--algorithm", "greedy", "--k", "3", "--rounds", "9",
        "--adversary",
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["final_imbalance"] >= 3


def test_online_adversary_below_its_bound_prints_nothing(capsys, monkeypatch):
    # an adversary that stops after one round cannot certify ceil(9/3)
    real = cli.adversary_general
    monkeypatch.setattr(cli, "adversary_general", lambda alg, k, rounds: real(alg, k, 1))
    code, out, err = run(
        capsys,
        "online", "--algorithm", "round_robin", "--k", "2", "--rounds", "9", "--adversary",
    )
    assert (code, out) == (3, "")
    assert "below the guaranteed 3" in err


def test_online_unknown_algorithm(capsys):
    code, out, err = run(
        capsys,
        "online", "--algorithm", "nosuch", "--k", "2", "--rounds", "3",
        "--adversary",
    )
    assert code == 2
    assert out == ""
    assert "nosuch" in err


def test_online_stream_trace(tmp_path, capsys):
    path = write(tmp_path, "stream.txt", "3 2\n0 4\n1 5\n2 6\n")
    code, out, _ = run(
        capsys,
        "online", "--algorithm", "greedy", "--k", "2", "--rounds", "3",
        "--input", path, "--format", "text",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["color"] for r in records] == [1, 2, 1]
    assert records[-1]["max_imbalance"] == 1


def test_online_refuses_a_trace_the_offline_check_disagrees_with(tmp_path, capsys, monkeypatch):
    # at k = 2 the trace comes from the difference column; its last value
    # must match one offline imbalance of the run, or nothing is printed
    from test_online import off_by_one

    off_by_one(monkeypatch)
    path = write(tmp_path, "stream.txt", "3 2\n0 4\n1 5\n2 6\n")
    code, out, err = run(
        capsys,
        "online", "--algorithm", "round_robin", "--k", "2", "--rounds", "3",
        "--input", path, "--format", "text",
    )
    assert (code, out) == (3, "")
    assert "the trace ends at 2, but the run's imbalance is 1" in err


@pytest.mark.parametrize("rounds", [0, 1, 2, 3, 8])
def test_online_stream_truncates_to_rounds(tmp_path, capsys, rounds):
    # none, one, some, all 3 and more than all: the first rounds lines of
    # the whole stream's run
    path = write(tmp_path, "stream.txt", "3 2\n0 4\n1 5\n2 6\n")
    argv = ["online", "--algorithm", "round_robin", "--k", "2", "--input", path, "--format", "text"]
    code, whole, _ = run(capsys, *argv, "--rounds", "3")
    assert code == 0 and len(whole.splitlines()) == 3
    code, out, _ = run(capsys, *argv, "--rounds", str(rounds))
    assert code == 0
    assert out.splitlines() == whole.splitlines()[:rounds]


def test_online_stream_rejects_negative_rounds(tmp_path, capsys):
    path = write(tmp_path, "stream.txt", "3 2\n0 4\n1 5\n2 6\n")
    code, out, err = run(
        capsys,
        "online", "--algorithm", "round_robin", "--k", "2", "--rounds", "-1",
        "--input", path, "--format", "text",
    )
    assert (code, out) == (2, "")
    assert "--rounds" in err


def test_online_stream_requires_input(capsys):
    code, _, err = run(
        capsys, "online", "--algorithm", "greedy", "--k", "2", "--rounds", "3"
    )
    assert code == 2
    assert "--input" in err


def test_online_paths_build_no_intervals(tmp_path, capsys, monkeypatch):
    # the stream and the adversary write their transcripts from keys, so
    # neither builds the Interval objects of the instance it writes
    written = []
    real = cli.format_transcript_jsonl

    def keep(instance, colors, trace):
        written.append(instance)
        return real(instance, colors, trace)

    monkeypatch.setattr(cli, "format_transcript_jsonl", keep)
    path = write(tmp_path, "stream.json", '{"k": 2, "intervals": [[0, 4], ["1/2", 5], [2, 6]]}')
    assert run(capsys, "online", "--algorithm", "greedy", "--k", "2", "--rounds", "3",
               "--input", path)[0] == 0
    assert run(capsys, "online", "--algorithm", "seeded_random", "--k", "3",
               "--rounds", "20", "--adversary")[0] == 0
    assert [instance.n for instance in written][0] == 3 and len(written) == 2
    assert all("intervals" not in vars(instance) for instance in written)


def test_online_adversary_limit_exits_2(capsys):
    # 1000 rounds at k = 1000 need far more presentations than the limit
    started = time.perf_counter()
    code, out, err = run(
        capsys, "online", "--adversary", "--algorithm", "round_robin",
        "--k", "1000", "--rounds", "1000",
    )
    assert (code, out) == (2, "")
    assert f"MAX_PRESENTATIONS = {MAX_PRESENTATIONS}" in err
    assert time.perf_counter() - started < 5
    started = time.perf_counter()
    code, out, err = run(
        capsys, "online", "--adversary", "--algorithm", "round_robin",
        "--k", "2", "--rounds", "1000000000",
    )
    assert (code, out) == (2, "")
    assert f"MAX_PRESENTATIONS = {MAX_PRESENTATIONS}" in err
    assert time.perf_counter() - started < 0.5


def test_reduce_then_decide_satisfiable(tmp_path, capsys):
    nae = write(tmp_path, "sat.nae", "c tiny\np nae 3 1\n1 2 3\n")
    code = main(["reduce", "nae3sat", "--input", nae])
    boxes = capsys.readouterr().out
    assert code == 0
    data = json.loads(boxes)
    assert data["d"] == 2 and data["k"] == 2
    assert len(data["boxes"]) == 41
    assert data["provenance"]["0"][0] == "variable"
    path = write(tmp_path, "sat.boxes.json", boxes)
    code, out, _ = run(capsys, "decide-boxes", "--input", path)
    assert code == 0
    assert json.loads(out)["balanced"] is True


def test_reduce_then_decide_unsatisfiable(tmp_path, capsys):
    nae = write(tmp_path, "unsat.nae", "p nae 1 1\n1 1 1\n")
    code = main(["reduce", "nae3sat", "--input", nae])
    path = write(tmp_path, "unsat.boxes.json", capsys.readouterr().out)
    assert code == 0
    code, out, _ = run(capsys, "decide-boxes", "--input", path)
    assert code == 1
    assert json.loads(out) == {"balanced": False}


@pytest.mark.parametrize("formula", ["p nae 3 2\n1 2 3\n1 3 2\n", "p nae 1 1\n1 1 1\n"])
def test_decide_boxes_on_fraction_keys(tmp_path, capsys, formula):
    # x becomes x + 10**-30 in the first dimension: the same arrangement,
    # but a scale past core._KEY_BITS, so that dimension ranks Fraction keys
    nae = write(tmp_path, "f.nae", formula)
    assert main(["reduce", "nae3sat", "--input", nae, "--k", "3"]) == 0
    small = capsys.readouterr().out
    data = json.loads(small)
    den = 10**30
    for box in data["boxes"]:
        box["bounds"][0] = [f"{x * den + 1}/{den}" for x in box["bounds"][0]]
    wide = json.dumps(data)
    inst = parse_box_instance_json(wide)
    assert inst.dims[0].scale == 1 and isinstance(inst.dims[0].keys[0], Fraction)
    assert inst.dims[1].scale == 1 and isinstance(inst.dims[1].keys[0], int)

    results = [
        run(capsys, "decide-boxes", "--input", write(tmp_path, name, text))
        for name, text in (("small.json", small), ("wide.json", wide))
    ]
    assert results[0] == results[1] and results[0][0] in (0, 1)
    colorings = [random_coloring(random.Random(9), inst.n, inst.k)]
    if results[0][0] == 0:
        colorings.append(Coloring(tuple(json.loads(results[0][1])["colors"]), inst.k))
    for coloring in colorings:
        report = box_imbalance(inst, coloring)
        assert (report.value, report.witness) == reference_box_imbalance(inst, coloring)


def box_instances():
    """Reductions and hand-built box instances: keys at scale 1 and above
    it, Fraction keys, no boxes, and no provenance."""
    formulas = formula_corpus(6)[1:]
    for k in (2, 3, 5):
        for d in (2, 3):
            for formula in formulas:
                yield reduce_nae_to_boxes(formula, k, d)
    halves = make_instance([("1/2", "3/2"), (0, "5/2"), ("-7/2", "-1/2")], 3)
    ints = make_instance([(0, 4), (-2, 1), (1, 1)], 3)
    assert halves.scale == 2
    yield BoxInstance((halves, ints), ("clause", "cover", "chain"))
    den = 10**30
    wide = make_instance([(f"{x * den + 1}/{den}", f"{y}/3") for x, y in ((0, 1), (2, 9), (-5, 0))], 3)
    assert wide.scale == 1 and isinstance(wide.keys[0], Fraction)
    yield BoxInstance((wide, ints, halves), ("variable", "crossing", "clause"))
    yield BoxInstance((wide,), ("cover", "cover", "cover"))
    for d in (1, 2):
        yield BoxInstance((make_instance((), 2),) * d, ())
    yield parse_box_instance_json('{"d": 2, "k": 3, "boxes": [], "provenance": {}}')


def box_contents(instance):
    """Each dimension's keys, scale and k, the tags and the provenance;
    instances themselves compare by identity."""
    dims = [(dim.keys, dim.scale, dim.k) for dim in instance.dims]
    return dims, instance.tags, instance.provenance


def test_box_writer_matches_one_dumps_and_reads_back():
    for instance in box_instances():
        text = format_box_instance_json(instance)
        assert text == reference_format_box_instance_json(instance)
        back = parse_box_instance_json(text)
        assert box_contents(back) == box_contents(instance)


def test_reduce_svg_is_well_formed(tmp_path, capsys):
    nae = write(tmp_path, "sat.nae", "p nae 3 1\n1 2 3\n")
    svg = tmp_path / "boxes.svg"
    code, out, _ = run(
        capsys, "reduce", "nae3sat", "--input", nae, "--svg", str(svg)
    )
    assert code == 0
    root = ET.fromstring(svg.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    assert len(root) == len(json.loads(out)["boxes"])


def test_reduce_svg_to_an_unwritable_path_prints_nothing(tmp_path, capsys):
    nae = write(tmp_path, "sat.nae", "p nae 3 1\n1 2 3\n")
    svg = tmp_path / "missing" / "boxes.svg"
    code, out, err = run(capsys, "reduce", "nae3sat", "--input", nae, "--svg", str(svg))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_reduce_rejects_bad_header(tmp_path, capsys):
    nae = write(tmp_path, "bad.nae", "p cnf 3 1\n1 2 3\n")
    code, _, err = run(capsys, "reduce", "nae3sat", "--input", nae)
    assert code == 2
    assert "p nae" in err


def test_reduce_k_limit(tmp_path, capsys):
    nae = write(tmp_path, "sat.nae", "p nae 3 1\n1 2 3\n")
    started = time.perf_counter()
    code, out, err = run(capsys, "reduce", "nae3sat", "--input", nae, "--k", "1000000000")
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert f"k <= {MAX_REDUCTION_K}," in err
    started = time.perf_counter()
    code, out, _ = run(capsys, "reduce", "nae3sat", "--input", nae, "--k", str(MAX_REDUCTION_K))
    elapsed = time.perf_counter() - started
    assert code == 0
    assert json.loads(out)["k"] == MAX_REDUCTION_K
    assert elapsed < 2, elapsed


def test_reduce_formula_limits(tmp_path, capsys):
    over = MAX_REDUCTION_CLAUSES + 1
    for text, limit in (
        ("p nae 1000000000 0\n", f"MAX_REDUCTION_VARS = {MAX_REDUCTION_VARS}"),
        (f"p nae 3 {over}\n" + "1 2 3\n" * over, f"MAX_REDUCTION_CLAUSES = {over - 1}"),
    ):
        nae = write(tmp_path, "big.nae", text)
        started = time.perf_counter()
        code, out, err = run(capsys, "reduce", "nae3sat", "--input", nae)
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, "")
        assert limit in err


def test_empty_box_file_shares_one_dimension():
    # with no boxes the file does not bound d, so the dimensions share one
    # empty instance rather than costing one each
    inst = parse_box_instance_json('{"d": 100000, "k": 3, "boxes": []}')
    assert (inst.d, inst.n, inst.k) == (10**5, 0, 3)
    assert len({id(dim) for dim in inst.dims}) == 1


# runs main in a fresh interpreter and reports how long the call took
TIMED_MAIN = (
    "import sys, time\n"
    "from intervalcolor.cli import main\n"
    "started = time.perf_counter()\n"
    "code = main(sys.argv[1:])\n"
    "print(f'main took {time.perf_counter() - started:.3f} s', file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def cap_address_space(limit=1 << 30):
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_capped(*argv):
    """TIMED_MAIN on argv in a fresh interpreter capped at 1 GB of address space."""
    return subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=cap_address_space,
        timeout=60,
    )


def test_empty_box_file_with_huge_d_exits_2(tmp_path):
    # with no boxes nothing in the file bounds d, so the limit must
    path = write(tmp_path, "empty.json", '{"d": 1000000000, "k": 2, "boxes": []}')
    proc = run_capped("decide-boxes", "--input", path)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    message, timing = proc.stderr.splitlines()
    assert f"d <= {MAX_BOX_DIMS}, got 1000000000" in message
    assert float(timing.split()[2]) < 1, timing


@pytest.mark.parametrize(
    "text, argv, expected",
    [
        # box_imbalance counts a cell over the colors in use, not over k
        ('{"d": 1, "k": 1000000000, "boxes": [{"id": 0, "tag": "clause", "bounds": [[0, 2]]},'
         ' {"id": 1, "tag": "clause", "bounds": [[1, 3]]}]}',
         ["decide-boxes"], {"balanced": True, "colors": [1, 2], "imbalance": 1}),
        # with k >= n the round-robin start is balanced before any count per color
        ('{"k": 2, "intervals": [[0, 2], [1, 3], [2, 4]]}',
         ["color", "--algorithm", "dewerra", "--k", "1000000000"],
         {"colors": [1, 2, 3], "imbalance": 1}),
    ],
    ids=["decide-boxes", "dewerra"],
)
def test_huge_k_answers_in_bounded_memory(tmp_path, text, argv, expected):
    path = write(tmp_path, "input.json", text)
    proc = run_capped(*argv, "--input", path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected
    timing = proc.stderr.splitlines()[-1]
    assert float(timing.split()[2]) < 1, timing


def test_decide_boxes_masks_each_dimension_once(tmp_path, capsys, monkeypatch):
    nae = write(tmp_path, "sat.nae", "p nae 4 2\n1 2 3\n2 3 4\n")
    code, boxes, _ = run(capsys, "reduce", "nae3sat", "--input", nae)
    assert code == 0
    path = write(tmp_path, "boxes.json", boxes)
    dims = []
    real = hardness._covers
    monkeypatch.setattr(hardness, "_covers", lambda dim: dims.append(dim) or real(dim))
    code, out, _ = run(capsys, "decide-boxes", "--input", path)
    assert (code, json.loads(out)["balanced"]) == (0, True)
    assert len(dims) == json.loads(boxes)["d"] == 2
    assert dims[0] is not dims[1]
    # a file with no boxes has no cell to search, whatever its d
    dims.clear()
    path = write(tmp_path, "empty.json", '{"d": 100000, "k": 2, "boxes": []}')
    code, out, _ = run(capsys, "decide-boxes", "--input", path)
    assert (code, json.loads(out)) == (0, {"balanced": True, "colors": [], "imbalance": 0})
    assert dims == []


def test_decide_boxes_checks_the_coloring_it_prints(tmp_path, capsys, monkeypatch):
    boxes = [{"id": i, "tag": "clause", "bounds": [[0, 1], [0, 1]]} for i in range(3)]
    path = write(tmp_path, "three.json", json.dumps({"d": 2, "k": 2, "boxes": boxes}))
    code, out, _ = run(capsys, "decide-boxes", "--input", path)
    assert (code, json.loads(out)) == (0, {"balanced": True, "colors": [1, 1, 2], "imbalance": 1})
    # a decider whose coloring is not balanced is refused
    monkeypatch.setattr(cli, "decide_balanced_boxes", lambda inst: Coloring((1, 1, 1), 2))
    code, out, err = run(capsys, "decide-boxes", "--input", path)
    assert (code, out) == (3, "")
    assert "coloring has imbalance 3, above the guaranteed 1" in err


def test_decide_boxes_rejects_malformed(tmp_path, capsys):
    path = write(tmp_path, "bad.json", '{"d": 2, "k": 2, "boxes": [{"id": 0}]}')
    code, _, err = run(capsys, "decide-boxes", "--input", path)
    assert code == 2
    assert err != ""


@pytest.mark.parametrize(
    "key",
    ["\u00b2", "--5", "+1", " 1", "1" * 5000],
    ids=["superscript-two", "double-minus", "plus", "space", "past-digit-limit"],
)
def test_decide_boxes_names_a_malformed_provenance_key(tmp_path, capsys, key):
    # each key passes a strip-the-minus-signs digit check or int() itself,
    # but is no optional minus sign and ASCII digits within int()'s limit
    box = {"id": 0, "tag": "clause", "bounds": [[0, 1]]}
    text = json.dumps({"d": 1, "k": 2, "boxes": [box], "provenance": {"0": ["x"], key: ["y"]}})
    path = write(tmp_path, "bad.json", text)
    code, out, err = run(capsys, "decide-boxes", "--input", path)
    message = f"error: box instance: provenance entry {key!r} malformed\n"
    assert (code, out, err) == (2, "", message)


def test_hypergraph_columns_balanced(tmp_path, capsys):
    path = write(tmp_path, "mat.txt", "3 3\n1 1 0\n0 1 1\n1 1 1\n")
    code, out, _ = run(capsys, "hypergraph", "--input", path, "--k", "2")
    assert code == 0
    colors = json.loads(out)["colors"]
    matrix = ((1, 1, 0), (0, 1, 1), (1, 1, 1))
    for col in range(3):
        counts = [0, 0]
        for row in range(3):
            if matrix[row][col]:
                counts[colors[row] - 1] += 1
        assert max(counts) - min(counts) <= 1


def test_hypergraph_prints_the_column_spread(capsys, monkeypatch):
    # the all-zero row becomes an isolated point whose one interval has
    # spread 1 there, but the only column holds colors 1 and 2 once each
    monkeypatch.setattr(sys, "stdin", io.StringIO("3 1\n1\n1\n0\n"))
    code, out, err = run(capsys, "hypergraph", "--input", "-", "--k", "2")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"colors": [1, 2, 1], "imbalance": 0}
    matrix = cli.parse_hypergraph_text("3 1\n1\n1\n0\n")
    instance = cli.hypergraph_to_instance(matrix, 2)
    assert imbalance(instance, Coloring((1, 2, 1), 2)).value == 1
    # the derived intervals are still checked, though no longer printed
    monkeypatch.setattr(sys, "stdin", io.StringIO("3 1\n1\n1\n0\n"))
    monkeypatch.setattr(cli, "imbalance", lambda inst, col: ImbalanceReport(2, Fraction(0)))
    code, out, err = run(capsys, "hypergraph", "--input", "-", "--k", "2")
    assert (code, out) == (3, "")
    assert "coloring has imbalance 2, above the guaranteed 1" in err


def read_outcome(parse, text):
    """parse(text), or the message of the FormatError it raises."""
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


def test_hypergraph_reader_matches_the_int_reference():
    # every body of up to 5 characters, alone (so its first line is the
    # header) and under the header its rows promise
    alphabet = ["0", "1", " ", "\n", "2", "\uff11", "-"]
    for size in range(6):
        for chars in product(alphabet, repeat=size):
            body = "".join(chars)
            rows = [line.split() for line in body.splitlines() if line.strip()]
            header = f"{len(rows)} {len(rows[0]) if rows else 0}\n"
            for text in (body, header + body):
                expected = read_outcome(reference_parse_hypergraph_text, text)
                assert read_outcome(cli.parse_hypergraph_text, text) == expected, text


def test_column_spread_matches_the_counter_reference():
    rng = random.Random(33)
    cases = [((), 2), (((),) * 3, 2), (((1, 1), (0, 0), (0, 1)), 1)]
    for _ in range(400):
        rows, width = rng.randint(0, 12), rng.randint(0, 8)
        k = rng.choice([1, 2, 3, 5, rows + 1, rows + 4])
        cases.append((random_c1p_matrix(rng, rows, width, zero_rate=0.3), k))
    for matrix, k in cases:
        palette = rng.sample(range(1, k + 1), rng.randint(1, k))  # often only some colors
        coloring = Coloring(tuple(rng.choice(palette) for _ in matrix), k)
        expected = reference_column_spread(matrix, coloring)
        assert cli._column_spread(matrix, coloring) == expected, (matrix, coloring)
    with pytest.raises(cli.InvariantViolation, match="2 colors for 3 rows"):
        cli._column_spread(((1,), (1,), (0,)), Coloring((1, 2), 2))


def test_hypergraph_rejects_non_c1p(tmp_path, capsys):
    path = write(tmp_path, "mat.txt", "1 3\n1 0 1\n")
    code, _, err = run(capsys, "hypergraph", "--input", path, "--k", "2")
    assert code == 2
    assert "consecutive" in err


def test_hypergraph_checks_the_matrix_not_the_derived_intervals(tmp_path, capsys, monkeypatch):
    # both rows hold column 1; a mapping that puts them on disjoint points
    # lets one color take both, which the intervals alone cannot see
    path = write(tmp_path, "mat.txt", "2 1\n1\n1\n")
    monkeypatch.setattr(cli, "hypergraph_to_instance", lambda matrix, k: make_instance([(1, 1), (2, 2)], k))
    code, out, err = run(capsys, "hypergraph", "--input", path, "--k", "2")
    assert (code, out) == (3, "")
    assert "coloring has imbalance 2, above the guaranteed 1" in err


def test_outputs_byte_deterministic(tmp_path, capsys):
    inst = write(tmp_path, "two.json", TWO)
    first = run(capsys, "color", "--input", inst)
    second = run(capsys, "color", "--input", inst)
    assert first == second
    adv = ("online", "--algorithm", "seeded_random", "--seed", "9", "--k", "2",
           "--rounds", "12", "--adversary")
    assert run(capsys, *adv) == run(capsys, *adv)


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "two.json", TWO)
    # the child finds the package where this process did, installed or not
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "intervalcolor", "color", "--input", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["imbalance"] == 1


def valid_command_lines(name):
    """Command lines that subcommand `name` accepts, generated from its
    argument table: every value in the forms `--flag value`, `--flag=value`
    and a unique prefix of the flag, negative ints, a repeated flag, the
    positional at every place among the options, and every optional
    argument both given and omitted."""
    arguments = cli._COMMANDS[name][1]
    strings = [flag for flag, _ in arguments if flag.startswith("-")] + ["-h", "--help"]

    def prefixes(flag):  # the flag and each shorter prefix that names it alone
        return [flag] + [
            flag[:end] for end in range(3, len(flag))
            if not any(s.startswith(flag[:end]) for s in strings if s != flag)
        ]

    def values(options):
        if "choices" in options:
            return list(options["choices"])
        if options.get("type") is int:
            return ["3", "-3", "0", "-12"]
        return ["f", "-", "-1", "a b.json"]

    def forms(flag, options, value):
        """Each way of writing one argument with one value, as token lists."""
        if not flag.startswith("-"):
            return [[value]]
        if options.get("action") == "store_true":
            return [[prefix] for prefix in prefixes(flag)]
        return [
            form for prefix in prefixes(flag)
            for form in ([prefix, value], [f"{prefix}={value}"])
        ]

    base = {
        flag: forms(flag, options, values(options)[0])[0]
        for flag, options in arguments
        if options.get("required") or not flag.startswith("-")
    }

    def line(groups):
        return [name, *(token for group in groups.values() for token in group)]

    yield line(base)  # every optional omitted: its default
    for flag, options in arguments:
        for value in values(options):
            for form in forms(flag, options, value):
                yield line({**base, flag: form})
    everything = {
        **base,
        **{flag: forms(flag, options, values(options)[-1])[0] for flag, options in arguments},
    }
    yield line(everything)
    yield line(dict(reversed(everything.items())))
    # a repeated flag: the last one wins
    repeated = {
        flag: forms(flag, options, values(options)[0])[0] + forms(flag, options, values(options)[-1])[-1]
        for flag, options in arguments if flag.startswith("-")
    }
    yield line({**everything, **repeated})
    # a positional before, between and after the options
    for flag, options in arguments:
        if not flag.startswith("-"):
            rest = [group for other, group in everything.items() if other != flag]
            for place in range(len(rest) + 1):
                groups = rest[:place] + [everything[flag]] + rest[place:]
                yield [name, *(token for group in groups for token in group)]


@pytest.mark.parametrize("name", COMMANDS)
def test_one_subparser_parses_as_the_full_parser(name):
    for argv in [[name, *COMMANDS[name][0]], *valid_command_lines(name)]:
        assert cli._parse(argv) == cli.build_parser().parse_args(argv), argv


def test_commands_run_through_the_module_attribute(tmp_path, capsys, monkeypatch):
    # a wrapper put on cli.cmd_color after import, as a tracer does, must
    # run, also once the color parser is built and cached
    path = write(tmp_path, "two.json", TWO)
    assert run(capsys, "color", "--input", path)[0] == 0
    seen = []
    real = cli.cmd_color
    monkeypatch.setattr(cli, "cmd_color", lambda args: seen.append(args.input) or real(args))
    assert run(capsys, "color", "--input", path)[0] == 0
    assert seen == [path]


def test_a_process_builds_each_subcommand_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._quiet.cache_clear()  # as in a fresh process
    path = write(tmp_path, "two.json", TWO)
    # the first valid command builds its subcommand's one flat parser, as a
    # one-shot run does; the same command again builds nothing
    assert run(capsys, "color", "--input", path)[0] == 0
    assert built == ["_QuietParser"]
    assert run(capsys, "color", "--input", path)[0] == 0
    assert built == ["_QuietParser"]
    # another subcommand builds its own
    assert run(capsys, "oracle", "--input", path)[0] == 0
    assert built == ["_QuietParser"] * 2


def stdout_writes(tree):
    """The nodes of tree that name stdout or print without a file."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "stdout"
        or isinstance(node, ast.Name) and node.id == "stdout"
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "print" and not any(kw.arg == "file" for kw in node.keywords)
    ]


def test_only_main_writes_stdout():
    # every command returns its output, checked, and main alone prints it,
    # so no command can print before one of its checks fails
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    [main_def] = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    ]
    assert len(stdout_writes(main_def)) == 1
    assert len(stdout_writes(tree)) == 1


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    assert main(["color"]) == 2
    capsys.readouterr()


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# the README writes the installed entry point; run it from this checkout
PRELUDE = 'intervalcolor() { "$PYTHON" -m intervalcolor "$@"; }\n'


def readme_sessions():
    """Each shell example of the README as a list of (command, output lines)."""
    with open(README, encoding="utf-8") as handle:
        blocks = re.findall(r"```sh\n(.*?)```", handle.read(), re.S)
    for block in blocks:
        steps = []
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            elif steps:
                steps[-1][1].append(line)
        if steps:
            yield steps


def test_readme_examples_print_what_they_show(tmp_path):
    env = {
        **os.environ,
        "PYTHON": sys.executable,
        "PYTHONPATH": os.pathsep.join(sys.path),
    }
    shown = set()
    for steps in readme_sessions():
        if any("..." in line for _, output in steps for line in output):
            continue  # elided output cannot be compared
        for command, output in steps:
            text = "".join(line + "\n" for line in output)
            if command.startswith("cat "):
                # the example's input file, shown by cat
                (tmp_path / command[4:]).write_text(text, encoding="utf-8")
                continue
            proc = subprocess.run(
                ["bash", "-c", PRELUDE + command],
                cwd=tmp_path,
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, (command, proc.stderr)
            assert proc.stdout == text, command
            shown.update(re.findall(r"intervalcolor (\S+)", command))
    assert {"color", "verify", "oracle", "arcs", "hypergraph"} <= shown
