"""The CLI's help and usage-error bytes: exit code, stdout and stderr.

Every case here is one that argparse answers by itself (help, a missing
or unknown option, a bad value), so no command runs.  Each case must give
through `main` exactly what the full parser from `build_parser()` gives
on the running interpreter, whose argparse wording varies between Python
versions.  On the interpreter the digest in PINNED was recorded with,
the bytes of all the cases together must also match it, which pins the
full parser's own help and messages.

Run as a script (`PYTHONPATH=src python tests/test_cli_bytes.py`) to
print each case and the combined digest at the current code.
"""

import contextlib
import hashlib
import io
import platform

import pytest

from intervalcolor import cli

# python version -> sha256 over the (argv, exit code, stdout, stderr) of
# every case, in order, with COLUMNS=80
PINNED = {
    "3.11.7": "9c34a2fdb2cd31c5993a6874c05bd48b86c3607e9d9d6f81ab6f5f12954a4429",
}

# command -> (argv that parses, the same with one required option left
# out, one with a value its choices or type refuse, or None)
COMMANDS = {
    "color": (["--input", "f"], [], ["--input", "f", "--algorithm", "nope"]),
    "verify": (["--input", "f", "--coloring", "c"], ["--input", "f"],
               ["--input", "f", "--coloring", "c", "--format", "xml"]),
    "oracle": (["--input", "f"], [], ["--input", "f", "--k", "two"]),
    "arcs": (["--input", "f"], [], ["--input", "f", "--k", "1.5"]),
    "online": (["--algorithm", "greedy", "--k", "2", "--rounds", "3"],
               ["--algorithm", "greedy", "--k", "2"],
               ["--algorithm", "greedy", "--k", "2", "--rounds", "x"]),
    "reduce": (["nae3sat", "--input", "f"], ["nae3sat"], ["sat", "--input", "f"]),
    "decide-boxes": (["--input", "f"], [], None),
    "hypergraph": (["--input", "f", "--k", "2"], ["--input", "f"],
                   ["--input", "f", "--k", "-"]),
}


def cases():
    yield "top -h", ["-h"]
    yield "top empty", []
    yield "top unknown command", ["frobnicate", "--input", "f"]
    yield "top --help first", ["--help", "color"]
    for name, (ok, missing, bad) in COMMANDS.items():
        yield f"{name} -h", [name, "-h"]
        yield f"{name} --help after options", [name, *ok, "--help"]
        yield f"{name} missing required", [name, *missing]
        if bad is not None:
            yield f"{name} bad value", [name, *bad]
        yield f"{name} unknown option", [name, *ok, "--bogus"]
        yield f"{name} extra positional", [name, *ok, "extra"]
        yield f"{name} option without value", [name, "--input", "-h"]


CASES = list(cases())


def captured(call, argv):
    """(exit code, stdout, stderr) of call(argv); a SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def full_parser(argv):
    cli.build_parser().parse_args(argv)
    return None  # parsed: the case would have run a command


def digest(results):
    h = hashlib.sha256()
    for (_, argv), result in zip(CASES, results):
        h.update(repr((argv, *result)).encode())
    return h.hexdigest()


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", [argv for _, argv in CASES], ids=[name for name, _ in CASES])
def test_main_prints_what_the_full_parser_prints(argv):
    expected = captured(full_parser, argv)
    assert expected[0] in (0, 2), expected
    assert captured(cli.main, list(argv)) == expected


def test_main_reads_sys_argv_when_given_none(monkeypatch):
    monkeypatch.setattr("sys.argv", ["intervalcolor", "reduce", "-h"])
    assert captured(lambda _: cli.main(None), None) == captured(full_parser, ["reduce", "-h"])


def test_warm_parsers_still_give_way_to_the_full_parser(tmp_path, monkeypatch):
    # a long-lived process: every subcommand's parser is built and has
    # parsed once (each command then fails to read the missing file "f")
    monkeypatch.chdir(tmp_path)
    for name, (ok, _, _) in COMMANDS.items():
        assert captured(cli.main, [name, *ok])[0] == 2
    results = [captured(cli.main, list(argv)) for _, argv in CASES]
    assert results == [captured(full_parser, argv) for _, argv in CASES]
    pinned = PINNED.get(platform.python_version())
    if pinned is not None:
        assert digest(results) == pinned
    # and a valid command still runs after help and usage errors
    (tmp_path / "f").write_text('{"k": 2, "intervals": [[0, 1]]}', encoding="utf-8")
    assert captured(cli.main, ["color", "--input", "f"]) == (0, '{"colors": [1], "imbalance": 1}\n', "")


def test_full_parser_bytes_are_pinned():
    pinned = PINNED.get(platform.python_version())
    if pinned is None:  # another interpreter words argparse's messages its own way
        return
    assert digest([captured(full_parser, argv) for _, argv in CASES]) == pinned


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    results = []
    for name, argv in CASES:
        results.append(captured(full_parser, argv))
        code, out, err = results[-1]
        print(f"{name:40s} {code} out={len(out)}B err={len(err)}B")
    print(platform.python_version(), digest(results))
