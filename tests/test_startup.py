"""What a fresh interpreter loads to start the command line.

Every command pays for importing intervalcolor.cli, so that import loads
neither dataclasses (and with it inspect, ast, dis and tokenize) nor the
hardness constructions, which only reduce and decide-boxes run.  The
online and arc modules stay loaded at start-up: each serves a core
subcommand, and importing it inside that command would only move the
cost into the command's first call.
"""

import json
import os
import subprocess
import sys

import intervalcolor

THREE = json.dumps({"k": 2, "intervals": [[0, 2], [1, 3], ["1/2", "5/2"]]})

LOADED = "import json, sys\n{}\nprint(json.dumps(sorted(sys.modules)))\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def loaded_after(code, *argv):
    """The modules a fresh interpreter holds after running code on argv."""
    proc = subprocess.run(
        [sys.executable, "-c", LOADED.format(code), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_command_line_loads_no_dataclasses_and_no_box_layer():
    modules = loaded_after("import intervalcolor.cli")
    assert not {"dataclasses", "inspect", "intervalcolor.hardness"} & modules
    assert {"intervalcolor.online", "intervalcolor.arcs"} <= modules


def test_only_the_box_commands_load_the_box_layer(tmp_path):
    path = write(tmp_path, "three.json", THREE)
    run = "from intervalcolor.cli import main\nmain(sys.argv[1:])"
    assert "intervalcolor.hardness" not in loaded_after(run, "color", "--input", path)
    formula = write(tmp_path, "one.nae", "p nae 3 1\n1 2 3\n")
    assert "intervalcolor.hardness" in loaded_after(run, "reduce", "nae3sat", "--input", formula)


def test_every_public_name_resolves_and_is_listed():
    modules = loaded_after("import intervalcolor")
    assert "intervalcolor.hardness" not in modules
    namespace = {}
    exec("from intervalcolor import *", namespace)
    assert set(intervalcolor.__all__) <= set(namespace)
    assert all(getattr(intervalcolor, name) is namespace[name] for name in intervalcolor.__all__)
    assert set(intervalcolor.__all__) <= set(dir(intervalcolor))
    assert intervalcolor.BoxInstance is intervalcolor.hardness.BoxInstance
    assert not hasattr(intervalcolor, "no_such_name")
