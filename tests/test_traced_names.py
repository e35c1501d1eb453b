"""The names the benchmark's tracer wraps or reads still exist.

perfbench/tracing.py wraps every function its LAYERS table names, in the
module of that layer, and skips a name the program no longer defines, so
a rename would read 0 in that layer's metrics with no error.  Here a
rename fails instead.  The table is read from the file's text; nothing
under perfbench/ is imported or written.
"""

import ast
import importlib
from pathlib import Path

from intervalcolor.core import Instance
from intervalcolor.hardness import BoxInstance
from intervalcolor.online import Transcript

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# LAYERS entries whose functions the program no longer defines; their
# metrics read 0 until the tracer drops or replaces them (ROADMAP item 1)
GONE = {
    ("k_color", "build_constraints"),
    ("k_color", "constraints_to_graph"),
    ("online", "presentation_trace"),
}


def traced_layers():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


def test_every_traced_function_exists():
    missing = []
    for layer, names in traced_layers().items():
        module = importlib.import_module(f"intervalcolor.{layer}")
        for name in names:
            if (layer, name) not in GONE and not callable(getattr(module, name, None)):
                missing.append(f"{layer}.{name}")
    assert missing == []


def test_the_attributes_the_tracer_reads_exist():
    # its counters read len(transcript.presented) and len(instance.boxes),
    # and its distinct-coordinate count reads instance.intervals
    assert hasattr(Transcript, "presented")
    assert hasattr(Instance, "intervals")
    assert hasattr(BoxInstance, "boxes")
