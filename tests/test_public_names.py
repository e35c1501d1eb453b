"""Every public name, and every function, method and property the package
defines, has a caller in the program, or a stated reason.

A name in the __all__ of the package or of any of its modules that no
module of the package reads is surface only the tests exercise, and so
is a function, private or not, that nothing in the package calls.  The
modules are parsed, not imported: a name counts as read where it is
loaded as a Name or appears as an attribute, outside __init__.py, which
only re-exports.  A definition or an assignment target is not a read.
Dunder methods are the interpreter's to call and are not scanned.
"""

import ast
from pathlib import Path

import intervalcolor

PACKAGE = Path(intervalcolor.__file__).resolve().parent

# public names no module reads, each with why it stays public
NO_CALLER = {
    "nae_brute_force": "the reference of criteria 8 and 10 for both NAE-3SAT reductions",
    "min_arc_imbalance_oracle": "criterion 6's reference for arc_color",
    "two_color": "criterion 1's reference colorer, and a layer the benchmark traces",
    "reduce_partition_to_weighted": "criterion 10: Partition to weighted intervals",
    "weighted_imbalance": "criterion 10: the weighted reduction's measure",
    "reduce_nae_to_multiple_intervals": "criterion 10: NAE-3SAT to grouped intervals",
    "decide_grouped_intervals": "criterion 10: the grouped reduction's decider",
    "make_box_instance": "the box constructor from coordinates",
}

# functions, methods and properties no module reads, by qualified name,
# each with why it stays; besides these, the subcommands cmd_<name>,
# which cli.main looks up by name
UNREAD_DEFINITIONS = {
    "_QuietParser.error": "argparse calls it on a usage error",
    "_QuietParser.print_help": "argparse calls it for --help",
    "Transcript.presented": "the benchmark's tracer counts a transcript's presentations by it",
}


def names_read():
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def exported():
    """The names in the __all__ of every module, __init__.py included."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names


def definitions():
    """(qualified name, name) of each function, method and property the
    modules define, dunder methods aside."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if not isinstance(child, ast.ClassDef) and not child.name.startswith("__"):
                    found.append((prefix + child.name, child.name))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def allowed(qualname):
    return qualname in NO_CALLER or qualname in UNREAD_DEFINITIONS or qualname.startswith("cmd_")


def test_every_public_name_is_read_or_allowed():
    read = names_read()
    assert set(intervalcolor.__all__) <= exported()
    unread = sorted(exported() - read - set(NO_CALLER))
    assert unread == [], "public names only tests read; delete them or give a reason"


def test_the_allowlist_holds_only_public_names_without_a_caller():
    read = names_read()
    assert sorted(set(NO_CALLER) - exported()) == []
    assert sorted(set(NO_CALLER) & read) == []


def test_every_definition_is_read_or_allowed():
    read = names_read()
    unread = sorted(q for q, name in definitions() if name not in read and not allowed(q))
    assert unread == [], "definitions only tests read; delete them or give a reason"


def test_the_definition_allowlist_holds_only_unread_definitions():
    read = names_read()
    defined = dict(definitions())
    assert sorted(set(UNREAD_DEFINITIONS) - set(defined)) == []
    assert sorted(q for q in UNREAD_DEFINITIONS if defined[q] in read) == []
    commands = [q for q in defined if q.startswith("cmd_")]
    assert commands and not set(commands) & read
