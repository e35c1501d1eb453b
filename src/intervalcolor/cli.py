"""Command-line front end.

One subcommand per library entry point, files in and JSON out.  Exit
codes: 0 success or balanced, 1 semantically negative answer (imbalance
above 1, no balanced box coloring), 2 bad input, 3 a broken internal
guarantee.  Results go to standard output, diagnostics to standard
error, and identical inputs and seeds give identical bytes.

Each cmd_x returns its exit code and its standard output once its checks
have passed, and only main writes that output, so a command that raises
leaves standard output empty.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from typing import IO, Any, Dict, List, NoReturn, Optional, Sequence, Tuple

from .arcs import arc_color, arc_imbalance
from .core import (
    Coloring,
    Instance,
    InvariantViolation,
    divisibility_predicts_zero,
    imbalance,
    min_imbalance_oracle,
)
from .formats import (
    FormatError,
    coord_json,
    format_box_instance_json,
    format_coloring_json,
    format_transcript_jsonl,
    parse_arc_json,
    parse_box_instance_json,
    parse_coloring_json,
    parse_hypergraph_text,
    parse_instance_json,
    parse_instance_text,
    parse_nae_text,
)
from .hardness import BoxInstance, box_imbalance, decide_balanced_boxes, reduce_nae_to_boxes
from .k_color import hypergraph_to_instance, k_color, k_color_dewerra
from .online import (
    adversary_general,
    make_algorithm,
    run_online,
)

_ALGORITHM_ALIASES = {"greedy": "greedy_least_loaded"}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _load_instance(args: argparse.Namespace) -> Instance:
    text = _read_text(args.input)
    if args.format == "text":
        instance = parse_instance_text(text)
    else:
        instance = parse_instance_json(text)
    if getattr(args, "k", None) is not None and args.k != instance.k:
        instance = replace(instance, k=args.k)
    return instance


def _check_spread(value: int, bound: int) -> None:
    """Refuse to print a coloring whose measured imbalance breaks its guarantee."""
    if value > bound:
        raise InvariantViolation(
            f"coloring has imbalance {value}, above the guaranteed {bound}"
        )


def cmd_color(args: argparse.Namespace) -> Tuple[int, str]:
    instance = _load_instance(args)
    if args.algorithm == "dewerra":
        coloring = k_color_dewerra(instance)
    else:
        coloring = k_color(instance)
    value = imbalance(instance, coloring).value
    _check_spread(value, 1)
    return 0, format_coloring_json(coloring, value)


def cmd_verify(args: argparse.Namespace) -> Tuple[int, str]:
    instance = _load_instance(args)
    colors = parse_coloring_json(_read_text(args.coloring))
    report = imbalance(instance, Coloring(colors, instance.k))
    witness = None if report.witness is None else coord_json(report.witness)
    text = json.dumps({"imbalance": report.value, "witness": witness}) + "\n"
    return (0 if report.value <= 1 else 1), text


def cmd_oracle(args: argparse.Namespace) -> Tuple[int, str]:
    instance = _load_instance(args)
    value, coloring = min_imbalance_oracle(instance)
    measured = imbalance(instance, coloring).value
    if measured != value:
        raise InvariantViolation(
            f"oracle minimum {value} comes with a coloring of imbalance {measured}"
        )
    # the paper's theorem: 0 when every depth is a multiple of k, else 1
    expected = 0 if divisibility_predicts_zero(instance) else 1
    if value != expected:
        raise InvariantViolation(
            f"oracle minimum {value}, but the depths' divisibility gives {expected}"
        )
    return 0, json.dumps({"minimum": value, "colors": list(coloring.colors)}) + "\n"


def cmd_arcs(args: argparse.Namespace) -> Tuple[int, str]:
    instance = parse_arc_json(_read_text(args.input))
    if args.k is not None and args.k != instance.k:
        instance = replace(instance, line=replace(instance.line, k=args.k))
    coloring = arc_color(instance)
    value = arc_imbalance(instance, coloring).value
    _check_spread(value, 2)
    return 0, format_coloring_json(coloring, value)


def cmd_online(args: argparse.Namespace) -> Tuple[int, str]:
    name = _ALGORITHM_ALIASES.get(args.algorithm, args.algorithm)
    alg = make_algorithm(name, seed=args.seed)
    if args.adversary:
        transcript = adversary_general(alg, args.k, args.rounds)
        final = transcript.final_imbalance
        summary = {"final_imbalance": final, "rounds": args.rounds}
        if args.k == 2:
            bound = -(-args.rounds // 3)
            summary["lower_bound"] = bound
            if final < bound:
                raise InvariantViolation(
                    f"adversary certified imbalance {final}, below the"
                    f" guaranteed {bound}"
                )
        records = format_transcript_jsonl(
            transcript.instance, transcript.colors, transcript.trace
        )
        return 0, records + json.dumps(summary) + "\n"
    if args.input is None:
        raise FormatError("online without --adversary needs --input STREAM")
    if args.rounds < 0:
        raise FormatError(f"--rounds must not be negative, got {args.rounds}")
    instance = _load_instance(args)
    stream = Instance(instance.keys[: 2 * args.rounds], instance.scale, instance.k)
    coloring, trace = run_online(alg, stream)
    return 0, format_transcript_jsonl(stream, coloring.colors, trace)


def cmd_reduce(args: argparse.Namespace) -> Tuple[int, str]:
    formula = parse_nae_text(_read_text(args.input))
    instance = reduce_nae_to_boxes(formula, args.k)
    if args.svg is not None:
        with open(args.svg, "w", encoding="utf-8") as file:
            file.write(_svg_dump(instance))
    return 0, format_box_instance_json(instance)


def cmd_decide_boxes(args: argparse.Namespace) -> Tuple[int, str]:
    instance = parse_box_instance_json(_read_text(args.input))
    coloring = decide_balanced_boxes(instance)
    if coloring is None:
        return 1, json.dumps({"balanced": False}) + "\n"
    value = box_imbalance(instance, coloring).value
    _check_spread(value, 1)
    answer = {"balanced": True, "colors": list(coloring.colors), "imbalance": value}
    return 0, json.dumps(answer) + "\n"


def cmd_hypergraph(args: argparse.Namespace) -> Tuple[int, str]:
    matrix = parse_hypergraph_text(_read_text(args.input))
    instance = hypergraph_to_instance(matrix, args.k)
    coloring = k_color(instance)
    _check_spread(imbalance(instance, coloring).value, 1)
    value = _column_spread(matrix, coloring)
    _check_spread(value, 1)
    return 0, format_coloring_json(coloring, value)


def _column_spread(matrix: Sequence[Sequence[int]], coloring: Coloring) -> int:
    """Largest color spread over the matrix's columns, recounted from the
    matrix itself rather than from the intervals derived from it."""
    colors = coloring.colors
    if len(colors) != len(matrix):
        raise InvariantViolation(f"{len(colors)} colors for {len(matrix)} rows")
    rows_of: Dict[int, List[Sequence[int]]] = {}
    for color, row in zip(colors, matrix):
        rows_of.setdefault(color, []).append(row)
    # one tuple of column sums per color in use
    sums = [tuple(map(sum, zip(*rows))) for rows in rows_of.values()]
    absent = (0,) * (len(sums) < coloring.k)  # a color no row uses counts 0
    return max((max(column) - min(column + absent) for column in zip(*sums)), default=0)


_SVG_FILL = {
    "clause": "#c0504d",
    "variable": "#4f81bd",
    "chain": "#9bbb59",
    "crossing": "#8064a2",
    "cover": "#dddddd",
}


def _svg_dump(instance: BoxInstance) -> str:
    """Plain axis-aligned rectangles, first two dimensions, y pointing up."""
    xs, ys = instance.dims[0], instance.dims[1]
    sx, sy = xs.scale, ys.scale

    def num(key: object, scale: int) -> str:
        return f"{float(key / scale):g}"  # type: ignore[operator]

    if instance.n:
        xlo, xhi = min(xs.keys[0::2]) - sx, max(xs.keys[1::2]) + sx
        ylo, yhi = min(ys.keys[0::2]) - sy, max(ys.keys[1::2]) + sy
    else:
        xlo, xhi, ylo, yhi = 0, sx, 0, sy
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox='
        f'"{num(xlo, sx)} 0 {num(xhi - xlo, sx)} {num(yhi - ylo, sy)}">'
    ]
    x, y = iter(xs.keys), iter(ys.keys)
    for x0, x1, y0, y1, tag in zip(x, x, y, y, instance.tags):
        lines.append(
            f'<rect x="{num(x0, sx)}" y="{num(yhi - y1, sy)}"'
            f' width="{num(x1 - x0, sx)}" height="{num(y1 - y0, sy)}"'
            f' fill="{_SVG_FILL.get(tag, "#999999")}" fill-opacity="0.55"'
            ' stroke="#333333" stroke-width="0.12"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _input(what: str) -> Tuple[str, Dict[str, Any]]:
    return "--input", {"required": True, "help": f"{what}, or - for stdin"}


_K_OVERRIDE = "--k", {"type": int, "help": "override the instance's color count"}
_FORMAT = "--format", {
    "choices": ("json", "text"),
    "default": "json",
    "help": "instance file format (default json)",
}

# subcommand -> (help, its arguments as (name, add_argument options)), in
# the order help lists them; subcommand x runs cmd_x
_COMMANDS: Dict[str, Tuple[str, List[Tuple[str, Dict[str, Any]]]]] = {
    "color": ("balanced k-coloring of an interval file", [
        _input("instance file"),
        _K_OVERRIDE,
        ("--algorithm", {"choices": ("sweep", "dewerra"), "default": "sweep",
                         "help": "sweep (default) or iterative rebalancing"}),
        _FORMAT,
    ]),
    "verify": ("measure the imbalance of a given coloring", [
        _input("instance file"),
        ("--coloring", {"required": True, "help": "coloring JSON file"}),
        _FORMAT,
    ]),
    "oracle": ("exhaustive minimum imbalance (small n)", [
        _input("instance file"), _K_OVERRIDE, _FORMAT,
    ]),
    "arcs": ("k-coloring of circular arcs, spread at most 2", [
        _input("arc instance JSON"), _K_OVERRIDE,
    ]),
    "online": ("online coloring runs and the adversary", [
        ("--algorithm", {"required": True, "help": "round_robin, greedy_least_loaded, or seeded_random"}),
        ("--k", {"type": int, "required": True, "help": "number of colors"}),
        ("--rounds", {"type": int, "required": True, "help": "adversary rounds or stream prefix length"}),
        ("--seed", {"type": int, "help": "seed for seeded_random"}),
        ("--adversary", {"action": "store_true", "help": "run the lower-bound adversary"}),
        ("--input", {"help": "instance file to stream when not using --adversary"}),
        _FORMAT,
    ]),
    "reduce": ("encode a formula as a box coloring question", [
        ("target", {"choices": ("nae3sat",), "help": "source problem"}),
        _input("formula file"),
        ("--k", {"type": int, "default": 2, "help": "colors for the box instance (default 2)"}),
        ("--svg", {"help": "also write the boxes as an SVG drawing"}),
    ]),
    "decide-boxes": ("search for a balanced box coloring", [_input("box instance JSON")]),
    "hypergraph": ("balanced coloring of a consecutive-ones matrix", [
        _input("0/1 matrix file"),
        ("--k", {"type": int, "required": True, "help": "number of colors"}),
    ]),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    for flag, options in _COMMANDS[name][1]:
        parser.add_argument(flag, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalcolor",
        description="Balanced colorings of intervals, arcs, and boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return parser


class _GiveWay(Exception):
    """Raised by _QuietParser where argparse would print and exit."""


class _QuietParser(argparse.ArgumentParser):
    """A parser that, instead of printing help or a usage error, gives way."""

    def error(self, message: str) -> NoReturn:
        raise _GiveWay

    def print_help(self, file: Optional[IO[str]] = None) -> None:
        raise _GiveWay


@cache
def _quiet(name: str) -> argparse.ArgumentParser:
    """One flat parser for subcommand `name`'s arguments, built once per
    process; it parses what follows the subcommand's name."""
    parser = _QuietParser(prog="intervalcolor " + name)
    _add_arguments(parser, name)
    parser.set_defaults(command=name)
    return parser


def _parse(argv: List[str]) -> argparse.Namespace:
    """Parse with only argv[0]'s own parser, which is all a valid command
    line needs.  Help and usage errors fall back to the full parser, so
    what they print does not depend on which parsers were built."""
    if argv and argv[0] in _COMMANDS:
        try:
            return _quiet(argv[0]).parse_args(argv[1:])
        except _GiveWay:
            pass
    return build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # looked up on each call, so a wrapper later put on the module attribute
    # cmd_x is what runs, however long the parser has been cached
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code, text = command(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code
