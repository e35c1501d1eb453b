"""Readers and writers for the files the command line exchanges.

Coordinates travel as JSON integers or strings ("7", "1/2", "0.25"),
never as floats, so exact rational values survive a round trip.  Every
writer emits the same bytes for the same input and ends with a newline.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain
from math import gcd
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from .arcs import ArcInstance, make_arc_instance
from .core import Coloring, Coord, Instance, make_instance

if TYPE_CHECKING:  # the box layer is imported by the readers that build its values
    from .hardness import BoxInstance, NaeFormula


class FormatError(ValueError):
    """An input file does not match its documented format."""


def coord_json(value: Coord) -> Union[int, str]:
    """JSON value for a coordinate: int when integral, else "num/den"."""
    if value.denominator == 1:
        return int(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _keys_json(keys: Sequence, scale: int) -> List[Union[int, str]]:
    """JSON values of the coordinates key / scale, as coord_json writes them."""
    if scale == 1:  # int or Fraction keys
        return [coord_json(x) for x in keys]
    # int keys, reduced by their gcd with the scale
    return [x // g if (g := gcd(x, scale)) == scale else f"{x // g}/{scale // g}" for x in keys]


@cache
def _decoder(what: str) -> json.JSONDecoder:
    """The decoder of one document kind, built once per process: floats
    stay strings, and non-finite numbers and repeated keys are refused."""

    def reject(name: str) -> Any:
        raise FormatError(f"{what}: non-finite number {name}")

    def unique(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
        data = dict(pairs)
        if len(data) < len(pairs):  # only then find the first repeated key
            seen: Set[str] = set()
            key = next(key for key, _ in pairs if key in seen or seen.add(key))
            raise FormatError(f"{what}: duplicate key {key!r}")
        return data

    return json.JSONDecoder(parse_float=str, parse_constant=reject, object_pairs_hook=unique)


def _loads(text: str, what: str) -> Any:
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _decoder(what).decode(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{what}: invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{what}: JSON nested too deeply") from None


def _require_int(data: Dict[str, Any], key: str, what: str) -> int:
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f'{what}: "{key}" must be an integer')
    return value


def _require_lists(data: Dict[str, Any], key: str, what: str) -> List[Any]:
    """data[key], a list of lists.

    The entries' lengths are left to the reader's unpacking of pairs:
    when reading fails, _name_bad_pair is asked first.
    """
    entries = data.get(key)
    if not isinstance(entries, list):
        raise FormatError(f'{what}: "{key}" must be a list of pairs')
    if not {*map(type, entries)} <= {list}:
        _name_bad_pair(entries, key, what)
    return entries


def _name_bad_pair(entries: List[Any], key: str, what: str) -> None:
    """Refuse the first entry that is not a two-element list, if any."""
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f'{what}: "{key}"[{pos}] must be a two-element list')


def _counted_rows(text: str, what: str, header: str, noun: str) -> Tuple[int, List[List[str]]]:
    """Read a two-integer header whose first integer counts the rows after
    it; return the second integer and the rows split on whitespace,
    blank lines ignored."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise FormatError(f"{what}: empty file, expected a '{header}' header")
    if len(rows[0]) != 2:
        raise FormatError(f"{what}: header must be '{header}'")
    try:
        n, second = int(rows[0][0]), int(rows[0][1])
    except ValueError:
        raise FormatError(f"{what}: header must hold two integers") from None
    if len(rows) - 1 != n:
        raise FormatError(f"{what}: header promises {n} {noun}, found {len(rows) - 1}")
    return second, rows[1:]


# --- interval instances ---


def parse_instance_json(text: str) -> Instance:
    """Instance from {"k": int, "intervals": [[lo, hi], ...]}.

    Endpoints may be integers or strings; strings take anything the
    Fraction constructor does ("3", "-1/2", "0.25").
    """
    data = _loads(text, "instance")
    if not isinstance(data, dict):
        raise FormatError("instance: expected a JSON object")
    k = _require_int(data, "k", "instance")
    entries = _require_lists(data, "intervals", "instance")
    try:
        return make_instance(entries, k)
    except (TypeError, ValueError) as exc:
        _name_bad_pair(entries, "intervals", "instance")
        raise FormatError(f"instance: {exc}") from None


def parse_instance_text(text: str) -> Instance:
    """Instance from a "n k" header line and n "lo hi" lines.

    Blank lines are ignored; endpoint tokens follow the same grammar as
    the JSON form's strings.
    """
    k, rows = _counted_rows(text, "instance", "n k", "intervals")
    for pos, row in enumerate(rows):
        if len(row) != 2:
            raise FormatError(f"instance: interval line {pos} must be 'lo hi'")
    try:
        return make_instance(rows, k)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"instance: {exc}") from None


# --- colorings ---


def parse_coloring_json(text: str) -> Tuple[int, ...]:
    """Colors from {"colors": [...]}; a present "imbalance" field is ignored."""
    data = _loads(text, "coloring")
    if not isinstance(data, dict):
        raise FormatError("coloring: expected a JSON object")
    colors = data.get("colors")
    if not isinstance(colors, list):
        raise FormatError('coloring: "colors" must be a list')
    if not {*map(type, colors)} <= {int}:  # only then find the first such color
        for pos, color in enumerate(colors):
            if isinstance(color, bool) or not isinstance(color, int):
                raise FormatError(f"coloring: color {pos} must be an integer")
    return tuple(colors)


def format_coloring_json(coloring: Coloring, value: int) -> str:
    return json.dumps({"colors": list(coloring.colors), "imbalance": value}) + "\n"


# --- circular arcs ---


def parse_arc_json(text: str) -> ArcInstance:
    """ArcInstance from {"k":, "circumference":, "arcs": [[start, length], ...]}."""
    data = _loads(text, "arc instance")
    if not isinstance(data, dict):
        raise FormatError("arc instance: expected a JSON object")
    k = _require_int(data, "k", "arc instance")
    circumference = data.get("circumference")
    entries = _require_lists(data, "arcs", "arc instance")
    try:
        return make_arc_instance(entries, circumference, k)
    except (TypeError, ValueError) as exc:
        _name_bad_pair(entries, "arcs", "arc instance")
        raise FormatError(f"arc instance: {exc}") from None


# --- 0/1 membership matrices ---


_BITS = frozenset("01")
_BIT_VALUE = {"0": 0, "1": 1}


def parse_hypergraph_text(text: str) -> Tuple[Tuple[int, ...], ...]:
    """Matrix from a "n m" header and n rows of m space-separated 0/1."""
    m, rows = _counted_rows(text, "hypergraph", "n m", "rows")
    matrix = []
    for pos, row in enumerate(rows):
        if len(row) != m or not _BITS.issuperset(row):
            raise FormatError(f"hypergraph: row {pos} must be {m} entries of 0 or 1")
        matrix.append(tuple(map(_BIT_VALUE.__getitem__, row)))
    return tuple(matrix)


# --- not-all-equal formulas ---


def parse_nae_text(text: str) -> NaeFormula:
    """Formula from a DIMACS-like file.

    Lines starting with "c" are comments.  A single "p nae <vars>
    <clauses>" header precedes one line of three positive variable
    numbers per clause.
    """
    from .hardness import NaeFormula

    num_vars = None
    declared = 0
    clauses: List[Tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise FormatError(f"formula: line {lineno}: second 'p' header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "nae":
                raise FormatError(
                    f"formula: line {lineno}: header must be 'p nae <vars> <clauses>'"
                )
            try:
                num_vars, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(
                    f"formula: line {lineno}: header counts must be integers"
                ) from None
            continue
        if num_vars is None:
            raise FormatError(f"formula: line {lineno}: clause before 'p nae' header")
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"formula: line {lineno}: expected three variables")
        try:
            clauses.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError:
            raise FormatError(f"formula: line {lineno}: variables must be integers") from None
    if num_vars is None:
        raise FormatError("formula: missing 'p nae <vars> <clauses>' header")
    if len(clauses) != declared:
        raise FormatError(
            f"formula: header promises {declared} clauses, found {len(clauses)}"
        )
    try:
        return NaeFormula(num_vars, tuple(clauses))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"formula: {exc}") from None


# --- axis-aligned box instances ---


def format_box_instance_json(instance: BoxInstance) -> str:
    # as in format_transcript_jsonl: each column (the tags, each dimension's
    # keys) as JSON text, split into its values' texts; no tag or key text
    # holds ", ", so each box is written from one template
    columns = [instance.tags] + [_keys_json(dim.keys, dim.scale) for dim in instance.dims]
    tags, *dims = [iter(json.dumps(list(column))[1:-1].split(", ")) for column in columns]
    box = '{"id": %d, "tag": %s, "bounds": [' + ", ".join(["[%s, %s]"] * instance.d) + "]}"
    fields = chain.from_iterable(zip(dims, dims))  # a dimension's texts read in pairs
    boxes = ", ".join(map(box.__mod__, zip(range(instance.n), tags, *fields)))
    provenance = {
        str(box_id): list(entry)
        for box_id, entry in sorted(instance.provenance.items())
    }
    line = '{"d": %d, "k": %d, "boxes": [%s], "provenance": %s}\n'
    return line % (instance.d, instance.k, boxes, json.dumps(provenance))


def parse_box_instance_json(text: str) -> BoxInstance:
    """BoxInstance from {"d":, "k":, "boxes": [{"id":, "tag":, "bounds":}, ...]}.

    Box i must have id i.  Each dimension's coordinates are read as an
    interval file's are, by make_instance.
    """
    from .hardness import BoxInstance, _read_dims

    data = _loads(text, "box instance")
    if not isinstance(data, dict):
        raise FormatError("box instance: expected a JSON object")
    d = _require_int(data, "d", "box instance")
    k = _require_int(data, "k", "box instance")
    entries = data.get("boxes")
    if not isinstance(entries, list):
        raise FormatError('box instance: "boxes" must be a list')
    try:  # every box is checked at once; only a failure walks them to name the first
        rows = list(map(itemgetter("id", "tag", "bounds"), entries))
    except (KeyError, TypeError):  # a box that is no object, or lacks a field
        rows = None
    ids, tags, bounds = zip(*rows) if rows else ((), (), ())
    ok = rows is not None and {*map(type, ids)} <= {int} and list(ids) == list(range(len(ids)))
    ok = ok and {*map(type, tags)} <= {str} and {*map(type, bounds)} <= {list}
    pairs = list(chain.from_iterable(bounds)) if ok else ()
    if not (ok and {*map(type, pairs)} <= {list} and {*map(len, pairs)} <= {2}):
        for pos, entry in enumerate(entries):
            where = f"box instance: boxes[{pos}]"
            if not isinstance(entry, dict):
                raise FormatError(f"{where} must be a JSON object")
            if _require_int(entry, "id", where) != pos:
                raise FormatError(f"{where}: box ids must be 0..n-1 in order")
            if not isinstance(entry.get("tag"), str):
                raise FormatError(f'{where}: "tag" must be a string')
            _name_bad_pair(_require_lists(entry, "bounds", where), "bounds", where)
    raw_prov = data.get("provenance", {})
    if not isinstance(raw_prov, dict):
        raise FormatError('box instance: "provenance" must be an object')
    box_ids = list(map(_box_id, raw_prov))
    ok = None not in box_ids and {*map(type, raw_prov.values())} <= {list}
    if not (ok and {*map(type, chain.from_iterable(raw_prov.values()))} <= {int, str}):
        # name the first malformed entry
        for box_id, (key, entry) in zip(box_ids, raw_prov.items()):
            if box_id is None or not isinstance(entry, list) or not all(
                type(part) in (int, str) for part in entry
            ):
                raise FormatError(f"box instance: provenance entry {key!r} malformed")
    provenance = dict(zip(box_ids, map(tuple, raw_prov.values())))
    try:
        return BoxInstance(_read_dims(bounds, d, k), tags, provenance)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"box instance: {exc}") from None


def _box_id(key: str) -> Optional[int]:
    """A provenance key's box id: its int when the key is an optional minus
    sign and ASCII digits, within int()'s digit limit, else None."""
    if key.isascii() and (key[1:] if key[:1] == "-" else key).isdigit():
        try:
            return int(key)
        except ValueError:  # past the digit limit
            pass
    return None


# --- online transcripts ---


def format_transcript_jsonl(
    instance: Instance, colors: Sequence[int], trace: Sequence[int]
) -> str:
    """One JSON line per presentation: interval, chosen color, running imbalance.

    instance holds the presented intervals in arrival order; their
    coordinates are written from its keys.
    """
    if not (instance.n == len(colors) == len(trace)):
        raise ValueError(
            f"mismatched transcript parts: {instance.n} intervals, "
            f"{len(colors)} colors, {len(trace)} imbalances"
        )
    if not instance.n:
        return ""
    # each column as JSON text, split into its values' texts, keys read in
    # pairs: no value's text holds ", ", so each line is one template's
    columns = (_keys_json(instance.keys, instance.scale), colors, trace)
    keys, *texts = [iter(json.dumps(list(column))[1:-1].split(", ")) for column in columns]
    line = '{"interval": [%s, %s], "color": %s, "max_imbalance": %s}\n'
    return "".join(map(line.__mod__, zip(keys, keys, *texts)))
