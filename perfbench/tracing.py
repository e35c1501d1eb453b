"""Spans and counters around the program's layer boundaries.

A traced pass replays the same CLI ops with every function named in
LAYERS replaced, in each module that refers to it, by a wrapper that
records a span (name, start, end, parent, op id) and, for some calls, an
exact count.  The program's files are not touched: the wrappers live
here and are installed into the modules of the child process only.
Spans stay in memory until the pass ends.

`summarize` turns the spans of one traced pass into the per-layer
metrics; it runs in the parent process.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# module -> public functions whose calls are layer boundaries
LAYERS = {
    "formats": (
        "parse_instance_json",
        "parse_instance_text",
        "parse_coloring_json",
        "format_coloring_json",
        "parse_arc_json",
        "parse_hypergraph_text",
        "parse_nae_text",
        "format_box_instance_json",
        "parse_box_instance_json",
        "format_transcript_jsonl",
    ),
    "core": ("normalize", "imbalance", "min_imbalance_oracle"),
    "k_color": (
        "k_color",
        "build_constraints",
        "constraints_to_graph",
        "edge_color",
        "k_color_dewerra",
        "hypergraph_to_instance",
    ),
    "two_color": ("two_color",),
    "arcs": ("unfold", "arc_color", "arc_imbalance"),
    "online": ("run_online", "adversary_general", "presentation_trace"),
    "hardness": ("reduce_nae_to_boxes", "decide_balanced_boxes", "box_imbalance"),
    "cli": (
        "cmd_color",
        "cmd_verify",
        "cmd_oracle",
        "cmd_arcs",
        "cmd_online",
        "cmd_reduce",
        "cmd_decide_boxes",
        "cmd_hypergraph",
    ),
}


def _distinct(instance) -> int:
    return len({x for itv in instance.intervals for x in (itv.lo, itv.hi)})


# span name -> exact counts added per call, from (args, result)
COUNTERS: Dict[str, Callable] = {
    "core.normalize": lambda a, r: {"core.events": 2 * a[0].n, "core.distinct_coords": _distinct(a[0])},
    "core.imbalance": lambda a, r: {"core.imbalance_calls": 1},
    "k_color.k_color": lambda a, r: {"k_color.real_items": a[0].n if a[0].k >= 2 else 0},
    "k_color.build_constraints": lambda a, r: {"k_color.constraints": len(r[0])},
    "k_color.constraints_to_graph": lambda a, r: {"k_color.edges": len(r.edges)},
    "two_color.two_color": lambda a, r: {"two_color.calls": 1},
    "online.run_online": lambda a, r: {"online.presentations": len(r[1])},
    "online.adversary_general": lambda a, r: {"online.presentations": len(r.presented)},
    "hardness.reduce_nae_to_boxes": lambda a, r: {"hardness.boxes": len(r.boxes)},
    "hardness.decide_balanced_boxes": lambda a, r: {
        "hardness.decide_calls": 1,
        "hardness.balanced": int(r is not None),
    },
}
for _name in LAYERS["formats"]:
    if _name.startswith("parse_"):
        COUNTERS["formats." + _name] = lambda a, r: {"formats.input_bytes": len(a[0].encode())}


class Recorder:
    """Spans as [name, start, end, parent index, op id], kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op: Optional[str] = None
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, amount in counter(args, result).items():
                self.counts[key] += amount
        return result


def install(recorder: Recorder) -> None:
    """Wrap every LAYERS function wherever the program's modules bind it.

    A name the program no longer defines is skipped, and its metrics read 0.
    """
    modules = {name: importlib.import_module(f"intervalcolor.{name}") for name in LAYERS}
    for layer, names in LAYERS.items():
        for fname in names:
            fn = getattr(modules[layer], fname, None)
            if fn is None:
                continue
            span_name = f"{layer}.{fname}"

            def traced(*args, _fn=fn, _name=span_name, **kwargs):
                return recorder.call(_name, _fn, args, kwargs)

            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)


def _inclusive(spans) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        out[name] += end - start
    return out


def self_times(spans) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds per pass)."""
    inc = _inclusive(spans)
    counts = defaultdict(int, counts)
    own: Dict[str, float] = defaultdict(float)
    pullback = 0.0
    for span, t in zip(spans, self_times(spans)):
        own[span[0].split(".")[0]] += t
        if span[0] == "k_color.k_color":
            pullback += t
    edges = counts["k_color.edges"]
    real = counts["k_color.real_items"]
    presentations = counts["online.presentations"]
    online_s = inc["online.run_online"] + inc["online.adversary_general"] + inc["online.presentation_trace"]
    decided = counts["hardness.decide_calls"]
    m = {
        "formats.parse_instance_s": inc["formats.parse_instance_json"] + inc["formats.parse_instance_text"],
        "formats.parse_coloring_s": inc["formats.parse_coloring_json"],
        "formats.format_coloring_s": inc["formats.format_coloring_json"],
        "formats.input_bytes": counts["formats.input_bytes"],
        "core.normalize_s": inc["core.normalize"],
        "core.imbalance_s": inc["core.imbalance"],
        "core.events": counts["core.events"],
        "core.distinct_coords": counts["core.distinct_coords"],
        "core.imbalance_calls": counts["core.imbalance_calls"],
        "core.oracle_s": inc["core.min_imbalance_oracle"],
        "k_color.build_constraints_s": inc["k_color.build_constraints"],
        "k_color.constraints_to_graph_s": inc["k_color.constraints_to_graph"],
        "k_color.edge_color_s": inc["k_color.edge_color"],
        "k_color.pullback_s": pullback,
        "k_color.constraints": counts["k_color.constraints"],
        "k_color.edges": edges,
        "k_color.real_items": real,
        "k_color.virtual_items": edges - real if edges else 0,
        "k_color.useful_ratio": real / edges if edges else 0.0,
        "k_color.dewerra_s": inc["k_color.k_color_dewerra"],
        "k_color.dewerra_passes": counts["two_color.calls"],  # one two_color per pass
        "two_color.two_color_s": inc["two_color.two_color"],
        "arcs.unfold_s": inc["arcs.unfold"],
        "arcs.arc_color_s": inc["arcs.arc_color"],
        "arcs.arc_imbalance_s": inc["arcs.arc_imbalance"],
        "online.run_online_s": inc["online.run_online"],
        "online.adversary_s": inc["online.adversary_general"],
        "online.presentation_trace_s": inc["online.presentation_trace"],
        "online.presentations": presentations,
        "online.s_per_presentation": online_s / presentations if presentations else 0.0,
        "hardness.reduce_nae_to_boxes_s": inc["hardness.reduce_nae_to_boxes"],
        "hardness.decide_balanced_boxes_s": inc["hardness.decide_balanced_boxes"],
        "hardness.box_imbalance_s": inc["hardness.box_imbalance"],
        "hardness.boxes": counts["hardness.boxes"],
        "hardness.decide_calls": decided,
        "hardness.balanced_ratio": counts["hardness.balanced"] / decided if decided else 0.0,
        "cli.overhead_s": own["cli"],
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = own[layer]
    return m
