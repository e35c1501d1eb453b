"""Balanced k-coloring of intervals, circular arcs, and related constructions.

The hardness constructions are imported on first use of one of their
names (PEP 562), so that coloring intervals does not load them.
"""

from intervalcolor.arcs import (
    ArcInstance,
    arc_color,
    arc_imbalance,
    make_arc_instance,
    min_arc_imbalance_oracle,
    unfold,
)
from intervalcolor.core import (
    Coord,
    CoordInput,
    Coloring,
    ImbalanceReport,
    Instance,
    Interval,
    InvariantViolation,
    NormalizedInstance,
    divisibility_predicts_zero,
    imbalance,
    make_instance,
    min_imbalance_oracle,
    normalize,
    to_coord,
)
from intervalcolor.formats import FormatError
from intervalcolor.k_color import (
    EdgeGraph,
    constraint_graph,
    edge_color,
    hypergraph_to_instance,
    k_color,
    k_color_dewerra,
)
from intervalcolor.online import (
    GreedyLeastLoaded,
    OnlineAlgorithm,
    RoundRobin,
    SeededRandom,
    Transcript,
    adversary_general,
    make_algorithm,
    run_online,
)
from intervalcolor.two_color import two_color

__all__ = [
    "ArcInstance",
    "Box",
    "BoxInstance",
    "Coord",
    "CoordInput",
    "Coloring",
    "EdgeGraph",
    "FormatError",
    "GreedyLeastLoaded",
    "ImbalanceReport",
    "Instance",
    "Interval",
    "InvariantViolation",
    "NaeFormula",
    "NormalizedInstance",
    "OnlineAlgorithm",
    "RoundRobin",
    "SeededRandom",
    "Transcript",
    "WeightedInstance",
    "adversary_general",
    "arc_color",
    "arc_imbalance",
    "box_imbalance",
    "constraint_graph",
    "decide_balanced_boxes",
    "decide_grouped_intervals",
    "divisibility_predicts_zero",
    "edge_color",
    "hypergraph_to_instance",
    "imbalance",
    "k_color",
    "k_color_dewerra",
    "make_algorithm",
    "make_arc_instance",
    "make_box_instance",
    "make_instance",
    "min_arc_imbalance_oracle",
    "min_imbalance_oracle",
    "nae_brute_force",
    "normalize",
    "reduce_nae_to_boxes",
    "reduce_nae_to_multiple_intervals",
    "reduce_partition_to_weighted",
    "run_online",
    "to_coord",
    "two_color",
    "unfold",
    "weighted_imbalance",
]


def __getattr__(name: str):
    # the names of __all__ not imported above are the hardness module's
    if name in __all__:
        from intervalcolor import hardness

        return getattr(hardness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
