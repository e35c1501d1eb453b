"""A deterministic work meter: bytecodes executed per stage.

A trace function that sets f_trace_opcodes on every frame is called once
per bytecode instruction run in Python, so the count is the same on every
run of the same input, whatever the host's load.  Work done inside C
(sorted's comparisons, map, big-int arithmetic) is not counted.
"""

import random
import sys

from intervalcolor.core import imbalance, make_instance, normalize
from intervalcolor.k_color import k_color


def opcodes(call, *args):
    """(call(*args), the bytecodes executed in Python while it ran)."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def tracer(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = call(*args)
    finally:
        sys.settrace(previous)
    return result, count


def instance(seed, n, k=8):
    rng = random.Random(seed)
    bounds = []
    for _ in range(n):
        a = rng.randrange(0, 10 * n)
        bounds.append((a, a + rng.randrange(0, 80)))
    return make_instance(bounds, k)


def stage_counts(seed, n):
    """Bytecodes of normalize, then k_color, then imbalance, on a fresh
    instance; k_color reuses the ranking normalize kept."""
    inst = instance(seed, n)
    counts = {"normalize": opcodes(normalize, inst)[1]}
    coloring, counts["k_color"] = opcodes(k_color, inst)
    counts["imbalance"] = opcodes(imbalance, inst, coloring)[1]
    return counts


def test_stage_work_repeats_exactly_and_doubles_with_n():
    k_color(instance(1, 100))  # imports on first use stay out of the counts
    sizes = (2000, 4000, 8000)
    counts = [stage_counts(1, n) for n in sizes]
    for n, measured in zip(sizes, counts):
        assert stage_counts(1, n) == measured, n
    for smaller, larger in zip(counts, counts[1:]):
        for stage, count in smaller.items():
            assert 1.9 <= larger[stage] / count <= 2.1, (stage, count, larger[stage])
