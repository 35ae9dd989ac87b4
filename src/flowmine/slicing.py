"""Split a trace into per-attribute sub-traces before edge annotation.

Messages that belong to the same transaction usually agree on some
attribute (packet id, context id, or a shared cache-line address).
Restricting the pair matching to messages with equal keys removes
cross-transaction pairings that a window can only approximate.

Node supports keep coming from the whole trace; only edge supports
are computed inside slices and summed.

Mining never builds a slice.  One pass over the trace's columns keys
each instance to its slice and records the slice's shape: its message
ids in order, with a mark where each of its events starts.  The
matching reads nothing else, because positions count from 0 inside a
slice and its events are renumbered from 0, so slices of equal shape
pair their tails at equal thresholds.  Equal shapes are counted, and
each distinct one is matched once and weighted by its count (see
causality.window_thresholds); transactions of one flow mostly share a
handful of shapes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

# support_deltas is not called here; it stays importable from this
# module because perfbench/tracing.py wraps it under this name.
from .causality import (  # noqa: F401
    CausalityGraph,
    Positions,
    Shape,
    _by_message,
    apply_deltas,
    instance_positions,
    node_numbers,
    positions_of,
    support_deltas,
    supports_at,
    trace_shape,
    window_thresholds,
)
from .trace import Trace


@dataclass(frozen=True)
class SlicePolicy:
    """How to key messages into slices.

    attribute: attribute name holding the key.
    block: when set, keys are integer addresses mapped to blocks of
        this size (a power of two, the modeled line size).
    missing: what to do with messages lacking the attribute;
        "isolate" puts each into a slice of its own so it still counts
        for node support but supports no pairing, "drop" removes it
        from every slice.
    """

    attribute: str
    block: int | None = None
    missing: str = "isolate"

    def __post_init__(self):
        if self.block is not None:
            if self.block < 1 or (self.block & (self.block - 1)) != 0:
                raise ValueError("block size must be a power of two, got %r" % (self.block,))
        if self.missing not in ("isolate", "drop"):
            raise ValueError("missing must be 'isolate' or 'drop', got %r" % (self.missing,))


def address_block(addr: int, line_size: int) -> int:
    """Block id of an address under a given line size."""
    if not isinstance(addr, int) or isinstance(addr, bool):
        raise ValueError("address %r is not an integer" % (addr,))
    if line_size < 1 or (line_size & (line_size - 1)) != 0:
        raise ValueError("line size must be a power of two, got %r" % (line_size,))
    return addr // line_size


_UNKEYED = object()  # the key of an instance without the attribute


def _slice_keys(trace: Trace, policy: SlicePolicy) -> list[object]:
    """The slice key of each instance in trace order: its attribute
    value, or that value's block, or _UNKEYED when it has none."""
    values = trace.attr_values(policy.attribute, _UNKEYED)
    if policy.block is None:
        return values
    return [v if v is _UNKEYED else address_block(v, policy.block) for v in values]


def slice_shapes(trace: Trace, policy: SlicePolicy) -> Counter:
    """The number of slices of each shape, in one pass over the trace.

    A shape is a slice's message ids in order, each one that starts an
    event of the slice written as its complement ~id (as
    causality.trace_shape writes a whole trace).  An isolated instance
    is a slice of its own, so its shape is (~id,).
    """
    isolate = policy.missing == "isolate"
    shapes: dict[object, list[int]] = {}  # key -> [event of its last instance, *shape]
    counts: Counter = Counter()
    for key, event, mid in zip(_slice_keys(trace, policy), trace.event_of, trace.ids):
        if key is _UNKEYED:
            if isolate:
                counts[(~mid,)] += 1
            continue
        shape = shapes.get(key)
        if shape is None:
            shapes[key] = [event, ~mid]
        elif shape[0] == event:
            shape.append(mid)
        else:
            shape[0] = event
            shape.append(~mid)
    counts.update(tuple(shape[1:]) for shape in shapes.values())
    return counts


def labeled_slices(trace: Trace, policy: SlicePolicy) -> list[tuple[str, Trace]]:
    """Partition a trace by attribute key, with a printable label per
    slice.

    Every slice preserves the event structure and relative order of
    its messages.  Slices come back in order of first appearance.
    Keyed slices are labeled by their key value; messages isolated
    for lacking the attribute get running unkeyed<N> labels.
    """
    isolate = policy.missing == "isolate"
    keyed: dict[object, list[int]] = {}
    slices: list[tuple[str, list[int]]] = []  # (label, instance numbers in trace order)
    unkeyed = 0
    for i, key in enumerate(_slice_keys(trace, policy)):
        if key is _UNKEYED:
            if isolate:
                slices.append(("unkeyed%d" % unkeyed, [i]))
                unkeyed += 1
            continue
        members = keyed.get(key)
        if members is None:
            members = keyed[key] = []
            slices.append((str(key), members))
        members.append(i)
    return [(label, trace.select(members)) for label, members in slices]


def slice_trace(trace: Trace, policy: SlicePolicy) -> list[Trace]:
    """The slices of labeled_slices, without their labels."""
    return [part for _, part in labeled_slices(trace, policy)]


def parse_policy(spec: str) -> SlicePolicy:
    """Parse 'attr', 'attr:block=64', or 'attr:missing=drop' strings."""
    parts = spec.split(":")
    attribute = parts[0]
    if not attribute:
        raise ValueError("slice spec %r names no attribute" % spec)
    block: int | None = None
    missing = "isolate"
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError("slice option %r is not key=value" % part)
        if key == "block":
            try:
                block = int(value)
            except ValueError:
                raise ValueError("block size %r is not an integer" % value) from None
        elif key == "missing":
            missing = value
        else:
            raise ValueError("unknown slice option %r" % key)
    return SlicePolicy(attribute, block=block, missing=missing)


def slice_units(graph: CausalityGraph, trace: Trace, policy: SlicePolicy | None) -> list[tuple[Positions, int]]:
    """The units causality.window_thresholds matches for one trace:
    (positions, count) per distinct slice shape, or the whole trace
    once without a policy.  Positions count within the shape."""
    shapes: Counter[Shape] = Counter([trace_shape(trace)]) if policy is None else slice_shapes(trace, policy)
    numbers = node_numbers(graph, trace)
    return [(positions_of(trace, numbers, shape), count) for shape, count in shapes.items()]


def annotate_sliced(
    graph: CausalityGraph, trace: Trace, policy: SlicePolicy, window: int | None = None
) -> CausalityGraph:
    """Accumulate one trace's supports, pairing only inside slices:
    node supports count the whole trace, and edge supports are matched
    over slice_units, the units prepare_annotation matches."""
    node_delta = _by_message(graph, instance_positions(graph, trace))
    edge_delta = supports_at(window_thresholds(graph, slice_units(graph, trace, policy)), window)
    apply_deltas(graph, node_delta, edge_delta)
    return graph
