"""Split a trace into per-attribute sub-traces before edge annotation.

Messages that belong to the same transaction usually agree on some
attribute (packet id, context id, or a shared cache-line address).
Restricting the pair matching to messages with equal keys removes
cross-transaction pairings that a window can only approximate.

Node supports keep counting every instance of the trace; only edge
supports are computed inside slices and summed.  An instance without
the attribute is a slice of its own under either missing policy, so
the slices hold every instance, and a lone instance pairs with
nothing.

Mining never builds a slice.  One walk over the trace's instances,
read from its distinct rows (causality.marked_ids), keys each instance
to its slice and records the slice's shape: its message ids in order,
with a mark where each of its events starts.  The
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
    apply_deltas,
    marked_ids,
    node_numbers,
    positions_of,
    support_deltas,
    supports_at,
    trace_shape,
    unit_supports,
    window_thresholds,
)
from .trace import Trace, _check_atom


@dataclass(frozen=True)
class SlicePolicy:
    """How to key messages into slices.

    attribute: attribute name holding the key.
    block: when set, keys are integer addresses mapped to blocks of
        this size (a power of two, the modeled line size).
    missing: what the slice command does with messages lacking the
        attribute; "isolate" writes each as a slice of its own, "drop"
        leaves it out of every slice.  Mining is the same under both:
        it counts every instance for node support, and a message
        without the attribute pairs with nothing.
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
        _check_atom(self.attribute, "attribute name")


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
    """The number of slices of each shape, in one walk over the
    instances as causality.marked_ids gives them.

    A shape is a slice's message ids in order, each one that starts an
    event of the slice written as its complement ~id (as
    causality.trace_shape writes a whole trace).  An instance without
    the attribute is a slice of its own, whatever policy.missing says,
    so its shape is (~id,).  Without a block, instances are keyed by
    Trace.attr_keys, which on a tagged trace is the attribute text and
    decodes nothing.  The instances without the attribute are gathered
    under _UNKEYED like a slice, then taken out.
    """
    keys = trace.attr_keys(policy.attribute, _UNKEYED) if policy.block is None else _slice_keys(trace, policy)
    shapes: dict[object, list[int]] = {}  # key -> [event of its last instance, *shape]
    event = 0  # the number of events begun so far
    for key, mid in zip(keys, marked_ids(trace)):
        shape = shapes.get(key)
        if mid < 0:  # the instance starts an event, and so an event of its slice
            event += 1
            if shape is None:
                shapes[key] = [event, mid]
            else:
                shape[0] = event
                shape.append(mid)
        elif shape is None:
            shapes[key] = [event, ~mid]
        elif shape[0] == event:
            shape.append(mid)
        else:
            shape[0] = event
            shape.append(~mid)
    unkeyed = shapes.pop(_UNKEYED, [None])[1:]
    for shape in shapes.values():
        del shape[0]
    counts = Counter(map(tuple, shapes.values()))
    counts.update((i if i < 0 else ~i,) for i in unkeyed)
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
    once without a policy.  positions is positions_of's pair of flat
    columns, instance positions per node and event starts, both
    counted within the shape.  The units hold every instance of the
    trace once, so causality.unit_supports counts its node supports."""
    shapes: Counter[Shape] = Counter([trace_shape(trace)]) if policy is None else slice_shapes(trace, policy)
    numbers = node_numbers(graph, trace)
    return [(positions_of(trace, numbers, shape), count) for shape, count in shapes.items()]


def annotate_sliced(
    graph: CausalityGraph, trace: Trace, policy: SlicePolicy, window: int | None = None
) -> CausalityGraph:
    """Accumulate one trace's supports, pairing only inside slices:
    node and edge supports are summed over slice_units, the units
    prepare_annotation matches, which hold every instance once."""
    units = slice_units(graph, trace, policy)
    edge_delta = supports_at(window_thresholds(graph, units), window)
    apply_deltas(graph, unit_supports(graph, units), edge_delta)
    return graph
