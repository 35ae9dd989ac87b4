"""Split a trace into per-attribute sub-traces before edge annotation.

Messages that belong to the same transaction usually agree on some
attribute (packet id, context id, or a shared cache-line address).
Restricting the pair matching to messages with equal keys removes
cross-transaction pairings that a window can only approximate.

Node supports keep coming from the whole trace; only edge supports
are computed inside slices and summed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .causality import CausalityGraph, apply_deltas, node_deltas, support_deltas
from .trace import Message, Trace, TraceEvent


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


def _slice_key(msg: Message, policy: SlicePolicy) -> object:
    value = msg.attrs[policy.attribute]
    if policy.block is not None:
        return address_block(value, policy.block)
    return value


def _buckets(trace: Trace, policy: SlicePolicy) -> dict[tuple, list]:
    buckets: dict[tuple, list] = {}
    solo = 0
    for e_idx, event in enumerate(trace.events):
        for m in event:
            if policy.attribute in m.attrs:
                key = ("key", _slice_key(m, policy))
            elif policy.missing == "drop":
                continue
            else:
                key = ("solo", solo)
                solo += 1
            rows = buckets.setdefault(key, [])
            if rows and rows[-1][0] == e_idx:
                rows[-1][1].append(m)
            else:
                rows.append((e_idx, [m]))
    return buckets


def _rows_to_trace(rows: list) -> Trace:
    return Trace(tuple(TraceEvent(tuple(ms)) for _, ms in rows))


def slice_trace(trace: Trace, policy: SlicePolicy) -> list[Trace]:
    """Partition a trace by attribute key.

    Every slice preserves the event structure and relative order of
    its messages.  Slices come back in order of first appearance.
    """
    return [_rows_to_trace(rows) for rows in _buckets(trace, policy).values()]


def labeled_slices(trace: Trace, policy: SlicePolicy) -> list[tuple[str, Trace]]:
    """Like slice_trace, with a printable label per slice.

    Keyed slices are labeled by their key value; messages isolated
    for lacking the attribute get running unkeyed<N> labels.
    """
    out = []
    for key, rows in _buckets(trace, policy).items():
        label = str(key[1]) if key[0] == "key" else "unkeyed%d" % key[1]
        out.append((label, _rows_to_trace(rows)))
    return out


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


def sliced_support_deltas(
    graph: CausalityGraph, trace: Trace, policy: SlicePolicy, window: int | None = None
) -> tuple[Counter, Counter]:
    """Node deltas from the unsliced trace, edge deltas summed over slices."""
    node_delta = node_deltas(graph, trace)
    edge_delta: Counter = Counter()
    for part in slice_trace(trace, policy):
        _, part_edges = support_deltas(graph, part, window)
        edge_delta.update(part_edges)
    return node_delta, edge_delta


def annotate_sliced(
    graph: CausalityGraph, trace: Trace, policy: SlicePolicy, window: int | None = None
) -> CausalityGraph:
    """Accumulate one trace's supports, pairing only inside slices."""
    node_delta, edge_delta = sliced_support_deltas(graph, trace, policy, window)
    apply_deltas(graph, node_delta, edge_delta)
    return graph
