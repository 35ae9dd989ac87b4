"""Structural causality graph over the distinct messages of a trace set.

A message m can trigger m' when m's destination is m's source; that
purely structural test is the only coupling assumed between messages.
The graph has one node per distinct message and one edge per causally
admissible ordered pair, except that detected flow entry points get
no incoming edges and detected exit points get no outgoing edges.

Annotation fills in supports.  A node's support counts its instances.
An edge's support counts pairs found by a greedy matching: walking
tail instances left to right, each one grabs the nearest earlier
unmatched head instance.  Instances inside one event are concurrent
and never pair with each other.  An optional window length w keeps a
pair only when the tail lies at most w + 1 positions after the head
in the flattened trace.  One stack pass per edge, linear in the
instances of its two messages and run without a window, gives each
paired tail its threshold: the smallest w at which the matching pairs
it (see _thresholds).  An edge's support at w is then the number of
its thresholds <= w, so it never decreases as w grows, and every
window length reads its supports from the same sorted lists.

Instances are keyed by message id, never by Message object.  A
trace's ids map to graph node ordinals through one list as long as
its alphabet (node_numbers), and instance positions are keyed by
ordinal, so no Message is hashed per instance.  Graph nodes and edges themselves stay Messages.

A matching unit is held as flat ints (positions_of): per node
ordinal, the plain positions of its instances, and one starts list
giving each position the first position of its event.  A head lies
in a strictly earlier event than a tail exactly when head <
starts[tail], so the matching builds no per-instance tuple.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .trace import Message, MessageTable, Trace

log = logging.getLogger(__name__)

Edge = tuple[Message, Message]


def causal(m1: Message, m2: Message) -> bool:
    """True when m1 can have triggered m2."""
    return m1.dest == m2.src


def detect_entries_exits(traces: Sequence[Trace]) -> tuple[set[Message], set[Message]]:
    """Flow entry and exit points, (initials, terminals).

    A message is initial when no strictly earlier event than its
    first instance sends to its source, and terminal when no strictly
    later event than its last instance sends from its destination.
    Either test must hold in every trace that contains the message.
    Per trace, the first and last event of each message id decide
    both tests: a component's first event as a destination is the
    earliest first event of a message sent to it, and its last event
    as a source the latest last event of a message it sends.  Those
    events come from Trace.extents, which walks the events in from
    each end and stops once every message is found.
    """
    initial: dict[Message, bool] = {}
    terminal: dict[Message, bool] = {}
    for trace in traces:
        first, last = trace.extents
        first_dest: dict[str, int] = {}
        last_src: dict[str, int] = {}
        for mid, e_idx in first.items():
            dest = trace.alphabet[mid].dest
            first_dest[dest] = min(e_idx, first_dest.get(dest, e_idx))
        for mid, e_idx in last.items():
            src = trace.alphabet[mid].src
            last_src[src] = max(e_idx, last_src.get(src, e_idx))
        for mid, e_last in last.items():
            m, e_first = trace.alphabet[mid], first[mid]
            initial[m] = initial.get(m, True) and first_dest.get(m.src, e_first) >= e_first
            terminal[m] = terminal.get(m, True) and last_src.get(m.dest, e_last) <= e_last
    return {m for m, ok in initial.items() if ok}, {m for m, ok in terminal.items() if ok}


def detect_initials(traces: Sequence[Trace]) -> set[Message]:
    """Messages whose first instance never has an earlier trigger."""
    return detect_entries_exits(traces)[0]


def detect_terminals(traces: Sequence[Trace]) -> set[Message]:
    """Messages whose last instance never has a later successor."""
    return detect_entries_exits(traces)[1]


@dataclass
class NodeStats:
    initial: bool
    terminal: bool
    support: int = 0


@dataclass
class CausalityGraph:
    """Annotated graph.  Structure is fixed at build time; only the
    support counters change afterwards.

    nodes holds the messages in ordinal order, and edges the (head,
    tail) pairs in (head ordinal, tail ordinal) order: build_graph
    emits them so, and with_edge_supports and annotation keep the
    order.  Readers iterate both as they are and sort neither.
    """

    nodes: dict[Message, NodeStats]
    edges: dict[Edge, int]
    _ordinals: dict[Message, int] = field(default_factory=dict, repr=False)

    def ordinal(self, msg: Message) -> int:
        """Stable node number: table index when the graph was built
        with a table, 1-based insertion rank otherwise."""
        return self._ordinals[msg]

    def with_edge_supports(self, supports: Mapping[Edge, int]) -> "CausalityGraph":
        """A copy with the same structure and node supports, and edge
        supports read from supports (0 where it has no entry)."""
        nodes = {m: replace(st) for m, st in self.nodes.items()}
        edges = {e: supports.get(e, 0) for e in self.edges}
        return CausalityGraph(nodes=nodes, edges=edges, _ordinals=self._ordinals)


def build_graph(
    msgs: Iterable[Message],
    initials: set[Message],
    terminals: set[Message],
    table: MessageTable | None = None,
) -> CausalityGraph:
    """Zero-support graph over msgs with pruned entry/exit edges."""
    order = list(msgs)
    if len(set(order)) != len(order):
        raise ValueError("duplicate messages in node list")
    if table is not None:
        for m in order:
            table.index_of(m)  # raises on unknown messages
        order.sort(key=table.index_of)
        ordinals = {m: table.index_of(m) for m in order}
    else:
        ordinals = {m: i for i, m in enumerate(order, start=1)}

    nodes = {m: NodeStats(initial=m in initials, terminal=m in terminals) for m in order}
    edges: dict[Edge, int] = {}
    for head in order:
        if nodes[head].terminal:
            continue
        for tail in order:
            if nodes[tail].initial:
                continue
            if causal(head, tail):
                edges[(head, tail)] = 0
    return CausalityGraph(nodes=nodes, edges=edges, _ordinals=ordinals)


Positions = tuple[dict[int, list[int]], list[int]]  # (positions per node ordinal, event starts)
Shape = tuple[int, ...]  # message ids in order, ~id where an event starts


def node_numbers(graph: CausalityGraph, trace: Trace) -> list[int | None]:
    """The graph ordinal of each message id of trace, None for a
    message that is not a node.  One lookup per alphabet entry."""
    return [graph._ordinals.get(m) for m in trace.alphabet]


def marked_ids(trace: Trace) -> Iterator[int]:
    """Per instance in trace order its message id, or its complement
    ~id where it starts an event.  Each distinct row's piece is built
    once, and row_of chains the pieces."""
    pieces = [(~row[0], *row[1:]) for row in trace.rows]
    return chain.from_iterable(map(pieces.__getitem__, trace.row_of))


def trace_shape(trace: Trace) -> Shape:
    """The shape of a whole trace: its message ids in order, each one
    that starts an event written as its complement ~id."""
    return tuple(marked_ids(trace))


def positions_of(trace: Trace, numbers: list[int | None], shape: Shape) -> Positions:
    """The instance positions of a shape, as two flat int columns:
    per node ordinal, the positions of its instances in order, and
    for the shape as a whole starts, where starts[p] is the first
    position of the event that holds position p.  Positions run 0,
    1, ... in shape order.  trace and numbers resolve the shape's ids."""
    by_id: dict[int, list[int]] = {}
    starts: list[int] = []
    start = 0
    for pos, mid in enumerate(shape):
        if mid < 0:
            start, mid = pos, ~mid
        starts.append(start)
        found = by_id.get(mid)
        if found is None:
            by_id[mid] = [pos]
        else:
            found.append(pos)
    positions: dict[int, list[int]] = {}
    for mid, found in by_id.items():
        if numbers[mid] is None:
            raise ValueError("message %s is not a graph node" % trace.alphabet[mid].label())
        positions[numbers[mid]] = found
    return positions, starts


def instance_positions(graph: CausalityGraph, trace: Trace) -> Positions:
    """The flattened position of every instance per node ordinal, and
    the event starts, as positions_of gives them for the whole trace."""
    return positions_of(trace, node_numbers(graph, trace), trace_shape(trace))


def unit_supports(graph: CausalityGraph, units: Iterable[tuple[Positions, int]]) -> Counter:
    """Per graph node, its instances over units, a unit's counted as
    often as its count says: the node supports of the traces when the
    units hold each instance once, as slicing.slice_units' do."""
    by_ordinal: Counter = Counter()
    for (positions, _), count in units:
        for node, found in positions.items():
            by_ordinal[node] += count * len(found)
    supports: Counter = Counter()
    for m in graph.nodes:
        n = by_ordinal[graph.ordinal(m)]
        if n:
            supports[m] = n
    return supports


def _thresholds(heads: list[int], tails: list[int], starts: list[int], out: list[int]) -> None:
    """Append to out, per tail that the matching pairs without a
    window, the smallest window length at which it is paired: its gap
    to that head, tail - head - 1.

    heads/tails are flattened positions in trace order, and starts[p]
    is the first position of the event that holds position p.  A pair
    needs the head in a strictly earlier event, head < starts[tail],
    and tail <= head + w + 1 under a window w.

    The matching at one window is a stack pass: before each tail,
    every head from a strictly earlier event is pushed, so the top of
    the stack is the nearest unmatched candidate.  A top out of reach
    has every deeper head further back, out of reach of later tails
    too, so the stack is cleared; otherwise the top is popped.

    Two windows w < w' push the same heads, and by induction over the
    tails the stack at w is always a suffix of the stack at w': where
    w' clears, w clears too, and where w' pops, w pops the same top or
    clears.  So at window w a tail can pair only with the top of the
    unwindowed stack, and does unless that head is out of reach or an
    earlier clear took it.  Such a clear came at an earlier tail whose
    top lay at or above this head and out of reach; this tail lies
    further from this head, so the head is out of reach too.  A tail
    is thus paired at w exactly when its gap is at most w.
    """
    stack: list[int] = []  # positions of the unmatched heads
    following, end = iter(heads), len(starts)  # no event starts at or past end
    head = next(following, end)
    for tail in tails:
        start = starts[tail]
        while head < start:
            stack.append(head)
            head = next(following, end)
        if stack:
            out.append(tail - stack.pop() - 1)


Thresholds = dict[Edge, list[int]]


def window_thresholds(graph: CausalityGraph, units: Iterable[tuple[Positions, int]]) -> Thresholds:
    """Per edge, the sorted thresholds of its paired tail instances,
    over every unit: its support at window length w is the number of
    thresholds <= w, and without a window all of them.

    A unit is (positions, count): the positions of one shape, the
    whole of a trace or one slice of it, and how many times that
    shape occurs; matching never crosses units.  The matching reads
    only positions and event starts, and a shape fixes both, since
    positions count 0, 1, ... within it.  So equal slices pair their
    tails at equal thresholds, and each distinct shape is matched
    once, its thresholds written straight into the edge's list and
    repeated there count times in all.
    Each unit is visited through the out-edges of the nodes it holds,
    so a small slice costs little however large the graph.
    """
    found: Thresholds = {e: [] for e in graph.edges}
    succ: dict[int, list[tuple[int, list[int]]]] = {}
    for (head, tail), out in found.items():
        succ.setdefault(graph.ordinal(head), []).append((graph.ordinal(tail), out))
    for (positions, starts), count in units:
        for head, heads in positions.items():
            for tail, out in succ.get(head, ()):
                tails = positions.get(tail)
                if not tails:
                    continue
                n = len(out)
                _thresholds(heads, tails, starts, out)
                if count > 1:
                    out.extend(out[n:] * (count - 1))
    for out in found.values():
        out.sort()
    return found


def supports_at(thresholds: Thresholds, window: int | None) -> Counter:
    """Matched pairs per edge at window length w (None: no window);
    zero counts omitted."""
    supports: Counter = Counter()
    for edge, found in thresholds.items():
        n = len(found) if window is None else bisect_right(found, window)
        if n:
            supports[edge] = n
    return supports


def support_deltas(
    graph: CausalityGraph, trace: Trace, window: int | None = None
) -> tuple[Counter, Counter]:
    """Per-node and per-edge support contributions of one trace."""
    units = [(instance_positions(graph, trace), 1)]
    return unit_supports(graph, units), supports_at(window_thresholds(graph, units), window)


def annotate(graph: CausalityGraph, trace: Trace, window: int | None = None) -> CausalityGraph:
    """Accumulate one trace's supports into the graph."""
    node_delta, edge_delta = support_deltas(graph, trace, window)
    apply_deltas(graph, node_delta, edge_delta)
    return graph


def apply_deltas(graph: CausalityGraph, node_delta: Counter, edge_delta: Counter) -> None:
    for m, n in node_delta.items():
        graph.nodes[m].support += n
    for e, n in edge_delta.items():
        graph.edges[e] += n


def adjacency(pairs: Iterable[tuple[Hashable, Hashable]]) -> tuple[dict[Hashable, list], dict[Hashable, list]]:
    """Successor and predecessor lists of the (head, tail) pairs, built
    in one pass; a node without successors (predecessors) has no entry."""
    succ: dict[Hashable, list] = {}
    pred: dict[Hashable, list] = {}
    for head, tail in pairs:
        succ.setdefault(head, []).append(tail)
        pred.setdefault(tail, []).append(head)
    return succ, pred


def closure(start: Hashable, succ: Mapping[Hashable, list]) -> set:
    """start and every node reachable from it through succ."""
    seen, frontier = {start}, [start]
    while frontier:
        for nxt in succ.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _cycle_groups(graph: CausalityGraph) -> list[list[Message]]:
    """Strongly connected groups that actually contain a cycle, members
    in ordinal order, groups ordered by their first member.

    A node's group is what it reaches that also reaches it.  Nodes are
    walked in ordinal order, so the first node of a group to come up is
    its first member, and each group is found once.
    """
    forward, backward = adjacency(graph.edges)
    placed: set[Message] = set()
    groups: list[list[Message]] = []
    for m in graph.nodes:
        if m in placed:
            continue
        group = closure(m, forward) & closure(m, backward)
        placed |= group
        if len(group) > 1 or (m, m) in graph.edges:
            groups.append(sorted(group, key=graph.ordinal))
    return groups


def dump_graph(graph: CausalityGraph) -> dict:
    """JSON-ready snapshot, deterministically ordered.

    Cycles are legal in the structure; they are reported here so a
    reader can see them without re-deriving reachability.
    """
    nodes = [
        {
            "index": graph.ordinal(m),
            "message": m.label(),
            "support": graph.nodes[m].support,
            "initial": graph.nodes[m].initial,
            "terminal": graph.nodes[m].terminal,
        }
        for m in graph.nodes
    ]
    edges = [
        {
            "head": head.label(),
            "tail": tail.label(),
            "support": graph.edges[(head, tail)],
        }
        for head, tail in graph.edges
    ]
    cycles = [[m.label() for m in group] for group in _cycle_groups(graph)]
    return {"nodes": nodes, "edges": edges, "cycles": cycles}
