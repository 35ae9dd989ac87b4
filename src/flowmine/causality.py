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
ordinal, so attributes play no part and no Message is hashed per
instance.  Graph nodes and edges themselves stay Messages.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .trace import Message, MessageTable, Trace

log = logging.getLogger(__name__)

Edge = tuple[Message, Message]


def causal(m1: Message, m2: Message) -> bool:
    """True when m1 can have triggered m2."""
    return m1.dest == m2.src


def detect_entries_exits(traces: Sequence[Trace]) -> tuple[set[Message], set[Message]]:
    """Flow entry and exit points, (initials, terminals), in one scan.

    A message is initial when no strictly earlier event than its
    first instance sends to its source, and terminal when no strictly
    later event than its last instance sends from its destination.
    Either test must hold in every trace that contains the message.
    Per trace, the first and last event of each message id decide
    both tests: a component's first event as a destination is the
    earliest first event of a message sent to it, and its last event
    as a source the latest last event of a message it sends.
    """
    initial: dict[Message, bool] = {}
    terminal: dict[Message, bool] = {}
    for trace in traces:
        last = dict(zip(trace.ids, trace.event_of))
        first = dict(zip(reversed(trace.ids), reversed(trace.event_of)))
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
    support counters change afterwards."""

    nodes: dict[Message, NodeStats]
    edges: dict[Edge, int]
    table: MessageTable | None = None
    _ordinals: dict[Message, int] = field(default_factory=dict, repr=False)

    def ordinal(self, msg: Message) -> int:
        """Stable node number: table index when a table is attached,
        1-based insertion rank otherwise."""
        return self._ordinals[msg.plain()]

    def messages_by_ordinal(self) -> dict[int, Message]:
        return {o: m for m, o in self._ordinals.items()}

    def with_edge_supports(self, supports: Mapping[Edge, int]) -> "CausalityGraph":
        """A copy with the same structure and node supports, and edge
        supports read from supports (0 where it has no entry)."""
        nodes = {m: replace(st) for m, st in self.nodes.items()}
        edges = {e: supports.get(e, 0) for e in self.edges}
        return CausalityGraph(nodes=nodes, edges=edges, table=self.table, _ordinals=self._ordinals)


def build_graph(
    msgs: Iterable[Message],
    initials: set[Message],
    terminals: set[Message],
    table: MessageTable | None = None,
) -> CausalityGraph:
    """Zero-support graph over msgs with pruned entry/exit edges."""
    plain = [m.plain() for m in msgs]
    if len(set(plain)) != len(plain):
        raise ValueError("duplicate messages in node list")
    if table is not None:
        for m in plain:
            table.index_of(m)  # raises on unknown messages
        plain.sort(key=table.index_of)
        ordinals = {m: table.index_of(m) for m in plain}
    else:
        ordinals = {m: i for i, m in enumerate(plain, start=1)}

    nodes = {m: NodeStats(initial=m in initials, terminal=m in terminals) for m in plain}
    edges: dict[Edge, int] = {}
    for head in plain:
        if nodes[head].terminal:
            continue
        for tail in plain:
            if nodes[tail].initial:
                continue
            if causal(head, tail):
                edges[(head, tail)] = 0
    return CausalityGraph(nodes=nodes, edges=edges, table=table, _ordinals=ordinals)


Positions = dict[int, list[tuple[int, int]]]
Shape = tuple[int, ...]  # message ids in order, ~id where an event starts


def node_numbers(graph: CausalityGraph, trace: Trace) -> list[int | None]:
    """The graph ordinal of each message id of trace, None for a
    message that is not a node.  One lookup per alphabet entry."""
    return [graph._ordinals.get(m) for m in trace.alphabet]


def trace_shape(trace: Trace) -> Shape:
    """The shape of a whole trace: its message ids in order, each one
    that starts an event written as its complement ~id."""
    shape, last = [], -1
    for event, mid in zip(trace.event_of, trace.ids):
        shape.append(mid if event == last else ~mid)
        last = event
    return tuple(shape)


def positions_of(trace: Trace, numbers: list[int | None], shape: Shape) -> Positions:
    """(event index, position) of the instances of a shape per node
    ordinal: positions run 0, 1, ... and events are numbered from 0
    in shape order.  trace and numbers resolve the shape's ids."""
    by_id: Positions = {}
    event = -1
    for pos, mid in enumerate(shape):
        if mid < 0:
            event, mid = event + 1, ~mid
        found = by_id.get(mid)
        if found is None:
            by_id[mid] = [(event, pos)]
        else:
            found.append((event, pos))
    positions: Positions = {}
    for mid, found in by_id.items():
        if numbers[mid] is None:
            raise ValueError("message %s is not a graph node" % trace.alphabet[mid].label())
        positions[numbers[mid]] = found
    return positions


def instance_positions(graph: CausalityGraph, trace: Trace) -> Positions:
    """(event index, flattened position) of every instance, per node ordinal."""
    return positions_of(trace, node_numbers(graph, trace), trace_shape(trace))


def _by_message(graph: CausalityGraph, positions: Positions) -> Counter:
    at = graph.messages_by_ordinal()
    return Counter({at[o]: len(ps) for o, ps in positions.items()})


def _thresholds(heads: list[tuple[int, int]], tails: list[tuple[int, int]], out: list[int]) -> None:
    """Append to out, per tail that the matching pairs without a
    window, the smallest window length at which it is paired.

    heads/tails are (event index, flattened position) lists in trace
    order.  A pair needs the head in a strictly earlier event, and
    tail_pos <= head_pos + w + 1 under a window w.

    The matching at one window is a stack pass: before each tail,
    every head from a strictly earlier event is pushed, so the top of
    the stack is the nearest unmatched candidate.  A top out of reach
    has every deeper head further back, out of reach of later tails
    too, so the stack is cleared; otherwise the top is popped.

    Two windows w < w' push the same heads, and by induction over the
    tails the stack at w is always a suffix of the stack at w': where
    w' clears, w clears too, and where w' pops, w pops the same top or
    clears.  So each entry of the unwindowed stack is held from some
    smallest w on, nondecreasing from the top down, and a tail whose
    top is held from h and lies gap positions back is paired exactly
    at w >= max(h, gap - 1); below that the stack is empty or cleared,
    so the entries left are held from at least that much.  held keeps
    per entry a bound that also covers the entries below it, and a pop
    hands it down to the new top.
    """
    stack: list[int] = []  # positions of the unmatched heads
    held: list[int] = []  # per entry: it and those below are held from no smaller w
    nxt, n = 0, len(heads)
    for t_event, t_pos in tails:
        while nxt < n and heads[nxt][0] < t_event:
            stack.append(heads[nxt][1])
            held.append(-1)
            nxt += 1
        if stack:
            w = max(held.pop(), t_pos - stack.pop() - 1)
            out.append(w)
            if held and held[-1] < w:
                held[-1] = w


Thresholds = dict[Edge, list[int]]


def window_thresholds(graph: CausalityGraph, units: Iterable[tuple[Positions, int]]) -> Thresholds:
    """Per edge, the sorted thresholds of its paired tail instances,
    over every unit: its support at window length w is the number of
    thresholds <= w, and without a window all of them.

    A unit is (positions, count): the positions of one shape, the
    whole of a trace or one slice of it, and how many times that
    shape occurs; matching never crosses units.  The matching reads
    only positions and event order, and a shape fixes both, since
    positions count 0, 1, ... within it and its events are numbered
    from 0.  So equal slices pair their tails at equal thresholds, and
    each distinct shape is matched once, its thresholds repeated count
    times.  Each unit is visited through the out-edges of the nodes it
    holds, so a small slice costs little however large the graph.
    """
    found: Thresholds = {e: [] for e in graph.edges}
    succ: dict[int, list[tuple[int, list[int]]]] = {}
    for (head, tail), out in found.items():
        succ.setdefault(graph.ordinal(head), []).append((graph.ordinal(tail), out))
    for positions, count in units:
        for head, heads in positions.items():
            for tail, out in succ.get(head, ()):
                tails = positions.get(tail)
                if tails:
                    paired: list[int] = []
                    _thresholds(heads, tails, paired)
                    out.extend(paired * count)
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
    positions = instance_positions(graph, trace)
    return _by_message(graph, positions), supports_at(window_thresholds(graph, [(positions, 1)]), window)


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


def _cycle_groups(graph: CausalityGraph) -> list[list[Message]]:
    """Strongly connected components that actually contain a cycle."""
    order = sorted(graph.nodes, key=graph.ordinal)
    succ: dict[Message, list[Message]] = {m: [] for m in order}
    for head, tail in graph.edges:
        succ[head].append(tail)

    index: dict[Message, int] = {}
    low: dict[Message, int] = {}
    on_stack: set[Message] = set()
    stack: list[Message] = []
    groups: list[list[Message]] = []
    counter = 0

    def strongconnect(root: Message) -> None:
        nonlocal counter
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                if len(comp) > 1 or (comp[0], comp[0]) in graph.edges:
                    groups.append(sorted(comp, key=graph.ordinal))

    for m in order:
        if m not in index:
            strongconnect(m)
    groups.sort(key=lambda g: graph.ordinal(g[0]))
    return groups


def dump_graph(graph: CausalityGraph) -> dict:
    """JSON-ready snapshot, deterministically ordered.

    Cycles are legal in the structure; they are reported here so a
    reader can see them without re-deriving reachability.
    """
    order = sorted(graph.nodes, key=graph.ordinal)
    nodes = [
        {
            "index": graph.ordinal(m),
            "message": m.label(),
            "support": graph.nodes[m].support,
            "initial": graph.nodes[m].initial,
            "terminal": graph.nodes[m].terminal,
        }
        for m in order
    ]
    edges = [
        {
            "head": head.label(),
            "tail": tail.label(),
            "support": graph.edges[(head, tail)],
        }
        for head, tail in sorted(graph.edges, key=lambda e: (graph.ordinal(e[0]), graph.ordinal(e[1])))
    ]
    cycles = [[m.label() for m in group] for group in _cycle_groups(graph)]
    return {"nodes": nodes, "edges": edges, "cycles": cycles}
