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
in the flattened trace.  The matching is one stack pass per edge,
linear in the instances of its two messages, and its counts never
decrease as w grows (see _greedy_matches), which is what lets the
window search bisect instead of scanning every length.  Its input,
the instance positions that pair_instances collects per edge, does
not depend on w, so edge_supports can rerun the matching at many
lengths from one collection.

Instances are keyed by their attribute-free message.  Message
equality ignores attributes, so an attributed instance looks its node
up directly, and a message is stripped of its attributes once per
trace, not once per instance.
"""

from __future__ import annotations

import logging
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
    Per trace, one forward pass records each message's first and last
    event, and each component's first event as a destination and last
    event as a source; those decide both tests.
    """
    initial: dict[Message, bool] = {}
    terminal: dict[Message, bool] = {}
    for trace in traces:
        spans: dict[Message, list[int]] = {}
        first_dest: dict[str, int] = {}
        last_src: dict[str, int] = {}
        for e_idx, event in enumerate(trace.events):
            for m in event:
                span = spans.get(m)
                if span is None:
                    spans[m.plain()] = [e_idx, e_idx]
                else:
                    span[1] = e_idx
                first_dest.setdefault(m.dest, e_idx)
                last_src[m.src] = e_idx
        for m, (first, last) in spans.items():
            initial[m] = initial.get(m, True) and first_dest.get(m.src, first) >= first
            terminal[m] = terminal.get(m, True) and last_src.get(m.dest, last) <= last
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


def _greedy_matches(
    heads: list[tuple[int, int]], tails: list[tuple[int, int]], window: int | None
) -> int:
    """Size of the left-to-right nearest-unmatched pairing.

    heads/tails are (event index, flattened position) lists in trace
    order.  A pair needs the head in a strictly earlier event, and
    tail_pos <= head_pos + window + 1 when a window is set.

    One stack pass, O(H + T): before each tail, every head from a
    strictly earlier event is pushed, so the top of the stack is the
    nearest unmatched candidate.  If the top lies outside the window,
    every deeper head lies further back, and since later tails sit at
    later positions they stay out of reach for good: the stack is
    cleared.

    The same argument makes the count monotone in the window.  Both
    windows w < w' push the same heads, and by induction over the
    tails the stack held for w is always a suffix of the stack held
    for w': where w' clears, w clears too, and where w' pops, w pops
    the same top or clears.  A tail matched under w therefore finds
    the same top within reach under w', so edge supports never
    decrease as w grows.
    """
    stack: list[int] = []
    count = 0
    nxt = 0
    for t_event, t_pos in tails:
        while nxt < len(heads) and heads[nxt][0] < t_event:
            stack.append(heads[nxt][1])
            nxt += 1
        if not stack:
            continue
        if window is not None and t_pos > stack[-1] + window + 1:
            stack.clear()
        else:
            stack.pop()
            count += 1
    return count


Positions = dict[Message, list[tuple[int, int]]]


def instance_positions(graph: CausalityGraph, trace: Trace) -> Positions:
    """(event index, flattened position) of every instance, per node."""
    nodes = {m: m for m in graph.nodes}
    positions: Positions = {}
    for e_idx, pos, m in trace.flattened():
        key = nodes.get(m)
        if key is None:
            raise ValueError("message %s is not a graph node" % m.label())
        positions.setdefault(key, []).append((e_idx, pos))
    return positions


def node_deltas(graph: CausalityGraph, trace: Trace) -> Counter:
    """Per-node support contributions of one trace (no matching)."""
    return Counter({m: len(ps) for m, ps in instance_positions(graph, trace).items()})


EdgeInstances = dict[Edge, list[tuple[list[tuple[int, int]], list[tuple[int, int]]]]]


def pair_instances(graph: CausalityGraph, units: Iterable[Positions]) -> EdgeInstances:
    """Per edge, the (heads, tails) position lists of every unit that
    holds instances of both its messages.

    A unit is the instance_positions of one trace, or of one slice of
    a trace; matching never crosses units.  None of this depends on
    the window, so it can be kept and matched at many lengths.
    """
    pairs: EdgeInstances = {e: [] for e in graph.edges}
    for positions in units:
        for (head, tail), found in pairs.items():
            heads = positions.get(head)
            if heads:
                tails = positions.get(tail)
                if tails:
                    found.append((heads, tails))
    return pairs


def edge_supports(pairs: EdgeInstances, window: int | None) -> Counter:
    """Matched pairs per edge, summed over units; zero counts omitted."""
    supports: Counter = Counter()
    for edge, found in pairs.items():
        n = sum(_greedy_matches(heads, tails, window) for heads, tails in found)
        if n:
            supports[edge] = n
    return supports


def support_deltas(
    graph: CausalityGraph, trace: Trace, window: int | None = None
) -> tuple[Counter, Counter]:
    """Per-node and per-edge support contributions of one trace."""
    positions = instance_positions(graph, trace)
    node_delta = Counter({m: len(ps) for m, ps in positions.items()})
    return node_delta, edge_supports(pair_instances(graph, [positions]), window)


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
