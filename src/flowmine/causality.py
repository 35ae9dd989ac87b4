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
window search bisect instead of scanning every length.

Instances are keyed by their attribute-free message.  Message
equality ignores attributes, so an attributed instance looks its node
up directly, and a message is stripped of its attributes once per
trace, not once per instance.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .trace import Message, MessageTable, Trace

log = logging.getLogger(__name__)

Edge = tuple[Message, Message]


def causal(m1: Message, m2: Message) -> bool:
    """True when m1 can have triggered m2."""
    return m1.dest == m2.src


def detect_initials(traces: Sequence[Trace]) -> set[Message]:
    """Messages whose first instance never has an earlier trigger.

    A message qualifies only if the test holds in every trace that
    contains it.  The scan runs forward; members of one event see
    only strictly earlier events.
    """
    verdict: dict[Message, bool] = {}
    for trace in traces:
        dests_seen: set[str] = set()
        per_trace: dict[Message, bool] = {}
        for event in trace.events:
            for m in event:
                if m not in per_trace:
                    per_trace[m.plain()] = m.src not in dests_seen
            for m in event:
                dests_seen.add(m.dest)
        for key, ok in per_trace.items():
            verdict[key] = verdict.get(key, True) and ok
    return {m for m, ok in verdict.items() if ok}


def detect_terminals(traces: Sequence[Trace]) -> set[Message]:
    """Mirror of detect_initials: last instance, backward scan."""
    verdict: dict[Message, bool] = {}
    for trace in traces:
        srcs_seen: set[str] = set()
        per_trace: dict[Message, bool] = {}
        for event in reversed(trace.events):
            for m in event:
                if m not in per_trace:
                    per_trace[m.plain()] = m.dest not in srcs_seen
            for m in event:
                srcs_seen.add(m.src)
        for key, ok in per_trace.items():
            verdict[key] = verdict.get(key, True) and ok
    return {m for m, ok in verdict.items() if ok}


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

    def initial_messages(self) -> set[Message]:
        return {m for m, st in self.nodes.items() if st.initial}

    def terminal_messages(self) -> set[Message]:
        return {m for m, st in self.nodes.items() if st.terminal}


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


def _positions(graph: CausalityGraph, trace: Trace) -> dict[Message, list[tuple[int, int]]]:
    """(event index, flattened position) of every instance, per node."""
    nodes = {m: m for m in graph.nodes}
    positions: dict[Message, list[tuple[int, int]]] = {}
    for e_idx, pos, m in trace.flattened():
        key = nodes.get(m)
        if key is None:
            raise ValueError("message %s is not a graph node" % m.label())
        positions.setdefault(key, []).append((e_idx, pos))
    return positions


def node_deltas(graph: CausalityGraph, trace: Trace) -> Counter:
    """Per-node support contributions of one trace (no matching)."""
    return Counter({m: len(ps) for m, ps in _positions(graph, trace).items()})


def support_deltas(
    graph: CausalityGraph, trace: Trace, window: int | None = None
) -> tuple[Counter, Counter]:
    """Per-node and per-edge support contributions of one trace."""
    positions = _positions(graph, trace)
    node_delta = Counter({m: len(ps) for m, ps in positions.items()})
    edge_delta: Counter = Counter()
    for head, tail in graph.edges:
        heads = positions.get(head)
        tails = positions.get(tail)
        if heads and tails:
            n = _greedy_matches(heads, tails, window)
            if n:
                edge_delta[(head, tail)] = n
    return node_delta, edge_delta


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
