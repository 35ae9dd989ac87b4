"""Finite-state acceptors over messages, and trace evaluation.

A model is a deterministic partial FSA whose alphabet is the set of
distinct messages.  q0 is both the start state and the only accepting
state; one round trip from q0 back to q0 spells one flow instance.

Evaluation replays a trace against the model: a message either opens
a fresh instance (a q0 transition exists for it), advances one active
instance, or is rejected.  The acceptance ratio, accepted messages
over all messages, says how much of the trace the model explains.
Every strategy replays the same sequence: trace order, with the
messages of one event in canonical order (table index with a table,
triple order without).  The sequence is built from the trace's
distinct event rows: each row is put in canonical order once, since a
trace repeats a small set of events, and each event's order is read
through its row number, so replay hashes no event and reads no
per-instance column.  The greedy replay walks the events and
knows each rejection's event index; the exhaustive search walks the
chained ids and finds it from the position.  Which active instance
absorbs a message is ambiguous, so strategies differ: oldest-first
and newest-first resolve greedily, exhaustive searches instance
choices and rejections for the maximum number of accepted messages
under a node budget, so it is never below either greedy result.  The
exhaustive search keeps its own stack, so a trace of any length is
searched; its one fallback, past the budget, is the oldest-first
result, and its report counts the nodes it visited.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_right, insort
from dataclasses import dataclass, replace
from itertools import accumulate, chain, count
from typing import Iterable, Iterator, Mapping

from .causality import CausalityGraph, adjacency, closure
from .solver import Solution
from .trace import Message, MessageTable, Trace

log = logging.getLogger(__name__)

START = "q0"
STRATEGIES = ("oldest-first", "newest-first", "exhaustive")
EXHAUSTIVE_BUDGET = 100_000  # search nodes before the exhaustive strategy falls back


@dataclass(frozen=True)
class FSA:
    """Deterministic partial acceptor; accepting set is {initial}."""

    states: tuple[str, ...]
    transitions: Mapping[tuple[str, Message], str]
    initial: str = START

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError("initial state %r is not a state" % self.initial)
        for (src, _msg), dst in self.transitions.items():
            if src not in self.states or dst not in self.states:
                raise ValueError("transition %s -> %s uses an unknown state" % (src, dst))

    def step(self, state: str, msg: Message) -> str | None:
        return self.transitions.get((state, msg))

    def alphabet(self) -> tuple[Message, ...]:
        return tuple(sorted({m for _, m in self.transitions}, key=Message.triple))

    def transition_pairs(self) -> Iterable[tuple[Message, Message]]:
        """All (m, m') with m entering some state q != initial and m'
        leaving q: the message sequences realizable back to back."""
        inbound: dict[str, set[Message]] = {}
        for (_, msg), dst in self.transitions.items():
            if dst != self.initial:
                inbound.setdefault(dst, set()).add(msg)
        for (src, msg2), _ in self.transitions.items():
            for msg1 in inbound.get(src, ()):
                yield msg1, msg2


def derive_fsa(solution: Solution, graph: CausalityGraph) -> FSA:
    """Turn a consistency solution into an acceptor.

    Non-terminal messages on non-zero edges get a state each; a
    non-zero edge (n, n') becomes a transition out of n's state on
    n', entering q0 when n' is terminal.  Initial messages enter from
    q0.  A message that is both initial and terminal (a one-message
    flow) appears only as a q0 self-transition.
    """
    nonzero = [e for e, v in solution.items() if v > 0]
    touched: set[Message] = set()
    for h, t in nonzero:
        touched.add(h)
        touched.add(t)

    def state_of(m: Message) -> str:
        return "q%d" % graph.ordinal(m)

    states = [START]
    transitions: dict[tuple[str, Message], str] = {}
    for m, stats in graph.nodes.items():
        if stats.initial and stats.terminal:
            if stats.support > 0:
                transitions[(START, m)] = START
            continue
        wanted = m in touched or (stats.initial and stats.support > 0)
        if wanted and not stats.terminal:
            states.append(state_of(m))
            if stats.initial:
                transitions[(START, m)] = state_of(m)
    for h, t in nonzero:
        target = START if graph.nodes[t].terminal else state_of(t)
        transitions[(state_of(h), t)] = target
    return FSA(states=tuple(states), transitions=transitions)


@dataclass(frozen=True)
class AcceptanceReport:
    accepted: int
    total: int
    rejected: tuple[tuple[int, Message], ...]  # (event index, message)
    strategy: str  # the strategy requested
    fallback: str | None = None  # the strategy that produced the result, when not the requested one
    nodes: int = 0  # search nodes the exhaustive strategy visited; 0 for the greedy ones

    @property
    def ratio(self) -> float:
        return self.accepted / self.total


def _rank_key(trace: Trace, table: MessageTable | None):
    """The sort key that puts the message ids of an event in canonical
    order: table index with a table (a used message outside the table,
    the first in order of first use, raises ValueError), triple order
    without; None when that is the order of the ids themselves, as it
    is for a trace parsed with the table."""
    alphabet = trace.alphabet
    used = dict.fromkeys(chain.from_iterable(trace.rows))
    if table is not None:
        rank = {mid: table.index_of(alphabet[mid]) for mid in used}
    else:
        rank = {mid: r for r, mid in enumerate(sorted(used, key=lambda m: alphabet[m].triple()))}
    ids = sorted(rank)
    return None if sorted(ids, key=rank.__getitem__) == ids else rank.__getitem__


def _canonical_events(trace: Trace, table: MessageTable | None) -> Iterator[list[int]]:
    """Each event's message ids in canonical order, in trace order.
    Each distinct row is put in order once."""
    key = _rank_key(trace, table)
    ordered = [sorted(row, key=key) for row in trace.rows]
    return map(ordered.__getitem__, trace.row_of)


def _rejections(trace: Trace, rejected: list[tuple[int, int]]) -> tuple[tuple[int, Message], ...]:
    """(event index, message) of each (instance position, message id)."""
    ends = list(accumulate(map(len, trace.event_ids))) if rejected else []
    return tuple((bisect_right(ends, pos), trace.alphabet[mid]) for pos, mid in rejected)


def _id_tables(fsa: FSA, trace: Trace) -> tuple[list[str | None], list[dict[str, str]]]:
    """Per message id of trace: the state a fresh instance enters on
    it (None without a transition from the initial state), and its
    transitions from every other state."""
    index = {m: mid for mid, m in enumerate(trace.alphabet)}
    opens: list[str | None] = [None] * len(trace.alphabet)
    moves: list[dict[str, str]] = [{} for _ in trace.alphabet]
    for (state, msg), target in fsa.transitions.items():
        mid = index.get(msg)
        if mid is None:
            continue
        if state == fsa.initial:
            opens[mid] = target
        else:
            moves[mid][state] = target
    return opens, moves


def _greedy(fsa: FSA, trace: Trace, newest: bool, table: MessageTable | None, name: str) -> AcceptanceReport:
    """Oldest- or newest-first replay.

    Active instances wait in one queue per state, as spawn numbers in
    ascending order.  Among the states with a transition on a
    message, the smallest queue head is the oldest active instance
    that can take it and the largest queue tail the newest, so the
    pick is the one a scan of every active instance in spawn order
    would make.  Per message id, the queue a fresh instance joins and
    the (source queue, target queue) pairs of its other transitions
    are resolved once, before the replay.

    The strategy is read once, as the queue end the replay takes
    from: end is 0, the head, for oldest-first and -1, the tail, for
    newest-first.  The loop walks each event's canonical tuple, so a
    rejection carries its event index as it is recorded.  A message
    with a transition from the initial state appends a fresh spawn
    number, the largest yet, to the queue it joins.  Any other
    message compares the ends of its candidate queues: spawn numbers
    are distinct, so (queue[end] > pick) is newest keeps the newer
    end for newest-first and the older for oldest-first.  The pick
    is deleted from its queue's end and inserted into its target
    queue; with no candidate, the message is rejected.  Accepted
    messages are counted once, as all but the rejected ones.
    """
    opens, moves = _id_tables(fsa, trace)
    queues: dict[str, list[int]] = {s: [] for s in fsa.states}
    closed: list[int] = []  # stands for the initial state, which keeps no queue
    queues[fsa.initial] = closed
    joins = [None if state is None else queues[state] for state in opens]
    steps = [tuple((queues[state], queues[target]) for state, target in by_state.items()) for by_state in moves]
    end = -1 if newest else 0
    seq = 0
    rejected: list[tuple[int, Message]] = []  # (event index, message)
    alphabet = trace.alphabet
    for e_idx, event in enumerate(_canonical_events(trace, table)):
        for mid in event:
            join = joins[mid]
            if join is not None:
                if join is not closed:
                    join.append(seq)
                    seq += 1
                continue
            source = None
            for queue, target in steps[mid]:
                if queue and (source is None or (queue[end] > pick) is newest):
                    source, pick, nxt = queue, queue[end], target
            if source is None:
                rejected.append((e_idx, alphabet[mid]))
                continue
            del source[end]
            if nxt is not closed:
                insort(nxt, pick)
    return AcceptanceReport(trace.msg_count - len(rejected), trace.msg_count, tuple(rejected), name)


def _exhaustive(fsa: FSA, trace: Trace, budget: int, table: MessageTable | None) -> AcceptanceReport:
    """Maximize accepted messages over instance choices and deliberate
    rejections, on the sequence the greedy strategies replay: trace
    order, each event's messages in canonical order.  The result is the
    optimum of what oldest- and newest-first approximate, so it is never
    below either of them.

    Maximizing acceptance is minimizing rejections, so the search
    deepens iteratively on the reject count: a depth-first pass asks
    "does a completion with at most R rejects exist?" for R = 0, 1,
    2, ...  At R = the message count, rejecting every message is a
    completion, so some round succeeds.  The pass keeps its own
    stack, one frame per open node: its (position, active states)
    key, its reject allowance, its untried choices, and the position
    it rejected, if any; so its depth is bounded by the trace length,
    not by the interpreter's recursion limit.  Dead keys remember the
    largest reject allowance they failed under, which carries pruning
    across rounds.  The node budget spans all rounds; beyond it the
    oldest-first result is returned, marked as a fallback, and either
    way the report counts the nodes visited.
    """
    ids = list(chain.from_iterable(_canonical_events(trace, table)))
    opens, moves = _id_tables(fsa, trace)
    initial = fsa.initial
    total = len(ids)

    def choices(pos: int, states: tuple[str, ...], r_left: int):
        """A node's children in search order: the message at pos
        opened, then advanced from each distinct state, then rejected.
        A child is (pos + 1, states, r_left, dropped), dropped being
        pos when the message is rejected."""
        m = ids[pos]
        opened = opens[m]
        if opened is not None:
            yield pos + 1, states if opened == initial else tuple(sorted(states + (opened,))), r_left, None
        for st in dict.fromkeys(states):
            moved = moves[m].get(st)
            if moved is None:
                continue
            pool = list(states)
            pool.remove(st)
            if moved != initial:
                pool.append(moved)
            yield pos + 1, tuple(sorted(pool)), r_left, None
        if r_left > 0:
            yield pos + 1, states, r_left - 1, pos

    failed: dict[tuple[int, tuple[str, ...]], int] = {}
    nodes = 0
    for allowance in count():
        stack: list[tuple[tuple[int, tuple[str, ...]], int, Iterator, int | None]] = []
        child = (0, (), allowance, None)
        while child is not None:
            pos, states, r_left, dropped = child
            if pos == total:
                drops = [frame[3] for frame in stack] + [dropped]
                rejected = _rejections(trace, [(p, ids[p]) for p in drops if p is not None])
                return AcceptanceReport(total - len(rejected), total, rejected, "exhaustive", nodes=nodes)
            key = (pos, states)
            if failed.get(key, -1) < r_left:
                nodes += 1
                if nodes > budget:
                    log.warning("exhaustive evaluation hit the %d node budget; using oldest-first", budget)
                    report = _greedy(fsa, trace, newest=False, table=table, name="exhaustive")
                    return replace(report, fallback="oldest-first", nodes=nodes)
                stack.append((key, r_left, choices(pos, states, r_left), dropped))
            child = None
            while stack and child is None:
                child = next(stack[-1][2], None)
                if child is None:
                    key, r_left, _, _ = stack.pop()
                    failed[key] = r_left


def acceptance_ratio(
    fsa: FSA,
    trace: Trace,
    strategy: str = "oldest-first",
    budget: int = EXHAUSTIVE_BUDGET,
    table: MessageTable | None = None,
) -> AcceptanceReport:
    """Replay a trace against a model. See the module docstring for
    the strategy semantics; the report carries the ratio and the
    rejected (event index, message) pairs."""
    if trace.msg_count == 0:
        raise ValueError("cannot evaluate an empty trace")
    if strategy == "oldest-first":
        return _greedy(fsa, trace, newest=False, table=table, name=strategy)
    if strategy == "newest-first":
        return _greedy(fsa, trace, newest=True, table=table, name=strategy)
    if strategy == "exhaustive":
        return _exhaustive(fsa, trace, budget, table)
    raise ValueError("unknown strategy %r" % (strategy,))


def _sorted_transitions(fsa: FSA) -> list[tuple[str, Message, str]]:
    rank = {s: i for i, s in enumerate(fsa.states)}
    items = [(src, msg, dst) for (src, msg), dst in fsa.transitions.items()]
    items.sort(key=lambda t: (rank[t[0]], t[1].triple()))
    return items


_QUOTE = json.encoder.encode_basestring_ascii  # the C escaper json.dumps quotes strings with


def json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\\n", character for
    character, for every file and report the CLI writes.

    With an indent, json.dumps runs the standard library's pure-Python
    encoder; this writer recurses on the value's type instead and
    quotes strings with the same C escaper.  It takes str, int, float,
    bool and None, lists and tuples, and dicts with str keys; any other
    key or value type raises TypeError.
    """
    parts: list[str] = []
    _json_into(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _json_into(obj, newline: str, parts: list[str]) -> None:
    """Append obj's text to parts; newline is the line break and
    indentation of obj's own level."""
    if isinstance(obj, str):
        parts.append(_QUOTE(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != obj:
            parts.append("NaN")
        elif obj in (math.inf, -math.inf):
            parts.append("Infinity" if obj > 0 else "-Infinity")
        else:
            parts.append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _json_into(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            parts.append(sep + _QUOTE(key) + ": ")
            _json_into(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def fsa_to_json(fsa: FSA) -> str:
    obj = {
        "states": list(fsa.states),
        "initial": fsa.initial,
        "transitions": [
            {"from": src, "msg": {"src": m.src, "dest": m.dest, "cmd": m.cmd}, "to": dst}
            for src, m, dst in _sorted_transitions(fsa)
        ],
    }
    return json_text(obj)


def fsa_from_json(text: str) -> FSA:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("model is not valid JSON: %s" % exc) from None
    except RecursionError:  # the decoder's own depth limit, not a fault of ours
        raise ValueError("model is not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("model JSON must be an object")
    states = obj.get("states")
    initial = obj.get("initial")
    rows = obj.get("transitions")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ValueError("states must be a list of strings")
    if len(set(states)) != len(states):
        raise ValueError("states contain duplicates")
    if not isinstance(initial, str):
        raise ValueError("initial must be a string")
    if not isinstance(rows, list):
        raise ValueError("transitions must be a list")
    transitions: dict[tuple[str, Message], str] = {}
    for row in rows:
        try:
            msg = Message(row["msg"]["src"], row["msg"]["dest"], row["msg"]["cmd"])
            src, dst = row["from"], row["to"]
        except (KeyError, TypeError) as exc:
            raise ValueError("malformed transition row: %s" % (row,)) from None
        if not isinstance(src, str) or not isinstance(dst, str):
            raise ValueError("malformed transition row: %s" % (row,))
        if (src, msg) in transitions:
            raise ValueError("nondeterministic on %s from %s" % (msg.label(), src))
        transitions[(src, msg)] = dst
    fsa = FSA(states=tuple(states), transitions=transitions, initial=initial)
    _warn_disconnected(fsa)
    return fsa


def _warn_disconnected(fsa: FSA) -> None:
    forward, backward = adjacency((src, dst) for (src, _), dst in fsa.transitions.items())
    reach = closure(fsa.initial, forward)
    coreach = closure(fsa.initial, backward)
    for s in fsa.states:
        if s not in reach:
            log.warning("state %s is unreachable from %s", s, fsa.initial)
        elif s not in coreach:
            log.warning("state %s cannot return to %s", s, fsa.initial)


def _dot_quote(text: str) -> str:
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(fsa: FSA, table: MessageTable | None = None) -> str:
    """Graphviz text for the model; q0 is drawn doubled."""

    def label(m: Message) -> str:
        if table is not None and m in table:
            return str(table.index_of(m))
        return m.label()

    lines = ["digraph model {", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append("  %s [shape=doublecircle];" % _dot_quote(fsa.initial))
    for s in fsa.states:
        if s != fsa.initial:
            lines.append("  %s;" % _dot_quote(s))
    for src, msg, dst in _sorted_transitions(fsa):
        lines.append(
            "  %s -> %s [label=%s];" % (_dot_quote(src), _dot_quote(dst), _dot_quote(label(msg)))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
