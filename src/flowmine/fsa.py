"""Finite-state acceptors over messages, and trace evaluation.

A model is a deterministic partial FSA whose alphabet is the set of
distinct messages.  q0 is both the start state and the only accepting
state; one round trip from q0 back to q0 spells one flow instance.

Evaluation replays a trace against the model: a message either opens
a fresh instance (a q0 transition exists for it), advances one active
instance, or is rejected.  The acceptance ratio, accepted messages
over all messages, says how much of the trace the model explains.
Which active instance absorbs a message is ambiguous, so strategies
differ: oldest-first and newest-first resolve greedily, exhaustive
searches instance choices and same-event orderings for the maximum
number of accepted messages under a node budget.
"""

from __future__ import annotations

import json
import logging
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .causality import CausalityGraph
from .solver import Solution
from .trace import Message, MessageTable, Trace

log = logging.getLogger(__name__)

START = "q0"
STRATEGIES = ("oldest-first", "newest-first", "exhaustive")


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
        seen = sorted({m.plain() for _, m in self.transitions}, key=Message.triple)
        return tuple(seen)

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
    for m in sorted(graph.nodes, key=graph.ordinal):
        stats = graph.nodes[m]
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

    @property
    def ratio(self) -> float:
        return self.accepted / self.total


def _canonical(event: Iterable[Message], table: MessageTable | None) -> list[Message]:
    if table is not None:
        return sorted(event, key=table.index_of)
    return sorted(event, key=Message.triple)


def _greedy(fsa: FSA, trace: Trace, newest: bool, table: MessageTable | None, name: str) -> AcceptanceReport:
    active: list[tuple[int, str]] = []  # (spawn order, state), oldest first
    seq = 0
    accepted = 0
    rejected: list[tuple[int, Message]] = []
    for e_idx, event in enumerate(trace.events):
        for m in _canonical(event, table):
            opened = fsa.step(fsa.initial, m)
            if opened is not None:
                accepted += 1
                if opened != fsa.initial:
                    active.append((seq, opened))
                    seq += 1
                continue
            slots = [i for i, (_, st) in enumerate(active) if fsa.step(st, m) is not None]
            if not slots:
                rejected.append((e_idx, m))
                continue
            i = slots[-1] if newest else slots[0]
            nxt = fsa.step(active[i][1], m)
            accepted += 1
            if nxt == fsa.initial:
                active.pop(i)
            else:
                active[i] = (active[i][0], nxt)
    return AcceptanceReport(accepted, trace.msg_count, tuple(rejected), name)


class _BudgetExceeded(Exception):
    pass


def _exhaustive(fsa: FSA, trace: Trace, budget: int, table: MessageTable | None) -> AcceptanceReport:
    """Maximize accepted messages over instance choices, same-event
    orderings, and deliberate rejections.

    Maximizing acceptance is minimizing rejections, so the search
    deepens iteratively on the reject count: a depth-first pass asks
    "does a completion with at most R rejects exist?" for R = 0, 1,
    2, ...  Dead (position, remaining messages, active states) keys
    remember the largest reject allowance they failed under, which
    carries pruning across rounds.  The node budget spans all rounds;
    beyond it the oldest-first result is returned, marked as a
    fallback.  The search recurses once per message, so a trace
    longer than the recursion limit allows falls back the same way.
    """
    events = [tuple(_canonical(e, table)) for e in trace.events]
    delta = fsa.transitions
    initial = fsa.initial
    failed: dict[tuple, int] = {}
    nodes = 0
    path: list[tuple[int, Message, str, str | None]] = []

    def dfs(e_idx: int, rest: tuple[Message, ...], states: tuple[str, ...], r_left: int) -> bool:
        nonlocal nodes
        if not rest:
            if e_idx + 1 == len(events):
                return True
            e_idx, rest = e_idx + 1, events[e_idx + 1]
        key = (e_idx, rest, states)
        if failed.get(key, -1) >= r_left:
            return False
        nodes += 1
        if nodes > budget:
            raise _BudgetExceeded
        tried: set[tuple[str, str, str]] = set()
        for k, m in enumerate(rest):
            if m.triple() in tried:
                continue
            tried.add(m.triple())
            tail = rest[:k] + rest[k + 1 :]
            opened = delta.get((initial, m))
            if opened is not None:
                ns = states if opened == initial else tuple(sorted(states + (opened,)))
                path.append((e_idx, m, "open", None))
                if dfs(e_idx, tail, ns, r_left):
                    return True
                path.pop()
            for st in dict.fromkeys(states):
                moved = delta.get((st, m))
                if moved is None:
                    continue
                pool = list(states)
                pool.remove(st)
                if moved != initial:
                    pool.append(moved)
                path.append((e_idx, m, "advance", st))
                if dfs(e_idx, tail, tuple(sorted(pool)), r_left):
                    return True
                path.pop()
            if r_left > 0:
                path.append((e_idx, m, "reject", None))
                if dfs(e_idx, tail, states, r_left - 1):
                    return True
                path.pop()
        failed[key] = max(failed.get(key, -1), r_left)
        return False

    total = trace.msg_count
    try:
        for allowance in range(total + 1):
            path.clear()
            if dfs(0, events[0], (), allowance):
                rejected = tuple((e, m) for e, m, action, _ in path if action == "reject")
                return AcceptanceReport(total - len(rejected), total, rejected, "exhaustive")
    except _BudgetExceeded:
        log.warning("exhaustive evaluation hit the %d node budget; using oldest-first", budget)
    except RecursionError:
        log.warning(
            "exhaustive evaluation of %d messages hit the recursion limit (%d); using oldest-first",
            total,
            sys.getrecursionlimit(),
        )
    report = _greedy(fsa, trace, newest=False, table=table, name="exhaustive")
    return replace(report, fallback="oldest-first")


def acceptance_ratio(
    fsa: FSA,
    trace: Trace,
    strategy: str = "oldest-first",
    budget: int = 100_000,
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


def fsa_to_json(fsa: FSA) -> str:
    obj = {
        "states": list(fsa.states),
        "initial": fsa.initial,
        "transitions": [
            {"from": src, "msg": {"src": m.src, "dest": m.dest, "cmd": m.cmd}, "to": dst}
            for src, m, dst in _sorted_transitions(fsa)
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def fsa_from_json(text: str) -> FSA:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError("model is not valid JSON: %s" % exc) from None
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
        if (src, msg) in transitions:
            raise ValueError("nondeterministic on %s from %s" % (msg.label(), src))
        transitions[(src, msg)] = dst
    fsa = FSA(states=tuple(states), transitions=transitions, initial=initial)
    _warn_disconnected(fsa)
    return fsa


def _warn_disconnected(fsa: FSA) -> None:
    forward: dict[str, set[str]] = {}
    backward: dict[str, set[str]] = {}
    for (src, _), dst in fsa.transitions.items():
        forward.setdefault(src, set()).add(dst)
        backward.setdefault(dst, set()).add(src)

    def closure(start: str, succ: dict[str, set[str]]) -> set[str]:
        seen, frontier = {start}, [start]
        while frontier:
            for nxt in succ.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

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
