"""Independent oracles used by the tests.

Everything here is deliberately written from the definitions, not by
calling the production code, so agreement is meaningful.  The one
exception is simulate, which records the generator's own schedule per
instance, so that tests can check a generated trace against it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from flowmine import GenConfig, Message, ParseError, Trace, build_constraints, causal, solve, trace_of
from flowmine.extract import annotated_graph
from flowmine.flows import _interleave, _trace


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Set the recursion limit to the current stack depth plus frames
    while the block runs, and yield it, so that a small input suffices
    to go deeper than the limit."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield depth + frames
    finally:
        sys.setrecursionlimit(saved)


def naive_edge_support(trace: Trace, head: Message, tail: Message, window: int | None) -> int:
    """Quadratic matcher: scan tail instances in order, each takes the
    nearest strictly-earlier unmatched head instance within the window."""
    flat = list(trace.flattened())
    heads = [(e, p) for e, p, m in flat if m == head]
    tails = [(e, p) for e, p, m in flat if m == tail]
    used = set()
    count = 0
    for te, tp in tails:
        best = None
        for he, hp in heads:
            if he >= te or (he, hp) in used:
                continue
            if window is not None and tp > hp + window + 1:
                continue
            if best is None or hp > best[1]:
                best = (he, hp)
        if best is not None:
            used.add(best)
            count += 1
    return count


def naive_initials(traces) -> set:
    """A message starts a flow if, in every trace where it occurs, its
    first instance has no causal predecessor in a strictly earlier event."""
    verdict: dict[Message, bool] = {}
    for trace in traces:
        flat = list(trace.flattened())
        firsts: dict[Message, int] = {}
        for e, _, m in flat:
            firsts.setdefault(m.plain(), e)
        for msg, first_e in firsts.items():
            ok = not any(
                e < first_e and causal(other.plain(), msg) for e, _, other in flat
            )
            verdict[msg] = verdict.get(msg, True) and ok
    return {m for m, ok in verdict.items() if ok}


def naive_terminals(traces) -> set:
    verdict: dict[Message, bool] = {}
    for trace in traces:
        flat = list(trace.flattened())
        lasts: dict[Message, int] = {}
        for e, _, m in flat:
            lasts[m.plain()] = e
        for msg, last_e in lasts.items():
            ok = not any(
                e > last_e and causal(msg, other.plain()) for e, _, other in flat
            )
            verdict[msg] = verdict.get(msg, True) and ok
    return {m for m, ok in verdict.items() if ok}


BRUTE_FORCE_CAP = 10_000_000


def brute_force_solutions(problem, cap: int = BRUTE_FORCE_CAP) -> list[tuple[int, ...]]:
    """Check every assignment in the bound box, in lexicographic
    order.

    Refuses to run when the box holds more than cap points.
    """
    ranges = [range(problem.effective_upper(i) + 1) for i in range(len(problem.edges))]
    total = math.prod(map(len, ranges))
    if total > cap:
        raise ValueError("assignment space %d exceeds cap %d" % (total, cap))
    return [
        values
        for values in product(*ranges)
        if all(sum(values[v] for v in b.vars) == b.total for b in problem.balances)
    ]


def brute_minimum_size(problem) -> int | None:
    """Smallest non-zero count over every assignment within bounds
    satisfying all balances.  None when infeasible."""
    return min((sum(1 for v in values if v) for values in brute_force_solutions(problem)), default=None)


def admits_single_zeroing(problem, solution) -> bool:
    """True if some feasible assignment uses a proper subset of the
    solution's non-zero edges: an edge could have been dropped without
    recruiting any new edge.  Checked by brute force."""
    support = {i for i, v in enumerate(solution.values) if v}
    for values in brute_force_solutions(problem):
        if {i for i, v in enumerate(values) if v} < support:
            return True
    return False


def random_problem(seed: int, max_edges: int = 8, max_support: int = 4, feasible: bool = False):
    """Deterministic random consistency problem within the size caps,
    and with a solution when feasible is set.

    Draws traces until one fits, so callers never see a rejection."""
    rng = random.Random(seed)
    msgs = [Message(s, d, c) for s in "abc" for d in "abc" for c in "xy"]
    while True:
        events = [[rng.choice(msgs)] for _ in range(rng.randrange(4, 11))]
        problem = build_constraints(annotated_graph([trace_of(*events)]))
        if not problem.edges or len(problem.edges) > max_edges:
            continue
        if any(u > max_support for u in problem.uppers):
            continue
        if any(b.total > max_support for b in problem.balances):
            continue
        if feasible and solve(problem) is None:
            continue
        return problem


def naive_slices(trace: Trace, attribute: str, missing: str = "isolate", block: int | None = None) -> list[Trace]:
    """Per value of the attribute (per block of values when block is
    set), the sub-trace of the messages that carry it, in event order;
    each message without it is a slice of its own, or is left out
    when missing is "drop"."""
    keyed: dict = {}
    for e_idx, event in enumerate(trace.events):
        for m in event:
            if attribute in m.attrs:
                value = m.attrs[attribute]
                key = ("key", value if block is None else value // block)
            elif missing == "drop":
                continue
            else:
                key = ("solo", len(keyed))
            keyed.setdefault(key, {}).setdefault(e_idx, []).append(m)
    return [trace_of(*events.values()) for events in keyed.values()]


def naive_positions(trace: Trace, ordinal) -> dict:
    """(event index, flattened position) of every instance, keyed by
    ordinal(message)."""
    positions: dict = {}
    for e_idx, pos, m in trace.flattened():
        positions.setdefault(ordinal(m), []).append((e_idx, pos))
    return positions


def reference_parse_token(token: str, lineno: int) -> Message:
    """One trace token without a table, parsed as the grammar reads:
    the triple first, then its key=value attributes in order, then
    the attribute names (a bad name raises a ValueError, no line)."""
    if token.isdigit():
        raise ParseError("index token %r needs a message table" % token, lineno)
    head, *pairs = token.split(";")
    parts = head.split(":")
    if len(parts) != 3 or not all(p.strip() for p in parts):
        raise ParseError("expected 'src:dest:cmd', got %r" % head, lineno)
    try:
        msg = Message(*(p.strip() for p in parts))
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    attrs: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ParseError("attribute %r is not key=value" % pair, lineno)
        key, value = pair.split("=", 1)
        if not key or not value:
            raise ParseError("attribute %r is not key=value" % pair, lineno)
        if re.fullmatch(r"-?\d+", value):
            attrs[key] = int(value)
        elif re.fullmatch(r"-?0[xX][0-9a-fA-F]+", value):
            attrs[key] = int(value, 16)
        else:
            attrs[key] = value
    return Message(msg.src, msg.dest, msg.cmd, attrs) if attrs else msg


def reference_parse_trace(text: str, table=None) -> list[list[Message]]:
    """Trace text as events of Message objects, one token at a time:
    index tokens through the table, the rest through
    reference_parse_token, with the line added to a bad attribute
    name's error."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [t for t in re.split(r"[\s{},]+", line) if t]
        if not tokens:
            raise ParseError("event line has no messages", lineno)
        event = []
        for token in tokens:
            try:
                if token.isdigit() and table is not None:
                    event.append(table.message_at(int(token)))
                else:
                    event.append(reference_parse_token(token, lineno))
            except ParseError:
                raise
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        events.append(event)
    if not events:
        raise ParseError("trace has no events")
    return events


def reference_greedy(fsa, trace: Trace, newest: bool, table=None) -> tuple[int, list]:
    """(accepted, rejected (event index, message) pairs) of the
    oldest- or newest-first replay, by a scan over every active
    instance in spawn order for each message."""
    active: list = []  # (spawn order, state), oldest first
    seq = 0
    accepted = 0
    rejected = []
    for e_idx, event in enumerate(trace.events):
        key = table.index_of if table is not None else Message.triple
        for m in sorted(event, key=key):
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
    return accepted, rejected


def reference_exhaustive(fsa, trace: Trace) -> int:
    """The largest accepted count over every order of each event's
    messages and every choice per message: open a fresh instance (a
    transition from the initial state exists), advance any one active
    instance, or reject.  Active instances are kept as a sorted tuple
    of their states, and results are cached by (event index, messages
    left in it, active states); exponential without the cache, so for
    traces of a few messages."""
    events = [tuple(event) for event in trace.events]

    @functools.cache
    def best(e_idx: int, pending: tuple, active: tuple) -> int:
        if not pending:
            return best(e_idx + 1, events[e_idx + 1], active) if e_idx + 1 < len(events) else 0
        results = []
        for i, m in enumerate(pending):
            left = pending[:i] + pending[i + 1 :]
            results.append(best(e_idx, left, active))  # rejected
            opened = fsa.step(fsa.initial, m)
            if opened is not None:
                grown = active if opened == fsa.initial else tuple(sorted(active + (opened,)))
                results.append(1 + best(e_idx, left, grown))
            for j, state in enumerate(active):
                nxt = fsa.step(state, m)
                if nxt is not None:
                    others = active[:j] + active[j + 1 :]
                    moved = others if nxt == fsa.initial else tuple(sorted(others + (nxt,)))
                    results.append(1 + best(e_idx, left, moved))
        return max(results)

    return best(0, events[0], ())


def instance_pair_counts(instances, edges) -> Counter:
    """Expected per-edge supports when pairing is confined to one flow
    instance: nearest-match within each instance's own sequence."""
    total: Counter = Counter()
    for inst in instances:
        seq = [m.plain() for _, m in inst.emissions]
        mini = trace_of(*[[m] for m in seq])
        for head, tail in edges:
            n = naive_edge_support(mini, head, tail, None)
            if n:
                total[(head, tail)] += n
    return total


@dataclass(frozen=True)
class InstanceTrace:
    """What one flow instance emitted, in order."""

    instance_id: int
    flow: str
    branch: int
    emissions: tuple[tuple[int, Message], ...]  # (event index, message)


@dataclass(frozen=True)
class SimResult:
    trace: Trace
    instances: tuple[InstanceTrace, ...]


def simulate(spec, cfg: GenConfig = GenConfig()) -> SimResult:
    """generate(spec, cfg)'s trace, and which instance emitted what:
    the instances' messages carry the trace's attributes."""
    schedule = _interleave(spec, cfg)
    trace = _trace(schedule, cfg.tag)
    emissions: list[list[tuple[int, Message]]] = [[] for _ in schedule.picks]
    for e_idx, mid, i, attrs in zip(trace.event_of, trace.ids, schedule.owner, trace.attrs):
        m = trace.alphabet[mid]
        emissions[i].append((e_idx, Message(m.src, m.dest, m.cmd, attrs) if attrs else m))
    instances = tuple(
        InstanceTrace(i, flow, branch, tuple(emitted))
        for i, ((flow, branch), emitted) in enumerate(zip(schedule.picks, emissions))
    )
    return SimResult(trace, instances)


@dataclass
class _RefLive:
    instance_id: int
    flow: str
    branch: int
    pending: list
    gap: int = 0
    started: bool = False
    emitted: list = field(default_factory=list)


def reference_simulate(spec, cfg: GenConfig) -> SimResult:
    """simulate as first written: every round rescans every
    unfinished instance and keeps a gap counter per instance, so it is
    quadratic in the instance count.  Same rounds, same draws."""
    rng = random.Random(cfg.seed)
    alphabet: dict = {}
    coded = [
        [tuple((alphabet.setdefault(m.plain(), len(alphabet)), m) for m in branch) for branch in flow.branches]
        for flow in spec.flows
    ]
    live = []
    for flow, branches in zip(spec.flows, coded):
        for _ in range(cfg.count_for(flow)):
            branch = rng.randrange(len(flow.branches))
            live.append(_RefLive(len(live), flow.name, branch, list(branches[branch])))
    event_of, ids, attrs = [], [], []
    e_idx = -1
    remaining = set(range(len(live)))

    def overrunners(size, members):
        return [
            i
            for i in sorted(remaining - members)
            if live[i].started and live[i].gap + size > cfg.max_gap
        ]

    while remaining:
        must: set = set()
        while True:
            more = overrunners(max(1, len(must)), must)
            if not more:
                break
            must.update(more)
        if must:
            emitters = sorted(must)
        else:
            pick = rng.choice(sorted(remaining))
            emitters = [pick]
            others = sorted(remaining - {pick})
            if others and rng.random() < cfg.simul_prob:
                partner = rng.choice(others)
                if not overrunners(2, {pick, partner}):
                    emitters = sorted((pick, partner))
        e_idx += 1
        for i in emitters:
            inst = live[i]
            mid, msg = inst.pending.pop(0)
            if cfg.tag is not None:
                msg = msg.with_attrs(**{cfg.tag: inst.instance_id})
            event_of.append(e_idx)
            ids.append(mid)
            attrs.append(msg.attrs or None)
            inst.emitted.append((e_idx, msg))
            inst.started = True
            inst.gap = 0
            if not inst.pending:
                remaining.discard(i)
        for i in remaining:
            if live[i].started and i not in emitters:
                live[i].gap += len(emitters)
    instances = tuple(
        InstanceTrace(inst.instance_id, inst.flow, inst.branch, tuple(inst.emitted)) for inst in live
    )
    return SimResult(Trace(tuple(alphabet), tuple(event_of), tuple(ids), tuple(attrs)), instances)


_DOT_EDGE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*->\s*"((?:[^"\\]|\\.)*)"\s*\[label="((?:[^"\\]|\\.)*)"\];$')
_DOT_NODE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"(?:\s*\[[^\]]*\])?;$')


def check_dot(text: str) -> tuple[set[str], list[tuple[str, str, str]]]:
    """Minimal DOT digraph checker: returns (nodes, edges) or raises."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines[0].startswith("digraph ") or not lines[0].rstrip().endswith("{"):
        raise AssertionError("missing digraph header: %r" % lines[0])
    if lines[-1].strip() != "}":
        raise AssertionError("missing closing brace")
    nodes: set[str] = set()
    edges: list[tuple[str, str, str]] = []
    for ln in lines[1:-1]:
        stripped = ln.strip()
        if stripped in ("rankdir=LR;", "node [shape=circle];"):
            continue
        m = _DOT_EDGE.match(ln)
        if m:
            edges.append((m.group(1), m.group(2), m.group(3)))
            continue
        m = _DOT_NODE.match(ln)
        if m:
            nodes.add(m.group(1))
            continue
        raise AssertionError("unparseable DOT line: %r" % ln)
    for a, b, _ in edges:
        nodes.add(a)
        nodes.add(b)
    return nodes, edges


_SMT_COMMANDS = {
    "set-option",
    "set-logic",
    "declare-const",
    "assert",
    "check-sat",
    "get-model",
}


def check_smtlib(text: str) -> list:
    """S-expression well-formedness check; every top-level form must
    open with a known command name.  Returns the parsed forms."""
    tokens = re.findall(r"\(|\)|[^\s()]+", re.sub(r";[^\n]*", "", text))
    forms = []
    stack = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise AssertionError("unbalanced ')'")
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                forms.append(done)
        else:
            if not stack:
                raise AssertionError("atom %r outside any form" % tok)
            stack[-1].append(tok)
    if stack:
        raise AssertionError("unbalanced '('")
    for form in forms:
        if not form or form[0] not in _SMT_COMMANDS:
            raise AssertionError("unknown top-level form: %r" % (form[:1] or ["<empty>"]))
    return forms
