"""Independent oracles used by the tests.

Everything here is deliberately written from the definitions, not by
calling the production code, so agreement is meaningful.  The
exceptions are simulate, which records the generator's own schedule per
instance, so that tests can check a generated trace against it, and
reference_minimum_models, which takes the network's shape from
transport._Network and ranks with Solution.rank_key, so that only the
walk is compared.
"""

from __future__ import annotations

import contextlib
import functools
import math
import random
import re
import sys
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import product

from flowmine import (
    GenConfig,
    Message,
    ParseError,
    Trace,
    build_constraints,
    build_graph,
    causal,
    detect_entries_exits,
    solve,
    trace_of,
    unique_messages,
)
from flowmine.extract import annotated_graph
from flowmine.flows import _interleave, _trace
from flowmine.solver import Solution
from flowmine.transport import SearchStats, _Network


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
            firsts.setdefault(m, e)
        for msg, first_e in firsts.items():
            ok = not any(
                e < first_e and causal(other, msg) for e, _, other in flat
            )
            verdict[msg] = verdict.get(msg, True) and ok
    return {m for m, ok in verdict.items() if ok}


def naive_terminals(traces) -> set:
    verdict: dict[Message, bool] = {}
    for trace in traces:
        flat = list(trace.flattened())
        lasts: dict[Message, int] = {}
        for e, _, m in flat:
            lasts[m] = e
        for msg, last_e in lasts.items():
            ok = not any(
                e > last_e and causal(msg, other) for e, _, other in flat
            )
            verdict[msg] = verdict.get(msg, True) and ok
    return {m for m, ok in verdict.items() if ok}


def naive_cycle_groups(n: int, edges) -> list[list[int]]:
    """Groups of nodes 0..n-1 that lie on a common cycle, from the
    transitive closure of the (i, j) edges: i and j share a group when
    each reaches the other, and i is on a cycle when it reaches itself.
    Members in index order, groups ordered by their first member."""
    reach = [[False] * n for _ in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    groups: list[list[int]] = []
    for i in range(n):
        if reach[i][i] and not any(i in g for g in groups):
            groups.append([j for j in range(n) if reach[i][j] and reach[j][i]])
    return groups


BRUTE_FORCE_CAP = 10_000_000


def brute_force_solutions(problem, cap: int = BRUTE_FORCE_CAP) -> list[tuple[int, ...]]:
    """Check every assignment in the bound box, in lexicographic
    order.

    Refuses to run when the box holds more than cap points.
    """
    ranges = [range(upper + 1) for upper in problem.uppers]
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


def count_bound(problem, order, included: int, excluded: int) -> float:
    """A branch-and-bound node's count bound, from scratch: per
    balance, its included edges plus the fewest undecided ones whose
    uppers cover what they leave of its total, summed over each side;
    the larger sum, or inf when some balance's undecided edges fall
    short.  Bit p of included (excluded) decides edge order[p]; order
    holds every edge with a nonzero upper."""
    position = {e: p for p, e in enumerate(order)}
    sums = {"out": 0, "in": 0}
    for b in problem.balances:
        need, spare = b.total, []
        for v in b.vars:
            if not problem.uppers[v]:
                continue
            if included >> position[v] & 1:
                need -= problem.uppers[v]
                sums[b.side] += 1
            elif not excluded >> position[v] & 1:
                spare.append(problem.uppers[v])
        spare.sort()
        while need > 0:
            if not spare:
                return math.inf
            need -= spare.pop()
            sums[b.side] += 1
    return max(sums.values())


def reference_route(net, cap: list[int], flow: list[int], excess: list[int], deficit: list[int]) -> list[int] | None:
    """_Network.route as first written, with dicts of the balances
    reached and a deque for the search: the same shortest residual
    paths, in the same order, so the same flows."""
    head, tail, out_vars, in_vars = net.head, net.tail, net.out_vars, net.in_vars
    while True:
        via_out = {k: -1 for k, x in enumerate(excess) if x}
        if not via_out:
            return None
        via_in: dict[int, int] = {}
        queue = deque(via_out)
        end = -1
        while queue and end < 0:
            k = queue.popleft()
            for e in out_vars[k]:
                j = tail[e]
                if j in via_in or flow[e] >= cap[e]:
                    continue
                via_in[j] = e
                if deficit[j]:
                    end = j
                    break
                for back in in_vars[j]:
                    k2 = head[back]
                    if flow[back] and k2 not in via_out:
                        via_out[k2] = back
                        queue.append(k2)
        if end < 0:
            return list(via_out)
        amount, j = deficit[end], end
        while True:
            e = via_in[j]
            amount = min(amount, cap[e] - flow[e])
            back = via_out[head[e]]
            if back < 0:
                amount = min(amount, excess[head[e]])
                break
            amount = min(amount, flow[back])
            j = tail[back]
        deficit[end] -= amount
        j = end
        while True:
            e = via_in[j]
            flow[e] += amount
            back = via_out[head[e]]
            if back < 0:
                excess[head[e]] -= amount
                break
            flow[back] -= amount
            j = tail[back]


def _reference_max_flow(net, cap: list[int]) -> list[int] | None:
    supply, demand = [b.total for b in net.outs], [b.total for b in net.ins]
    flow = [0] * len(cap)
    return flow if sum(supply) == sum(demand) and reference_route(net, cap, flow, supply, demand) is None else None


class _ReferenceWalk:
    """transport._BranchAndBound's walk as first written, where every
    node pays for every edge: a child copies its parent's terms and sums
    both sides again, every expanded node records its flow and scans
    the edge order from the start, and every reroute builds its
    capacities by a pass over the order.  A node is (included,
    excluded, flow, pending, terms, bound), as in that class."""

    def __init__(self, net):
        self.net = net
        self.order = sorted((e for e, c in enumerate(net.cap) if c), key=lambda e: (net.cap[e], e))
        self.split = len(net.outs)
        self.holders = [(net.head[e], self.split + net.tail[e]) for e in self.order]
        self.balances = [(b.total, []) for b in net.outs + net.ins]
        for p, (e, pair) in enumerate(zip(self.order, self.holders)):
            for k in pair:
                self.balances[k][1].append((p, net.cap[e]))
        self.unmet = len(self.order) + 1
        self.best = math.inf
        self.found: set[tuple[int, ...]] = set()
        self.nodes = self.prunes = self.flows = 0

    def run(self, flow: list[int], budget: int):
        self._record(flow)
        terms = array("I", (self._term(k, 0, 0) for k in range(len(self.balances))))
        stack, aside, proof_nodes = [(0, 0, flow, -1, terms, self._bound(terms))], [], None
        while stack or proof_nodes is None:
            if not stack:
                stack, proof_nodes = aside[::-1], self.nodes
                continue
            if self.nodes == budget:
                break
            self.nodes += 1
            included, excluded, flow, pending, terms, bound = node = stack.pop()
            if bound > self.best:
                self.prunes += 1
                continue
            if bound == self.best and proof_nodes is None:
                aside.append(node)
                continue
            if pending >= 0:
                flow = self._without(flow, pending, self._caps(excluded))
                if flow is None:
                    continue
            self._record(flow)
            branch = self._branch(included | excluded, flow)
            if branch < 0:
                continue
            bit = 1 << branch
            stack.append(self._child(terms, branch, included | bit, excluded, flow, -1))
            stack.append(self._child(terms, branch, included, excluded | bit, flow, self.order[branch]))
        all_listed = proof_nodes is not None and not stack
        minima = self._counts()
        return minima, SearchStats(self.nodes, self.prunes, len(minima), proof_nodes, all_listed,
                                   None if all_listed else "node-budget", self.flows)

    def _counts(self) -> list[list[int]]:
        own = {}
        for support in self.found:
            used = set(support)
            while True:
                self.flows += 1
                flow = _reference_max_flow(self.net, [c if e in used else 0 for e, c in enumerate(self.net.cap)])
                if all(flow[e] for e in used):
                    break
                used = {e for e in used if flow[e]}
            own[tuple(e for e, v in enumerate(flow) if v)] = flow
        size = min(map(len, own))
        return [flow for support, flow in own.items() if len(support) == size]

    def _child(self, terms: array, p: int, included: int, excluded: int, flow: list[int], pending: int) -> tuple:
        terms = array("I", terms)
        for k in self.holders[p]:
            terms[k] = self._term(k, included, excluded)
        return included, excluded, flow, pending, terms, self._bound(terms)

    def _bound(self, terms: array) -> int:
        return max(sum(terms[:self.split]), sum(terms[self.split:]))

    def _branch(self, decided: int, flow: list[int]) -> int:
        return next((p for p, e in enumerate(self.order) if flow[e] and not decided >> p & 1), -1)

    def _record(self, flow: list[int]) -> None:
        support = tuple(e for e, v in enumerate(flow) if v)
        if len(support) < self.best:
            self.best, self.found = len(support), set()
        if len(support) == self.best:
            self.found.add(support)

    def _caps(self, excluded: int) -> list[int]:
        cap = list(self.net.cap)
        for p, e in enumerate(self.order):
            if excluded >> p & 1:
                cap[e] = 0
        return cap

    def _without(self, flow: list[int], e: int, cap: list[int]) -> list[int] | None:
        self.flows += 1
        net = self.net
        flow = list(flow)
        excess, deficit = [0] * len(net.outs), [0] * len(net.ins)
        excess[net.head[e]] = deficit[net.tail[e]] = flow[e]
        flow[e] = 0
        return flow if reference_route(net, cap, flow, excess, deficit) is None else None

    def _term(self, k: int, included: int, excluded: int) -> int:
        total, members = self.balances[k]
        need, spare, edges = total, [], 0
        for p, upper in members:
            if included >> p & 1:
                need -= upper
                edges += 1
            elif not excluded >> p & 1:
                spare.append(upper)
        while need > 0:
            if not spare:
                return self.unmet
            need -= spare.pop()
            edges += 1
        return edges


def reference_minimum_models(problem, budget: int):
    """minimum_models(problem) with a node budget of budget, by the
    walk as first written: the ranked minima's values and the
    SearchStats, or None when the problem is infeasible."""
    net = _Network(problem)
    walk = _ReferenceWalk(net)
    walk.flows += 1
    flow = _reference_max_flow(net, list(net.cap))
    if flow is None:
        return None
    minima, stats = walk.run(flow, budget)
    ranked = sorted((Solution(problem, tuple(values)) for values in minima), key=Solution.rank_key)
    return [m.values for m in ranked], stats


def admits_single_zeroing(problem, solution) -> bool:
    """True if some feasible assignment uses a proper subset of the
    solution's non-zero edges: an edge could have been dropped without
    recruiting any new edge.  Checked by brute force."""
    support = {i for i, v in enumerate(solution.values) if v}
    for values in brute_force_solutions(problem):
        if {i for i, v in enumerate(values) if v} < support:
            return True
    return False


def random_problem(
    seed: int, max_edges: int = 8, max_support: int = 4, feasible: bool = False, events: tuple[int, int] = (4, 10)
):
    """Deterministic random consistency problem within the size caps,
    and with a solution when feasible is set, from a trace of one-message
    events, between events[0] and events[1] of them.

    Draws traces until one fits, so callers never see a rejection.
    Most draws fail on their edge count, which the unannotated graph
    already has, so that is checked before annotating."""
    rng = random.Random(seed)
    msgs = [Message(s, d, c) for s in "abc" for d in "abc" for c in "xy"]
    fewest, most = events
    while True:
        drawn = [trace_of(*[[rng.choice(msgs)] for _ in range(rng.randrange(fewest, most + 1))])]
        edges = len(build_graph(unique_messages(drawn), *detect_entries_exits(drawn)).edges)
        if not edges or edges > max_edges:
            continue
        problem = build_constraints(annotated_graph(drawn))
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
    for (e_idx, _, m), attrs in zip(trace.flattened(), trace.attrs, strict=True):
        if attrs and attribute in attrs:
            value = attrs[attribute]
            key = ("key", value if block is None else value // block)
        elif missing == "drop":
            continue
        else:
            key = ("solo", len(keyed))
        keyed.setdefault(key, {}).setdefault(e_idx, []).append((m, attrs))
    return [attributed(*events.values()) for events in keyed.values()]


def attributed(*events) -> Trace:
    """trace_of over events of (message, attribute mapping or None)
    pairs."""
    events = [list(event) for event in events]
    return trace_of(*([m for m, _ in event] for event in events), attrs=[a for event in events for _, a in event])


def naive_positions(trace: Trace, ordinal) -> tuple[dict, list[int]]:
    """The flattened position of every instance, keyed by
    ordinal(message), and per position the first position of its
    event."""
    positions: dict = {}
    first: dict = {}
    starts: list[int] = []
    for e_idx, pos, m in trace.flattened():
        positions.setdefault(ordinal(m), []).append(pos)
        starts.append(first.setdefault(e_idx, pos))
    return positions, starts


def reference_parse_token(token: str, lineno: int) -> tuple[Message, dict | None]:
    """One trace token without a table, parsed as the grammar reads:
    the triple first, then its key=value attributes in order, then
    the attribute names (a bad name raises a ValueError, no line).
    The message and its attributes, None for none."""
    if token.isdecimal():
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
    for key in attrs:
        if not re.fullmatch(r"[^\s:;,={}()#]+", key):
            raise ValueError("attribute name %r contains reserved characters" % key)
    return msg, attrs or None


def reference_parse_trace(text: str, table=None) -> list[list[tuple[Message, dict | None]]]:
    """Trace text as events of (message, attributes or None) pairs, one
    token at a time: index tokens through the table, the rest through
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
                if token.isdecimal() and table is not None:
                    event.append((table.message_at(int(token)), None))
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


def reference_exhaustive(fsa, trace: Trace, table=None) -> int:
    """The largest accepted count over every choice per message, each
    event's messages taken in the canonical order reference_greedy
    uses: open a fresh instance (a transition from the initial state
    exists), advance any one active instance, or reject.  Active
    instances are kept as a sorted tuple of their states, and results
    are cached by (position, active states); exponential without the
    cache, so for traces of a few messages."""
    key = table.index_of if table is not None else Message.triple
    msgs = [m for event in trace.events for m in sorted(event, key=key)]

    @functools.cache
    def best(pos: int, active: tuple) -> int:
        if pos == len(msgs):
            return 0
        m = msgs[pos]
        results = [best(pos + 1, active)]  # rejected
        opened = fsa.step(fsa.initial, m)
        if opened is not None:
            grown = active if opened == fsa.initial else tuple(sorted(active + (opened,)))
            results.append(1 + best(pos + 1, grown))
        for j, state in enumerate(active):
            nxt = fsa.step(state, m)
            if nxt is not None:
                others = active[:j] + active[j + 1 :]
                moved = others if nxt == fsa.initial else tuple(sorted(others + (nxt,)))
                results.append(1 + best(pos + 1, moved))
        return max(results)

    return best(0, ())


def instance_pair_counts(instances, edges) -> Counter:
    """Expected per-edge supports when pairing is confined to one flow
    instance: nearest-match within each instance's own sequence."""
    total: Counter = Counter()
    for inst in instances:
        mini = trace_of(*[[m] for _, m in inst.emissions])
        for head, tail in edges:
            n = naive_edge_support(mini, head, tail, None)
            if n:
                total[(head, tail)] += n
    return total


@dataclass(frozen=True)
class InstanceTrace:
    """What one flow instance emitted, in order, and per emission its
    attributes (None for none)."""

    instance_id: int
    flow: str
    branch: int
    emissions: tuple[tuple[int, Message], ...]  # (event index, message)
    attrs: tuple[dict | None, ...]


@dataclass(frozen=True)
class SimResult:
    trace: Trace
    instances: tuple[InstanceTrace, ...]


def simulate(spec, cfg: GenConfig = GenConfig()) -> SimResult:
    """generate(spec, cfg)'s trace, and which instance emitted what,
    with the trace's attributes."""
    schedule = _interleave(spec, cfg)
    trace = _trace(schedule, cfg.tag)
    emissions: list[list[tuple[int, Message]]] = [[] for _ in schedule.picks]
    stamps: list[list] = [[] for _ in schedule.picks]
    for e_idx, mid, i, attrs in zip(trace.event_of, trace.ids, schedule.owner, trace.attrs):
        emissions[i].append((e_idx, trace.alphabet[mid]))
        stamps[i].append(attrs)
    instances = tuple(
        InstanceTrace(i, flow, branch, tuple(emitted), tuple(stamped))
        for i, ((flow, branch), emitted, stamped) in enumerate(zip(schedule.picks, emissions, stamps))
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
    stamps: list = field(default_factory=list)


def reference_simulate(spec, cfg: GenConfig) -> SimResult:
    """simulate as first written: every round rescans every
    unfinished instance and keeps a gap counter per instance, so it is
    quadratic in the instance count.  Same rounds, same draws."""
    rng = random.Random(cfg.seed)
    alphabet: dict = {}
    coded = [
        [tuple((alphabet.setdefault(m, len(alphabet)), m) for m in branch) for branch in flow.branches]
        for flow in spec.flows
    ]
    live = []
    for flow, branches in zip(spec.flows, coded):
        for _ in range(cfg.count_for(flow)):
            branch = rng.randrange(len(flow.branches))
            live.append(_RefLive(len(live), flow.name, branch, list(branches[branch])))
    events, attrs = [], []
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
        row = []
        for i in emitters:
            inst = live[i]
            mid, msg = inst.pending.pop(0)
            stamp = None if cfg.tag is None else {cfg.tag: inst.instance_id}
            row.append(mid)
            attrs.append(stamp)
            inst.emitted.append((e_idx, msg))
            inst.stamps.append(stamp)
            inst.started = True
            inst.gap = 0
            if not inst.pending:
                remaining.discard(i)
        events.append(tuple(row))
        for i in remaining:
            if live[i].started and i not in emitters:
                live[i].gap += len(emitters)
    instances = tuple(
        InstanceTrace(inst.instance_id, inst.flow, inst.branch, tuple(inst.emitted), tuple(inst.stamps)) for inst in live
    )
    return SimResult(Trace.of_events(tuple(alphabet), events, tuple(attrs)), instances)


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
