"""The consistency problem as a transportation network: feasibility,
infeasibility witnesses and smallest models.

Feasibility
-----------
Each edge variable lies in exactly one out-balance (its head's) and
one in-balance (its tail's), so the system is a bipartite
transportation problem: source -> out-balance (capacity its total)
-> in-balance (capacity upper(e); 0 for a forbidden edge) -> sink
(capacity its total).  It is feasible iff the two sides' totals are
equal and the maximum flow saturates them.  When it does not, the
minimum cut names a Hall violation: out-balances whose total exceeds
what their in-balance neighbours can take from them (shortfall).

Smallest models
---------------
A model is the support of a solution, the edges it uses.
minimum_models finds every smallest support by branch and bound, in
one depth-first walk from the root flow, whose support is the first
incumbent.  A search node branches on the first edge in
ascending-upper order that its flow uses and that is still
undecided, excluding it first; the excluded child reroutes the
parent's flow around the edge, and the included child keeps the flow
as it is, so the first dive is a greedy drop pass.  One lower bound
prunes, the count bound: per balance, the included edges plus the
fewest others whose uppers reach its total, summed over the
out-balances, which partition the edges, and likewise over the
in-balances.  A node keeps each balance's term and both side sums,
so a child costs two terms, not a pass over every edge: it recomputes
only those of the out- and in-balance holding the edge it decides and
swaps them into its parent's sums.  The included child keeps its
parent's flow, whose support is already recorded, and branches on the
next edge that flow uses after the one decided; only the excluded
child, whose flow is rerouted, records a support and reads its flow
for the edges it uses.  A node whose bound exceeds the best size is
cut; until that size is proved, one whose bound equals it is set
aside.  When the stack empties no smaller support exists, and the
walk takes up the set-aside nodes, keeping ties, so it lists every
minimum and expands no node twice.  It stops after
SEARCH_NODE_BUDGET nodes, counted over both parts of the walk, and
then returns the smallest models found so far, named as a fallback.

The search keeps supports, not flows: a model's counts are one max
flow over just its edges, so they depend on the model alone, not on
the order the search visited nodes in.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress

from .solver import Balance, ConstraintProblem, Solution

SEARCH_NODE_BUDGET = 20_000  # branch-and-bound nodes before minimum_models falls back
_INFEASIBLE = math.inf


@dataclass(frozen=True)
class Shortfall:
    """Why a problem has no solution.

    kind "totals": the out-balances total need and the in-balances
    total capacity, and the two differ.  kind "hall": the out-balances
    of out_nodes need need in all, but the in-balances they have
    edges to (in_nodes) can take at most capacity from them, each
    counted at the smaller of its total and its edges' uppers.
    """

    kind: str
    need: int
    capacity: int
    out_nodes: tuple[str, ...] = ()
    in_nodes: tuple[str, ...] = ()

    @property
    def flows(self) -> int:
        """Max flows run to find it: none for "totals", which is
        checked before any flow."""
        return 0 if self.kind == "totals" else 1

    def describe(self) -> str:
        if self.kind == "totals":
            return "the out-balances total %d but the in-balances total %d" % (self.need, self.capacity)
        return "the out-balances of %s need %d, but their in-balance neighbours %s take at most %d" % (
            ", ".join(self.out_nodes), self.need, ", ".join(self.in_nodes) or "(none)", self.capacity)

    def to_json(self) -> dict:
        if self.kind == "totals":
            return {"out_total": self.need, "in_total": self.capacity}
        return {"out_balances": list(self.out_nodes), "need": self.need,
                "in_balances": list(self.in_nodes), "capacity": self.capacity}


class _Network:
    """A problem as a transportation network: edge e carries flow from
    out-balance head[e] to in-balance tail[e], at most cap[e]."""

    def __init__(self, problem: ConstraintProblem):
        self.outs = [b for b in problem.balances if b.side == "out"]
        self.ins = [b for b in problem.balances if b.side == "in"]
        self.head = self._ends(problem, self.outs)
        self.tail = self._ends(problem, self.ins)
        self.cap = list(problem.uppers)
        self.out_vars = [b.vars for b in self.outs]
        self.in_vars = [b.vars for b in self.ins]

    @staticmethod
    def _ends(problem: ConstraintProblem, side: list[Balance]) -> list[int]:
        ends = [-1] * len(problem.edges)
        for k, b in enumerate(side):
            for v in b.vars:
                if ends[v] >= 0:
                    raise ValueError("%s is in two %s-balances" % (problem.var_name(v), b.side))
                ends[v] = k
        if -1 in ends:
            raise ValueError("%s is in no balance of one side" % problem.var_name(ends.index(-1)))
        return ends

    def route(self, cap: list[int], flow: list[int], excess: list[int], deficit: list[int]) -> list[int] | None:
        """Push the out-balances' excess to the in-balances' deficits
        along shortest residual paths, updating flow, excess and deficit
        in place.  None once every excess is placed; otherwise the
        out-balances still reachable from the excess left over, which
        is the out side of a minimum cut."""
        head, tail, out_vars, in_vars = self.head, self.tail, self.out_vars, self.in_vars
        outs, ins = range(len(excess)), len(deficit)
        while True:
            queue = list(compress(outs, excess))
            if not queue:
                return None
            # the edge the search reached each out-balance by (-1: it
            # has excess, -2: not reached) and each in-balance by (-1:
            # not reached); queue lists the out-balances reached
            via_out, via_in = [-2] * len(outs), [-1] * ins
            for k in queue:
                via_out[k] = -1
            end = -1
            for k in queue:
                for e in out_vars[k]:
                    j = tail[e]
                    if via_in[j] >= 0 or flow[e] >= cap[e]:
                        continue
                    via_in[j] = e
                    if deficit[j]:
                        end = j
                        break
                    for back in in_vars[j]:
                        k2 = head[back]
                        if flow[back] and via_out[k2] == -2:
                            via_out[k2] = back
                            queue.append(k2)
                if end >= 0:
                    break
            if end < 0:
                return queue
            amount, j = deficit[end], end
            while True:
                e = via_in[j]
                if cap[e] - flow[e] < amount:
                    amount = cap[e] - flow[e]
                k = head[e]
                back = via_out[k]
                if back < 0:
                    if excess[k] < amount:
                        amount = excess[k]
                    break
                if flow[back] < amount:
                    amount = flow[back]
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

    def max_flow(self, cap: list[int] | None = None) -> tuple[list[int] | None, Shortfall | None]:
        """A saturating flow within cap (default: the problem's uppers),
        or None and the reason there is none."""
        cap = self.cap if cap is None else cap
        supply = [b.total for b in self.outs]
        demand = [b.total for b in self.ins]
        if sum(supply) != sum(demand):
            return None, Shortfall("totals", sum(supply), sum(demand))
        flow = [0] * len(cap)
        stuck = self.route(cap, flow, supply, demand)
        if stuck is None:
            return flow, None
        into: dict[int, int] = {}
        for k in stuck:
            for e in self.out_vars[k]:
                if cap[e]:
                    into[self.tail[e]] = into.get(self.tail[e], 0) + cap[e]
        return None, Shortfall(
            "hall",
            sum(self.outs[k].total for k in stuck),
            sum(min(self.ins[j].total, c) for j, c in into.items()),
            tuple(self.outs[k].node for k in sorted(stuck)),
            tuple(self.ins[j].node for j in sorted(into)),
        )


def max_flow(problem: ConstraintProblem) -> tuple[list[int] | None, Shortfall | None]:
    """A saturating flow, one value per edge, or None and why there is
    none.  One max flow, or none when the balance totals differ."""
    return _Network(problem).max_flow()


def shortfall(problem: ConstraintProblem) -> Shortfall | None:
    """None when the problem is feasible, else why not (see max_flow)."""
    return max_flow(problem)[1]


@dataclass(frozen=True)
class SearchStats:
    """What one minimum_models call did."""

    nodes: int  # branch-and-bound nodes visited, a set-aside node again when the listing takes it up
    bound_prunes: int  # nodes cut off for good by the count bound
    minima: int  # smallest supports found
    proof_nodes: int | None  # nodes visited when the walk emptied its stack, None if it never did
    all_listed: bool  # it walked the set-aside ties too: these are all the minima
    fallback: str | None  # "node-budget" when the walk stopped early
    flows: int  # max flows run: reroutes, one or more per listed support (its counts), and the root's if run here

    @property
    def size_proved(self) -> bool:
        """The walk emptied its stack: no smaller support exists."""
        return self.proof_nodes is not None

    def to_json(self) -> dict:
        return {"nodes": self.nodes, "bound_prunes": self.bound_prunes, "minima": self.minima,
                "size_proved": self.size_proved, "proof_nodes": self.proof_nodes, "all_listed": self.all_listed,
                "fallback": self.fallback}


class _BranchAndBound:
    """Every smallest support of one feasible network; see the module
    docstring.  A search node is (included, excluded, flow, pending,
    free, terms, outs, ins, bound): bit p of included (excluded) says
    edge order[p] is in (out); flow saturates the network without the
    excluded edges once pending, the edge just excluded, has been
    rerouted around (-1: the flow is its parent's, already recorded);
    free has bit p set when flow uses order[p] and leaves it
    undecided (a node with an edge pending sets it once it has
    rerouted); terms holds the count
    bound's term per balance, outs and ins their sums over the out-
    and the in-balances, and bound the larger sum.  A node branches on
    the first undecided edge in order that its flow uses; when there
    is none, the flow uses included edges only and no completion is
    smaller.  Its included child keeps the flow, so the edges it may
    branch on are its parent's but the one decided; its excluded child
    reroutes, and finds them from the new flow.  Every minimum support
    T is reached: the node that decides each branching edge as T does
    allows T, so its count bound does not exceed |T|."""

    def __init__(self, net: _Network):
        self.net = net
        self.order = sorted((e for e, c in enumerate(net.cap) if c), key=self._order_key)
        self.split = len(net.outs)
        # per edge, the bit of its position in order (0 for an edge of
        # upper 0, which has none); per position in order, the out- and
        # in-balance holding its edge; per balance, its total and (bit,
        # upper) of its edges in order, which is ascending upper
        self.bits = [0] * len(net.cap)
        self.holders = [(net.head[e], self.split + net.tail[e]) for e in self.order]
        self.balances = [(b.total, []) for b in net.outs + net.ins]
        for p, (e, pair) in enumerate(zip(self.order, self.holders)):
            self.bits[e] = 1 << p
            for k in pair:
                self.balances[k][1].append((1 << p, net.cap[e]))
        self.unmet = len(self.order) + 1  # a term above every support's size
        self.best = _INFEASIBLE
        self.found: set[tuple[int, ...]] = set()
        self.nodes = self.prunes = self.flows = 0

    def _order_key(self, e: int) -> tuple[int, int]:
        """Ascending upper, then edge number."""
        return self.net.cap[e], e

    def run(self, flow: list[int], budget: int) -> tuple[list[list[int]], SearchStats]:
        """The walk of the module docstring from flow, within budget
        nodes; it takes up the set-aside nodes in the order it set them
        aside.  Each listed support's counts, and what the search did.
        A child costs two terms, swapped into its parent's side sums;
        only an excluded child, whose flow is new, pays a reroute and a
        pass over its flow."""
        holders, order, term = self.holders, self.order, self._term
        free = self._record(flow)
        terms = array("I", (term(k, 0, 0) for k in range(len(self.balances))))
        outs, ins = sum(terms[:self.split]), sum(terms[self.split:])
        stack, aside, proof_nodes = [(0, 0, flow, -1, free, terms, outs, ins, max(outs, ins))], [], None
        while stack or proof_nodes is None:
            if not stack:
                stack, proof_nodes = aside[::-1], self.nodes
                continue
            if self.nodes == budget:
                break
            included, excluded, flow, pending, free, terms, outs, ins, bound = node = self._pop(stack)
            if bound > self.best:
                self.prunes += 1
                continue
            if bound == self.best and proof_nodes is None:
                aside.append(node)
                continue
            if pending >= 0:
                flow = self._without(flow, pending, excluded)
                if flow is None:
                    continue
                free = self._record(flow) & ~included
            bit = self._branch(free)
            if not bit:
                continue
            p = bit.bit_length() - 1
            k_out, k_in = holders[p]
            was_out, was_in = terms[k_out], terms[k_in]
            for child_in, child_ex, child_pending in ((included | bit, excluded, -1),
                                                      (included, excluded | bit, order[p])):
                now_out, now_in = term(k_out, child_in, child_ex), term(k_in, child_in, child_ex)
                child = array("I", terms)
                child[k_out], child[k_in] = now_out, now_in
                child_outs, child_ins = outs - was_out + now_out, ins - was_in + now_in
                stack.append((child_in, child_ex, flow, child_pending, free ^ bit, child,
                              child_outs, child_ins, child_outs if child_outs > child_ins else child_ins))
        all_listed = proof_nodes is not None and not stack
        minima = self._counts()
        return minima, SearchStats(self.nodes, self.prunes, len(minima), proof_nodes, all_listed,
                                   None if all_listed else "node-budget", self.flows)

    def _counts(self) -> list[list[int]]:
        """Per listed support, one max flow over just its edges, routed
        in the network's fixed order, so the counts depend on the
        support alone.  A minimum support's flow uses each of its edges,
        or a smaller support would exist.  After a fallback a listed
        support need not be minimal: while its flow leaves an edge
        unused, the edges it uses are routed instead, and only the
        smallest supports are kept."""
        own = {}
        for support in self.found:
            used = set(support)
            while True:
                self.flows += 1
                flow = self.net.max_flow([c if e in used else 0 for e, c in enumerate(self.net.cap)])[0]
                if all(flow[e] for e in used):
                    break
                used = {e for e in used if flow[e]}
            own[tuple(e for e, v in enumerate(flow) if v)] = flow
        size = min(map(len, own))
        return [flow for support, flow in own.items() if len(support) == size]

    def _pop(self, stack: list[tuple]) -> tuple:
        """The next node off stack, counted."""
        self.nodes += 1
        return stack.pop()

    @staticmethod
    def _branch(free: int) -> int:
        """The bit of the first position in free, or 0: the edge an
        expanded node branches on."""
        return free & -free

    def _record(self, flow: list[int]) -> int:
        """Keep flow's support if no larger support has been kept; the
        bits of the positions in order of the edges flow uses."""
        support = tuple(compress(range(len(flow)), flow))
        if len(support) < self.best:
            self.best, self.found = len(support), set()
        if len(support) == self.best:
            self.found.add(support)
        return sum(compress(self.bits, flow))

    def _without(self, flow: list[int], e: int, excluded: int) -> list[int] | None:
        """flow rerouted around edge e, one of the excluded edges, each
        of which gets capacity 0."""
        self.flows += 1
        net = self.net
        cap = list(net.cap)
        # bin's digits after "0b", reversed, are excluded's bits 0, 1, ...
        for edge, out in zip(self.order, bin(excluded)[:1:-1]):
            if out == "1":
                cap[edge] = 0
        flow = list(flow)
        excess, deficit = [0] * len(net.outs), [0] * len(net.ins)
        excess[net.head[e]] = deficit[net.tail[e]] = flow[e]
        flow[e] = 0
        return flow if net.route(cap, flow, excess, deficit) is None else None

    def _term(self, k: int, included: int, excluded: int) -> int:
        """Balance k's count-bound term: its included edges plus the
        fewest undecided ones whose uppers cover what they leave of its
        total, or self.unmet when the undecided ones fall short."""
        total, members = self.balances[k]
        need, spare, edges = total, [], 0
        for bit, upper in members:
            if included & bit:
                need -= upper
                edges += 1
            elif not excluded & bit:
                spare.append(upper)
        while need > 0:
            if not spare:
                return self.unmet
            need -= spare.pop()
            edges += 1
        return edges


def minimum_models(
    problem: ConstraintProblem, flow: list[int] | None = None
) -> tuple[list[Solution], SearchStats] | Shortfall:
    """Every smallest model, ranked by Solution.rank_key, its counts
    one max flow over just its edges.  The search starts from flow, a
    saturating flow of the problem that the caller already has (one
    from max_flow), or else from a root max flow of its own.  When the
    search passes SEARCH_NODE_BUDGET nodes, the smallest models found
    so far, with stats naming the fallback.  When the problem is
    infeasible, the root max flow's Shortfall instead."""
    net = _Network(problem)
    search = _BranchAndBound(net)
    if flow is None:
        search.flows += 1
        flow, short = net.max_flow()
        if flow is None:
            return short
    minima, stats = search.run(flow, SEARCH_NODE_BUDGET)
    ranked = sorted((Solution(problem, tuple(values)) for values in minima), key=Solution.rank_key)
    return ranked, stats
