"""The consistency problem as a transportation network: feasibility,
infeasibility witnesses and smallest models.

Feasibility
-----------
Each edge variable lies in exactly one out-balance (its head's) and
one in-balance (its tail's), so the system is a bipartite
transportation problem: source -> out-balance (capacity its total)
-> in-balance (capacity upper(e), 0 if pinned) -> sink (capacity its
total).  It is feasible iff the two sides' totals are equal and the
maximum flow saturates them.  When it does not, the minimum cut names
a Hall violation: out-balances whose total exceeds what their
in-balance neighbours can take from them (shortfall).

Smallest models
---------------
A model is the support of a solution, the edges it uses.
minimum_models finds every smallest support by branch and bound.
The incumbent comes from one greedy pass that drops, in
ascending-upper order, each edge the flow can do without.  A search
node branches on the first edge in ascending-upper order that its
flow uses and that is still undecided, excluding it first; the
excluded child reroutes the parent's flow around the edge, and the
included child keeps the flow as it is.  One lower bound prunes, the
count bound: per balance, the included edges plus the fewest others
whose uppers reach its total, summed over the out-balances, which
partition the edges, and likewise over the in-balances.  A first
pass prunes ties to prove the smallest size quickly; a second keeps
them (it prunes only on ">") and so lists every minimum.  The search
stops after SEARCH_NODE_BUDGET nodes, counted over both passes, and
then returns the smallest models found so far, named as a fallback.

The search keeps supports, not flows: a model's counts are one max
flow over just its edges, so they depend on the model alone, not on
the order the search visited nodes in.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

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
        m = len(problem.edges)
        self.outs = [b for b in problem.balances if b.side == "out"]
        self.ins = [b for b in problem.balances if b.side == "in"]
        self.head = self._ends(problem, self.outs)
        self.tail = self._ends(problem, self.ins)
        self.cap = [problem.effective_upper(i) for i in range(m)]

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
        head, tail, outs, ins = self.head, self.tail, self.outs, self.ins
        while True:
            via_out = {k: -1 for k, x in enumerate(excess) if x}
            if not via_out:
                return None
            via_in: dict[int, int] = {}
            queue = deque(via_out)
            end = -1
            while queue and end < 0:
                k = queue.popleft()
                for e in outs[k].vars:
                    j = tail[e]
                    if j in via_in or flow[e] >= cap[e]:
                        continue
                    via_in[j] = e
                    if deficit[j]:
                        end = j
                        break
                    for back in ins[j].vars:
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
            for e in self.outs[k].vars:
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

    nodes: int  # branch-and-bound nodes visited
    bound_prunes: int  # nodes cut off by the count bound
    minima: int  # smallest supports found
    size_proved: bool  # the tie-pruning pass finished: no smaller support exists
    all_listed: bool  # the tie-keeping pass finished too: these are all the minima
    fallback: str | None  # "node-budget" when either pass stopped early
    flows: int  # max flows run: reroutes, one per listed support (its counts), and the root's if run here

    def to_json(self) -> dict:
        return {"nodes": self.nodes, "bound_prunes": self.bound_prunes, "minima": self.minima,
                "size_proved": self.size_proved, "all_listed": self.all_listed, "fallback": self.fallback}


class _BranchAndBound:
    """Every smallest support of one feasible network; see the module
    docstring.  A search node is (included, excluded, flow, pending):
    bit p of included (excluded) says edge order[p] is in (out), and
    flow saturates the network without the excluded edges once
    pending, the edge just excluded, has been rerouted around (-1:
    nothing to reroute).  A node branches on the first undecided edge
    in order that its flow uses; when there is none, the flow uses
    included edges only and no completion is smaller.  Every minimum
    support T is reached: the node that decides each branching edge
    as T does allows T, so its count bound does not exceed |T|."""

    def __init__(self, net: _Network):
        self.net = net
        self.order = sorted((e for e, c in enumerate(net.cap) if c), key=self._order_key)
        # per balance: its total, and (position in order, upper) of its
        # edges in order, which is ascending upper
        self.sides = []
        for side, ends in ((net.outs, net.head), (net.ins, net.tail)):
            members: list[list[tuple[int, int]]] = [[] for _ in side]
            for p, e in enumerate(self.order):
                members[ends[e]].append((p, net.cap[e]))
            self.sides.append([(b.total, ms) for b, ms in zip(side, members)])
        self.best = _INFEASIBLE
        self.found: set[tuple[int, ...]] = set()
        self.nodes = self.prunes = self.flows = 0

    def _order_key(self, e: int) -> tuple[int, int]:
        """Ascending upper, then edge number."""
        return self.net.cap[e], e

    def run(self, flow: list[int], budget: int) -> tuple[list[list[int]], SearchStats]:
        """Prove the smallest size first, pruning ties, then list every
        support of that size, keeping ties; budget caps both passes.
        Each listed support's counts, and what the search did."""
        self._greedy(flow)
        size_proved = self._search(flow, budget, 1)
        all_listed = size_proved and self._search(flow, budget, 0)
        minima = self._counts()
        return minima, SearchStats(self.nodes, self.prunes, len(minima), size_proved, all_listed,
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

    def _search(self, root: list[int], budget: int, ties: int) -> bool:
        """One depth-first pass, pruning nodes whose count bound exceeds
        the best size less ties.  False when the budget ran out first."""
        stack = [(0, 0, root, -1)]
        while stack:
            if self.nodes == budget:
                return False
            self.nodes += 1
            included, excluded, flow, pending = stack.pop()
            if self._count_bound(included, excluded) > self.best - ties:
                self.prunes += 1
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
            stack.append((included | bit, excluded, flow, -1))
            stack.append((included, excluded | bit, flow, self.order[branch]))
        return True

    def _branch(self, decided: int, flow: list[int]) -> int:
        """Position of the first undecided edge that flow uses, or -1."""
        return next((p for p, e in enumerate(self.order) if flow[e] and not decided >> p & 1), -1)

    def _greedy(self, flow: list[int]) -> None:
        """The incumbent: drop each edge, in order, that the flow can do without."""
        cap = list(self.net.cap)
        for e in self.order:
            upper, cap[e] = cap[e], 0
            if flow[e]:
                rerouted = self._without(flow, e, cap)
                if rerouted is None:
                    cap[e] = upper
                else:
                    flow = rerouted
        self._record(flow)

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
        """flow rerouted around edge e, whose capacity in cap is 0."""
        self.flows += 1
        net = self.net
        flow = list(flow)
        excess, deficit = [0] * len(net.outs), [0] * len(net.ins)
        excess[net.head[e]] = deficit[net.tail[e]] = flow[e]
        flow[e] = 0
        return flow if net.route(cap, flow, excess, deficit) is None else None

    def _count_bound(self, included: int, excluded: int) -> float:
        """Per balance, its included edges plus the fewest undecided
        ones whose uppers cover what they leave of its total, summed
        over one side (the out-balances partition the edges, and so
        do the in-balances); the larger side's sum."""
        bound = 0
        for side in self.sides:
            edges = 0
            for total, members in side:
                need, spare = total, []
                for p, upper in members:
                    if included >> p & 1:
                        need -= upper
                        edges += 1
                    elif not excluded >> p & 1:
                        spare.append(upper)
                while need > 0:
                    if not spare:
                        return _INFEASIBLE
                    need -= spare.pop()
                    edges += 1
            bound = max(bound, edges)
        return bound


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
