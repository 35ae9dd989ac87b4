"""Support-consistency constraints over an annotated graph, and
exact solvers for them.

This module builds the problem and holds the oracle solvers; the
search that mine runs (max-flow feasibility, infeasibility witnesses,
smallest models) is in flowmine.transport.

Model
-----
One variable c_e per graph edge e = (head, tail), meaning how many
tail instances were really triggered by head instances.

  * 0 <= c_e <= support(e)
  * for each node n with outgoing edges: sum of c_e over them equals
    support(n); same for incoming edges.

A node side without any edges gets no constraint (logged and listed
in ConstraintProblem.skipped, since for an interior node that usually
means the trace set is too thin).
Edges with support 0 stay as variables pinned to that bound.

Infeasibility is an answer, not an error: it says the observed
supports admit no explanation, e.g. because a window is too tight.

Oracles
-------
solve, solutions and enumerate_solutions are an interval-propagation
depth-first search over values.  They accept any balances, and tests
check the transport search against them; the brute-force walk of the
bound box that checks them in turn lives with the tests.  The search
branches on the variable with the smallest remaining domain
(lowest edge index on ties), values tried from the upper end downward,
so its solution stream is deterministic and distinct by construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterable, Iterator

from .causality import CausalityGraph, Edge
from .trace import Message

log = logging.getLogger(__name__)

Assignment = tuple[int, ...]


@dataclass(frozen=True)
class Balance:
    """sum(vars) == total, bookkeeping which node side it came from."""

    node: str
    side: str  # "out" or "in"
    total: int
    vars: tuple[int, ...]


@dataclass(frozen=True)
class ConstraintProblem:
    edges: tuple[Edge, ...]
    ordinals: tuple[tuple[int, int], ...]  # (head, tail) node numbers per edge
    uppers: tuple[int, ...]
    balances: tuple[Balance, ...]
    pinned: frozenset[int] = frozenset()
    skipped: tuple[tuple[str, str], ...] = ()  # (node, side) of each balance left out for want of edges
    _index: dict[Edge, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self._index:
            self._index.update({e: i for i, e in enumerate(self.edges)})

    def var_name(self, i: int) -> str:
        return "c_%d_%d" % self.ordinals[i]

    def index_of(self, edge: Edge) -> int:
        try:
            return self._index[edge]
        except KeyError:
            raise ValueError("edge %s -> %s is not in the problem" % (edge[0].label(), edge[1].label())) from None

    def effective_upper(self, i: int) -> int:
        return 0 if i in self.pinned else self.uppers[i]


@dataclass(frozen=True)
class Solution:
    problem: ConstraintProblem
    values: Assignment

    @property
    def size(self) -> int:
        return sum(1 for v in self.values if v > 0)

    def value(self, edge: Edge) -> int:
        return self.values[self.problem.index_of(edge)]

    def items(self) -> Iterator[tuple[Edge, int]]:
        return iter(zip(self.problem.edges, self.values))

    def nonzero_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e, v in self.items() if v > 0)

    def rank_key(self):
        """(size, minus the total upper over the support, sorted support
        edge numbers): among equal sizes, the model with the most
        edge evidence first, then a deterministic tie-break."""
        support = [i for i, v in enumerate(self.values) if v > 0]
        return (
            len(support),
            -sum(self.problem.uppers[i] for i in support),
            tuple(sorted(self.problem.ordinals[i] for i in support)),
        )


def build_constraints(graph: CausalityGraph) -> ConstraintProblem:
    order = sorted(graph.nodes, key=graph.ordinal)
    edges = tuple(sorted(graph.edges, key=lambda e: (graph.ordinal(e[0]), graph.ordinal(e[1]))))
    ordinals = tuple((graph.ordinal(h), graph.ordinal(t)) for h, t in edges)
    uppers = tuple(graph.edges[e] for e in edges)
    out_vars: dict[Message, list[int]] = {node: [] for node in order}
    in_vars: dict[Message, list[int]] = {node: [] for node in order}
    for i, (head, tail) in enumerate(edges):
        out_vars[head].append(i)
        in_vars[tail].append(i)

    balances = []
    skipped = []
    for node in order:
        stats = graph.nodes[node]
        if out_vars[node]:
            balances.append(Balance(node.label(), "out", stats.support, tuple(out_vars[node])))
        elif not stats.terminal:
            log.warning("node %s has no outgoing edges; out-balance skipped", node.label())
            skipped.append((node.label(), "out"))
        if in_vars[node]:
            balances.append(Balance(node.label(), "in", stats.support, tuple(in_vars[node])))
        elif not stats.initial:
            log.warning("node %s has no incoming edges; in-balance skipped", node.label())
            skipped.append((node.label(), "in"))
    return ConstraintProblem(
        edges=edges, ordinals=ordinals, uppers=uppers, balances=tuple(balances), skipped=tuple(skipped)
    )


def pin_zero(problem: ConstraintProblem, edge: Edge) -> ConstraintProblem:
    """A copy of the problem with one edge forced to zero."""
    i = problem.index_of(edge)
    return replace(problem, pinned=problem.pinned | {i}, _index=problem._index)


def _propagate(domains: list[tuple[int, int]], balances: tuple[Balance, ...]) -> bool:
    """Tighten interval domains to a fixpoint; False on contradiction."""
    changed = True
    while changed:
        changed = False
        for b in balances:
            lo_sum = sum(domains[v][0] for v in b.vars)
            hi_sum = sum(domains[v][1] for v in b.vars)
            if lo_sum > b.total or hi_sum < b.total:
                return False
            for v in b.vars:
                lo, hi = domains[v]
                new_lo = max(lo, b.total - (hi_sum - hi))
                new_hi = min(hi, b.total - (lo_sum - lo))
                if new_lo > new_hi:
                    return False
                if (new_lo, new_hi) != (lo, hi):
                    domains[v] = (new_lo, new_hi)
                    changed = True
    return True


def _leaves(domains: list[tuple[int, int]], balances: tuple[Balance, ...]) -> Iterator[Assignment]:
    """Depth-first over the search tree, without recursion.

    frames holds, per level, the propagated parent domains, the
    branching variable, and the values still to try on it.
    """
    frames: list[tuple[list[tuple[int, int]], int, Iterator[int]]] = []
    node = domains
    while True:
        if _propagate(node, balances):
            open_vars = [i for i, (lo, hi) in enumerate(node) if lo < hi]
            if not open_vars:
                yield tuple(lo for lo, _ in node)
            else:
                var = min(open_vars, key=lambda i: node[i][1] - node[i][0])
                lo, hi = node[var]
                frames.append((node, var, iter(range(hi, lo - 1, -1))))
        while frames:
            parent, var, values = frames[-1]
            value = next(values, None)
            if value is not None:
                node = list(parent)
                node[var] = (value, value)
                break
            frames.pop()
        else:
            return


def solutions(problem: ConstraintProblem) -> Iterator[Solution]:
    """All solutions, distinct and deterministically ordered."""
    domains = [(0, problem.effective_upper(i)) for i in range(len(problem.edges))]
    for assignment in _leaves(domains, problem.balances):
        yield Solution(problem, assignment)


def solve(problem: ConstraintProblem) -> Solution | None:
    """First solution in the deterministic order, or None if infeasible."""
    return next(solutions(problem), None)


def enumerate_solutions(problem: ConstraintProblem, limit: int | None = None) -> list[Solution]:
    """Up to limit distinct solutions (all of them when limit is None)."""
    stream = solutions(problem)
    return list(stream if limit is None else islice(stream, limit))


def export_smtlib(problem: ConstraintProblem) -> str:
    """QF_LIA script equivalent to the problem, for external checking."""
    lines = [
        "; support consistency constraints",
        "(set-option :produce-models true)",
        "(set-logic QF_LIA)",
    ]
    names = [problem.var_name(i) for i in range(len(problem.edges))]
    for name in names:
        lines.append("(declare-const %s Int)" % name)
    for i, name in enumerate(names):
        lines.append("(assert (and (<= 0 %s) (<= %s %d)))" % (name, name, problem.uppers[i]))
    for i in sorted(problem.pinned):
        lines.append("(assert (= %s 0))" % names[i])
    for b in problem.balances:
        term = names[b.vars[0]] if len(b.vars) == 1 else "(+ %s)" % " ".join(names[v] for v in b.vars)
        lines.append("(assert (= %s %d)) ; %s %s" % (term, b.total, b.node, b.side))
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def check_solution(problem: ConstraintProblem, values: Iterable[int]) -> bool:
    """Does an assignment satisfy bounds, pins, and balances?"""
    vals = tuple(values)
    if len(vals) != len(problem.edges):
        return False
    for i, v in enumerate(vals):
        if v < 0 or v > problem.effective_upper(i):
            return False
    return all(sum(vals[v] for v in b.vars) == b.total for b in problem.balances)
