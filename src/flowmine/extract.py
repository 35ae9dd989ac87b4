"""Search for small models that explain an annotated graph.

A solution of the consistency problem is already a model candidate:
its non-zero edges say which triggering actually happened.  Smaller
candidates generalize better, so each enumerated solution is walked
downhill: repeatedly pin one of its non-zero edges to zero and
re-solve, until no single pin keeps the problem feasible.  The walk
follows one path (no backtracking over pin choices); if it strands
on a larger solution than it started from, the starting solution is
kept instead.  Walks from different seeds soon pin the same edge
sets, and a re-solve depends only on the set pinned, so the walks of
one extraction share their solves.  Candidates are ranked by size,
then by their sorted non-zero edge list, then by values, which makes
the choice of best model deterministic and independent of the order
in which seeds are walked.

Annotation likewise avoids repeated work: everything about a trace
set that does not depend on the window length (entry/exit detection,
graph structure, node supports, instance positions) is prepared once,
and only the pair matching is redone per window length.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

# annotate, annotate_sliced, detect_initials and detect_terminals are
# not called here; they stay importable from this module because
# perfbench/tracing.py wraps them under these names.
from .causality import (  # noqa: F401
    CausalityGraph,
    EdgeInstances,
    annotate,
    build_graph,
    detect_entries_exits,
    detect_initials,
    detect_terminals,
    edge_supports,
    instance_positions,
    pair_instances,
)
from .slicing import SlicePolicy, annotate_sliced, slice_positions  # noqa: F401
from .solver import ConstraintProblem, Solution, build_constraints, enumerate_solutions, pin_zero, solve
from .solver import log as solver_log
from .trace import MessageTable, Trace, unique_messages

log = logging.getLogger(__name__)

REDUCTION_ORDERS = ("ascending-support", "descending-support", "index")


class NoFeasibleWindowError(RuntimeError):
    """No window length up to the configured bound admits a solution."""


@dataclass(frozen=True)
class ExtractConfig:
    sz: int = 200  # solutions enumerated before reduction
    top: int = 20  # models reported
    reduction_order: str = "ascending-support"

    def __post_init__(self):
        if self.reduction_order not in REDUCTION_ORDERS:
            raise ValueError("unknown reduction order %r" % (self.reduction_order,))
        if self.sz < 1 or self.top < 1:
            raise ValueError("sz and top must be positive")


@dataclass(frozen=True)
class ExtractResult:
    best: Solution
    top: tuple[Solution, ...]
    pool: tuple[Solution, ...]  # all distinct reduced candidates, ranked
    windows_tried: int = 1  # window lengths annotated and solved to reach this result
    solves: int = 0  # solve calls run: one per window probe, one per distinct pinned edge set


def _pin_order(sol: Solution, order: str) -> list[int]:
    candidates = [i for i, v in enumerate(sol.values) if v > 0]
    if order == "ascending-support":
        candidates.sort(key=lambda i: (sol.problem.uppers[i], i))
    elif order == "descending-support":
        candidates.sort(key=lambda i: (-sol.problem.uppers[i], i))
    return candidates


def reduce_model(
    problem: ConstraintProblem,
    sol: Solution,
    order: str = "ascending-support",
    solved: dict[frozenset[int], Solution | None] | None = None,
) -> Solution:
    """Walk one pin-to-zero path down from sol.

    Each step pins the first non-zero edge (in the configured order)
    whose pin leaves the problem feasible, then continues from the
    new solution with the pin kept.  The walk ends when every single
    pin is infeasible.  Solutions along the way may grow (pins can
    force flow onto more edges); the result is never larger than the
    input, falling back to the input when the walk strands high.

    solved maps pinned edge sets of this problem to their solve
    results.  solve is deterministic, so walks that pass the
    same dict share their re-solves without changing their paths.
    """
    if order not in REDUCTION_ORDERS:
        raise ValueError("unknown reduction order %r" % (order,))
    if solved is None:
        solved = {}
    current_p, current_s = problem, sol
    while True:
        for i in _pin_order(current_s, order):
            pins = current_p.pinned | {i}
            if pins not in solved:
                solved[pins] = solve(pin_zero(current_p, current_p.edges[i]))
            nxt = solved[pins]
            if nxt is not None:
                current_p, current_s = nxt.problem, nxt
                break
        else:
            break
    if current_s.size > sol.size:
        log.debug("reduction stranded at size %d > %d; keeping the input", current_s.size, sol.size)
        return sol
    return current_s


def model_extract(problem: ConstraintProblem, cfg: ExtractConfig = ExtractConfig()) -> ExtractResult | None:
    """Enumerate, reduce, rank.  None when the problem is infeasible."""
    seeds = enumerate_solutions(problem, cfg.sz)
    if not seeds:
        return None
    solved: dict[frozenset[int], Solution | None] = {}
    distinct: dict[tuple[int, ...], Solution] = {}
    for s in seeds:
        reduced = reduce_model(problem, s, cfg.reduction_order, solved)
        distinct.setdefault(reduced.values, reduced)
    ranked = sorted(distinct.values(), key=Solution.rank_key)
    return ExtractResult(best=ranked[0], top=tuple(ranked[: cfg.top]), pool=tuple(ranked), solves=len(solved))


@dataclass(frozen=True)
class PreparedAnnotation:
    """The part of annotating a trace set that no window length changes.

    graph has the final structure and node supports, and zero edge
    supports; pairs holds, per edge, the instance positions that the
    matching pairs up.  at(w) only runs the matching.
    """

    graph: CausalityGraph
    pairs: EdgeInstances

    def at(self, window: int | None) -> CausalityGraph:
        """A fresh graph annotated at window length w (None: no window)."""
        return self.graph.with_edge_supports(edge_supports(self.pairs, window))


def prepare_annotation(
    traces: Sequence[Trace],
    slice_policy: SlicePolicy | None = None,
    table: MessageTable | None = None,
) -> PreparedAnnotation:
    """Detection, structure, node supports and instance positions.

    Entry/exit detection and node supports always come from the full,
    unsliced traces; the slicing policy shapes only the pair matching.
    """
    initials, terminals = detect_entries_exits(traces)
    graph = build_graph(unique_messages(traces), initials, terminals, table)
    units = []
    for t in traces:
        positions = instance_positions(graph, t)
        for m, ps in positions.items():
            graph.nodes[m].support += len(ps)
        if slice_policy is None:
            units.append(positions)
        else:
            units.extend(slice_positions(graph, t, slice_policy))
    return PreparedAnnotation(graph, pair_instances(graph, units))


def annotated_graph(
    traces: Sequence[Trace],
    window: int | None = None,
    slice_policy: SlicePolicy | None = None,
    table: MessageTable | None = None,
) -> CausalityGraph:
    """Build and annotate the graph for a trace set at one window length."""
    return prepare_annotation(traces, slice_policy, table).at(window)


@contextlib.contextmanager
def _once_per_run(logger: logging.Logger) -> Iterator[None]:
    """Let each distinct record through the logger once while the block runs."""
    seen: set[tuple[int, str]] = set()

    def first_time(record: logging.LogRecord) -> bool:
        key = (record.levelno, record.getMessage())
        if key in seen:
            return False
        seen.add(key)
        return True

    logger.addFilter(first_time)
    try:
        yield
    finally:
        logger.removeFilter(first_time)


def _gallop(max_w: int) -> Iterator[int]:
    """0, 1, 3, 7, ... below max_w, then max_w itself."""
    w = 0
    while w < max_w:
        yield w
        w = 2 * w + 1
    yield max_w


def auto_window(
    traces: Sequence[Trace],
    cfg: ExtractConfig = ExtractConfig(),
    max_w: int = 12,
    slice_policy: SlicePolicy | None = None,
    table: MessageTable | None = None,
) -> tuple[int, CausalityGraph, ExtractResult]:
    """Smallest window length that admits a model.

    Edge supports never decrease as the window grows (see
    causality._greedy_matches), while node supports and the graph
    structure do not depend on it; since supports only bound the
    constraints from above, feasibility is monotone in w.  So the
    search gallops over w = 0, 1, 3, 7, ... (capped at max_w) until a
    length is feasible, then bisects the last gap, testing each probe
    with a single solve.  The trace set is prepared once, so a probe
    only matches pairs.  Models are extracted once, at the length
    found, and (w, graph, extraction) is returned; the extraction's
    windows_tried counts the probes and its solves include them.
    Each construction warning is logged once per search, not once per
    probe.  Raises NoFeasibleWindowError when no length up to max_w
    works, and ValueError when max_w is negative.
    """
    if max_w < 0:
        raise ValueError("the maximum window length must be non-negative, got %d" % max_w)
    tried: list[int] = []
    prepared = prepare_annotation(traces, slice_policy, table)

    def probe(w: int) -> tuple[CausalityGraph, ConstraintProblem] | None:
        tried.append(w)
        graph = prepared.at(w)
        problem = build_constraints(graph)
        return None if solve(problem) is None else (graph, problem)

    with _once_per_run(solver_log):
        low = -1  # largest length known infeasible
        for high in _gallop(max_w):
            hit = probe(high)
            if hit is not None:
                break
            low = high
        else:
            raise NoFeasibleWindowError(
                "no window length up to %d admits a solution (%d windows tried)" % (max_w, len(tried))
            )
        while high - low > 1:
            mid = (low + high) // 2
            nearer = probe(mid)
            if nearer is None:
                low = mid
            else:
                high, hit = mid, nearer
    graph, problem = hit
    result = model_extract(problem, cfg)
    return high, graph, replace(result, windows_tried=len(tried), solves=len(tried) + result.solves)
