"""Search for the smallest models that explain an annotated graph.

A solution of the consistency problem is a model candidate: the
edges it uses say which triggering actually happened.  Smaller
candidates generalize better, so model_extract asks the solver for
every smallest support (transport.minimum_models: max-flow feasibility
and an exact branch and bound) and ranks them by Solution.rank_key:
size, then the largest total edge support, then the sorted edge
numbers.  The counts of each model are the flow that found it.

Annotation avoids repeated work: everything about a trace set that
does not depend on the window length (entry/exit detection, graph
structure, node supports, instance positions) is prepared once, and
only the pair matching is redone per window length.  A window probe
is one max flow.
"""

from __future__ import annotations

import contextlib
import logging
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

# annotate, annotate_sliced, detect_initials, detect_terminals,
# enumerate_solutions, solve and reduce_model are not called here;
# they stay importable from this module because perfbench/tracing.py
# wraps them under these names.
from .causality import (  # noqa: F401
    CausalityGraph,
    EdgeInstances,
    annotate,
    build_graph,
    detect_entries_exits,
    detect_initials,
    detect_terminals,
    edge_supports,
    node_numbers,
    pair_instances,
    positions_of,
)
from .slicing import SlicePolicy, annotate_sliced, slice_positions  # noqa: F401
from .solver import (  # noqa: F401
    ConstraintProblem,
    Solution,
    build_constraints,
    enumerate_solutions,
    pin_zero,
    solve,
)
from .solver import log as solver_log
from .trace import MessageTable, Trace, unique_messages
from .transport import SearchStats, Shortfall, minimum_models, shortfall

log = logging.getLogger(__name__)

REDUCTION_ORDERS = ("ascending-support", "descending-support", "index")


class NoFeasibleWindowError(RuntimeError):
    """No window length up to the configured bound admits a solution.

    shortfall says why the largest length tried has none."""

    def __init__(self, message: str, shortfall: Shortfall):
        super().__init__(message)
        self.shortfall = shortfall


@dataclass(frozen=True)
class ExtractConfig:
    top: int = 20  # models reported

    def __post_init__(self):
        if self.top < 1:
            raise ValueError("top must be positive")


@dataclass(frozen=True)
class ExtractResult:
    best: Solution
    top: tuple[Solution, ...]
    pool: tuple[Solution, ...]  # every smallest model found, ranked
    search: SearchStats
    windows_tried: int = 1  # window lengths annotated and tested to reach this result
    solves: int = 0  # max flows run: one per window probe, and the search's


def _pin_order(sol: Solution, order: str) -> list[int]:
    candidates = [i for i, v in enumerate(sol.values) if v > 0]
    if order == "ascending-support":
        candidates.sort(key=lambda i: (sol.problem.uppers[i], i))
    elif order == "descending-support":
        candidates.sort(key=lambda i: (-sol.problem.uppers[i], i))
    return candidates


def reduce_model(problem: ConstraintProblem, sol: Solution, order: str = "ascending-support") -> Solution:
    """Walk one pin-to-zero path down from sol: a local minimum.

    Each step pins the first non-zero edge (in the given order) whose
    pin leaves the problem feasible, then continues from the new
    solution with the pin kept.  The walk ends when every single pin
    is infeasible.  Solutions along the way may grow (pins can force
    flow onto more edges); the result is never larger than the input,
    falling back to the input when the walk strands high.  mine does
    not call it: model_extract finds the global minima.
    """
    if order not in REDUCTION_ORDERS:
        raise ValueError("unknown reduction order %r" % (order,))
    current_p, current_s = problem, sol
    while True:
        for i in _pin_order(current_s, order):
            nxt = solve(pin_zero(current_p, current_p.edges[i]))
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
    """Every smallest model, ranked.  None when the problem is infeasible."""
    found = minimum_models(problem)
    if found is None:
        return None
    ranked, stats = found
    return ExtractResult(
        best=ranked[0], top=tuple(ranked[: cfg.top]), pool=tuple(ranked), search=stats, solves=stats.flows
    )


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
    Everything per instance works on message ids: each trace's ids
    map to graph nodes through one list of its alphabet's length, and
    a node's support is the count of its ids.
    """
    initials, terminals = detect_entries_exits(traces)
    graph = build_graph(unique_messages(traces), initials, terminals, table)
    at = graph.messages_by_ordinal()
    units = []
    for t in traces:
        numbers = node_numbers(graph, t)
        for i, n in Counter(t.ids).items():
            graph.nodes[at[numbers[i]]].support += n
        if slice_policy is None:
            units.append(positions_of(t, numbers, range(t.msg_count)))
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
    with one max flow.  The trace set is prepared once, so a probe
    only matches pairs.  Models are extracted once, at the length
    found, and (w, graph, extraction) is returned; the extraction's
    windows_tried counts the probes and its solves include them.
    Each construction warning is logged once per search, not once per
    probe.  Raises NoFeasibleWindowError, carrying the max_w probe's
    shortfall, when no length up to max_w works, and ValueError when
    max_w is negative.
    """
    if max_w < 0:
        raise ValueError("the maximum window length must be non-negative, got %d" % max_w)
    tried: list[int] = []
    prepared = prepare_annotation(traces, slice_policy, table)

    def probe(w: int) -> tuple[CausalityGraph, ConstraintProblem, Shortfall | None]:
        tried.append(w)
        graph = prepared.at(w)
        problem = build_constraints(graph)
        return graph, problem, shortfall(problem)

    with _once_per_run(solver_log):
        low = -1  # largest length known infeasible
        for high in _gallop(max_w):
            graph, problem, short = probe(high)
            if short is None:
                break
            low = high
        else:
            raise NoFeasibleWindowError(
                "no window length up to %d admits a solution (%d windows tried)" % (max_w, len(tried)), short
            )
        while high - low > 1:
            mid = (low + high) // 2
            nearer = probe(mid)
            if nearer[2] is None:
                high, (graph, problem, _) = mid, nearer
            else:
                low = mid
    result = model_extract(problem, cfg)
    return high, graph, replace(result, windows_tried=len(tried), solves=len(tried) + result.solves)
