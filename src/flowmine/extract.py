"""Search for the smallest models that explain an annotated graph.

A solution of the consistency problem is a model candidate: the
edges it uses say which triggering actually happened.  Smaller
candidates generalize better, so model_extract asks the solver for
every smallest support (transport.minimum_models: max-flow feasibility
and an exact branch and bound) and ranks them by Solution.rank_key:
size, then the largest total edge support, then the sorted edge
numbers.  The counts of each model are one max flow over just its
edges, a function of the model alone.

Annotation is prepared once per trace set: entry/exit detection,
graph structure, node supports, and one matching pass that gives every
paired tail instance the smallest window length at which it is paired.
A sliced trace is matched once per distinct slice shape, its
thresholds weighted by the number of slices of that shape: the
matching reads only positions and event order within a slice, and
the shape fixes both (see slicing).  Any window length then reads its
edge supports from those thresholds with one bisection per edge.  The
constraints are built once per window search: a probe swaps in its
edge supports as the upper bounds and runs one max flow.  The
thresholds also bound the feasible window lengths from below
(window_floor), so the search usually ends after one probe.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Sequence

# annotate, annotate_sliced, detect_initials, detect_terminals,
# enumerate_solutions, solve and reduce_model are not called here;
# they stay importable from this module because perfbench/tracing.py
# wraps them under these names.
from .causality import (  # noqa: F401
    CausalityGraph,
    Edge,
    Thresholds,
    annotate,
    build_graph,
    detect_entries_exits,
    detect_initials,
    detect_terminals,
    node_supports,
    supports_at,
    window_thresholds,
)
from .slicing import SlicePolicy, annotate_sliced, slice_units  # noqa: F401
from .solver import (  # noqa: F401
    ConstraintProblem,
    Solution,
    build_constraints,
    enumerate_solutions,
    pin_zero,
    solve,
)
from .trace import MessageTable, Trace, unique_messages
from .transport import SearchStats, Shortfall, max_flow, minimum_models

log = logging.getLogger(__name__)


class NoFeasibleWindowError(RuntimeError):
    """No window length among auto_window's candidates admits a
    solution: for "auto", not even no window at all.

    problem is the one at the last candidate (for "auto", the
    unwindowed one), and shortfall says why it has no solution.
    windows_tried, solves and annotate_s count the search as
    ExtractResult's fields of those names do."""

    def __init__(
        self,
        message: str,
        shortfall: Shortfall,
        problem: ConstraintProblem,
        windows_tried: int,
        solves: int,
        annotate_s: float,
    ):
        super().__init__(message)
        self.shortfall = shortfall
        self.problem = problem
        self.windows_tried = windows_tried
        self.solves = solves
        self.annotate_s = annotate_s


@dataclass(frozen=True)
class ExtractResult:
    best: Solution
    pool: tuple[Solution, ...]  # every smallest model found, ranked
    search: SearchStats
    windows_tried: int = 1  # window lengths probed to reach this result
    solves: int = 0  # max flows run: the window probes', and the search's
    annotate_s: float = 0.0  # seconds auto_window spent in prepare_annotation


def reduce_model(problem: ConstraintProblem, sol: Solution) -> Solution:
    """Walk one pin-to-zero path down from sol: a local minimum.

    Each step pins the first non-zero edge, in ascending (upper bound,
    edge number) order, whose pin (pin_zero: its upper bound set to 0)
    leaves the problem feasible, then continues from the new solution
    with the pin kept.  The walk ends when every single pin is
    infeasible.  Solutions along the way may grow (pins can force flow
    onto more edges); the result is never larger than the input,
    falling back to the input when the walk strands high.  mine does
    not call it: model_extract finds the global minima.
    """
    current_p, current_s = problem, sol
    while True:
        used = [i for i, v in enumerate(current_s.values) if v > 0]
        for i in sorted(used, key=lambda i: (current_p.uppers[i], i)):
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


def model_extract(problem: ConstraintProblem, flow: list[int] | None = None) -> ExtractResult | Shortfall:
    """Every smallest model, ranked, the search starting from flow
    when the caller has a saturating one.  When the problem is
    infeasible, why not: the Shortfall of the search's root max flow."""
    found = minimum_models(problem, flow)
    if isinstance(found, Shortfall):
        return found
    ranked, stats = found
    return ExtractResult(best=ranked[0], pool=tuple(ranked), search=stats, solves=stats.flows)


@dataclass(frozen=True)
class PreparedAnnotation:
    """The part of annotating a trace set that no window length changes.

    graph has the final structure and node supports, and zero edge
    supports; thresholds holds, per edge, the sorted smallest window
    lengths at which its paired tails are paired.  at(w) and
    uppers(edges, w) only count.
    """

    graph: CausalityGraph
    thresholds: Thresholds

    def at(self, window: int | None) -> CausalityGraph:
        """A fresh graph annotated at window length w (None: no window)."""
        return self.graph.with_edge_supports(supports_at(self.thresholds, window))

    def uppers(self, edges: Sequence[Edge], window: int | None) -> tuple[int, ...]:
        """The supports of edges at window length w (None: no window),
        in the order given: a probe's upper bounds."""
        supports = supports_at(self.thresholds, window)
        return tuple(supports[e] for e in edges)


def prepare_annotation(
    traces: Sequence[Trace],
    slice_policy: SlicePolicy | None = None,
    table: MessageTable | None = None,
) -> PreparedAnnotation:
    """Detection, structure, node supports and window thresholds.

    Entry/exit detection and node supports always come from the full,
    unsliced traces; the slicing policy shapes only the pair matching.
    Everything per instance works on message ids: each trace's ids
    map to graph nodes through one list of its alphabet's length, and
    a node's support is the count of its ids.  The matching units
    are slicing.slice_units: the whole trace, or one per distinct
    slice shape with its count.
    """
    initials, terminals = detect_entries_exits(traces)
    graph = build_graph(unique_messages(traces), initials, terminals, table)
    units = []
    for t in traces:
        for m, n in node_supports(graph, t).items():
            graph.nodes[m].support += n
        units.extend(slice_units(graph, t, slice_policy))
    return PreparedAnnotation(graph, window_thresholds(graph, units))


def annotated_graph(
    traces: Sequence[Trace],
    window: int | None = None,
    slice_policy: SlicePolicy | None = None,
    table: MessageTable | None = None,
) -> CausalityGraph:
    """Build and annotate the graph for a trace set at one window length."""
    return prepare_annotation(traces, slice_policy, table).at(window)


def window_floor(problem: ConstraintProblem, thresholds: Thresholds) -> int | None:
    """A lower bound on the smallest feasible window length, or None
    when no window length is feasible.

    At window length w an edge's upper bound counts its thresholds
    <= w, so a balance's uppers sum to the count of thresholds <= w
    over its edges, and a balance of total t is met only from the w at
    which that count reaches t: the t-th smallest of its thresholds.
    The floor is the largest such w over the balances (0 when every
    total is 0), found by bisection from the floor so far; it is None
    when some balance has fewer than t thresholds in all, and so falls
    short even with no window.
    """
    floor = 0
    for b in problem.balances:
        found = [thresholds[problem.edges[v]] for v in b.vars]
        if sum(map(len, found)) < b.total:
            return None

        def met(w: int) -> bool:
            return sum(bisect_right(f, w) for f in found) >= b.total

        if not met(floor):
            above = range(floor + 1, max(f[-1] for f in found if f) + 1)
            floor = above[bisect_left(above, True, key=met)]
    return floor


def auto_window(
    traces: Sequence[Trace],
    slice_policy: SlicePolicy | None = None,
    table: MessageTable | None = None,
    window: int | str | None = "auto",
) -> tuple[int | None, CausalityGraph, ExtractResult]:
    """Smallest window length that admits a model, among the
    candidates window names: "auto" for every length, or one length
    (None: no window).

    Edge supports never decrease as the window grows (see
    causality._thresholds), while node supports and the graph
    structure do not depend on it; since supports only bound the
    constraints from above, feasibility is monotone in w.  Supports
    change only at 0 and the thresholds, so the smallest feasible w
    is one of these, and the largest has the supports of no window.
    The constraints are built once, from the window-independent
    graph, so each construction warning is logged once per search; a
    probe replaces only the upper bounds and runs one max flow.  For
    "auto" the search first probes window_floor, below which no
    candidate is feasible, and bisects the candidates above it only
    when that probe fails; when the floor is None it probes only the
    last candidate, for its shortfall.  A single candidate is one
    probe.  The graph is annotated and models are extracted once, at
    the length found, the search starting from the saturating flow of
    the probe that admitted it, and (w, graph, extraction) is
    returned; the extraction's windows_tried counts the probes, its
    solves include their max flows (none for a probe whose balance
    totals differ), and annotate_s is the time taken by
    prepare_annotation.
    Raises NoFeasibleWindowError, with the problem at the last
    candidate, its shortfall and the probes, when no candidate works.
    """
    started = time.perf_counter()
    prepared = prepare_annotation(traces, slice_policy, table)
    annotate_s = time.perf_counter() - started
    skeleton = build_constraints(prepared.graph)
    if window == "auto":
        windows = sorted({0}.union(*prepared.thresholds.values()))
        floor = window_floor(skeleton, prepared.thresholds)
        first = len(windows) - 1 if floor is None else bisect_left(windows, floor)
    else:
        windows, first = [window], 0
    probed: dict[int | None, tuple[ConstraintProblem, list[int] | None, Shortfall | None]] = {}

    def feasible(w: int | None) -> bool:
        problem = replace(skeleton, uppers=prepared.uppers(skeleton.edges, w))
        probed[w] = (problem, *max_flow(problem))
        return probed[w][1] is not None

    found = first if feasible(windows[first]) else bisect_left(windows, True, lo=first + 1, key=feasible)
    flows = sum(1 if short is None else short.flows for _, _, short in probed.values())
    if found == len(windows):
        problem, _, short = probed[windows[-1]]
        if window == "auto":
            reason = "no window length admits a solution, not even no window (%d tried)" % len(probed)
        else:
            reason = "the consistency constraints admit no solution"
        raise NoFeasibleWindowError(reason, short, problem, len(probed), flows, annotate_s)
    w = windows[found]
    result = model_extract(*probed[w][:2])
    result = replace(result, windows_tried=len(probed), solves=flows + result.solves, annotate_s=annotate_s)
    return w, prepared.at(w), result
