import logging
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

import flowmine.extract
from flowmine import (
    GenConfig,
    Message,
    NoFeasibleWindowError,
    Shortfall,
    SlicePolicy,
    auto_window,
    build_constraints,
    check_solution,
    dump_graph,
    enumerate_solutions,
    derive_fsa,
    fsa_to_json,
    generate,
    model_extract,
    parse_trace,
    reduce_model,
    serialize_trace,
    shortfall,
    solve,
    trace_of,
)
from flowmine.causality import instance_positions
from flowmine.extract import annotated_graph, prepare_annotation, window_floor
from flowmine.slicing import parse_policy

from helpers import (
    admits_single_zeroing,
    attributed,
    brute_minimum_size,
    naive_edge_support,
    naive_initials,
    naive_positions,
    naive_slices,
    naive_terminals,
    random_problem,
)


def mixed_problem(mixed_trace, table, window=None):
    return build_constraints(annotated_graph([mixed_trace], window=window, table=table))


def test_reduction_never_grows_and_stays_feasible(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    for sol in enumerate_solutions(p):
        reduced = reduce_model(p, sol)
        assert reduced.size <= sol.size
        assert check_solution(p, reduced.values)


def test_reduction_reaches_local_minimum(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    sol = solve(p)
    reduced = reduce_model(p, sol)
    assert reduced.size == 4
    assert not admits_single_zeroing(p, reduced)


def test_extract_best_is_globally_minimal(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    result = model_extract(p)
    assert result.best.size == brute_minimum_size(p) == 4
    assert {s.size for s in result.pool} == {4}
    assert check_solution(p, result.best.values)


def test_extract_is_deterministic_and_ranked(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    a = model_extract(p)
    b = model_extract(p)
    assert [s.values for s in a.pool] == [s.values for s in b.pool]
    keys = [s.rank_key() for s in a.pool]
    assert keys == sorted(keys)
    assert len({s.nonzero_edges() for s in a.pool}) == len(a.pool)
    assert a.search.size_proved and a.search.all_listed and a.search.minima == len(a.pool)


def test_extract_infeasible_returns_the_shortfall(mixed_trace, table):
    p = mixed_problem(mixed_trace, table, window=0)
    found = model_extract(p)
    assert isinstance(found, Shortfall) and found.kind == "hall"
    assert found == shortfall(p)


def test_multi_trace_discovers_direct_reply(mixed_trace, hits_trace, table):
    p = build_constraints(annotated_graph([mixed_trace, hits_trace], table=table))
    result = model_extract(p)
    assert result.best.size == 5
    pairs = {
        (table.index_of(h), table.index_of(t)) for h, t in result.best.nonzero_edges()
    }
    assert (3, 4) in pairs


def test_auto_window_finds_smallest_feasible(mixed_trace, table):
    w, graph, result = auto_window([mixed_trace], table=table)
    assert w == 2
    p = build_constraints(graph)
    assert check_solution(p, result.best.values)
    # the windowed problem has a unique solution, size 7
    assert result.best.size == 7


def test_auto_window_errors_when_no_window_is_feasible():
    # one x reaches b, but two y leave it: no window, however wide,
    # gives the second y a trigger
    x, y = Message("a", "b", "x"), Message("b", "c", "y")
    trace = trace_of([x], [y], [y])
    with pytest.raises(NoFeasibleWindowError) as raised:
        auto_window([trace])
    # the witness is that of the window-off problem
    assert raised.value.shortfall == shortfall(build_constraints(annotated_graph([trace])))
    assert raised.value.shortfall is not None


def test_auto_window_warns_once_per_run(mixed_trace, caplog):
    # h reaches b before x leaves b, so x is not initial; h also comes
    # after x's last instance, so h is terminal and x is left with no
    # incoming edge.  mixed_trace makes the search probe three windows:
    # the window floor, which fails, then two in the bisection above it.
    h, x = Message("a", "b", "go"), Message("b", "c", "out")
    side = trace_of([h], [x], [h])
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="flowmine.solver"):
            w, _, result = auto_window([mixed_trace, side])
        assert (w, result.windows_tried) == (2, 3)
        assert [r.getMessage() for r in caplog.records] == [
            "node b:c:out has no incoming edges; in-balance skipped"
        ]
        # and the chosen problem records it
        assert result.best.problem.skipped == (("b:c:out", "in"),)


def test_auto_window_builds_the_constraints_once(mixed_trace, monkeypatch):
    built = []

    def counting(graph):
        built.append(graph)
        return build_constraints(graph)

    monkeypatch.setattr(flowmine.extract, "build_constraints", counting)
    w, _, result = auto_window([mixed_trace])
    assert (w, result.windows_tried) == (2, 3)
    assert len(built) == 1


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 8), st.integers(0, 10**6), st.booleans())
def test_probe_problem_is_the_problem_built_at_its_window(flowspec, instances, seed, sliced):
    cfg = GenConfig(instances=instances, seed=seed, simul_prob=0.2, tag="pid" if sliced else None)
    trace = generate(flowspec, cfg)
    prepared = prepare_annotation([trace], SlicePolicy("pid") if sliced else None)
    skeleton = build_constraints(prepared.graph)
    for w in [*range(trace.msg_count + 1), None]:
        probe = replace(skeleton, uppers=prepared.uppers(skeleton.edges, w))
        assert probe == build_constraints(prepared.at(w))


def linear_window_scan(traces, slice_policy=None):
    """Reference for auto_window: try every w from 0 up, in order, to
    the longest trace's length, from where supports are those of no
    window.  Checks that feasibility is monotone in w on the way."""
    first = None
    for w in range(max(t.msg_count for t in traces) + 1):
        graph = annotated_graph(traces, window=w, slice_policy=slice_policy)
        problem = build_constraints(graph)
        if solve(problem) is not None:
            first = first or (w, graph, problem)
        else:
            assert first is None, "feasible at w = %d but not at w = %d" % (first[0], w)
    if first is None:
        return None
    w, graph, problem = first
    return w, graph, model_extract(problem)


SMALL_MESSAGES = st.builds(
    Message, st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "y"])
)
SMALL_TRACES = st.lists(
    st.lists(SMALL_MESSAGES, min_size=1, max_size=2), min_size=1, max_size=10
).map(lambda evs: trace_of(*evs))


def uppers_reach_totals(prepared, window):
    """Does every balance's upper bound sum reach its total at window
    length w?  The window floor is the first w at which they all do."""
    problem = build_constraints(prepared.at(window))
    return all(sum(problem.uppers[v] for v in b.vars) >= b.total for b in problem.balances)


def assert_search_matches_scan(traces, slice_policy=None):
    expected = linear_window_scan(traces, slice_policy)
    prepared = prepare_annotation(traces, slice_policy)
    floor = window_floor(build_constraints(prepared.graph), prepared.thresholds)
    if floor is None:
        assert not uppers_reach_totals(prepared, None)
    else:
        assert uppers_reach_totals(prepared, floor) and (floor == 0 or not uppers_reach_totals(prepared, floor - 1))
    if expected is None:
        with pytest.raises(NoFeasibleWindowError) as raised:
            auto_window(traces, slice_policy=slice_policy)
        # the witness is that of the last candidate, which has the
        # supports of no window; a floor of None probes only that one
        assert raised.value.shortfall == shortfall(build_constraints(prepared.at(None)))
        assert floor is not None or raised.value.windows_tried == 1
        return
    w, graph, result = auto_window(traces, slice_policy=slice_policy)
    want_w, want_graph, want_result = expected
    # no length below the floor is feasible, and the floor's probe is
    # the only one exactly when the floor is the answer
    assert floor is not None and floor <= want_w
    assert (result.windows_tried == 1) == (floor == want_w)
    assert w == want_w
    assert dump_graph(graph) == dump_graph(want_graph)
    assert result.best.values == want_result.best.values
    assert [s.values for s in result.pool] == [s.values for s in want_result.pool]


@settings(deadline=None, max_examples=150)
@given(st.lists(SMALL_TRACES, min_size=1, max_size=2))
def test_auto_window_matches_linear_scan_on_random_traces(traces):
    assert_search_matches_scan(traces)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 12), st.integers(0, 10**6), st.booleans())
def test_auto_window_matches_linear_scan_on_generated_traces(flowspec, instances, seed, sliced):
    # interleaved cache reads, where the smallest feasible window is
    # often well above 0
    cfg = GenConfig(instances=instances, seed=seed, simul_prob=0.2, tag="pid" if sliced else None)
    policy = SlicePolicy("pid") if sliced else None
    assert_search_matches_scan([generate(flowspec, cfg)], policy)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_reduction_monotone_on_random_problems(seed):
    p = random_problem(seed, feasible=True)
    sol = solve(p)
    reduced = reduce_model(p, sol)
    assert reduced.size <= sol.size
    assert check_solution(p, reduced.values)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_extract_best_bounded_by_brute_minimum(seed):
    p = random_problem(seed, max_edges=6)
    result = model_extract(p)
    floor = brute_minimum_size(p)
    if isinstance(result, Shortfall):
        assert floor is None
    else:
        assert floor == result.best.size
        for s in result.pool:
            assert check_solution(p, s.values)


def test_solves_counts_every_max_flow(mixed_trace, table, routed):
    _, _, result = auto_window([mixed_trace], table=table)
    # one max flow per window probe, then the search's, which starts
    # from the admitting probe's flow: one per reroute around an
    # excluded edge, and one per minimum for its counts
    assert result.windows_tried == 3
    assert result.solves == len(routed) == result.windows_tried + result.search.flows


ATTRIBUTED = st.tuples(SMALL_MESSAGES, st.none() | st.builds(lambda pid: {"pid": pid}, st.integers(0, 2)))
ATTRIBUTED_TRACES = st.lists(
    st.lists(ATTRIBUTED, min_size=1, max_size=3), min_size=1, max_size=12
).map(lambda evs: attributed(*evs))


@settings(deadline=None, max_examples=100)
@given(st.lists(ATTRIBUTED_TRACES, min_size=1, max_size=2), st.booleans())
def test_prepared_annotation_matches_naive_at_every_window(traces, sliced):
    prepared = prepare_annotation(traces, SlicePolicy("pid") if sliced else None)
    units = [u for t in traces for u in (naive_slices(t, "pid") if sliced else [t])]
    longest = max(t.msg_count for t in traces)
    initials, terminals = naive_initials(traces), naive_terminals(traces)
    for window in [*range(longest + 1), None]:
        graph = prepared.at(window)
        for (head, tail), support in graph.edges.items():
            assert support == sum(naive_edge_support(u, head, tail, window) for u in units)
        for m, stats in graph.nodes.items():
            assert stats.support == sum(1 for t in traces for _, _, x in t.flattened() if x == m)
            assert (stats.initial, stats.terminal) == (m in initials, m in terminals)


@settings(deadline=None, max_examples=60)
@given(st.lists(ATTRIBUTED_TRACES, min_size=1, max_size=2), st.booleans())
def test_node_supports_count_ids(traces, sliced):
    # supports are summed over the matching units, sliced or not, and
    # agree with the whole-trace instance positions, which match the
    # flattened trace
    prepared = prepare_annotation(traces, SlicePolicy("pid") if sliced else None)
    graph = prepared.graph
    at = {graph.ordinal(m): m for m in graph.nodes}
    expected = dict.fromkeys(graph.nodes, 0)
    for t in traces:
        positions = instance_positions(graph, t)
        assert positions == naive_positions(t, graph.ordinal)
        for node, found in positions[0].items():
            expected[at[node]] += len(found)
    assert {m: stats.support for m, stats in graph.nodes.items()} == expected


@settings(deadline=None, max_examples=60)
@given(st.lists(ATTRIBUTED_TRACES, min_size=1, max_size=2), st.none() | st.sampled_from([1, 2]))
def test_missing_policy_leaves_the_annotation_alone(traces, block):
    # a message without the pid counts for its node and pairs with
    # nothing, whether it is isolated or dropped
    isolated = prepare_annotation(traces, SlicePolicy("pid", block=block))
    dropped = prepare_annotation(traces, SlicePolicy("pid", block=block, missing="drop"))
    assert dump_graph(isolated.graph) == dump_graph(dropped.graph)
    assert isolated.thresholds == dropped.thresholds


@pytest.mark.parametrize("spec", [None, "pid", "pid:block=2"])
def test_mining_builds_no_per_instance_column(flowspec, table, spec):
    # mining reads each trace through its distinct rows and row numbers
    text = serialize_trace(generate(flowspec, GenConfig(instances=20, seed=7, simul_prob=0.2, tag="pid")), table)
    trace = parse_trace(text, table, attr_texts=spec is not None)
    auto_window([trace], parse_policy(spec) if spec else None, table)
    assert "ids" not in vars(trace) and "event_of" not in vars(trace)


def _mined(trace, table):
    """What mine writes of a trace at the auto window: the window, the
    graph report, the model and the listed minima."""
    try:
        window, graph, result = auto_window([trace], table=table, window="auto")
    except NoFeasibleWindowError as exc:
        return str(exc)
    return window, dump_graph(graph), fsa_to_json(derive_fsa(result.best, graph)), [sol.items() for sol in result.pool]


@pytest.mark.xfail(strict=True, reason="mine reads the order of the messages inside an event (a known defect)")
@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(0, 10**6), st.sampled_from([0.2, 0.5]))
@example(2, 0, 0.5)  # the window moves from 5 to 6
def test_mine_ignores_the_order_inside_an_event(flowspec, table, instances, seed, simul):
    # an event has no order inside: writing each event's messages in
    # reverse must mine the same window, graph and models
    text = serialize_trace(generate(flowspec, GenConfig(instances=instances, seed=seed, simul_prob=simul)), table)
    reversed_text = "".join(" ".join(reversed(line.split())) + "\n" for line in text.splitlines())
    assert _mined(parse_trace(reversed_text, table), table) == _mined(parse_trace(text, table), table)
