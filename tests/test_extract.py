import logging

import pytest
from hypothesis import assume, given, settings, strategies as st

from flowmine import (
    ExtractConfig,
    GenConfig,
    Message,
    NoFeasibleWindowError,
    SlicePolicy,
    auto_window,
    brute_force_solutions,
    build_constraints,
    check_solution,
    dump_graph,
    enumerate_solutions,
    generate,
    model_extract,
    pin_zero,
    reduce_model,
    solve,
    trace_of,
)
from flowmine.extract import annotated_graph

from helpers import admits_single_zeroing, brute_minimum_size, random_problem


def mixed_problem(mixed_trace, table, window=None):
    return build_constraints(annotated_graph([mixed_trace], window=window, table=table))


def test_config_validation():
    with pytest.raises(ValueError):
        ExtractConfig(sz=0)
    with pytest.raises(ValueError):
        ExtractConfig(reduction_order="by-vibes")
    with pytest.raises(ValueError):
        ExtractConfig(workers=0)


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
    result = model_extract(p, ExtractConfig(sz=200))
    assert result.best.size == brute_minimum_size(p) == 4
    assert result.best.size <= min(s.size for s in result.pool)
    assert check_solution(p, result.best.values)


def test_extract_is_deterministic_and_ranked(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    a = model_extract(p, ExtractConfig(sz=200))
    b = model_extract(p, ExtractConfig(sz=200))
    assert [s.values for s in a.pool] == [s.values for s in b.pool]
    keys = [s.rank_key() for s in a.pool]
    assert keys == sorted(keys)
    assert len({s.values for s in a.pool}) == len(a.pool)


def test_extract_parallel_matches_serial(mixed_trace, hits_trace, table):
    p = build_constraints(annotated_graph([mixed_trace, hits_trace], table=table))
    serial = model_extract(p, ExtractConfig(sz=100))
    threaded = model_extract(p, ExtractConfig(sz=100, workers=4))
    assert [s.values for s in serial.pool] == [s.values for s in threaded.pool]


def test_extract_seeded_shuffle_changes_order_not_best(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    plain = model_extract(p, ExtractConfig(sz=200))
    shuffled = model_extract(p, ExtractConfig(sz=200, seed=99))
    assert plain.best.values == shuffled.best.values
    assert {s.values for s in plain.pool} == {s.values for s in shuffled.pool}


def test_extract_infeasible_returns_none(mixed_trace, table):
    p = mixed_problem(mixed_trace, table, window=0)
    assert model_extract(p, ExtractConfig(sz=10)) is None


def test_multi_trace_discovers_direct_reply(mixed_trace, hits_trace, table):
    p = build_constraints(annotated_graph([mixed_trace, hits_trace], table=table))
    result = model_extract(p, ExtractConfig(sz=200))
    assert result.best.size == 5
    pairs = {
        (table.index_of(h), table.index_of(t)) for h, t in result.best.nonzero_edges()
    }
    assert (3, 4) in pairs


def test_auto_window_finds_smallest_feasible(mixed_trace, table):
    w, graph, result = auto_window([mixed_trace], ExtractConfig(sz=50), max_w=10, table=table)
    assert w == 2
    p = build_constraints(graph)
    assert check_solution(p, result.best.values)
    # the windowed problem has a unique solution, size 7
    assert result.best.size == 7


def test_auto_window_errors_when_bound_too_small(mixed_trace, table):
    with pytest.raises(NoFeasibleWindowError):
        auto_window([mixed_trace], ExtractConfig(sz=10), max_w=1, table=table)
    with pytest.raises(NoFeasibleWindowError):
        auto_window([mixed_trace], ExtractConfig(sz=10), max_w=0, table=table)


def test_auto_window_warns_once_per_run(mixed_trace, caplog):
    # h reaches b before x leaves b, so x is not initial; h also comes
    # after x's last instance, so h is terminal and x is left with no
    # incoming edge.  mixed_trace makes the search probe four windows.
    h, x = Message("a", "b", "go"), Message("b", "c", "out")
    side = trace_of([h], [x], [h])
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="flowmine.solver"):
            w, _, result = auto_window([mixed_trace, side], ExtractConfig(sz=10), max_w=10)
        assert (w, result.windows_tried) == (2, 4)
        assert [r.getMessage() for r in caplog.records] == [
            "node b:c:out has no incoming edges; in-balance skipped"
        ]


def linear_window_scan(traces, cfg, max_w, slice_policy=None):
    """Reference for auto_window: try every w from 0 up, in order."""
    for w in range(max_w + 1):
        graph = annotated_graph(traces, window=w, slice_policy=slice_policy)
        problem = build_constraints(graph)
        if solve(problem) is not None:
            return w, graph, model_extract(problem, cfg)
    return None


SEARCH_CFG = ExtractConfig(sz=5, top=3)
SMALL_MESSAGES = st.builds(
    Message, st.sampled_from(["a", "b", "c"]), st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "y"])
)
SMALL_TRACES = st.lists(
    st.lists(SMALL_MESSAGES, min_size=1, max_size=2), min_size=1, max_size=10
).map(lambda evs: trace_of(*evs))


def assert_search_matches_scan(traces, max_w, slice_policy=None):
    expected = linear_window_scan(traces, SEARCH_CFG, max_w, slice_policy)
    if expected is None:
        with pytest.raises(NoFeasibleWindowError):
            auto_window(traces, SEARCH_CFG, max_w=max_w, slice_policy=slice_policy)
        return
    w, graph, result = auto_window(traces, SEARCH_CFG, max_w=max_w, slice_policy=slice_policy)
    want_w, want_graph, want_result = expected
    assert w == want_w
    assert dump_graph(graph) == dump_graph(want_graph)
    assert result.best.values == want_result.best.values
    assert [s.values for s in result.top] == [s.values for s in want_result.top]


@settings(deadline=None, max_examples=150)
@given(st.lists(SMALL_TRACES, min_size=1, max_size=2), st.integers(0, 12))
def test_auto_window_matches_linear_scan_on_random_traces(traces, max_w):
    assert_search_matches_scan(traces, max_w)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 12), st.integers(0, 10**6), st.integers(0, 40), st.booleans())
def test_auto_window_matches_linear_scan_on_generated_traces(flowspec, instances, seed, max_w, sliced):
    # interleaved cache reads, where the smallest feasible window is
    # often well above 0 and sometimes above max_w
    cfg = GenConfig(instances=instances, seed=seed, simul_prob=0.2, tag="pid" if sliced else None)
    policy = SlicePolicy("pid") if sliced else None
    assert_search_matches_scan([generate(flowspec, cfg)], max_w, policy)


def test_reduction_orders_are_all_valid(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    sol = solve(p)
    for order in ("ascending-support", "descending-support", "index"):
        reduced = reduce_model(p, sol, order)
        assert reduced.size <= sol.size
        assert check_solution(p, reduced.values)
    with pytest.raises(ValueError):
        reduce_model(p, sol, "sideways")


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_reduction_monotone_on_random_problems(seed):
    p = random_problem(seed)
    sol = solve(p)
    assume(sol is not None)
    reduced = reduce_model(p, sol)
    assert reduced.size <= sol.size
    assert check_solution(p, reduced.values)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_extract_best_bounded_by_brute_minimum(seed):
    p = random_problem(seed, max_edges=6)
    result = model_extract(p, ExtractConfig(sz=100))
    floor = brute_minimum_size(p)
    if result is None:
        assert floor is None
    else:
        assert floor <= result.best.size
        for s in result.pool:
            assert check_solution(p, s.values)
