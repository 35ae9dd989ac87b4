"""The transport search against the independent oracles: solve for
feasibility, brute force for the minima, and the problem's own sums
for the infeasibility witness."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import flowmine.transport
from flowmine import (
    GenConfig,
    Message,
    Shortfall,
    auto_window,
    build_constraints,
    check_solution,
    generate,
    minimum_models,
    parse_flowspec,
    shortfall,
    solve,
    trace_of,
)
from flowmine.extract import annotated_graph, prepare_annotation
from flowmine.solver import Balance, ConstraintProblem
from flowmine.transport import max_flow

from helpers import brute_force_solutions, brute_minimum_size, random_problem


def support(values) -> frozenset:
    return frozenset(i for i, v in enumerate(values) if v)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10**6))
def test_max_flow_feasibility_equals_solve(seed):
    p = random_problem(seed)
    assert (shortfall(p) is None) == (solve(p) is not None)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 12), st.integers(0, 10**6))
def test_max_flow_feasibility_equals_solve_on_generated_traces(flowspec, instances, seed):
    # interleaved cache reads, infeasible at tight windows and
    # feasible from some length on
    prepared = prepare_annotation([generate(flowspec, GenConfig(instances=instances, seed=seed, simul_prob=0.2))])
    for window in [*range(0, 4 * instances), None]:
        p = build_constraints(prepared.at(window))
        assert (shortfall(p) is None) == (solve(p) is not None), window


def assert_witness_holds(p, why):
    """Recompute the witness's sums from the problem itself."""
    outs = {b.node: b for b in p.balances if b.side == "out"}
    ins = {b.node: b for b in p.balances if b.side == "in"}
    if why.kind == "totals":
        assert why.need == sum(b.total for b in outs.values())
        assert why.capacity == sum(b.total for b in ins.values())
        assert why.need != why.capacity
        return
    assert why.kind == "hall"
    chosen = [outs[n] for n in why.out_nodes]
    assert why.need == sum(b.total for b in chosen)
    leaving = {v for b in chosen for v in b.vars}
    takes = {}
    for b in ins.values():
        upper = sum(p.effective_upper(v) for v in b.vars if v in leaving)
        if upper:
            takes[b.node] = min(b.total, upper)
    assert set(why.in_nodes) == set(takes)
    assert why.capacity == sum(takes.values())
    assert why.need > why.capacity


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10**6))
def test_shortfall_witness_holds_on_random_infeasible_problems(seed):
    p = next(q for q in map(random_problem, range(seed, seed + 100)) if solve(q) is None)
    why = shortfall(p)
    assert why is not None
    assert_witness_holds(p, why)
    assert why.describe() and why.to_json()


def test_shortfall_names_both_totals_when_they_differ(table):
    t = trace_of([table.message_at(1)], [table.message_at(1)], [table.message_at(2)])
    why = shortfall(build_constraints(annotated_graph([t], table=table)))
    assert why.to_json() == {"out_total": 2, "in_total": 1}


def test_shortfall_names_the_tight_window(mixed_trace, table):
    p = build_constraints(annotated_graph([mixed_trace], window=0, table=table))
    why = shortfall(p)
    assert why.kind == "hall"
    assert_witness_holds(p, why)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**6))
def test_search_finds_exactly_the_brute_force_minima(seed):
    p = random_problem(seed)
    found = minimum_models(p)
    floor = brute_minimum_size(p)
    if isinstance(found, Shortfall):
        assert floor is None and found == shortfall(p)
        return
    models, stats = found
    assert models[0].size == floor
    assert stats.size_proved and stats.all_listed and stats.fallback is None
    assert stats.minima == len(models)
    minima = {support(a) for a in brute_force_solutions(p) if len(support(a)) == floor}
    assert {support(m.values) for m in models} == minima
    for m in models:
        # the reported counts: a solution, with every support edge used
        assert check_solution(p, m.values)
        assert all(m.value(e) >= 1 for e in m.nonzero_edges())
        assert m.size == len(m.nonzero_edges())
    keys = [m.rank_key() for m in models]
    assert keys == sorted(keys)


def own_max_flow(p, values) -> tuple[int, ...]:
    """One max flow over just the edges values uses: the others pinned to 0."""
    unused = frozenset(i for i, v in enumerate(values) if not v)
    return tuple(max_flow(replace(p, pinned=p.pinned | unused, _index=p._index))[0])


def assert_counts_are_each_minimums_own_max_flow(p):
    """A minimum's counts depend on its edges alone: they are its own
    max flow, and stay so when the search breaks ties in its edge
    order the other way and so visits its nodes in another order."""
    models, stats = minimum_models(p)
    assert stats.all_listed
    assert [m.values for m in models] == [own_max_flow(p, m.values) for m in models]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flowmine.transport._BranchAndBound, "_order_key", lambda self, e: (self.net.cap[e], -e))
        flipped, _ = minimum_models(p)
    assert [m.values for m in flipped] == [m.values for m in models]


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**6))
def test_counts_are_each_minimums_own_max_flow(seed):
    assert_counts_are_each_minimums_own_max_flow(random_problem(seed, feasible=True))


@settings(deadline=None, max_examples=20)
@given(st.integers(6, 24), st.integers(0, 10**6))
def test_counts_are_each_minimums_own_max_flow_on_generated_traces(flowspec, instances, seed):
    # interleaved cache reads at their window: here minima can hold a
    # cycle whose flow is not fixed by the balances, and the first
    # flow to reach a minimum varies with the search order
    _, _, result = auto_window([generate(flowspec, GenConfig(instances=instances, seed=seed, simul_prob=0.2))])
    assert_counts_are_each_minimums_own_max_flow(result.best.problem)


def test_counts_of_a_support_that_is_not_minimal_are_a_smaller_supports_own(data_dir):
    # after a fallback the search may list a support that is not
    # minimal, such as every edge.  Here a max flow over every edge (the
    # root flow) uses 10, and a max flow over just those 10 leaves one
    # unused; the 9 it uses replace them, with their own max flow
    spec = parse_flowspec((data_dir / "multi_agent_k1.flow").read_text())
    p = build_constraints(annotated_graph([generate(spec, GenConfig(instances=4, seed=14, simul_prob=0.2))]))
    root, _ = max_flow(p)
    search = flowmine.transport._BranchAndBound(flowmine.transport._Network(p))
    search.found = {tuple(i for i, upper in enumerate(p.uppers) if upper)}
    [flow] = search._counts()
    assert (len(support(root)), len(support(flow))) == (10, 9)
    assert check_solution(p, flow)
    assert tuple(flow) == own_max_flow(p, flow)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(0, 40))
def test_budget_fallback_is_named_and_no_larger_than_the_greedy_incumbent(seed, budget):
    p = random_problem(seed, feasible=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flowmine.transport, "SEARCH_NODE_BUDGET", 0)
        greedy, greedy_stats = minimum_models(p)
        mp.setattr(flowmine.transport, "SEARCH_NODE_BUDGET", budget)
        models, stats = minimum_models(p)
    assert (greedy_stats.nodes, greedy_stats.size_proved, greedy_stats.all_listed) == (0, False, False)
    assert greedy_stats.fallback == "node-budget"
    assert stats.nodes <= budget
    assert models[0].size <= greedy[0].size
    assert stats.size_proved or not stats.all_listed
    if stats.size_proved:
        assert models[0].size == brute_minimum_size(p)
    if stats.all_listed:
        assert stats.fallback is None
    else:
        assert stats.fallback == "node-budget" and stats.nodes == budget
    for m in models:
        assert check_solution(p, m.values)


def test_search_rejects_a_problem_that_is_no_transportation_problem():
    # the oracles take any balances; the flow search needs each edge in
    # exactly one out- and one in-balance, as build_constraints makes them
    m1, m2, m3 = Message("a", "b", "x"), Message("b", "c", "y"), Message("c", "d", "z")
    p = ConstraintProblem(
        edges=((m1, m2), (m2, m3)),
        ordinals=((1, 2), (2, 3)),
        uppers=(1, 1),
        balances=(Balance("n", "out", 1, (0, 1)),),
    )
    assert solve(p) is not None
    with pytest.raises(ValueError, match="no balance"):
        shortfall(p)
