"""The transport search against the independent oracles: solve for
feasibility, brute force for the minima, and the problem's own sums
for the infeasibility witness."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

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
    parse_trace,
    shortfall,
    solve,
    trace_of,
)
from flowmine.extract import NoFeasibleWindowError, annotated_graph, prepare_annotation
from flowmine.solver import Balance, ConstraintProblem
from flowmine.transport import max_flow

from helpers import brute_force_solutions, brute_minimum_size, count_bound, random_problem, reference_minimum_models


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
        upper = sum(p.uppers[v] for v in b.vars if v in leaving)
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
        assert all(m.values[p.edges.index(e)] >= 1 for e in m.nonzero_edges())
        assert m.size == len(m.nonzero_edges())
    keys = [m.rank_key() for m in models]
    assert keys == sorted(keys)


def walked_nodes(p):
    """minimum_models(p); the (included, excluded) of each node its
    search popped and of each it expanded, in order; and the search's
    edge order with the bound each popped node carried.  _pop runs once
    per pop; _branch runs once per expanded node, after that node's pop
    and before the next."""
    cls = flowmine.transport._BranchAndBound
    pop, branch = cls._pop, cls._branch
    popped, expanded, bounds, orders = [], [], [], []

    def pop_and_record(self, stack):
        included, excluded, *_, bound = node = pop(self, stack)
        popped.append((included, excluded))
        bounds.append(bound)
        orders.append(self.order)
        return node

    def branch_and_record(self, free):
        expanded.append(popped[-1])
        return branch(free)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "_pop", pop_and_record)
        mp.setattr(cls, "_branch", branch_and_record)
        found = minimum_models(p)
    return found, popped, expanded, (orders[0] if orders else None, bounds)


@pytest.mark.parametrize("trace, window, minima, set_aside", [
    # four minima of size 4: the walk sets nodes aside while it proves
    # the size, then takes them up; each is popped twice, expanded once
    ("mixed.trace", None, 4, 2),
    # mixed's auto window, and a trace with simultaneous starts: here a
    # second pass from the root would expand some nodes again
    ("mixed.trace", 2, 1, 1),
    ("simul_start.trace", None, 2, 4),
])
def test_search_expands_no_node_twice(data_dir, table, trace, window, minima, set_aside):
    t = parse_trace((data_dir / trace).read_text(), table)
    (models, stats), popped, expanded, _ = walked_nodes(build_constraints(annotated_graph([t], window, table=table)))
    assert (stats.size_proved, stats.all_listed, stats.minima) == (True, True, minima)
    assert (len(popped), expanded[0]) == (stats.nodes, (0, 0))
    assert len(set(expanded)) == len(expanded)
    assert len(popped) - len(set(popped)) == set_aside


@pytest.mark.parametrize("trace, window, walk", [
    ("mixed.trace", None, (47, 16, 4, 18)),
    ("mixed.trace", 2, (16, 5, 1, 4)),
    ("simul_start.trace", None, (47, 20, 2, 8)),
])
def test_search_walk_on_the_data_traces(data_dir, table, trace, window, walk):
    # (nodes, bound_prunes, minima, flows) of the walk, which a faster
    # bound or reroute must leave as it is
    t = parse_trace((data_dir / trace).read_text(), table)
    _, stats = minimum_models(build_constraints(annotated_graph([t], window, table=table)))
    assert (stats.nodes, stats.bound_prunes, stats.minima, stats.flows) == walk


def proof_problem(seed: int):
    """A feasible random problem from 10-20 events: about one in nine
    has a root max flow whose support is above the minimum, so the
    search must prove the minimum, where random_problem's default
    draws almost never need it."""
    return random_problem(seed, max_edges=14, max_support=6, feasible=True, events=(10, 20))


# seeds whose root support is 1-2 edges above the minimum, with 1-4 minima
PROOF_SEEDS = (7, 35, 47, 110)


def test_proof_seeds_need_the_proof():
    for seed in PROOF_SEEDS:
        p = proof_problem(seed)
        models, _ = minimum_models(p)
        assert len(support(max_flow(p)[0])) > models[0].size, seed


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**6))
@example(PROOF_SEEDS[0])
@example(PROOF_SEEDS[1])
@example(PROOF_SEEDS[2])
@example(PROOF_SEEDS[3])
def test_search_expands_no_node_twice_on_random_problems(seed):
    (models, stats), popped, expanded, _ = walked_nodes(proof_problem(seed))
    assert stats.all_listed and len(popped) == stats.nodes
    assert len(set(expanded)) == len(expanded)


def assert_carried_bounds_are_count_bounds(p):
    """Each popped node's bound, updated from its parent's at the two
    balances of the edge it decides, is the count bound from scratch;
    where a balance cannot be met, it exceeds every support's size."""
    found, popped, _, (order, bounds) = walked_nodes(p)
    if isinstance(found, Shortfall):
        return
    assert len(bounds) == found[1].nodes
    for (included, excluded), bound in zip(popped, bounds):
        oracle = count_bound(p, order, included, excluded)
        assert bound == oracle or oracle == math.inf and bound > len(order), (included, excluded)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**6))
def test_carried_bound_is_the_count_bound(seed):
    assert_carried_bounds_are_count_bounds(random_problem(seed))


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**6))
@example(PROOF_SEEDS[0])
@example(PROOF_SEEDS[1])
@example(PROOF_SEEDS[2])
@example(PROOF_SEEDS[3])
def test_carried_bound_is_the_count_bound_on_proof_problems(seed):
    assert_carried_bounds_are_count_bounds(proof_problem(seed))


def generated_problem(spec, seed: int, instances: int, window):
    """The problem mine searches on a generated trace at window ("auto"
    or None for no window), or, where no window admits a model, the
    infeasible problem at the last one probed."""
    traces = [generate(spec, GenConfig(instances=instances, seed=seed, simul_prob=0.2))]
    try:
        return auto_window(traces, window=window)[2].best.problem
    except NoFeasibleWindowError as exc:
        return exc.problem


@pytest.mark.parametrize("source", ["random", "proof", "cache_read", "multi_agent_k1", "multi_agent_k2"])
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_search_walks_as_the_reference(data_dir, table, source, seed, data):
    # the walk as first written, where every node paid for every edge,
    # is the oracle: the same minima and every SearchStats field, the
    # budget cutting the walk off while it proves the size and while it
    # lists the minima
    if source == "random":
        p = random_problem(seed)
    elif source == "proof":
        p = proof_problem(seed)
    else:
        spec = parse_flowspec((data_dir / (source + ".flow")).read_text(), table if source == "cache_read" else None)
        instances = data.draw(st.integers(1, 3 if source == "multi_agent_k2" else 8), label="instances")
        p = generated_problem(spec, seed, instances, data.draw(st.sampled_from(["auto", None]), label="window"))
    full = reference_minimum_models(p, flowmine.transport.SEARCH_NODE_BUDGET)
    if full is None:
        assert isinstance(minimum_models(p), Shortfall)
        return
    walked = full[1]
    budget = data.draw(st.integers(0, walked.nodes + 3) | st.integers(0, walked.proof_nodes or walked.nodes),
                       label="budget")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flowmine.transport, "SEARCH_NODE_BUDGET", budget)
        models, stats = minimum_models(p)
    assert ([m.values for m in models], stats) == reference_minimum_models(p, budget)


def own_max_flow(p, values) -> tuple[int, ...]:
    """One max flow over just the edges values uses: the others' upper
    bounds set to 0."""
    return tuple(max_flow(replace(p, uppers=tuple(u if v else 0 for u, v in zip(p.uppers, values))))[0])


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
@example(PROOF_SEEDS[0])
@example(PROOF_SEEDS[1])
@example(PROOF_SEEDS[2])
@example(PROOF_SEEDS[3])
def test_counts_are_each_minimums_own_max_flow(seed):
    assert_counts_are_each_minimums_own_max_flow(proof_problem(seed))


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
def test_budget_fallback_is_named_and_no_larger_than_the_root_support(seed, budget):
    p = random_problem(seed, feasible=True)
    root = support(max_flow(p)[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flowmine.transport, "SEARCH_NODE_BUDGET", 0)
        incumbent, incumbent_stats = minimum_models(p)
        mp.setattr(flowmine.transport, "SEARCH_NODE_BUDGET", budget)
        models, stats = minimum_models(p)
    # walking no node, the search lists the root flow's support alone,
    # reduced to the edges its own max flow uses
    assert (incumbent_stats.nodes, incumbent_stats.size_proved, incumbent_stats.all_listed) == (0, False, False)
    assert incumbent_stats.fallback == "node-budget"
    assert len(incumbent) == 1 and support(incumbent[0].values) <= root
    assert stats.nodes <= budget
    assert models[0].size <= len(root)
    assert stats.size_proved or not stats.all_listed
    if stats.size_proved:
        assert models[0].size == brute_minimum_size(p)
    if stats.all_listed:
        assert stats.fallback is None
    else:
        assert stats.fallback == "node-budget" and stats.nodes == budget
    for m in incumbent + models:
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
