import logging

import pytest
from hypothesis import given, settings, strategies as st

from flowmine import (
    Message,
    build_constraints,
    check_solution,
    enumerate_solutions,
    export_smtlib,
    pin_zero,
    solve,
    trace_of,
)
from flowmine.extract import annotated_graph
from flowmine.solver import Balance, ConstraintProblem

from helpers import brute_force_solutions, check_smtlib, random_problem, recursion_headroom


def mixed_problem(mixed_trace, table, window=None):
    return build_constraints(annotated_graph([mixed_trace], window=window, table=table))


def test_variables_ordered_by_node_pairs(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    assert [p.var_name(i) for i in range(len(p.edges))] == [
        "c_1_2", "c_1_4", "c_1_5", "c_3_2", "c_3_4", "c_3_5",
        "c_5_6", "c_6_2", "c_6_4", "c_6_5",
    ]
    assert p.uppers == (2, 2, 2, 2, 2, 2, 2, 2, 2, 1)


def test_balances_cover_both_sides(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    by_key = {(b.node, b.side): b for b in p.balances}
    five = table.message_at(5).label()
    assert by_key[(five, "in")].total == 2
    assert sorted(p.var_name(i) for i in by_key[(five, "in")].vars) == ["c_1_5", "c_3_5", "c_6_5"]
    assert by_key[(five, "out")].total == 2
    assert [p.var_name(i) for i in by_key[(five, "out")].vars] == ["c_5_6"]
    # starts have no in-balance, ends no out-balance
    assert (table.message_at(1).label(), "in") not in by_key
    assert (table.message_at(2).label(), "out") not in by_key


def test_empty_side_skipped_with_warning(caplog):
    # b:a:r sits between two instances of the initial-and-terminal
    # a:b:x, so both of its constraint sides are empty
    x = Message("a", "b", "x")
    m = Message("b", "a", "r")
    t = trace_of([x], [m], [x])
    with caplog.at_level(logging.WARNING, logger="flowmine.solver"):
        p = build_constraints(annotated_graph([t]))
    assert p.edges == ()
    skipped = [r.message for r in caplog.records if "balance skipped" in r.message]
    assert len(skipped) == 2


def test_worked_problem_is_feasible_and_verified(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    sol = solve(p)
    assert sol is not None
    assert check_solution(p, sol.values)


def test_windowed_problem_unique_solution(mixed_trace, table):
    sols = enumerate_solutions(mixed_problem(mixed_trace, table, window=2))
    assert len(sols) == 1
    named = {sols[0].problem.var_name(i): v for i, v in enumerate(sols[0].values) if v}
    assert named == {
        "c_1_2": 1, "c_1_5": 1, "c_3_4": 1, "c_3_5": 1,
        "c_5_6": 2, "c_6_2": 1, "c_6_4": 1,
    }


def test_tight_windows_are_infeasible(mixed_trace, table):
    assert solve(mixed_problem(mixed_trace, table, window=0)) is None
    assert solve(mixed_problem(mixed_trace, table, window=1)) is None


def test_enumeration_matches_brute_force_on_worked_problem(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    sols = enumerate_solutions(p)
    assert len(sols) == 18
    assert sorted(s.values for s in sols) == brute_force_solutions(p)


def test_enumeration_respects_limit_and_is_deterministic(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    first = enumerate_solutions(p, 5)
    assert len(first) == 5
    assert [s.values for s in first] == [s.values for s in enumerate_solutions(p, 5)]
    assert [s.values for s in enumerate_solutions(p)][:5] == [s.values for s in first]


def test_pin_zero_forces_and_preserves_siblings(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    edge = p.edges[p.index_of(edge=(table.message_at(1), table.message_at(5)))]
    pinned = pin_zero(p, edge)
    sol = solve(pinned)
    assert sol is not None and sol.value(edge) == 0
    # pinning an already-zero-bound edge changes nothing
    zero_edge = (table.message_at(6), table.message_at(5))
    p2 = build_constraints(annotated_graph([mixed_trace], window=2, table=table))
    assert solve(pin_zero(p2, zero_edge)) is not None


def test_check_solution_rejects_violations(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    good = solve(p).values
    assert check_solution(p, good)
    bad = list(good)
    bad[0] += 1
    assert not check_solution(p, tuple(bad))
    over = [u + 1 for u in p.uppers]
    assert not check_solution(p, tuple(over))


def test_infeasible_is_a_result_not_an_error(table):
    # two instances of 1 but only one of 2 makes node 2's sides clash
    # with node 1's when nothing else can absorb the flow
    t = trace_of([table.message_at(1)], [table.message_at(1)], [table.message_at(2)])
    p = build_constraints(annotated_graph([t], table=table))
    assert solve(p) is None
    assert enumerate_solutions(p) == []
    assert brute_force_solutions(p) == []


def test_brute_force_caps_search_space():
    m1, m2, m3 = Message("a", "b", "x"), Message("b", "c", "y"), Message("c", "d", "z")
    p = ConstraintProblem(
        edges=((m1, m2), (m2, m3)),
        ordinals=((1, 2), (2, 3)),
        uppers=(10**6, 10**6),
        balances=(),
    )
    with pytest.raises(ValueError):
        brute_force_solutions(p)


def test_smtlib_export_is_wellformed(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    script = export_smtlib(p)
    forms = check_smtlib(script)
    heads = [f[0] for f in forms]
    assert heads.count("declare-const") == len(p.edges)
    assert "check-sat" in heads and "get-model" in heads
    assert "(declare-const c_1_5 Int)" in script
    assert "QF_LIA" in script


def test_smtlib_export_encodes_pins(mixed_trace, table):
    p = mixed_problem(mixed_trace, table)
    p = pin_zero(p, p.edges[0])
    script = export_smtlib(p)
    check_smtlib(script)
    assert "(assert (= c_1_2 0))" in script


def test_search_deeper_than_the_recursion_limit():
    # n independent balances x_2k + x_2k+1 = 1: every level branches on
    # x_2k, so the first solution lies n levels down.  The limit is
    # lowered while solving only to keep n, and the run time, small.
    with recursion_headroom(100) as limit:
        n = limit + 10
        msgs = [Message("a%d" % i, "b%d" % i, "x") for i in range(2 * n + 1)]
        p = ConstraintProblem(
            edges=tuple(zip(msgs, msgs[1:])),
            ordinals=tuple((i, i + 1) for i in range(2 * n)),
            uppers=(1,) * (2 * n),
            balances=tuple(Balance("n%d" % k, "out", 1, (2 * k, 2 * k + 1)) for k in range(n)),
        )
        sols = [s.values for s in enumerate_solutions(p, 3)]
    # values are tried from the top down, the deepest choice first
    ones = (1, 0) * n
    assert sols == [ones, ones[:-2] + (0, 1), ones[:-4] + (0, 1, 1, 0)]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6))
def test_enumeration_equals_brute_force(seed):
    # the search yields each solution once, and the oracle lists them
    # in lexicographic order
    p = random_problem(seed)
    assert sorted(s.values for s in enumerate_solutions(p)) == brute_force_solutions(p)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6))
def test_solutions_always_verify(seed):
    p = random_problem(seed)
    sols = enumerate_solutions(p, 50)
    for s in sols:
        assert check_solution(p, s.values)
    if sols:
        assert solve(p).values == sols[0].values
