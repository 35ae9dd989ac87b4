"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s);
under pytest -v the test outcome itself is that line.  Criteria are
exact unless a tolerance is stated in the assertion.
"""

import shutil
import subprocess
import time
from contextlib import contextmanager
from statistics import mean

import pytest

from flowmine import (
    GenConfig,
    Shortfall,
    SlicePolicy,
    acceptance_ratio,
    auto_window,
    build_constraints,
    causal,
    derive_fsa,
    detect_initials,
    detect_terminals,
    enumerate_solutions,
    export_smtlib,
    generate,
    ground_truth_fsa,
    model_extract,
    solve,
)
from flowmine.extract import annotated_graph

from helpers import admits_single_zeroing, brute_force_solutions, instance_pair_counts, random_problem, simulate


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print("criterion %02d: FAIL  %s" % (num, title))
        raise
    print("criterion %02d: PASS  %s" % (num, title))


def test_criterion_01_unbounded_supports(mixed_trace, table):
    with criterion(1, "mixed-trace unbounded supports"):
        graph = annotated_graph([mixed_trace], table=table)
        assert all(st.support == 2 for st in graph.nodes.values())
        assert graph.edges[(table.message_at(1), table.message_at(5))] == 2


def test_criterion_02_window_supports(mixed_trace, table):
    with criterion(2, "window-2 supports"):
        graph = annotated_graph([mixed_trace], window=2, table=table)
        m = table.message_at
        assert graph.edges[(m(1), m(2))] == 1
        assert graph.edges[(m(3), m(4))] == 1
        assert graph.edges[(m(1), m(4))] == 0
        assert graph.edges[(m(3), m(2))] == 0


def test_criterion_03_entry_exit_detection(mixed_trace, table):
    with criterion(3, "start/end detection"):
        m = table.message_at
        assert detect_initials([mixed_trace]) == {m(1), m(3)}
        assert detect_terminals([mixed_trace]) == {m(2), m(4)}


def test_criterion_04_causality_guarantee(pipelined_trace, table):
    with criterion(4, "mined transitions stay causal"):
        m = table.message_at
        pools = []
        graph_u = annotated_graph([pipelined_trace], table=table)
        result_u = model_extract(build_constraints(graph_u))
        assert not isinstance(result_u, Shortfall)
        pools.append((graph_u, result_u.pool))
        _, graph_a, result_a = auto_window([pipelined_trace], table=table)
        pools.append((graph_a, result_a.pool))
        for graph, pool in pools:
            for sol in pool:
                pairs = set(derive_fsa(sol, graph).transition_pairs())
                assert (m(1), m(3)) not in pairs
                for m1, m2 in pairs:
                    assert causal(m1, m2)


def test_criterion_05_solver_oracle_equivalence():
    with criterion(5, "enumeration equals brute force on 100 random problems"):
        for seed in range(100):
            p = random_problem(seed)
            assert {s.values for s in enumerate_solutions(p)} == set(brute_force_solutions(p))


def test_criterion_06_reduction_local_minimality(mixed_trace, table):
    with criterion(6, "best model admits no single-edge zeroing"):
        p = build_constraints(annotated_graph([mixed_trace], table=table))
        result = model_extract(p)
        assert not isinstance(result, Shortfall)
        assert not admits_single_zeroing(p, result.best)


def test_criterion_07_multi_trace_discovery(mixed_trace, hits_trace, table):
    with criterion(7, "joint mining finds the short handshake branch"):
        graph = annotated_graph([mixed_trace, hits_trace], table=table)
        result = model_extract(build_constraints(graph))
        assert not isinstance(result, Shortfall)
        fsa = derive_fsa(result.best, graph)
        assert (table.message_at(3), table.message_at(4)) in set(fsa.transition_pairs())


def test_criterion_08_evaluator_golden(flowspec, simul_trace, pipelined_trace, table):
    with criterion(8, "evaluator golden ratios"):
        fsa = ground_truth_fsa(flowspec)
        assert acceptance_ratio(fsa, simul_trace, table=table).ratio == 1.0
        assert acceptance_ratio(fsa, pipelined_trace, strategy="exhaustive", table=table).ratio == 1.0


def test_criterion_09_generator_soundness(flowspec, table):
    with criterion(9, "generated traces always score 1.0"):
        fsa = ground_truth_fsa(flowspec)
        for seed in range(20):
            for n in (5, 10, 20):
                trace = generate(flowspec, GenConfig(instances=n, seed=seed, simul_prob=0.2))
                report = acceptance_ratio(
                    fsa, trace, strategy="exhaustive", budget=100_000, table=table
                )
                assert report.ratio == 1.0, (seed, n)


def test_criterion_10_windowing_helps(flowspec, table):
    with criterion(10, "auto-window scores at least unbounded, 0.02 slack"):
        started = time.perf_counter()
        auto_scores, unbounded_scores = [], []
        for seed in range(10):
            trace = generate(
                flowspec, GenConfig(instances=5, seed=seed, max_gap=10, simul_prob=0.2)
            )
            _, graph, result = auto_window([trace], table=table)
            fsa = derive_fsa(result.best, graph)
            auto_scores.append(acceptance_ratio(fsa, trace, table=table).ratio)
            graph_u = annotated_graph([trace], table=table)
            result_u = model_extract(build_constraints(graph_u))
            assert not isinstance(result_u, Shortfall)
            fsa_u = derive_fsa(result_u.best, graph_u)
            unbounded_scores.append(acceptance_ratio(fsa_u, trace, table=table).ratio)
        elapsed = time.perf_counter() - started
        assert mean(auto_scores) >= mean(unbounded_scores) - 0.02
        assert elapsed < 60.0


def test_criterion_11_slicing_matches_ground_truth(flowspec, table):
    with criterion(11, "per-instance slicing reproduces true pair counts"):
        for seed in range(8):
            result = simulate(
                flowspec, GenConfig(instances=4, seed=seed, simul_prob=0.2, tag="pid")
            )
            sliced = annotated_graph(
                [result.trace], slice_policy=SlicePolicy("pid"), table=table
            )
            unsliced = annotated_graph([result.trace], table=table)
            truth = instance_pair_counts(result.instances, unsliced.edges.keys())
            for edge, support in unsliced.edges.items():
                assert sliced.edges[edge] <= support
                assert sliced.edges[edge] == truth.get(edge, 0)


def test_criterion_12_smt_parity(tmp_path):
    binary = next((shutil.which(n) for n in ("z3", "cvc5", "cvc4") if shutil.which(n)), None)
    if binary is None:
        print("criterion 12: SKIP  no external SMT solver on PATH")
        pytest.skip("no external SMT solver on PATH")
    with criterion(12, "external SMT verdicts match the internal solver"):
        for seed in range(50):
            p = random_problem(seed)
            script = tmp_path / ("p%d.smt2" % seed)
            script.write_text(export_smtlib(p))
            proc = subprocess.run(
                [binary, str(script)], capture_output=True, text=True, timeout=60
            )
            verdicts = [ln for ln in proc.stdout.splitlines() if ln in ("sat", "unsat")]
            assert verdicts, proc.stdout + proc.stderr
            expected = "sat" if solve(p) is not None else "unsat"
            assert verdicts[0] == expected, seed
