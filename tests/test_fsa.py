import json
import logging
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from flowmine import (
    FSA,
    START,
    GenConfig,
    Message,
    MessageTable,
    acceptance_ratio,
    build_constraints,
    derive_fsa,
    enumerate_solutions,
    fsa_from_json,
    fsa_to_json,
    generate,
    ground_truth_fsa,
    parse_trace,
    serialize_trace,
    solve,
    to_dot,
    trace_of,
)
from flowmine.extract import annotated_graph
from flowmine.fsa import json_text

from helpers import attributed, check_dot, recursion_headroom, reference_exhaustive, reference_greedy


def loop_fsa(*msgs: Message) -> FSA:
    """One-state acceptor that loops on the given messages."""
    return FSA(states=(START,), transitions={(START, m): START for m in msgs})


def test_initial_must_be_a_state():
    with pytest.raises(ValueError, match="initial"):
        FSA(states=("q1",), transitions={})


def test_transitions_must_use_known_states():
    m = Message("a", "b", "x")
    with pytest.raises(ValueError, match="unknown state"):
        FSA(states=(START,), transitions={(START, m): "q9"})


def test_step_and_alphabet():
    fsa = loop_fsa(Message("b", "a", "y"), Message("a", "b", "x"))
    assert fsa.step(START, Message("a", "b", "x")) == START
    assert fsa.step(START, Message("b", "a", "x")) is None
    # the alphabet is sorted by triple
    assert fsa.alphabet() == (Message("a", "b", "x"), Message("b", "a", "y"))


def test_derive_handshake_pair(hits_trace, table):
    graph = annotated_graph([hits_trace], table=table)
    p = build_constraints(graph)
    sols = {s.values: s for s in enumerate_solutions(p)}
    sol = sols[(1, 0, 0, 1)]  # c_1_2 = c_3_4 = 1
    fsa = derive_fsa(sol, graph)
    m = table.message_at
    assert fsa.states == (START, "q1", "q3")
    assert fsa.transitions == {
        (START, m(1)): "q1",
        (START, m(3)): "q3",
        ("q1", m(2)): START,
        ("q3", m(4)): START,
    }


def test_derive_window2_model(mixed_trace, table):
    graph = annotated_graph([mixed_trace], window=2, table=table)
    sol = solve(build_constraints(graph))
    fsa = derive_fsa(sol, graph)
    m = table.message_at
    assert fsa.states == (START, "q1", "q3", "q5", "q6")
    assert fsa.transitions == {
        (START, m(1)): "q1",
        (START, m(3)): "q3",
        ("q1", m(2)): START,
        ("q1", m(5)): "q5",
        ("q3", m(4)): START,
        ("q3", m(5)): "q5",
        ("q5", m(6)): "q6",
        ("q6", m(2)): START,
        ("q6", m(4)): START,
    }


def test_transition_pairs_match_solution_edges(mixed_trace, table):
    graph = annotated_graph([mixed_trace], window=2, table=table)
    sol = solve(build_constraints(graph))
    fsa = derive_fsa(sol, graph)
    nonzero = {e for e, v in sol.items() if v > 0}
    assert set(fsa.transition_pairs()) == nonzero


def test_derive_single_message_flow():
    x = Message("a", "b", "x")
    t = trace_of([x], [x])
    graph = annotated_graph([t])
    sol = solve(build_constraints(graph))
    fsa = derive_fsa(sol, graph)
    assert fsa.states == (START,)
    assert fsa.transitions == {(START, x): START}
    report = acceptance_ratio(fsa, t)
    assert (report.accepted, report.total) == (2, 2)


def test_oldest_first_explains_interleaved_reads(flowspec, simul_trace, table):
    fsa = ground_truth_fsa(flowspec)
    report = acceptance_ratio(fsa, simul_trace, table=table)
    assert (report.accepted, report.total) == (12, 12)
    assert report.rejected == ()
    assert report.fallback is None
    assert report.ratio == 1.0
    assert report.strategy == "oldest-first"


def test_newest_first_misassigns_one_message(flowspec, simul_trace, table):
    # binding message 5 to the younger read makes one response orphan
    fsa = ground_truth_fsa(flowspec)
    report = acceptance_ratio(fsa, simul_trace, strategy="newest-first", table=table)
    assert (report.accepted, report.total) == (11, 12)
    assert len(report.rejected) == 1
    assert report.strategy == "newest-first"


def test_exhaustive_recovers_full_acceptance(flowspec, simul_trace, table):
    fsa = ground_truth_fsa(flowspec)
    report = acceptance_ratio(fsa, simul_trace, strategy="exhaustive", table=table)
    assert (report.accepted, report.total) == (12, 12)
    assert report.rejected == ()


def test_sequential_trace_accepted_by_all_strategies(flowspec, pipelined_trace, table):
    fsa = ground_truth_fsa(flowspec)
    for strategy in ("oldest-first", "newest-first", "exhaustive"):
        report = acceptance_ratio(fsa, pipelined_trace, strategy=strategy, table=table)
        assert (report.accepted, report.total) == (12, 12), strategy


@pytest.mark.parametrize("strategy", ["oldest-first", "newest-first", "exhaustive"])
def test_replay_builds_no_per_instance_column(flowspec, table, strategy):
    # replay reads each trace through its distinct rows and row numbers
    text = serialize_trace(generate(flowspec, GenConfig(instances=20, seed=7, simul_prob=0.2, tag="pid")), table)
    trace = parse_trace(text, table, attr_texts=False)
    report = acceptance_ratio(ground_truth_fsa(flowspec), trace, strategy=strategy, table=table)
    assert report.total == trace.msg_count
    assert "ids" not in vars(trace) and "event_of" not in vars(trace)


def test_same_event_order_follows_table(flowspec, table):
    fsa = ground_truth_fsa(flowspec)
    t = trace_of([table.message_at(1), table.message_at(2)])
    with_table = acceptance_ratio(fsa, t, table=table)
    assert (with_table.accepted, with_table.total) == (2, 2)
    # without the table messages sort by triple, so the response is
    # tried before its request and greedy evaluation drops it
    bare = acceptance_ratio(fsa, t)
    assert (bare.accepted, bare.total) == (1, 2)
    assert bare.rejected == ((0, table.message_at(2)),)
    # exhaustive replays the same order, so it cannot recover it either
    best = acceptance_ratio(fsa, t, strategy="exhaustive")
    assert (best.accepted, best.rejected) == (bare.accepted, bare.rejected)


def test_foreign_trace_rejects_everything(hits_trace, table):
    fsa = loop_fsa(Message("z", "z", "zz"))
    report = acceptance_ratio(fsa, hits_trace, table=table)
    assert (report.accepted, report.total) == (0, 4)
    assert report.ratio == 0.0
    assert report.rejected == tuple(
        (i, table.message_at(n)) for i, n in enumerate((1, 3, 2, 4))
    )


def test_attributes_do_not_block_matching(flowspec, table):
    fsa = ground_truth_fsa(flowspec)
    t = trace_of([table.message_at(1)], [table.message_at(2)], attrs=[{"addr": 64}, {"addr": 64}])
    report = acceptance_ratio(fsa, t, table=table)
    assert report.ratio == 1.0


def test_empty_trace_rejected(flowspec):
    fsa = ground_truth_fsa(flowspec)
    with pytest.raises(ValueError, match="empty"):
        acceptance_ratio(fsa, trace_of())


def test_unknown_strategy_rejected(flowspec, pipelined_trace):
    fsa = ground_truth_fsa(flowspec)
    with pytest.raises(ValueError, match="strategy"):
        acceptance_ratio(fsa, pipelined_trace, strategy="pessimistic")


def test_exhausted_budget_falls_back_to_greedy(flowspec, simul_trace, table, caplog):
    fsa = ground_truth_fsa(flowspec)
    with caplog.at_level(logging.WARNING, logger="flowmine.fsa"):
        report = acceptance_ratio(fsa, simul_trace, strategy="exhaustive", budget=1, table=table)
    assert (report.strategy, report.fallback) == ("exhaustive", "oldest-first")
    greedy = acceptance_ratio(fsa, simul_trace, table=table)
    assert (report.accepted, report.rejected) == (greedy.accepted, greedy.rejected)
    assert any("budget" in r.message for r in caplog.records)


def test_exhaustive_search_goes_deeper_than_the_recursion_limit(flowspec, table, caplog):
    # the search keeps its own stack, one frame per message on the
    # path; the limit is lowered only to keep the trace, and the run
    # time, small
    fsa = ground_truth_fsa(flowspec)
    trace = generate(flowspec, GenConfig(instances=40, seed=3, simul_prob=0.2))
    assert trace.msg_count > 100
    with recursion_headroom(100), caplog.at_level(logging.WARNING, logger="flowmine.fsa"):
        report = acceptance_ratio(fsa, trace, strategy="exhaustive", table=table)
    assert (report.strategy, report.fallback) == ("exhaustive", None)
    assert (report.accepted, report.total, report.rejected) == (trace.msg_count, trace.msg_count, ())
    assert caplog.records == []


@st.composite
def replays(draw, max_events=30):
    """A random deterministic FSA and a trace of up to max_events
    events to replay on it.  Two messages open instances from q0; two
    others only advance them, from random states, so several active
    instances in several states often compete for one message.  A
    fifth message is unknown to the FSA.  Some instances carry
    attributes."""
    msgs = [Message(s, d, "x") for s, d in ("ab", "bc", "ca", "bb", "cc")]
    states = tuple("q%d" % i for i in range(draw(st.integers(2, 4))))
    transitions = {(states[0], m): draw(st.sampled_from(states)) for m in msgs[:2]}
    for state in states[1:]:
        for m in msgs[2:4]:
            target = draw(st.none() | st.sampled_from(states))
            if target is not None:
                transitions[(state, m)] = target
    fsa = FSA(states=states, transitions=transitions, initial=states[0])
    instance = st.tuples(st.sampled_from(msgs), st.none() | st.builds(lambda pid: {"pid": pid}, st.integers(0, 3)))
    events = draw(st.lists(st.lists(instance, min_size=1, max_size=3), min_size=1, max_size=max_events))
    table = MessageTable(draw(st.permutations(msgs))) if draw(st.booleans()) else None
    return fsa, attributed(*events), table


def competing_replay(*names):
    """Two openers (o1 to A, o2 to C); m moves A to B, k moves B to D;
    n1 closes A or C, n2 closes B or C, and p closes C only.  Which
    instance an earlier message moved decides whether p is accepted."""
    msg = {name: Message(name, "x", "y") for name in ("o1", "o2", "m", "k", "n1", "n2", "p")}
    fsa = FSA(
        states=(START, "A", "B", "C", "D"),
        transitions={
            (START, msg["o1"]): "A", (START, msg["o2"]): "C",
            ("A", msg["m"]): "B", ("B", msg["k"]): "D",
            ("A", msg["n1"]): START, ("C", msg["n1"]): START,
            ("B", msg["n2"]): START, ("C", msg["n2"]): START,
            ("C", msg["p"]): START,
        },
    )
    return fsa, trace_of(*[[msg[n]] for n in names]), None


@settings(deadline=None, max_examples=300)
@given(replays())
# oldest-first moves the oldest of two instances in A
@example(competing_replay("o1", "o2", "o1", "m", "n1", "p"))
# newest-first moves the newer of two instances that reached B out of spawn order
@example(competing_replay("o1", "o2", "o1", "m", "m", "k", "n2", "p"))
def test_greedy_queues_match_the_list_scan(replay):
    fsa, trace, table = replay
    for strategy, newest in (("oldest-first", False), ("newest-first", True)):
        report = acceptance_ratio(fsa, trace, strategy=strategy, table=table)
        accepted, rejected = reference_greedy(fsa, trace, newest, table)
        assert (report.accepted, report.total) == (accepted, trace.msg_count)
        assert [(e, m.triple()) for e, m in report.rejected] == [(e, m.triple()) for e, m in rejected]


@settings(deadline=None, max_examples=300)
@given(replays(max_events=4))
# both greedy strategies lose a message here (see the test above)
@example(competing_replay("o1", "o2", "o1", "m", "n1", "p"))
@example(competing_replay("o1", "o2", "o1", "m", "m", "k", "n2", "p"))
def test_exhaustive_accepts_the_brute_force_maximum(replay):
    fsa, trace, table = replay
    report = acceptance_ratio(fsa, trace, strategy="exhaustive", table=table)
    assert report.fallback is None
    assert report.accepted == reference_exhaustive(fsa, trace, table)
    assert report.accepted + len(report.rejected) == report.total == trace.msg_count


@st.composite
def index_traces(draw):
    """Events of 1-3 table messages, as lists of table indices."""
    return draw(st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=3), min_size=1, max_size=8))


def indexed_trace(table, idx):
    return trace_of(*[[table.message_at(i) for i in event] for event in idx])


@settings(deadline=None, max_examples=40)
@given(index_traces())
def test_report_counts_are_consistent(flowspec, table, idx):
    fsa = ground_truth_fsa(flowspec)
    t = indexed_trace(table, idx)
    for strategy in ("oldest-first", "newest-first", "exhaustive"):
        report = acceptance_ratio(fsa, t, strategy=strategy, table=table)
        assert report.accepted + len(report.rejected) == report.total == t.msg_count
        assert 0.0 <= report.ratio <= 1.0
        for e_idx, msg in report.rejected:
            assert msg in t.events[e_idx]


@settings(deadline=None, max_examples=40)
@given(index_traces(), st.booleans())
def test_exhaustive_never_worse_than_greedy(flowspec, table, idx, with_table):
    fsa = ground_truth_fsa(flowspec)
    t = indexed_trace(table, idx)
    order = table if with_table else None
    best = acceptance_ratio(fsa, t, strategy="exhaustive", table=order)
    assert best.fallback is None
    for strategy in ("oldest-first", "newest-first"):
        assert best.accepted >= acceptance_ratio(fsa, t, strategy=strategy, table=order).accepted


def test_json_round_trip(flowspec, pipelined_trace, table):
    fsa = ground_truth_fsa(flowspec)
    text = fsa_to_json(fsa)
    back = fsa_from_json(text)
    assert back == fsa
    assert fsa_to_json(back) == text
    report = acceptance_ratio(back, pipelined_trace, table=table)
    assert report.ratio == 1.0


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-10**4000, 10**4000)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F))
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


@settings(max_examples=150)
@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": [[], {}], "d": ({"e": ()},)})
@example(["\u00e9\u2028\U0001f600\ud800", "\x00\x1f\"\\", {"\u00fc\n": -0.0}])
def test_json_text_is_the_indented_sorted_dump(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {"a": {1, 2}}, [b"x"], {"a": [1, object()]}])
def test_json_text_takes_only_str_keys_and_json_types(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_json_rejects_garbage():
    with pytest.raises(ValueError, match="JSON"):
        fsa_from_json("not json {")
    with pytest.raises(ValueError, match="object"):
        fsa_from_json("[1, 2]")
    with pytest.raises(ValueError, match="states"):
        fsa_from_json('{"states": "q0", "initial": "q0", "transitions": []}')
    with pytest.raises(ValueError, match="duplicates"):
        fsa_from_json('{"states": ["q0", "q0"], "initial": "q0", "transitions": []}')
    with pytest.raises(ValueError, match="transition row"):
        fsa_from_json('{"states": ["q0"], "initial": "q0", "transitions": [{"from": "q0"}]}')


def test_json_rejects_nondeterminism():
    row = '{"from": "q0", "msg": {"src": "a", "dest": "b", "cmd": "x"}, "to": "%s"}'
    text = '{"states": ["q0", "q1"], "initial": "q0", "transitions": [%s, %s]}' % (
        row % "q0",
        row % "q1",
    )
    with pytest.raises(ValueError, match="nondeterministic"):
        fsa_from_json(text)


def test_json_rejects_unknown_state():
    text = (
        '{"states": ["q0"], "initial": "q0", "transitions": '
        '[{"from": "q0", "msg": {"src": "a", "dest": "b", "cmd": "x"}, "to": "q7"}]}'
    )
    with pytest.raises(ValueError, match="unknown state"):
        fsa_from_json(text)


def test_json_warns_on_disconnected_states(caplog):
    text = (
        '{"states": ["q0", "q1", "q2"], "initial": "q0", "transitions": '
        '[{"from": "q0", "msg": {"src": "a", "dest": "b", "cmd": "x"}, "to": "q1"}]}'
    )
    with caplog.at_level(logging.WARNING, logger="flowmine.fsa"):
        fsa_from_json(text)
    messages = [r.getMessage() for r in caplog.records]
    assert any("q2 is unreachable" in m for m in messages)
    assert any("q1 cannot return" in m for m in messages)


def test_dot_output(mixed_trace, table):
    graph = annotated_graph([mixed_trace], window=2, table=table)
    sol = solve(build_constraints(graph))
    fsa = derive_fsa(sol, graph)
    text = to_dot(fsa, table=table)
    nodes, edges = check_dot(text)
    assert nodes == {"q0", "q1", "q3", "q5", "q6"}
    assert '"q0" [shape=doublecircle];' in text
    assert len(edges) == 9
    # table indices label the edges
    assert ("q0", "q1", "1") in edges
    assert ("q6", "q0", "4") in edges
    bare = to_dot(fsa)
    assert ("q0", "q1", table.message_at(1).label()) in check_dot(bare)[1]
