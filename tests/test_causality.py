import pytest
from hypothesis import given, settings, strategies as st

from flowmine import (
    Message,
    MessageTable,
    annotate,
    build_graph,
    causal,
    detect_initials,
    detect_terminals,
    dump_graph,
    support_deltas,
    trace_of,
    unique_messages,
)
from flowmine.causality import _thresholds
from flowmine.extract import annotated_graph, prepare_annotation
from flowmine.slicing import SlicePolicy, annotate_sliced

from helpers import naive_cycle_groups, naive_edge_support, naive_initials, naive_positions, naive_terminals


def idx_edges(graph, table):
    return {
        (table.index_of(h), table.index_of(t)): s for (h, t), s in graph.edges.items()
    }


def test_causal_is_destination_to_source():
    a = Message("cpu", "cache", "rd")
    b = Message("cache", "mem", "fetch")
    assert causal(a, b)
    assert not causal(b, a)
    assert causal(a, a) is False  # cache != cpu


def test_start_end_on_worked_trace(mixed_trace, table):
    starts = {table.index_of(m) for m in detect_initials([mixed_trace])}
    ends = {table.index_of(m) for m in detect_terminals([mixed_trace])}
    assert starts == {1, 3}
    assert ends == {2, 4}


def test_single_message_trace_is_both_start_and_end():
    m = Message("a", "b", "x")
    t = trace_of([m])
    assert detect_initials([t]) == {m}
    assert detect_terminals([t]) == {m}


def test_later_repeat_does_not_revoke_start(table):
    # message 2 precedes the second 1, yet 1 starts the trace: only
    # the first occurrence decides
    trace = trace_of(
        [table.message_at(1)],
        [table.message_at(2)],
        [table.message_at(1)],
        [table.message_at(2)],
    )
    starts = {table.index_of(m) for m in detect_initials([trace])}
    assert 1 in starts


def test_detection_is_conjunction_across_traces(table):
    m1, m2 = table.message_at(1), table.message_at(2)
    alone = trace_of([m2])  # 2 looks initial here
    chained = trace_of([m1], [m2])  # but not here
    assert m2 not in detect_initials([alone, chained])
    assert m2 in detect_initials([alone])


def test_same_event_messages_never_pair(table):
    m1, m2 = table.message_at(1), table.message_at(2)
    t = trace_of([m1, m2])
    assert m2 in detect_initials([t])
    g = annotated_graph([t], table=table)
    assert g.edges == {}


def test_graph_prunes_entries_and_exits(mixed_trace, table):
    g = annotated_graph([mixed_trace], table=table)
    got = set(idx_edges(g, table))
    assert got == {
        (1, 2), (1, 4), (1, 5), (3, 2), (3, 4), (3, 5),
        (5, 6), (6, 2), (6, 4), (6, 5),
    }
    # edges into starts or out of ends never exist
    assert (2, 1) not in got
    assert (4, 3) not in got


def test_unbounded_supports_on_worked_trace(mixed_trace, table):
    g = annotated_graph([mixed_trace], table=table)
    assert all(st.support == 2 for st in g.nodes.values())
    assert idx_edges(g, table) == {
        (1, 2): 2, (1, 4): 2, (1, 5): 2, (3, 2): 2, (3, 4): 2, (3, 5): 2,
        (5, 6): 2, (6, 2): 2, (6, 4): 2, (6, 5): 1,
    }


def test_windowed_supports_on_worked_trace(mixed_trace, table):
    g = annotated_graph([mixed_trace], window=2, table=table)
    assert idx_edges(g, table) == {
        (1, 2): 1, (1, 4): 0, (1, 5): 2, (3, 2): 0, (3, 4): 1, (3, 5): 2,
        (5, 6): 2, (6, 2): 2, (6, 4): 2, (6, 5): 0,
    }


def test_multi_trace_supports_accumulate(mixed_trace, hits_trace, table):
    g = annotated_graph([mixed_trace, hits_trace], table=table)
    supports = {table.index_of(m): st.support for m, st in g.nodes.items()}
    assert supports == {1: 3, 2: 3, 3: 3, 4: 3, 5: 2, 6: 2}
    edges = idx_edges(g, table)
    assert edges[(1, 2)] == 3 and edges[(3, 4)] == 3
    assert edges[(1, 4)] == 3 and edges[(3, 2)] == 3
    assert edges[(5, 6)] == 2 and edges[(6, 5)] == 1


def test_support_deltas_reject_unknown_messages(table):
    g = build_graph([table.message_at(1)], {table.message_at(1)}, {table.message_at(1)}, table)
    foreign = trace_of([Message("x", "y", "z")])
    with pytest.raises(ValueError):
        support_deltas(g, foreign)


def test_sliced_annotation_rejects_unknown_messages(table):
    g = build_graph([table.message_at(1)], {table.message_at(1)}, {table.message_at(1)}, table)
    foreign = trace_of([Message("x", "y", "z")])
    with pytest.raises(ValueError, match="message x:y:z is not a graph node"):
        annotate_sliced(g, foreign, SlicePolicy("pid"))


def test_ordinals_follow_table_else_insertion(mixed_trace, table):
    g = annotated_graph([mixed_trace], table=table)
    assert g.ordinal(table.message_at(6)) == 6
    g2 = annotated_graph([mixed_trace])  # no table: first-appearance rank
    first_seen = unique_messages([mixed_trace])
    assert [g2.ordinal(m) for m in first_seen] == [1, 2, 3, 4, 5, 6]


def test_dump_graph_shape_and_cycles(mixed_trace, table):
    g = annotated_graph([mixed_trace], table=table)
    dump = dump_graph(g)
    assert {n["index"] for n in dump["nodes"]} == {1, 2, 3, 4, 5, 6}
    assert all(set(e) == {"head", "tail", "support"} for e in dump["edges"])
    # 5 -> 6 -> 5 is a structural cycle and must be reported
    labels = {frozenset(group) for group in dump["cycles"]}
    assert frozenset({"cache:mem:fetch_req", "mem:cache:fetch_resp"}) in labels


def test_self_loop_reported_as_cycle():
    # the looping message must be neither initial nor terminal, or the
    # entry/exit pruning removes the loop
    start = Message("b", "a", "go")
    m = Message("a", "a", "ping")
    end = Message("a", "c", "out")
    t = trace_of([start], [m], [m], [end])
    g = annotated_graph([t])
    assert (m, m) in g.edges and g.edges[(m, m)] == 1
    dump = dump_graph(g)
    assert ["a:a:ping"] in dump["cycles"]


COMPONENTS = st.sampled_from(["a", "b", "c"])
CMDS = st.sampled_from(["x", "y"])
RAND_MESSAGES = st.builds(Message, COMPONENTS, COMPONENTS, CMDS)
RAND_TRACES = st.lists(
    st.lists(RAND_MESSAGES, min_size=1, max_size=2), min_size=1, max_size=10
).map(lambda evs: trace_of(*evs))


ALL_MESSAGES = [Message(s, d, c) for s in "abc" for d in "abc" for c in "xy"]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_cycle_groups_match_mutual_reachability(data):
    # random structure: any nodes, any entry/exit marks, some edges
    # dropped; a:a:x and the like give self-loops
    msgs = data.draw(st.lists(RAND_MESSAGES, min_size=1, max_size=14, unique=True))
    initials = data.draw(st.sets(st.sampled_from(msgs)))
    terminals = data.draw(st.sets(st.sampled_from(msgs)))
    table = data.draw(st.none() | st.permutations(ALL_MESSAGES).map(MessageTable))
    graph = build_graph(msgs, initials, terminals, table)
    if graph.edges:
        for edge in data.draw(st.sets(st.sampled_from(list(graph.edges)))):
            del graph.edges[edge]
    order = sorted(graph.nodes, key=graph.ordinal)
    index = {m: i for i, m in enumerate(order)}
    expected = naive_cycle_groups(len(order), [(index[h], index[t]) for h, t in graph.edges])
    assert dump_graph(graph)["cycles"] == [[order[i].label() for i in group] for group in expected]


@settings(deadline=None)
@given(RAND_TRACES)
def test_detection_matches_naive_oracle(trace):
    assert detect_initials([trace]) == naive_initials([trace])
    assert detect_terminals([trace]) == naive_terminals([trace])


@settings(deadline=None)
@given(RAND_TRACES, st.integers(0, 4) | st.none())
def test_matcher_agrees_with_quadratic_oracle(trace, window):
    graph = annotated_graph([trace], window=window)
    for (h, t), got in graph.edges.items():
        assert got == naive_edge_support(trace, h, t, window), (h, t, window)


# Longer traces over fewer messages, so every message recurs many times,
# and a and b components so that a:a:x and b:b:x give self-loop edges.
LONG_MESSAGES = st.builds(Message, st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]), CMDS)
LONG_TRACES = st.lists(
    st.lists(LONG_MESSAGES, min_size=1, max_size=3), min_size=1, max_size=40
).map(lambda evs: trace_of(*evs))


@settings(deadline=None, max_examples=100)
@given(LONG_TRACES)
def test_stack_matcher_agrees_with_quadratic_oracle_on_long_traces(trace):
    # every ordered pair of messages, head == tail included, whether or
    # not the pair survives as a graph edge: one threshold pass counts
    # the pairs at every window
    positions, starts = naive_positions(trace, lambda m: m)
    msgs = unique_messages([trace])
    for head in msgs:
        for tail in msgs:
            found: list[int] = []
            _thresholds(positions[head], positions[tail], starts, found)
            for window in [*range(51), None]:
                got = sum(1 for w in found if window is None or w <= window)
                assert got == naive_edge_support(trace, head, tail, window), (head, tail, window)


@settings(deadline=None)
@given(RAND_TRACES, st.integers(0, 5))
def test_window_growth_never_lowers_support(trace, w):
    narrow = annotated_graph([trace], window=w)
    wide = annotated_graph([trace], window=w + 1)
    unbounded = annotated_graph([trace])
    for e in narrow.edges:
        assert narrow.edges[e] <= wide.edges[e] <= unbounded.edges[e]


@settings(deadline=None)
@given(
    RAND_TRACES,
    st.none() | st.permutations(ALL_MESSAGES).map(MessageTable),
    st.integers(0, 4) | st.none(),
)
def test_graph_nodes_and_edges_are_in_ordinal_order(trace, table, window):
    # the readers of a graph (constraints, dump, FSA, cycles) rely on
    # this order and do not sort
    prepared = prepare_annotation([trace], table=table)
    for graph in (prepared.graph, prepared.at(window), annotate(prepared.at(None), trace)):
        assert list(graph.nodes) == sorted(graph.nodes, key=graph.ordinal)
        assert list(graph.edges) == sorted(graph.edges, key=lambda e: (graph.ordinal(e[0]), graph.ordinal(e[1])))


@settings(deadline=None)
@given(RAND_TRACES)
def test_edge_support_bounded_by_node_supports(trace):
    g = annotated_graph([trace])
    for (h, t), s in g.edges.items():
        assert s <= min(g.nodes[h].support, g.nodes[t].support)
