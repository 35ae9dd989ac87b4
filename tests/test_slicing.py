from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from flowmine import (
    GenConfig,
    Message,
    SlicePolicy,
    address_block,
    build_graph,
    detect_entries_exits,
    generate,
    parse_policy,
    slice_trace,
    trace_of,
    unique_messages,
)
import flowmine.causality
from flowmine.causality import _thresholds, window_thresholds
from flowmine.extract import annotated_graph
from flowmine.slicing import annotate_sliced, labeled_slices, slice_shapes, slice_units

from helpers import naive_positions, naive_slices


def tagged(src, dest, cmd, **attrs):
    return Message(src, dest, cmd, attrs)


def test_address_block_is_floor_division():
    assert address_block(0, 64) == 0
    assert address_block(63, 64) == 0
    assert address_block(64, 64) == 1
    assert address_block(4096, 64) == 64


def test_address_block_validates_inputs():
    with pytest.raises(ValueError):
        address_block("40", 64)
    with pytest.raises(ValueError):
        address_block(40, 48)
    with pytest.raises(ValueError):
        address_block(True, 64)


def test_policy_validation():
    with pytest.raises(ValueError):
        SlicePolicy("addr", block=3)
    with pytest.raises(ValueError):
        SlicePolicy("addr", missing="explode")
    SlicePolicy("addr", block=64, missing="drop")


def test_parse_policy_strings():
    p = parse_policy("addr:block=64:missing=drop")
    assert (p.attribute, p.block, p.missing) == ("addr", 64, "drop")
    assert parse_policy("pid").attribute == "pid"
    with pytest.raises(ValueError):
        parse_policy(":block=64")
    with pytest.raises(ValueError):
        parse_policy("addr:block=lots")
    with pytest.raises(ValueError):
        parse_policy("addr:shape=round")


def test_slice_by_key_groups_messages():
    a = tagged("a", "b", "x", pid=1)
    b = tagged("b", "c", "y", pid=1)
    c = tagged("a", "b", "x", pid=2)
    t = trace_of([a], [c], [b])
    parts = slice_trace(t, SlicePolicy("pid"))
    assert len(parts) == 2
    assert [m.attrs["pid"] for p in parts for _, _, m in p.flattened()] == [1, 1, 2]


def test_slice_preserves_same_event_grouping():
    a = tagged("a", "b", "x", pid=1)
    b = tagged("b", "c", "y", pid=1)
    t = trace_of([a, b])
    (part,) = slice_trace(t, SlicePolicy("pid"))
    assert len(part) == 1 and len(part.events[0]) == 2


def test_block_mode_merges_nearby_addresses():
    a = tagged("a", "b", "x", addr=4096)
    b = tagged("b", "c", "y", addr=4100)
    c = tagged("a", "b", "x", addr=8192)
    t = trace_of([a], [b], [c])
    parts = slice_trace(t, SlicePolicy("addr", block=64))
    assert sorted(p.msg_count for p in parts) == [1, 2]


def test_missing_attribute_isolated_or_dropped():
    a = tagged("a", "b", "x", pid=1)
    bare = Message("b", "c", "y")
    t = trace_of([a], [bare], [bare])
    iso = slice_trace(t, SlicePolicy("pid"))
    assert sorted(p.msg_count for p in iso) == [1, 1, 1]
    dropped = slice_trace(t, SlicePolicy("pid", missing="drop"))
    assert [p.msg_count for p in dropped] == [1]


def test_labeled_slices_names():
    a = tagged("a", "b", "x", pid=7)
    bare = Message("b", "c", "y")
    t = trace_of([a], [bare])
    labels = [label for label, _ in labeled_slices(t, SlicePolicy("pid"))]
    assert labels == ["7", "unkeyed0"]


def test_sliced_node_supports_come_from_full_trace(table):
    # pairing is confined to slices, but node counting is not
    m1 = table.message_at(1).with_attrs(pid=1)
    m2 = table.message_at(2).with_attrs(pid=2)  # different slice
    t = trace_of([m1], [m2])
    g = annotated_graph([t], slice_policy=SlicePolicy("pid"), table=table)
    assert g.nodes[table.message_at(1)].support == 1
    assert g.nodes[table.message_at(2)].support == 1
    assert g.edges[(table.message_at(1), table.message_at(2))] == 0


def test_slicing_respects_window(table):
    m1 = table.message_at(1).with_attrs(pid=1)
    m5 = table.message_at(5).with_attrs(pid=1)
    filler = table.message_at(3).with_attrs(pid=2)
    t = trace_of([m1], [filler], [filler], [m5])
    g_wide = annotated_graph([t], slice_policy=SlicePolicy("pid"), table=table)
    # inside the slice 1 and 5 are adjacent, so even window 0 pairs them
    g_zero = annotated_graph([t], window=0, slice_policy=SlicePolicy("pid"), table=table)
    key = (table.message_at(1), table.message_at(5))
    assert g_wide.edges[key] == 1
    assert g_zero.edges[key] == 1


ATTRED = st.builds(
    Message,
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["x", "y"]),
    st.one_of(
        st.just({}),
        st.fixed_dictionaries({"pid": st.integers(0, 3)}),
    ),
)
ATTRED_TRACES = st.lists(
    st.lists(ATTRED, min_size=1, max_size=2), min_size=1, max_size=8
).map(lambda evs: trace_of(*evs))


def attr_multiset(trace):
    return Counter((m.triple(), tuple(sorted(m.attrs.items()))) for _, _, m in trace.flattened())


@settings(deadline=None)
@given(ATTRED_TRACES)
def test_isolate_slicing_partitions_the_trace(trace):
    parts = slice_trace(trace, SlicePolicy("pid"))
    combined = Counter()
    for p in parts:
        combined.update(attr_multiset(p))
    assert combined == attr_multiset(trace)


@settings(deadline=None)
@given(ATTRED_TRACES)
def test_slice_order_is_a_subsequence(trace):
    flat = [(m.triple(), tuple(sorted(m.attrs.items()))) for _, _, m in trace.flattened()]
    for p in slice_trace(trace, SlicePolicy("pid")):
        part = [(m.triple(), tuple(sorted(m.attrs.items()))) for _, _, m in p.flattened()]
        it = iter(flat)
        assert all(x in it for x in part)  # subsequence check


@settings(deadline=None)
@given(ATTRED_TRACES, st.integers(0, 3) | st.none())
def test_sliced_edge_support_never_exceeds_unbounded_unsliced(trace, window):
    # slice pairs are a legal matching of the unbounded problem, so
    # aggregation can never beat unbounded annotation.  The same does
    # NOT hold against equal-window unsliced annotation: removing
    # foreign messages shortens distances inside a slice, which is the
    # point of slicing.
    unbounded = annotated_graph([trace])
    sliced = annotated_graph([trace], window, slice_policy=SlicePolicy("pid"))
    for e, s in sliced.edges.items():
        assert s <= unbounded.edges[e]


@pytest.mark.parametrize("window", [0, 1, 3, 10, None])
def test_annotate_sliced_gives_the_supports_mine_reads(flowspec, table, window):
    trace = generate(flowspec, GenConfig(instances=6, seed=3, simul_prob=0.3, tag="pid"))
    policy = SlicePolicy("pid")
    graph = build_graph(unique_messages([trace]), *detect_entries_exits([trace]), table)
    annotate_sliced(graph, trace, policy, window)
    want = annotated_graph([trace], window, policy, table)
    assert {m: s.support for m, s in graph.nodes.items()} == {m: s.support for m, s in want.nodes.items()}
    assert graph.edges == want.edges
    assert any(graph.edges.values())


def keyed_traces(pids):
    messages = st.builds(
        Message,
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["x", "y"]),
        st.just({}) | st.fixed_dictionaries({"pid": pids}),
    )
    events = st.lists(st.lists(messages, min_size=1, max_size=3), min_size=1, max_size=10)
    return events.map(lambda evs: trace_of(*evs))


def frozen(positions):
    return tuple(sorted((node, tuple(ps)) for node, ps in positions.items()))


@settings(deadline=None, max_examples=200)
@given(
    keyed_traces(st.integers(0, 200)),
    st.sampled_from(["isolate", "drop"]),
    st.none() | st.sampled_from([1, 64]),
)
def test_slice_positions_match_naive_slices(trace, missing, block):
    # one unit per distinct slice, counted as often as it occurs
    graph = build_graph(unique_messages([trace]), set(), set())
    policy = SlicePolicy("pid", block=block, missing=missing)
    got = Counter()
    for positions, count in slice_units(graph, trace, policy):
        got[frozen(positions)] += count
    parts = naive_slices(trace, "pid", missing, block)
    want = Counter(frozen(naive_positions(part, graph.ordinal)) for part in parts)
    assert got == want
    assert len(slice_units(graph, trace, policy)) == len(slice_shapes(trace, policy)) == len(want)


@settings(deadline=None, max_examples=200)
@given(
    # few keys, in three blocks of 64, so that slices often share a shape
    st.lists(keyed_traces(st.sampled_from([0, 1, 2, 64, 65, 130])), min_size=1, max_size=3),
    st.sampled_from(["isolate", "drop"]),
    st.none() | st.sampled_from([1, 64]),
)
@example([trace_of([Message("a", "b", "x")], [Message("b", "c", "y")])], "drop", None)
@example(
    [trace_of(*([Message("a", "b", "x", {"pid": p})] for p in (0, 1, 64)),
              *([Message("b", "a", "y", {"pid": p})] for p in (0, 1, 64)))],
    "isolate",
    None,
)
def test_thresholds_from_counted_shapes_match_every_naive_slice(traces, missing, block):
    # every causal pair is an edge, so every slice's pairings count
    graph = build_graph(unique_messages(traces), set(), set())
    policy = SlicePolicy("pid", block=block, missing=missing)
    got = window_thresholds(graph, [u for t in traces for u in slice_units(graph, t, policy)])
    want = {e: [] for e in graph.edges}
    for t in traces:
        for part in naive_slices(t, "pid", missing, block):
            positions = naive_positions(part, graph.ordinal)
            for (head, tail), out in want.items():
                heads, tails = positions.get(graph.ordinal(head)), positions.get(graph.ordinal(tail))
                if heads and tails:
                    _thresholds(heads, tails, out)
    assert got == {e: sorted(out) for e, out in want.items()}


def test_each_slice_shape_is_matched_once(monkeypatch, table):
    # five transactions interleaved, each a 1 then a 2 in later
    # events: five slices of one shape
    first, second = table.message_at(1), table.message_at(2)
    trace = trace_of(*([first.with_attrs(pid=p)] for p in range(5)),
                     *([second.with_attrs(pid=p)] for p in range(5)))
    assert list(slice_shapes(trace, SlicePolicy("pid")).values()) == [5]
    calls = []

    def counting(heads, tails, out):
        calls.append((heads, tails))
        _thresholds(heads, tails, out)

    monkeypatch.setattr(flowmine.causality, "_thresholds", counting)
    g = annotated_graph([trace], slice_policy=SlicePolicy("pid"), table=table)
    assert [e for e in g.edges if set(e) <= {first, second}] == [(first, second)]
    assert g.edges[(first, second)] == 5
    assert calls == [([(0, 0)], [(1, 1)])]  # once for the edge, not once per slice
