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
    parse_trace,
    slice_trace,
    trace_of,
    unique_messages,
)
import flowmine.causality
from flowmine.causality import _thresholds, window_thresholds
from flowmine.extract import annotated_graph
from flowmine.slicing import annotate_sliced, labeled_slices, slice_shapes, slice_units

from helpers import attributed, naive_positions, naive_slices


def tagged(src, dest, cmd, **attrs):
    """A message and its attributes, for attributed."""
    return Message(src, dest, cmd), attrs


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
    for name in ("pid=3", "p d", "pid;x", ""):  # names no attribute text can hold
        with pytest.raises(ValueError, match="attribute name"):
            SlicePolicy(name)
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
    t = attributed([a], [c], [b])
    parts = slice_trace(t, SlicePolicy("pid"))
    assert len(parts) == 2
    assert [attrs["pid"] for p in parts for attrs in p.attrs] == [1, 1, 2]


def test_slice_preserves_same_event_grouping():
    a = tagged("a", "b", "x", pid=1)
    b = tagged("b", "c", "y", pid=1)
    t = attributed([a, b])
    (part,) = slice_trace(t, SlicePolicy("pid"))
    assert len(part) == 1 and len(part.events[0]) == 2


def test_block_mode_merges_nearby_addresses():
    a = tagged("a", "b", "x", addr=4096)
    b = tagged("b", "c", "y", addr=4100)
    c = tagged("a", "b", "x", addr=8192)
    t = attributed([a], [b], [c])
    parts = slice_trace(t, SlicePolicy("addr", block=64))
    assert sorted(p.msg_count for p in parts) == [1, 2]


def test_missing_attribute_isolated_or_dropped():
    a = tagged("a", "b", "x", pid=1)
    bare = tagged("b", "c", "y")
    t = attributed([a], [bare], [bare])
    iso = slice_trace(t, SlicePolicy("pid"))
    assert sorted(p.msg_count for p in iso) == [1, 1, 1]
    dropped = slice_trace(t, SlicePolicy("pid", missing="drop"))
    assert [p.msg_count for p in dropped] == [1]


def test_labeled_slices_names():
    a = tagged("a", "b", "x", pid=7)
    bare = tagged("b", "c", "y")
    t = attributed([a], [bare])
    labels = [label for label, _ in labeled_slices(t, SlicePolicy("pid"))]
    assert labels == ["7", "unkeyed0"]


def test_sliced_node_supports_come_from_full_trace(table):
    # pairing is confined to slices, but node counting is not
    m1, m2 = table.message_at(1), table.message_at(2)  # in different slices
    t = trace_of([m1], [m2], attrs=[{"pid": 1}, {"pid": 2}])
    g = annotated_graph([t], slice_policy=SlicePolicy("pid"), table=table)
    assert g.nodes[table.message_at(1)].support == 1
    assert g.nodes[table.message_at(2)].support == 1
    assert g.edges[(table.message_at(1), table.message_at(2))] == 0


def test_slicing_respects_window(table):
    m1, m5, filler = table.message_at(1), table.message_at(5), table.message_at(3)
    t = trace_of([m1], [filler], [filler], [m5], attrs=[{"pid": 1}, {"pid": 2}, {"pid": 2}, {"pid": 1}])
    g_wide = annotated_graph([t], slice_policy=SlicePolicy("pid"), table=table)
    # inside the slice 1 and 5 are adjacent, so even window 0 pairs them
    g_zero = annotated_graph([t], window=0, slice_policy=SlicePolicy("pid"), table=table)
    key = (table.message_at(1), table.message_at(5))
    assert g_wide.edges[key] == 1
    assert g_zero.edges[key] == 1


ATTRED = st.tuples(
    st.builds(
        Message,
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["x", "y"]),
    ),
    st.one_of(
        st.just({}),
        # an optional second attribute tells apart instances of one slice
        st.fixed_dictionaries({"pid": st.integers(0, 3)}, optional={"addr": st.integers(0, 3)}),
    ),
)
ATTRED_TRACES = st.lists(
    st.lists(ATTRED, min_size=1, max_size=2), min_size=1, max_size=8
).map(lambda evs: attributed(*evs))


def instances(trace):
    """Per instance, in trace order, its triple and sorted attribute pairs."""
    return [
        (m.triple(), tuple(sorted((attrs or {}).items())))
        for (_, _, m), attrs in zip(trace.flattened(), trace.attrs, strict=True)
    ]


def attr_multiset(trace):
    return Counter(instances(trace))


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
    flat = instances(trace)
    for p in slice_trace(trace, SlicePolicy("pid")):
        part = instances(p)
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
    messages = st.tuples(
        st.builds(
            Message,
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["x", "y"]),
        ),
        st.just({}) | st.fixed_dictionaries({"pid": pids}),
    )
    events = st.lists(st.lists(messages, min_size=1, max_size=3), min_size=1, max_size=10)
    return events.map(lambda evs: attributed(*evs))


def frozen(unit_positions):
    positions, starts = unit_positions
    return tuple(sorted((node, tuple(ps)) for node, ps in positions.items())), tuple(starts)


@settings(deadline=None, max_examples=200)
@given(
    keyed_traces(st.integers(0, 200)),
    st.sampled_from(["isolate", "drop"]),
    st.none() | st.sampled_from([1, 64]),
)
def test_slice_positions_match_naive_slices(trace, missing, block):
    # one unit per distinct slice, counted as often as it occurs; an
    # unkeyed message is a unit of its own under either missing policy
    graph = build_graph(unique_messages([trace]), set(), set())
    policy = SlicePolicy("pid", block=block, missing=missing)
    got = Counter()
    for positions, count in slice_units(graph, trace, policy):
        got[frozen(positions)] += count
    parts = naive_slices(trace, "pid", "isolate", block)
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
    [trace_of(*[[Message("a", "b", "x")]] * 3, *[[Message("b", "a", "y")]] * 3,
              attrs=[{"pid": p} for p in (0, 1, 64, 0, 1, 64)])],
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
            positions, starts = naive_positions(part, graph.ordinal)
            for (head, tail), out in want.items():
                heads, tails = positions.get(graph.ordinal(head)), positions.get(graph.ordinal(tail))
                if heads and tails:
                    _thresholds(heads, tails, starts, out)
    assert got == {e: sorted(out) for e, out in want.items()}


@settings(deadline=None, max_examples=100)
@given(
    keyed_traces(st.sampled_from([0, 1, 2])),
    st.none() | st.just(SlicePolicy("pid")),
    st.integers(2, 4),
)
def test_a_counted_unit_matches_its_repeats(trace, policy, k):
    # a unit counted k times gives what k single copies give
    graph = build_graph(unique_messages([trace]), set(), set())
    for unit, _ in slice_units(graph, trace, policy):
        assert window_thresholds(graph, [(unit, k)]) == window_thresholds(graph, [(unit, 1)] * k)


def test_each_slice_shape_is_matched_once(monkeypatch, table):
    # five transactions interleaved, each a 1 then a 2 in later
    # events: five slices of one shape
    first, second = table.message_at(1), table.message_at(2)
    trace = trace_of(*[[first]] * 5, *[[second]] * 5, attrs=[{"pid": p % 5} for p in range(10)])
    assert list(slice_shapes(trace, SlicePolicy("pid")).values()) == [5]
    calls = []

    def counting(heads, tails, starts, out):
        calls.append((heads, tails, starts))
        _thresholds(heads, tails, starts, out)

    monkeypatch.setattr(flowmine.causality, "_thresholds", counting)
    g = annotated_graph([trace], slice_policy=SlicePolicy("pid"), table=table)
    assert [e for e in g.edges if set(e) <= {first, second}] == [(first, second)]
    assert g.edges[(first, second)] == 5
    assert calls == [([0], [1], [0, 1])]  # once for the edge, not once per slice


# Spellings of a pid in trace text, each of a small int.  All but the
# first are decoded to compare them: padded, hex, negative and
# Arabic-Indic digits read as the int, a string as itself, a repeated
# pid as its last value; an extra pair or a missing pid keys nothing
# new.
PID_SPELLINGS = {
    "canonical": "pid=%d".__mod__,
    "padded": "pid=0%d".__mod__,
    "hex": "pid=0x%x".__mod__,
    "negative": "pid=-%d".__mod__,
    "arabic-indic": lambda n: "pid=" + str(n).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    "string": "pid=p%d".__mod__,
    "repeated": "pid=9;pid=%d".__mod__,
    "extra": "a=1;pid=%d".__mod__,
    "none": lambda n: "",
}


@st.composite
def tagged_texts(draw):
    """Trace text whose pids are written in a drawn set of spellings,
    often canonical alone, sometimes after a comment that holds
    attribute text."""
    spellings = st.lists(st.sampled_from(sorted(PID_SPELLINGS)), min_size=1, max_size=3, unique=True)
    kinds = draw(st.just(["canonical"]) | spellings)
    token = st.builds(
        lambda triple, kind, n: triple + (";" + PID_SPELLINGS[kind](n) if kind != "none" else ""),
        st.sampled_from(["a:b:x", "b:c:y", "c:a:x"]),
        st.sampled_from(kinds),
        st.sampled_from([0, 1, 2, 64, 65]),
    )
    lines = draw(st.lists(st.lists(token, min_size=1, max_size=3).map(" ".join), min_size=1, max_size=10))
    comment = ["# a:b:x;pid=5"] if draw(st.booleans()) else []
    return "\n".join(comment + lines) + "\n"


def naive_shape(part, index):
    """A naive slice's shape in its parent's message ids, index."""
    shape, last = [], None
    for e_idx, _, m in part.flattened():
        shape.append(index[m] if e_idx == last else ~index[m])
        last = e_idx
    return tuple(shape)


@settings(deadline=None, max_examples=300)
@given(tagged_texts(), st.sampled_from(["isolate", "drop"]), st.none() | st.sampled_from([1, 64]))
# one value in a canonical and a second spelling that a looser test of
# canonical text would also take
@example("a:b:x;pid=7\nb:c:y;pid=07\n", "isolate", None)
@example("a:b:x;pid=0\nb:c:y;pid=00\n", "drop", None)
@example("a:b:x;pid=17\nb:c:y;pid=1٧\n", "isolate", None)
@example("a:b:x;pid=0\nb:c:y;pid=-0\n", "isolate", None)
def test_parsed_text_slices_match_naive_slices(text, missing, block):
    # canonical pids are keyed by their text, any other spelling by its
    # decoded value; both must slice as the decoded values do
    trace = parse_trace(text)
    policy = SlicePolicy("pid", block=block, missing=missing)
    values = [attrs["pid"] for attrs in trace.attrs if attrs and "pid" in attrs]
    if block is not None and any(isinstance(v, str) for v in values):
        with pytest.raises(ValueError):
            slice_shapes(trace, policy)
        return
    parts = naive_slices(trace, "pid", "isolate", block)  # mining isolates under either policy
    index = {m: mid for mid, m in enumerate(trace.alphabet)}
    assert slice_shapes(trace, policy) == Counter(naive_shape(part, index) for part in parts)
    graph = build_graph(unique_messages([trace]), set(), set())
    got = Counter()
    for positions, count in slice_units(graph, trace, policy):
        got[frozen(positions)] += count
    assert got == Counter(frozen(naive_positions(part, graph.ordinal)) for part in parts)


def test_spellings_of_one_pid_form_one_slice():
    trace = parse_trace("a:b:x;pid=07\nb:c:y;pid=0x7\na:b:x;pid=7\nb:c:y;pid=٧\n")
    a, b = (trace.alphabet.index(Message(*t)) for t in (("a", "b", "x"), ("b", "c", "y")))
    assert slice_shapes(trace, SlicePolicy("pid")) == Counter({(~a, ~b, ~a, ~b): 1})
    assert [(label, part.msg_count) for label, part in labeled_slices(trace, SlicePolicy("pid"))] == [("7", 4)]
