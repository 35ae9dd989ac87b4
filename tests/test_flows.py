import pytest
from hypothesis import given, settings, strategies as st

from flowmine import (
    Flow,
    FlowSpec,
    GenConfig,
    Message,
    ParseError,
    START,
    acceptance_ratio,
    generate,
    ground_truth_fsa,
    parse_flowspec,
    parse_trace,
    serialize_trace,
    trace_of,
)

from helpers import reference_simulate, simulate

A = Message("a", "b", "p")
B = Message("b", "c", "q")
C = Message("c", "d", "r")


def test_parse_flowspec_fixture(flowspec, table):
    assert [f.name for f in flowspec.flows] == ["cpu0_read", "cpu1_read"]
    cpu0 = flowspec.flow("cpu0_read")
    assert cpu0.branches == (
        (table.message_at(1), table.message_at(2)),
        (table.message_at(1), table.message_at(5), table.message_at(6), table.message_at(2)),
    )
    assert cpu0.first == table.message_at(1)
    with pytest.raises(KeyError):
        flowspec.flow("dma_write")


def test_parse_inline_triples_without_table():
    spec = parse_flowspec("flow ping:\n  branch: a:b:hi b:a:ok\n")
    assert spec.flows[0].branches == ((Message("a", "b", "hi"), Message("b", "a", "ok")),)


def test_flow_validation():
    with pytest.raises(ValueError, match="no branches"):
        Flow("f", ())
    with pytest.raises(ValueError, match="first message"):
        Flow("f", ((A, B), (B, C)))
    with pytest.raises(ValueError, match="does not lead to"):
        Flow("f", ((A, C),))
    with pytest.raises(ValueError, match="duplicate flow names"):
        FlowSpec((Flow("f", ((A, B),)), Flow("f", ((A, B),))))
    with pytest.raises(ValueError, match="carries attributes"):
        Flow("f", ((A, B.with_attrs(pid=1)),))


@pytest.mark.parametrize(
    "text, match",
    [
        ("branch: 1 2\n", "outside"),
        ("flow f\n  branch: 1 2\n", "flow <name>"),
        ("flow :\n", "needs a name"),
        ("flow f:\n  branch:\n", "no messages"),
        ("flow f:\n  branch: 99\n", "99"),
        ("flow f:\n  branch: 1 3\n", "does not lead to"),
        ("what is this\n", "expected"),
        ("", "no flows"),
        ("flow f:\n", "no branches"),
        # branch tokens carry no attributes; the index or triple is checked first
        ("flow f:\n  branch: a:b:x;pid=1 b:a:y\n", "line 2: 'a:b:x;pid=1' carries attributes"),
        ("flow f:\n  branch: 1 2;\n", "line 2: '2;' carries attributes"),
        ("flow f:\n  branch: a:b;pid=1\n", "line 2: expected 'src:dest:cmd'"),
        ("flow f:\n  branch: 99;pid=1\n", "line 2: message index 99 is not in the table"),
    ],
)
def test_parse_flowspec_errors(table, text, match):
    with pytest.raises(ParseError, match=match):
        parse_flowspec(text, table)


def test_parse_error_carries_line_number(table):
    with pytest.raises(ParseError, match="line 3"):
        parse_flowspec("flow f:\n  branch: 1 2\n  branch: oops\n", table)


def test_genconfig_validation():
    with pytest.raises(ValueError, match="non-negative"):
        GenConfig(instances=-1)
    with pytest.raises(ValueError, match="non-negative"):
        GenConfig(instances={"f": -2})
    with pytest.raises(ValueError, match="max_gap"):
        GenConfig(max_gap=0)
    with pytest.raises(ValueError, match="simul_prob"):
        GenConfig(simul_prob=1.5)
    with pytest.raises(ValueError, match="reserved"):
        GenConfig(tag="bad:tag")
    cfg = GenConfig(instances={"f": 2})
    assert cfg.count_for(Flow("f", ((A, B),))) == 2
    assert cfg.count_for(Flow("g", ((A, B),))) == 0


def test_simulation_is_deterministic(flowspec, table):
    cfg = GenConfig(instances=4, seed=7, simul_prob=0.3)
    first = serialize_trace(generate(flowspec, cfg), table)
    second = serialize_trace(generate(flowspec, cfg), table)
    assert first == second
    other = serialize_trace(generate(flowspec, GenConfig(instances=4, seed=8, simul_prob=0.3)), table)
    assert first != other


def test_instances_replay_their_branches(flowspec):
    result = simulate(flowspec, GenConfig(instances=3, seed=2))
    assert sorted(i.instance_id for i in result.instances) == list(range(6))
    for inst in result.instances:
        branch = flowspec.flow(inst.flow).branches[inst.branch]
        assert tuple(m for _, m in inst.emissions) == branch
        indices = [e for e, _ in inst.emissions]
        assert indices == sorted(indices) and len(set(indices)) == len(indices)
        for e_idx, msg in inst.emissions:
            assert msg in result.trace.events[e_idx].messages
    # the trace is exactly the instances' emissions, nothing else
    assert result.trace.msg_count == sum(len(i.emissions) for i in result.instances)


def test_instance_mapping_selects_flows(flowspec):
    result = simulate(flowspec, GenConfig(instances={"cpu0_read": 2}, seed=0))
    assert len(result.instances) == 2
    assert {i.flow for i in result.instances} == {"cpu0_read"}


def test_unknown_flow_name_rejected(flowspec):
    with pytest.raises(ValueError, match="unknown flow names"):
        simulate(flowspec, GenConfig(instances={"dma_write": 1}))


def test_zero_instances_rejected(flowspec):
    with pytest.raises(ValueError, match="no instances"):
        simulate(flowspec, GenConfig(instances=0))


def test_tag_stamps_instance_ids(flowspec):
    result = simulate(flowspec, GenConfig(instances=2, seed=5, tag="pid"))
    for inst in result.instances:
        for _, msg in inst.emissions:
            assert msg.attrs["pid"] == inst.instance_id
    for event in result.trace.events:
        for msg in event.messages:
            assert "pid" in msg.attrs


def test_events_stay_single_without_pairing():
    # gaps of idle instances then grow in steps of one and stay
    # pairwise distinct, so the bound never forces two out at once
    spec = FlowSpec((Flow("f", ((A, B, C),)),))
    for seed in range(20):
        result = simulate(spec, GenConfig(instances=5, seed=seed, max_gap=1))
        sizes = [len(e.messages) for e in result.trace.events]
        assert sum(sizes) == 15
        assert sizes == [1] * 15


def test_gap_bound_can_force_joint_emission():
    # a paired event starves several instances equally; the scheduler
    # must then emit them together, beyond the pair size itself
    spec = FlowSpec((Flow("f", ((A, B, C),)),))
    cfg = GenConfig(instances=5, seed=1, max_gap=1, simul_prob=1.0)
    sizes = [len(e.messages) for e in simulate(spec, cfg).trace.events]
    assert max(sizes) >= 3


def test_simul_prob_pairs_messages(flowspec):
    trace = generate(flowspec, GenConfig(instances=3, seed=4, simul_prob=1.0))
    assert any(len(e.messages) >= 2 for e in trace.events)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 4),
    max_gap=st.sampled_from([1, 2, 3, 10]),
    simul=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_gap_bound_holds(flowspec, seed, n, max_gap, simul):
    cfg = GenConfig(instances=n, seed=seed, max_gap=max_gap, simul_prob=simul)
    result = simulate(flowspec, cfg)
    lengths = [len(e.messages) for e in result.trace.events]
    for inst in result.instances:
        indices = [e for e, _ in inst.emissions]
        for e1, e2 in zip(indices, indices[1:]):
            assert sum(lengths[e1 + 1 : e2]) <= max_gap


BRANCHED = FlowSpec((
    Flow("f", ((A, B, C), (A, Message("b", "e", "s")))),
    Flow("g", ((Message("x", "a", "t"), Message("a", "y", "u")),)),
))


@settings(deadline=None, max_examples=60)
@given(
    spec=st.sampled_from(["cache_read", "chain", "branched"]),
    seed=st.integers(0, 10**6),
    n=st.integers(1, 25),
    max_gap=st.sampled_from([1, 2, 3, 10]),
    simul=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    tag=st.sampled_from([None, "pid"]),
)
def test_simulate_matches_the_quadratic_reference(flowspec, spec, seed, n, max_gap, simul, tag):
    # same traces and instances, draw for draw, as the scheduler that
    # rescans every unfinished instance each round
    spec = {"cache_read": flowspec, "chain": FlowSpec((Flow("f", ((A, B, C),)),)), "branched": BRANCHED}[spec]
    cfg = GenConfig(instances=n, seed=seed, max_gap=max_gap, simul_prob=simul, tag=tag)
    result, reference = simulate(spec, cfg), reference_simulate(spec, cfg)
    assert result == reference
    # Message equality ignores attributes: compare them, and the text
    assert result.trace.attrs == reference.trace.attrs
    text = serialize_trace(reference.trace)
    assert serialize_trace(result.trace) == text
    assert serialize_trace(generate(spec, cfg)) == text
    for got, want in zip(result.instances, reference.instances):
        assert [m.attrs for _, m in got.emissions] == [m.attrs for _, m in want.emissions]


def test_generate_builds_no_message_per_emission(flowspec, table, monkeypatch):
    built = []
    real = Message.__post_init__
    monkeypatch.setattr(Message, "__post_init__", lambda self: built.append(self) or real(self))
    trace = generate(flowspec, GenConfig(instances=300, seed=3, simul_prob=0.2, tag="pid"))
    assert trace.msg_count > 1000
    assert len(built) <= len(table)
    # one mapping per instance, shared by all of its messages
    assert len({id(a) for a in trace.attrs}) == 600


def test_serialize_formats_shared_and_separate_mappings_alike():
    text = "a:b:x;pid=1 b:c:y;pid=2\nb:c:y;pid=1;addr=0x10\nc:d:z;pid=2\na:b:x;addr=16;pid=1\n"
    shared = parse_trace(text)
    separate = trace_of(*([m.with_attrs() for m in event] for event in shared.events))
    assert len({id(a) for a in shared.attrs}) == 4  # one per distinct attribute text
    assert len({id(a) for a in separate.attrs}) == 5
    assert serialize_trace(shared) == serialize_trace(separate) == (
        "a:b:x;pid=1 b:c:y;pid=2\nb:c:y;addr=16;pid=1\nc:d:z;pid=2\na:b:x;addr=16;pid=1\n"
    )


def test_ground_truth_shape(flowspec, table):
    fsa = ground_truth_fsa(flowspec)
    m = table.message_at
    assert fsa.states == (START, "q1", "q2", "q3", "q4", "q5", "q6")
    assert fsa.transitions == {
        (START, m(1)): "q1",
        ("q1", m(2)): START,
        ("q1", m(5)): "q2",
        ("q2", m(6)): "q3",
        ("q3", m(2)): START,
        (START, m(3)): "q4",
        ("q4", m(4)): START,
        ("q4", m(5)): "q5",
        ("q5", m(6)): "q6",
        ("q6", m(4)): START,
    }


def test_ground_truth_rejects_shared_opening():
    f1 = Flow("f1", ((A, B),))
    f2 = Flow("f2", ((A, Message("b", "x", "y")),))
    with pytest.raises(ValueError, match="ambiguous"):
        ground_truth_fsa(FlowSpec((f1, f2)))


def test_ground_truth_rejects_extending_branch():
    flow = Flow("f", ((A, B), (A, B, C)))
    with pytest.raises(ValueError, match="ambiguous"):
        ground_truth_fsa(FlowSpec((flow,)))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 3))
def test_generated_traces_are_always_accepted(flowspec, table, seed, n):
    fsa = ground_truth_fsa(flowspec)
    trace = generate(flowspec, GenConfig(instances=n, seed=seed, max_gap=4, simul_prob=0.3))
    report = acceptance_ratio(fsa, trace, strategy="exhaustive", table=table)
    assert report.ratio == 1.0
