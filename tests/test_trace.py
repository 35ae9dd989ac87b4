import pytest
from hypothesis import example, given, settings, strategies as st

import flowmine.trace
from flowmine import (
    Message,
    MessageTable,
    ParseError,
    parse_message_table,
    parse_trace,
    serialize_message_table,
    serialize_trace,
    trace_of,
    unique_messages,
)

from helpers import reference_parse_token

ATOMS = st.text(alphabet="abcdefgh0123", min_size=1, max_size=4)
MESSAGES = st.builds(Message, ATOMS, ATOMS, ATOMS)


def test_message_identity_ignores_attrs():
    a = Message("cpu", "cache", "rd", {"addr": 4096})
    b = Message("cpu", "cache", "rd", {"addr": 8192})
    assert a == b
    assert hash(a) == hash(b)
    assert a.attrs != b.attrs


def test_message_rejects_reserved_characters():
    with pytest.raises(ValueError):
        Message("cp u", "cache", "rd")
    with pytest.raises(ValueError):
        Message("cpu", "ca:che", "rd")
    with pytest.raises(ValueError):
        Message("cpu", "cache", "rd", {"a;b": 1})


def test_plain_strips_attrs():
    m = Message("a", "b", "c", {"pid": 3})
    assert m.plain().attrs == {}
    assert m.plain() == m


def test_event_must_be_nonempty():
    with pytest.raises(ValueError):
        trace_of([])


def test_msg_count_counts_instances():
    t = trace_of(
        [Message("a", "b", "x"), Message("c", "b", "y")],
        [Message("a", "b", "x")],
    )
    assert t.msg_count == 3
    assert len(t) == 2


def test_flattened_positions_are_global():
    m = Message("a", "b", "x")
    t = trace_of([m, m], [m])
    assert [(e, p) for e, p, _ in t.flattened()] == [(0, 0), (0, 1), (1, 2)]


def test_parse_table_and_roundtrip(table):
    assert len(table) == 6
    assert table.index_of(Message("cpu0", "cache", "rd_req")) == 1
    assert table.message_at(6) == Message("mem", "cache", "fetch_resp")
    again = parse_message_table(serialize_message_table(table))
    assert [(i, m) for i, m in again] == [(i, m) for i, m in table]


def test_parse_table_rejects_gaps_and_duplicates():
    with pytest.raises(ParseError):
        parse_message_table("1 (a:b:x)\n3 (c:d:y)\n")
    with pytest.raises(ParseError):
        parse_message_table("1 (a:b:x)\n1 (c:d:y)\n")
    with pytest.raises(ParseError):
        parse_message_table("1 (a:b:x)\n2 (a:b:x)\n")
    with pytest.raises(ParseError):
        parse_message_table("")


def test_parse_trace_braces_and_comments(table):
    t = parse_trace("# header\n{1,3}\n\n5\n", table)
    assert len(t) == 2
    assert len(t.events[0]) == 2
    assert t.events[1].messages[0] == table.message_at(5)


def test_parse_trace_inline_triples_with_attrs():
    t = parse_trace("cpu0:cache:rd_req;addr=0x40;pid=7\n")
    m = t.events[0].messages[0]
    assert m.attrs == {"addr": 64, "pid": 7}


# tokens that hit every branch of the token grammar, reserved
# characters included; '#' never leads, or the line is a comment
PIECES = st.sampled_from(["a", "b1", "", "(", "#a"])
PAIRS = st.builds(
    lambda k, eq, v: k + eq + v,
    st.sampled_from(["a", "b", "", "x(", "y:z"]),
    st.sampled_from(["=", ""]),
    st.sampled_from(["1", "-2", "0x1f", "ab", "", "a=b"]),
)
TOKENS = (
    st.builds(
        lambda head, pairs: ";".join([":".join(head), *pairs]),
        st.lists(PIECES, min_size=3, max_size=3) | st.lists(PIECES, min_size=2, max_size=4),
        st.lists(PAIRS, max_size=3),
    )
    | st.text(alphabet="ab1x:;=(#-", min_size=1, max_size=14)
).filter(lambda t: not t.startswith("#"))


@settings(max_examples=400)
@given(st.lists(TOKENS, min_size=1, max_size=4))
@example(["a:b:c;pid=7;addr=0x40", "a:b:c;tag=x1"])  # accepted
@example(["a:b:c;a="])  # empty value
@example(["a:b:c;x;y"])  # the first malformed pair is named
@example(["a(:b:c;x"])  # a bad atom is named before a malformed pair
@example(["a:b:c;x(=1;y"])  # a malformed pair is named before a bad name
@example(["a:b:c", "a:b:c;x(=1"])  # a bad name, with its line
def test_token_parsing_matches_reference(tokens):
    want: list[Message] = []
    error = None
    for lineno, token in enumerate(tokens, start=1):
        try:
            want.append(reference_parse_token(token, lineno))
        except ParseError as exc:
            error = str(exc)
        except ValueError as exc:
            # a bad attribute name: the reference has no line for it
            error = "line %d: %s" % (lineno, exc)
        if error is not None:
            break
    text = "\n".join(tokens) + "\n"
    if error is not None:
        with pytest.raises(ParseError) as err:
            parse_trace(text)
        assert str(err.value) == error
        return
    got = [e.messages[0] for e in parse_trace(text).events]
    assert [(m.triple(), dict(m.attrs)) for m in got] == [(m.triple(), dict(m.attrs)) for m in want]


def test_attributed_token_is_checked_once(monkeypatch):
    checked = []
    real = flowmine.trace._check_atom
    monkeypatch.setattr(flowmine.trace, "_check_atom", lambda text, what: checked.append(what) or real(text, what))
    parse_trace("cpu0:cache:rd_req;addr=0x40;pid=7\n")
    assert checked == ["source", "destination", "command", "attribute name", "attribute name"]


def test_bad_attribute_name_reports_its_line():
    with pytest.raises(ParseError) as err:
        parse_trace("a:b:c\na:b:c;x(y=1\n")
    assert str(err.value) == "line 2: attribute name 'x(y' contains reserved characters"


def test_parse_trace_index_needs_table():
    with pytest.raises(ParseError):
        parse_trace("1\n")


def test_parse_trace_reports_line_numbers(table):
    with pytest.raises(ParseError) as err:
        parse_trace("1\n9\n", table)
    assert "line 2" in str(err.value)


def test_parse_trace_rejects_empty(table):
    with pytest.raises(ParseError):
        parse_trace("# only a comment\n", table)


def test_serialize_uses_indices_when_possible(table):
    t = parse_trace("{1,3}\n5\n", table)
    assert serialize_trace(t, table) == "1 3\n5\n"


def test_serialize_falls_back_to_triples(table):
    t = parse_trace("1\n", table)
    assert serialize_trace(t) == "cpu0:cache:rd_req\n"


def test_unique_messages_first_appearance_order(mixed_trace, table):
    msgs = unique_messages([mixed_trace])
    assert [table.index_of(m) for m in msgs] == [1, 3, 5, 6, 4, 2]
    assert all(not m.attrs for m in msgs)


# digit-led attr strings would parse back as integers, so string
# values here stay alphabetic
WORDS = st.text(alphabet="abcdxyz", min_size=1, max_size=4)


@given(
    st.lists(
        st.lists(
            st.builds(
                Message,
                ATOMS,
                ATOMS,
                ATOMS,
                st.dictionaries(ATOMS, st.integers(-100, 10000) | WORDS, max_size=2),
            ),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_trace_text_roundtrip(events):
    t = trace_of(*events)
    back = parse_trace(serialize_trace(t))
    assert len(back) == len(t)
    for ev_a, ev_b in zip(t, back):
        for a, b in zip(ev_a, ev_b):
            assert a == b
            assert {k: str(v) for k, v in a.attrs.items()} == {
                k: str(v) for k, v in b.attrs.items()
            }


@given(st.lists(st.lists(MESSAGES, min_size=1, max_size=3), min_size=1, max_size=6))
def test_msg_count_matches_event_sizes(events):
    t = trace_of(*events)
    assert t.msg_count == sum(len(e) for e in events)
