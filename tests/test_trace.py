import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import flowmine.flows
import flowmine.fsa
import flowmine.trace
from flowmine import (
    GenConfig,
    Message,
    MessageTable,
    ParseError,
    generate,
    parse_message_table,
    parse_trace,
    serialize_message_table,
    serialize_trace,
    trace_of,
    unique_messages,
)

from helpers import attributed, reference_parse_token, reference_parse_trace

ATOMS = st.text(alphabet="abcdefgh0123", min_size=1, max_size=4)
MESSAGES = st.builds(Message, ATOMS, ATOMS, ATOMS)


def test_message_rejects_reserved_characters():
    with pytest.raises(ValueError):
        Message("cp u", "cache", "rd")
    with pytest.raises(ValueError):
        Message("cpu", "ca:che", "rd")


def test_event_must_be_nonempty():
    with pytest.raises(ValueError):
        trace_of([])


def test_trace_of_rejects_attribute_names_that_are_not_string_atoms():
    m = Message("a", "b", "c")
    with pytest.raises(ValueError, match="attribute name 1 is not a string"):
        trace_of([m], attrs=[{"x": 3, 1: 2}])
    with pytest.raises(ValueError, match=re.escape("attribute name 'a;b' contains reserved characters")):
        trace_of([m], [m], attrs=[None, {"a;b": 1}])


def test_trace_of_takes_one_attribute_entry_per_instance():
    a, b = Message("a", "b", "c"), Message("b", "c", "a")
    with pytest.raises(ValueError, match="2 attribute mappings for 3 message instances"):
        trace_of([a, b], [a], attrs=[None, {"p": 1}])
    with pytest.raises(ValueError, match="4 attribute mappings for 3 message instances"):
        trace_of([a, b], [a], attrs=[None] * 4)
    # an empty mapping is kept as None, and no attrs means none at all
    pid = {"p": 1}
    t = trace_of([a, b], [a], attrs=iter([{}, pid, None]))
    assert t.attrs == (None, {"p": 1}, None) and t.attrs[1] is pid
    assert trace_of([a, b], [a]).attrs == (None, None, None)
    assert serialize_trace(t) == "a:b:c b:c:a;p=1\na:b:c\n"


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


def test_duplicate_message_names_the_first_duplicate_line():
    text = "1 (a:b:x)\n2 (c:d:y)\n# comment\n3 (c:d:y)\n4 (a:b:x)\n"
    with pytest.raises(ParseError) as err:
        parse_message_table(text)
    assert (str(err.value), err.value.line) == ("line 4: duplicate message c:d:y", 4)


def test_parse_trace_braces_and_comments(table):
    t = parse_trace("# header\n{1,3}\n\n5\n", table)
    assert len(t) == 2
    assert len(t.events[0]) == 2
    assert t.events[1][0] == table.message_at(5)


def test_parse_trace_inline_triples_with_attrs():
    t = parse_trace("cpu0:cache:rd_req;addr=0x40;pid=7\n")
    assert t.events == ((Message("cpu0", "cache", "rd_req"),),)
    assert t.events[0][0] is t.alphabet[0]  # the events read the alphabet
    assert t.attrs == ({"addr": 64, "pid": 7},)


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
    want: list[tuple[Message, dict | None]] = []
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
    got = parse_trace(text)
    assert [len(e) for e in got.events] == [1] * len(tokens)
    assert list(zip([e[0].triple() for e in got.events], got.attrs)) == [(m.triple(), a) for m, a in want]


SMALL_TABLE = parse_message_table("1 (a:b:c)\n2 (b:c:a)\n3 (c:a:b)\n")
TRIPLES = st.builds(lambda *p: ":".join(p), *[st.sampled_from(["a", "b", "c"])] * 3)
GOOD_PAIRS = st.builds(
    lambda k, v: k + "=" + v, st.sampled_from(["pid", "addr", "x"]), st.sampled_from(["1", "-2", "0x1f", "ab", "007"])
)
TRACE_TOKENS = st.one_of(
    st.sampled_from(["1", "2", "3", "0", "4", "\u00b2"]),  # indices, in and out of the table
    TRIPLES,
    st.builds(lambda head, pairs: ";".join([head, *pairs]), TRIPLES, st.lists(GOOD_PAIRS, min_size=1, max_size=3)),
    TOKENS,
)
EVENT_LINES = st.builds(
    lambda tokens, sep, braced: ("{%s}" if braced else "%s") % sep.join(tokens),
    st.lists(TRACE_TOKENS, max_size=3),
    st.sampled_from([" ", ",", " , ", "\t"]),
    st.booleans(),
)
# lines the whole-text split must tell apart: blank and comment lines
# are skipped, bare grouping is an empty event, a '#' after grouping
# or after a token is a token, not a comment, and a comment's ';' and
# bad pairs are no fault
ODD_LINES = st.sampled_from(
    ["", "  ", "# a:b:c", "#1", " #1", "{#y}", ",#x", "a:b:c #x", "{}", " , ", "{,}", "# a;b", "#1;x="]
)
# every line break str.splitlines knows, not only "\n"
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
# lines drawn from a small pool, so that lines repeat as they do in
# real traces and parse_trace reuses what it read for the first one
TRACE_TEXTS = st.builds(
    lambda lines, brk: brk.join(lines) + brk,
    st.lists(EVENT_LINES | ODD_LINES, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
    ),
    BREAKS,
)


@pytest.mark.parametrize("attr_texts", [True, False])  # texts kept, or found again in the text when read
@settings(deadline=None, max_examples=400)
@given(TRACE_TEXTS, st.booleans())
@example("1 a:b:c;pid=1\nb:c:a 2\n", True)  # index and inline name the same message
@example("b:c:a;pid=1 a:b:c 1\n", False)
@example("{}\n", False)
@example("# only\n", True)
@example("{#y}\n", False)  # '#' after grouping is a token
@example("a:b:c\n,#x\n", False)
@example("a:b:c #x\n", False)  # '#' after a token is a token
@example(" , \n", False)  # bare grouping is an empty event
@example("{,}\n", True)
@example("a:b:c\x0cb:c:a;p=1\n", False)  # form feed, NEL and LS break lines too
@example("a:b:c\x85#x\n{,}\n", False)
@example("a:b:c;p=1\u2028\u2028b:c:a;p=1\n", True)
@example("a:b:c;p=1\nb:c:a;p=1;q\n", False)  # a repeated text, then a malformed pair
@example("a:b:c;p=1;q b:c:a;p=1;q\n", False)  # a malformed text is reported at its first token
@example("a:b:c;p=1 b:c:a\na:b:c;p=2;q b:c:a\n", False)  # a clean line, then the same cut line malformed
@example("a:b:c;p=1 2\n#a:b:c;p=2 2\na:b:c;p=3 2\n", True)  # a repeated line written as a comment
@example("a:b:c b:c:a\n{a:b:c,b:c:a}\n a:b:c , b:c:a\na:b:c b:c:a\n", False)  # a repeat with grouping
@example("1 b:c:a\na:b:c b:c:a\n1 b:c:a\n", True)  # an index and the same triple inline
@example("a:b:c;p=1 b:c:a\n# c:a:b;q\nb:c:a;p=2\n", False)  # a malformed pair only in a comment
@example("a:b:c;p=1\n{,}\nb:c:a;q\n", False)  # bare grouping before a malformed pair
@example("1 2\n7 a:b:c;p=1\nb:c:a;p=\n", True)  # a bad index before a malformed pair
@example("a:b:c b:c:a;p=1\nb:c:a;p=2 a:b:c\n", False)  # a bare token next to an attributed one
def test_columnar_parse_matches_reference(attr_texts, text, with_table):
    table = SMALL_TABLE if with_table else None
    try:
        want = reference_parse_trace(text, table)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_trace(text, table, attr_texts=attr_texts)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    got = parse_trace(text, table, attr_texts=attr_texts)
    flat = [pair for event in want for pair in event]
    assert got.attrs == tuple(a for _, a in flat)
    attrs = iter(got.attrs)
    assert [[(m.triple(), next(attrs)) for m in e] for e in got.events] == [
        [(m.triple(), a) for m, a in e] for e in want
    ]
    alphabet = list(table.messages) if table is not None else []
    for m, _ in flat:
        if m not in alphabet:
            alphabet.append(m)
    assert got.alphabet == tuple(alphabet)  # table order, then first appearance
    assert got.event_ids == tuple(tuple(alphabet.index(m) for m, _ in event) for event in want)
    assert got.ids == tuple(alphabet.index(m) for m, _ in flat)
    assert got.event_of == tuple(e for e, event in enumerate(want) for _ in event)
    # equal event lines share one row
    lines = [line for line in text.splitlines() if line.strip() and not line.strip().startswith("#")]
    first: dict[str, int] = {}
    for line, number in zip(lines, got.row_of, strict=True):
        assert first.setdefault(line, number) == number


# Attribute texts over the characters that decide a pair: reserved
# characters in keys, '=' in values, the grouping characters, and
# whitespace that str.split knows beyond ASCII ("\x85" and "\u2028"
# break lines too).
SCANNED_TEXTS = st.text(alphabet="pq1=;:(#{,x \t\n\x1f\x85\u2028", max_size=16)


@settings(max_examples=500)
@given(SCANNED_TEXTS)
@example("p=1;q=a=b")  # '=' inside a value
@example("p(=1;q=2")  # a reserved character in a key
@example("p=1\x1fq;r=1")  # "\x1f" ends a token
@example("p=;q=1\x85r")
def test_scan_flags_exactly_the_attribute_texts_parse_attrs_rejects(text):
    blanked = ("a:b:c;" + text).translate(flowmine.trace._GROUPING)
    rejected = []
    for lineno, line in enumerate(blanked.splitlines(), start=1):
        for token in line.split():
            head, sep, rest = token.partition(";")
            try:
                if sep:
                    flowmine.trace._parse_attrs(rest, lineno)
            except ParseError:
                rejected.append(lineno)
                break
    scan = flowmine.trace._BAD_PAIR.search
    # one search over the text decides whether parse_trace checks its lines
    assert bool(scan(blanked)) == bool(rejected)
    assert [lineno for lineno, line in enumerate(blanked.splitlines(), start=1) if scan(line)] == rejected


def test_parse_builds_no_message_per_instance(long_tagged_trace, table, monkeypatch):
    text = serialize_trace(long_tagged_trace, table)
    built = []
    real = Message.__post_init__
    monkeypatch.setattr(Message, "__post_init__", lambda self: built.append(self) or real(self))
    trace = parse_trace(text, table)
    assert trace.msg_count > 9_000
    assert len(built) <= len(unique_messages([trace])) + 2


def test_attributed_token_is_checked_once(monkeypatch):
    checked = []
    real = flowmine.trace._check_atom
    monkeypatch.setattr(flowmine.trace, "_check_atom", lambda text, what: checked.append(what) or real(text, what))
    trace = parse_trace("cpu0:cache:rd_req;addr=0x40;pid=7\ncpu0:cache:rd_req;pid=8 cpu0:cache:rd_req;addr=0\n")
    # the head once: the scan checks the attribute names, so decoding them checks nothing
    assert checked == ["source", "destination", "command"]
    assert trace.attrs == ({"addr": 64, "pid": 7}, {"pid": 8}, {"addr": 0})
    assert checked == ["source", "destination", "command"]


def test_each_attribute_text_is_decoded_once(monkeypatch):
    calls = []
    real = flowmine.trace._decode_attrs
    monkeypatch.setattr(flowmine.trace, "_decode_attrs", lambda text: calls.append(text) or real(text))
    trace = parse_trace("a:b:c;p=1 b:c:a;p=1\nc:a:b;p=1;q=0x2\n{a:b:c;p=2}\nb:c:a;p=1;q=0x2\n")
    assert calls == []  # parsing decodes nothing
    assert trace.attrs == ({"p": 1}, {"p": 1}, {"p": 1, "q": 2}, {"p": 2}, {"p": 1, "q": 2})
    assert calls == ["p=1", "p=1;q=0x2", "p=2"]  # on first read, once each, in order of first appearance
    assert trace.attrs[3] == {"p": 2}
    assert len(calls) == 3  # later readers reuse the mappings
    # instances with equal attribute text share one mapping
    assert trace.attrs[0] is trace.attrs[1]
    assert trace.attrs[2] is trace.attrs[4]


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


@pytest.mark.parametrize("value", ["x y", "x,y", "{z}", "", "a;b=1", "x\u2028y"])
def test_serialize_refuses_values_that_would_not_read_back(value):
    trace = trace_of([Message("a", "b", "c")], attrs=[{"k": value}])
    with pytest.raises(ValueError, match=re.escape("attribute k=%r " % value)):
        serialize_trace(trace)


def test_unique_messages_first_appearance_order(mixed_trace, table):
    msgs = unique_messages([mixed_trace])
    assert [table.index_of(m) for m in msgs] == [1, 3, 5, 6, 4, 2]


# digit-led attr strings would parse back as integers, so string
# values here stay alphabetic
WORDS = st.text(alphabet="abcdxyz", min_size=1, max_size=4)


@given(
    st.lists(
        st.lists(
            st.tuples(MESSAGES, st.dictionaries(ATOMS, st.integers(-100, 10000) | WORDS, max_size=2)),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_trace_text_roundtrip(events):
    t = attributed(*events)
    back = parse_trace(serialize_trace(t))
    assert back.events == t.events  # every event's triples, in order
    assert len(back.attrs) == len(t.attrs)
    for a, b in zip(t.attrs, back.attrs):
        assert {k: str(v) for k, v in (a or {}).items()} == {k: str(v) for k, v in (b or {}).items()}


@given(st.lists(st.lists(MESSAGES, min_size=1, max_size=3), min_size=1, max_size=6))
def test_msg_count_matches_event_sizes(events):
    t = trace_of(*events)
    assert t.msg_count == sum(len(e) for e in events)


MESSAGE_POOL = [Message(*label.split(":")) for label in ("a:b:c", "b:c:a", "c:a:b", "a:b:x")]


def _grouped(base, members):
    """Per event of base that holds some of members, in the order given,
    the ids of those members: the events of base.select(members)."""
    events, last = [], None
    for pos in members:
        if base.event_of[pos] != last:
            events.append(())
            last = base.event_of[pos]
        events[-1] += (base.ids[pos],)
    return tuple(events)


@st.composite
def row_traces(draw, flowspec, flow_table):
    """(trace, its events as id tuples worked out apart from it, the
    table its messages may be ranked by, its event lines or None), from
    parse_trace, trace_of, generate or Trace.select."""
    source = draw(st.sampled_from(["parse", "trace_of", "generate", "select"]))
    if source == "parse":
        text, with_table = draw(TRACE_TEXTS), draw(st.booleans())
        table = SMALL_TABLE if with_table else None
        try:
            want = reference_parse_trace(text, table)
        except ParseError:
            assume(False)
        trace = parse_trace(text, table, attr_texts=draw(st.booleans()))
        events = tuple(tuple(trace.alphabet.index(m) for m, _ in event) for event in want)
        lines = [line for line in text.splitlines() if line.strip() and not line.strip().startswith("#")]
        return trace, events, table, lines
    if source == "trace_of" or draw(st.booleans()):
        messages = draw(st.lists(st.lists(st.sampled_from(MESSAGE_POOL), min_size=1, max_size=4), min_size=1, max_size=10))
        trace, table = trace_of(*messages), None
        events = tuple(tuple(trace.alphabet.index(m) for m in event) for event in messages)
    else:
        cfg = GenConfig(
            instances=draw(st.integers(1, 6)),
            seed=draw(st.integers(0, 10**6)),
            simul_prob=draw(st.sampled_from([0.0, 0.2, 0.9])),
            tag=draw(st.sampled_from([None, "pid"])),
        )
        trace, table = generate(flowspec, cfg), flow_table
        events = tuple(flowmine.flows._interleave(flowspec, cfg).events)
    if source != "select":
        return trace, events, table, None
    members = sorted(draw(st.sets(st.integers(0, trace.msg_count - 1), min_size=1)))
    return trace.select(members), _grouped(trace, members), table, None


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_a_trace_is_distinct_rows_and_a_row_number_per_event(flowspec, table, data):
    trace, events, rank_table, lines = data.draw(row_traces(flowspec, table))
    assert trace.event_ids == events
    assert len(trace) == len(events)
    assert trace.msg_count == sum(map(len, events))
    # each distinct event is one row, numbered in order of first appearance
    assert len(set(trace.rows)) == len(trace.rows) and all(trace.rows)
    assert list(dict.fromkeys(trace.row_of)) == list(range(len(trace.rows)))
    if lines is not None:  # equal parsed lines share one row number
        first: dict[str, int] = {}
        for line, number in zip(lines, trace.row_of, strict=True):
            assert first.setdefault(line, number) == number
    # replay order: each event sorted by table index, when the table
    # holds every message, and by triple
    used = {trace.alphabet[mid] for row in trace.rows for mid in row}
    if rank_table is None or not used <= set(rank_table.messages):
        rank_table = None
    for by in {None, rank_table}:
        rank = by.index_of if by is not None else Message.triple
        want = [sorted(event, key=lambda mid: rank(trace.alphabet[mid])) for event in events]
        assert list(flowmine.fsa._canonical_events(trace, by)) == want
