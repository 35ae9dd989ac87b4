"""Message and trace primitives shared by the whole package.

A trace is an ordered sequence of events; each event is a non-empty
group of message instances observed together.  Ordering exists only
between events, never inside one.  A message is its (source,
destination, command) triple.  The attribute pairs of an instance
(address, packet id, ...) are runtime payload: the trace holds them
beside the instance, and they take no part in identity.

A Trace is held as its distinct event rows, each a tuple of message
ids, plus one row number per event, and each instance's attributes.
The ids index the trace's alphabet of distinct messages, so parsing
builds one Message per distinct triple, not one per instance, and
detection, slicing, annotation and replay work on ints.  SoC traces
repeat a small set of event lines over and over (in the generated
cache workloads, 88-89% of the lines repeat an earlier line once
attributes are cut), so parsing reads each distinct line once and
numbers it, and replay puts each distinct row in canonical order once
and reads the order of an event through its number.  Detection and
first-appearance order walk the events in from each end, reading each
distinct row once, and stop once every message is found (see
Trace.extents).  The per-event tuples and the per-instance columns
(event index, message id) are derived from the rows on first read;
neither mining nor replay reads them.  Parsing checks the attributes
but decodes none: a parsed trace keeps each instance's attribute text,
or finds the texts again in the trace text when first read, as the
caller asks; it decodes each distinct text once, when first read.  The
event views give plain messages read from the alphabet; attributes are
read from Trace.attrs.

Text formats
------------
Message table, one line per entry, indices dense from 1::

    1 (cpu0:cache:rd_req)

Trace, one line per event.  Tokens are table indices or inline
triples, attribute pairs attach with ``;``.  ``{a,b}`` grouping and
plain multi-token lines mean the same thing.  ``#`` lines and blank
lines are skipped::

    {1,3}
    5
    cpu0:cache:rd_req;addr=4096;pid=7
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, groupby
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class ParseError(ValueError):
    """Malformed table, trace, or flow description text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


# Component names and attribute tokens must survive the line grammar.
_ATOM_RE = re.compile(r"[^\s:;,={}()#]+")
_INT_RE = re.compile(r"-?\d+")
_HEX_RE = re.compile(r"-?0[xX][0-9a-fA-F]+")


def _check_atom(text: str, what: str) -> str:
    if not _ATOM_RE.fullmatch(text):
        raise ValueError("%s %r contains reserved characters" % (what, text))
    return text


@dataclass(frozen=True)
class Message:
    """One message type: the (source, destination, command) triple.
    An instance's attributes are held by its trace (Trace.attrs)."""

    src: str
    dest: str
    cmd: str

    def __post_init__(self):
        _check_atom(self.src, "source")
        _check_atom(self.dest, "destination")
        _check_atom(self.cmd, "command")

    def triple(self) -> tuple[str, str, str]:
        return (self.src, self.dest, self.cmd)

    def label(self) -> str:
        return "%s:%s:%s" % (self.src, self.dest, self.cmd)

    def __repr__(self):
        return "<%s>" % self.label()


@dataclass(frozen=True, eq=False)
class Trace:
    """A trace held as its distinct event rows and one row number per
    event, in trace order.

    alphabet holds messages, each once; a message id indexes it.  rows
    holds each distinct event once, as the tuple of its instances' ids
    (never empty), and row_of holds per event the number of its row.
    Trace.of_events numbers a sequence of per-event tuples so.  The
    alphabet may list messages that no instance uses (the rest of a
    message table, or the parent's messages in a slice).  Instances are
    numbered in trace order, event by event.

    event_ids is the per-event view, the row of each event; ids,
    event_of and msg_count are the per-instance view (message id, event
    index) and its length.  Each is built from the rows on first read.
    extents gives per message id its first and last event, walking in
    from each end and reading each distinct row once.

    attr_source gives the attributes: per instance its mapping or
    None, or a callable that returns per instance its attribute text
    ('' for none), as parse_trace gives.  attrs, per instance its
    mapping or None, is built on first read, and a text source decodes
    each distinct text once then; instances with equal text share one
    mapping.  attr_values reads one key once per distinct text and
    decodes none, so a reader of neither pays for no decoding.
    attr_keys reads none when every text is that key alone with a
    canonical decimal value, and keys by the texts themselves.  The
    mappings are read-only: flows.generate also gives all the messages
    of one instance one, so nothing may mutate one in place.  A trace
    is the only holder of attributes; trace_of(..., attrs=...) builds
    an attributed one.

    events and iteration give per event the tuple of its messages, and
    flattened() each instance's message with its position, all read
    from the alphabet; they are views for readers that want messages,
    and the mining and evaluation paths do not use them.  Traces
    compare by identity.
    """

    alphabet: tuple[Message, ...]
    rows: tuple[tuple[int, ...], ...]
    row_of: tuple[int, ...]
    attr_source: Sequence[Mapping[str, object] | None] | Callable[[], Sequence[str]] = field(repr=False)

    @classmethod
    def of_events(
        cls,
        alphabet: tuple[Message, ...],
        events: Iterable[tuple[int, ...]],
        attr_source: Sequence[Mapping[str, object] | None] | Callable[[], Sequence[str]],
    ) -> "Trace":
        """The trace of per-event id tuples, in trace order: each
        distinct tuple is a row, numbered in order of first appearance."""
        number: dict[tuple[int, ...], int] = {}
        row_of = tuple([number.setdefault(event, len(number)) for event in events])
        return cls(alphabet, tuple(number), row_of, attr_source)

    @cached_property
    def event_ids(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.rows.__getitem__, self.row_of))

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.event_ids))

    @cached_property
    def event_of(self) -> tuple[int, ...]:
        return tuple([e_idx for e_idx, row in enumerate(self.event_ids) for _ in row])

    @cached_property
    def msg_count(self) -> int:
        return _instance_count(self.rows, self.row_of)

    @cached_property
    def extents(self) -> tuple[dict[int, int], dict[int, int]]:
        """(first, last): per message id of an instance, the index of
        its first event, in order of first appearance, and of its last
        event.  Each walk reads the events in from one end, each
        distinct row once, and stops once it has found every message
        of the rows: at worst one pass over the events.  Those messages
        are counted row by row until they are the whole alphabet."""
        messages: set[int] = set()
        for row in self.rows:
            messages.update(row)
            if len(messages) == len(self.alphabet):
                break
        used, count = len(messages), len(self.row_of)
        first = _first_events(self.rows, enumerate(self.row_of), used)
        last = _first_events(self.rows, zip(range(count - 1, -1, -1), reversed(self.row_of)), used)
        return first, last

    def _texts(self) -> Sequence[str] | None:
        """Per instance its attribute text, from a text source."""
        source = self.attr_source
        return source() if callable(source) else None

    @cached_property
    def attrs(self) -> tuple[Mapping[str, object] | None, ...]:
        texts = self._texts()
        if texts is None:
            return tuple(self.attr_source)
        decoded = {text: _decode_attrs(text) if text else None for text in dict.fromkeys(texts)}
        return tuple(map(decoded.__getitem__, texts))

    def attr_values(self, name: str, default: object) -> list[object]:
        """Per instance the value of attribute name, or default when it
        has none.  With a text source, each distinct text is read for
        the name once, and none is decoded."""
        texts = self._texts()
        if texts is None:
            return [attrs[name] if attrs and name in attrs else default for attrs in self.attrs]
        return _values_of(texts, set(texts), name, default)

    def attr_keys(self, name: str, default: object) -> Sequence[object]:
        """Per instance a key for attribute name: two instances' keys
        are equal exactly when their attr_values are.  When every
        distinct text of a text source is the one pair name=<canonical
        decimal>, distinct texts hold distinct values, so the keys are
        the texts and nothing is read; otherwise they are attr_values."""
        texts = self._texts()
        if texts is None:
            return self.attr_values(name, default)
        distinct = set(texts)
        if _decimal_pairs(distinct, name):
            return texts
        return _values_of(texts, distinct, name, default)

    def __len__(self) -> int:
        return len(self.row_of)

    @cached_property
    def events(self) -> tuple[tuple[Message, ...], ...]:
        alphabet = self.alphabet
        rows = [tuple(map(alphabet.__getitem__, row)) for row in self.rows]
        return tuple(map(rows.__getitem__, self.row_of))

    def __iter__(self) -> Iterator[tuple[Message, ...]]:
        return iter(self.events)

    def __repr__(self) -> str:
        return "<Trace of %d events, %d messages over %d distinct>" % (len(self), self.msg_count, len(self.alphabet))

    def flattened(self) -> Iterator[tuple[int, int, Message]]:
        """Yield (event index, running position, message) in trace order;
        the instance at a position has attributes attrs[position]."""
        alphabet = self.alphabet
        for pos, (e_idx, mid) in enumerate(zip(self.event_of, self.ids)):
            yield e_idx, pos, alphabet[mid]

    def select(self, members: Sequence[int]) -> "Trace":
        """The sub-trace of the given instances, in the order given
        (trace order for a slice), with its events renumbered from 0.
        It shares this trace's alphabet."""
        ids, runs = self.ids, groupby(members, self.event_of.__getitem__)
        return Trace.of_events(
            self.alphabet,
            (tuple(list(map(ids.__getitem__, run))) for _, run in runs),
            tuple(map(self.attrs.__getitem__, members)),
        )


def _first_events(rows: Sequence[tuple[int, ...]], events: Iterable[tuple[int, int]], used: int) -> dict[int, int]:
    """Per message id, the first of the (event index, row number)
    pairs whose row holds it, in the order found; the walk stops once
    used ids are found.  A row is read the first time it comes up."""
    found: dict[int, int] = {}
    seen: set[int] = set()
    for e_idx, number in events:
        if number in seen:
            continue
        seen.add(number)
        for mid in rows[number]:
            found.setdefault(mid, e_idx)
        if len(found) == used:
            break
    return found


def _instance_count(rows: Iterable[tuple[int, ...]], row_of: Iterable[int]) -> int:
    """The number of instances in the events of the given row numbers."""
    lengths = list(map(len, rows))
    return sum(map(lengths.__getitem__, row_of))


def trace_of(
    *events: Iterable[Message], attrs: Iterable[Mapping[str, object] | None] | None = None
) -> Trace:
    """Build a trace from message iterables, one per event.  Message
    ids follow first appearance.  attrs gives per instance, in trace
    order, its attribute mapping or None; an empty mapping is kept as
    None.  A count that does not match the instances, or a name that is
    not a string free of reserved characters, raises ValueError."""
    index: dict[Message, int] = {}
    rows: list[tuple[int, ...]] = []
    for event in events:
        row = tuple([index.setdefault(m, len(index)) for m in event])
        if not row:
            raise ValueError("an event must contain at least one message")
        rows.append(row)
    count = sum(map(len, rows))
    mappings = (None,) * count if attrs is None else tuple([mapping or None for mapping in attrs])
    if len(mappings) != count:
        raise ValueError("%d attribute mappings for %d message instances" % (len(mappings), count))
    for mapping in filter(None, mappings):
        for key in mapping:
            if not isinstance(key, str):
                raise ValueError("attribute name %r is not a string" % (key,))
            _check_atom(key, "attribute name")
    return Trace.of_events(tuple(index), rows, mappings)


class MessageTable:
    """Bijection between dense integer indices (from 1) and message triples."""

    def __init__(self, messages: Iterable[Message]):
        self.messages: tuple[Message, ...] = tuple(messages)  # index i is at position i - 1
        self._by_triple: dict[tuple[str, str, str], int] = {}
        for idx, msg in enumerate(self.messages, start=1):
            if msg.triple() in self._by_triple:
                raise ValueError("duplicate message %s" % msg.label())
            self._by_triple[msg.triple()] = idx

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[tuple[int, Message]]:
        return iter(enumerate(self.messages, start=1))

    def __contains__(self, msg: Message) -> bool:
        return msg.triple() in self._by_triple

    def index_of(self, msg: Message) -> int:
        try:
            return self._by_triple[msg.triple()]
        except KeyError:
            raise ValueError("message %s is not in the table" % msg.label()) from None

    def message_at(self, index: int) -> Message:
        if not 1 <= index <= len(self.messages):
            raise ValueError("message index %d is not in the table" % index)
        return self.messages[index - 1]


def parse_message_table(text: str) -> MessageTable:
    entries: dict[int, Message] = {}
    triples: set[tuple[str, str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = re.fullmatch(r"(\d+)\s+\(([^()]*)\)", line)
        if not m:
            raise ParseError("expected '<index> (<src>:<dest>:<cmd>)'", lineno)
        index = int(m.group(1))
        msg = _parse_triple(m.group(2), lineno)
        if index in entries:
            raise ParseError("duplicate index %d" % index, lineno)
        if msg.triple() in triples:
            raise ParseError("duplicate message %s" % msg.label(), lineno)
        entries[index] = msg
        triples.add(msg.triple())
    if not entries:
        raise ParseError("message table is empty")
    expected = set(range(1, len(entries) + 1))
    if set(entries) != expected:
        missing = sorted(expected - set(entries)) or sorted(set(entries) - expected)
        raise ParseError("indices must be dense from 1, got gap at %d" % missing[0])
    return MessageTable(entries[i] for i in sorted(entries))


def serialize_message_table(table: MessageTable) -> str:
    return "".join("%d (%s)\n" % (idx, msg.label()) for idx, msg in table)


def _parse_triple(text: str, lineno: int) -> Message:
    parts = text.split(":")
    if len(parts) != 3 or not all(p.strip() for p in parts):
        raise ParseError("expected 'src:dest:cmd', got %r" % text, lineno)
    try:
        return Message(*(p.strip() for p in parts))
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _parse_index(token: str, table: MessageTable | None, lineno: int) -> Message:
    if table is None:
        raise ParseError("index token %r needs a message table" % token, lineno)
    try:
        return table.message_at(int(token))
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _parse_attr_value(text: str) -> object:
    if text.isdecimal():  # the common case; the same strings as \d+
        return int(text)
    if _INT_RE.fullmatch(text):
        return int(text)
    if _HEX_RE.fullmatch(text):
        return int(text, 16)
    return text


def _decimal_pairs(texts: Iterable[str], name: str) -> bool:
    """Whether there is a text and each is the one pair name=<value>,
    the value a canonical ASCII decimal (0, or digits without a leading
    zero): distinct such texts hold distinct _parse_attr_value values.
    A name that is not an atom gives False, as no text holds it."""
    if not _ATOM_RE.fullmatch(name):
        return False
    pair = re.escape(name) + "=(?:0|[1-9][0-9]*)"
    return re.fullmatch("%s(?:\n%s)*" % (pair, pair), "\n".join(texts)) is not None


def _decode_attrs(text: str) -> dict[str, object]:
    """The mapping of an attribute text that _parse_attrs accepts: its
    ';'-separated key=value pairs in order, a repeated key keeping its
    last value."""
    attrs: dict[str, object] = {}
    for pair in text.split(";"):
        key, _, value = pair.partition("=")
        attrs[key] = _parse_attr_value(value)
    return attrs


def _attr_value(text: str, name: str, default: object) -> object:
    """The value of attribute name in a text that _parse_attrs accepts,
    as _decode_attrs(text).get(name, default) gives it; '' has none."""
    key, _, raw = text.partition("=")
    if ";" in raw:  # several pairs; a repeated key keeps its last value
        raw = None
        for pair in text.split(";"):
            key, _, value = pair.partition("=")
            if key == name:
                raw = value
        return default if raw is None else _parse_attr_value(raw)
    return _parse_attr_value(raw) if raw and key == name else default


def _values_of(texts: Sequence[str], distinct: Iterable[str], name: str, default: object) -> list[object]:
    """Per text the value of attribute name, or default, each of the
    distinct texts read once."""
    by_text = {text: _attr_value(text, name, default) for text in distinct}
    return list(map(by_text.__getitem__, texts))


def _parse_attrs(text: str, lineno: int) -> dict[str, object]:
    """The mapping of the attribute text after a token's first ';',
    checked: a malformed pair is reported before a bad attribute
    name."""
    for pair in text.split(";"):
        key, sep, value = pair.partition("=")
        if not (sep and key and value):
            raise ParseError("attribute %r is not key=value" % pair, lineno)
    attrs = _decode_attrs(text)
    for key in attrs:
        try:
            _check_atom(key, "attribute name")
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    return attrs


def _parse_token(token: str, table: MessageTable | None, lineno: int) -> Message:
    """One token as one Message, for the flow description parser: an
    index or a triple, which may carry no attributes."""
    head, sep, _ = token.partition(";")
    # a fault in the index or triple is reported first
    msg = _parse_index(head, table, lineno) if head.isdecimal() else _parse_triple(head, lineno)
    if sep:
        raise ParseError("%r carries attributes; the tag adds them" % token, lineno)
    return msg


_GROUPING = str.maketrans("{},", "   ")
# A ';' that does not start a pair _parse_attrs accepts: key=value
# with a non-empty key of atom characters and a non-empty value that
# runs to the next ';' or whitespace.  \s is what str.split splits on.
_BAD_PAIR = re.compile(r";(?![^\s:;,={}()#]+=[^\s;])")
_ATTR_TEXT = re.compile(r";(\S*)")  # a token's attribute text, after its first ';'
_ATTR_CUT = re.compile(r";\S*")  # the same, not kept; a split joined by ';' cuts faster than a sub


def _cut_attr_texts(text: str) -> tuple[str, list[str]]:
    """text with each token's attribute text cut down to its first
    ';', and those texts in order."""
    pieces = _ATTR_TEXT.split(text)
    return ";".join(pieces[::2]), pieces[1::2]


def _is_event(line: str, tokens: list[str], lineno: int) -> bool:
    """Whether a trace line, with tokens split from it with the
    grouping blanked, is an event: not for a blank line or a comment.
    A line of bare grouping raises."""
    line = line.strip()
    if not line or line[0] == "#":
        return False
    if not tokens:
        raise ParseError("event line has no messages", lineno)
    return True


def _event_lines(text: str, blanked: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each event line of trace text, in
    order, the tokens split from blanked, the text with the grouping
    blanked.  Blank and comment lines are skipped, and a line of bare
    grouping raises when reached."""
    lines = text.splitlines()
    for lineno, row in enumerate(blanked.splitlines(), start=1):
        tokens = row.split()
        if _is_event(lines[lineno - 1], tokens, lineno):
            yield lineno, tokens


def _instance_texts(text: str, blanked: str) -> list[str]:
    """Per instance its attribute text, '' for none, for trace text
    that parse_trace accepted, blanked as for _event_lines."""
    return [token.partition(";")[2] for _, tokens in _event_lines(text, blanked) for token in tokens]


def parse_trace(text: str, table: MessageTable | None = None, *, attr_texts: bool = True) -> Trace:
    """Parse trace text; one event per non-blank, non-comment line.

    Attributes are checked here but decoded only when read.  With the
    grouping characters blanked (when the text holds any), one regex
    search tells whether any ';' starts a malformed attribute pair.
    Only then are the lines checked in order, token by token, its index
    or triple before its attributes, and the first fault is raised;
    nothing is raised when every such ';' is in a comment.  One regex
    pass then cuts each token's attribute text down to its first ';'.
    attr_texts says whether the caller will read attributes: if so, the
    pass is a split that keeps the texts for the trace; if not, it keeps
    none, and the trace finds them again in the text if they are read
    after all (see Trace).  Either way the trace
    gives the same attributes.  Each distinct cut line is split into
    tokens once, so each token is an index, a triple, or a triple and
    ';', and each distinct token is parsed and checked once; each
    distinct line's ids become a row, and a repeated line takes the row
    number of its first occurrence, unsplit.  Only a line with no token
    or whose first token starts with '#' is looked at again, to tell a
    blank line, a comment and a line of bare grouping apart.  With a
    table the alphabet starts with the table's messages, so message ids
    follow table order (id = index - 1) and an inline triple from the
    table gets its index's id; other triples get the next ids in order
    of first appearance.
    """
    alphabet: list[Message] = []
    by_triple: dict[tuple[str, str, str], int] = {}
    if table is not None:
        alphabet.extend(table.messages)
        by_triple.update((m.triple(), mid) for mid, m in enumerate(alphabet))
    known: dict[str, int] = {}  # token cut at its first ';' -> message id
    heads: dict[str, int] = {}  # triple text, bare or before an attributed token's ';'
    numbers: dict[str, int] = {}  # cut event line -> its row number
    rows: dict[tuple[int, ...], int] = {}  # event row -> its number
    row_of: list[int] = []
    commented = False  # whether a comment holds an attribute text
    raw_lines: list[str] | None = None

    def intern(msg: Message) -> int:
        mid = by_triple.get(msg.triple())
        if mid is None:
            mid = by_triple[msg.triple()] = len(alphabet)
            alphabet.append(msg)
        return mid

    def resolve(token: str, lineno: int) -> int:
        """The message id of a token cut at its first ';'."""
        if token.isdecimal():
            return intern(_parse_index(token, table, lineno))
        head = token[:-1] if token[-1] == ";" else token
        mid = heads.get(head)
        if mid is None:
            mid = heads[head] = intern(_parse_triple(head, lineno))
        return mid

    blanked = text.translate(_GROUPING) if "," in text or "{" in text or "}" in text else text
    if _BAD_PAIR.search(blanked):  # raise the first fault, unless every flagged ';' is in a comment
        for lineno, tokens in _event_lines(text, blanked):
            for token in tokens:
                head, sep, rest = token.partition(";")
                resolve(head + sep, lineno)
                if sep:
                    _parse_attrs(rest, lineno)
    lookup = known.__getitem__
    if attr_texts:
        cut, texts = _cut_attr_texts(blanked)
    else:
        cut, texts = ";".join(_ATTR_CUT.split(blanked)), None
    for lineno, line in enumerate(cut.splitlines(), start=1):
        number = numbers.get(line)
        if number is None:
            tokens = line.split()
            if not tokens or tokens[0][0] == "#":
                if raw_lines is None:
                    raw_lines = text.splitlines()
                if not _is_event(raw_lines[lineno - 1], tokens, lineno):
                    commented = commented or ";" in line
                    continue
            # tuple(list(...)): a tuple grown from an iterator is resized,
            # and the interpreter's per-size tuple free lists then keep
            # its block under another size, until a full collection
            try:
                event = tuple(list(map(lookup, tokens)))
            except KeyError:
                for token in tokens:
                    if token not in known:
                        known[token] = resolve(token, lineno)
                event = tuple(list(map(lookup, tokens)))
            number = numbers[line] = rows.setdefault(event, len(rows))
        row_of.append(number)
    if not row_of:
        raise ParseError("trace has no events")
    if ";" not in text:
        source = (None,) * _instance_count(rows, row_of)
    elif texts is not None and not commented and len(texts) == _instance_count(rows, row_of):
        source = texts.copy  # one text per instance, in order
    else:  # the texts were not kept, some instance has no text, or a comment has one
        source = partial(_instance_texts, text, blanked)
    return Trace(tuple(alphabet), tuple(rows), tuple(row_of), source)


_UNWRITABLE = re.compile(r"[\s;,{}]")  # a value holding one would not read back as written


def _attr_suffix(attrs: Mapping[str, object]) -> str:
    """The ';k=v' text of an attribute mapping, pairs sorted by key.
    A value whose text is empty or holds whitespace, ';', ',', '{' or
    '}' raises ValueError: parse_trace would reject it or read it back
    as other pairs."""
    pairs = []
    for key, value in sorted(attrs.items()):
        text = str(value)
        if not text or _UNWRITABLE.search(text):
            raise ValueError("attribute %s=%r cannot be written as trace text" % (key, text))
        pairs.append(";%s=%s" % (key, text))
    return "".join(pairs)


def serialize_trace(trace: Trace, table: MessageTable | None = None) -> str:
    """Trace text, one line per event.  An instance without attributes
    is written as its table index when the table has its message.
    Each attribute mapping is formatted once, however many instances
    share it (the trace holds every mapping, so their ids are stable),
    and a value that would not read back raises ValueError."""
    labels = [m.label() for m in trace.alphabet]
    bare = [
        str(table.index_of(m)) if table is not None and m in table else label
        for m, label in zip(trace.alphabet, labels)
    ]
    suffixes: dict[int, str] = {}  # id of a mapping -> its ';k=v' text
    attrs = iter(trace.attrs)
    lines: list[str] = []
    for row in trace.event_ids:
        tokens = []
        for mid in row:
            mapping = next(attrs)
            if mapping:
                suffix = suffixes.get(id(mapping))
                if suffix is None:
                    suffix = suffixes[id(mapping)] = _attr_suffix(mapping)
                tokens.append(labels[mid] + suffix)
            else:
                tokens.append(bare[mid])
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def unique_messages(traces: Iterable[Trace]) -> list[Message]:
    """Distinct triples across traces, in first-appearance order."""
    seen: dict[Message, None] = {}
    for trace in traces:
        alphabet = trace.alphabet
        for mid in trace.extents[0]:
            seen.setdefault(alphabet[mid])
    return list(seen)
