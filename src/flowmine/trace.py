"""Message and trace primitives shared by the whole package.

A trace is an ordered sequence of events; each event is a non-empty
group of message instances observed together.  Ordering exists only
between events, never inside one.  A message is identified by its
(source, destination, command) triple; attribute pairs carried by an
instance (address, packet id, ...) are runtime payload and take no
part in identity.

A Trace is held as integer columns, one entry per instance: its event
index, its message id and its attributes.  The ids index the trace's
alphabet of distinct attribute-free messages, so parsing builds one
Message per distinct triple, not one per instance, and detection,
slicing, annotation and replay work on ints.  Parsing checks the
attributes but decodes none: a parsed trace keeps each instance's
attribute text, and decodes each distinct text once, when first
read.  Event and Message views are rebuilt on demand for
readers that want objects.

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
    """One message instance.  Equality and hashing use the triple only."""

    src: str
    dest: str
    cmd: str
    attrs: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        _check_atom(self.src, "source")
        _check_atom(self.dest, "destination")
        _check_atom(self.cmd, "command")
        for key in self.attrs:
            _check_atom(str(key), "attribute name")

    def triple(self) -> tuple[str, str, str]:
        return (self.src, self.dest, self.cmd)

    def label(self) -> str:
        return "%s:%s:%s" % (self.src, self.dest, self.cmd)

    def plain(self) -> "Message":
        """The same message without instance attributes."""
        return Message(self.src, self.dest, self.cmd) if self.attrs else self

    def with_attrs(self, **attrs: object) -> "Message":
        merged = dict(self.attrs)
        merged.update(attrs)
        return Message(self.src, self.dest, self.cmd, merged)

    def __repr__(self):
        extra = "".join(";%s=%s" % kv for kv in sorted(self.attrs.items()))
        return "<%s%s>" % (self.label(), extra)


@dataclass(frozen=True)
class TraceEvent:
    """Messages observed at the same instant.  Members are unordered."""

    messages: tuple[Message, ...]

    def __post_init__(self):
        if not self.messages:
            raise ValueError("an event must contain at least one message")

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)

    def __len__(self) -> int:
        return len(self.messages)


@dataclass(frozen=True, eq=False)
class Trace:
    """A trace held as columns, one entry per message instance in trace order.

    alphabet holds attribute-free messages, each once; an instance's
    message id indexes it.  event_of is the event index of each
    instance (0, 1, ... with every event non-empty).  The alphabet may
    list messages that no instance uses (the rest of a message table,
    or the parent's messages in a slice).

    attr_source gives the attributes: per instance its mapping or
    None, or a callable that returns per instance its attribute text
    ('' for none), as parse_trace gives.  attrs, per instance its
    mapping or None, is built on first read, and a text source decodes
    each distinct text once then; instances with equal text share one
    mapping.  attr_values reads one key once per distinct text and
    decodes none, so a reader of neither pays for no decoding.  The
    mappings are read-only: flows.generate also gives all the messages
    of one instance one, so nothing may mutate one in place
    (Message.with_attrs copies).

    events, iteration and flattened() rebuild Message objects; they
    are views for readers that want them, and the mining and
    evaluation paths do not use them.
    """

    alphabet: tuple[Message, ...]
    event_of: tuple[int, ...]
    ids: tuple[int, ...]
    attr_source: Sequence[Mapping[str, object] | None] | Callable[[], Sequence[str]] = field(repr=False)

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
        by_text = {text: _attr_value(text, name, default) for text in dict.fromkeys(texts)}
        return list(map(by_text.__getitem__, texts))

    @property
    def msg_count(self) -> int:
        return len(self.ids)

    def __len__(self) -> int:
        return self.event_of[-1] + 1 if self.event_of else 0

    @cached_property
    def events(self) -> tuple[TraceEvent, ...]:
        events: list[list[Message]] = [[] for _ in range(len(self))]
        for e_idx, mid, attrs in zip(self.event_of, self.ids, self.attrs):
            m = self.alphabet[mid]
            events[e_idx].append(Message(m.src, m.dest, m.cmd, attrs) if attrs else m)
        return tuple(TraceEvent(tuple(ms)) for ms in events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return "<Trace of %d events, %d messages over %d distinct>" % (len(self), self.msg_count, len(self.alphabet))

    def flattened(self) -> Iterator[tuple[int, int, Message]]:
        """Yield (event index, running position, message) in trace order."""
        pos = 0
        for e_idx, event in enumerate(self.events):
            for m in event:
                yield e_idx, pos, m
                pos += 1

    def select(self, members: Sequence[int]) -> "Trace":
        """The sub-trace of the given instances, in the order given
        (trace order for a slice), with its events renumbered from 0.
        It shares this trace's alphabet."""
        event_of = []
        event, last = -1, None
        for i in members:
            if self.event_of[i] != last:
                event, last = event + 1, self.event_of[i]
            event_of.append(event)
        return Trace(
            self.alphabet,
            tuple(event_of),
            tuple(self.ids[i] for i in members),
            tuple(self.attrs[i] for i in members),
        )


def trace_of(*events: Iterable[Message]) -> Trace:
    """Build a trace from message iterables, one per event.  Message
    ids follow first appearance."""
    index: dict[Message, int] = {}
    alphabet: list[Message] = []
    event_of: list[int] = []
    ids: list[int] = []
    attrs: list[Mapping[str, object] | None] = []
    for e_idx, event in enumerate(events):
        before = len(ids)
        for m in event:
            mid = index.get(m)
            if mid is None:
                mid = index[m] = len(alphabet)
                alphabet.append(m.plain())
            event_of.append(e_idx)
            ids.append(mid)
            attrs.append(m.attrs or None)
        if len(ids) == before:
            raise ValueError("an event must contain at least one message")
    return Trace(tuple(alphabet), tuple(event_of), tuple(ids), tuple(attrs))


class MessageTable:
    """Bijection between dense integer indices (from 1) and message triples."""

    def __init__(self, messages: Iterable[Message]):
        plain = [m.plain() for m in messages]
        self._by_triple: dict[tuple[str, str, str], int] = {}
        for idx, msg in enumerate(plain, start=1):
            if msg.triple() in self._by_triple:
                raise ValueError("duplicate message %s" % msg.label())
            self._by_triple[msg.triple()] = idx
        self.messages: tuple[Message, ...] = tuple(plain)  # index i is at position i - 1

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
    msg = _parse_index(head, table, lineno) if head.isdigit() else _parse_triple(head, lineno)
    if sep:
        raise ParseError("%r carries attributes; the tag adds them" % token, lineno)
    return msg


_GROUPING = str.maketrans("{},", "   ")
# A ';' that does not start a pair _parse_attrs accepts: key=value
# with a non-empty key of atom characters and a non-empty value that
# runs to the next ';' or whitespace.  \s is what str.split splits on.
_BAD_PAIR = re.compile(r";(?![^\s:;,={}()#]+=[^\s;])")
_ATTR_TEXT = re.compile(r";(\S*)")  # a token's attribute text, after its first ';'
_LINE_BREAK = re.compile(r"\r\n|[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")  # as str.splitlines breaks


def _fault_lines(text: str) -> Iterator[int]:
    """The numbers of the lines of text that hold a ';' _BAD_PAIR
    flags, ascending, each once."""
    lineno, pos, last = 1, 0, 0
    for match in _BAD_PAIR.finditer(text):
        lineno += len(_LINE_BREAK.findall(text, pos, match.start()))
        pos = match.start()
        if lineno != last:
            last = lineno
            yield lineno


def _cut_attr_texts(text: str) -> tuple[str, list[str]]:
    """text with each token's attribute text cut down to its first
    ';', and those texts in order."""
    pieces = _ATTR_TEXT.split(text)
    return ";".join(pieces[::2]), pieces[1::2]


def _instance_texts(cut: str, texts: list[str], skipped: tuple[int, ...], count: int) -> list[str]:
    """Per instance its attribute text, '' for none, for a trace of
    count instances that parse_trace accepted: cut and texts are what
    _cut_attr_texts gave for its text, and skipped numbers the comment
    lines that hold tokens."""
    if not skipped and len(texts) == count:
        return texts
    dropped = set(skipped)
    rest = iter(texts)
    out: list[str] = []
    for lineno, row in enumerate(cut.splitlines(), start=1):
        if lineno in dropped:
            for _ in range(row.count(";")):  # a comment's texts
                next(rest)
            continue
        out.extend(next(rest) if token[-1] == ";" else "" for token in row.split())
    return out


def parse_trace(text: str, table: MessageTable | None = None) -> Trace:
    """Parse trace text; one event per non-blank, non-comment line.

    Attributes are checked here but decoded only when read.  With the
    grouping characters blanked, one regex scan finds the lines that
    hold a malformed attribute pair, and one regex split cuts each
    token's attribute text down to its first ';' and keeps the texts
    for the trace (see Trace).  The lines are then split into tokens
    once, so each token is an index, a triple, or a triple and ';',
    and each distinct one is parsed and checked once; only a line with
    no token, a line whose first token starts with '#', or a line the
    scan flagged is looked at again, to tell a blank line, a comment
    and a line of bare grouping apart, or to name the first fault of a
    flagged line, token by token, its index or triple before its
    attributes.  With a table the
    alphabet starts with the table's messages, so message ids follow
    table order (id = index - 1) and an inline triple from the table
    gets its index's id; other triples get the next ids in order of
    first appearance.
    """
    alphabet: list[Message] = []
    by_triple: dict[tuple[str, str, str], int] = {}
    if table is not None:
        alphabet.extend(table.messages)
        by_triple.update((m.triple(), mid) for mid, m in enumerate(alphabet))
    known: dict[str, int] = {}  # token cut at its first ';' -> message id
    heads: dict[str, int] = {}  # triple text, bare or before an attributed token's ';'
    event_of: list[int] = []
    ids: list[int] = []
    skipped: list[int] = []  # comment lines that hold tokens
    raw_lines: list[str] | None = None
    blanked_lines: list[str] | None = None

    def intern(msg: Message) -> int:
        mid = by_triple.get(msg.triple())
        if mid is None:
            mid = by_triple[msg.triple()] = len(alphabet)
            alphabet.append(msg)
        return mid

    def resolve(token: str, lineno: int) -> int:
        """The message id of a token cut at its first ';'."""
        if token.isdigit():
            return intern(_parse_index(token, table, lineno))
        head = token[:-1] if token[-1] == ";" else token
        mid = heads.get(head)
        if mid is None:
            mid = heads[head] = intern(_parse_triple(head, lineno))
        return mid

    blanked = text.translate(_GROUPING)
    faults = _fault_lines(blanked)
    fault = next(faults, 0)
    append, lookup = ids.append, known.__getitem__
    events = 0
    cut, texts = _cut_attr_texts(blanked)
    for lineno, row in enumerate(cut.splitlines(), start=1):
        tokens = row.split()
        if not tokens or tokens[0][0] == "#" or lineno == fault:
            if raw_lines is None:
                raw_lines = text.splitlines()
            line = raw_lines[lineno - 1].strip()
            if not line or line[0] == "#":
                if tokens:
                    skipped.append(lineno)
                if lineno == fault:
                    fault = next(faults, 0)
                continue
            if not tokens:
                raise ParseError("event line has no messages", lineno)
            if lineno == fault:
                if blanked_lines is None:
                    blanked_lines = blanked.splitlines()
                # the scan flagged a pair here, so one of these raises
                for token in blanked_lines[lineno - 1].split():
                    head, sep, rest = token.partition(";")
                    resolve(head + sep, lineno)
                    if sep:
                        _parse_attrs(rest, lineno)
                fault = next(faults, 0)
        try:
            for token in tokens:
                append(lookup(token))
        except KeyError:
            del ids[len(event_of) :]
            for token in tokens:
                mid = known.get(token)
                if mid is None:
                    mid = known[token] = resolve(token, lineno)
                append(mid)
        event_of += [events] * len(tokens)
        events += 1
    if not events:
        raise ParseError("trace has no events")
    source = partial(_instance_texts, cut, texts, tuple(skipped), len(ids)) if texts else (None,) * len(ids)
    return Trace(tuple(alphabet), tuple(event_of), tuple(ids), source)


def serialize_trace(trace: Trace, table: MessageTable | None = None) -> str:
    """Trace text, one line per event.  An instance without attributes
    is written as its table index when the table has its message.
    Each attribute mapping is formatted once, however many instances
    share it (the trace holds every mapping, so their ids are stable)."""
    labels = [m.label() for m in trace.alphabet]
    bare = [
        str(table.index_of(m)) if table is not None and m in table else label
        for m, label in zip(trace.alphabet, labels)
    ]
    suffixes: dict[int, str] = {}  # id of a mapping -> its ';k=v' text
    lines: list[str] = []
    tokens: list[str] = []
    current = 0
    for e_idx, mid, attrs in zip(trace.event_of, trace.ids, trace.attrs):
        if e_idx != current:
            lines.append(" ".join(tokens))
            tokens, current = [], e_idx
        if attrs:
            suffix = suffixes.get(id(attrs))
            if suffix is None:
                suffix = suffixes[id(attrs)] = "".join(";%s=%s" % kv for kv in sorted(attrs.items()))
            tokens.append(labels[mid] + suffix)
        else:
            tokens.append(bare[mid])
    if tokens:
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def unique_messages(traces: Iterable[Trace]) -> list[Message]:
    """Distinct triples across traces, in first-appearance order."""
    seen: dict[Message, None] = {}
    for trace in traces:
        for mid in dict.fromkeys(trace.ids):
            seen.setdefault(trace.alphabet[mid])
    return list(seen)
