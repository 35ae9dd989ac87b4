"""Message and trace primitives shared by the whole package.

A trace is an ordered sequence of events; each event is a non-empty
group of message instances observed together.  Ordering exists only
between events, never inside one.  A message is identified by its
(source, destination, command) triple; attribute pairs carried by an
instance (address, packet id, ...) are runtime payload and take no
part in identity.

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
from typing import Iterable, Iterator, Mapping


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


@dataclass(frozen=True)
class Trace:
    events: tuple[TraceEvent, ...]

    @property
    def msg_count(self) -> int:
        return sum(len(e) for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def flattened(self) -> Iterator[tuple[int, int, Message]]:
        """Yield (event index, running position, message) in trace order."""
        pos = 0
        for e_idx, event in enumerate(self.events):
            for m in event:
                yield e_idx, pos, m
                pos += 1


def trace_of(*events: Iterable[Message]) -> Trace:
    """Build a trace from message iterables, one per event."""
    return Trace(tuple(TraceEvent(tuple(e)) for e in events))


class MessageTable:
    """Bijection between dense integer indices (from 1) and message triples."""

    def __init__(self, messages: Iterable[Message]):
        self._by_index: dict[int, Message] = {}
        self._by_triple: dict[tuple[str, str, str], int] = {}
        for idx, msg in enumerate(messages, start=1):
            plain = msg.plain()
            if plain.triple() in self._by_triple:
                raise ValueError("duplicate message %s" % plain.label())
            self._by_index[idx] = plain
            self._by_triple[plain.triple()] = idx

    def __len__(self) -> int:
        return len(self._by_index)

    def __iter__(self) -> Iterator[tuple[int, Message]]:
        return iter(sorted(self._by_index.items()))

    def __contains__(self, msg: Message) -> bool:
        return msg.triple() in self._by_triple

    def index_of(self, msg: Message) -> int:
        try:
            return self._by_triple[msg.triple()]
        except KeyError:
            raise ValueError("message %s is not in the table" % msg.label()) from None

    def message_at(self, index: int) -> Message:
        try:
            return self._by_index[index]
        except KeyError:
            raise ValueError("message index %d is not in the table" % index) from None


def parse_message_table(text: str) -> MessageTable:
    entries: dict[int, Message] = {}
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
        if any(msg == other for other in entries.values()):
            raise ParseError("duplicate message %s" % msg.label(), lineno)
        entries[index] = msg
    if not entries:
        raise ParseError("message table is empty")
    expected = set(range(1, len(entries) + 1))
    if set(entries) != expected:
        missing = sorted(expected - set(entries)) or sorted(set(entries) - expected)
        raise ParseError("indices must be dense from 1, got gap at %d" % missing[0])
    return MessageTable(entries[i] for i in sorted(entries))


def serialize_message_table(table: MessageTable) -> str:
    return "".join("%d (%s)\n" % (idx, msg.label()) for idx, msg in table)


def _parse_triple(text: str, lineno: int, attrs: dict[str, object] | None = None) -> Message:
    parts = text.split(":")
    if len(parts) != 3 or not all(p.strip() for p in parts):
        raise ParseError("expected 'src:dest:cmd', got %r" % text, lineno)
    try:
        return Message(*(p.strip() for p in parts), {} if attrs is None else attrs)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def _parse_attr_value(text: str) -> object:
    if _INT_RE.fullmatch(text):
        return int(text)
    if _HEX_RE.fullmatch(text):
        return int(text, 16)
    return text


def _parse_token(token: str, table: MessageTable | None, lineno: int) -> Message:
    if token.isdigit():
        if table is None:
            raise ParseError("index token %r needs a message table" % token, lineno)
        try:
            return table.message_at(int(token))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    head, *pairs = token.split(";")
    attrs: dict[str, object] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not (sep and key and value):
            _parse_triple(head, lineno)  # a fault in the triple is reported first
            raise ParseError("attribute %r is not key=value" % pair, lineno)
        attrs[key] = _parse_attr_value(value)
    return _parse_triple(head, lineno, attrs)


def parse_trace(text: str, table: MessageTable | None = None) -> Trace:
    """Parse trace text; one event per non-blank, non-comment line."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.translate(str.maketrans("{},", "   ")).split()
        if not tokens:
            raise ParseError("event line has no messages", lineno)
        events.append(TraceEvent(tuple(_parse_token(t, table, lineno) for t in tokens)))
    if not events:
        raise ParseError("trace has no events")
    return Trace(tuple(events))


def _serialize_message(msg: Message, table: MessageTable | None) -> str:
    if table is not None and msg in table and not msg.attrs:
        return str(table.index_of(msg))
    text = msg.label()
    for key, value in sorted(msg.attrs.items()):
        text += ";%s=%s" % (key, value)
    return text


def serialize_trace(trace: Trace, table: MessageTable | None = None) -> str:
    lines = []
    for event in trace.events:
        lines.append(" ".join(_serialize_message(m, table) for m in event))
    return "\n".join(lines) + "\n"


def unique_messages(traces: Iterable[Trace]) -> list[Message]:
    """Distinct triples across traces, in first-appearance order."""
    seen: dict[Message, Message] = {}
    for trace in traces:
        for event in trace.events:
            for m in event:
                if m not in seen:
                    seen[m] = m.plain()
    return list(seen.values())
