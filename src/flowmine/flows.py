"""Synthetic trace generation from known flow descriptions.

A flow is a set of alternative message branches sharing a first
message; one branch, executed start to finish, is one flow instance.
The generator interleaves a configured number of instances into a
single trace, so mining quality can be judged against a known ground
truth.  The interleaving keeps every active instance warm: between
two consecutive messages of an instance at most ``max_gap`` foreign
messages may pass.  With ``simul_prob`` zero every event carries a
single message; once paired events exist, several instances can hit
the gap bound at the same time and are then emitted together, so
events can grow beyond two messages.  The scheduler works on message
ids, and generate turns its columns into a Trace directly, building
no Message per emission.

Flow description text::

    flow read:
      branch: 1 2 5
      branch: 1 3

Branch tokens are message-table indices or inline triples, without
attributes (a tag adds them).  Within a branch, consecutive messages
must be chained (each destination is the next source), and all
branches of a flow open with the same message.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Collection, Mapping, NamedTuple

from .causality import causal
from .fsa import FSA, START
from .trace import Message, MessageTable, ParseError, Trace, _check_atom, _parse_token

__all__ = [
    "Flow",
    "FlowSpec",
    "GenConfig",
    "parse_flowspec",
    "generate",
    "ground_truth_fsa",
]

MAX_INSTANCES = 10_000_000  # instances generate schedules at most, over all flows


@dataclass(frozen=True)
class Flow:
    name: str
    branches: tuple[tuple[Message, ...], ...]

    def __post_init__(self):
        _check_atom(self.name, "flow name")
        if not self.branches:
            raise ValueError("flow %r has no branches" % self.name)
        firsts = {b[0] for b in self.branches if b}
        if any(not b for b in self.branches):
            raise ValueError("flow %r has an empty branch" % self.name)
        if len(firsts) != 1:
            raise ValueError("flow %r branches do not share a first message" % self.name)
        for branch in self.branches:
            for m in branch:
                if m.attrs:
                    raise ValueError("flow %r: %r carries attributes; the tag adds them" % (self.name, m))
            for m1, m2 in zip(branch, branch[1:]):
                if not causal(m1, m2):
                    raise ValueError(
                        "flow %r: %s does not lead to %s" % (self.name, m1.label(), m2.label())
                    )

    @property
    def first(self) -> Message:
        return self.branches[0][0]


@dataclass(frozen=True)
class FlowSpec:
    flows: tuple[Flow, ...]
    table: MessageTable | None = None

    def __post_init__(self):
        names = [f.name for f in self.flows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate flow names")

    def flow(self, name: str) -> Flow:
        for f in self.flows:
            if f.name == name:
                return f
        raise KeyError(name)


def parse_flowspec(text: str, table: MessageTable | None = None) -> FlowSpec:
    flows: list[Flow] = []
    name: str | None = None
    branches: list[tuple[Message, ...]] = []

    def close(lineno: int) -> None:
        nonlocal name, branches
        if name is None:
            return
        try:
            flows.append(Flow(name, tuple(branches)))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        name, branches = None, []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("flow "):
            if not line.endswith(":"):
                raise ParseError("expected 'flow <name>:'", lineno)
            close(lineno)
            name = line[len("flow ") : -1].strip()
            if not name:
                raise ParseError("flow needs a name", lineno)
        elif line.startswith("branch:"):
            if name is None:
                raise ParseError("branch outside of a flow", lineno)
            tokens = line[len("branch:") :].split()
            if not tokens:
                raise ParseError("branch has no messages", lineno)
            branches.append(tuple(_parse_token(t, table, lineno) for t in tokens))
        else:
            raise ParseError("expected 'flow <name>:' or 'branch: ...'", lineno)
    close(len(text.splitlines()))
    spec = FlowSpec(tuple(flows), table)
    if not spec.flows:
        raise ParseError("no flows defined")
    return spec


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the generator.

    instances counts flow instances, either one number for every flow
    or a per-flow-name mapping.  max_gap bounds the foreign messages
    between two consecutive messages of one instance.  simul_prob is
    the chance a freely scheduled message gets a partner in the same
    event.  tag, when set, stamps every generated message with an
    attribute <tag>=<instance id>.
    """

    instances: int | Mapping[str, int] = 1
    seed: int | None = None
    max_gap: int = 10
    simul_prob: float = 0.0
    tag: str | None = None

    def __post_init__(self):
        if isinstance(self.instances, int):
            if self.instances < 0:
                raise ValueError("instances must be non-negative")
        else:
            for name, count in self.instances.items():
                if count < 0:
                    raise ValueError("instances for %r must be non-negative" % name)
        if self.max_gap < 1:
            raise ValueError("max_gap must be at least 1")
        if not 0.0 <= self.simul_prob <= 1.0:
            raise ValueError("simul_prob must be within [0, 1]")
        if self.tag is not None:
            _check_atom(self.tag, "tag attribute")

    def count_for(self, flow: Flow) -> int:
        if isinstance(self.instances, int):
            return self.instances
        return self.instances.get(flow.name, 0)


class _Schedule(NamedTuple):
    """What _interleave decided: the alphabet, each instance's
    (flow name, branch), and three columns with one entry per emitted
    message, in trace order: its event index, its message id and the
    instance that emitted it."""

    alphabet: tuple[Message, ...]
    picks: list[tuple[str, int]]
    event_of: list[int]
    ids: list[int]
    owner: list[int]


def _interleave(spec: FlowSpec, cfg: GenConfig) -> _Schedule:
    """The scheduler behind generate; it works on ints only.

    Every instance picks a branch uniformly up front and keeps the ids
    it has still to emit.  Each round one instance emits its next
    message; instances whose gap budget would otherwise overrun are
    forced out first, together when necessary.

    An instance's gap is the number of messages sent since its last
    emission.  Only started, unfinished instances have one, and the
    gap bound makes each of them emit within max_gap messages, so
    there are few of them however many instances are configured.
    """
    if isinstance(cfg.instances, Mapping):
        unknown = set(cfg.instances) - {f.name for f in spec.flows}
        if unknown:
            raise ValueError("unknown flow names: %s" % ", ".join(sorted(unknown)))
    total = sum(cfg.count_for(flow) for flow in spec.flows)
    if total > MAX_INSTANCES:
        raise ValueError("%d instances in all; at most %d can be scheduled" % (total, MAX_INSTANCES))
    rng = random.Random(cfg.seed)
    alphabet: dict[Message, int] = {}  # message ids, in flow description order
    backwards = [  # each branch's ids, last first, so that emitting pops
        [tuple(alphabet.setdefault(m, len(alphabet)) for m in branch)[::-1] for branch in flow.branches]
        for flow in spec.flows
    ]
    picks: list[tuple[str, int]] = []
    pending: list[list[int]] = []  # per instance, the ids still to emit, last first
    for flow, branches in zip(spec.flows, backwards):
        for _ in range(cfg.count_for(flow)):
            branch = rng.randrange(len(branches))
            picks.append((flow.name, branch))
            pending.append(list(branches[branch]))
    if not pending:
        raise ValueError("no instances configured")

    max_gap, simul_prob = cfg.max_gap, cfg.simul_prob
    event_of: list[int] = []
    ids: list[int] = []
    owner: list[int] = []
    remaining = list(range(len(pending)))  # unfinished instances, sorted
    # started, unfinished instance -> messages sent at its last emission;
    # an emission reinserts its instance with the largest mark yet, so
    # the marks ascend in insertion order
    marks: dict[int, int] = {}
    sent = 0

    def overrunners(size: int, members: Collection[int]) -> list[int]:
        """The instances outside members whose gap size more messages
        would push past max_gap: those with the smallest marks."""
        limit = sent + size - max_gap
        late = []
        for i, mark in marks.items():
            if mark >= limit:
                break
            if i not in members:
                late.append(i)
        return late

    e_idx = 0
    while remaining:
        must: set[int] = set()
        more = overrunners(1, must)
        while more:
            must.update(more)
            more = overrunners(len(must), must)
        if must:
            emitters = sorted(must)
        else:
            at = rng.choice(range(len(remaining)))
            pick = remaining[at]
            emitters = [pick]
            if len(remaining) > 1 and rng.random() < simul_prob:
                other = rng.choice(range(len(remaining) - 1))  # among the others: skip the pick
                partner = remaining[other + (other >= at)]
                if not overrunners(2, (pick, partner)):
                    emitters = sorted((pick, partner))

        sent += len(emitters)
        for i in emitters:
            queue = pending[i]
            event_of.append(e_idx)
            ids.append(queue.pop())
            owner.append(i)
            marks.pop(i, None)
            if queue:
                marks[i] = sent
            else:
                del remaining[bisect_left(remaining, i)]
        e_idx += 1
    return _Schedule(tuple(alphabet), picks, event_of, ids, owner)


def _trace(schedule: _Schedule, tag: str | None) -> Trace:
    """The schedule's trace.  With a tag, each instance has one
    {tag: instance id} mapping, shared by all of its messages."""
    if tag is None:
        attrs: tuple[Mapping[str, object] | None, ...] = (None,) * len(schedule.ids)
    else:
        mappings = [{tag: i} for i in range(len(schedule.picks))]
        attrs = tuple(map(mappings.__getitem__, schedule.owner))
    return Trace(schedule.alphabet, tuple(schedule.event_of), tuple(schedule.ids), attrs)


def generate(spec: FlowSpec, cfg: GenConfig = GenConfig()) -> Trace:
    """Interleave flow instances into one trace.  Identical seeds give
    identical traces."""
    return _trace(_interleave(spec, cfg), cfg.tag)


def ground_truth_fsa(spec: FlowSpec) -> FSA:
    """The acceptor the flow descriptions define directly.

    Each flow contributes a prefix tree over its branches; the last
    message of every branch returns to the start state.  Two flows
    whose descriptions would make the acceptor nondeterministic (a
    shared opening message, or one branch extending another) are
    rejected.
    """
    states = [START]
    transitions: dict[tuple[str, Message], str] = {}

    def put(src: str, msg: Message, dst: str) -> None:
        key = (src, msg)
        if key in transitions and transitions[key] != dst:
            raise ValueError(
                "flows are ambiguous: %s from %s leads to both %s and %s"
                % (msg.label(), src, transitions[key], dst)
            )
        transitions[key] = dst

    for flow in spec.flows:
        nodes: dict[tuple, str] = {(): START}
        for branch in flow.branches:
            prefix: tuple = ()
            for k, msg in enumerate(branch):
                src = nodes[prefix]
                prefix = prefix + (msg.triple(),)
                if k == len(branch) - 1:
                    target = START
                elif prefix in nodes:
                    target = nodes[prefix]
                else:
                    target = "q%d" % len(states)
                    states.append(target)
                    nodes[prefix] = target
                put(src, msg, target)
    return FSA(states=tuple(states), transitions=transitions)
