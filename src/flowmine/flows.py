"""Synthetic trace generation from known flow descriptions.

A flow is a set of alternative message branches sharing a first
message; one branch, executed start to finish, is one flow instance.
The simulator interleaves a configured number of instances into a
single trace, so mining quality can be judged against a known ground
truth.  The interleaving keeps every active instance warm: between
two consecutive messages of an instance at most ``max_gap`` foreign
messages may pass.  With ``simul_prob`` zero every event carries a
single message; once paired events exist, several instances can hit
the gap bound at the same time and are then emitted together, so
events can grow beyond two messages.

Flow description text::

    flow read:
      branch: 1 2 5
      branch: 1 3

Branch tokens are message-table indices or inline triples.  Within a
branch, consecutive messages must be chained (each destination is the
next source), and all branches of a flow open with the same message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping

from .causality import causal
from .fsa import FSA, START
from .trace import Message, MessageTable, ParseError, Trace, _check_atom, _parse_token

__all__ = [
    "Flow",
    "FlowSpec",
    "GenConfig",
    "InstanceTrace",
    "SimResult",
    "parse_flowspec",
    "simulate",
    "generate",
    "ground_truth_fsa",
]


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
            branches.append(tuple(_parse_token(t, table, lineno).plain() for t in tokens))
        else:
            raise ParseError("expected 'flow <name>:' or 'branch: ...'", lineno)
    close(len(text.splitlines()))
    spec = FlowSpec(tuple(flows), table)
    if not spec.flows:
        raise ParseError("no flows defined")
    return spec


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the simulator.

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


@dataclass(frozen=True)
class InstanceTrace:
    """What one flow instance emitted, in order."""

    instance_id: int
    flow: str
    branch: int
    emissions: tuple[tuple[int, Message], ...]  # (event index, message)


@dataclass(frozen=True)
class SimResult:
    trace: Trace
    instances: tuple[InstanceTrace, ...]


@dataclass
class _Live:
    instance_id: int
    flow: str
    branch: int
    pending: list[tuple[int, Message]]  # (message id, message) still to emit
    gap: int = 0
    started: bool = False
    emitted: list[tuple[int, Message]] = field(default_factory=list)


def simulate(spec: FlowSpec, cfg: GenConfig = GenConfig()) -> SimResult:
    """Interleave flow instances into one trace.

    Every instance picks a branch uniformly up front.  Each round one
    instance emits its next message; instances whose gap budget would
    otherwise overrun are forced out first, together when necessary.
    Identical seeds give identical results.
    """
    if isinstance(cfg.instances, Mapping):
        unknown = set(cfg.instances) - {f.name for f in spec.flows}
        if unknown:
            raise ValueError("unknown flow names: %s" % ", ".join(sorted(unknown)))
    rng = random.Random(cfg.seed)
    alphabet: dict[Message, int] = {}  # message ids, in flow description order
    coded = [
        [tuple((alphabet.setdefault(m.plain(), len(alphabet)), m) for m in branch) for branch in flow.branches]
        for flow in spec.flows
    ]
    live: list[_Live] = []
    for flow, branches in zip(spec.flows, coded):
        for _ in range(cfg.count_for(flow)):
            branch = rng.randrange(len(flow.branches))
            live.append(_Live(len(live), flow.name, branch, list(branches[branch])))
    if not live:
        raise ValueError("no instances configured")

    event_of: list[int] = []
    ids: list[int] = []
    attrs: list[Mapping[str, object] | None] = []
    e_idx = -1
    remaining = set(range(len(live)))

    def overrunners(size: int, members: set[int]) -> list[int]:
        return [
            i
            for i in sorted(remaining - members)
            if live[i].started and live[i].gap + size > cfg.max_gap
        ]

    while remaining:
        must: set[int] = set()
        while True:
            more = overrunners(max(1, len(must)), must)
            if not more:
                break
            must.update(more)
        if must:
            emitters = sorted(must)
        else:
            pick = rng.choice(sorted(remaining))
            emitters = [pick]
            others = sorted(remaining - {pick})
            if others and rng.random() < cfg.simul_prob:
                partner = rng.choice(others)
                if not overrunners(2, {pick, partner}):
                    emitters = sorted((pick, partner))

        e_idx += 1
        for i in emitters:
            inst = live[i]
            mid, msg = inst.pending.pop(0)
            if cfg.tag is not None:
                msg = msg.with_attrs(**{cfg.tag: inst.instance_id})
            event_of.append(e_idx)
            ids.append(mid)
            attrs.append(msg.attrs or None)
            inst.emitted.append((e_idx, msg))
            inst.started = True
            inst.gap = 0
            if not inst.pending:
                remaining.discard(i)
        emitted = set(emitters)
        for i in remaining:
            if live[i].started and i not in emitted:
                live[i].gap += len(emitters)

    instances = tuple(
        InstanceTrace(inst.instance_id, inst.flow, inst.branch, tuple(inst.emitted))
        for inst in live
    )
    trace = Trace(tuple(alphabet), tuple(event_of), tuple(ids), tuple(attrs))
    return SimResult(trace, instances)


def generate(spec: FlowSpec, cfg: GenConfig = GenConfig()) -> Trace:
    return simulate(spec, cfg).trace


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
