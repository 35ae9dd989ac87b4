"""Workload definitions: generator parameters, mine flags, and why.

Every run generates a pool of traces with ``flowmine gen`` from the flow
descriptions in ``perfbench/flows``.  Input j of a run uses flow file
``specs[j % len(specs)]`` and generator seed ``seed * 1000 + j``, where
``seed`` is the benchmark's ``--seed``.  The held-out trace that the
model mined from input j is scored on is input ``j + len(specs)``
(modulo the pool), so it comes from the same flow file and was not
mined into that model.  Op i mines input ``i % pool``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

FLOWS = Path(__file__).resolve().parent / "flows"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple[str, ...]  # flow files, cycled over the pool
    table: str | None  # message table file, when the specs use indices
    instances: int  # gen --instances (per flow)
    simul: float  # gen --simul
    tag: str | None  # gen --tag
    pool: int  # distinct traces generated per run
    mine_flags: tuple[str, ...]  # mine flags beyond --trace/--table/--out
    strategy: str  # eval --strategy
    deadline_s: float  # an op still running after this long has failed

    def gen_seed(self, seed: int, j: int) -> int:
        return seed * 1000 + j

    def heldout(self, j: int) -> int:
        return (j + len(self.specs)) % self.pool


_CACHE_LONG = Workload(
    name="cache_long",
    why="~1.9k-message traces: the auto-window rebuild loop and greedy matching dominate mine, "
    "and exhaustive eval recurses once per message",
    specs=("cache_read.flow",), table="cache_read.msg", instances=320, simul=0.2, tag=None,
    pool=12, mine_flags=("--max-window", "128"), strategy="exhaustive", deadline_s=60.0,
)

WORKLOADS = {
    w.name: w
    for w in (
        _CACHE_LONG,
        replace(
            _CACHE_LONG,
            name="cache_long_greedy",
            why="cache_long's traces and mine with oldest-first eval, so nearly every op completes "
            "and the matching and auto-window layers get steady timings",
            strategy="oldest-first",
        ),
        replace(
            _CACHE_LONG,
            name="cache_sliced",
            why="~10^4-message pid-tagged traces mined with --slice pid: thousands of tiny "
            "per-slice matching passes, attributed parsing and greedy eval",
            instances=1650, tag="pid", pool=3, mine_flags=("--slice", "pid"), strategy="oldest-first",
        ),
        Workload(
            name="multi_agent",
            why="k=1,2,4 CPUs with rd/wr flows: enumerate-and-reduce is nearly all of mine, "
            "and k=1 and k=4 carry the entry/exit defect",
            specs=("multi_agent_k1.flow", "multi_agent_k2.flow", "multi_agent_k4.flow"),
            table=None, instances=5, simul=0.2, tag=None, pool=6, mine_flags=(),
            strategy="exhaustive", deadline_s=20.0,
        ),
    )
}
