"""Output checks for the benchmark, written without importing flowmine.

Each check reads what a command wrote (or the JSON it printed) next to
the inputs it was given and returns a list of problems; an empty list
means the output is consistent.  The text formats are read by this
file's own small parsers, so a bug in flowmine's parsers cannot make
its own output look right.

Run ``python3 perfbench/check.py`` to run the self-test, which feeds a
consistent mine output and tampered copies of it through the checks.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

_TABLE_LINE = re.compile(r"(\d+)\s*\(\s*([^()\s]+)\s*\)")


def read_table(text: str) -> dict[str, str]:
    """Message table text -> {index: 'src:dest:cmd'}."""
    table = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _TABLE_LINE.fullmatch(line)
        if not match:
            raise ValueError("bad message table line %r" % raw)
        table[match.group(1)] = match.group(2)
    return table


def _label(token: str, table: dict[str, str]) -> str:
    if token.isdigit():
        return table[token]
    return token.split(";", 1)[0]


def flow_pairs(flow_text: str, table: dict[str, str]) -> set[tuple[str, str]]:
    """Consecutive message pairs over every branch of a flow description."""
    pairs = set()
    for raw in flow_text.splitlines():
        line = raw.strip()
        if not line.startswith("branch:"):
            continue
        labels = [_label(t, table) for t in line[len("branch:"):].split()]
        pairs.update(zip(labels, labels[1:]))
    return pairs


def count_messages(trace_text: str) -> int:
    """Message instances in trace text: tokens on non-comment lines."""
    count = 0
    for raw in trace_text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            count += len(line.replace("{", " ").replace("}", " ").replace(",", " ").split())
    return count


def _msg_label(obj: dict) -> str:
    return "%s:%s:%s" % (obj["src"], obj["dest"], obj["cmd"])


def model_pairs(model: dict) -> set[tuple[str, str]]:
    """Back-to-back message pairs of a model JSON object: m enters a
    non-initial state q and m' leaves q."""
    inbound: dict[str, set[str]] = {}
    for row in model["transitions"]:
        if row["to"] != model["initial"]:
            inbound.setdefault(row["to"], set()).add(_msg_label(row["msg"]))
    pairs = set()
    for row in model["transitions"]:
        for first in inbound.get(row["from"], ()):
            pairs.add((first, _msg_label(row["msg"])))
    return pairs


def check_mine_objects(graph: dict, report: list, summary: dict) -> list[str]:
    """Rank-1 edge counts against the annotated graph they explain."""
    if not report or report[0].get("rank") != 1:
        return ["report.json has no rank-1 model"]
    rank1 = report[0]
    problems = []
    support = {(e["head"], e["tail"]): e["support"] for e in graph["edges"]}
    counts: dict[tuple[str, str], int] = {}
    for row in rank1["edges"]:
        edge = (_msg_label(row["head"]), _msg_label(row["tail"]))
        if edge not in support:
            problems.append("rank-1 edge %s -> %s is not a graph edge" % edge)
            continue
        if not 0 < row["count"] <= support[edge]:
            problems.append("rank-1 count %d on %s -> %s is outside 1..%d" % ((row["count"],) + edge + (support[edge],)))
        counts[edge] = row["count"]
    node_support = {n["message"]: n["support"] for n in graph["nodes"]}
    for side, end in (("out", 0), ("in", 1)):
        sums: dict[str, int] = {}
        for edge in support:
            sums[edge[end]] = sums.get(edge[end], 0) + counts.get(edge, 0)
        for node, total in sums.items():
            if total != node_support[node]:
                problems.append("%s-edges of %s sum to %d, node support is %d" % (side, node, total, node_support[node]))
    if rank1["size"] != len(rank1["edges"]):
        problems.append("rank-1 size %d but %d edges" % (rank1["size"], len(rank1["edges"])))
    if summary["best_size"] != len(rank1["edges"]):
        problems.append("summary best_size %d but %d rank-1 edges" % (summary["best_size"], len(rank1["edges"])))
    return problems


def check_mine(out_dir: Path) -> list[str]:
    """Check the files `flowmine mine` wrote into out_dir."""
    try:
        graph, report, summary = (
            json.loads((out_dir / name).read_text(encoding="utf-8"))
            for name in ("graph.json", "report.json", "summary.json")
        )
        return check_mine_objects(graph, report, summary)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["mine output unreadable: %s: %s" % (type(exc).__name__, exc)]


def check_eval(result: dict, heldout_msgs: int) -> list[str]:
    """Accepted and rejected must partition the held-out trace."""
    problems = []
    try:
        rejected = len(result["rejected_positions"])
        if result["accepted"] + rejected != result["total"]:
            problems.append("accepted %d + rejected %d != total %d" % (result["accepted"], rejected, result["total"]))
        if result["total"] != heldout_msgs:
            problems.append("total %d but the held-out trace has %d messages" % (result["total"], heldout_msgs))
    except (KeyError, TypeError) as exc:
        problems.append("eval output malformed: %s" % exc)
    return problems


def check_exhaustive(exhaustive: dict, oldest_first: dict) -> list[str]:
    """An exhaustive search can never accept less than the greedy replay."""
    if exhaustive["accepted"] < oldest_first["accepted"]:
        return ["exhaustive accepted %d < oldest-first %d" % (exhaustive["accepted"], oldest_first["accepted"])]
    return []


def _sample_output() -> tuple[dict, list, dict]:
    """A consistent mine output: a -> b twice, a -> c once, b and c end."""
    def msg(text):
        src, dest, cmd = text.split(":")
        return {"src": src, "dest": dest, "cmd": cmd}

    graph = {
        "nodes": [
            {"message": "x:y:a", "support": 3},
            {"message": "y:z:b", "support": 2},
            {"message": "y:z:c", "support": 1},
        ],
        "edges": [
            {"head": "x:y:a", "tail": "y:z:b", "support": 3},
            {"head": "x:y:a", "tail": "y:z:c", "support": 1},
        ],
    }
    report = [{"rank": 1, "size": 2, "edges": [
        {"head": msg("x:y:a"), "tail": msg("y:z:b"), "count": 2},
        {"head": msg("x:y:a"), "tail": msg("y:z:c"), "count": 1},
    ]}]
    return graph, report, {"best_size": 2}


def self_test() -> list[str]:
    """Problems with the checker itself; empty when it passes."""
    failures = []
    graph, report, summary = _sample_output()
    if check_mine_objects(graph, report, summary):
        failures.append("consistent mine output was rejected")
    tampered = copy.deepcopy(report)
    tampered[0]["edges"][0]["count"] = 3  # within support, breaks the balance
    if not check_mine_objects(graph, tampered, summary):
        failures.append("tampered rank-1 count was accepted")
    if not check_mine_objects(graph, report, {"best_size": 3}):
        failures.append("tampered best_size was accepted")
    if not check_eval({"accepted": 5, "total": 6, "rejected_positions": []}, 6):
        failures.append("eval result with a missing rejection was accepted")
    table = {"1": "x:y:a", "2": "y:z:b"}
    if flow_pairs("flow f:\n  branch: 1 2 z:w:c\n", table) != {("x:y:a", "y:z:b"), ("y:z:b", "z:w:c")}:
        failures.append("flow pairs misread")
    if count_messages("# c\n{1,2}\n3\nx:y:a;pid=4 2\n") != 5:
        failures.append("message count misread")
    return failures


if __name__ == "__main__":
    failed = self_test()
    for line in failed:
        print("FAIL", line)
    print("check self-test: %s" % ("FAIL" if failed else "ok"))
    sys.exit(1 if failed else 0)
