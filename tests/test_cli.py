import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowmine
import flowmine.transport
from flowmine import (
    Message,
    annotated_graph,
    build_constraints,
    fsa_from_json,
    fsa_to_json,
    ground_truth_fsa,
    parse_trace,
    serialize_trace,
    shortfall,
)
import flowmine.cli
from flowmine.cli import COMMANDS, EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, build_parser, command_parser, main
from flowmine.fsa import STRATEGIES

from helpers import check_dot, check_smtlib


@pytest.fixture()
def paths(data_dir):
    return {
        "table": str(data_dir / "cache_read.msg"),
        "spec": str(data_dir / "cache_read.flow"),
        "simul_trace": str(data_dir / "simul_start.trace"),
        "mixed_trace": str(data_dir / "mixed.trace"),
        "hits_trace": str(data_dir / "hits.trace"),
    }


@pytest.fixture()
def model_file(tmp_path, flowspec):
    path = tmp_path / "truth.json"
    path.write_text(fsa_to_json(ground_truth_fsa(flowspec)))
    return str(path)


def test_gen_is_deterministic(paths, tmp_path, table):
    argv = ["gen", "--spec", paths["spec"], "--table", paths["table"],
            "--instances", "2", "--seed", "3"]
    out1, out2 = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_text() == out2.read_text()
    trace = parse_trace(out1.read_text(), table)
    assert trace.msg_count >= 8


def test_gen_writes_stdout(paths, capsys, table):
    argv = ["gen", "--spec", paths["spec"], "--table", paths["table"], "--seed", "0"]
    assert main(argv) == EXIT_OK
    trace = parse_trace(capsys.readouterr().out, table)
    assert trace.msg_count >= 4


@pytest.mark.parametrize("instances", ["99999999999999999999", "cpu0_read=99999999999999999999", "5000001"])
def test_gen_refuses_more_instances_than_it_can_schedule(paths, tmp_path, capsys, instances):
    # refused before any instance is set up; cache_read.flow has two
    # flows, so 5,000,001 per flow is over the bound in all
    out = tmp_path / "huge.trace"
    argv = ["gen", "--spec", paths["spec"], "--table", paths["table"], "--instances", instances, "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    total = 2 * int(instances) if instances.isdigit() else int(instances.partition("=")[2])
    assert capsys.readouterr().err == (
        "error: %d instances in all; at most %d can be scheduled\n" % (total, flowmine.flows.MAX_INSTANCES)
    )
    assert not out.exists()


def test_gen_rejects_bad_instances(paths, capsys):
    argv = ["gen", "--spec", paths["spec"], "--table", paths["table"], "--instances", "x="]
    assert main(argv) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


# '²' is a digit to str.isdigit but not a decimal that int() reads: the
# grammar, not Python's int parser, names the fault
@pytest.mark.parametrize("case", ["instances", "named-instances", "trace-line", "flow-branch"])
def test_a_superscript_digit_is_named_by_the_grammar(paths, tmp_path, capsys, case):
    trace_file, spec_file = tmp_path / "sup.trace", tmp_path / "sup.flow"
    trace_file.write_text("²\n", encoding="utf-8")
    spec_file.write_text("flow f:\n  branch: ²\n", encoding="utf-8")
    instances = "error: instances must be a count or name=count[,name=count...], got %r\n"
    argv, error = {
        "instances": (["gen", "--spec", paths["spec"], "--instances", "²"], instances % "²"),
        "named-instances": (["gen", "--spec", paths["spec"], "--instances", "read=²"], instances % "read=²"),
        "trace-line": (["mine", "--trace", str(trace_file), "--out", str(tmp_path / "mined")],
                       "error: %s: line 1: expected 'src:dest:cmd', got '²'\n" % trace_file),
        "flow-branch": (["gen", "--spec", str(spec_file)],
                        "error: %s: line 2: expected 'src:dest:cmd', got '²'\n" % spec_file),
    }[case]
    assert main(argv + ["--table", paths["table"]]) == EXIT_INPUT
    assert capsys.readouterr().err == error


def test_slice_partitions_tagged_trace(paths, tmp_path, table):
    trace_file = tmp_path / "tagged.trace"
    assert main(["gen", "--spec", paths["spec"], "--table", paths["table"],
                 "--instances", "2", "--seed", "1", "--tag", "pid",
                 "--out", str(trace_file)]) == EXIT_OK
    out_dir = tmp_path / "slices"
    assert main(["slice", "--trace", str(trace_file), "--table", paths["table"],
                 "--slice", "pid", "--out", str(out_dir)]) == EXIT_OK
    index = json.loads((out_dir / "slices.json").read_text())
    assert set(index) == {"0", "1", "2", "3"}
    whole = parse_trace(trace_file.read_text(), table)
    total = 0
    for entry in index.values():
        part = parse_trace((out_dir / entry["file"]).read_text(), table)
        assert part.msg_count == entry["messages"]
        total += part.msg_count
    assert total == whole.msg_count


@pytest.mark.parametrize("lines, error", [
    # a keyed slice whose key reads like the label of an unkeyed one
    (["a:b:c;pid=unkeyed0", "b:c:d", "a:b:c;pid=1", "b:c:d;pid=01"], "error: slice label 'unkeyed0' names two slices\n"),
    (["a:b:c;pid=a/b", "b:c:d;pid=2"], "error: slice label 'a/b' cannot be a file name\n"),
])
def test_slice_rejects_a_label_that_names_no_file_of_its_own(tmp_path, capsys, lines, error):
    trace_file = tmp_path / "t.trace"
    trace_file.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "slices"
    assert main(["slice", "--trace", str(trace_file), "--slice", "pid", "--out", str(out_dir)]) == EXIT_INPUT
    assert capsys.readouterr().err == error
    assert not out_dir.exists()


def test_mine_auto_window(paths, tmp_path, capsys):
    out_dir = tmp_path / "mined"
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--out", str(out_dir)]
    assert main(argv) == EXIT_OK
    assert "window 2" in capsys.readouterr().out

    fsa = fsa_from_json((out_dir / "model.json").read_text())
    assert len(fsa.states) == 5
    check_dot((out_dir / "model.dot").read_text())
    graph = json.loads((out_dir / "graph.json").read_text())
    assert graph
    report = json.loads((out_dir / "report.json").read_text())
    assert report[0]["rank"] == 1 and report[0]["size"] == 7
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["window"] == {"mode": "auto", "value": 2}
    # the window floor, w = 1, where every balance's uppers reach its
    # total but no flow saturates them; then a bisection over the
    # supports' change points above it, 2, 3 and 4 (window off), probes
    # 3 and 2
    assert summary["windows_tried"] == 3
    # the 3 probes, the last of which hands its flow to the search, 2
    # reroutes, and one max flow for the one minimum's counts
    assert summary["solves"] == 6
    assert summary["search"] == {
        "nodes": 16, "bound_prunes": 5, "minima": 1, "size_proved": True, "all_listed": True, "fallback": None,
    }
    assert summary["candidates"] == len(report) == 1  # the windowed problem has one solution
    assert summary["infeasible"] is None
    assert summary["skipped_balances"] == []
    assert summary["best_size"] == 7
    assert summary["states"] == 5
    assert summary["messages"] == 12
    assert set(summary["stage_s"]) == {"parse", "annotate", "search", "write"}
    assert all(seconds >= 0 for seconds in summary["stage_s"].values())
    stages = summary["stage_s"]
    assert stages["annotate"] + stages["search"] == pytest.approx(summary["wall_time_s"], abs=2e-6)


def test_mine_window_off(paths, tmp_path, capsys):
    out_dir = tmp_path / "mined"
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--window", "off", "--out", str(out_dir)]
    assert main(argv) == EXIT_OK
    assert "window off" in capsys.readouterr().out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["window"] == {"mode": "off", "value": None}
    assert summary["windows_tried"] == 1
    # the one probe, whose flow the search starts from, 13 reroutes, and
    # one max flow per minimum for its counts
    assert summary["solves"] == 1 + 13 + 4
    assert summary["search"] == {
        "nodes": 47, "bound_prunes": 16, "minima": 4, "size_proved": True, "all_listed": True, "fallback": None,
    }
    assert summary["best_size"] == 4
    # every minimum is reported, ranked, with its own max flow's counts
    report = json.loads((out_dir / "report.json").read_text())
    assert [row["rank"] for row in report] == [1, 2, 3, 4]
    assert {row["size"] for row in report} == {4}
    assert all(edge["count"] >= 1 for row in report for edge in row["edges"])


def test_mine_fixed_window_infeasible(paths, tmp_path, capsys, routed):
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--window", "0", "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_INFEASIBLE
    assert len(routed) == 1  # the search's root flow is the witness's
    err = capsys.readouterr().err
    assert err.startswith("infeasible: the consistency constraints admit no solution; the out-balances of ")
    summary = json.loads((tmp_path / "x" / "summary.json").read_text())
    witness = summary["infeasible"]
    assert set(witness) == {"out_balances", "need", "in_balances", "capacity"}
    assert witness["need"] > witness["capacity"]
    assert summary["window"] == {"mode": "fixed", "value": 0}
    assert (summary["windows_tried"], summary["solves"]) == (1, 1)
    assert_infeasible_timing(summary)
    assert not (tmp_path / "x" / "model.json").exists()


def assert_infeasible_timing(summary):
    stages = summary["stage_s"]
    assert set(stages) == {"parse", "annotate", "search"}
    assert all(seconds >= 0 for seconds in stages.values())
    assert stages["annotate"] + stages["search"] == pytest.approx(summary["wall_time_s"], abs=2e-6)


def test_mine_names_a_search_that_proves_the_size_but_lists_no_more(paths, tmp_path, capsys, monkeypatch):
    # the walk proves size 4 minimal after 5 nodes, with the nodes whose
    # bound ties it set aside; a budget of 5 nodes leaves none to take
    # them up and list the other three minima with
    monkeypatch.setattr(flowmine.transport, "SEARCH_NODE_BUDGET", 5)
    out_dir = tmp_path / "mined"
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--window", "off", "--out", str(out_dir)]
    assert main(argv) == EXIT_OK
    assert "(fallback: node-budget)" in capsys.readouterr().out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["search"] == {
        "nodes": 5, "bound_prunes": 1, "minima": 1, "size_proved": True, "all_listed": False,
        "fallback": "node-budget",
    }
    assert summary["best_size"] == 4


def test_mine_infeasible_with_any_window(tmp_path, capsys, routed):
    # one x reaches b, but two y leave it, however wide the window
    trace_file = tmp_path / "short.trace"
    trace_file.write_text("a:b:x\nb:c:y\nb:c:y\n")
    out_dir = tmp_path / "x"
    assert main(["mine", "--trace", str(trace_file), "--out", str(out_dir)]) == EXIT_INFEASIBLE
    assert routed == []  # the balance totals differ, so no max flow runs
    off = build_constraints(annotated_graph([parse_trace(trace_file.read_text())]))
    assert capsys.readouterr().err == (
        "infeasible: no window length admits a solution, not even no window (1 tried); %s\n"
        % shortfall(off).describe()
    )
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["infeasible"] == shortfall(off).to_json()
    assert summary["skipped_balances"] == []
    assert summary["window"] == {"mode": "auto", "value": None}
    assert (summary["windows_tried"], summary["solves"]) == (1, 0)
    assert_infeasible_timing(summary)
    assert set(summary) == {
        "traces", "messages", "slice", "window", "windows_tried", "solves", "wall_time_s", "stage_s",
        "infeasible", "reason", "skipped_balances",
    }
    assert not (out_dir / "model.json").exists()


def test_mine_takes_no_seed(paths, tmp_path, capsys):
    base = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"], "--out", str(tmp_path / "x")]
    assert main(base + ["--seed", "1"]) == EXIT_INPUT
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert main(base + ["--config", str(cfg)]) == EXIT_INPUT
    assert "config keys not recognized: seed" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--sz", "200"], ["--order", "ascending-support"]])
def test_mine_takes_no_sz_or_order(paths, tmp_path, capsys, flag):
    # the search finds every smallest model itself, so neither the
    # enumeration size nor the walk order is a setting any more
    base = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"], "--out", str(tmp_path / "x")]
    assert main(base + flag) == EXIT_INPUT
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps({flag[0][2:]: flag[1]}))
    assert main(base + ["--config", str(cfg)]) == EXIT_INPUT
    assert "config keys not recognized: %s" % flag[0][2:] in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, error",
    [
        ({"window": [1]}, "config key 'window' must be a string, got [1]"),
        ({"trace": "t.trace"}, "config key 'trace' must be a list of strings, got \"t.trace\""),
        ({"top": "two"}, "config key 'top' must be an integer, got \"two\""),
        ({"top": 2.5}, "config key 'top' must be an integer, got 2.5"),
        ({"top": True}, "config key 'top' must be an integer, got true"),
        ({"top": None}, "config key 'top' must be an integer, got null"),
        ({"func": 1}, "config keys not recognized: func"),
    ],
    ids=["list-for-string", "string-for-append", "bad-int-text", "fraction", "bool", "null", "parser-internal"],
)
def test_config_values_are_checked_like_flags(paths, tmp_path, capsys, config, error):
    # set_defaults skips a flag's conversion for a value that is not a
    # string, so each value is checked against its flag first
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps(config))
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--config", str(cfg), "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: %s\n" % error
    assert not (tmp_path / "x").exists()


def test_config_values_of_the_right_type_apply(paths, tmp_path, capsys):
    # strings convert as on the command line, numbers of the flag's type
    # pass, and a config trace list comes before the --trace flags
    base = ["mine", "--table", paths["table"], "--window", "off"]
    cfg = tmp_path / "mine.json"
    for config in ({"top": "2"}, {"top": 2}, {"top": 2.0, "trace": [paths["mixed_trace"]]}):
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / str(len(list(tmp_path.iterdir())))
        argv = base + ["--trace", paths["mixed_trace"], "--config", str(cfg), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        assert len(json.loads((out_dir / "report.json").read_text())) == 2
        traces = json.loads((out_dir / "summary.json").read_text())["traces"]
        assert traces == [paths["mixed_trace"]] * (1 + ("trace" in config))
    capsys.readouterr()


def test_mine_top_caps_the_report(paths, tmp_path, capsys):
    # window off, mixed_trace has four minima: --top keeps the best two
    # in report.json, and summary.json still counts all four
    base = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"], "--window", "off"]
    assert main(base + ["--out", str(tmp_path / "all")]) == EXIT_OK
    assert main(base + ["--top", "2", "--out", str(tmp_path / "two")]) == EXIT_OK
    full = json.loads((tmp_path / "all" / "report.json").read_text())
    capped = json.loads((tmp_path / "two" / "report.json").read_text())
    assert len(full) == 4 and capped == full[:2]
    assert json.loads((tmp_path / "two" / "summary.json").read_text())["candidates"] == 4
    capsys.readouterr()
    assert main(base + ["--top", "0", "--out", str(tmp_path / "none")]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: top must be positive\n"
    assert not (tmp_path / "none").exists()


def test_mine_long_trace_needing_a_wide_window(paths, tmp_path, capsys):
    # These 1,932-message traces are feasible only from w = 52 and
    # w = 172 on, among about 250 change points of the supports.  Both
    # are the window floor, the first length at which every balance's
    # uppers reach its total, so the search probes once.
    for seed, width in ((1001, 52), (11006, 172)):
        trace_file = tmp_path / ("long%d.trace" % seed)
        assert main(["gen", "--spec", paths["spec"], "--table", paths["table"], "--instances", "320",
                     "--simul", "0.2", "--seed", str(seed), "--out", str(trace_file)]) == EXIT_OK
        base = ["mine", "--trace", str(trace_file), "--table", paths["table"]]
        out_dir = tmp_path / ("wide%d" % seed)
        assert main(base + ["--out", str(out_dir)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["window"] == {"mode": "auto", "value": width}
        assert summary["windows_tried"] == 1
        assert summary["solves"] == 1 + 20 + 6  # the probe, 20 reroutes, and each minimum's counts
        assert summary["search"]["all_listed"] and summary["search"]["minima"] == summary["candidates"] == 6
        assert summary["best_size"] == 7
    # --max-window is still accepted, and ignored with a note: gen seed
    # 11006 mines at w = 172 under --max-window 128 too
    bounded = tmp_path / "bounded"
    assert main(base + ["--max-window", "128", "--out", str(bounded)]) == EXIT_OK
    assert capsys.readouterr().err == "note: --max-window is ignored; the window search needs no bound\n"
    for name in ("model.json", "graph.json", "report.json"):
        assert (bounded / name).read_text() == (out_dir / name).read_text()


@pytest.fixture(scope="module")
def k4_mined(data_dir, tmp_path_factory):
    """A 4-CPU trace (gen seed 1005) and the directory mine wrote for it."""
    tmp_path = tmp_path_factory.mktemp("k4")
    trace_file = tmp_path / "k4.trace"
    argv = ["gen", "--spec", str(data_dir / "multi_agent_k4.flow"), "--instances", "5",
            "--simul", "0.2", "--seed", "1005", "--out", str(trace_file)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
        assert main(["mine", "--trace", str(trace_file), "--out", str(tmp_path / "mined")]) == EXIT_OK
    return trace_file, tmp_path / "mined"


def test_mine_proves_the_k4_minimum_within_the_node_budget(k4_mined):
    # the walk proves this 4-CPU problem's minimum, 24 edges, after
    # 16,211 nodes, which SEARCH_NODE_BUDGET must cover;
    # at 10,000 nodes the search stopped at 25 edges, unproved
    summary = json.loads((k4_mined[1] / "summary.json").read_text())
    assert summary["best_size"] == 24
    assert summary["search"]["size_proved"] is True
    # the walk itself: the listing pass ends at the budget, and solves
    # are the window's one probe and the search's 6,001 max flows
    search = summary["search"]
    assert (search["nodes"], search["bound_prunes"], search["minima"]) == (20_000, 5_902, 1)
    assert (summary["windows_tried"], summary["solves"]) == (1, 1 + 6_001)


def test_exhaustive_eval_of_the_k4_model_completes_on_its_own_trace(k4_mined, capsys):
    # the search proves 129 of 132 within the default budget, where
    # oldest-first accepts 125
    trace_file, out_dir = k4_mined
    argv = ["eval", "--model", str(out_dir / "model.json"), "--trace", str(trace_file)]
    assert main(argv + ["--strategy", "exhaustive"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert (obj["accepted"], obj["total"], obj["fallback"]) == (129, 132, None)
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["accepted"] == 125


def test_mine_fixed_window_splits_annotate_from_search(paths, tmp_path):
    out_dir = tmp_path / "mined"
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"], "--window", "3",
            "--out", str(out_dir)]
    assert main(argv) == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text())
    stages = summary["stage_s"]
    assert set(stages) == {"parse", "annotate", "search", "write"}
    assert stages["annotate"] > 0 and stages["search"] > 0
    assert stages["annotate"] + stages["search"] == pytest.approx(summary["wall_time_s"], abs=2e-6)


# sha256 of model.json, graph.json and report.json per mine, and of
# report.json with every edge's count removed.  Models and graphs are
# as the per-slice matching wrote them before slices were matched per
# shape.  A minimum's counts are one max flow over just its edges, so
# report.json depends on the model alone and is pinned whole; the
# fourth digest pins ranks, sizes and edges apart from the counts.
MINED_DIGESTS = {
    (): (
        "15e5ea3c940179c858b7ecec66864de66062f3f37784af8e8606a3cd506c8398",
        "76ca4538ea3d23fdc77119c48e8aeecaca45ba389ce405c87be7a9e78f3fe223",
        "cc28013d3e33bec9e15813e589d893543ded34188eb6001a28ca8e207f053ccb",
        "5dfc8d90fd750a9f316bfec22869468b3cca429782bbc14be3c34c9c339903ae",
    ),
    ("--slice", "pid"): (
        "15e5ea3c940179c858b7ecec66864de66062f3f37784af8e8606a3cd506c8398",
        "49f4103f94b1155eba6648382917ab6429984f2e321db6c9698e3de5f4446f9f",
        "4ad9c2a6b67d1107e9ec6325af083b827b44e1f0e2cb646991dbda1f8446aee2",
        "ac7ddfba5e8c962f92a956060acf4f65620c370880e997dd15dcc1d7bab1b5a1",
    ),
    ("--slice", "pid", "--window", "3"): (
        "15e5ea3c940179c858b7ecec66864de66062f3f37784af8e8606a3cd506c8398",
        "2295a95f7996864d908386cd429632b00c72e6f1dcd0d0090cbf1e575e5d8c01",
        "4ad9c2a6b67d1107e9ec6325af083b827b44e1f0e2cb646991dbda1f8446aee2",
        "ac7ddfba5e8c962f92a956060acf4f65620c370880e997dd15dcc1d7bab1b5a1",
    ),
}


def mined_digests_trace(paths, tmp_path):
    trace_file = tmp_path / "tagged.trace"
    assert main(["gen", "--spec", paths["spec"], "--table", paths["table"], "--instances", "200",
                 "--seed", "7", "--simul", "0.2", "--tag", "pid", "--out", str(trace_file)]) == EXIT_OK
    return trace_file


def test_mine_outputs_are_byte_identical(paths, tmp_path, capsys):
    trace_file = mined_digests_trace(paths, tmp_path)
    for flags, digests in MINED_DIGESTS.items():
        out_dir = tmp_path / ("mined%d" % len(flags))
        assert main(["mine", "--trace", str(trace_file), "--table", paths["table"], *flags,
                     "--out", str(out_dir)]) == EXIT_OK
        got = tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                    for name in ("model.json", "graph.json", "report.json"))
        report = json.loads((out_dir / "report.json").read_text())
        for row in report:
            for edge in row["edges"]:
                del edge["count"]
        got += (hashlib.sha256(json.dumps(report).encode()).hexdigest(),)
        assert got == digests, flags
    assert capsys.readouterr().err == ""


# sha256 of eval's stdout per strategy, for the model mined from the
# MINED_DIGESTS trace scored on a held-out trace (gen --seed 8, the
# same flags otherwise) and on each trace under tests/data
EVAL_DIGESTS = {
    "heldout.trace": (
        "c6fa860237a41f2fc64d296b02cbfd4fab4bc8afd3fdc0283e41f48b97b2c224",
        "a79bb3686c8617f718d6d3258c95a77c8749c351c82114658b59ec56fc4ddb80",
        "6f985b416e359d96a96d3b2a03e1e247a110e745db993d8ed46385a6a3dbc25f",
    ),
    "hits.trace": (
        "dbb6421ba4f4a9a173c9833b4395823a7ed0721510d7d0f0cd17ca0ab6033c23",
        "37e46a0af6dff13f4c8d55152924c329f983688801a412a39614baafb100c8ce",
        "74876f308508acea02e2eb5405f9f5bfa6d1fd61eaf7fbd717981428377d83f3",
    ),
    "mixed.trace": (
        "4416eb112b7568a3d316b68a29b216958cbef57ba3b79f7338c27a860bce9813",
        "fb1df3cdc3608584165c0aa6ca8774bc5355dc34b9d56828d9fa068a664c906f",
        "d88635c23ba5e44b8c27402004e96d723a74d100264c3b6980015f0538d858b3",
    ),
    "pipelined.trace": (
        "0bc26c9c4cc677a233d7c62d756643b7818bd5a032870af6f30b329a7047c70c",
        "64f351ff176bb626d8d5b34dbef55809ccb17f3fb0b00f8d7e29aa559a8f8847",
        "d88635c23ba5e44b8c27402004e96d723a74d100264c3b6980015f0538d858b3",
    ),
    "simul_start.trace": (
        "f8f3f56968069c925e390197ba3de4687c965995e2aa22f0fc1bedf5ccc286c8",
        "c6a97b8714f9827bbf0737f8622ba82df8399d11dd81e89471e6c5bf3afe49de",
        "d88635c23ba5e44b8c27402004e96d723a74d100264c3b6980015f0538d858b3",
    ),
}


def test_eval_outputs_are_byte_identical(paths, data_dir, tmp_path, capsys):
    trace_file = mined_digests_trace(paths, tmp_path)
    heldout = tmp_path / "heldout.trace"
    assert main(["gen", "--spec", paths["spec"], "--table", paths["table"], "--instances", "200",
                 "--seed", "8", "--simul", "0.2", "--tag", "pid", "--out", str(heldout)]) == EXIT_OK
    assert main(["mine", "--trace", str(trace_file), "--table", paths["table"], "--out", str(tmp_path / "mined")]) == EXIT_OK
    capsys.readouterr()
    got = {}
    for trace in [heldout, *sorted(data_dir.glob("*.trace"))]:
        digests = []
        for strategy in STRATEGIES:
            assert main(["eval", "--model", str(tmp_path / "mined" / "model.json"), "--trace", str(trace),
                         "--table", paths["table"], "--strategy", strategy]) == EXIT_OK
            digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        got[trace.name] = tuple(digests)
    assert got == EVAL_DIGESTS


def test_mine_at_the_window_auto_chose_writes_what_auto_wrote(paths, tmp_path, capsys, monkeypatch, routed):
    # every --window mode is one auto_window search: a length or off is
    # a search with one candidate, so mining at the window auto chose
    # probes it once and writes the same model, graph and report
    searches = []
    real = flowmine.cli.auto_window
    monkeypatch.setattr(flowmine.cli, "auto_window", lambda *a, **k: searches.append(k["window"]) or real(*a, **k))
    trace_file = mined_digests_trace(paths, tmp_path)

    def mine(*flags):
        out_dir = tmp_path / str(len(searches))
        del routed[:]
        assert main(["mine", "--trace", str(trace_file), "--table", paths["table"], *flags,
                     "--out", str(out_dir)]) == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["solves"] == len(routed)  # the root max flow runs once, in the probe
        return out_dir, summary

    for flags in ([], ["--slice", "pid"]):
        auto, summary = mine(*flags)
        width = summary["window"]["value"]
        fixed, summary = mine(*flags, "--window", str(width))
        assert (summary["window"], summary["windows_tried"]) == ({"mode": "fixed", "value": width}, 1)
        for name in ("model.json", "graph.json", "report.json"):
            assert (fixed / name).read_bytes() == (auto / name).read_bytes(), (flags, name)
        assert searches[-2:] == ["auto", width]
    mine("--window", "off")
    assert len(searches) == 5 and searches[-1] is None
    capsys.readouterr()


def test_mine_records_skipped_balances(mixed_trace, tmp_path):
    # the side trace leaves b:c:out without an incoming edge (see
    # test_extract.test_auto_window_warns_once_per_run)
    mixed_file, side_file = tmp_path / "mixed.trace", tmp_path / "side.trace"
    mixed_file.write_text(serialize_trace(mixed_trace))
    side_file.write_text("a:b:go\nb:c:out\na:b:go\n")
    out_dir = tmp_path / "mined"
    assert main(["mine", "--trace", str(mixed_file), "--trace", str(side_file), "--out", str(out_dir)]) == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["window"] == {"mode": "auto", "value": 2}
    assert summary["skipped_balances"] == [["b:c:out", "in"]]


def test_mine_multiple_traces(paths, tmp_path):
    out_dir = tmp_path / "mined"
    argv = ["mine", "--trace", paths["mixed_trace"], "--trace", paths["hits_trace"],
            "--table", paths["table"], "--window", "off", "--out", str(out_dir)]
    assert main(argv) == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["messages"] == 16
    assert summary["best_size"] == 5


def test_mine_sliced_trace(paths, tmp_path):
    trace_file = tmp_path / "tagged.trace"
    main(["gen", "--spec", paths["spec"], "--table", paths["table"],
          "--instances", "3", "--seed", "2", "--tag", "pid", "--out", str(trace_file)])
    out_dir = tmp_path / "mined"
    argv = ["mine", "--trace", str(trace_file), "--table", paths["table"],
            "--slice", "pid", "--window", "off", "--out", str(out_dir)]
    assert main(argv) == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["slice"] == "pid"


def test_mine_usage_errors(paths, tmp_path, capsys):
    base = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"]]
    # bad window spec
    assert main(base + ["--window", "soon", "--out", str(tmp_path)]) == EXIT_INPUT
    # unknown flag
    assert main(base + ["--order", "index", "--out", str(tmp_path)]) == EXIT_INPUT
    # missing required --out
    assert main(base) == EXIT_INPUT
    # unreadable trace file
    assert main(["mine", "--trace", str(tmp_path / "nope.trace"),
                 "--out", str(tmp_path)]) == EXIT_INPUT
    assert capsys.readouterr().err.count("error:") == 4


def test_eval_reports_json(paths, model_file, capsys):
    argv = ["eval", "--model", model_file, "--trace", paths["simul_trace"],
            "--table", paths["table"]]
    assert main(argv) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["accepted"] == 12 and obj["total"] == 12
    assert obj["ratio"] == 1.0
    assert obj["strategy"] == "oldest-first"
    assert obj["fallback"] is None
    assert obj["nodes"] == 0  # greedy strategies search nothing
    assert obj["rejected_positions"] == []


def test_eval_builds_no_message_per_instance(
    paths, model_file, long_tagged_trace, table, tmp_path, capsys, monkeypatch
):
    trace_file = tmp_path / "long.trace"
    trace_file.write_text(serialize_trace(long_tagged_trace, table))
    transitions = len(fsa_from_json(Path(model_file).read_text()).transitions)
    built = []
    real = Message.__post_init__
    monkeypatch.setattr(Message, "__post_init__", lambda self: built.append(self) or real(self))
    argv = ["eval", "--model", model_file, "--trace", str(trace_file), "--table", paths["table"]]
    assert main(argv) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["total"] == long_tagged_trace.msg_count > 9_000
    # the model's transitions, the table's entries, one per distinct triple
    assert len(built) <= transitions + len(table) + len(long_tagged_trace.alphabet) + 2


@pytest.fixture
def decoded(monkeypatch):
    """The attribute text of each call that decodes one, a whole
    mapping or one key of it."""
    texts = []
    for name in ("_decode_attrs", "_attr_value"):
        real = getattr(flowmine.trace, name)
        monkeypatch.setattr(flowmine.trace, name, lambda text, *rest, real=real: texts.append(text) or real(text, *rest))
    return texts


def test_eval_decodes_no_attribute(paths, model_file, long_tagged_trace, table, tmp_path, capsys, decoded):
    trace_file = tmp_path / "long.trace"
    trace_file.write_text(serialize_trace(long_tagged_trace, table))
    argv = ["eval", "--model", model_file, "--trace", str(trace_file), "--table", paths["table"]]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["total"] == long_tagged_trace.msg_count > 9_000
    assert decoded == []


def test_sliced_mine_decodes_each_attribute_text_at_most_once(paths, long_tagged_trace, table, tmp_path, decoded):
    # canonical pids are keyed by their text, so nothing is decoded
    text = serialize_trace(long_tagged_trace, table)
    trace_file = tmp_path / "long.trace"
    trace_file.write_text(text)
    argv = ["mine", "--table", paths["table"], "--slice", "pid"]
    assert main(argv + ["--trace", str(trace_file), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert decoded == []
    # zero-padded pids are decoded, each distinct text at most once, and
    # slice as the canonical ones do
    padded = text.replace("pid=", "pid=0")
    (tmp_path / "padded.trace").write_text(padded)
    assert main(argv + ["--trace", str(tmp_path / "padded.trace"), "--out", str(tmp_path / "padded")]) == EXIT_OK
    distinct = {token.partition(";")[2] for token in padded.split()}
    assert len(distinct) == 3300  # 1650 instances of each of two flows
    assert decoded and len(decoded) == len(set(decoded)) and set(decoded) <= distinct
    for name in ("model.json", "graph.json", "report.json"):
        assert (tmp_path / "padded" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


def test_only_commands_that_read_attributes_keep_their_texts(paths, model_file, long_tagged_trace, table, tmp_path,
                                                           capsys, monkeypatch):
    cuts = []
    real = flowmine.trace._cut_attr_texts
    monkeypatch.setattr(flowmine.trace, "_cut_attr_texts", lambda text: cuts.append(text) or real(text))
    trace_file = tmp_path / "long.trace"
    trace_file.write_text(serialize_trace(long_tagged_trace, table))
    trace, tab = ["--trace", str(trace_file)], ["--table", paths["table"]]
    for strategy in STRATEGIES:
        assert main(["eval", "--model", model_file, *trace, *tab, "--strategy", strategy, "--budget", "10"]) == EXIT_OK
    assert main(["export-smt", *trace, *tab, "--window", "off", "--out", str(tmp_path / "long.smt2")]) == EXIT_OK
    assert main(["mine", *trace, *tab, "--out", str(tmp_path / "plain")]) == EXIT_OK
    assert cuts == []
    # a sliced mine keeps the texts, one split per trace
    assert main(["mine", *trace, *trace, *tab, "--slice", "pid", "--out", str(tmp_path / "sliced")]) == EXIT_OK
    assert len(cuts) == 2


def test_zero_padded_pids_mine_the_sliced_digests(paths, tmp_path):
    padded = tmp_path / "padded.trace"
    padded.write_text(mined_digests_trace(paths, tmp_path).read_text().replace("pid=", "pid=0"))
    for flags, digests in MINED_DIGESTS.items():
        if "--slice" in flags:
            out_dir = tmp_path / ("mined%d" % len(flags))
            assert main(["mine", "--trace", str(padded), "--table", paths["table"], *flags,
                         "--out", str(out_dir)]) == EXIT_OK
            got = tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                        for name in ("model.json", "graph.json", "report.json"))
            assert got == digests[:3], flags


@pytest.mark.parametrize("attribute", ["pid=3", "p d", "pid;x"])
@pytest.mark.parametrize("command", ["mine", "slice"])
def test_a_slice_attribute_no_trace_can_hold_is_an_input_error(paths, tmp_path, capsys, command, attribute):
    # such a name would isolate every message, and mine would exit 2
    out_dir = tmp_path / "out"
    argv = [command, "--trace", paths["simul_trace"], "--table", paths["table"], "--slice", attribute,
            "--out", str(out_dir)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: attribute name %r contains reserved characters\n" % attribute
    assert not out_dir.exists()


def test_eval_names_the_budget_fallback(paths, model_file, capsys):
    argv = ["eval", "--model", model_file, "--trace", paths["simul_trace"],
            "--table", paths["table"], "--strategy", "exhaustive"]
    assert main(argv) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert (obj["fallback"], obj["nodes"]) == (None, 12)  # one node per message, no backtracking
    assert main(argv + ["--budget", "1"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert (obj["strategy"], obj["fallback"]) == ("exhaustive", "oldest-first")
    assert obj["nodes"] == 2  # the second node passes the budget
    assert obj["accepted"] == 12


def test_eval_rejects_a_negative_budget(paths, model_file, capsys):
    argv = ["eval", "--model", model_file, "--trace", paths["simul_trace"],
            "--table", paths["table"], "--strategy", "exhaustive", "--budget", "-5"]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: budget must be non-negative\n")


def test_mine_checks_its_flags_before_reading_a_trace(tmp_path, capsys):
    base = ["mine", "--trace", str(tmp_path / "missing.trace"), "--out", str(tmp_path / "mined")]
    for flags, error in (
        (["--top", "0"], "top must be positive"),
        (["--window", "wide"], "window must be 'auto', 'off', or an integer, got 'wide'"),
        (["--slice", ":block=4"], "slice spec ':block=4' names no attribute"),
    ):
        assert main(base + flags) == EXIT_INPUT
        assert capsys.readouterr().err == "error: %s\n" % error
    assert not (tmp_path / "mined").exists()


def test_export_smt_checks_its_window_before_reading_a_trace(tmp_path, capsys):
    argv = ["export-smt", "--trace", str(tmp_path / "missing.trace"), "--window", "-1"]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: window length must be non-negative\n"


def test_slice_checks_its_policy_before_reading_a_trace(tmp_path, capsys):
    argv = ["slice", "--trace", str(tmp_path / "missing.trace"), "--slice", "pid:size=4",
            "--out", str(tmp_path / "slices")]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: unknown slice option 'size'\n"
    assert not (tmp_path / "slices").exists()


def test_eval_newest_first_rejects_one(paths, model_file, capsys):
    argv = ["eval", "--model", model_file, "--trace", paths["simul_trace"],
            "--table", paths["table"], "--strategy", "newest-first"]
    assert main(argv) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["accepted"] == 11
    assert len(obj["rejected_positions"]) == 1
    assert {"event", "msg"} <= set(obj["rejected_positions"][0])


def test_eval_rejects_unknown_strategy(paths, model_file, capsys):
    argv = ["eval", "--model", model_file, "--trace", paths["simul_trace"],
            "--strategy", "hopeful"]
    assert main(argv) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_export_smt_stdout(paths, capsys):
    argv = ["export-smt", "--trace", paths["mixed_trace"], "--table", paths["table"]]
    assert main(argv) == EXIT_OK
    forms = check_smtlib(capsys.readouterr().out)
    assert ["check-sat"] in forms


# sha256 of export-smt's stdout on mixed.trace, per --window
SMT_DIGESTS = {
    "off": "9298373c5b658fee9bcccbc966ade5b6eddee546513a56a66f5282c239627a98",
    "2": "4e62b12dd8fc17b2338404fc4720806ab1a9736158e4e33650697502d480d4dd",
}


@pytest.mark.parametrize("window", list(SMT_DIGESTS))
def test_export_smt_output_is_byte_identical(paths, capsys, window):
    argv = ["export-smt", "--trace", paths["mixed_trace"], "--table", paths["table"], "--window", window]
    assert main(argv) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SMT_DIGESTS[window]


def test_export_smt_requires_concrete_window(paths, capsys):
    argv = ["export-smt", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--window", "auto"]
    assert main(argv) == EXIT_INPUT
    assert "concrete window" in capsys.readouterr().err


def test_dot_command(paths, model_file, tmp_path, capsys):
    assert main(["dot", "--model", model_file, "--table", paths["table"]]) == EXIT_OK
    nodes, edges = check_dot(capsys.readouterr().out)
    assert "q0" in nodes and len(edges) == 10
    out = tmp_path / "m.dot"
    assert main(["dot", "--model", model_file, "--out", str(out)]) == EXIT_OK
    check_dot(out.read_text())


@pytest.mark.parametrize("command", ["eval", "dot"])
def test_model_with_a_list_for_a_state_is_an_input_error(paths, tmp_path, command):
    # an unhashable "from" once reached the transition dict and ended
    # the command in a TypeError traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"states": ["q0"], "initial": "q0", "transitions": [
        {"from": ["q0"], "msg": {"src": "a", "dest": "b", "cmd": "x"}, "to": "q0"}]}))
    argv = [command, "--model", str(bad)] + (["--trace", paths["mixed_trace"]] if command == "eval" else [])
    env = dict(os.environ, PYTHONPATH=str(Path(flowmine.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "flowmine.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_INPUT
    assert done.stderr.startswith("error: malformed transition row: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize("command, error", [
    ("eval", "model is not valid JSON: nested too deeply"),
    ("dot", "model is not valid JSON: nested too deeply"),
    ("config", "config file is not valid JSON: nested too deeply"),
])
def test_deeply_nested_json_is_an_input_error(paths, model_file, tmp_path, command, error):
    # the decoder's RecursionError once ended the command in a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {
        "eval": ["eval", "--model", str(deep), "--trace", paths["mixed_trace"]],
        "dot": ["dot", "--model", str(deep)],
        "config": ["dot", "--model", model_file, "--config", str(deep)],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(Path(flowmine.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "flowmine.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_INPUT
    assert done.stderr == "error: %s\n" % error


@pytest.mark.parametrize("flag", ["--trace", "--model", "--table"])
def test_undecodable_input_is_named(paths, model_file, tmp_path, capsys, flag):
    # the decoder's error names no file, so with two traces the
    # message once left the reader to guess which one was at fault
    bad = tmp_path / "bad.input"
    bad.write_bytes(b"\xffa:b:go\n")
    argv = {
        "--trace": ["mine", "--trace", paths["mixed_trace"], "--trace", str(bad), "--table", paths["table"],
                    "--out", str(tmp_path / "mined")],
        "--model": ["eval", "--model", str(bad), "--trace", paths["mixed_trace"], "--table", paths["table"]],
        "--table": ["mine", "--trace", paths["mixed_trace"], "--table", str(bad), "--out", str(tmp_path / "mined")],
    }[flag]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: %s: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n" % bad
    )


@pytest.mark.parametrize("flag", ["--spec", "--table"])
def test_parse_error_names_the_file(paths, tmp_path, capsys, flag):
    # a parse error gives its line; with a spec, a table and traces on
    # one command line, the file is named too
    bad = tmp_path / "bad.input"
    bad.write_text("# header\nbogus line\n", encoding="utf-8")
    argv, error = {
        "--spec": (["gen", "--spec", str(bad), "--table", paths["table"]],
                   "expected 'flow <name>:' or 'branch: ...'"),
        "--table": (["mine", "--trace", paths["mixed_trace"], "--table", str(bad), "--out", str(tmp_path / "mined")],
                    "expected '<index> (<src>:<dest>:<cmd>)'"),
    }[flag]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: %s: line 2: %s\n" % (bad, error)
    assert not (tmp_path / "mined").exists()


def test_config_file_supplies_defaults(paths, tmp_path):
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps({"window": "2", "top": 5}))
    out_dir = tmp_path / "mined"
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--config", str(cfg), "--out", str(out_dir)]
    assert main(argv) == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["window"] == {"mode": "fixed", "value": 2}


def test_explicit_flags_beat_config(paths, tmp_path):
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps({"window": "2"}))
    out_dir = tmp_path / "mined"
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--config", str(cfg), "--window", "off", "--out", str(out_dir)]
    assert main(argv) == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["window"] == {"mode": "off", "value": None}


def test_config_rejects_unknown_keys(paths, tmp_path, capsys):
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps({"windw": "2"}))
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--config", str(cfg), "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_INPUT
    assert "not recognized" in capsys.readouterr().err


def test_config_supplies_required_flags(paths, tmp_path, capsys):
    flags = tmp_path / "flags"
    assert main(["mine", "--trace", paths["mixed_trace"], "--table", paths["table"], "--out", str(flags)]) == EXIT_OK
    cfg = tmp_path / "mine.json"
    config = tmp_path / "config"
    cfg.write_text(json.dumps({"trace": [paths["mixed_trace"]], "table": paths["table"], "out": str(config)}))
    assert main(["mine", "--config", str(cfg)]) == EXIT_OK
    assert (config / "model.json").read_bytes() == (flags / "model.json").read_bytes()
    capsys.readouterr()


def test_config_supplies_dot_model_and_gen_spec(paths, model_file, tmp_path, capsys):
    assert main(["dot", "--model", model_file]) == EXIT_OK
    dot = capsys.readouterr().out
    cfg = tmp_path / "dot.json"
    cfg.write_text(json.dumps({"model": model_file}))
    assert main(["dot", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == dot
    assert main(["gen", "--spec", paths["spec"], "--table", paths["table"], "--seed", "3"]) == EXIT_OK
    trace = capsys.readouterr().out
    cfg.write_text(json.dumps({"spec": paths["spec"], "table": paths["table"]}))
    assert main(["gen", "--config", str(cfg), "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out == trace


@pytest.mark.parametrize(
    "config, error",
    [
        ({"table": "m.msg"}, "--trace, --out"),
        ({"trace": ["t.trace"]}, "--out"),
        ({"out": "d"}, "--trace"),
    ],
)
def test_a_required_flag_missing_from_flags_and_config_is_named(tmp_path, capsys, config, error):
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps(config))
    assert main(["mine", "--config", str(cfg)]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: the following arguments are required: %s\n" % error
    assert not (tmp_path / "d").exists()


# one argv per command that sets every flag it has but --config
FULL_ARGVS = {
    "gen": ["gen", "--spec", "s.flow", "--table", "m.msg", "--instances", "a=2,b=1",
            "--seed", "3", "--gap", "4", "--simul", "0.5", "--tag", "pid", "--out", "o.trace"],
    "slice": ["slice", "--trace", "t.trace", "--table", "m.msg", "--slice", "pid:missing=drop", "--out", "d"],
    "mine": ["mine", "--trace", "a.trace", "--trace", "b.trace", "--table", "m.msg", "--window", "2",
             "--max-window", "9", "--slice", "pid", "--top", "3", "--out", "d"],
    "eval": ["eval", "--model", "m.json", "--trace", "t.trace", "--table", "m.msg",
             "--strategy", "exhaustive", "--budget", "5"],
    "export-smt": ["export-smt", "--trace", "t.trace", "--table", "m.msg", "--window", "3", "--out", "o.smt2"],
    "dot": ["dot", "--model", "m.json", "--table", "m.msg", "--out", "o.dot"],
}


def test_every_command_has_a_full_argv():
    assert list(FULL_ARGVS) == list(COMMANDS)
    for name, argv in FULL_ARGVS.items():
        flags = {s for a in command_parser(name)._actions for s in a.option_strings if s.startswith("--")}
        assert flags - set(argv) == {"--help", "--config"}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_command_parser_matches_the_full_one(name, monkeypatch):
    full, by_name = build_parser()
    assert list(by_name) == list(COMMANDS)
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        one, sub = command_parser(name), build_parser()[1][name]
        assert one.format_help() == sub.format_help()
        assert one.format_usage() == sub.format_usage()
    argv = FULL_ARGVS[name]
    assert one.parse_args(argv[1:]) == full.parse_args(argv)


# argv -> the usage error that main prints for it
USAGE_ERRORS = {
    ("gen",): "the following arguments are required: --spec",
    ("slice", "--table", "m.msg"): "the following arguments are required: --trace, --slice, --out",
    ("mine", "--trace", "t.trace"): "the following arguments are required: --out",
    ("eval", "--model", "m.json"): "the following arguments are required: --trace",
    ("export-smt", "--out", "o.smt2"): "the following arguments are required: --trace",
    ("dot",): "the following arguments are required: --model",
    ("mine", "--trace", "t.trace", "--out", "d", "--order", "index"): "unrecognized arguments: --order index",
    ("dot", "--model", "m.json", "--model"): "argument --model: expected one argument",
    ("mine", "--t", "t.trace", "--out", "d"): "ambiguous option: --t could match --trace, --table, --top",
    ("eval", "--model", "m.json", "--trace", "t.trace", "--strategy", "hopeful"):
        "argument --strategy: invalid choice: 'hopeful' (choose from 'oldest-first', 'newest-first', 'exhaustive')",
    ("mine", "--trace", "t.trace", "--top", "two", "--out", "d"): "argument --top: invalid int value: 'two'",
    ("gen", "--spec", "s.flow", "--simul", "half"): "argument --simul: invalid float value: 'half'",
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS))
def test_one_command_parser_gives_the_full_ones_usage_errors(argv, capsys):
    error = USAGE_ERRORS[argv]
    assert main(list(argv)) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: %s\n" % error)
    for parser, args in ((command_parser(argv[0]), argv[1:]), (build_parser()[0], argv)):
        with pytest.raises(ValueError) as exc:
            parser.parse_args(list(args))
        assert str(exc.value) == error


def test_main_builds_only_the_invoked_commands_parser(model_file, monkeypatch):
    built, measured = [], []

    class Counted(flowmine.cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    real = flowmine.cli.shutil.get_terminal_size
    monkeypatch.setattr(flowmine.cli, "_Parser", Counted)
    monkeypatch.setattr(flowmine.cli.shutil, "get_terminal_size", lambda *a: measured.append(a) or real(*a))
    assert main(["dot", "--model", model_file]) == EXIT_OK
    assert built == ["flowmine dot"]
    assert len(measured) == 1  # once for the parser, not at each add_argument


def test_main_without_a_known_command_builds_every_parser(capsys):
    assert main([]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"
    for argv in (["nosuch"], ["mi"]):  # no prefix of a command name matches it
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: argument command: invalid choice: %r (choose from 'gen', 'slice', 'mine', 'eval', "
            "'export-smt', 'dot')\n" % argv[0])
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: flowmine [-h] {gen,slice,mine,eval,export-smt,dot} ...\n")
    assert all(help_text in out for _, help_text, _ in COMMANDS.values())


def test_config_defaults_last_one_call(model_file, tmp_path, capsys):
    cfg = tmp_path / "dot.json"
    out = tmp_path / "m.dot"
    cfg.write_text(json.dumps({"out": str(out)}))
    assert main(["dot", "--model", model_file, "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main(["dot", "--model", model_file]) == EXIT_OK
    assert capsys.readouterr().out == out.read_text()


def test_cli_imports_only_the_standard_library():
    # -S keeps site-packages and its .pth hooks out of the child, so an
    # import of any installed package fails there instead of passing
    env = dict(os.environ, PYTHONPATH=str(Path(flowmine.__file__).parents[1]))
    code = "import sys, flowmine.cli; print(*sorted({m.partition('.')[0] for m in sys.modules}))"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "flowmine" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"flowmine", "__main__"} == set()
