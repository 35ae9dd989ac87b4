import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowmine
from flowmine import Message, fsa_from_json, fsa_to_json, ground_truth_fsa, parse_trace, serialize_trace
from flowmine.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, main

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


def test_gen_rejects_bad_instances(paths, capsys):
    argv = ["gen", "--spec", paths["spec"], "--table", paths["table"], "--instances", "x="]
    assert main(argv) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


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
    assert summary["windows_tried"] == 4  # w = 0, 1, 3, then 2
    assert summary["solves"] == 11  # the 4 probes and 7 distinct pinned sets
    assert summary["best_size"] == 7
    assert summary["states"] == 5
    assert summary["messages"] == 12
    assert set(summary["stage_s"]) == {"parse", "search", "write"}
    assert all(seconds >= 0 for seconds in summary["stage_s"].values())
    assert summary["stage_s"]["search"] == summary["wall_time_s"]


def test_mine_window_off(paths, tmp_path, capsys):
    out_dir = tmp_path / "mined"
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--window", "off", "--out", str(out_dir)]
    assert main(argv) == EXIT_OK
    assert "window off" in capsys.readouterr().out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["window"] == {"mode": "off", "value": None}
    assert summary["windows_tried"] == 1
    assert summary["solves"] == 18  # pinned sets only: no window was probed
    assert summary["best_size"] == 4


def test_mine_fixed_window_infeasible(paths, tmp_path, capsys):
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--window", "0", "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_mine_auto_bound_exhausted(paths, tmp_path, capsys):
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--max-window", "1", "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_mine_rejects_a_negative_window_bound(paths, tmp_path, capsys):
    argv = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"],
            "--max-window", "-3", "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "non-negative" in err and "infeasible" not in err
    assert not (tmp_path / "x").exists()


def test_mine_takes_no_seed(paths, tmp_path, capsys):
    base = ["mine", "--trace", paths["mixed_trace"], "--table", paths["table"], "--out", str(tmp_path / "x")]
    assert main(base + ["--seed", "1"]) == EXIT_INPUT
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert main(base + ["--config", str(cfg)]) == EXIT_INPUT
    assert "config keys not recognized: seed" in capsys.readouterr().err


def test_mine_long_trace_needing_a_wide_window(paths, tmp_path, capsys):
    # This 1,932-message trace is feasible only from w = 172 on: the
    # auto search gives up at 128 after 9 probes (0, 1, 3, ..., 127,
    # 128) and finds 172 when allowed to look further.
    trace_file = tmp_path / "long.trace"
    assert main(["gen", "--spec", paths["spec"], "--table", paths["table"], "--instances", "320",
                 "--simul", "0.2", "--seed", "11006", "--out", str(trace_file)]) == EXIT_OK
    base = ["mine", "--trace", str(trace_file), "--table", paths["table"]]
    assert main(base + ["--max-window", "128", "--out", str(tmp_path / "x")]) == EXIT_INFEASIBLE
    assert "(9 windows tried)" in capsys.readouterr().err
    out_dir = tmp_path / "wide"
    assert main(base + ["--max-window", "2000", "--out", str(out_dir)]) == EXIT_OK
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["window"] == {"mode": "auto", "value": 172}
    assert summary["windows_tried"] == 16  # 8 gallops to 127, 255, then 7 bisections
    assert summary["solves"] == 30  # 200 walks down to one model share 14 pinned sets
    assert summary["best_size"] == 7


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
    # unknown reduction order is an argparse choices error
    assert main(base + ["--order", "bogus", "--out", str(tmp_path)]) == EXIT_INPUT
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


def test_eval_names_the_budget_fallback(paths, model_file, capsys):
    argv = ["eval", "--model", model_file, "--trace", paths["simul_trace"],
            "--table", paths["table"], "--strategy", "exhaustive"]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["fallback"] is None
    assert main(argv + ["--budget", "1"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert (obj["strategy"], obj["fallback"]) == ("exhaustive", "oldest-first")
    assert obj["accepted"] == 12


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


def test_config_file_supplies_defaults(paths, tmp_path):
    cfg = tmp_path / "mine.json"
    cfg.write_text(json.dumps({"window": "2", "sz": 50}))
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
