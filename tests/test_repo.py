"""Checks on files outside the package that run against it, and on the
package's sources: the benchmark's tracer probes, the imports kept for
them and its fallback counter, the one JSON writer, and the README's
Python example, stated budgets and bounds, and summary keys."""

import ast
import contextlib
import importlib
import importlib.util
import io
import logging
import re
import sys
from pathlib import Path

import flowmine.flows
import flowmine.fsa
import flowmine.transport
from flowmine import acceptance_ratio, ground_truth_fsa

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_probes_resolve(monkeypatch):
    # perfbench/tracing.py swaps each (module, attribute) pair for a
    # wrapper; a missing name makes a traced benchmark run raise
    tracing = _load_tracing(monkeypatch)
    missing = [
        "%s.%s" % (module, attr)
        for module, attr, *_ in tracing.PROBES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_unused_imports_are_tracer_probes(monkeypatch):
    # a module keeps an import it never reads only so that
    # perfbench/tracing.py can wrap the name where it is looked up;
    # once no probe names it, the import can go
    probed = {(module, attr) for module, attr, *_ in _load_tracing(monkeypatch).PROBES}
    unprobed = []
    for path in sorted(Path(flowmine.__file__).parent.glob("*.py")):
        if path.stem == "__init__":  # its imports are the package's exports
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        read = {node.id for node in nodes if isinstance(node, ast.Name)}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for name in {(alias.asname or alias.name).partition(".")[0] for alias in node.names} - read:
                    if ("flowmine." + path.stem, name) not in probed:
                        unprobed.append("flowmine.%s.%s" % (path.stem, name))
    assert unprobed == []


def test_indented_json_goes_through_the_writer():
    # with an indent, json.dumps runs the standard library's
    # pure-Python encoder; every file and report goes through
    # flowmine.fsa.json_text instead, which writes the same text
    indented = []
    for path in sorted(Path(flowmine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"
                    and any(k.arg == "indent" for k in node.keywords)):
                indented.append("%s:%d" % (path.name, node.lineno))
    assert indented == []


def test_tracer_counts_every_exhaustive_fallback(monkeypatch, flowspec, simul_trace, table):
    # fsa.exhaustive.fallback_share counts the warnings that name the
    # budget; the node budget is the exhaustive search's only fallback
    budget_warnings = _load_tracing(monkeypatch).Recorder().budget_warnings
    fsa_log = logging.getLogger("flowmine.fsa")
    fsa_log.addHandler(budget_warnings)
    try:
        fsa = ground_truth_fsa(flowspec)
        report = acceptance_ratio(fsa, simul_trace, strategy="exhaustive", budget=1, table=table)
    finally:
        fsa_log.removeHandler(budget_warnings)
    assert report.fallback == "oldest-first"
    assert budget_warnings.fallbacks == 1


def test_readme_python_example(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Python API") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "2 7 5 1.0\n"


def test_readme_states_the_search_node_budget():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`flowmine\.transport\.SEARCH_NODE_BUDGET`,\s+([\d,]+)\s+nodes", text)
    assert [int(n.replace(",", "")) for n in stated] == [flowmine.transport.SEARCH_NODE_BUDGET]


def test_readme_lists_the_search_keys():
    # summary.json's search object is SearchStats.to_json(); the README
    # names each of its keys as "`key`:", inside "`search` (...)"
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"`search` \((`nodes`:.*?)\),\n", text, re.S).group(1)
    stats = flowmine.transport.SearchStats(1, 0, 1, 1, True, None, 1)
    assert re.findall(r"`(\w+)`:", listed) == list(stats.to_json())


def test_readme_states_the_eval_budget_default():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`flowmine\.fsa\.EXHAUSTIVE_BUDGET`,\s+([\d,]+)\s+nodes", text)
    assert [int(n.replace(",", "")) for n in stated] == [flowmine.fsa.EXHAUSTIVE_BUDGET]


def test_readme_states_the_instance_bound():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`flowmine\.flows\.MAX_INSTANCES`,\s+([\d,]+)\s+instances", text)
    assert [int(n.replace(",", "")) for n in stated] == [flowmine.flows.MAX_INSTANCES]
