"""Checks on files outside the package that run against it: the
benchmark's tracer probes and the README's Python example."""

import contextlib
import importlib
import importlib.util
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_probes_resolve(monkeypatch):
    # perfbench/tracing.py swaps each (module, attribute) pair for a
    # wrapper; a missing name makes a traced benchmark run raise
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    missing = [
        "%s.%s" % (module, attr)
        for module, attr, *_ in tracing.PROBES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_readme_python_example(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Python API") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == "2 7 5 1.0\n"
