"""Spans around flowmine's public functions, recorded from outside.

``Recorder.installed(op)`` swaps each function in ``PROBES`` for a
wrapper at the place its caller looks it up (``flowmine.cli.auto_window``,
``flowmine.slicing.support_deltas``, ...), and puts the originals back
on exit.  A span is (name, start, end, parent, op, note); spans stay in
memory and are written out once, when the run ends.  Self time is a
span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import logging
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


def _msg_count(args, kwargs, result):
    return result.msg_count


def _strategy(args, kwargs, result):
    return kwargs.get("strategy", "oldest-first")


def _is_none(args, kwargs, result):
    return result is None


def _length(args, kwargs, result):
    return len(result)


def _pool_size(args, kwargs, result):
    return None if result is None else len(result.pool)


# (module, attribute, span name, note taken from the call).  Modules are
# listed where the function is looked up, which is not always where it
# is defined: cli imports from extract, slicing from causality.
PROBES = (
    ("flowmine.cli", "generate", "flows.generate", None),
    ("flowmine.cli", "parse_trace", "trace.parse_trace", _msg_count),
    ("flowmine.cli", "auto_window", "extract.auto_window", None),
    ("flowmine.cli", "annotated_graph", "extract.annotated_graph", None),
    ("flowmine.cli", "build_constraints", "solver.build_constraints", None),
    ("flowmine.cli", "model_extract", "extract.model_extract", _pool_size),
    ("flowmine.cli", "derive_fsa", "fsa.derive_fsa", None),
    ("flowmine.cli", "dump_graph", "causality.dump_graph", None),
    ("flowmine.cli", "acceptance_ratio", "fsa.acceptance_ratio", _strategy),
    ("flowmine.extract", "annotated_graph", "extract.annotated_graph", None),
    ("flowmine.extract", "detect_initials", "causality.detect_initials", None),
    ("flowmine.extract", "detect_terminals", "causality.detect_terminals", None),
    ("flowmine.extract", "annotate", "causality.annotate", None),
    ("flowmine.extract", "annotate_sliced", "slicing.annotate_sliced", None),
    ("flowmine.extract", "build_constraints", "solver.build_constraints", None),
    ("flowmine.extract", "model_extract", "extract.model_extract", _pool_size),
    ("flowmine.extract", "enumerate_solutions", "solver.enumerate_solutions", _length),
    ("flowmine.extract", "reduce_model", "extract.reduce_model", None),
    ("flowmine.extract", "solve", "solver.solve", _is_none),
    ("flowmine.causality", "support_deltas", "causality.support_deltas", None),
    ("flowmine.slicing", "support_deltas", "causality.support_deltas", None),
    ("flowmine.slicing", "slice_trace", "slicing.slice_trace", _length),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    note: object = None


class _BudgetCounter(logging.Handler):
    """Counts the exhaustive evaluator's budget-fallback warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.fallbacks = 0

    def emit(self, record):
        if "budget" in record.getMessage():
            self.fallbacks += 1


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = ""
        self.budget_warnings = _BudgetCounter()

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.note = note(args, kwargs, result)
                return result
            finally:
                self._close(span)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around cli.main."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextlib.contextmanager
    def installed(self, op: str):
        """Trace every probe while the block runs, tagging spans with op."""
        saved = []
        fsa_log = logging.getLogger("flowmine.fsa")
        fsa_log.addHandler(self.budget_warnings)
        self._op = op
        try:
            for mod_name, attr, name, note in PROBES:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            fsa_log.removeHandler(self.budget_warnings)
            self._op = ""

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "note": s.note}) + "\n")

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]


def _per_op(rec: Recorder, selfs: list[float], ops: list[str], names: tuple[str, ...], value) -> float:
    """Median over ops of a per-op sum over spans with one of names."""
    totals = dict.fromkeys(ops, 0.0)
    for s, self_s in zip(rec.spans, selfs):
        if s.op in totals and s.name in names:
            totals[s.op] += value(s, self_s)
    return statistics.median(totals.values()) if totals else 0.0


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, mine_ops: list[str], eval_ops: list[str], setup_ops: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the recorded spans, as {name: (value, unit)}.

    Times and counts are medians over ops of per-op totals: mine ops
    for the mining layers, eval ops for the evaluator, set-up passes
    for the generator.  Shares and rates pool every traced op.
    """
    selfs = rec.self_times()

    def self_s(ops, *names):
        return _per_op(rec, selfs, ops, names, lambda s, t: t)

    def calls(ops, *names):
        return _per_op(rec, selfs, ops, names, lambda s, t: 1)

    def noted(ops, name):
        return _per_op(rec, selfs, ops, (name,), lambda s, t: s.note or 0)

    # A call cut short by the deadline returned nothing, so its note is
    # None; notes are pooled only over calls that returned.
    spans = rec.spans
    parse = [(s.note, t) for s, t in zip(spans, selfs) if s.name == "trace.parse_trace" and s.note is not None]
    solves = [s.note for s in spans if s.name == "solver.solve" and s.note is not None]
    windows = {i for i, s in enumerate(spans) if s.name == "extract.auto_window"}
    window_ops = Counter(s.op for s in spans if s.name == "extract.annotated_graph" and s.parent in windows)
    extracts = [s.note for s in spans if s.name == "extract.model_extract" and s.note is not None]
    enumerated = [s.note for s in spans if s.name == "solver.enumerate_solutions" and s.note is not None]
    exhaustive = sum(1 for s in spans if s.name == "fsa.acceptance_ratio" and s.note == "exhaustive")
    return {
        "trace.parse_trace.self_s": (self_s(mine_ops, "trace.parse_trace"), "s"),
        "trace.parse_trace.msgs_per_s": (_share(sum(n for n, _ in parse), sum(t for _, t in parse)), "msg/s"),
        "causality.support_deltas.self_s": (self_s(mine_ops, "causality.support_deltas"), "s"),
        "causality.support_deltas.calls": (calls(mine_ops, "causality.support_deltas"), "count"),
        "causality.detect.self_s": (self_s(mine_ops, "causality.detect_initials", "causality.detect_terminals"), "s"),
        "causality.annotate.self_s": (self_s(mine_ops, "causality.annotate"), "s"),
        "causality.dump_graph.self_s": (self_s(mine_ops, "causality.dump_graph"), "s"),
        "extract.auto_window.windows_tried": (
            statistics.median(window_ops[op] for op in mine_ops) if mine_ops else 0, "count"),
        "extract.annotated_graph.self_s": (self_s(mine_ops, "extract.annotated_graph"), "s"),
        "slicing.annotate_sliced.self_s": (self_s(mine_ops, "slicing.annotate_sliced"), "s"),
        "slicing.slices": (noted(mine_ops, "slicing.slice_trace"), "count"),
        "solver.solve.calls": (calls(mine_ops, "solver.solve"), "count"),
        "solver.solve.self_s": (self_s(mine_ops, "solver.solve"), "s"),
        "solver.solve.infeasible_share": (_share(sum(solves), len(solves)), "ratio"),
        "solver.build_constraints.self_s": (self_s(mine_ops, "solver.build_constraints"), "s"),
        "solver.enumerate_solutions.self_s": (self_s(mine_ops, "solver.enumerate_solutions"), "s"),
        "extract.model_extract.self_s": (self_s(mine_ops, "extract.model_extract"), "s"),
        "extract.reduce_model.calls": (calls(mine_ops, "extract.reduce_model"), "count"),
        "extract.reduce_model.self_s": (self_s(mine_ops, "extract.reduce_model"), "s"),
        "extract.candidates_distinct_share": (_share(sum(extracts), sum(enumerated)), "ratio"),
        "fsa.derive_fsa.self_s": (self_s(mine_ops, "fsa.derive_fsa"), "s"),
        "fsa.acceptance_ratio.self_s": (self_s(eval_ops, "fsa.acceptance_ratio"), "s"),
        "fsa.exhaustive.fallback_share": (_share(rec.budget_warnings.fallbacks, exhaustive), "ratio"),
        "flows.generate.self_s": (self_s(setup_ops, "flows.generate"), "s"),
        "cli.main.self_s": (self_s(mine_ops, "cli.main"), "s"),
    }
