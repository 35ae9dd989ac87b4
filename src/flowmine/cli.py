"""Command-line front end for the mining pipeline.

Commands: gen (synthesize a trace from flow descriptions), slice
(split a trace by attribute), mine (trace files to a model), eval
(score a model against a trace), export-smt (emit the consistency
constraints as an SMT-LIB2 script), dot (render a model).

Exit codes are a stable contract: 0 success, 1 bad input, 2 mining
found no feasible model.  Flag defaults can be preloaded from a JSON
object file via --config; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from functools import partial
from pathlib import Path

from .causality import dump_graph
# model_extract is not called here; it stays importable from this
# module because perfbench/tracing.py wraps it under this name.
from .extract import (  # noqa: F401
    ExtractResult,
    NoFeasibleWindowError,
    annotated_graph,
    auto_window,
    model_extract,
)
from .flows import GenConfig, generate, parse_flowspec
from .fsa import (
    EXHAUSTIVE_BUDGET,
    STRATEGIES,
    acceptance_ratio,
    derive_fsa,
    fsa_from_json,
    fsa_to_json,
    json_text,
    to_dot,
)
from .slicing import labeled_slices, parse_policy
from .solver import build_constraints, export_smtlib
from .trace import (
    MessageTable,
    ParseError,
    Trace,
    parse_message_table,
    parse_trace,
    serialize_trace,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # names no file of its own
        raise ValueError("%s: %s" % (path, exc)) from None


def _parse_file(path: str, parse, *args, **kwargs):
    """parse(text of path, *args, **kwargs), naming the file in a parse
    error."""
    try:
        return parse(_read(path), *args, **kwargs)
    except ParseError as exc:
        raise ParseError("%s: %s" % (path, exc)) from None


def _load_table(path: str | None) -> MessageTable | None:
    return _parse_file(path, parse_message_table) if path else None


def _load_traces(paths: list[str], table: MessageTable | None, attr_texts: bool) -> list[Trace]:
    """The traces of paths; attr_texts says whether the command reads
    attributes (see parse_trace)."""
    return [_parse_file(path, parse_trace, table, attr_texts=attr_texts) for path in paths]


def _parse_window(text: str) -> tuple[str, int | None]:
    if text == "auto":
        return "auto", None
    if text == "off":
        return "off", None
    try:
        value = int(text)
    except ValueError:
        raise ValueError("window must be 'auto', 'off', or an integer, got %r" % text) from None
    if value < 0:
        raise ValueError("window length must be non-negative")
    return "fixed", value


def _parse_instances(text: str) -> int | dict[str, int]:
    if text.isdecimal():
        return int(text)
    counts: dict[str, int] = {}
    for item in text.split(","):
        name, sep, num = item.partition("=")
        if not sep or not name or not num.isdecimal():
            raise ValueError("instances must be a count or name=count[,name=count...], got %r" % text)
        counts[name.strip()] = int(num)
    return counts


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _msg_obj(m) -> dict:
    return {"src": m.src, "dest": m.dest, "cmd": m.cmd}


def cmd_gen(args) -> int:
    table = _load_table(args.table)
    spec = _parse_file(args.spec, parse_flowspec, table)
    cfg = GenConfig(
        instances=_parse_instances(args.instances),
        seed=args.seed,
        max_gap=args.gap,
        simul_prob=args.simul,
        tag=args.tag,
    )
    trace = generate(spec, cfg)
    _emit(serialize_trace(trace, table), args.out)
    return EXIT_OK


def _slice_file_names(labels: list[str]) -> list[str]:
    """The file of each slice, checked before anything is written: two
    slices with one label would share a file, and a key such as a/b,
    or one too long for a 255-byte file name, names no file in the
    output directory."""
    names, seen = [], set()
    for label in labels:
        if label in seen:
            raise ValueError("slice label %r names two slices" % label)
        seen.add(label)
        name = "slice_%s.trace" % label
        if any(c and c in label for c in ("\0", os.sep, os.altsep)) or len(name.encode("utf-8")) > 255:
            raise ValueError("slice label %r cannot be a file name" % label)
        names.append(name)
    return names


def cmd_slice(args) -> int:
    policy = parse_policy(args.slice)
    table = _load_table(args.table)
    trace = _load_traces([args.trace], table, attr_texts=True)[0]
    slices = labeled_slices(trace, policy)
    names = _slice_file_names([label for label, _ in slices])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = {}
    for (label, part), name in zip(slices, names):
        (out_dir / name).write_text(serialize_trace(part, table), encoding="utf-8")
        index[label] = {"file": name, "messages": part.msg_count}
    (out_dir / "slices.json").write_text(json_text(index), encoding="utf-8")
    print("%d slices -> %s" % (len(index), out_dir))
    return EXIT_OK


def _report_rows(result: ExtractResult, top: int) -> list[dict]:
    rows = []
    for rank, sol in enumerate(result.pool[:top], start=1):
        edges = [
            {"head": _msg_obj(h), "tail": _msg_obj(t), "count": count}
            for (h, t), count in sol.items()
            if count
        ]
        rows.append({"rank": rank, "size": sol.size, "edges": edges})
    return rows


def _summary(
    args, traces: list[Trace], window: dict, windows_tried: int, solves: int, elapsed: float, stages: dict
) -> dict:
    """The summary.json fields that every mine writes, feasible or not."""
    return {
        "traces": args.trace,
        "messages": sum(t.msg_count for t in traces),
        "slice": args.slice,
        "window": window,
        "windows_tried": windows_tried,
        "solves": solves,
        "wall_time_s": round(elapsed, 6),
        "stage_s": {stage: round(seconds, 6) for stage, seconds in stages.items()},
    }


def _write_summary(args, summary: dict) -> None:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(json_text(summary), encoding="utf-8")


def _infeasible(args, exc: NoFeasibleWindowError, summary: dict) -> int:
    """Report an infeasible mine, and its witness, on stderr and in
    summary.json; exc.problem is the one the witness is about."""
    print("infeasible: %s; %s" % (exc, exc.shortfall.describe()), file=sys.stderr)
    summary.update(infeasible=exc.shortfall.to_json(), reason=str(exc), skipped_balances=exc.problem.skipped)
    _write_summary(args, summary)
    return EXIT_INFEASIBLE


def cmd_mine(args) -> int:
    policy = parse_policy(args.slice) if args.slice else None
    if args.top < 1:
        raise ValueError("top must be positive")
    mode, fixed = _parse_window(args.window)
    parsing = time.perf_counter()
    table = _load_table(args.table)
    traces = _load_traces(args.trace, table, attr_texts=policy is not None)
    window_desc = {"mode": mode, "value": fixed}
    started = time.perf_counter()
    if args.max_window is not None:
        print("note: --max-window is ignored; the window search needs no bound", file=sys.stderr)
    try:
        window_desc["value"], graph, result = auto_window(
            traces, slice_policy=policy, table=table, window="auto" if mode == "auto" else fixed
        )
    except NoFeasibleWindowError as exc:
        elapsed = time.perf_counter() - started
        stages = {"parse": started - parsing, "annotate": exc.annotate_s, "search": elapsed - exc.annotate_s}
        summary = _summary(args, traces, window_desc, exc.windows_tried, exc.solves, elapsed, stages)
        return _infeasible(args, exc, summary)
    searched = time.perf_counter()
    elapsed = searched - started

    fsa = derive_fsa(result.best, graph)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "model.json").write_text(fsa_to_json(fsa), encoding="utf-8")
    (out_dir / "model.dot").write_text(to_dot(fsa, table), encoding="utf-8")
    (out_dir / "graph.json").write_text(json_text(dump_graph(graph)), encoding="utf-8")
    (out_dir / "report.json").write_text(json_text(_report_rows(result, args.top)), encoding="utf-8")
    stages = {
        "parse": started - parsing,
        "annotate": result.annotate_s,
        "search": elapsed - result.annotate_s,
        "write": time.perf_counter() - searched,
    }
    summary = _summary(args, traces, window_desc, result.windows_tried, result.solves, elapsed, stages)
    summary.update(
        candidates=len(result.pool),
        search=result.search.to_json(),
        infeasible=None,
        skipped_balances=result.best.problem.skipped,
        best_size=result.best.size,
        states=len(fsa.states),
    )
    _write_summary(args, summary)
    shown = "off" if window_desc["value"] is None else window_desc["value"]
    fallback = "" if result.search.fallback is None else " (fallback: %s)" % result.search.fallback
    print(
        "model size %d (%d states), window %s, %d minima%s, %.3fs -> %s"
        % (result.best.size, len(fsa.states), shown, len(result.pool), fallback, elapsed, out_dir)
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.budget < 0:
        raise ValueError("budget must be non-negative")
    fsa = fsa_from_json(_read(args.model))
    table = _load_table(args.table)
    trace = _load_traces([args.trace], table, attr_texts=False)[0]
    report = acceptance_ratio(fsa, trace, strategy=args.strategy, budget=args.budget, table=table)
    obj = {
        "accepted": report.accepted,
        "total": report.total,
        "ratio": report.ratio,
        "strategy": report.strategy,
        "fallback": report.fallback,
        "nodes": report.nodes,
        "rejected_positions": [
            {"event": e_idx, "msg": _msg_obj(m)} for e_idx, m in report.rejected
        ],
    }
    sys.stdout.write(json_text(obj))
    return EXIT_OK


def cmd_export_smt(args) -> int:
    mode, fixed = _parse_window(args.window)
    if mode == "auto":
        raise ValueError("export-smt needs a concrete window: 'off' or an integer")
    table = _load_table(args.table)
    traces = _load_traces(args.trace, table, attr_texts=False)
    width = fixed if mode == "fixed" else None
    graph = annotated_graph(traces, window=width, table=table)
    _emit(export_smtlib(build_constraints(graph)), args.out)
    return EXIT_OK


def cmd_dot(args) -> int:
    fsa = fsa_from_json(_read(args.model))
    table = _load_table(args.table)
    _emit(to_dot(fsa, table), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; 2 is reserved
    for infeasible mining, so usage errors become input errors."""

    def error(self, message):
        raise ValueError(message)


def _gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="flow description file")
    p.add_argument("--table", help="message table file")
    p.add_argument("--instances", default="1", help="count, or name=count[,name=count...]")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--gap", type=int, default=10, help="max foreign messages between an instance's messages")
    p.add_argument("--simul", type=float, default=0.0, help="probability of a simultaneous partner")
    p.add_argument("--tag", help="stamp messages with <tag>=<instance id>")
    p.add_argument("--out", help="output trace file (default stdout)")


def _slice_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True)
    p.add_argument("--table", help="message table file")
    p.add_argument("--slice", required=True, help="attr, attr:block=N, attr:missing=drop")
    p.add_argument("--out", required=True, help="output directory")


def _mine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", action="append", required=True, help="trace file (repeatable)")
    p.add_argument("--table", help="message table file")
    p.add_argument("--window", default="auto", help="auto, off, or a length")
    p.add_argument("--max-window", type=int, help="ignored: the auto search needs no bound")
    p.add_argument("--slice", help="attribute slicing policy")
    p.add_argument("--top", type=int, default=20, help="smallest models kept in the report")
    p.add_argument("--out", required=True, help="output directory")


def _eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--trace", required=True)
    p.add_argument("--table", help="message table file")
    p.add_argument("--strategy", default="oldest-first", choices=STRATEGIES)
    p.add_argument("--budget", type=int, default=EXHAUSTIVE_BUDGET, help="exhaustive search node budget")


def _export_smt_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", action="append", required=True, help="trace file (repeatable)")
    p.add_argument("--table", help="message table file")
    p.add_argument("--window", default="off", help="off or a length")
    p.add_argument("--out", help="output file (default stdout)")


def _dot_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--table", help="message table file")
    p.add_argument("--out", help="output file (default stdout)")


# name -> (handler, help text, adds the command's own flags), in the
# order that `flowmine --help` lists them
COMMANDS = {
    "gen": (cmd_gen, "synthesize a trace from flow descriptions", _gen_flags),
    "slice": (cmd_slice, "split a trace by a message attribute", _slice_flags),
    "mine": (cmd_mine, "mine a model from trace files", _mine_flags),
    "eval": (cmd_eval, "score a model against a trace", _eval_flags),
    "export-smt": (cmd_export_smt, "emit consistency constraints as SMT-LIB2", _export_smt_flags),
    "dot": (cmd_dot, "render a model JSON file as DOT", _dot_flags),
}


def _add_flags(p: argparse.ArgumentParser, name: str) -> None:
    p.add_argument("--config", help="JSON file with flag defaults")
    COMMANDS[name][2](p)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subparsers of every command by
    name, for the full usage and the choice of commands."""
    parser = _Parser(prog="flowmine", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_text, _) in COMMANDS.items():
        _add_flags(subs.add_parser(name, help=help_text), name)
    return parser, subs.choices


def command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser, alone: the same help, usage, namespace and
    usage errors as its subparser in build_parser, with no top-level
    parser around it.  The terminal is measured once, here, instead of
    at each add_argument."""
    width = shutil.get_terminal_size().columns - 2  # what HelpFormatter measures by default
    p = _Parser(prog="flowmine " + name, formatter_class=partial(argparse.HelpFormatter, width=width))
    p.set_defaults(command=name)
    _add_flags(p, name)
    return p


def _read_config(path: str) -> dict:
    try:
        config = json.loads(_read(path))
    except RecursionError:  # the decoder's own depth limit, not a fault of ours
        raise ValueError("config file is not valid JSON: nested too deeply") from None
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    return config


def _config_defaults(parser: argparse.ArgumentParser, config: dict) -> dict:
    """The config object's values as the command's flag defaults, each
    checked the way its flag checks an argument.  set_defaults skips
    the flags' conversion for values that are not strings, so a value
    of the wrong JSON type would otherwise reach the command as is."""
    flags = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    unknown = sorted(k for k in config if k not in flags)
    if unknown:
        raise ValueError("config keys not recognized: %s" % ", ".join(unknown))
    defaults = {}
    for key, value in config.items():
        flag = flags[key]
        if isinstance(flag, argparse._AppendAction):
            if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                raise ValueError("config key %r must be a list of strings, got %s" % (key, json.dumps(value)))
            defaults[key] = value
            continue
        convert = flag.type or str
        converted = None
        try:
            if isinstance(value, str):
                converted = convert(value)
            elif flag.type in (int, float) and type(value) in (int, float):  # not a bool
                converted = convert(value)
                if converted != value:  # a fraction for an integer flag
                    converted = None
        except (ValueError, OverflowError):
            pass
        if converted is None:
            kind = {None: "a string", int: "an integer", float: "a number"}[flag.type]
            raise ValueError("config key %r must be %s, got %s" % (key, kind, json.dumps(value)))
        if flag.choices is not None and converted not in flag.choices:
            raise ValueError("config key %r must be one of %s, got %s"
                             % (key, ", ".join(map(str, flag.choices)), json.dumps(value)))
        defaults[key] = converted
    return defaults


def _parse_args(parser: argparse.ArgumentParser, argv: list[str], by_name: dict) -> argparse.Namespace:
    """parser.parse_args(argv), with the values of the --config file as
    flag defaults of the command, whose flags by_name[command] holds.

    A required flag may come from the file.  When the first parse
    fails, it is made again without the required check, to find the
    file; without one, the first error stands.  Before the re-parse
    with the file's values, the flags the file supplies are no longer
    required, so argparse still names a flag missing from both.  An
    explicit flag wins over the file, and a repeatable flag given on
    the command line adds to the file's list."""
    try:
        args = parser.parse_args(argv)
    except ValueError:
        required = [a for sub in by_name.values() for a in sub._actions if a.required]
        for action in required:
            action.required = False
        args = parser.parse_args(argv)  # a usage error of another kind raises again
        for action in required:
            action.required = True
        if not args.config:
            raise
    if args.config:
        sub = by_name[args.command]
        supplied = _config_defaults(sub, _read_config(args.config))
        for action in sub._actions:
            if action.dest in supplied:
                action.required = False
        sub.set_defaults(**supplied)
        args = parser.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  A known command gets
    its own parser only; --help, a missing or an unknown command gets
    the full tree, for the full usage and choices."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in COMMANDS:
            parser = command_parser(argv[0])
            args = _parse_args(parser, argv[1:], {argv[0]: parser})
        else:
            parser, by_name = build_parser()
            args = _parse_args(parser, argv, by_name)
        return COMMANDS[args.command][0](args)
    except (ParseError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
