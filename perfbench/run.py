"""flowmine benchmark: drive `mine` and `eval` the way a user does.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cache_sliced --seed 1 --seconds 40 --trace 0

One process, closed loop: ops run one at a time and the next starts
when the previous one has returned.  An op is one call into
``flowmine.cli.main(["mine", ...])`` or one ``main(["eval", ...])`` of
the model just mined.  A SIGALRM timer in the same process stops an op
that runs past the workload's deadline.  Ops start until ``--seconds``
have passed.  Every output is checked by ``check.py``, and outputs are
hashed into ``digests.json``.

With ``--trace 0`` the end-to-end metrics are measured with no probes
installed.  With ``--trace 1`` every op mines twice, once plain and once
with spans around flowmine's public functions, and the per-layer
metrics come from those spans.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Files go to ``.perfbench_run/`` in the
checkout.  See README.md for the metric definitions.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import FLOWS, WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
REFERENCE_NOMINAL_S = 0.001  # setup_s is scaled to a machine on which the kernel takes this long
DIGESTED = ("model.json", "graph.json", "report.json")


class Deadline(BaseException):
    """An op passed its deadline.  BaseException, so that no handler
    inside flowmine can swallow it."""


def _alarm(signum, frame):
    raise Deadline


@dataclass
class Input:
    trace: Path
    messages: int
    label: str  # flow file stem, names the input in failure counts
    truth: set  # ground-truth consecutive pairs from the flow text


@dataclass
class Call:
    failure: str | None  # exit1, exit2, deadline, or an exception type
    seconds: float  # from the call into main to its return, sampling excluded
    norm: float  # seconds / the reference kernel's mean time around the call
    stdout: str


@dataclass
class Stats:
    mine_s: list = field(default_factory=list)  # inf for a failed op
    mine_norm: list = field(default_factory=list)
    mine_spent: float = 0.0
    mine_msgs: int = 0
    eval_s: list = field(default_factory=list)
    eval_norm: list = field(default_factory=list)
    eval_spent: float = 0.0
    eval_msgs: int = 0
    heldout_msgs: int = 0
    accepted: int = 0
    pairs_hit: int = 0
    pairs_model: int = 0
    pairs_truth: int = 0
    failures: Counter = field(default_factory=Counter)
    check_problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    traced_mine_s: list = field(default_factory=list)
    traced_mine_norm: list = field(default_factory=list)


def call_main(main, argv: list[str], deadline_s: float, sampler: SpeedSampler, span=None) -> Call:
    """Time one call into flowmine.cli.main, from call to return.

    span, when given, is a context entered around the call alone.
    """
    out = io.StringIO()
    rc = failure = None
    sampler.sample()
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            with span or contextlib.nullcontext(), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        failure = "deadline"
    except Exception as exc:  # an escape from main is a failed op, named by type
        failure = type(exc).__name__
    end = time.perf_counter()
    sampler.sample()
    if failure is None and rc != 0:
        failure = "exit%s" % rc
    seconds, kernel_s = sampler.measure(start, end)
    return Call(failure, seconds, seconds / kernel_s, out.getvalue())


def _gen_argv(wl: Workload, spec: str, seed: int, out: Path) -> list[str]:
    argv = ["gen", "--spec", str(FLOWS / spec), "--instances", str(wl.instances),
            "--seed", str(seed), "--simul", str(wl.simul), "--out", str(out)]
    if wl.table:
        argv += ["--table", str(FLOWS / wl.table)]
    if wl.tag:
        argv += ["--tag", wl.tag]
    return argv


def generate_inputs(main, wl: Workload, seed: int, out: Path) -> None:
    out.mkdir(parents=True)
    for j in range(wl.pool):
        rc = main(_gen_argv(wl, wl.specs[j % len(wl.specs)], wl.gen_seed(seed, j), out / ("in%d.trace" % j)))
        if rc != 0:
            raise RuntimeError("gen exited %d for input %d" % (rc, j))


def setup(main, wl: Workload, seed: int, run_dir: Path, rec, sampler: SpeedSampler):
    """Generate and write every input trace SETUP_REPEATS times.

    The first set is used; the others time the set-up again and must
    be byte-identical to it.  Returns (inputs, seconds per set-up,
    mean kernel seconds over the set-ups, identical).
    """
    times = []
    sampler.sample()
    first_start = time.perf_counter()
    for r in range(SETUP_REPEATS):
        start = time.perf_counter()
        with rec.installed("setup%d" % r) if rec else contextlib.nullcontext():
            generate_inputs(main, wl, seed, run_dir / ("inputs%d" % r))
        times.append(sampler.measure(start, time.perf_counter())[0])
    sampler.sample()
    kernel_s = sampler.measure(first_start, time.perf_counter())[1]
    first = run_dir / "inputs0"
    same = True
    for r in range(1, SETUP_REPEATS):
        other = run_dir / ("inputs%d" % r)
        same &= all((first / p.name).read_bytes() == p.read_bytes() for p in other.iterdir())
        shutil.rmtree(other)
    table = check.read_table((FLOWS / wl.table).read_text()) if wl.table else {}
    inputs = []
    for j in range(wl.pool):
        spec = wl.specs[j % len(wl.specs)]
        path = first / ("in%d.trace" % j)
        inputs.append(Input(path, check.count_messages(path.read_text()), Path(spec).stem,
                            check.flow_pairs((FLOWS / spec).read_text(), table)))
    return inputs, times, kernel_s, same


def _digest(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in DIGESTED}


def _mine(main, wl: Workload, inp: Input, out_dir: Path, sampler, rec, op: str) -> Call:
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["mine", "--trace", str(inp.trace), *wl.mine_flags, "--out", str(out_dir)]
    if wl.table:
        argv += ["--table", str(FLOWS / wl.table)]
    if rec is None:
        return call_main(main, argv, wl.deadline_s, sampler)
    with rec.installed(op):
        return call_main(main, argv, wl.deadline_s, sampler, rec.span("cli.main"))


def _eval_argv(wl: Workload, model: Path, trace: Path, strategy: str) -> list[str]:
    argv = ["eval", "--model", str(model), "--trace", str(trace), "--strategy", strategy]
    if wl.table:
        argv += ["--table", str(FLOWS / wl.table)]
    return argv


def run_op(main, wl: Workload, i: int, inputs: list[Input], run_dir: Path, st: Stats, sampler, rec) -> None:
    """One mine, then one eval of its model, each timed and checked."""
    j = i % wl.pool
    inp, held = inputs[j], inputs[wl.heldout(j)]
    out_dir = run_dir / "ops" / ("in%d" % j)

    def fail(op: str, kind: str) -> None:
        st.failures["%s %s [%s]" % (op, kind, inp.label)] += 1

    if rec is None:
        mine = _mine(main, wl, inp, out_dir, sampler, None, "")
    else:
        # Plain and traced mine on the same input, alternating which goes
        # first; the plain one feeds the end-to-end figures.
        traced_dir = run_dir / "ops" / ("in%d-traced" % j)
        calls = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            calls[traced] = _mine(main, wl, inp, traced_dir if traced else out_dir, sampler,
                                  rec if traced else None, "m%d" % i)
        mine = calls[False]
        st.traced_mine_s.append(math.inf if calls[True].failure else calls[True].seconds)
        st.traced_mine_norm.append(math.inf if calls[True].failure else calls[True].norm)
        if mine.failure is None and calls[True].failure is None and _digest(out_dir) != _digest(traced_dir):
            st.check_problems.append("op %d: traced mine wrote different outputs" % i)

    st.mine_spent += mine.seconds
    st.pairs_truth += len(inp.truth)
    st.heldout_msgs += held.messages
    failure = mine.failure
    if failure is None:
        problems = check.check_mine(out_dir)
        if problems:
            st.check_problems += ["op %d mine: %s" % (i, p) for p in problems]
            failure = "check"
    if failure is not None:
        for samples in (st.mine_s, st.mine_norm, st.eval_s, st.eval_norm):
            samples.append(math.inf)
        fail("mine", failure)
        fail("eval", "no-model")
        return
    st.mine_s.append(mine.seconds)
    st.mine_norm.append(mine.norm)
    st.mine_msgs += inp.messages
    pairs = check.model_pairs(json.loads((out_dir / "model.json").read_text()))
    st.pairs_model += len(pairs)
    st.pairs_hit += len(pairs & inp.truth)
    st.digests.append({"op": i, "input": j, **_digest(out_dir)})

    model_path = out_dir / "model.json"
    argv = _eval_argv(wl, model_path, held.trace, wl.strategy)
    with rec.installed("e%d" % i) if rec else contextlib.nullcontext():
        ev = call_main(main, argv, wl.deadline_s, sampler)
    st.eval_spent += ev.seconds
    failure = ev.failure
    if failure is None:
        try:
            result = json.loads(ev.stdout)
            problems = check.check_eval(result, held.messages)
            if not problems and wl.strategy == "exhaustive":
                greedy = call_main(main, _eval_argv(wl, model_path, held.trace, "oldest-first"), wl.deadline_s, sampler)
                problems = (check.check_exhaustive(result, json.loads(greedy.stdout)) if greedy.failure is None
                            else ["untimed oldest-first eval failed: %s" % greedy.failure])
        except ValueError as exc:
            problems = ["eval printed no JSON: %s" % exc]
        if problems:
            st.check_problems += ["op %d eval: %s" % (i, p) for p in problems]
            failure = "check"
    if failure is not None:
        st.eval_s.append(math.inf)
        st.eval_norm.append(math.inf)
        fail("eval", failure)
        return
    st.eval_s.append(ev.seconds)
    st.eval_norm.append(ev.norm)
    st.eval_msgs += held.messages
    st.accepted += result["accepted"]


def tail(samples: list[float]) -> tuple[float | None, str]:
    """Highest percentile with at least 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None, "needs 11 samples"
    return sorted(samples)[n - 11], "p%g" % (100.0 * (n - 10) / n)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else math.inf


def end_to_end(st: Stats, import_s: float, setup_times: list[float], setup_kernel_s: float,
               kernel_s: float) -> dict[str, tuple]:
    """{name: (value, unit, sample note)} for every end-to-end metric."""
    attempted = len(st.mine_s) + len(st.eval_s)
    failed = sum(st.failures.values())
    raw = import_s + statistics.median(setup_times)
    scale = REFERENCE_NOMINAL_S / setup_kernel_s
    metrics = {"setup_s": (raw * scale, "s", "raw %.3f s = import %.3f + median of set-ups %s; x %.3f to reference speed"
                           % (raw, import_s, ", ".join("%.3f" % t for t in setup_times), scale))}
    for kind, samples, norm, msgs, spent in (("mine", st.mine_s, st.mine_norm, st.mine_msgs, st.mine_spent),
                                             ("eval", st.eval_s, st.eval_norm, st.eval_msgs, st.eval_spent)):
        n = "n=%d" % len(samples)
        metrics["%s_s.p50" % kind] = (_median(samples), "s", n)
        value, label = tail(samples)
        metrics["%s_s.tail" % kind] = (value, "s", "%s, %s" % (label, n))
        metrics["%s_msgs_per_s" % kind] = (_ratio(msgs, spent), "msg/s", n)
        metrics["%s_norm.p50" % kind] = (_median(norm), "ref", "%s, in reference-kernel times" % n)
    metrics["reference_s"] = (kernel_s, "s", "median reference-kernel time")
    metrics["failed_share"] = (_ratio(failed, attempted), "ratio", "%d of %d ops" % (failed, attempted))
    metrics["accept_ratio"] = (_ratio(st.accepted, st.heldout_msgs), "ratio", "%d held-out msgs" % st.heldout_msgs)
    metrics["pair_precision"] = (_ratio(st.pairs_hit, st.pairs_model), "ratio", "%d model pairs" % st.pairs_model)
    metrics["pair_recall"] = (_ratio(st.pairs_hit, st.pairs_truth), "ratio", "%d truth pairs" % st.pairs_truth)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "whole run")
    return metrics


def per_layer(rec: tracing.Recorder, st: Stats) -> dict[str, tuple]:
    """Span-derived layer figures, plus the tracing overhead: traced
    against plain mines of the same inputs, compared in reference units."""
    mine_ops = sorted({s.op for s in rec.spans if s.op.startswith("m")})
    eval_ops = sorted({s.op for s in rec.spans if s.op.startswith("e")})
    metrics = tracing.layer_metrics(rec, mine_ops, eval_ops, ["setup%d" % r for r in range(SETUP_REPEATS)])
    metrics["tracing.mine_s.p50.traced"] = (_median(st.traced_mine_s), "s")
    metrics["tracing.mine_s.p50.untraced"] = (_median(st.mine_s), "s")
    traced, plain = _median(st.traced_mine_norm), _median(st.mine_norm)
    metrics["tracing.overhead_share"] = (_ratio(traced - plain, plain), "ratio")
    return metrics


def _declared(kind: str) -> list[str] | None:
    """Metric names BENCHMARK.json lists under kind, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    return [m["name"] for m in json.loads(path.read_text())[kind]]


def _fmt(value) -> str:
    return "n/a" if value is None else "%.6g" % value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    os.environ.pop("FLOWMINE_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from flowmine.cli import main as flowmine_main
    except ImportError as exc:
        print("perfbench: cannot import flowmine from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED

    run_dir = ROOT / ".perfbench_run" / ("%s-seed%d-trace%d" % (wl.name, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _alarm)
    rec = tracing.Recorder() if args.trace else None
    problems = ["checker self-test: %s" % p for p in check.self_test()]
    st = Stats()
    with SpeedSampler() as sampler:
        inputs, setup_times, setup_kernel_s, same_inputs = setup(flowmine_main, wl, args.seed, run_dir, rec, sampler)
        started = time.perf_counter()
        ops = 0
        while time.perf_counter() - started < args.seconds:
            run_op(flowmine_main, wl, ops, inputs, run_dir, st, sampler, rec)
            ops += 1
    if not same_inputs:
        problems.append("set-up repeats generated different traces")
    problems += st.check_problems

    by_input = {}
    for d in st.digests:
        by_input.setdefault(d["input"], {k: d[k] for k in DIGESTED})
    outputs_sha = hashlib.sha256(json.dumps(sorted(by_input.items())).encode()).hexdigest()
    (run_dir / "digests.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "ops": st.digests, "outputs_sha256": outputs_sha}, indent=1) + "\n")

    e2e = end_to_end(st, import_s, setup_times, setup_kernel_s, sampler.median_kernel_s())
    print("workload %s  seed %d  seconds %g  trace %d  ops %d  strategy %s"
          % (wl.name, args.seed, args.seconds, args.trace, ops, wl.strategy))
    for name, (value, unit, note) in e2e.items():
        print("  %-24s %12s %-6s (%s)" % (name, _fmt(value), unit, note))
    print("  failures: %s" % (json.dumps(dict(sorted(st.failures.items()))) if st.failures else "none"))
    print("  outputs_sha256 %s (%d inputs mined)" % (outputs_sha, len(by_input)))
    for p in problems:
        print("  CHECK FAILED: %s" % p)

    if rec is None:
        chosen = {k: (v, u) for k, (v, u, _) in e2e.items()}
        kind = "end_to_end"
    else:
        rec.write(run_dir / "spans.jsonl")
        chosen = per_layer(rec, st)
        print("  per-layer, traced mine ops (eval strategy %s):" % wl.strategy)
        for name, (value, unit) in chosen.items():
            print("  %-36s %12s %s" % (name, _fmt(value), unit))
        kind = "per_layer"
    names = _declared(kind) or list(chosen)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(st.mine_s) + len(st.eval_s),
        "failed": sum(st.failures.values()),
        "metrics": {n: {"value": chosen[n][0], "unit": chosen[n][1]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
