"""Benchmark of `unigrad run` and `unigrad check-bounds`, end to end and per layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1

Run from any directory of a source checkout; the package is imported from
its src/ directory, never from an installed copy.  One process serves one
workload.  It repeats whole rounds of the workload's CLI calls, each
`unigrad run` followed by `unigrad check-bounds` on the trace it wrote and
by checks of the outputs against an independent reference, for about S
seconds, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
process runs untraced rounds for half the time and traced rounds for the
other half and reports the per-layer ones.  BLAS is pinned to one thread.
See README.md in this directory.
"""

import os

# Before numpy loads: one BLAS thread, for this process and its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "check_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def _count(name):
    return lambda r: r.calls[name]


def _total(name):
    return lambda r: r.total[name]


def _self(name):
    return lambda r: r.self_time[name]


def _extra(name):
    return lambda r: r.extra[name]


_SOLVERS = list(spans.SOLVERS)
_VALUE = "unigrad.oracles.CompositeProblem.value"

# name -> (unit, value of one round, wrapped targets it needs)
PER_LAYER = {
    "solver.f_full_calls": ("count", _count("solver.f_full"), [_VALUE, *_SOLVERS]),
    "solver.f_full_s": ("s", _total("solver.f_full"), [_VALUE, *_SOLVERS]),
    "bregman.map_calls": ("count", _count("bregman.map"), ["unigrad.bregman.bregman_map"]),
    "bregman.map_s": ("s", _total("bregman.map"), ["unigrad.bregman.bregman_map"]),
    "oracles.component_calls": ("count", _count("oracles.component"),
                                ["unigrad.oracles.ComponentOracle"]),
    "oracles.component_s": ("s", _total("oracles.component"),
                            ["unigrad.oracles.ComponentOracle"]),
    "oracles.prox_calls": ("count", _count("oracles.prox"), ["unigrad.oracles.Regularizer.prox"]),
    "oracles.prox_s": ("s", _total("oracles.prox"), ["unigrad.oracles.Regularizer.prox"]),
    "geometry.bregman_calls": ("count", _count("geometry.bregman"),
                               ["unigrad.geometry.ProxFunction.bregman"]),
    "udgm.argmin_calls": ("count", _count("udgm.argmin"), ["unigrad.udgm.DualModel.argmin"]),
    "udgm.fold_calls": ("count", _count("udgm.fold"), ["unigrad.udgm.DualModel.fold"]),
    "upgm.loop_s": ("s", _self("upgm.loop"),
                    ["unigrad.upgm.upgm_run", "unigrad.upgm.upgm_fixed_step_run"]),
    "udgm.loop_s": ("s", _self("udgm.loop"),
                    ["unigrad.udgm.udgm_run", "unigrad.udgm.udgm_fixed_step_run"]),
    "sug.loop_s": ("s", _self("sug.loop"), ["unigrad.sug.sug_run"]),
    "harness.reference_calls": ("count", _count("harness.reference"),
                                ["unigrad.harness.reference_solution"]),
    "harness.reference_s": ("s", _total("harness.reference"),
                            ["unigrad.harness.reference_solution"]),
    "harness.reference_iters": ("count", _extra("harness.reference_iters"),
                                ["unigrad.harness.reference_solution",
                                 spans.REFERENCE_ITERATIONS]),
    "problems.build_calls": ("count", _count("problems.build"),
                             ["unigrad.harness.problem_from_descriptor"]),
    "problems.build_s": ("s", _total("problems.build"),
                         ["unigrad.harness.problem_from_descriptor"]),
    "problems.load_samples_s": ("s", _total("problems.load_samples"),
                                ["unigrad.problems.load_samples"]),
    "trace.write_s": ("s", _total("trace.write"), ["unigrad.trace.write_trace_csv"]),
    "trace.write_bytes": ("bytes", _extra("trace.write_bytes"),
                          ["unigrad.trace.write_trace_csv"]),
    "trace.parse_s": ("s", _total("trace.parse"), ["unigrad.trace.parse_trace_csv"]),
    # evaluate_regret, plus what run_experiment and check_bounds do between
    # the wrapped layers: the bound loops, report assembly and report writes.
    "harness.verify_s": ("s", lambda r: (r.total["harness.evaluate_regret"]
                                         + r.self_time["cmd.run"] + r.self_time["cmd.check"]),
                         ["unigrad.harness.evaluate_regret", "unigrad.harness.run_experiment",
                          "unigrad.harness.check_bounds"]),
    "sug.update_calls": ("count", _count("sug.update"), ["unigrad.sug.sug_update"]),
    "sug.update_s": ("s", _total("sug.update"), ["unigrad.sug.sug_update"]),
    "sug.subproblem_s": ("s", _total("sug.subproblem"), ["unigrad.sug.sug_subproblem"]),
    "sug.init_s": ("s", _total("sug.init"), ["unigrad.sug.sug_init"]),
}

# Counts read from the traces the run calls wrote; no speed-up may move them.
TRACE_COUNTS = {
    "bregman.trials": "count",
    "bregman.trials_per_round": "trial/round",
    "upgm.rounds": "count",
    "udgm.rounds": "count",
}


def cli_call(cli_main, argv):
    """(exit code, seconds, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse rejects the argument list
        code = exc.code if isinstance(exc.code, int) else 2
    return code, time.perf_counter() - start, buf.getvalue()


@dataclass
class RoundResult:
    run_s: dict = field(default_factory=dict)
    check_s: dict = field(default_factory=dict)
    rows: int = 0
    upgm_rows: int = 0
    udgm_rows: int = 0
    adaptive_rows: int = 0
    trials: int = 0
    layers: dict | None = None


class Session:
    """One workload in this process: its CLI entry, references and tallies."""

    def __init__(self, wl, refs, work, cli_main):
        self.wl = wl
        self.refs = refs
        self.work = work
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.descriptors = {}

    def _op(self, label, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {self.wl.name} {label}: {why}", file=sys.stderr)

    def _call(self, label, argv):
        gc.collect()
        code, seconds, out = cli_call(self.cli_main, argv)
        self._op(label, code == 0, f"exit code {code}")
        return seconds, out

    def warmup(self):
        run = self.wl.warmup
        out = self.work / "warmup"
        self._call("warmup run", run.argv(self.wl.problems[run.problem], out))
        self._call("warmup check-bounds", ["check-bounds", str(out / "trace.csv")])

    def round(self, r, tracer=None) -> RoundResult:
        res = RoundResult()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            for run in self.wl.runs(r):
                self._run_one(run, res, record_descriptor=r == 0)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            res.layers = layer_values(tracer, res)
        return res

    def _run_one(self, run, res, record_descriptor):
        problem = self.wl.problems[run.problem]
        out = self.work / run.label
        res.run_s[run.label], _ = self._call(f"{run.label} run", run.argv(problem, out))
        trace_path = out / "trace.csv"
        res.check_s[run.label], verdict = self._call(
            f"{run.label} check-bounds", ["check-bounds", str(trace_path)])
        try:
            tr = checks.read_trace(trace_path)
        except Exception as exc:  # every check of this run fails below
            tr, read_error = None, exc
        for name in checks.checks_for(run):
            try:
                if tr is None:
                    raise read_error
                checks.run_check(name, run, out, problem.descriptor,
                                 self.refs[run.problem], verdict, tr)
                self._op(f"{run.label} check {name}", True)
            except Exception as exc:
                self._op(f"{run.label} check {name}", False, f"{type(exc).__name__}: {exc}")
        if tr is None:
            return
        res.rows += tr.rows
        if record_descriptor:
            desc = tr.meta.get("problem") or {}
            self.descriptors[json.dumps(desc, sort_keys=True)] = desc
        if run.algorithm == "oupgm":
            res.upgm_rows += tr.rows
        elif run.algorithm == "oudgm":
            res.udgm_rows += tr.rows
        if run.adaptive:
            res.adaptive_rows += tr.rows
            res.trials += int(tr.cols["i_t"].sum()) + tr.rows


def timed_rounds(session, seconds, tracer=None):
    """Rounds 0, 1, ... while at least half a round's time is left; at least one."""
    results, start = [], time.perf_counter()
    while True:
        results.append(session.round(len(results), tracer))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) > seconds:
            return results


def per_round(results, attr) -> float:
    """Seconds of one round's calls: the median of each distinct call over
    the rounds that made it, summed, and scaled to the calls of one round.
    Where rounds repeat their inputs this is the sum of per-call medians;
    where they walk through data seeds it is the mean round total."""
    samples = {}
    for res in results:
        for label, seconds in getattr(res, attr).items():
            samples.setdefault(label, []).append(seconds)
    total = sum(statistics.median(v) for v in samples.values())
    return total * len(getattr(results[0], attr)) / len(samples)


def layer_values(tracer, res) -> dict:
    values = {}
    for name, (unit, fn, needs) in PER_LAYER.items():
        if not any(t in tracer.missing for t in needs):
            values[name] = float(fn(tracer))
    values["bregman.trials"] = float(res.trials)
    values["bregman.trials_per_round"] = (
        res.trials / res.adaptive_rows if res.adaptive_rows else 0.0)
    values["upgm.rounds"] = float(res.upgm_rows)
    values["udgm.rounds"] = float(res.udgm_rows)
    return values


def solve_references(wl, work) -> dict:
    problems = {key: p.descriptor for key, p in wl.problems.items()}
    src, dst = work / "problems.json", work / "solutions.json"
    src.write_text(json.dumps(problems), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "refsolve.py"), str(src), str(dst)],
                   check=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(dst.read_text(encoding="utf-8"))


def setup_seconds(descriptors, work) -> float:
    """Median set-up time over fresh interpreters."""
    path = work / "descriptors.json"
    path.write_text(json.dumps(list(descriptors.values())), encoding="utf-8")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(SRC), str(path)],
            check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def import_cli():
    sys.path.insert(0, str(SRC))
    import unigrad
    from unigrad.cli import main as cli_main

    if Path(unigrad.__file__).resolve().parent != SRC / "unigrad":
        raise RuntimeError(f"unigrad imported from {unigrad.__file__}, not from {SRC}")
    return cli_main


def run_workload(args, work) -> dict:
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, work)
    wl.write_inputs()
    refs = solve_references(wl, work)
    session = Session(wl, refs, work, import_cli())
    session.warmup()
    metrics = {}
    if args.trace:
        plain = timed_rounds(session, args.seconds / 2)
        tracer = spans.Tracer()
        traced = timed_rounds(session, args.seconds / 2, tracer)
        for name in traced[0].layers:
            unit = PER_LAYER[name][0] if name in PER_LAYER else TRACE_COUNTS[name]
            # counts from the first round, so a seed always reports the same;
            # times as the median over the traced rounds
            value = (statistics.median(r.layers[name] for r in traced) if unit == "s"
                     else traced[0].layers[name])
            metrics[name] = {"value": value, "unit": unit}
        overhead = per_round(traced, "run_s") - per_round(plain, "run_s")
        metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
        if tracer.missing:
            print("missing: " + " ".join(tracer.missing))
    else:
        results = timed_rounds(session, args.seconds)
        run_s = per_round(results, "run_s")
        values = {
            "setup_s": setup_seconds(session.descriptors, work),
            "run_s": run_s,
            "check_s": per_round(results, "check_s"),
            "rounds_per_s": statistics.mean(r.rows for r in results) / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def print_table(name, result) -> None:
    print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload, each in a fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print_table(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny runs every workload and check in seconds (self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "unigrad" / "__init__.py").is_file():
        print(f"error: no unigrad sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run_workload(args, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when other runs still use it
            work.parent.rmdir()
    print_table(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
