"""Quick self-test of the benchmark, in well under a minute:

* every workload runs at a tiny size, end to end (through `--workload all`)
  and traced, with no failed operation and every metric present;
* every output check fails on a planted error: a shifted f*, a doubled
  L_next, a dropped trace row, raised losses or gaps;
* a wrapped name that is gone is reported as missing, not as zero;
* in a directory without the sources the benchmark exits non-zero without
  printing a result.

    python3 benchmarks/selftest.py

Prints one line per expectation and exits 1 if any is not met.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench  # first: pins BLAS before numpy loads
import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
RUN = str(HERE / "run.py")
TIMEOUT_S = 170

failures = []


def expect(cond: bool, what: str) -> None:
    print(("ok     " if cond else "FAILED ") + what)
    if not cond:
        failures.append(what)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_workloads_run() -> None:
    proc = subprocess.run([sys.executable, RUN, "--workload", "all", "--seed", "0",
                           "--seconds", "1", "--trace", "0", "--size", "tiny"],
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    res = last_json(proc.stdout)
    expect(proc.returncode == 0 and res is not None, "all workloads run (--trace 0)")
    if res is not None:
        expect(res["failed"] == 0 and res["correct"], "no failed operation end to end")
        want = {f"{w}.{m}" for w in workloads.WORKLOADS for m in bench.END_TO_END}
        expect(set(res["metrics"]) == want, "every end-to-end metric of every workload")
    layer_names = {*bench.PER_LAYER, *bench.TRACE_COUNTS, "tracing.overhead_s"}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, RUN, "--workload", name, "--seed", "1",
                               "--seconds", "1", "--trace", "1", "--size", "tiny"],
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        res = last_json(proc.stdout)
        ok = proc.returncode == 0 and res is not None and res["failed"] == 0
        expect(ok, f"{name} traced run has no failed operation")
        if ok:
            expect(set(res["metrics"]) == layer_names, f"{name} reports every per-layer metric")


def _edit_trace(path: Path, edit) -> None:
    """Rewrite trace.csv after edit(header, rows) changed the rows in place."""
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    rest = [ln for ln in lines if not ln.startswith("#")]
    header = rest[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in rest[1:] if ln]
    edit(header, rows)
    body = [",".join(str(int(v)) if header[j] in ("t", "i_t") else repr(v)
                     for j, v in enumerate(row)) for row in rows]
    path.write_text("\n".join(meta + [rest[0]] + body) + "\n", encoding="utf-8")


def _scale_column(name, factor=1.0, shift=0.0, rows=slice(None)):
    def edit(header, table):
        j = header.index(name)
        for row in table[rows]:
            row[j] = row[j] * factor + shift
    return edit


def _drop_middle_row(header, table):
    del table[len(table) // 2]


def _raise_losses(header, table):
    for name in ("f_gt_xt", "f_gt_xnext", "f_gt_yt"):
        j = header.index(name)
        for row in table:
            row[j] += 10.0 * (1.0 + abs(row[j]))


def _shift_report_f_star(out: Path) -> None:
    path = out / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["f_star"] += 1e-6 * (1.0 + abs(report["f_star"]))
    path.write_text(json.dumps(report), encoding="utf-8")


def _fails(check, run, out, problem, ref, verdict) -> bool:
    try:
        tr = checks.read_trace(out / "trace.csv")
        checks.run_check(check, run, out, problem.descriptor, ref, verdict, tr)
    except Exception:
        return True
    return False


def _plants(run):
    """(description, edit of the output dir, shift of the reference f*,
    checks that must fail, whether check-bounds must exit non-zero)."""
    online = run.algorithm in ("oupgm", "oudgm")
    plants = [
        ("report f* shifted", _shift_report_f_star, 0.0, ["f_star"], False),
        ("dropped trace row", lambda o: _edit_trace(o / "trace.csv", _drop_middle_row), 0.0,
         ["trace"], online),
    ]
    shifted = ["f_star"] + {"sug": ["bound"], "batch": ["gap"]}.get(run.algorithm, [])
    plants.append(("reference f* shifted", None, 1e-6, shifted, False))
    if online:
        plants.append(("doubled L_next", lambda o: _edit_trace(
            o / "trace.csv", _scale_column("L_next", 2.0)), 0.0,
            ["trials" if run.adaptive else "cap"], False))
        plants.append(("raised losses", lambda o: _edit_trace(o / "trace.csv", _raise_losses),
                       0.0, ["bound", "verdict"], True))
    elif run.algorithm == "sug":
        plants.append(("raised late gap", lambda o: _edit_trace(
            o / "trace.csv", _scale_column("f_full", shift=1.0, rows=slice(-3, None))),
            0.0, ["bound", "verdict"], True))
    else:
        plants.append(("raised final gap", lambda o: _edit_trace(
            o / "trace.csv", _scale_column("f_gt_xnext", 1.0 + 1e-6, rows=slice(-1, None))),
            0.0, ["gap"], False))
    return plants


def test_planted_errors(work: Path) -> None:
    cli_main = bench.import_cli()
    for name, build in workloads.WORKLOADS.items():
        wdir = work / name
        wdir.mkdir()
        wl = build(2, "tiny", wdir)
        wl.write_inputs()
        refs = bench.solve_references(wl, wdir)
        session = bench.Session(wl, refs, wdir, cli_main)
        session.round(0)
        expect(session.failed == 0, f"{name}: clean outputs pass every check")
        results = {}
        for run in wl.runs(0):
            problem = wl.problems[run.problem]
            for what, edit, shift, must_fail, cli_fails in _plants(run):
                planted = wdir / "planted"
                shutil.rmtree(planted, ignore_errors=True)
                shutil.copytree(wdir / run.label, planted)
                if edit is not None:
                    edit(planted)
                ref = dict(refs[run.problem])
                ref["f_star"] += shift * (1.0 + abs(ref["f_star"]))
                with contextlib.redirect_stderr(io.StringIO()):
                    code, _, verdict = bench.cli_call(
                        cli_main, ["check-bounds", str(planted / "trace.csv")])
                caught = all(_fails(c, run, planted, problem, ref, verdict) for c in must_fail)
                if cli_fails:
                    caught = caught and code != 0
                key = (what, run.algorithm, run.adaptive)
                results[key] = results.get(key, True) and caught
        for (what, alg, adaptive), caught in sorted(results.items()):
            kind = f"{alg} {'adaptive' if adaptive else 'fixed'}" if alg[0] == "o" else alg
            expect(caught, f"{name}: {what} caught on every {kind} run")


def test_missing_name() -> None:
    import unigrad.sug as sug

    original = sug.sug_init
    del sug.sug_init
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        sug.sug_init = original
    values = bench.layer_values(tracer, bench.RoundResult())
    expect("unigrad.sug.sug_init" in tracer.missing and "sug.init_s" not in values,
           "a removed name is reported missing, not zero")


def test_bare_directory(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sug-csv",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
    expect(proc.returncode != 0 and last_json(proc.stdout) is None,
           "without sources: non-zero exit and no result")


def main() -> int:
    work = HERE / "_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        test_workloads_run()
        test_planted_errors(work)
        test_missing_name()
        test_bare_directory(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"{len(failures)} expectation(s) not met" if failures else "all expectations met")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
