"""CLI surface: parsing, artifact runs, exit codes, error reporting."""

import json

import numpy as np
import pytest

from helpers import save_samples
from unigrad.cli import build_parser, main
from unigrad.harness import problem_from_descriptor
from unigrad.problems import synth_lasso
from unigrad.trace import CSV_COLUMNS


def test_parser_run_defaults():
    args = build_parser().parse_args(
        ["run", "--algorithm", "oupgm", "--problem", "synth-lasso"]
    )
    assert args.algorithm == "oupgm"
    assert args.eps == "1e-2"
    assert args.T == 1000
    assert args.order == "random"
    assert not args.fixed_step


def test_parser_is_built_once_a_process():
    assert build_parser() is build_parser()


def test_parser_rejects_unknown_algorithm(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["run", "--algorithm", "sgd", "--problem", "synth-lasso"]
        )


def test_run_writes_artifacts_and_prints_paths(tmp_path, capsys):
    out = tmp_path / "art"
    code = main([
        "run", "--algorithm", "oupgm", "--problem", "synth-lasso",
        "--p", "4", "--n", "60", "--sparsity", "2", "--T", "40",
        "--eps", "1e-2", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    paths = json.loads(capsys.readouterr().out)
    assert set(paths) == {"trace", "report", "bounds"}
    assert paths["trace"] == str(out / "trace.csv")
    assert (out / "trace.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "bounds.csv").exists()


def test_run_invalid_eps_exits_2_naming_field(capsys):
    code = main([
        "run", "--algorithm", "oupgm", "--problem", "synth-lasso",
        "--eps", "-3",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "eps" in err


def test_run_non_numeric_eps_exits_2(capsys):
    code = main([
        "run", "--algorithm", "oupgm", "--problem", "synth-lasso",
        "--eps", "soon",
    ])
    assert code == 2
    assert "eps" in capsys.readouterr().err


def test_run_lasso_csv_requires_data_flag(capsys):
    code = main(["run", "--algorithm", "oupgm", "--problem", "lasso-csv"])
    assert code == 2
    assert "data" in capsys.readouterr().err


def test_run_eps_auto_reads_the_stream_degree(tmp_path, capsys):
    # a lasso stream has degree v = 1, so auto is T^(-1)
    out = tmp_path / "auto"
    code = main([
        "run", "--algorithm", "oupgm", "--problem", "synth-lasso",
        "--p", "4", "--n", "30", "--sparsity", "2", "--T", "25",
        "--eps", "auto", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["eps"] == pytest.approx(25.0 ** -1.0)


@pytest.mark.parametrize("flag", ["--Mv", "--v", "--dist0"])
def test_run_refuses_a_bound_constant_override(tmp_path, capsys, flag):
    """The Holder constants and ||x0 - x*||^2 come from the problem's
    certificate and the reference: run takes no flag for them."""
    out = tmp_path / "art"
    value = {"--Mv": "3", "--v": "0.5", "--dist0": "1"}[flag]
    with pytest.raises(SystemExit) as exc:
        main(["run", "--algorithm", "oupgm", "--problem", "synth-lasso", "--T", "10",
              flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_check_bounds_round_trip(tmp_path, capsys):
    out = tmp_path / "art"
    assert main([
        "run", "--algorithm", "oudgm", "--problem", "steiner",
        "--p", "3", "--m", "8", "--T", "30", "--eps", "1e-1",
        "--seed", "3", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    code = main(["check-bounds", str(out / "trace.csv")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["checked"] == "thm2"


@pytest.mark.parametrize("flags, column, text", [
    (["--algorithm", "oupgm", "--problem", "synth-lasso"], "f_full", "nan"),
    (["--algorithm", "sug", "--problem", "synth-lasso", "--ridge", "10", "--M", "1"],
     "L_next", "inf"),
], ids=["oupgm-f_full-nan", "sug-L_next-inf"])
def test_check_bounds_refuses_a_non_finite_field(tmp_path, capsys, flags, column, text):
    """check-bounds refuses a trace field the writer would refuse, naming
    its file line and column, though no bound it judges reads that column
    (thm1 reads no f_full; the sug curve no L_next)."""
    out = tmp_path / "run"
    assert main(["run", *flags, "--T", "50", "--out", str(out)]) == 0
    path = out / "trace.csv"
    lines = path.read_text().splitlines()
    k = lines.index(",".join(CSV_COLUMNS)) + 20
    parts = lines[k].split(",")
    parts[CSV_COLUMNS.index(column)] = text
    lines[k] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check-bounds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: line {k + 1}: non-finite value in column {column}" in captured.err


def _without_extra_key(key):
    """An edit of a trace's lines that drops key from its extra header."""
    def edit(lines):
        k = next(k for k, line in enumerate(lines) if line.startswith("# extra="))
        extra = json.loads(lines[k].partition("=")[2])
        del extra[key]
        lines[k] = f"# extra={json.dumps(extra, sort_keys=True)}"
    return edit


def _with_header(key, edit):
    """An edit of a trace's lines that replaces the value of its key header
    line by edit(value)."""
    def apply(lines):
        k = next(k for k, line in enumerate(lines) if line.startswith(f"# {key}="))
        value = edit(json.loads(lines[k].partition("=")[2]))
        lines[k] = f"# {key}={json.dumps(value, sort_keys=True)}"
    return apply


def _without(field):
    """An edit of a descriptor that drops field."""
    return lambda desc: {k: v for k, v in desc.items() if k != field}


OUPGM = ["--algorithm", "oupgm", "--problem", "synth-lasso"]
SUG = ["--algorithm", "sug", "--problem", "synth-lasso", "--ridge", "10", "--M", "1"]


def _refused_after(flags, edit, tmp_path, capsys):
    """(trace path, stderr) of check-bounds on the trace of a T=30 run with
    flags, which it passes, once edit changed its lines: it must exit 2
    and print nothing on stdout."""
    if "lasso-csv" in flags:
        save_samples(synth_lasso(p=3, n=40, sparsity=1, noise=0.1, seed=6), tmp_path / "d.csv")
        flags = [*flags, "--data", str(tmp_path / "d.csv")]
    assert main(["run", *flags, "--T", "30", "--out", str(tmp_path / "run")]) == 0
    path = tmp_path / "run" / "trace.csv"
    assert main(["check-bounds", str(path)]) == 0
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check-bounds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return path, captured.err


@pytest.mark.parametrize("flags, edit, message", [
    (OUPGM, lambda lines: lines.pop(0), "trace has no schema line; this version reads schema=1"),
    (OUPGM, lambda lines: lines.__setitem__(0, "# schema=2"),
     "trace has schema=2; this version reads schema=1"),
    (OUPGM, _without_extra_key("x_star"), "extra metadata key 'x_star' missing"),
    (SUG, _without_extra_key("M"), "extra metadata key 'M' missing"),
    ([*OUPGM, "--fixed-step"], _without_extra_key("Mv"), "extra metadata key 'Mv' missing"),
    ([*OUPGM, "--fixed-step"], _without_extra_key("fixed_step"),
     "extra metadata key 'fixed_step' missing"),
    (["--algorithm", "oupgm", "--problem", "lasso-csv"], _without_extra_key("data_sha256"),
     "extra metadata key 'data_sha256' missing"),
    (OUPGM, _with_header("algorithm", lambda _: "oupgmx"),
     'unknown algorithm "oupgmx"; this version reads oupgm, oudgm, sug, batch'),
    (OUPGM, _with_header("extra", lambda _: None), "metadata 'extra' is not a JSON object: null"),
    (OUPGM, _with_header("eps", lambda _: None), "metadata 'eps' is not a JSON number: null"),
    (OUPGM, _with_header("eps", lambda _: True), "metadata 'eps' is not a JSON number: true"),
    (OUPGM, _with_header("T", lambda _: None), "metadata 'T' is not a JSON integer: null"),
    (OUPGM, _with_header("T", lambda _: 1.5), "metadata 'T' is not a JSON integer: 1.5"),
    (OUPGM, _with_header("eps", lambda _: 10**400),
     f"metadata 'eps' is not a finite number: {10**400}"),
    (OUPGM, _with_header("eps", lambda _: -1), "metadata 'eps' is not a positive number: -1"),
    (OUPGM, _with_header("eps", lambda _: 0), "metadata 'eps' is not a positive number: 0"),
    (OUPGM, _with_header("L0", lambda _: -3), "metadata 'L0' is not a positive number: -3"),
    (OUPGM, _with_header("x0", lambda _: {}),
     "metadata 'x0' is not a JSON list of finite numbers: {}"),
    (OUPGM, _with_header("extra", lambda extra: dict(extra, reference_gap="x")),
     "extra metadata key 'reference_gap' is not a JSON number: \"x\""),
    (OUPGM, _with_header("extra", lambda extra: dict(extra, x_star=[0.0, None])),
     "extra metadata key 'x_star' is not a JSON list of finite numbers: [0.0, null]"),
    (SUG, _with_header("extra", lambda extra: dict(extra, dist0_sq="x")),
     "extra metadata key 'dist0_sq' is not a JSON number: \"x\""),
    (SUG, _with_header("extra", lambda extra: dict(extra, f_final=None)),
     "extra metadata key 'f_final' is not a JSON number: null"),
    ([*OUPGM, "--fixed-step"], _with_header("extra", lambda extra: dict(extra, fixed_step=1)),
     "extra metadata key 'fixed_step' is not a JSON boolean: 1"),
], ids=["no-schema", "schema-2", "no-x_star", "sug-no-M", "fixed-step-no-Mv",
        "fixed-step-no-fixed_step",
        "lasso-csv-no-data_sha256", "unknown-algorithm", "extra-null", "eps-null", "eps-true",
        "T-null", "T-1.5", "eps-past-float", "eps-negative", "eps-0", "L0-negative",
        "x0-object", "reference_gap-str", "x_star-null-entry", "sug-dist0_sq-str",
        "sug-f_final-null", "fixed_step-int"])
def test_check_bounds_refuses_a_trace_off_the_schema(tmp_path, capsys, flags, edit, message):
    """A trace of no or another schema, with an algorithm it does not know,
    an extra that is not an object, a header value of the wrong JSON type,
    an eps or L0 past float's range or not positive, or without an extra key
    its run writes or with one of the wrong JSON type, exits 2 naming the
    schema, the value or the key: never 1, the status of a violated bound,
    never a pass as a run of no bound, and never with a traceback."""
    path, err = _refused_after(flags, edit, tmp_path, capsys)
    assert err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("flags, edit, message", [
    (OUPGM, _with_header("problem", _without("p")),
     "synth-lasso problem descriptor lacks the field 'p'"),
    (["--algorithm", "oupgm", "--problem", "lasso-csv"], _with_header("problem", _without("path")),
     "lasso-csv problem descriptor lacks the field 'path'"),
], ids=["synth-lasso-no-p", "lasso-csv-no-path"])
def test_check_bounds_refuses_a_descriptor_without_a_field(tmp_path, capsys, flags, edit, message):
    """A problem descriptor without a field its kind needs exits 2 naming
    it, never with a traceback."""
    _, err = _refused_after(flags, edit, tmp_path, capsys)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flags, edit, message", [
    (OUPGM, _with_header("problem", lambda desc: dict(desc, p=20.9)),
     "problem descriptor field 'p' is 20.9, not of type int"),
    (OUPGM, _with_header("problem", lambda desc: dict(desc, seed=False)),
     "problem descriptor field 'seed' is False, not of type int"),
    (["--algorithm", "oupgm", "--problem", "lasso-csv"],
     _with_header("problem", lambda desc: dict(desc, path=3)),
     "problem descriptor field 'path' is 3, not of type str"),
    (OUPGM, _with_header("problem", lambda desc: dict(desc, kind=[desc["kind"]])),
     "unknown problem kind: ['synth-lasso']"),
], ids=["float-p", "bool-seed", "int-path", "list-kind"])
def test_check_bounds_refuses_a_descriptor_field_of_another_type(tmp_path, capsys, flags, edit,
                                                                 message):
    """A descriptor field of another JSON type exits 2 naming it: check-bounds
    never judges the run on data rebuilt from a coerced value, and a kind
    that is not a string is an unknown kind, not a traceback."""
    _, err = _refused_after(flags, edit, tmp_path, capsys)
    assert err == f"error: {message}\n"


def test_check_bounds_missing_file_exits_2(tmp_path, capsys):
    code = main(["check-bounds", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_reference_subcommand_prints_solution(capsys):
    code = main([
        "reference", "synth-lasso", "--p", "3", "--n", "20",
        "--sparsity", "1", "--noise", "0.0", "--mu", "0.0", "--seed", "4",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"x_star", "f_star", "iterations", "residual", "gap"}
    assert out["f_star"] <= 1e-10
    assert len(out["x_star"]) == 3


def test_reference_prints_the_certificate_of_its_point(capsys):
    assert main(["reference", "synth-lasso", "--p", "20", "--n", "100", "--mu", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0.0 <= out["gap"] <= 1e-8
    problem = problem_from_descriptor({"kind": "synth-lasso", "p": 20, "n": 100,
                                       "sparsity": 5, "noise": 0.1, "seed": 0, "mu": 0.1})
    x = np.array(out["x_star"])
    assert problem.certify(x)[1] == out["gap"]
    assert problem.value(x) == out["f_star"]


def test_reference_with_csv_data(tmp_path, capsys):
    inst = synth_lasso(p=2, n=10, sparsity=1, noise=0.0, seed=5)
    path = tmp_path / "d.csv"
    save_samples(inst, path)
    code = main([
        "reference", "lasso-csv", "--data", str(path), "--mu", "0.0",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(out["x_star"], inst.x_true, atol=1e-6)


@pytest.mark.parametrize("command", [
    ["run", "--algorithm", "oupgm", "--problem", "lasso-csv", "--T", "2"],
    ["reference", "lasso-csv"],
], ids=["run", "reference"])
def test_non_finite_csv_field_fails_at_load(tmp_path, capsys, command):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0,0.5\n0.5,nan,1.0\n2.0,1.0,inf\n")
    out = tmp_path / "art"
    extra = ["--out", str(out)] if command[0] == "run" else []
    assert main([*command, "--data", str(path), *extra]) == 2
    assert "error: line 2: non-finite field" in capsys.readouterr().err
    assert not out.exists()


def test_check_bounds_uses_the_run_reference_tol(tmp_path, capsys):
    out = tmp_path / "art"
    assert main([
        "run", "--algorithm", "oupgm", "--problem", "synth-lasso",
        "--T", "200", "--tol", "1e-3", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert main(["check-bounds", str(out / "trace.csv")]) == 0
    checked = json.loads(capsys.readouterr().out)
    assert checked["f_star"] == report["f_star"]


def test_lasso_csv_trace_checks_from_another_directory(tmp_path, monkeypatch, capsys):
    inst = synth_lasso(p=3, n=40, sparsity=1, noise=0.1, seed=6)
    save_samples(inst, tmp_path / "d.csv")
    monkeypatch.chdir(tmp_path)
    assert main([
        "run", "--algorithm", "oupgm", "--problem", "lasso-csv",
        "--data", "d.csv", "--T", "30", "--out", "out",
    ]) == 0
    sub = tmp_path / "sub"
    sub.mkdir()
    monkeypatch.chdir(sub)
    assert main(["check-bounds", "../out/trace.csv"]) == 0


def test_check_bounds_exits_2_naming_a_csv_that_changed(tmp_path, capsys):
    inst = synth_lasso(p=3, n=40, sparsity=1, noise=0.1, seed=6)
    path = tmp_path / "d.csv"
    save_samples(inst, path)
    out = tmp_path / "out"
    assert main(["run", "--algorithm", "oupgm", "--problem", "lasso-csv",
                 "--data", str(path), "--T", "30", "--out", str(out)]) == 0
    assert main(["check-bounds", str(out / "trace.csv")]) == 0
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("# a comment changes the bytes, not the data\n")
    capsys.readouterr()
    assert main(["check-bounds", str(out / "trace.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: data file changed since the run wrote")


def test_check_bounds_judges_the_sug_run_dist0(tmp_path, capsys):
    # the bound fails for this tiny dist0_sq; check-bounds must judge the
    # dist0_sq the trace records, not one recomputed from the reference
    out = tmp_path / "art"
    assert main(["run", *SUG, "--eps", "1e-2", "--T", "300", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["bound_satisfied"] is True
    path = out / "trace.csv"
    lines = path.read_text().splitlines()
    _with_header("extra", lambda extra: dict(extra, dist0_sq=1e-6))(lines)
    path.write_text("\n".join(lines) + "\n")
    assert main(["check-bounds", str(path)]) == 1
    checked = json.loads(capsys.readouterr().out)
    assert checked["dist0_sq"] == 1e-6
    assert checked["ok"] is False


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--algorithm", "oupgm", "--tol", "nan"], "tol must"),
        (["--algorithm", "oupgm", "--L0", "nan"], "L0 must"),
        (["--algorithm", "sug", "--ridge", "10", "--M", "nan"], "M must"),
        (["--algorithm", "oupgm", "--eps", "nan"], "eps must"),
        (["--algorithm", "oupgm", "--eps", "inf"], "eps must"),
        (["--algorithm", "oupgm", "--mu", "nan"], "(--mu) must"),
        (["--algorithm", "oupgm", "--mu", "inf"], "(--mu) must"),
        (["--algorithm", "sug", "--ridge", "1", "--M", "1", "--mu", "nan"], "(--mu) must"),
        (["--algorithm", "oupgm", "--ridge", "inf"], "(--ridge) must"),
        (["--algorithm", "oupgm", "--noise", "nan"], "noise must"),
        (["--algorithm", "oupgm", "--noise", "inf"], "noise must"),
        (["--algorithm", "oupgm", "--seed", "-1"], "seed must"),
    ],
    ids=["tol-nan", "L0-nan", "M-nan", "eps-nan", "eps-inf",
         "mu-nan", "mu-inf", "sug-mu-nan", "ridge-inf", "noise-nan", "noise-inf",
         "seed-negative"],
)
def test_run_rejects_non_finite_flags_before_running(tmp_path, capsys, flags, message):
    out = tmp_path / "art"
    code = main(["run", "--problem", "synth-lasso", *flags, "--T", "50",
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["run", "--algorithm", "oupgm", "--problem", "lasso-csv", "--T", "2"],
    ["reference", "lasso-csv"],
], ids=["run", "reference"])
def test_lasso_csv_weights_are_checked_before_the_data_is_read(tmp_path, capsys, command):
    out = tmp_path / "art"
    extra = ["--out", str(out)] if command[0] == "run" else []
    assert main([*command, "--data", str(tmp_path / "missing.csv"), "--mu", "nan", *extra]) == 2
    assert "error: l1_weight (--mu) must be nonnegative and finite" in capsys.readouterr().err
    assert not out.exists()


def test_reference_rejects_non_finite_tol(capsys):
    assert main(["reference", "synth-lasso", "--tol", "nan"]) == 2
    assert "tol must" in capsys.readouterr().err
