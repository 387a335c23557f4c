"""CLI surface: parsing, artifact runs, exit codes, error reporting."""

import json

import numpy as np
import pytest

from helpers import save_samples
from unigrad.cli import build_parser, main
from unigrad.problems import synth_lasso


def test_parser_run_defaults():
    args = build_parser().parse_args(
        ["run", "--algorithm", "oupgm", "--problem", "synth-lasso"]
    )
    assert args.algorithm == "oupgm"
    assert args.eps == "1e-2"
    assert args.T == 1000
    assert args.order == "random"
    assert not args.fixed_step


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


def test_run_eps_auto_with_degree_override(tmp_path, capsys):
    out = tmp_path / "auto"
    code = main([
        "run", "--algorithm", "oupgm", "--problem", "synth-lasso",
        "--p", "4", "--n", "30", "--sparsity", "2", "--T", "25",
        "--eps", "auto", "--v", "1.0", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["eps"] == pytest.approx(25.0 ** -1.0)


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
    assert set(out) == {"x_star", "f_star", "iterations", "residual"}
    assert out["f_star"] <= 1e-10
    assert len(out["x_star"]) == 3


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


def test_check_bounds_judges_the_sug_run_dist0(tmp_path, capsys):
    # the bound fails for this tiny --dist0; check-bounds must judge the
    # dist0 the run used, not one recomputed from the reference
    out = tmp_path / "art"
    assert main([
        "run", "--algorithm", "sug", "--problem", "synth-lasso", "--ridge", "10",
        "--M", "1", "--eps", "1e-2", "--T", "300", "--dist0", "1e-6",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["bound_satisfied"] is False
    assert main(["check-bounds", str(out / "trace.csv")]) == 1
    checked = json.loads(capsys.readouterr().out)
    assert checked["dist0_sq"] == 1e-6
    assert checked["ok"] is False


@pytest.mark.parametrize("dist0", ["0", "-1", "nan"])
def test_run_rejects_bad_dist0_before_running(tmp_path, capsys, dist0):
    out = tmp_path / "art"
    code = main([
        "run", "--algorithm", "sug", "--problem", "synth-lasso", "--ridge", "10",
        "--M", "1", "--dist0", dist0, "--T", "10", "--out", str(out),
    ])
    assert code == 2
    assert "dist0" in capsys.readouterr().err
    assert not out.exists()
