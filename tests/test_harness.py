"""Reference solver, regret evaluation, orders, run configs, artifacts."""

import json
from pathlib import Path

import numpy as np
import pytest

from unigrad.harness import (
    ReferenceSolverError,
    RunConfig,
    check_bounds,
    evaluate_regret,
    problem_from_descriptor,
    reference_solution,
    resolve_eps,
    run_experiment,
    sample_order,
)
from helpers import save_samples
from unigrad.oracles import CompositeProblem, Regularizer
from unigrad.problems import (
    LassoInstance,
    SteinerInstance,
    lasso_problem,
    steiner_problem,
    synth_lasso,
)
from unigrad.trace import RunTrace, parse_trace_csv, write_trace_csv


# ---------------------------------------------------------------------------
# reference solver


def test_reference_single_center_is_that_center():
    c = np.array([0.7, -1.3, 2.1])
    prob = steiner_problem(SteinerInstance(centers=c[None, :]))
    ref = reference_solution(prob, tol=1e-10)
    np.testing.assert_allclose(ref.x, c, atol=1e-8)
    assert ref.f <= 1e-8
    assert ref.residual <= 1e-10


def test_reference_raises_when_capped():
    prob = lasso_problem(synth_lasso(p=20, n=60, sparsity=5, noise=0.1, seed=0))
    with pytest.raises(ReferenceSolverError, match="no convergence"):
        reference_solution(prob, tol=1e-12, max_iters=2)


def test_reference_validates_tolerance():
    prob = lasso_problem(synth_lasso(p=2, n=3, sparsity=1, noise=0.0, seed=0))
    with pytest.raises(ValueError, match="tol"):
        reference_solution(prob, tol=0.0)


def test_batch_solver_evaluates_the_smooth_average_once_per_trial(tmp_path, monkeypatch):
    # every backtracking trial is one prox call; the accepted trial's smooth
    # value must serve as the next iterate's, so trials + 1 calls suffice
    calls = {"value": 0, "prox": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(CompositeProblem, "mean_smooth_value",
                        counted("value", CompositeProblem.mean_smooth_value))
    monkeypatch.setattr(Regularizer, "prox", counted("prox", Regularizer.prox))
    desc = {"kind": "synth-lasso", "p": 20, "n": 500, "sparsity": 5,
            "noise": 0.1, "seed": 0, "mu": 0.1, "ridge": 1.0}
    reference_solution(problem_from_descriptor(desc), tol=1e-10)
    ref_calls = dict(calls)
    assert ref_calls["value"] <= ref_calls["prox"] + 1

    calls.update(value=0, prox=0)
    paths = run_experiment(_cfg(algorithm="batch", problem=desc, T=1000, tol=1e-10,
                                out=str(tmp_path / "run")))
    trace = parse_trace_csv(paths["trace"])
    trials = sum(i + 1 for i in trace.i_t)
    # the run's own reference solve repeats the calls counted above
    assert calls["prox"] - ref_calls["prox"] == trials
    assert calls["value"] - ref_calls["value"] <= trials + 1


# ---------------------------------------------------------------------------
# regret evaluation on fabricated traces


def _scalar_problem(a=1.0, b=0.0):
    return lasso_problem(LassoInstance(A=np.array([[a]]), b=np.array([b])))


def _fabricated_trace(rows, T, x0=(0.0,), eps=0.1):
    trace = RunTrace(
        algorithm="oupgm", eps=eps, T=T, x0=np.asarray(x0, dtype=float),
        L0=1.0, seed=0, order_kind=None,
    )
    for r in rows:
        trace.add_row(*r[:8], component=r[8] if len(r) > 8 else None)
    return trace


def test_regret_zero_when_sitting_at_comparator():
    prob = _scalar_problem()
    rows = [(t, 0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0) for t in range(3)]
    rep = evaluate_regret(_fabricated_trace(rows, T=2), prob, np.zeros(1))
    assert rep.regret_as_defined == 0.0
    assert rep.regret_shifted == 0.0
    assert rep.r0 == 0.0
    assert rep.S_T == pytest.approx(1.5)
    assert rep.thm1_satisfied and rep.thm2_satisfied


def test_regret_single_row_weighted_identity():
    prob = _scalar_problem(a=2.0, b=1.0)  # g(x) = (2x - 1)^2
    x_star = np.array([0.25])             # g(x*) = 0.25
    rows = [(0, 0, 4.0, 3.0, 1.0, 2.0, 3.0, 0.0, 0)]
    rep = evaluate_regret(_fabricated_trace(rows, T=0, x0=(1.0,)), prob, x_star)
    assert rep.weighted_lhs_thm1 == pytest.approx(0.25 * (1.0 - 0.25))
    assert rep.weighted_lhs_thm2 == pytest.approx(0.5 * 0.25 * (2.0 - 0.25))
    assert rep.weighted_lhs_thm2_iterates == pytest.approx(0.5 * 0.25 * (3.0 - 0.25))
    r0 = 0.5 * (1.0 - 0.25) ** 2
    assert rep.r0 == pytest.approx(r0)
    assert rep.rhs_thm1 == pytest.approx(0.5 * 0.1 * 0.25 + 2.0 * r0)
    assert rep.rhs_thm2 == pytest.approx(0.25 * 0.1 * 0.25 + r0)


def test_regret_rejects_incomplete_trace():
    prob = _scalar_problem()
    rows = [(0, 0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)]
    with pytest.raises(ValueError, match="incomplete"):
        evaluate_regret(_fabricated_trace(rows, T=5), prob, np.zeros(1))


def test_regret_needs_components_or_order():
    prob = _scalar_problem()
    rows = [(0, 0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0)]  # no component recorded
    with pytest.raises(ValueError, match="lacks both"):
        evaluate_regret(_fabricated_trace(rows, T=0), prob, np.zeros(1))


def test_regret_rejects_foreign_components():
    prob = _scalar_problem()
    rows = [(0, 0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5)]
    with pytest.raises(ValueError, match="components"):
        evaluate_regret(_fabricated_trace(rows, T=0), prob, np.zeros(1))


# ---------------------------------------------------------------------------
# visit orders


def test_order_cyclic_wraps():
    np.testing.assert_array_equal(sample_order("cyclic", 2, 4, None),
                                  [0, 1, 0, 1, 0])


def test_order_sequential_identity_and_cap():
    np.testing.assert_array_equal(sample_order("sequential", 4, 3, None),
                                  [0, 1, 2, 3])
    with pytest.raises(ValueError, match="sequential"):
        sample_order("sequential", 3, 3, None)


def test_order_random_reproducible_and_guarded():
    a = sample_order("random", 5, 100, 7)
    b = sample_order("random", 5, 100, 7)
    np.testing.assert_array_equal(a, b)
    assert a.min() >= 0 and a.max() < 5
    with pytest.raises(ValueError, match="seed"):
        sample_order("random", 5, 100, None)


def test_order_random_roughly_uniform():
    draws = sample_order("random", 3, 3000, 0)
    counts = np.bincount(draws, minlength=3)
    expected = len(draws) / 3.0
    assert np.max(np.abs(counts - expected)) / expected < 0.05


def test_order_validation():
    with pytest.raises(ValueError, match="unknown order"):
        sample_order("shuffled", 3, 3, 0)
    with pytest.raises(ValueError, match="T"):
        sample_order("cyclic", 3, -1, 0)
    with pytest.raises(ValueError, match="n"):
        sample_order("cyclic", 0, 3, 0)


# ---------------------------------------------------------------------------
# problem descriptors


def test_descriptor_synth_lasso_round_trip():
    desc = {"kind": "synth-lasso", "p": 4, "n": 6, "sparsity": 2,
            "noise": 0.1, "seed": 3, "mu": 0.2, "ridge": 0.1}
    prob = problem_from_descriptor(desc)
    direct = lasso_problem(synth_lasso(p=4, n=6, sparsity=2, noise=0.1, seed=3,
                                       l1_weight=0.2, ridge_weight=0.1))
    assert prob.dimension == 4 and prob.n_components == 6
    x = np.random.default_rng(0).normal(size=4)
    assert prob.value(x) == pytest.approx(direct.value(x), rel=1e-15)
    assert prob.regularizer.strong_convexity == 0.1


def test_descriptor_steiner():
    prob = problem_from_descriptor({"kind": "steiner", "p": 3, "m": 5, "seed": 1})
    assert prob.dimension == 3 and prob.n_components == 5
    assert prob.holder_constants() == (0.0, 2.0)


def test_descriptor_lasso_csv(tmp_path):
    inst = synth_lasso(p=3, n=4, sparsity=1, noise=0.2, seed=2)
    path = tmp_path / "data.csv"
    save_samples(inst, path)
    prob = problem_from_descriptor({"kind": "lasso-csv", "path": str(path), "mu": 0.3})
    assert prob.dimension == 3 and prob.n_components == 4
    x = np.ones(3)
    direct = lasso_problem(LassoInstance(A=inst.A, b=inst.b, l1_weight=0.3))
    assert prob.value(x) == pytest.approx(direct.value(x), rel=1e-15)


def test_descriptor_rejects_unknown():
    with pytest.raises(ValueError, match="unknown problem kind"):
        problem_from_descriptor({"kind": "svm"})
    with pytest.raises(ValueError, match="descriptor"):
        problem_from_descriptor("synth-lasso")


# ---------------------------------------------------------------------------
# run configuration


SYNTH_DESC = {"kind": "synth-lasso", "p": 4, "n": 60, "sparsity": 2,
              "noise": 0.1, "seed": 3, "mu": 0.1}


def _cfg(**kw):
    base = dict(algorithm="oupgm", problem=dict(SYNTH_DESC), out="unused")
    base.update(kw)
    return RunConfig(**base)


@pytest.mark.parametrize(
    "field,kw",
    [
        ("algorithm", {"algorithm": "sgd"}),
        ("eps", {"eps": "later"}),
        ("eps", {"eps": -0.5}),
        ("T", {"T": -1}),
        ("L0", {"L0": 0.0}),
        ("order", {"order": "shuffled"}),
        ("M", {"algorithm": "sug"}),
        ("tol", {"tol": 0.0}),
    ],
)
def test_run_config_validation_names_the_field(field, kw):
    with pytest.raises(ValueError, match=field):
        _cfg(**kw).validate()


def test_resolve_eps():
    prob = problem_from_descriptor(SYNTH_DESC)
    assert resolve_eps(_cfg(eps=0.5), prob) == 0.5
    # lasso streams have degree 1: auto gives T^(-1)
    assert resolve_eps(_cfg(eps="auto", T=100), prob) == pytest.approx(0.01)
    # explicit degree override changes the exponent
    got = resolve_eps(_cfg(eps="auto", T=100, holder_degree=0.0), prob)
    assert got == pytest.approx(0.1)
    with pytest.raises(ValueError, match="auto"):
        resolve_eps(_cfg(eps="auto", T=0), prob)


# ---------------------------------------------------------------------------
# experiment runner and bound re-checking


def _recheck(paths) -> dict:
    """check_bounds on the saved trace; it must reproduce report.json."""
    report = json.loads(Path(paths["report"]).read_text())
    rep, ok = check_bounds(paths["trace"])
    assert rep == report
    assert ok is report["ok"]
    return rep


def test_run_experiment_online_artifacts(tmp_path):
    cfg = _cfg(out=str(tmp_path / "run"), eps=1e-2, T=50, order="random", seed=1)
    paths = run_experiment(cfg)
    assert set(paths) == {"trace", "report", "bounds"}
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["algorithm"] == "oupgm"
    assert report["thm1_satisfied"] is True
    assert report["T"] == 50
    lines = (tmp_path / "run" / "bounds.csv").read_text().strip().splitlines()
    assert lines[0] == "k,gap,bound"
    assert len(lines) == 52  # header plus T + 1 prefix rows
    # every prefix bound dominates its gap for a theorem-satisfying run
    for line in lines[1:]:
        _, gap, bound = line.split(",")
        assert float(gap) <= float(bound) + 1e-9

    rep = _recheck(paths)
    assert rep["ok"] and rep["checked"] == "thm1"


def test_run_experiment_dual_and_recheck(tmp_path):
    cfg = _cfg(algorithm="oudgm", out=str(tmp_path / "run"), eps=1e-2, T=50,
               order="random", seed=2)
    rep = _recheck(run_experiment(cfg))
    assert rep["ok"] and rep["checked"] == "thm2"


@pytest.mark.parametrize("algorithm", ["oupgm", "oudgm"])
def test_run_experiment_fixed_step_and_recheck(tmp_path, algorithm):
    cfg = _cfg(algorithm=algorithm, out=str(tmp_path / "run"), eps=1e-1, T=40,
               order="random", seed=3, fixed_step=True)
    paths = run_experiment(cfg)
    report = json.loads(Path(paths["report"]).read_text())
    assert report["fixed_step"] is True
    assert report["corollary_satisfied"] is True
    rep = _recheck(paths)
    assert rep["ok"] and rep["checked"] == "fixed-step regret corollary"


@pytest.mark.parametrize("dist0_sq", [None, 1e-6], ids=["reference-dist0", "dist0-override"])
def test_run_experiment_sug_and_recheck(tmp_path, dist0_sq):
    desc = dict(SYNTH_DESC, ridge=20.0)
    cfg = _cfg(algorithm="sug", problem=desc, out=str(tmp_path / "run"),
               eps=1e-2, T=100, M=1.0, seed=4, dist0_sq=dist0_sq)
    paths = run_experiment(cfg)
    report = json.loads(Path(paths["report"]).read_text())
    assert report["rho"] is not None and report["rho"] < 1.0
    assert report["bound_satisfied"] is True
    if dist0_sq is not None:
        assert report["dist0_sq"] == dist0_sq
    rep = _recheck(paths)
    assert rep["ok"] and rep["checked"] == "sug bound curve"


def test_check_bounds_sug_trace_without_dist0_or_final_value(tmp_path):
    # traces that predate the dist0_sq and f_final keys: dist0_sq comes from
    # the reference, and only the recorded rows are judged
    desc = dict(SYNTH_DESC, ridge=20.0)
    cfg = _cfg(algorithm="sug", problem=desc, out=str(tmp_path / "run"),
               eps=1e-2, T=100, M=1.0, seed=4)
    paths = run_experiment(cfg)
    report = json.loads(Path(paths["report"]).read_text())
    trace = parse_trace_csv(paths["trace"])
    del trace.extra_meta["dist0_sq"], trace.extra_meta["f_final"]
    write_trace_csv(trace, paths["trace"])
    rep, ok = check_bounds(paths["trace"])
    assert ok and rep["checked"] == "sug bound curve"
    assert rep["dist0_sq"] == report["dist0_sq"]
    assert "final_gap" not in rep


def test_run_experiment_sug_vacuous_bound(tmp_path):
    # no strong convexity in the steiner composite: nothing to check
    desc = {"kind": "steiner", "p": 3, "m": 5, "seed": 1}
    cfg = _cfg(algorithm="sug", problem=desc, out=str(tmp_path / "run"),
               eps=1e-1, T=20, M=1.0, seed=0)
    paths = run_experiment(cfg)
    report = json.loads(Path(paths["report"]).read_text())
    assert report["bound_vacuous"] is True
    rep = _recheck(paths)
    assert rep["ok"] and rep["checked"] == "none (bound vacuous)"


def test_run_experiment_batch(tmp_path):
    cfg = _cfg(algorithm="batch", out=str(tmp_path / "run"), eps=1e-2, T=500,
               tol=1e-8)
    paths = run_experiment(cfg)
    report = json.loads(Path(paths["report"]).read_text())
    assert report["algorithm"] == "batch"
    assert report["final_gap"] <= 1e-6
    lines = (tmp_path / "run" / "bounds.csv").read_text().strip().splitlines()
    assert lines[1].endswith(",")  # no bound column for batch runs
    rep = _recheck(paths)
    assert rep["ok"] and rep["checked"] == "none"


def test_check_bounds_needs_problem_metadata(tmp_path):
    trace = RunTrace(algorithm="oupgm", eps=0.1, T=0, x0=np.zeros(1), L0=1.0)
    trace.add_row(0, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, component=0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with pytest.raises(ValueError, match="descriptor"):
        check_bounds(path)
