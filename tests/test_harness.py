"""Reference solver, regret evaluation, orders, run configs, artifacts."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from unigrad import harness, problems
from unigrad.harness import (
    ReferenceSolution,
    ReferenceSolverError,
    RunConfig,
    check_bounds,
    evaluate_regret,
    problem_from_descriptor,
    reference_solution,
    resolve_eps,
    run_experiment,
    sample_order,
    verify,
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
from unigrad.trace import CSV_COLUMNS, RunTrace, parse_trace_csv, write_trace_csv


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
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol"):
            reference_solution(prob, tol=tol)


def test_reference_records_one_step_per_iteration():
    prob = lasso_problem(synth_lasso(p=5, n=40, sparsity=2, noise=0.1, seed=1,
                                     l1_weight=0.1))
    ref = reference_solution(prob, tol=1e-10)
    assert len(ref.steps) == ref.iterations
    doublings, M, f_x, f_next, elapsed = zip(*ref.steps)
    assert all(d >= 0 for d in doublings)
    assert list(M) == sorted(M)  # the modulus is never halved
    assert f_x[0] == prob.value(np.zeros(5))
    assert f_x[1:] == f_next[:-1]
    assert f_next[-1] == ref.f
    assert list(elapsed) == sorted(elapsed)


@pytest.mark.parametrize("bad, kind", [(np.nan, "NaN"), (np.inf, "infinite")])
def test_reference_fails_fast_on_a_non_finite_smooth_value(bad, kind):
    # the fourth evaluation of the smooth average, a backtracking trial of
    # the first step, spoils: the solve must stop there, not keep doubling
    # the modulus against it until the cap.  Without its quadratic the lasso
    # takes the residual steps, which evaluate the average at every trial.
    problem = lasso_problem(synth_lasso(p=5, n=40, sparsity=2, noise=0.1, seed=1,
                                        l1_weight=0.1))
    problem.quadratic_fn = None
    calls = []
    mean_value = problem.mean_value_fn

    def spoiled(x):
        calls.append(None)
        return mean_value(x) if len(calls) <= 3 else bad

    problem.mean_value_fn = spoiled
    with pytest.raises(ReferenceSolverError, match=f"{kind} .* at reference iteration 1"):
        reference_solution(problem)
    assert len(calls) == 4


GRAM_SHAPES = {
    "battery": dict(p=20, n=2001, sparsity=5, seed=0, l1_weight=0.1),
    "large": dict(p=60, n=4000, sparsity=6, seed=3, l1_weight=0.1),
    "elastic-net": dict(p=20, n=500, sparsity=5, seed=0, l1_weight=0.1, ridge_weight=1.0),
    "h0": dict(p=5, n=60, sparsity=2, seed=1),
}


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("shape", sorted(GRAM_SHAPES))
def test_gram_steps_match_the_residual_steps(shape, tol):
    """A lasso with 2p < n steps on A'A; without its quadratic it takes the
    residual steps.  Both take the same steps, to rounding."""
    inst = synth_lasso(noise=0.1, **GRAM_SHAPES[shape])
    gram = lasso_problem(inst)
    residual = lasso_problem(inst)
    residual.quadratic_fn = None
    got, want = reference_solution(gram, tol=tol), reference_solution(residual, tol=tol)
    assert got.iterations == want.iterations
    assert [step[:2] for step in got.steps] == [step[:2] for step in want.steps]
    np.testing.assert_allclose(got.x, want.x, rtol=0.0, atol=1e-12)
    assert got.f == pytest.approx(want.f, rel=1e-14)
    # the stopping point's f and certificate are the data's, as without A'A
    assert got.f == gram.value(got.x) and got.gap == gram.certify(got.x)[1]


def _count_gram_builds(monkeypatch):
    builds = []
    gram_state = problems._gram_state

    def spy(A, b):
        builds.append(A.shape)
        return gram_state(A, b)

    monkeypatch.setattr(problems, "_gram_state", spy)
    return builds


@pytest.mark.parametrize("algorithm", ["oupgm", "oudgm", "sug", "batch"])
@pytest.mark.parametrize("p, n, want", [(10, 60, 1), (40, 60, 0)])
def test_a_run_builds_the_gram_state_at_most_once(tmp_path, monkeypatch, algorithm, p, n,
                                                  want):
    """The reference solve builds A'A where 2p < n, and the f_full pass
    reuses it; building the problem and check-bounds build none."""
    builds = _count_gram_builds(monkeypatch)
    desc = dict(SYNTH_DESC, p=p, n=n, ridge=10.0)
    problem = problem_from_descriptor(desc)
    assert builds == [] and (problem.quadratic_fn is None) is (want == 0)
    paths = run_experiment(_cfg(algorithm=algorithm, problem=desc, T=30, M=1.0,
                                out=str(tmp_path / "run")))
    assert builds == [(n, p)] * want
    _recheck(paths)
    assert builds == [(n, p)] * want


def test_nan_data_stops_the_gram_solve_before_it_builds(monkeypatch):
    builds = _count_gram_builds(monkeypatch)
    inst = synth_lasso(p=5, n=40, sparsity=2, noise=0.1, seed=1, l1_weight=0.1)
    b = inst.b.copy()
    b[7] = np.nan
    problem = lasso_problem(LassoInstance(A=inst.A, b=b, l1_weight=0.1))
    with pytest.raises(ReferenceSolverError, match="NaN .* at reference iteration 0"):
        reference_solution(problem)
    assert builds == []


def test_a_nan_quadratic_stops_the_gram_solve_at_its_first_trial():
    problem = lasso_problem(synth_lasso(p=5, n=40, sparsity=2, noise=0.1, seed=1,
                                        l1_weight=0.1))
    G, c = problem.quadratic_fn()
    problem.quadratic_fn = lambda: (G * np.nan, c)
    with pytest.raises(ReferenceSolverError, match="NaN .* at reference iteration 1"):
        reference_solution(problem)


def test_batch_solver_evaluates_the_smooth_average_once_per_trial(tmp_path, monkeypatch):
    # every backtracking trial is one prox call; the accepted trial's smooth
    # value must serve as the next iterate's, so trials + 1 calls suffice;
    # a batch run writes out its reference solve's steps and solves no more
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
    assert calls == ref_calls
    assert calls["prox"] == trials
    assert calls["value"] <= trials + 1


# ---------------------------------------------------------------------------
# regret evaluation on fabricated traces


def _scalar_problem(a=1.0, b=0.0):
    return lasso_problem(LassoInstance(A=np.array([[a]]), b=np.array([b])))


def _fabricated_trace(rows, T, x0=(0.0,), eps=0.1):
    trace = RunTrace(
        algorithm="oupgm", eps=eps, T=T, x0=np.asarray(x0, dtype=float),
        L0=1.0, seed=0, order_kind=None, extra_meta={"fixed_step": False},
    )
    for r in rows:
        trace.add_row(*r[:8], component=r[8] if len(r) > 8 else None)
    return trace


def test_regret_zero_when_sitting_at_comparator():
    prob = _scalar_problem()
    rows = [(t, 0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0) for t in range(3)]
    trace = _fabricated_trace(rows, T=2)
    trace.extra_meta.update(Mv=3.0, v=1.0)
    for bound, S_k in (("thm1", [0.5, 1.0, 1.5]), ("thm2", [0.25, 0.5, 0.75]),
                       ("oupgm corollary", [1.0, 2.0, 3.0]),
                       ("oudgm corollary", [1.0, 2.0, 3.0])):
        r0, lhs, rhs = evaluate_regret(trace, prob, np.zeros(1), bound)
        assert r0 == 0.0
        assert lhs.tolist() == [0.0, 0.0, 0.0]
        assert rhs == pytest.approx(0.5 * 0.1 * np.array(S_k)), bound


# g(x) = (2x - 1)^2 at x* = 0.25, where g(x*) = 0.25; the one row plays
# x_t with g 3.0, steps to x_{t+1} with g 1.0 through y_t with g 2.0 at
# L_{t+1} = 4, from x0 = 1 (r0 = 0.5 * 0.75^2), at eps 0.1 and, for the
# corollaries, gamma(3, 1, eps) = 3: w (F - 0.25) <= 0.05 w + 2 c r0
def test_regret_single_row_weighted_identity():
    prob = _scalar_problem(a=2.0, b=1.0)
    rows = [(0, 0, 4.0, 3.0, 1.0, 2.0, 3.0, 0.0, 0)]
    trace = _fabricated_trace(rows, T=0, x0=(1.0,))
    trace.extra_meta.update(fixed_step=True, Mv=3.0, v=1.0)
    for bound, lhs, rhs in (
        ("thm1", 0.25 * (1.0 - 0.25), 0.5 * 0.1 * 0.25 + 2.0 * 0.5 * 0.75**2),
        ("thm2", 0.125 * (2.0 - 0.25), 0.25 * 0.1 * 0.25 + 0.5 * 0.75**2),
        ("oupgm corollary", 1.0 - 0.25, 0.5 * 0.1 + 2.0 * 3.0 * 0.5 * 0.75**2),
        ("oudgm corollary", 3.0 - 0.25, 0.5 * 0.1 + 2.0 * 3.0 * 0.5 * 0.75**2),
    ):
        r0, got_lhs, got_rhs = evaluate_regret(trace, prob, np.array([0.25]), bound)
        assert r0 == pytest.approx(0.5 * 0.75**2), bound
        assert got_lhs.tolist() == [pytest.approx(lhs)], bound
        assert got_rhs.tolist() == [pytest.approx(rhs)], bound


def test_verify_judges_every_prefix_of_the_regret_bound():
    """g_0 = (x - 1)^2 and g_1 = (x + 1)^2, so x* = 0 with g_i(x*) = 1 and
    r0 = 0 from x0 = 0.  Round 0 reads F = 3 at weight 1: its prefix breaks
    thm1 (2 > 0.05); round 1 reads F = 0.5 at weight 10, which brings the
    sum back under (-3 <= 0.55).  The run fails though its last prefix holds."""
    prob = lasso_problem(LassoInstance(A=np.array([[1.0], [1.0]]), b=np.array([1.0, -1.0])))
    rows = [(0, 0, 1.0, 3.0, 3.0, 3.0, 1.0, 0.0, 0), (1, 0, 0.1, 0.5, 0.5, 0.5, 1.0, 0.0, 1)]
    reference = ReferenceSolution(x=np.zeros(1), f=1.0, iterations=1, residual=0.0, gap=0.0,
                                  steps=[])
    report, (name, ks, lhs, rhs) = verify(_fabricated_trace(rows, T=1), prob, reference)
    assert (name, list(ks)) == ("lhs", [0, 1])
    assert lhs.tolist() == pytest.approx([2.0, -3.0])
    assert rhs.tolist() == pytest.approx([0.05, 0.55])
    assert (report["lhs"], report["rhs"]) == (lhs[-1], rhs[-1])
    assert report["min_prefix_margin"] == pytest.approx(0.05 - 2.0)
    assert (report["checked"], report["ok"]) == ("thm1", False)


def test_regret_rejects_incomplete_trace():
    prob = _scalar_problem()
    rows = [(0, 0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)]
    with pytest.raises(ValueError, match="incomplete"):
        evaluate_regret(_fabricated_trace(rows, T=5), prob, np.zeros(1), "thm1")


def test_regret_needs_components_or_order():
    prob = _scalar_problem()
    rows = [(0, 0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0)]  # no component recorded
    with pytest.raises(ValueError, match="unknown order kind: None"):
        evaluate_regret(_fabricated_trace(rows, T=0), prob, np.zeros(1), "thm1")


def test_regret_rejects_foreign_components():
    prob = _scalar_problem()
    rows = [(0, 0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5)]
    with pytest.raises(ValueError, match="components"):
        evaluate_regret(_fabricated_trace(rows, T=0), prob, np.zeros(1), "thm1")


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


@pytest.mark.parametrize("desc, message", [
    ({k: v for k, v in SYNTH_DESC.items() if k != "p"},
     "synth-lasso problem descriptor lacks the field 'p'"),
    ({"kind": "lasso-csv", "mu": 0.1}, "lasso-csv problem descriptor lacks the field 'path'"),
    ({"kind": "steiner", "p": 2, "seed": 0}, "steiner problem descriptor lacks the field 'm'"),
    (dict(SYNTH_DESC, n=None), "problem descriptor field 'n' is None, not of type int"),
    (dict(SYNTH_DESC, mu=[0.1]), r"problem descriptor field 'mu' is \[0.1\], not of type float"),
], ids=["synth-lasso-no-p", "lasso-csv-no-path", "steiner-no-m", "null-n", "list-mu"])
def test_descriptor_names_a_missing_or_malformed_field(desc, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        problem_from_descriptor(desc)


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
        ("eps", {"eps": float("nan")}),
        ("eps", {"eps": float("inf")}),
        ("L0", {"L0": float("nan")}),
        ("L0", {"L0": float("inf")}),
        ("M", {"algorithm": "sug", "M": float("nan")}),
        ("M", {"algorithm": "sug", "M": 0.0}),
        ("tol", {"tol": float("nan")}),
        ("tol", {"tol": float("inf")}),
        ("holder_modulus", {"fixed_step": True, "holder_modulus": float("nan")}),
        ("holder_modulus", {"fixed_step": True, "holder_modulus": -1.0}),
        ("holder_degree", {"holder_degree": float("nan")}),
        ("holder_degree", {"holder_degree": 2.0}),
        ("holder_degree", {"eps": "auto", "holder_degree": -0.5}),
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
    assert (report["checked"], report["ok"]) == ("thm1", True)
    assert report["T"] == 50
    lines = (tmp_path / "run" / "bounds.csv").read_text().strip().splitlines()
    assert lines[0] == "k,lhs,bound"
    assert len(lines) == 52  # header plus T + 1 prefix rows
    # thm1 holds at every prefix, as the verdict says; the last row is the
    # report's
    for line in lines[1:]:
        _, lhs, bound = map(float, line.split(","))
        assert lhs <= bound + 1e-9 * (1.0 + abs(bound))
    assert [float(v) for v in lines[-1].split(",")[1:]] == [report["lhs"], report["rhs"]]

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
    assert report["ok"] is True and report["min_prefix_margin"] > 0.0
    assert report["fixed_step_modulus"] > 0.0
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


@pytest.mark.parametrize("T", [3, 1000], ids=["capped", "converged"])
def test_batch_trace_is_the_reference_steps(tmp_path, T):
    paths = run_experiment(_cfg(algorithm="batch", out=str(tmp_path / "run"), T=T,
                                tol=1e-10))
    trace = parse_trace_csv(paths["trace"])
    ref = reference_solution(problem_from_descriptor(SYNTH_DESC), tol=1e-10)
    steps = ref.steps[:T]
    assert trace.n_rows == len(steps) == min(T, ref.iterations)
    assert np.array_equal(trace.i_t, [d for d, *_ in steps])
    assert np.array_equal(trace.L_next, [M for _, M, *_ in steps])
    assert trace.f_gt_xt.tobytes() == trace.f_full.tobytes()
    assert np.array_equal(trace.f_full, [f_x for _, _, f_x, _, _ in steps])
    assert trace.f_gt_xnext.tobytes() == trace.f_gt_yt.tobytes()
    assert np.array_equal(trace.f_gt_yt, [f for _, _, _, f, _ in steps])


def test_batch_trace_is_sized_by_the_steps_not_by_T(tmp_path):
    """A batch trace holds the reference steps it writes, never T rows: at
    T = 10^7 a T-sized float64 column alone would be 80 MB."""
    runs = {}
    for T in (10_000, 10_000_000):
        tracemalloc.start()
        try:
            paths = run_experiment(_cfg(algorithm="batch", out=str(tmp_path / str(T)), T=T,
                                        eps=1e-2, tol=1e-10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        lines = Path(paths["trace"]).read_text().splitlines()
        assert lines.pop(3) == f"# T={T}"
        # the rows but their elapsed_s, which is wall time
        runs[T] = ([line.rsplit(",", 1)[0] for line in lines],
                   Path(paths["report"]).read_bytes(), Path(paths["bounds"]).read_bytes())
    assert runs[10_000] == runs[10_000_000]
    lines = runs[10_000][0]
    rows = len(lines) - 1 - lines.index(",".join(CSV_COLUMNS[:-1]))
    assert rows == reference_solution(problem_from_descriptor(SYNTH_DESC),
                                      tol=1e-10).iterations < 10_000


def test_batch_report_keys_name_the_reference_once(tmp_path):
    paths = run_experiment(_cfg(algorithm="batch", out=str(tmp_path / "run"), T=50))
    report = json.loads(Path(paths["report"]).read_text())
    assert set(report) == {"algorithm", "eps", "iterations", "f_star", "final_gap",
                           "checked", "reference", "ok"}
    assert set(report["reference"]) == {"f", "gap", "iterations", "residual"}


REFERENCE_KEYS = {"tol", "x_star", "reference_gap", "reference_iterations",
                  "reference_residual"}


@pytest.mark.parametrize(
    "algorithm, fixed_step, extra",
    [
        ("oupgm", False, REFERENCE_KEYS | {"fixed_step"}),
        ("oudgm", False, REFERENCE_KEYS | {"fixed_step"}),
        ("oupgm", True, REFERENCE_KEYS | {"fixed_step", "Mv", "v"}),
        ("oudgm", True, REFERENCE_KEYS | {"fixed_step", "Mv", "v"}),
        ("sug", False, REFERENCE_KEYS | {"M", "dist0_sq", "f_final"}),
        ("batch", False, REFERENCE_KEYS),
    ],
    ids=["oupgm", "oudgm", "oupgm-fixed", "oudgm-fixed", "sug", "batch"],
)
def test_trace_header_carries_the_run_metadata(tmp_path, algorithm, fixed_step, extra):
    desc = dict(SYNTH_DESC, ridge=20.0)
    paths = run_experiment(_cfg(algorithm=algorithm, problem=desc, fixed_step=fixed_step,
                                M=1.0, T=20, order="cyclic", seed=9,
                                out=str(tmp_path / "run")))
    header = {}
    for line in Path(paths["trace"]).read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = json.loads(value)
    assert header["problem"] == desc
    assert header["seed"] == 9
    assert header["order"] == (None if algorithm == "batch" else "cyclic")
    assert set(header["extra"]) == extra
    # the keys check_bounds requires are the ones the run writes
    runs = ["every", algorithm] + ["fixed_step"] * fixed_step
    assert {key for run in runs for key in harness.EXTRA_KEYS.get(run, ())} == extra


def test_check_bounds_needs_problem_metadata(tmp_path):
    trace = RunTrace(algorithm="oupgm", eps=0.1, T=0, x0=np.zeros(1), L0=1.0)
    trace.add_row(0, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, component=0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with pytest.raises(ValueError, match="descriptor"):
        check_bounds(path)


# ---------------------------------------------------------------------------
# the stored reference: check-bounds re-certifies it instead of solving again

STEINER_DESC = {"kind": "steiner", "p": 3, "m": 8, "seed": 2}

CHECKED_RUNS = pytest.mark.parametrize(
    "algorithm, fixed_step, desc",
    [
        ("oupgm", False, SYNTH_DESC),
        ("oudgm", False, SYNTH_DESC),
        ("oupgm", True, SYNTH_DESC),
        ("oudgm", True, SYNTH_DESC),
        ("oudgm", False, STEINER_DESC),
        ("sug", False, dict(SYNTH_DESC, ridge=20.0)),
        ("batch", False, SYNTH_DESC),
    ],
    ids=["oupgm", "oudgm", "oupgm-fixed", "oudgm-fixed", "oudgm-steiner", "sug", "batch"],
)


def _count_solves(monkeypatch) -> list:
    """Count the reference solves check_bounds makes from now on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return reference_solution(*args, **kwargs)

    monkeypatch.setattr(harness, "reference_solution", counted)
    return calls


def _checked_run(tmp_path, algorithm, fixed_step, desc):
    return run_experiment(_cfg(algorithm=algorithm, fixed_step=fixed_step, problem=desc,
                               M=1.0, T=40, seed=5, out=str(tmp_path / "run")))


@CHECKED_RUNS
def test_check_bounds_re_certifies_the_stored_reference(tmp_path, monkeypatch, algorithm,
                                                        fixed_step, desc):
    paths = _checked_run(tmp_path, algorithm, fixed_step, desc)
    calls = _count_solves(monkeypatch)
    rep = _recheck(paths)
    assert calls == []
    extra = parse_trace_csv(paths["trace"]).extra_meta
    assert rep["reference"] == {
        "f": rep["f_star"],
        "gap": extra["reference_gap"],
        "iterations": extra["reference_iterations"],
        "residual": extra["reference_residual"],
    }


@CHECKED_RUNS
def test_check_bounds_solves_again_when_the_stored_x_star_certifies_worse(
        tmp_path, monkeypatch, algorithm, fixed_step, desc):
    """x* moved off the optimum certifies worse on the rebuilt problem than
    the run's reference did: check-bounds judges the trace against one new
    solve at the stored tol, which reaches the run's verdict."""
    paths = _checked_run(tmp_path, algorithm, fixed_step, desc)
    report = json.loads(Path(paths["report"]).read_text())
    trace = parse_trace_csv(paths["trace"])
    trace.extra_meta["x_star"] = [v + 0.5 for v in trace.extra_meta["x_star"]]
    write_trace_csv(trace, paths["trace"])
    fresh = reference_solution(problem_from_descriptor(desc), tol=trace.extra_meta["tol"])
    calls = _count_solves(monkeypatch)
    rep, ok = check_bounds(paths["trace"])
    assert len(calls) == 1
    assert rep["f_star"] == fresh.f
    assert rep["reference"] == {"f": fresh.f, "gap": fresh.gap,
                                "iterations": fresh.iterations, "residual": fresh.residual}
    assert (ok, rep["checked"]) == (report["ok"], report["checked"])


def _csv_run_then_edit(tmp_path):
    """A lasso-csv run whose data file then has its last observation moved
    by 5.0; (descriptor, artifact paths)."""
    inst = synth_lasso(p=3, n=40, sparsity=1, noise=0.1, seed=6)
    path = tmp_path / "d.csv"
    save_samples(inst, path)
    desc = {"kind": "lasso-csv", "path": str(path), "mu": 0.1, "ridge": 0.0}
    paths = run_experiment(_cfg(problem=desc, T=30, out=str(tmp_path / "run")))
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[0] = repr(float(fields[0]) + 5.0)  # the last sample's observation
    lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return desc, paths


def test_check_bounds_refuses_a_csv_that_changed(tmp_path, monkeypatch):
    desc, paths = _csv_run_then_edit(tmp_path)
    calls = _count_solves(monkeypatch)
    message = "^" + re.escape(desc["path"]) + ": data file changed since"
    with pytest.raises(ValueError, match=message):
        check_bounds(paths["trace"])
    assert calls == []


def test_check_bounds_refuses_a_csv_trace_without_the_data_sha256(tmp_path, monkeypatch):
    # without the run's sha256 no changed data file could be refused
    _, paths = _csv_run_then_edit(tmp_path)
    trace = parse_trace_csv(paths["trace"])
    del trace.extra_meta["data_sha256"]
    write_trace_csv(trace, paths["trace"])
    calls = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match=r": extra metadata key 'data_sha256' missing$"):
        check_bounds(paths["trace"])
    assert calls == []


def test_sug_verdict_measures_gaps_from_the_certified_lower_bound(tmp_path):
    desc = dict(SYNTH_DESC, ridge=20.0)
    paths = run_experiment(_cfg(algorithm="sug", problem=desc, out=str(tmp_path / "run"),
                                eps=1e-2, T=100, M=1.0, seed=4))
    trace = parse_trace_csv(paths["trace"])
    problem = problem_from_descriptor(desc)
    true = reference_solution(problem, tol=1e-10)
    # an uncertified reference: x* pushed off the optimum, so f_ref > f*
    x = true.x + 0.1
    planted = ReferenceSolution(x=x, f=problem.value(x), iterations=1, residual=0.0,
                                gap=problem.certify(x)[1], steps=[])
    assert planted.f > true.f + 10.0 * trace.eps
    report, (_, _, gaps, bounds) = verify(trace, problem, planted)
    # measured from f_ref alone, every gap would sit under its bound ...
    assert all(gap <= bound for gap, bound in zip(gaps, bounds))
    # ... but measured from the certified lower bound f_ref - gap <= f*,
    # the run is judged against a value at or below f*, and fails
    assert report["bound_satisfied"] is False and report["ok"] is False
    assert json.loads(Path(paths["report"]).read_text())["ok"] is True


# ---------------------------------------------------------------------------
# committed golden runs: check-bounds keeps their verdicts, and run_experiment
# replays their trace, report and bound curve

GOLDEN = sorted((Path(__file__).parent / "data").glob("*/trace.csv"))


@pytest.mark.parametrize("path", GOLDEN, ids=[p.parent.name for p in GOLDEN])
def test_check_bounds_keeps_the_verdicts_of_golden_traces(path):
    report, ok = check_bounds(path)
    saved = json.loads((path.parent / "report.json").read_text())
    assert (ok, report["checked"]) == (saved["ok"], saved["checked"])
    satisfied = [key for key in saved if key.endswith("_satisfied")]
    assert {key: report[key] for key in satisfied} == {key: saved[key] for key in satisfied}


def _without_elapsed(path):
    """The trace file's lines with each data row's last field, elapsed_s,
    cut off."""
    lines = Path(path).read_text().splitlines()
    header = lines.index(",".join(CSV_COLUMNS))
    return lines[:header + 1] + [line.rpartition(",")[0] for line in lines[header + 1:]]


def _assert_report_matches(got, want, where="report"):
    """Same keys, same strings, ints and verdicts; floats within 1e-14 relative."""
    assert sorted(got) == sorted(want), where
    for key, value in want.items():
        if isinstance(value, dict):
            _assert_report_matches(got[key], value, f"{where}.{key}")
        elif isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-14, abs=0.0), f"{where}.{key}"
        else:
            assert (type(got[key]), got[key]) == (type(value), value), f"{where}.{key}"


@pytest.mark.parametrize("path", GOLDEN, ids=[p.parent.name for p in GOLDEN])
def test_golden_runs_replay_from_their_metadata(path, tmp_path):
    """run_experiment, given the configuration the trace's metadata records,
    writes the same trace (all but elapsed_s), the same bound curve and the
    same report: every verdict exact, every float within 1e-14 relative."""
    meta = parse_trace_csv(path)
    extra = meta.extra_meta
    paths = run_experiment(RunConfig(
        algorithm=meta.algorithm, problem=meta.problem_meta, out=str(tmp_path),
        eps=meta.eps, T=meta.T, L0=1.0 if meta.L0 is None else meta.L0,
        M=extra.get("M"), order=meta.order_kind or "random", seed=meta.seed,
        fixed_step=extra.get("fixed_step", False), holder_modulus=extra.get("Mv"),
        holder_degree=extra.get("v"), tol=extra["tol"], dist0_sq=extra.get("dist0_sq"),
    ))
    assert _without_elapsed(paths["trace"]) == _without_elapsed(path)
    golden_bounds = path.parent / "bounds.csv"
    if golden_bounds.exists():
        assert Path(paths["bounds"]).read_bytes() == golden_bounds.read_bytes()
    _assert_report_matches(json.loads(Path(paths["report"]).read_text()),
                           json.loads((path.parent / "report.json").read_text()))


@pytest.mark.parametrize("bounds", [
    [1.0, math.inf, np.float64(0.1), -math.inf, 3, math.inf],
    [1.0, 2.5, np.float64(0.1), 1e-300, 3, 0.0],
    [math.inf] * 6,
    None,
], ids=["mixed", "finite", "infinite", "none"])
def test_bound_curve_writes_each_bound_and_leaves_infinite_ones_empty(bounds, tmp_path):
    gaps = [0.5, 0.25, 0.0, -0.0, np.float64(1e-300), 2]
    harness._write_bound_curve(tmp_path / "bounds.csv", ("gap", range(1, 7), gaps, bounds))
    texts = [""] * 6 if bounds is None else [
        repr(float(b)) if math.isfinite(b) else "" for b in bounds]
    want = [f"{k},{float(g)!r},{b}" for k, g, b in zip(range(1, 7), gaps, texts)]
    assert (tmp_path / "bounds.csv").read_text() == "\n".join(["k,gap,bound", *want]) + "\n"


@pytest.mark.parametrize("algorithm, kw", [
    ("oupgm", {}), ("oudgm", {}), ("oupgm", {"fixed_step": True}),
    ("sug", {"problem": dict(SYNTH_DESC, ridge=20.0), "M": 1.0}), ("batch", {}),
], ids=["oupgm", "oudgm", "fixed-step", "sug", "batch"])
def test_elapsed_s_is_a_whole_number_of_nanoseconds(algorithm, kw, tmp_path):
    """elapsed_s is read from the nanosecond counter: every value is a count
    of nanoseconds in seconds, and it never decreases."""
    paths = run_experiment(_cfg(algorithm=algorithm, out=str(tmp_path), T=60, **kw))
    elapsed = parse_trace_csv(paths["trace"]).elapsed_s
    assert len(elapsed) > 1
    assert all(e == round(e * 1e9) / 1e9 for e in elapsed.tolist())
    assert (np.diff(elapsed) >= 0).all()


def test_verify_refuses_an_algorithm_it_does_not_know():
    """No trace passes as a batch run for want of a known name."""
    trace = parse_trace_csv(GOLDEN[0])
    problem = problem_from_descriptor(trace.problem_meta)
    reference = reference_solution(problem)
    trace.algorithm = "oupgmx"
    with pytest.raises(ValueError, match="^unknown algorithm 'oupgmx'$"):
        verify(trace, problem, reference)


def test_golden_sug_bound_curve_is_written_byte_for_byte(tmp_path):
    golden = Path(__file__).parent / "data" / "sug"
    trace = parse_trace_csv(golden / "trace.csv")
    problem = problem_from_descriptor(trace.problem_meta)
    x = np.asarray(trace.extra_meta["x_star"], dtype=float)
    reference = ReferenceSolution(x=x, f=problem.value(x), iterations=0, residual=0.0,
                                  gap=problem.certify(x)[1], steps=[])
    _, curve = verify(trace, problem, reference)
    harness._write_bound_curve(tmp_path / "bounds.csv", curve)
    assert (tmp_path / "bounds.csv").read_bytes() == (golden / "bounds.csv").read_bytes()
