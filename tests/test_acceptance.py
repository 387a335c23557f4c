"""Acceptance battery: ten contract-level properties, one test per criterion.

Criteria 2-4 consume the session-scoped battery of 80 online runs built in
conftest.py (2 families x 2 algorithms x 10 seeds x 2 accuracy levels).
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import (
    bregman_map_numeric,
    check_dual_target_bound,
    evaluate_regret,
    lasso_batch_bregman_step,
    lasso_bregman_step,
    lasso_dual_average,
    regret_holds,
    steiner_batch_bregman_step,
    steiner_bregman_step,
    steiner_dual_average,
    sug_bound,
    surrogate_average,
    surrogate_lin,
)
from unigrad.bregman import gamma
from unigrad.cli import main
from unigrad.geometry import ProxFunction as squared_euclidean
from unigrad.harness import (
    RunConfig,
    reference_solution,
    run_experiment,
    sample_order,
)
from unigrad.oracles import Regularizer
from unigrad.problems import (
    LassoInstance,
    lasso_problem,
    steiner_problem,
    synth_lasso,
    synth_steiner,
)
from unigrad.sug import (
    sug_init,
    sug_iteration_estimate,
    sug_rho,
    sug_run,
    sug_update,
)
from unigrad.trace import parse_trace_csv
from unigrad.udgm import udgm_fixed_step_run
from unigrad.upgm import upgm_fixed_step_run


def test_criterion_01_effective_modulus_inequalities():
    """Above the effective modulus, both slack inequalities hold pointwise:
    the scalar power bound and the quadratic-plus-eps/2 upper model."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    N = 10_000
    for family in ("lasso", "steiner"):
        eps = 10.0 ** rng.uniform(-3.0, 0.0, size=N)
        u = 10.0 ** rng.uniform(-2.0, 1.0, size=N)
        t = rng.uniform(0.0, 10.0, size=N)
        x = 3.0 * rng.normal(size=(N, 5))
        y = 3.0 * rng.normal(size=(N, 5))
        if family == "lasso":
            a = rng.normal(size=(N, 5))
            b = rng.normal(size=N)
            v = 1.0
            Mv = 2.0 * np.einsum("ij,ij->i", a, a)
            rx = np.einsum("ij,ij->i", a, x) - b
            g_x = rx * rx
            ry = np.einsum("ij,ij->i", a, y) - b
            g_y = ry * ry
            inner = 2.0 * rx * np.einsum("ij,ij->i", a, y - x)
        else:
            c = rng.normal(size=(N, 5))
            v = 0.0
            Mv = np.full(N, 2.0)
            dx = x - c
            nx = np.linalg.norm(dx, axis=1)
            g_x = nx
            g_y = np.linalg.norm(y - c, axis=1)
            inner = np.einsum("ij,ij->i", dx / nx[:, None], y - x)
        gam = (1.0 / eps) ** ((1.0 - v) / (1.0 + v)) * Mv ** (2.0 / (1.0 + v))
        # keep the vectorized modulus tied to the library's scalar definition
        for i in range(0, N, N // 4):
            assert gam[i] == pytest.approx(gamma(float(Mv[i]), v, float(eps[i])),
                                           rel=1e-13)
        M = gam * (1.0 + u)

        lhs_scalar = Mv / (1.0 + v) * t ** (1.0 + v)
        rhs_scalar = 0.5 * M * t * t + 0.5 * eps
        assert np.all(lhs_scalar <= rhs_scalar + 1e-12)

        d2 = np.einsum("ij,ij->i", y - x, y - x)
        rhs_model = g_x + inner + 0.5 * M * d2 + 0.5 * eps
        assert np.all(g_y <= rhs_model + 1e-12)
    assert time.perf_counter() - start < 10.0


def test_criterion_02_line_search_modulus_cap(online_battery):
    assert online_battery.build_seconds < 30.0
    assert len(online_battery.runs) == 80
    for run in online_battery.runs:
        v, Mv = run.problem.holder_constants()
        cap = gamma(Mv, v, run.eps)
        assert 2.0 * max(run.trace.L_next) <= 2.0 * cap, (
            f"{run.family}/{run.algorithm} seed {run.seed} eps {run.eps}"
        )


def test_line_search_trial_count_identity(online_battery):
    """L_{t+1} = 2^(i_t - 1) L_t makes the trial count exact over the whole
    run: sum_t (i_t + 1) = 2 (T + 1) + log2(L_{T+1} / L0)."""
    for run in online_battery.runs:
        trace = run.trace
        doublings = math.log2(trace.L_next[-1] / trace.L0)
        trials = sum(i + 1 for i in trace.i_t)
        assert doublings == int(doublings)
        assert trials == 2 * (trace.T + 1) + int(doublings), (
            f"{run.family}/{run.algorithm} seed {run.seed} eps {run.eps}"
        )


def test_criterion_03_weighted_regret_bound_primal(online_battery, battery_reports):
    assert len(battery_reports) == 80
    for run, ledger in zip(online_battery.runs, battery_reports):
        _, lhs, rhs = ledger["thm1"]
        assert regret_holds(lhs, rhs), (
            f"{run.family}/{run.algorithm} seed {run.seed} eps {run.eps}: "
            f"lhs {lhs[-1]} rhs {rhs[-1]}"
        )


def test_criterion_04_weighted_regret_bound_dual(online_battery, battery_reports):
    dual = [
        (run, ledger["thm2"])
        for run, ledger in zip(online_battery.runs, battery_reports)
        if run.algorithm == "oudgm"
    ]
    assert len(dual) == 40
    for run, (_, lhs, rhs) in dual:
        assert regret_holds(lhs, rhs), (
            f"{run.family} seed {run.seed} eps {run.eps}: "
            f"lhs {lhs[-1]} rhs {rhs[-1]}"
        )
        ok, worst = check_dual_target_bound(run.trace, run.problem)
        assert ok, (
            f"{run.family} seed {run.seed} eps {run.eps}: "
            f"prefix model bound violated by {worst:.3e}"
        )


def test_criterion_05_fixed_step_regret_corollaries():
    """Fixed-step runs with the accuracy schedule eps = T^(-(1+v)/2) stay
    inside R <= (eps/2)(T+1) + 2 r0 gamma at T in {100, 1000, 10000}, and
    so at every prefix; the primal reading uses the accepted iterates, the
    dual the visited ones."""
    for family in ("lasso", "steiner"):
        if family == "lasso":
            problem = lasso_problem(
                synth_lasso(p=20, n=100, sparsity=5, noise=0.1, seed=3,
                            l1_weight=0.1)
            )
        else:
            problem = steiner_problem(synth_steiner(p=5, m=50, seed=3))
        v, Mv = problem.holder_constants()
        ref = reference_solution(problem, tol=1e-10)
        for T in (100, 1000, 10000):
            eps = float(T) ** (-(1.0 + v) / 2.0)
            order = sample_order("random", problem.n_components, T, 11)
            x0 = np.zeros(problem.dimension)
            runs = (
                ("oupgm", upgm_fixed_step_run),
                ("oudgm", udgm_fixed_step_run),
            )
            for algorithm, runner in runs:
                _, trace = runner(problem, order, x0, eps, T)
                r0, lhs, rhs = evaluate_regret(trace, problem, ref.x, eps,
                                               f"{algorithm} corollary")
                assert rhs[-1] == pytest.approx(
                    0.5 * eps * (T + 1) + 2.0 * r0 * gamma(Mv, v, eps), rel=1e-12)
                assert regret_holds(lhs, rhs), (
                    f"{family}/{algorithm} T={T}: regret {lhs[-1]} bound {rhs[-1]}"
                )


def test_criterion_06_sug_linear_rate():
    """With sigma = 10 M the contraction is strict; the seed-mean gap stays
    under the geometric bound and every seed reaches eps within the
    iteration estimate."""
    start = time.perf_counter()
    base = synth_lasso(p=10, n=20, sparsity=3, noise=0.1, seed=0, l1_weight=0.1)
    M = 1.01 * max(2.0 * float(a @ a) for a in base.A)
    sigma = 10.0 * M
    problem = lasso_problem(
        LassoInstance(A=base.A, b=base.b, l1_weight=0.1, ridge_weight=sigma)
    )
    n = problem.n_components
    eps = 1e-2
    mu_h = problem.regularizer.strong_convexity
    assert sug_rho(M, mu_h, n) < 1.0
    ref = reference_solution(problem, tol=1e-10)
    x0 = 2.0 * np.ones(10)
    d0 = float(np.sum((x0 - ref.x) ** 2))
    est = sug_iteration_estimate(M, mu_h, n, eps, d0)
    assert est is not None
    budget = max(200, est)
    K = budget + 2
    gaps_by_seed = []
    for seed in range(20):
        x_fin, trace = sug_run(problem, x0, M, eps, K, seed)
        gaps = list(np.asarray(trace.f_full) - ref.f)
        gaps.append(problem.value(x_fin) - ref.f)
        hit = next((k for k, gp in enumerate(gaps) if gp <= eps), None)
        assert hit is not None and hit <= budget, (
            f"seed {seed}: gap did not reach {eps} within {budget} iterations"
        )
        gaps_by_seed.append(gaps)
    mean_gaps = np.asarray(gaps_by_seed).mean(axis=0)
    for k in range(1, 202):
        bound = sug_bound(k, M, mu_h, n, eps, d0)
        assert mean_gaps[k] <= bound + 1e-9 * (1.0 + abs(bound)), (
            f"k={k}: mean gap {mean_gaps[k]} exceeds {bound}"
        )
    assert time.perf_counter() - start < 60.0


def test_criterion_07_closed_forms_match_numeric_oracle():
    """Every shipped closed-form update agrees with the generic numeric
    model minimizer to 1e-8 across random low-dimensional instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(500):
        p = int(rng.integers(1, 6))
        geo = squared_euclidean(p)
        x = rng.normal(size=p)
        M = float(rng.uniform(0.5, 8.0))
        mu = float(rng.uniform(0.0, 1.0))
        h = Regularizer(mu)
        zero = Regularizer()

        a = rng.normal(size=p)
        b = float(rng.normal())
        r = float(a @ x) - b
        want = bregman_map_numeric(geo, h, x, r * r, 2.0 * r * a, M).minimizer
        np.testing.assert_allclose(lasso_bregman_step(x, a, b, M, mu), want,
                                   atol=1e-8)

        m = int(rng.integers(1, 6))
        A = rng.normal(size=(m, p))
        bb = rng.normal(size=m)
        res = A @ x - bb
        mval = float(res @ res) / m
        mgrad = (2.0 / m) * (A.T @ res)
        want = bregman_map_numeric(geo, h, x, mval, mgrad, M).minimizer
        np.testing.assert_allclose(lasso_batch_bregman_step(x, A, bb, M, mu),
                                   want, atol=1e-8)

        c = rng.normal(size=p)
        diff = x - c
        norm = float(np.linalg.norm(diff))
        want = bregman_map_numeric(geo, zero, x, norm, diff / norm, M).minimizer
        np.testing.assert_allclose(steiner_bregman_step(x, c, M), want,
                                   atol=1e-8)

        centers = rng.normal(size=(m, p))
        diffs = x - centers
        norms = np.linalg.norm(diffs, axis=1)
        dmean = (diffs / norms[:, None]).mean(axis=0)
        want = bregman_map_numeric(geo, zero, x, float(norms.mean()), dmean,
                                   M).minimizer
        np.testing.assert_allclose(steiner_batch_bregman_step(x, centers, M),
                                   want, atol=1e-8)

        # dual-model minimizers: anchor x0, aggregated gradient, modulus 1,
        # with the regularizer scaled by the aggregated coefficient sum
        k = int(rng.integers(1, 6))
        coeffs = rng.uniform(0.05, 1.0, size=k)
        x0 = rng.normal(size=p)
        grads = rng.normal(size=(k, p))
        h_agg = Regularizer(mu * float(coeffs.sum()))
        want = bregman_map_numeric(geo, h_agg, x0, 0.0, coeffs @ grads,
                                   1.0).minimizer
        np.testing.assert_allclose(lasso_dual_average(x0, coeffs, grads, mu),
                                   want, atol=1e-8)

        iterates = rng.normal(size=(k, p))
        cents = rng.normal(size=(k, p))
        dd = iterates - cents
        dirs = dd / np.linalg.norm(dd, axis=1)[:, None]
        want = bregman_map_numeric(geo, zero, x0, 0.0, coeffs @ dirs,
                                   1.0).minimizer
        np.testing.assert_allclose(
            steiner_dual_average(x0, coeffs, iterates, cents), want, atol=1e-8
        )
    assert time.perf_counter() - start < 30.0


def test_criterion_08_surrogate_bookkeeping_under_load():
    """The aggregate tracks the from-scratch recomputation through 10,000
    updates, and the averaged surrogate, computed from the per-component
    state, plus eps/4 stays above the smooth objective."""
    inst = synth_lasso(p=50, n=100, sparsity=10, noise=0.1, seed=8,
                       l1_weight=0.1)
    problem = lasso_problem(inst)
    v, Mv = problem.holder_constants()
    eps = 1e-1
    M = 1.01 * gamma(Mv, v, eps / 2.0)
    table = sug_init(problem, np.zeros(50), M)
    rng = np.random.default_rng(88)
    checkpoints = {1, 10, 100, 1000, 10000}
    for k in range(1, 10001):
        sug_update(table, int(rng.integers(0, 100)), 2.0 * rng.normal(size=50))
        if k in checkpoints:
            lin = surrogate_lin(table)
            np.testing.assert_allclose(
                table.lin, lin, rtol=1e-10,
                atol=1e-10 * float(np.abs(lin).max()),
            )
            for _ in range(100):
                xq = 2.0 * rng.normal(size=50)
                assert problem.mean_smooth_value(xq) <= surrogate_average(table, xq) + eps / 4.0


def test_criterion_09_trace_determinism_all_algorithms(tmp_path):
    """Equal seeds give byte-identical traces up to the wall-time column."""

    def strip_elapsed(text):
        lines = []
        for line in text.splitlines():
            if line.startswith("#") or line.startswith("t,"):
                lines.append(line)
            else:
                lines.append(line.rsplit(",", 1)[0])
        return "\n".join(lines)

    desc = {"kind": "synth-lasso", "p": 6, "n": 40, "sparsity": 2,
            "noise": 0.1, "seed": 5, "mu": 0.1, "ridge": 0.0}
    for algorithm in ("oupgm", "oudgm", "sug", "batch"):
        texts = []
        for attempt in ("a", "b"):
            cfg = RunConfig(
                algorithm=algorithm,
                problem=dict(desc),
                out=str(tmp_path / f"{algorithm}-{attempt}"),
                eps=1e-2,
                T=60,
                seed=12,
                M=1.0 if algorithm == "sug" else None,
            )
            run_experiment(cfg)
            texts.append(
                (tmp_path / f"{algorithm}-{attempt}" / "trace.csv").read_text()
            )
        assert strip_elapsed(texts[0]) == strip_elapsed(texts[1]), algorithm


def test_criterion_10_cli_end_to_end(tmp_path, monkeypatch, capsys):
    """The three documented invocations: a primal run with artifacts, a
    surrogate run whose bound curve dominates its error curve, and a
    validation failure that names the offending flag."""
    monkeypatch.chdir(tmp_path)

    code = main([
        "run", "--algorithm", "oupgm", "--problem", "synth-lasso",
        "--eps", "1e-2", "--T", "1000", "--seed", "7",
    ])
    assert code == 0
    out = tmp_path / "runs" / "oupgm"
    trace = parse_trace_csv(out / "trace.csv")
    assert trace.algorithm == "oupgm" and trace.n_rows == 1001
    report = json.loads((out / "report.json").read_text())
    for key in ("f_star", "r0", "fixed_step", "lhs", "rhs", "slack", "min_prefix_margin"):
        assert key in report
    assert (report["checked"], report["ok"]) == ("thm1", True)
    bound_lines = (out / "bounds.csv").read_text().strip().splitlines()
    assert bound_lines[0] == "k,lhs,bound"
    assert len(bound_lines) == 1002

    code = main([
        "run", "--algorithm", "sug", "--problem", "synth-lasso",
        "--ridge", "10", "--M", "1", "--eps", "1e-2",
    ])
    assert code == 0
    sug_out = tmp_path / "runs" / "sug"
    report = json.loads((sug_out / "report.json").read_text())
    assert report["rho"] is not None and report["rho"] < 1.0
    assert report["bound_satisfied"] is True
    rows = (sug_out / "bounds.csv").read_text().strip().splitlines()
    assert rows[0] == "k,gap,bound"
    for row in rows[1:]:
        _, gap_s, bound_s = row.split(",")
        assert bound_s != ""
        gap, bound = float(gap_s), float(bound_s)
        assert gap <= bound + 1e-9 * (1.0 + abs(bound))

    capsys.readouterr()
    code = main([
        "run", "--algorithm", "oupgm", "--problem", "synth-lasso",
        "--eps", "0",
    ])
    assert code != 0
    assert "eps" in capsys.readouterr().err
