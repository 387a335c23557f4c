"""Adaptive and fixed-step primal online runs."""

import dataclasses

import numpy as np
import pytest

from unigrad.bregman import gamma
from unigrad.harness import evaluate_regret, reference_solution, sample_order
from helpers import regret_holds, zero_problem
from unigrad.oracles import Regularizer, soft_threshold
from unigrad.problems import (
    LassoInstance,
    SteinerInstance,
    lasso_problem,
    steiner_problem,
    synth_lasso,
    synth_steiner,
)
from unigrad.upgm import upgm_fixed_step_run, upgm_run


def test_step_on_zero_objective_keeps_point_and_halves_modulus():
    prob = zero_problem()
    xbar, trace = upgm_run(prob, np.array([0]), np.array([1.0, -2.0]), 4.0, 1e-2, 0)
    assert np.array_equal(trace.i_t, [0])
    assert trace.L_next[0] == pytest.approx(2.0)
    np.testing.assert_array_equal(trace.x_next[0], np.array([1.0, -2.0]))
    np.testing.assert_array_equal(xbar, np.array([1.0, -2.0]))


def test_step_one_dim_quadratic_equality_case():
    """g(x) = x^2 from x = 1 with L = 2: the first trial modulus matches the
    curvature exactly, so i = 0 is accepted and the step lands at 0."""
    inst = LassoInstance(A=np.array([[1.0]]), b=np.array([0.0]))
    prob = lasso_problem(inst)
    _, trace = upgm_run(prob, np.array([0]), np.array([1.0]), 2.0, 1e-12, 0)
    assert np.array_equal(trace.i_t, [0])
    np.testing.assert_allclose(trace.x_next[0], np.array([0.0]), atol=1e-15)
    assert trace.L_next[0] == pytest.approx(1.0)


def test_step_rejects_nonpositive_eps():
    prob = zero_problem()
    with pytest.raises(ValueError, match="eps"):
        upgm_run(prob, np.array([0]), np.zeros(2), 1.0, 0.0, 0)


def test_state_requires_positive_modulus():
    prob = zero_problem()
    for L0 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="L0"):
            upgm_run(prob, np.array([0]), np.zeros(2), L0, 1e-2, 0)


@pytest.mark.parametrize("runner", [upgm_run, upgm_fixed_step_run])
@pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
def test_non_finite_eps_fails_before_any_oracle_call(runner, eps):
    prob = lasso_problem(synth_lasso(p=3, n=10, sparsity=1, noise=0.1, seed=0))

    def refuse(i, x):
        raise AssertionError("oracle called")

    prob.components = dataclasses.replace(prob.components, value=refuse, grad=refuse)
    args = (1.0, eps) if runner is upgm_run else (eps,)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        runner(prob, np.arange(5) % 10, np.zeros(3), *args, 4)


def test_accepted_moduli_capped_on_nonsmooth_stream():
    """Steiner components have degree 0 and modulus 2, so with eps = 0.1 no
    accepted modulus 2 L_next may exceed 2 gamma(2, 0.1) = 80."""
    prob = steiner_problem(synth_steiner(p=4, m=12, seed=0))
    order = sample_order("random", 12, 300, seed=1)
    _, trace = upgm_run(prob, order, np.zeros(4), 1.0, 0.1, 300)
    assert max(2.0 * L for L in trace.L_next) <= 80.0 * (1.0 + 1e-12)


def test_run_zero_rounds_returns_start_point():
    prob = zero_problem()
    xbar, trace = upgm_run(prob, np.array([0]), np.array([3.0, 4.0]), 1.0, 1e-2, 0)
    np.testing.assert_array_equal(xbar, np.array([3.0, 4.0]))
    assert trace.n_rows == 1


def test_run_satisfies_aggregate_bound_on_lasso_stream():
    prob = lasso_problem(synth_lasso(p=8, n=501, sparsity=3, noise=0.1, seed=2,
                                     l1_weight=0.1))
    order = sample_order("sequential", 501, 500, seed=None)
    _, trace = upgm_run(prob, order, np.zeros(8), 1.0, 1e-3, 500)
    ref = reference_solution(prob, tol=1e-10)
    _, lhs, rhs = evaluate_regret(trace, prob, ref.x, "thm1")
    assert regret_holds(lhs, rhs)


def test_run_is_deterministic():
    prob = lasso_problem(synth_lasso(p=5, n=40, sparsity=2, noise=0.3, seed=3,
                                     l1_weight=0.2))
    order = sample_order("random", 40, 100, seed=4)
    xa, ta = upgm_run(prob, order, np.zeros(5), 1.0, 1e-2, 100)
    xb, tb = upgm_run(prob, order, np.zeros(5), 1.0, 1e-2, 100)
    np.testing.assert_array_equal(xa, xb)
    assert ta.L_next.tobytes() == tb.L_next.tobytes()
    assert ta.f_full.tobytes() == tb.f_full.tobytes()


def test_duplicated_component_stream_matches_single_component_stream():
    """Two identical components visited alternately behave exactly like one
    component visited every round."""
    a, b = np.array([[0.7, -1.2]]), np.array([0.4])
    single = lasso_problem(LassoInstance(A=a, b=b, l1_weight=0.1))
    double = lasso_problem(
        LassoInstance(A=np.vstack([a, a]), b=np.concatenate([b, b]), l1_weight=0.1)
    )
    T = 30
    x0 = np.array([2.0, -1.0])
    xs, ts = upgm_run(single, np.zeros(T + 1, dtype=int), x0, 1.0, 1e-2, T)
    alternating = np.arange(T + 1) % 2
    xd, td = upgm_run(double, alternating, x0, 1.0, 1e-2, T)
    np.testing.assert_array_equal(xs, xd)
    assert ts.L_next.tobytes() == td.L_next.tobytes()
    assert ts.f_gt_xnext.tobytes() == td.f_gt_xnext.tobytes()


def test_weighted_average_uses_inverse_moduli():
    prob = lasso_problem(synth_lasso(p=4, n=20, sparsity=2, noise=0.2, seed=5))
    order = np.arange(26) % 20
    xbar, trace = upgm_run(prob, order, np.zeros(4), 1.0, 1e-2, 25)
    weights = 1.0 / np.asarray(trace.L_next)
    iterates = np.asarray(trace.x_next)
    want = (weights[:, None] * iterates).sum(axis=0) / weights.sum()
    np.testing.assert_allclose(xbar, want, rtol=1e-12, atol=1e-14)


def test_order_must_cover_every_round():
    prob = zero_problem()
    with pytest.raises(ValueError):
        upgm_run(prob, np.array([0, 0]), np.zeros(2), 1.0, 1e-2, 2)


def test_order_indices_validated():
    prob = zero_problem()
    with pytest.raises(ValueError):
        upgm_run(prob, np.array([0, 5]), np.zeros(2), 1.0, 1e-2, 1)


def test_fixed_step_records_constant_modulus():
    prob = lasso_problem(synth_lasso(p=4, n=30, sparsity=2, noise=0.1, seed=6,
                                     l1_weight=0.05))
    v, Mv = prob.holder_constants()
    eps = 1e-2
    order = sample_order("random", 30, 50, seed=7)
    _, trace = upgm_fixed_step_run(prob, order, np.zeros(4), eps, 50)
    step = gamma(Mv, v, eps)
    assert all(L == pytest.approx(step, rel=1e-15) for L in trace.L_next)
    assert trace.L0 is None
    assert trace.extra_meta == {}


def test_fixed_step_is_constant_step_proximal_gradient():
    """With degree-1 components the fixed-step run is plain proximal gradient
    with modulus 2 gamma: replay the recursion by hand."""
    inst = synth_lasso(p=3, n=15, sparsity=1, noise=0.2, seed=8, l1_weight=0.1)
    prob = lasso_problem(inst)
    v, Mv = prob.holder_constants()
    eps = 5e-2
    T = 20
    order = np.arange(T + 1) % 15
    _, trace = upgm_fixed_step_run(prob, order, np.zeros(3), eps, T)
    M = 2.0 * gamma(Mv, v, eps)
    x = np.zeros(3)
    for t in range(T + 1):
        x = soft_threshold(x - prob.components.grad(int(order[t]), x) / M,
                           inst.l1_weight / M)
        np.testing.assert_allclose(trace.x_next[t], x, rtol=1e-12, atol=1e-14)
