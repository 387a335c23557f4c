"""Effective modulus, Bregman mapping, line-search primitive, descent test."""

import numpy as np
import pytest

from helpers import ModelSolveError, bregman_map_numeric, model_value
from unigrad.bregman import (
    LineSearchOverflow,
    backtrack,
    bregman_map,
    gamma,
    _descent_ok,
)
from unigrad.geometry import ProxFunction
from unigrad.oracles import Regularizer, soft_threshold
from unigrad.problems import LassoInstance, lasso_problem


def check_descent_condition(oracle, x, x_hat, M, eps, geometry):
    """The online rounds' descent test for component 0 of oracle, with g
    and its gradient read at x."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    return _descent_ok(float(oracle.value(0, x)), np.asarray(oracle.grad(0, x), dtype=float),
                       float(oracle.value(0, x_hat)), x, x_hat, M, eps, geometry)


def _lasso_oracle(a, b):
    """The oracle of the one-sample stream g_0(x) = (a'x - b)^2."""
    inst = LassoInstance(A=np.array([a], dtype=float), b=np.array([b], dtype=float))
    return lasso_problem(inst).components


# ---------------------------------------------------------------------------
# gamma


def test_gamma_lipschitz_degree_returns_modulus():
    assert gamma(3.0, 1.0, 0.37) == pytest.approx(3.0)
    assert gamma(3.0, 1.0, 123.0) == pytest.approx(3.0)


def test_gamma_nonsmooth_degree():
    assert gamma(2.0, 0.0, 0.5) == pytest.approx(8.0)


def test_gamma_intermediate_degree():
    got = gamma(2.0, 0.5, 0.1)
    # 10^(1/3) * 2^(4/3), high-precision value
    assert got == pytest.approx(5.4288352331898135, rel=1e-13)
    assert got == pytest.approx(5.42880, abs=1e-4)


def test_gamma_validates_inputs():
    with pytest.raises(ValueError):
        gamma(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        gamma(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        gamma(1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        gamma(1.0, -0.1, 1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps"):
            gamma(1.0, 0.5, bad)
        with pytest.raises(ValueError, match="holder_modulus"):
            gamma(bad, 0.5, 1.0)
        with pytest.raises(ValueError, match="holder_degree"):
            gamma(1.0, bad, 1.0)


# ---------------------------------------------------------------------------
# soft_threshold


def test_soft_threshold_scalar_cases():
    np.testing.assert_allclose(soft_threshold(np.array([3.0]), 1.0), [2.0])
    np.testing.assert_allclose(soft_threshold(np.array([-0.5]), 1.0), [0.0])


def test_soft_threshold_zero_tau_is_identity():
    z = np.array([2.0, -2.0])
    np.testing.assert_array_equal(soft_threshold(z, 0.0), z)


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        soft_threshold(np.zeros(2), -1.0)


# ---------------------------------------------------------------------------
# bregman_map


def test_bregman_map_unregularized_gradient_step():
    x = np.array([1.0, 1.0])
    got = bregman_map(Regularizer(), x, np.array([2.0, 0.0]), 2.0)
    np.testing.assert_allclose(got, np.array([0.0, 1.0]))


def test_bregman_map_one_dim_lasso_shrinks_to_zero():
    comp = _lasso_oracle([1.0], 0.0)
    x = np.array([1.0])
    got = bregman_map(Regularizer(0.1), x, comp.grad(0, x), 2.0)
    np.testing.assert_allclose(got, np.array([0.0]))


def test_bregman_map_steiner_step():
    x = np.array([3.0, 4.0])
    grad = np.array([0.6, 0.8])
    got = bregman_map(Regularizer(), x, grad, 1.0)
    np.testing.assert_allclose(got, np.array([2.4, 3.2]))


def test_bregman_map_model_value_identity():
    """The model value at the mapped point is no larger than at any point
    near it."""
    geom = ProxFunction(3)
    h = Regularizer(0.3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=3)
        g_val = float(rng.uniform(0.0, 2.0))
        g_grad = rng.normal(size=3)
        M = float(rng.uniform(0.5, 4.0))
        xh = bregman_map(h, x, g_grad, M)
        psi = model_value(geom, h, x, g_val, g_grad, M, xh)
        for _ in range(20):
            y = xh + 1e-3 * rng.normal(size=3)
            assert psi <= model_value(geom, h, x, g_val, g_grad, M, y) + 1e-12


def test_bregman_map_minimizer_beats_grid():
    """The mapped point minimizes the model: compare against a dense 1-d grid."""
    geom = ProxFunction(1)
    h = Regularizer(0.25)
    grid = np.linspace(-2.0, 2.0, 400001)
    x = np.array([1.0])
    g_val, g_grad, M = 1.0, np.array([2.0]), 2.0
    xh = bregman_map(h, x, g_grad, M)
    psi = model_value(geom, h, x, g_val, g_grad, M, xh)
    model = (g_val + g_grad[0] * (grid - x[0]) + 0.5 * M * (grid - x[0]) ** 2
             + 0.25 * np.abs(grid))
    assert psi <= float(model.min()) + 1e-9


def test_bregman_map_numeric_matches_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(50):
        dim = int(rng.integers(1, 6))
        geom = ProxFunction(dim)
        h = Regularizer(float(rng.uniform(0.0, 1.0)))
        x = rng.normal(size=dim)
        g_val = float(rng.uniform(0.0, 3.0))
        g_grad = rng.normal(size=dim)
        M = float(rng.uniform(0.2, 5.0))
        closed = bregman_map(h, x, g_grad, M)
        numeric = bregman_map_numeric(geom, h, x, g_val, g_grad, M)
        np.testing.assert_allclose(numeric.minimizer, closed, atol=1e-8)
        psi = model_value(geom, h, x, g_val, g_grad, M, closed)
        assert numeric.psi_star == pytest.approx(psi, abs=1e-8)


def test_bregman_map_numeric_reports_residual_on_failure():
    geom = ProxFunction(2)
    x = np.array([5.0, -5.0])
    with pytest.raises(ModelSolveError) as err:
        bregman_map_numeric(geom, Regularizer(), x, 0.0,
                            np.array([4.0, 4.0]), 1.0, max_iters=1)
    assert err.value.residual > 0.0


# ---------------------------------------------------------------------------
# backtrack


def test_backtrack_accept_first_try_halves_modulus():
    trial = lambda M: (("cand", M), True)
    i, L_next, cand = backtrack(4.0, trial)
    assert i == 0
    assert L_next == pytest.approx(2.0)
    assert cand == ("cand", 4.0)


def test_backtrack_returns_smallest_accepted_doubling():
    accepted_at = 6.0  # accept once M reaches 8 = 2^3 * 1

    def trial(M):
        return M, M >= accepted_at

    i, L_next, cand = backtrack(1.0, trial)
    assert i == 3
    assert cand == 8.0
    assert L_next == pytest.approx(4.0)


def test_backtrack_overflow_after_64_doublings():
    calls = []

    def trial(M):
        calls.append(M)
        return None, False

    with pytest.raises(LineSearchOverflow):
        backtrack(1.0, trial)
    assert len(calls) == 65
    assert calls[-1] == pytest.approx(2.0 ** 64)


def test_backtrack_rejects_nonpositive_start():
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="initial_L"):
            backtrack(bad, lambda M: (None, True))


def test_backtrack_with_descent_trial_respects_modulus_cap():
    """Starting from a tiny modulus, the accepted modulus never exceeds the
    accuracy-matched cap 2 * gamma(M_v, eps)."""
    rng = np.random.default_rng(2)
    geom = ProxFunction(3)
    h = Regularizer(0.1)
    eps = 1e-2
    for _ in range(20):
        a = rng.normal(size=3)
        comp = _lasso_oracle(a, float(rng.normal()))
        cap = gamma(comp.holder_modulus, comp.holder_degree, eps)
        x = rng.normal(size=3)

        def trial(M, comp=comp, x=x):
            y = bregman_map(h, x, comp.grad(0, x), M)
            return y, check_descent_condition(comp, x, y, M, eps, geom)

        i, L_next, _ = backtrack(1e-6, trial)
        assert 2.0 * L_next <= 2.0 * cap * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# check_descent_condition


def test_descent_trivially_true_at_same_point():
    geom = ProxFunction(2)
    comp = _lasso_oracle([1.0, -2.0], 0.5)
    x = np.array([0.3, 0.4])
    for M in (1e-6, 1.0, 1e6):
        assert check_descent_condition(comp, x, x, M, 1e-9, geom)


def test_descent_equality_case_at_curvature():
    comp = _lasso_oracle([1.0], 0.0)  # g(x) = x^2, curvature 2
    geom = ProxFunction(1)
    x = np.array([1.0])
    xhat = np.array([0.0])
    assert check_descent_condition(comp, x, xhat, 2.0, 0.0, geom)


def test_descent_fails_below_curvature():
    comp = _lasso_oracle([1.0], 0.0)
    geom = ProxFunction(1)
    x = np.array([1.0])
    xhat = np.array([0.0])
    assert not check_descent_condition(comp, x, xhat, 1.9, 0.0, geom)


# ---------------------------------------------------------------------------
# scalar and smoothness inequalities behind the line search (small smoke
# versions; the full randomized suites run in the acceptance tests)


def test_scalar_inequality_above_effective_modulus():
    rng = np.random.default_rng(3)
    for _ in range(500):
        v = float(rng.uniform(0.0, 1.0))
        Mv = float(rng.uniform(0.1, 5.0))
        eps = float(rng.uniform(1e-3, 1.0))
        M = gamma(Mv, v, eps) * (1.0 + float(rng.uniform(0.01, 10.0)))
        t = float(rng.uniform(0.0, 10.0))
        lhs = (Mv / (1.0 + v)) * t ** (1.0 + v)
        rhs = 0.5 * M * t * t + 0.5 * eps
        assert lhs <= rhs + 1e-12


def test_smooth_upper_bound_above_effective_modulus():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = rng.normal(size=4)
        comp = _lasso_oracle(a, float(rng.normal()))
        eps = float(rng.uniform(1e-3, 1.0))
        M = gamma(comp.holder_modulus, comp.holder_degree, eps) * 1.5
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        lhs = comp.value(0, y)
        rhs = (comp.value(0, x) + float(comp.grad(0, x) @ (y - x))
               + 0.5 * M * float((y - x) @ (y - x)) + 0.5 * eps)
        assert lhs <= rhs + 1e-12
