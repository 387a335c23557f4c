"""Effective modulus, Bregman mapping, and the line search of the round
loop: its doublings, its descent test, its cap and its overflow."""

import numpy as np
import pytest

from helpers import ModelSolveError, bregman_map_numeric, model_value
from unigrad.bregman import MAX_DOUBLINGS, LineSearchOverflow, bregman_map, gamma
from unigrad.geometry import ProxFunction
from unigrad.oracles import ComponentOracle, CompositeProblem, Regularizer, soft_threshold
from unigrad.problems import LassoInstance, lasso_problem
from unigrad.udgm import udgm_run
from unigrad.upgm import upgm_run

RUNNERS = (upgm_run, udgm_run)


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
# backtracking: the doublings M = 2^i L_t of the round loop


def _square(a):
    """The one-sample stream g_0(x) = (a x)^2 on the line, curvature 2 a^2,
    with h = 0."""
    return lasso_problem(LassoInstance(A=np.array([[a]]), b=np.array([0.0])))


def _first_round(runner, prob, x0, L0, eps=1e-12):
    """(i_0, L_1) of round 0 of runner from x0."""
    _, trace = runner(prob, np.array([0]), np.array([x0]), L0, eps, 0)
    return trace.i_t[0], trace.L_next[0]


def test_backtrack_accept_first_try_halves_modulus():
    """From L0 = 64 on g = 4x^2 (curvature 8) every trial down to M = 8
    passes at once; that one steps to the minimizer 0, where the trial
    point is the point itself, so every later trial passes too and each
    round halves L."""
    T = 6
    for runner in RUNNERS:
        _, trace = runner(_square(2.0), np.zeros(T + 1, dtype=int), np.array([1.0]),
                          64.0, 1e-12, T)
        assert np.array_equal(trace.i_t, [0] * (T + 1))
        assert np.array_equal(trace.L_next, [64.0 / 2.0 ** (t + 1) for t in range(T + 1)])


def test_backtrack_returns_smallest_accepted_doubling():
    """From x = 1 on g = 4x^2 the trials M = 1, 2, 4 fail and M = 8 passes:
    i = 3, L_next = M / 2 = 4."""
    for runner in RUNNERS:
        assert _first_round(runner, _square(2.0), 1.0, 1.0) == (3, 4.0)


def _never_descends(trials, dim=2):
    """A stream whose one component is 0 at the origin and 1 everywhere
    else, with gradient ones: from x = 0 every trial point y = -1/M lies
    above the descent bound 0 - dim/(2M) + eps/2 for eps < 2.  Each value
    read away from the origin is counted in trials."""

    def value(i, x):
        if x.any():
            trials.append(None)
            return 1.0
        return 0.0

    return CompositeProblem(
        components=ComponentOracle(
            value=value,
            grad=lambda i, x: np.ones(dim),
            values=lambda idx, x: np.array([value(i, x) for i in idx]),
            n=1,
            holder_degree=1.0,
            holder_modulus=1.0,
        ),
        regularizer=Regularizer(),
        dimension=dim,
        mean_value_fn=lambda x: float(x.any()),
        mean_grad_fn=lambda x: np.ones(dim),
        mean_values_fn=lambda X: X.any(axis=1).astype(float),
        certify_fn=lambda x: (float(x.any()), 0.0),
    )


def test_backtrack_overflow_after_64_doublings():
    """Both adaptive runners raise after exactly 65 trials M = 2^i L_0,
    i = 0..64, all rejected."""
    message = (r"no accepted modulus after 64 doublings from L = 1\.0; "
               "check the oracle's Holder certificate and the geometry")
    for runner in RUNNERS:
        trials = []
        with pytest.raises(LineSearchOverflow, match=message):
            runner(_never_descends(trials), np.array([0, 0]), np.zeros(2), 1.0, 1e-2, 1)
        assert len(trials) == MAX_DOUBLINGS + 1 == 65


def test_backtrack_rejects_nonpositive_start():
    for runner in RUNNERS:
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="L0 must be positive and finite"):
                _first_round(runner, _square(1.0), 1.0, bad)


def test_backtrack_with_descent_trial_respects_modulus_cap():
    """Starting from a tiny modulus, the accepted modulus never exceeds the
    accuracy-matched cap 2 * gamma(M_v, eps)."""
    rng = np.random.default_rng(2)
    eps = 1e-2
    for runner in RUNNERS:
        for _ in range(20):
            inst = LassoInstance(A=rng.normal(size=(1, 3)), b=rng.normal(size=1),
                                 l1_weight=0.1)
            prob = lasso_problem(inst)
            cap = gamma(prob.components.holder_modulus, prob.components.holder_degree, eps)
            _, trace = runner(prob, np.zeros(6, dtype=int), rng.normal(size=3), 1e-6, eps, 5)
            assert max(trace.i_t) > 0
            assert 2.0 * max(trace.L_next) <= 2.0 * cap * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# the descent test g(y) <= g(x) + <grad g(x), y - x> + M dist(x, y) + eps/2,
# read from the trial the round loop accepts


def test_descent_trivially_true_at_same_point():
    """At a stationary point of g with h = 0 the trial point is the point
    itself, and the test holds at every modulus."""
    for runner in RUNNERS:
        for L0 in (1e-6, 1.0, 1e6):
            assert _first_round(runner, _square(1.0), 0.0, L0) == (0, 0.5 * L0)


def test_descent_equality_case_at_curvature():
    """g = x^2 (curvature 2) from x = 1: the trial M = 2 steps to 0, where
    g equals its model, and passes with slack eps / 2 = 5e-13."""
    for runner in RUNNERS:
        assert _first_round(runner, _square(1.0), 1.0, 2.0) == (0, 1.0)


def test_descent_fails_below_curvature():
    """The trial M = 1.9 below the curvature 2 fails; the doubling 3.8 passes."""
    for runner in RUNNERS:
        assert _first_round(runner, _square(1.0), 1.0, 1.9) == (1, 1.9)


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
