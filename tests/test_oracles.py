"""Component oracles, regularizers, and composite problem assembly."""

import math

import numpy as np
import pytest

from unigrad.oracles import BLOCK_BYTES, ComponentOracle, Regularizer
from unigrad.problems import (
    LassoInstance,
    SteinerInstance,
    lasso_problem,
    steiner_problem,
    synth_lasso,
)


def _single_lasso(a, b, l1_weight=0.0):
    inst = LassoInstance(A=np.array([a], dtype=float), b=np.array([b], dtype=float),
                         l1_weight=l1_weight)
    return lasso_problem(inst)


def test_composite_value_single_sample():
    prob = _single_lasso([1.0, 0.0], 0.0)
    assert prob.value(np.array([2.0, 0.0])) == pytest.approx(4.0)


def test_composite_value_with_l1():
    prob = _single_lasso([1.0, 0.0], 0.0, l1_weight=1.0)
    assert prob.value(np.array([2.0, 0.0])) == pytest.approx(6.0)


def test_composite_value_steiner_midpoint():
    prob = steiner_problem(SteinerInstance(centers=np.array([[0.0, 0.0], [2.0, 0.0]])))
    assert prob.value(np.array([1.0, 0.0])) == pytest.approx(1.0)


def _round_value(prob, t, x):
    """g_t(x) + h(x), the round objective the online methods record."""
    return prob.components.value(t, x) + prob.regularizer.value(x)


def test_per_sample_value_without_regularizer_is_component_value():
    centers = np.array([[0.0, 0.0], [2.0, 0.0]])
    prob = steiner_problem(SteinerInstance(centers=centers))
    x = np.array([1.0, 3.0])
    for t in range(2):
        assert _round_value(prob, t, x) == pytest.approx(
            float(np.linalg.norm(x - centers[t]))
        )


def test_per_sample_value_includes_regularizer():
    prob = _single_lasso([1.0, 1.0], 1.0, l1_weight=0.5)
    assert _round_value(prob, 0, np.array([1.0, 0.0])) == pytest.approx(0.5)


def test_per_sample_mean_equals_composite_value():
    inst = synth_lasso(p=6, n=9, sparsity=2, noise=0.2, seed=7, l1_weight=0.3)
    prob = lasso_problem(inst)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(size=6)
        mean = np.mean([_round_value(prob, t, x) for t in range(prob.n_components)])
        assert mean == pytest.approx(prob.value(x), rel=1e-12)


def test_component_subgradient_lasso():
    prob = _single_lasso([1.0, 0.0], 0.0)
    got = prob.components.grad(0, np.array([3.0, 0.0]))
    np.testing.assert_allclose(got, np.array([6.0, 0.0]))


def test_component_subgradient_steiner_unit_direction():
    prob = steiner_problem(SteinerInstance(centers=np.array([[0.0, 0.0]])))
    got = prob.components.grad(0, np.array([3.0, 4.0]))
    np.testing.assert_allclose(got, np.array([0.6, 0.8]))


def test_component_subgradient_steiner_zero_at_center():
    prob = steiner_problem(SteinerInstance(centers=np.array([[1.0, -1.0]])))
    got = prob.components.grad(0, np.array([1.0, -1.0]))
    np.testing.assert_array_equal(got, np.zeros(2))


def test_component_convexity_and_linearization_error_bounds():
    """Each component is convex and the linearization error respects its
    stated Holder constants: |g(x) - g(y) - <grad(y), x - y>| bounded by
    (M_v / (1 + v)) ||x - y||^(1 + v)."""
    lasso = lasso_problem(synth_lasso(p=4, n=6, sparsity=2, noise=0.5, seed=1))
    steiner = steiner_problem(
        SteinerInstance(centers=np.random.default_rng(2).normal(size=(5, 4)))
    )
    rng = np.random.default_rng(3)
    for prob in (lasso, steiner):
        comp = prob.components
        v, Mv = comp.holder_degree, comp.holder_modulus
        for i in range(comp.n):
            for _ in range(100):
                x = rng.normal(size=4) * 2.0
                y = rng.normal(size=4) * 2.0
                gap = comp.value(i, x) - comp.value(i, y) - float(comp.grad(i, y) @ (x - y))
                assert gap >= -1e-10
                bound = (Mv / (1.0 + v)) * float(np.linalg.norm(x - y)) ** (1.0 + v)
                assert abs(gap) <= bound + 1e-9 * (1.0 + bound)


def test_lasso_gradient_holder_condition_is_tight():
    rng = np.random.default_rng(4)
    a = rng.normal(size=5)
    prob = _single_lasso(a, 1.3)
    comp = prob.components
    Mv = comp.holder_modulus
    assert Mv == pytest.approx(2.0 * float(a @ a))
    for _ in range(500):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        lhs = float(np.linalg.norm(comp.grad(0, x) - comp.grad(0, y)))
        assert lhs <= Mv * float(np.linalg.norm(x - y)) + 1e-10


def test_steiner_subgradients_live_in_unit_ball():
    prob = steiner_problem(
        SteinerInstance(centers=np.random.default_rng(5).normal(size=(6, 3)))
    )
    rng = np.random.default_rng(6)
    comp = prob.components
    assert comp.holder_degree == 0.0
    assert comp.holder_modulus == 2.0
    for i in range(comp.n):
        for _ in range(100):
            x = rng.normal(size=3) * 3.0
            y = rng.normal(size=3) * 3.0
            assert float(np.linalg.norm(comp.grad(i, x))) <= 1.0 + 1e-12
            diff = float(np.linalg.norm(comp.grad(i, x) - comp.grad(i, y)))
            assert diff <= comp.holder_modulus + 1e-12


def _batch_lasso():
    inst = synth_lasso(p=5, n=40, sparsity=2, noise=0.2, seed=1)
    # (|a_i|'|x| + |b_i|)^2 bounds every partial sum of g_i(x) = (a_i'x - b_i)^2
    scale = lambda idx, x, _: (np.abs(inst.A[idx]) @ np.abs(x) + np.abs(inst.b[idx])) ** 2
    return lasso_problem(inst), scale


def _batch_steiner():
    inst = SteinerInstance(centers=np.random.default_rng(2).normal(size=(30, 5)))
    return steiner_problem(inst), lambda idx, x, values: values


@pytest.mark.parametrize("family", [_batch_lasso, _batch_steiner], ids=["lasso", "steiner"])
@pytest.mark.parametrize("length", [0, 7, BLOCK_BYTES // (8 * 5) + 9],
                         ids=["empty", "short", "past-one-block"])
def test_batched_values_match_per_component_values(family, length):
    """values(idx, x) is value(i, x) at each index, repeats included, to a
    few ulp of each component's scale: the batched form sums the same
    products in another order."""
    problem, scale = family()
    comp = problem.components
    rng = np.random.default_rng(3)
    x = rng.normal(size=5)
    # every component once when there is room, then repeats
    idx = np.concatenate([np.arange(comp.n), rng.integers(0, comp.n, size=length)])[:length]
    batched = comp.values(idx, x)
    assert batched.shape == (length,)
    single = np.array([comp.value(int(i), x) for i in idx])
    tol = 4 * (5 + 1) * np.finfo(float).eps * scale(idx, x, single)
    assert np.all(np.abs(batched - single) <= tol)


def test_component_oracle_validates_holder_metadata():
    ok = lambda i, x: 0.0
    okg = lambda i, x: np.zeros(2)
    okv = lambda idx, x: np.zeros(len(idx))
    with pytest.raises(ValueError):
        ComponentOracle(value=ok, grad=okg, values=okv, n=1, holder_degree=1.5, holder_modulus=1.0)
    with pytest.raises(ValueError):
        ComponentOracle(value=ok, grad=okg, values=okv, n=1, holder_degree=0.5, holder_modulus=0.0)
    with pytest.raises(ValueError, match="at least one component"):
        ComponentOracle(value=ok, grad=okg, values=okv, n=0, holder_degree=0.5, holder_modulus=1.0)


def test_regularizer_l1_value_and_prox():
    h = Regularizer(0.5)
    x = np.array([1.0, -2.0, 0.0])
    assert h.value(x) == pytest.approx(1.5)
    np.testing.assert_allclose(h.prox(np.array([2.0, -0.2]), 2.0),
                               np.array([1.0, 0.0]))


def test_regularizer_zero():
    h = Regularizer()
    z = np.array([1.5, -3.0])
    assert h.value(z) == 0.0
    assert h.strong_convexity == 0.0
    np.testing.assert_array_equal(h.prox(z, 10.0), z)


def test_regularizer_elastic_net_prox_and_curvature():
    mu, sigma = 0.5, 2.0
    h = Regularizer(mu, sigma)
    assert h.strong_convexity == sigma
    z = np.array([3.0, -0.2, 1.0])
    tau = 0.5
    want = np.sign(z) * np.maximum(np.abs(z) - tau * mu, 0.0) / (1.0 + tau * sigma)
    np.testing.assert_allclose(h.prox(z, tau), want)
    assert h.value(z) == pytest.approx(mu * np.abs(z).sum() + 0.5 * sigma * float(z @ z))


def test_regularizer_prox_solves_its_own_subproblem():
    """prox(z, tau) minimizes 0.5 ||y - z||^2 + tau h(y): compare against a
    dense grid in one dimension."""
    rng = np.random.default_rng(9)
    grid = np.linspace(-5.0, 5.0, 200001)
    for h in (Regularizer(0.7), Regularizer(0.3, 1.1)):
        for _ in range(5):
            z = rng.normal() * 2.0
            tau = float(rng.uniform(0.1, 2.0))
            got = h.prox(np.array([z]), tau)[0]
            vals = 0.5 * (grid - z) ** 2
            vals += tau * (h.l1_weight * np.abs(grid)
                           + 0.5 * h.ridge_weight * grid ** 2)
            best = float(vals.min())
            mine = 0.5 * (got - z) ** 2 + tau * h.value(np.array([got]))
            assert mine <= best + 1e-8


def test_regularizer_strong_convexity_inequality():
    h = Regularizer(0.4, 1.5)
    rng = np.random.default_rng(10)
    for _ in range(200):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        s = h.ridge_weight * x + h.l1_weight * np.sign(x)
        lhs = h.value(y)
        rhs = (h.value(x) + float(s @ (y - x))
               + 0.5 * h.strong_convexity * float((y - x) @ (y - x)))
        assert lhs >= rhs - 1e-9


@pytest.mark.parametrize("tau", [0.0, 0.8])
@pytest.mark.parametrize("l1, ridge", [(0.0, 0.0), (0.6, 0.0), (0.0, 1.5), (0.6, 1.5)])
def test_regularizer_weights_at_and_above_zero(l1, ridge, tau):
    h = Regularizer(l1, ridge)
    z = np.array([2.0, -1.25, 0.3, -0.0, 0.0, -0.4, 7.5])
    want = [math.copysign(max(abs(v) - tau * l1, 0.0), v) / (1.0 + tau * ridge) for v in z]
    got = h.prox(z, tau)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    X = np.stack([z, -2.0 * z, np.zeros_like(z)])
    want_values = [l1 * sum(abs(v) for v in x) + 0.5 * ridge * sum(v * v for v in x)
                   for x in X]
    np.testing.assert_allclose(h.values(X), want_values, rtol=1e-15, atol=0.0)
    for x, want_value in zip(X, want_values):
        assert h.value(x) == pytest.approx(want_value, rel=1e-15, abs=0.0)
    assert h.strong_convexity == ridge
    if l1 == ridge == 0.0:
        # h = 0: the prox hands back a copy of its input, bit for bit
        assert got.tobytes() == z.tobytes() and not np.shares_memory(got, z)
        assert h.value(z) == 0.0 and h.values(X).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("weight", [-0.1, np.nan, np.inf])
@pytest.mark.parametrize("field", ["l1_weight", "ridge_weight"])
def test_regularizer_rejects_negative_and_non_finite_weights(field, weight):
    with pytest.raises(ValueError, match=f"{field} must be nonnegative and finite"):
        Regularizer(**{field: weight})


def test_regularizer_rejects_negative_tau():
    with pytest.raises(ValueError):
        Regularizer(1.0).prox(np.zeros(2), -0.1)


def test_holder_constants_take_worst_modulus():
    inst = synth_lasso(p=3, n=5, sparsity=1, noise=0.0, seed=11)
    prob = lasso_problem(inst)
    v, Mv = prob.holder_constants()
    assert v == 1.0
    # bit for bit: the fixed-step modulus gamma(M_v, v, eps) reads it
    assert Mv == max(2.0 * float(a @ a) for a in inst.A)


def test_composite_value_rejects_dimension_mismatch():
    prob = _single_lasso([1.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        prob.value(np.zeros(3))
