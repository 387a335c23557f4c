"""Surrogate table bookkeeping, subproblem, run loop, and bound evaluators."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import (
    l1_optimality_residual,
    sug_bound,
    surrogate_average,
    surrogate_lin,
    surrogate_value,
)
from unigrad.bregman import gamma
from unigrad.oracles import NonFiniteOracleValue, Regularizer
from unigrad.problems import (
    LassoInstance,
    SteinerInstance,
    lasso_problem,
    steiner_problem,
    synth_lasso,
)
from unigrad.sug import (
    sug_init,
    sug_iteration_estimate,
    sug_rho,
    sug_run,
    sug_subproblem,
    sug_update,
)


def _quadratic_problem(n=1, p=3, seed=0, l1_weight=0.0, ridge_weight=0.0):
    inst = synth_lasso(p=p, n=n, sparsity=min(p, 2), noise=0.3, seed=seed,
                       l1_weight=l1_weight, ridge_weight=ridge_weight)
    return lasso_problem(inst)


# ---------------------------------------------------------------------------
# table construction and updates


def test_init_single_component_matches_definition():
    prob = _quadratic_problem(n=1, p=3)
    x0 = np.array([0.5, -1.0, 2.0])
    M = 4.0
    table = sug_init(prob, x0, M)
    comp = prob.components
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=3)
        want = (comp.value(0, x0) + float(comp.grad(0, x0) @ (x - x0))
                + 0.5 * M * float((x - x0) @ (x - x0)))
        assert surrogate_average(table, x) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_init_aggregates_match_direct_average():
    """M x + lin / n is the gradient of the surrogate average G^k."""
    prob = _quadratic_problem(n=7, p=4, seed=2)
    x0 = np.ones(4)
    table = sug_init(prob, x0, 3.0)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.normal(size=4) * 2.0
        direct = np.mean([table.grads[i] + table.M * (x - table.anchors[i])
                          for i in range(7)], axis=0)
        np.testing.assert_allclose(table.M * x + table.lin / table.n, direct,
                                   rtol=1e-10, atol=1e-10)


def test_init_aggregates_equal_from_scratch():
    prob = _quadratic_problem(n=5, p=3, seed=4)
    table = sug_init(prob, np.zeros(3), 2.0)
    assert table.M == 2.0
    np.testing.assert_array_equal(table.lin, surrogate_lin(table))


def test_init_rejects_nonpositive_modulus():
    prob = _quadratic_problem(n=2, p=2, seed=5)
    for M in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="modulus"):
            sug_init(prob, np.zeros(2), M)


def test_update_with_same_anchor_is_idempotent():
    prob = _quadratic_problem(n=4, p=3, seed=6)
    x0 = np.array([1.0, 0.0, -1.0])
    table = sug_init(prob, x0, 2.0)
    lin_before = table.lin.copy()
    sug_update(table, 2, x0)
    np.testing.assert_array_equal(table.lin, lin_before)


def test_updates_keep_aggregates_consistent():
    prob = _quadratic_problem(n=6, p=4, seed=7)
    table = sug_init(prob, np.zeros(4), 1.5)
    rng = np.random.default_rng(8)
    for k in range(500):
        sug_update(table, int(rng.integers(0, 6)), rng.normal(size=4) * 2.0)
    np.testing.assert_allclose(table.lin, surrogate_lin(table), rtol=1e-10, atol=1e-10)


def test_update_leaves_other_rows_untouched():
    prob = _quadratic_problem(n=3, p=2, seed=9)
    table = sug_init(prob, np.zeros(2), 1.0)
    sug_update(table, 1, np.array([2.0, -2.0]))
    row1_anchor = table.anchors[1].copy()
    row1_grad = table.grads[1].copy()
    sug_update(table, 0, np.array([5.0, 5.0]))
    np.testing.assert_array_equal(table.anchors[1], row1_anchor)
    np.testing.assert_array_equal(table.grads[1], row1_grad)


def test_update_validates_index():
    prob = _quadratic_problem(n=2, p=2, seed=10)
    table = sug_init(prob, np.zeros(2), 1.0)
    with pytest.raises(IndexError):
        sug_update(table, 2, np.zeros(2))
    with pytest.raises(IndexError):
        sug_update(table, -1, np.zeros(2))


# ---------------------------------------------------------------------------
# subproblem


def test_subproblem_single_component_gradient_step():
    prob = _quadratic_problem(n=1, p=3, seed=11)
    x0 = np.array([1.0, 2.0, -0.5])
    M = 5.0
    table = sug_init(prob, x0, M)
    got = sug_subproblem(table, Regularizer())
    want = x0 - prob.components.grad(0, x0) / M
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_subproblem_scalar_l1_case():
    """Modulus M = 2, w = 1 with h = 0.5 |x|: minimizer shrink(-1/2, 1/4)."""
    inst = LassoInstance(A=np.array([[1.0]]), b=np.array([-0.5]))
    prob = lasso_problem(inst)
    # anchor 0 with M = 2: gradient 2(0 + 0.5) = 1, so lin = 1
    table = sug_init(prob, np.zeros(1), 2.0)
    np.testing.assert_allclose(table.lin, np.array([1.0]))
    got = sug_subproblem(table, Regularizer(0.5))
    np.testing.assert_allclose(got, np.array([-0.25]))


def test_subproblem_satisfies_first_order_optimality():
    prob = _quadratic_problem(n=5, p=4, seed=12, l1_weight=0.3, ridge_weight=0.7)
    table = sug_init(prob, np.ones(4), 2.5)
    rng = np.random.default_rng(13)
    for _ in range(20):
        sug_update(table, int(rng.integers(0, 5)), rng.normal(size=4))
        x = sug_subproblem(table, prob.regularizer)
        # gradient of G^k + ridge term, from the per-component state
        surrogate_grad = np.mean(table.grads + table.M * (x - table.anchors), axis=0)
        smooth_grad = surrogate_grad + prob.regularizer.ridge_weight * x
        res = l1_optimality_residual(smooth_grad, x, prob.regularizer.l1_weight)
        assert res <= 1e-9


# ---------------------------------------------------------------------------
# run loop


def test_run_monotone_on_single_component_with_ridge():
    prob = _quadratic_problem(n=1, p=3, seed=14, l1_weight=0.1, ridge_weight=1.0)
    v, Mv = prob.holder_constants()
    _, trace = sug_run(prob, np.array([3.0, -3.0, 3.0]), 1.1 * Mv, 1e-3, 60, 0)
    f = np.asarray(trace.f_full)
    assert np.all(f[1:] <= f[:-1] + 1e-12 * (1.0 + np.abs(f[:-1])))


def test_run_seed_determinism():
    prob = _quadratic_problem(n=8, p=3, seed=15, l1_weight=0.1, ridge_weight=2.0)
    xa, ta = sug_run(prob, np.zeros(3), 1.0, 1e-2, 80, 21)
    xb, tb = sug_run(prob, np.zeros(3), 1.0, 1e-2, 80, 21)
    np.testing.assert_array_equal(xa, xb)
    assert ta.f_full.tobytes() == tb.f_full.tobytes()
    assert ta.component.tobytes() == tb.component.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 2**33 + 5])
def test_block_draws_are_the_stream_of_scalar_draws(n):
    """sug_run draws its components a block at a time.  numpy does not
    promise stable streams (NEP 19), so this pins what the sug traces rely
    on: a block of k draws gives the values of k scalar draws and leaves
    the generator in the same state, odd k included."""
    block, scalar = np.random.default_rng(5), np.random.default_rng(5)
    for k in (1, 3, 64, 1000):
        want = [int(scalar.integers(0, n)) for _ in range(k)]
        assert block.integers(0, n, size=k).tolist() == want
        assert block.bit_generator.state == scalar.bit_generator.state


def test_run_samples_the_scalar_stream_of_its_seed():
    prob = _quadratic_problem(n=7, p=3, seed=15, l1_weight=0.1, ridge_weight=2.0)
    _, trace = sug_run(prob, np.zeros(3), 1.0, 1e-2, 99, 21)
    rng = np.random.default_rng(21)
    assert np.array_equal(trace.component, [int(rng.integers(0, 7)) for _ in range(99)])


@pytest.mark.parametrize(
    "value_fn, message",
    [
        # NaN from x0 on: sug_init reads gradients only, so the first read
        # is in round 1, the first round that samples component 1
        (lambda x: np.nan, "component 1 returned nan at round 1"),
        # finite at x0 = 0, infinite at every later iterate
        (lambda x: np.inf if np.any(x != 0) else 1.0,
         r"component 1 returned inf at round [0-9]+"),
    ],
    ids=["at-init", "after-init"],
)
def test_run_non_finite_component_names_iteration_and_component(value_fn, message):
    prob = _quadratic_problem(n=3, p=2, seed=20, ridge_weight=1.0)
    good = prob.components.value
    prob.components = dataclasses.replace(
        prob.components, value=lambda i, x: value_fn(x) if i == 1 else good(i, x)
    )
    with pytest.raises(NonFiniteOracleValue, match=message):
        sug_run(prob, np.zeros(2), 2.0, 1e-2, 50, 0)


@pytest.mark.parametrize("shape", [(1,), (4,)], ids=["short", "long"])
def test_run_bad_gradient_shape_names_iteration_component_and_shapes(shape):
    prob = _quadratic_problem(n=3, p=3, seed=20, ridge_weight=1.0)
    good = prob.components.grad
    prob.components = dataclasses.replace(
        prob.components, grad=lambda i, x: np.ones(shape) if i == 1 else good(i, x)
    )
    message = (rf"component 1 returned a gradient of shape \({shape[0]},\) at round 0; "
               r"the point has shape \(3,\)")
    with pytest.raises(ValueError, match=message):
        sug_run(prob, np.zeros(3), 2.0, 1e-2, 10, 0)
    # past initialization: the bad shape appears only away from x0
    prob.components = dataclasses.replace(
        prob.components,
        grad=lambda i, x: np.ones(shape) if i == 1 and np.any(x != 0) else good(i, x),
    )
    with pytest.raises(ValueError, match=r"component 1 returned a gradient of shape "
                                         rf"\({shape[0]},\) at round [0-9]+"):
        sug_run(prob, np.zeros(3), 2.0, 1e-2, 10, 0)


def test_run_trace_schema_for_sampled_rounds():
    prob = _quadratic_problem(n=5, p=2, seed=17, ridge_weight=1.0)
    _, trace = sug_run(prob, np.zeros(2), 2.0, 1e-2, 10, 1)
    assert trace.algorithm == "sug"
    assert np.array_equal(trace.i_t, [0] * 10)
    assert all(L == 2.0 for L in trace.L_next)
    assert trace.extra_meta["M"] == 2.0
    assert all(0 <= c < 5 for c in trace.component)


# ---------------------------------------------------------------------------
# surrogate upper bound on the true objective


def test_surrogates_overestimate_smooth_part_near_kink():
    """Degree-0 components genuinely need the eps/4 slack: anchored just off
    a distance kink, the worst case sits at step 2/M on the far side, where
    the gap approaches eps/4 from below once M exceeds 8/eps."""
    eps = 1e-1
    M = 1.01 * gamma(2.0, 0.0, eps / 2.0)  # just above 8 / eps
    c = np.array([1.0, -2.0])
    prob = steiner_problem(SteinerInstance(centers=np.array([c])))
    u = np.array([1.0, 0.0])
    r = 1e-6
    anchor = c + r * u
    table = sug_init(prob, anchor, M)
    x = c - (2.0 / M) * u
    gap = prob.mean_smooth_value(x) - surrogate_average(table, x)
    assert 0.0 < gap <= eps / 4.0
    assert gap > eps / 5.0


def test_surrogates_overestimate_smooth_part_globally_for_quadratics():
    prob = _quadratic_problem(n=6, p=4, seed=18)
    v, Mv = prob.holder_constants()
    eps = 1e-2
    M = 1.01 * gamma(Mv, v, eps / 2.0)
    table = sug_init(prob, np.zeros(4), M)
    rng = np.random.default_rng(19)
    for k in range(300):
        sug_update(table, int(rng.integers(0, 6)), rng.normal(size=4) * 2.0)
        if k % 50 == 0:
            x = rng.normal(size=4) * 3.0
            assert prob.mean_smooth_value(x) <= surrogate_average(table, x) + eps / 4.0 + 1e-12


# ---------------------------------------------------------------------------
# bound evaluators


def test_rho_formula():
    assert sug_rho(1.0, 2.0, 1) == pytest.approx(0.5)
    assert sug_rho(1.0, 10.0, 4) == pytest.approx(0.25 * 0.1 + 0.75)
    with pytest.raises(ValueError):
        sug_rho(1.0, 0.0, 3)


def test_bound_first_iterate_has_no_geometric_term():
    M, mu_h, n, eps, d0 = 2.0, 5.0, 3, 1e-2, 7.0
    assert sug_bound(1, M, mu_h, n, eps, d0) == pytest.approx(M * d0 + 0.75 * eps)


def test_bound_arithmetic_single_component():
    M, mu_h, eps, d0 = 1.0, 2.0, 1e-2, 2.0
    want = (M * 0.25 * d0
            + (3.0 * eps / (4.0 * mu_h)) * (1.0 - 0.25) / 0.5
            + 0.75 * eps)
    assert sug_bound(3, M, mu_h, 1, eps, d0) == pytest.approx(want, rel=1e-14)


def test_bound_vacuous_when_contraction_fails():
    assert math.isinf(sug_bound(5, 2.0, 2.0, 1, 1e-2, 1.0))
    assert math.isinf(sug_bound(5, 3.0, 2.0, 1, 1e-2, 1.0))


def test_bound_validates_inputs():
    with pytest.raises(ValueError):
        sug_bound(0, 1.0, 2.0, 1, 1e-2, 1.0)
    with pytest.raises(ValueError):
        sug_bound(1, 1.0, -2.0, 1, 1e-2, 1.0)
    with pytest.raises(ValueError):
        sug_bound(1, 1.0, 2.0, 1, 0.0, 1.0)


def test_iteration_estimate_undefined_cases():
    # rho >= 1
    assert sug_iteration_estimate(2.0, 1.0, 3, 1e-2, 1.0) is None
    # log argument nonpositive: mu_h - M = 1 makes the leading factor negative
    assert sug_iteration_estimate(1.0, 2.0, 2, 1e-2, 1.0) is None


def test_iteration_estimate_cross_checks_against_bound():
    for M, mu_h, n, eps, d0, want_k in (
        (0.01, 10.0, 2, 1e-3, 4.0, 9),
        (1.0, 20.0, 4, 1e-2, 25.0, 36),
    ):
        k = sug_iteration_estimate(M, mu_h, n, eps, d0)
        assert k == want_k
        assert sug_bound(k, M, mu_h, n, eps, d0) <= eps


def test_config_validation():
    """sug_run refuses a bad M, eps or T before it reads any oracle."""
    prob = _quadratic_problem(n=2, p=2)
    x0 = np.zeros(2)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="M must be"):
            sug_run(prob, x0, bad, 1e-2, 10, 0)
        with pytest.raises(ValueError, match="eps must be"):
            sug_run(prob, x0, 1.0, bad, 10, 0)
    with pytest.raises(ValueError, match="T must be"):
        sug_run(prob, x0, 1.0, 1e-2, 0, 0)
