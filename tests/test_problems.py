"""Problem families: instances, generators, CSV input, and the closed-form
round updates of tests/helpers.py against the generic mapping."""

import numpy as np
import pytest

from helpers import (
    lasso_batch_bregman_step,
    lasso_bregman_step,
    lasso_dual_average,
    save_samples,
    steiner_batch_bregman_step,
    steiner_bregman_step,
    steiner_dual_average,
)
from unigrad.bregman import bregman_map
from unigrad.oracles import soft_threshold
from unigrad.problems import (
    LassoInstance,
    SteinerInstance,
    lasso_problem,
    load_samples,
    steiner_problem,
    synth_lasso,
    synth_steiner,
)


# ---------------------------------------------------------------------------
# instances and generators


def test_lasso_instance_validation():
    with pytest.raises(ValueError, match="2-d"):
        LassoInstance(A=np.zeros(3), b=np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        LassoInstance(A=np.zeros((3, 2)), b=np.zeros(2))
    with pytest.raises(ValueError, match="nonnegative"):
        LassoInstance(A=np.zeros((2, 2)), b=np.zeros(2), l1_weight=-0.1)


def test_steiner_instance_validation():
    with pytest.raises(ValueError):
        SteinerInstance(centers=np.zeros(4))
    inst = SteinerInstance(centers=np.zeros((3, 2)))
    assert inst.m == 3 and inst.p == 2


def test_synth_lasso_shapes_and_determinism():
    a = synth_lasso(p=6, n=11, sparsity=2, noise=0.5, seed=42, l1_weight=0.2)
    b = synth_lasso(p=6, n=11, sparsity=2, noise=0.5, seed=42, l1_weight=0.2)
    assert a.A.shape == (11, 6) and a.b.shape == (11,)
    assert a.n == 11 and a.p == 6
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.b, b.b)
    np.testing.assert_array_equal(a.x_true, b.x_true)
    assert np.count_nonzero(a.x_true) == 2


def test_synth_lasso_zero_sparsity_and_zero_noise():
    inst = synth_lasso(p=4, n=9, sparsity=0, noise=0.0, seed=0)
    np.testing.assert_array_equal(inst.x_true, np.zeros(4))
    np.testing.assert_array_equal(inst.b, np.zeros(9))


def test_synth_lasso_validation():
    with pytest.raises(ValueError):
        synth_lasso(p=0, n=5, sparsity=0, noise=0.0, seed=0)
    with pytest.raises(ValueError):
        synth_lasso(p=3, n=5, sparsity=4, noise=0.0, seed=0)
    with pytest.raises(ValueError):
        synth_lasso(p=3, n=5, sparsity=1, noise=-0.1, seed=0)


def test_synth_steiner_shapes_and_determinism():
    a = synth_steiner(p=3, m=7, seed=1)
    b = synth_steiner(p=3, m=7, seed=1)
    c = synth_steiner(p=3, m=7, seed=2)
    assert a.centers.shape == (7, 3)
    np.testing.assert_array_equal(a.centers, b.centers)
    assert not np.array_equal(a.centers, c.centers)
    with pytest.raises(ValueError):
        synth_steiner(p=0, m=3, seed=0)


def test_problem_metadata():
    inst = synth_lasso(p=4, n=6, sparsity=1, noise=0.1, seed=3,
                       l1_weight=0.2, ridge_weight=0.3)
    lp = lasso_problem(inst)
    v, Mv = lp.holder_constants()
    assert v == 1.0
    assert Mv == pytest.approx(max(2.0 * float(a @ a) for a in inst.A))
    assert lp.regularizer.strong_convexity == 0.3
    sp = steiner_problem(synth_steiner(p=3, m=4, seed=0))
    v, Mv = sp.holder_constants()
    assert v == 0.0 and Mv == 2.0
    assert sp.regularizer.strong_convexity == 0.0


# ---------------------------------------------------------------------------
# CSV I/O


def test_load_samples_two_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# comment\n1.5,2.0,3.0\n\n-0.5,0.0,1.0\n")
    inst = load_samples(path)
    assert inst.n == 2 and inst.p == 2
    np.testing.assert_array_equal(inst.b, [1.5, -0.5])
    np.testing.assert_array_equal(inst.A, [[2.0, 3.0], [0.0, 1.0]])
    assert inst.x_true is None


def test_load_samples_ragged_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,2.0,3.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_samples(path)


def test_load_samples_non_numeric(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,banana\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_samples(path)


def test_load_samples_empty(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# only a comment\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_samples(path)


def test_load_samples_too_few_fields(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0\n")
    with pytest.raises(ValueError, match="at least 2 fields"):
        load_samples(path)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN"])
def test_load_samples_non_finite(tmp_path, field):
    path = tmp_path / "d.csv"
    path.write_text(f"1.0,2.0\n# comment\n0.5,{field}\n")
    with pytest.raises(ValueError, match="line 3: non-finite field"):
        load_samples(path)


def test_save_load_round_trip_exact(tmp_path):
    inst = synth_lasso(p=5, n=8, sparsity=2, noise=0.7, seed=9)
    path = tmp_path / "rt.csv"
    save_samples(inst, path)
    back = load_samples(path)
    np.testing.assert_array_equal(back.A, inst.A)
    np.testing.assert_array_equal(back.b, inst.b)


# ---------------------------------------------------------------------------
# closed-form round updates vs the generic machinery


def test_lasso_bregman_step_matches_manual():
    x = np.array([1.0, -2.0])
    a = np.array([3.0, 0.5])
    b, M, mu = 0.25, 4.0, 0.6
    got = lasso_bregman_step(x, a, b, M, mu)
    r = a @ x - b
    want = soft_threshold(x - (2.0 / M) * r * a, mu / M)
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_lasso_bregman_step_matches_generic_map():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = int(rng.integers(1, 6))
        x = rng.normal(size=p)
        a = rng.normal(size=p)
        b = float(rng.normal())
        M = float(rng.uniform(0.5, 10.0))
        mu = float(rng.uniform(0.0, 1.0))
        inst = LassoInstance(A=a[None, :], b=np.array([b]), l1_weight=mu)
        prob = lasso_problem(inst)
        comp = prob.components[0]
        want = bregman_map(prob.regularizer, x, comp.grad(x), M)
        got = lasso_bregman_step(x, a, b, M, mu)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_lasso_batch_bregman_step():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    x = rng.normal(size=3)
    M, mu = 3.0, 0.2
    got = lasso_batch_bregman_step(x, A, b, M, mu)
    grad = (2.0 / 4) * (A.T @ (A @ x - b))
    want = soft_threshold(x - grad / M, mu / M)
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_steiner_bregman_step_matches_manual():
    x = np.array([3.0, 4.0])
    c = np.zeros(2)
    got = steiner_bregman_step(x, c, 2.0)
    np.testing.assert_allclose(got, x - np.array([0.6, 0.8]) / 2.0)


def test_steiner_bregman_step_fixed_at_center():
    c = np.array([1.0, -1.0, 2.0])
    np.testing.assert_array_equal(steiner_bregman_step(c.copy(), c, 5.0), c)


def test_steiner_bregman_step_matches_generic_map():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = int(rng.integers(1, 5))
        x = rng.normal(size=p)
        c = rng.normal(size=p)
        M = float(rng.uniform(0.5, 10.0))
        prob = steiner_problem(SteinerInstance(centers=c[None, :]))
        comp = prob.components[0]
        want = bregman_map(prob.regularizer, x, comp.grad(x), M)
        got = steiner_bregman_step(x, c, M)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_steiner_batch_bregman_step():
    centers = np.array([[1.0, 0.0], [0.0, 0.0]])
    x = np.array([0.0, 0.0])
    got = steiner_batch_bregman_step(x, centers, 4.0)
    # direction to first center is (-1, 0); second center coincides with x
    want = x - np.array([-0.5, 0.0]) / 4.0
    np.testing.assert_allclose(got, want)


def test_lasso_dual_average_spot_check():
    x0 = np.array([1.0, -1.0])
    coeffs = np.array([0.5, 0.25])
    grads = np.array([[2.0, 0.0], [0.0, 4.0]])
    got = lasso_dual_average(x0, coeffs, grads, 1.0)
    want = soft_threshold(x0 - np.array([1.0, 1.0]), 0.75)
    np.testing.assert_allclose(got, want)


def test_steiner_dual_average_spot_check():
    x0 = np.zeros(2)
    coeffs = np.array([1.0, 2.0])
    iterates = np.array([[3.0, 4.0], [1.0, 1.0]])
    centers = np.array([[0.0, 0.0], [1.0, 1.0]])  # second diff is zero
    got = steiner_dual_average(x0, coeffs, iterates, centers)
    np.testing.assert_allclose(got, -np.array([0.6, 0.8]))


# ---------------------------------------------------------------------------
# recovery behavior of the full composite


def test_large_l1_weight_zeroes_the_reference_solution():
    from unigrad.harness import reference_solution

    inst = synth_lasso(p=6, n=30, sparsity=3, noise=0.2, seed=4)
    thresh = np.max(np.abs((2.0 / inst.n) * (inst.A.T @ inst.b)))
    strong = LassoInstance(A=inst.A, b=inst.b, l1_weight=1.01 * float(thresh))
    ref = reference_solution(lasso_problem(strong), tol=1e-10)
    np.testing.assert_allclose(ref.x, np.zeros(6), atol=1e-8)


def test_noise_free_unregularized_recovery():
    from unigrad.harness import reference_solution

    inst = synth_lasso(p=20, n=60, sparsity=5, noise=0.0, seed=5)
    ref = reference_solution(lasso_problem(inst), tol=1e-12)
    assert np.max(np.abs(ref.x - inst.x_true)) <= 1e-6
    assert ref.f <= 1e-12
