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
from unigrad import problems
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
    for field, weight in (("l1_weight", np.nan), ("l1_weight", np.inf),
                          ("ridge_weight", np.nan), ("ridge_weight", np.inf)):
        with pytest.raises(ValueError, match=f"{field} .* nonnegative and finite"):
            LassoInstance(A=np.zeros((2, 2)), b=np.zeros(2), **{field: weight})


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
    for noise in (np.nan, np.inf):
        with pytest.raises(ValueError, match="noise must be nonnegative and finite"):
            synth_lasso(p=3, n=5, sparsity=1, noise=noise, seed=0)
    for field in ("l1_weight", "ridge_weight"):
        with pytest.raises(ValueError, match=f"{field} .* nonnegative and finite"):
            synth_lasso(p=3, n=5, sparsity=1, noise=0.1, seed=0, **{field: np.nan})
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        synth_lasso(p=3, n=5, sparsity=1, noise=0.1, seed=-1)


@pytest.mark.parametrize("p, n, sparsity, noise, seed", [
    (1, 1, 1, 0.1, 0), (5, 40, 2, 0.5, 3), (20, 2001, 5, 0.1, 7),
    (200, 300, 20, 0.1, 11), (3, 9, 0, 0.0, 2**31),
])
def test_generators_draw_what_rng_normal_drew(p, n, sparsity, noise, seed):
    """standard_normal gives the bits and the stream of the normal(size=...)
    draws the generators made before it."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, p))
    x_true = np.zeros(p)
    if sparsity > 0:
        support = rng.choice(p, size=sparsity, replace=False)
        x_true[support] = rng.normal(size=sparsity)
    b = A @ x_true + noise * rng.normal(size=n)
    inst = synth_lasso(p=p, n=n, sparsity=sparsity, noise=noise, seed=seed)
    for got, want in ((inst.A, A), (inst.x_true, x_true), (inst.b, b)):
        assert got.tobytes() == want.tobytes()
    centers = np.random.default_rng(seed).normal(size=(n, p))
    assert synth_steiner(p=p, m=n, seed=seed).centers.tobytes() == centers.tobytes()


def test_certify_gives_the_smooth_average_bit_for_bit():
    """The certificate's pass yields mean_smooth_value's value, so f(x*)
    and its gap take one pass over the data."""
    x = np.random.default_rng(8).normal(size=4)
    for problem in (lasso_problem(synth_lasso(p=4, n=30, sparsity=2, noise=0.1, seed=8,
                                              l1_weight=0.1)),
                    lasso_problem(synth_lasso(p=4, n=30, sparsity=2, noise=0.1, seed=8,
                                              l1_weight=0.1, ridge_weight=2.0)),
                    steiner_problem(synth_steiner(p=4, m=30, seed=8))):
        assert problem.certify(x)[0] == problem.mean_smooth_value(x)


def test_synth_steiner_shapes_and_determinism():
    a = synth_steiner(p=3, m=7, seed=1)
    b = synth_steiner(p=3, m=7, seed=1)
    c = synth_steiner(p=3, m=7, seed=2)
    assert a.centers.shape == (7, 3)
    np.testing.assert_array_equal(a.centers, b.centers)
    assert not np.array_equal(a.centers, c.centers)
    with pytest.raises(ValueError):
        synth_steiner(p=0, m=3, seed=0)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        synth_steiner(p=3, m=3, seed=-1)


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


@pytest.mark.parametrize("seed", range(12))
def test_lasso_modulus_is_the_largest_row_dot_bit_for_bit(seed):
    """Permuted copies of one row tie exactly in exact arithmetic and split
    in the last bits of a @ a; nudged copies sit a few ulps apart."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 300))
    base = rng.normal(size=p) * rng.uniform(0.1, 10.0)
    ties = np.stack([rng.permutation(base) for _ in range(40)])
    nudged = base * (1.0 + rng.integers(-8, 9, size=(40, 1)) * np.finfo(float).eps)
    A = np.vstack([rng.normal(size=(200, p)), ties, nudged])
    A = A[rng.permutation(len(A))]
    _, Mv = lasso_problem(LassoInstance(A=A, b=np.zeros(len(A)))).holder_constants()
    assert Mv == max(2.0 * float(a @ a) for a in A)
    inst = synth_lasso(p=p, n=300, sparsity=1, noise=0.1, seed=seed)
    _, Mv = lasso_problem(inst).holder_constants()
    assert Mv == max(2.0 * float(a @ a) for a in inst.A)


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


def test_load_samples_one_pass_equals_float_of_every_field(tmp_path, monkeypatch):
    """The one-pass read gives the float() of every field, bit for bit, on a
    file with comments and blank lines among fields written to 6, 17 and
    25 significant digits; the line-by-line read is not reached."""
    rng = np.random.default_rng(5)
    data = rng.normal(size=(300, 7)) * 10.0 ** rng.integers(-40, 40, size=(300, 7))
    formats = ["{:.6e}", "{:.17g}", "{:.25g}", "{!r}"]
    lines = ["# b,a_1,...,a_6"]
    for t, row in enumerate(data.tolist()):
        lines.append(",".join(formats[(t + j) % 4].format(v) for j, v in enumerate(row)))
        if t % 50 == 7:
            lines += ["", "   ", "# a comment among the rows"]
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n\n")
    want = np.array([[float(field) for field in line.split(",")]
                     for line in lines if line.strip() and not line.startswith("#")])

    def no_line_by_line(path):
        raise AssertionError("the one-pass read fell back")

    monkeypatch.setattr(problems, "_read_rows", no_line_by_line)
    inst = load_samples(path)
    assert inst.b.tobytes() == want[:, 0].tobytes()
    assert inst.A.tobytes() == np.ascontiguousarray(want[:, 1:]).tobytes()
    assert inst.A.shape == (300, 6)


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
        want = bregman_map(prob.regularizer, x, prob.components.grad(0, x), M)
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
        want = bregman_map(prob.regularizer, x, prob.components.grad(0, x), M)
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


# ---------------------------------------------------------------------------
# optimality certificates


def _lasso(l1_weight, ridge_weight):
    return synth_lasso(p=20, n=200, sparsity=5, noise=0.1, seed=3,
                       l1_weight=l1_weight, ridge_weight=ridge_weight)


CERTIFIED = {
    "l1-lasso": lambda: lasso_problem(_lasso(0.1, 0.0)),
    "elastic-net": lambda: lasso_problem(_lasso(0.1, 1.0)),
    "least-squares": lambda: lasso_problem(_lasso(0.0, 0.0)),
    "steiner": lambda: steiner_problem(synth_steiner(p=5, m=50, seed=1)),
}


@pytest.mark.parametrize("family", sorted(CERTIFIED))
def test_certificate_bounds_the_gap_to_a_polished_optimum(family):
    from unigrad.harness import reference_solution

    problem = CERTIFIED[family]()
    ref = reference_solution(problem, tol=1e-10)
    f_star = reference_solution(problem, tol=1e-13).f
    assert ref.gap == problem.certify(ref.x)[1] >= 0.0
    # f - f* at the reference is rounding-sized: allow the rounding of the
    # two objective sums
    rounding = 4.0 * np.finfo(float).eps * (1.0 + abs(f_star))
    assert ref.f - f_star <= ref.gap + rounding
    if family == "least-squares":
        assert ref.gap == ref.f  # no regularizer: the dual point is 0
    else:
        assert ref.gap <= 1e-8
    # and off the optimum, where f - f* is far above rounding
    rng = np.random.default_rng(0)
    for scale in (1e-4, 1e-2, 1.0):
        x = ref.x + scale * rng.normal(size=problem.dimension)
        assert problem.value(x) - f_star <= problem.certify(x)[1]


@pytest.mark.parametrize("l1_weight, ridge_weight", [(0.1, 0.0), (0.1, 1.0), (0.0, 2.0),
                                                     (0.0, 0.0), (5.0, 0.0)])
def test_lasso_certificate_is_the_duality_gap(l1_weight, ridge_weight):
    # P(x) - D(u) written out, at u = theta (2/n)(Ax - b)
    inst = _lasso(l1_weight, ridge_weight)
    A, b, n = inst.A, inst.b, inst.n
    x = np.random.default_rng(1).normal(size=inst.p)
    r = A @ x - b
    primal = (r @ r) / n + l1_weight * np.abs(x).sum() + 0.5 * ridge_weight * (x @ x)
    u = (2.0 / n) * r
    if ridge_weight > 0:
        w = soft_threshold(-(A.T @ u), l1_weight)
        conjugate = (w @ w) / (2.0 * ridge_weight)
    else:
        u *= min(1.0, l1_weight / np.abs(A.T @ u).max())
        conjugate = 0.0
    dual = -(u @ b + 0.25 * n * (u @ u)) - conjugate
    assert lasso_problem(inst).certify(x)[1] == pytest.approx(primal - dual, rel=1e-12)


def test_steiner_certificate_at_a_center():
    from unigrad.harness import reference_solution

    # five of eight centers coincide at the origin, which is then the
    # minimizer: its unit-ball share 5/8 covers the other three unit vectors
    centers = np.array([[0.0, 0.0]] * 5 + [[1.0, 0.0], [0.0, 2.0], [-3.0, -1.0]])
    problem = steiner_problem(SteinerInstance(centers=centers))
    assert problem.certify(centers[0])[1] == 0.0
    # at a center that is not the minimizer, one unit ball of the eight
    # does not cover g, and the bound holds against a polished f*
    f_star = reference_solution(problem, tol=1e-13).f
    assert f_star == pytest.approx(problem.value(centers[0]), abs=1e-12)
    for c in centers[5:]:
        assert 0.0 < problem.value(c) - f_star <= problem.certify(c)[1]
    problem = CERTIFIED["steiner"]()
    f_star = reference_solution(problem, tol=1e-13).f
    for c in synth_steiner(p=5, m=50, seed=1).centers[:5]:
        assert 0.0 < problem.value(c) - f_star <= problem.certify(c)[1]
