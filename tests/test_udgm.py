"""Aggregated dual model and the dual online method built on it."""

import numpy as np
import pytest

from unigrad.bregman import gamma
from helpers import (
    check_dual_target_bound,
    dual_model_value,
    replay_dual_rounds,
    steiner_dual_average,
    zero_problem,
)
from unigrad.geometry import ProxFunction
from unigrad.harness import sample_order
from unigrad.oracles import Regularizer
from unigrad.problems import (
    LassoInstance,
    lasso_problem,
    steiner_problem,
    synth_lasso,
    synth_steiner,
)
from unigrad.trace import parse_trace_csv, write_trace_csv
from unigrad.udgm import DualModel, udgm_fixed_step_run, udgm_run


def _fresh_model(dim=2, x0=None):
    x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
    return DualModel(anchor=x0)


# ---------------------------------------------------------------------------
# DualModel


def test_empty_model_minimized_at_anchor():
    model = _fresh_model(x0=np.array([1.5, -2.0]))
    got = model.argmin(Regularizer())
    np.testing.assert_array_equal(got, np.array([1.5, -2.0]))


def test_argmin_without_regularizer_is_anchor_minus_aggregate():
    model = _fresh_model(3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        model.fold(float(rng.uniform(0.1, 1.0)), rng.normal(size=3))
    s, grad, coeff = model.s, rng.normal(size=3), 0.4
    model.fold(coeff, grad)
    got = model.argmin(Regularizer())
    np.testing.assert_allclose(got, model.anchor - s - coeff * grad, rtol=1e-15)


def test_argmin_scalar_l1_case():
    model = DualModel(anchor=np.array([2.0]))
    model.fold(0.5, np.array([2.0]))  # s = 1, A = 0.5
    got = model.argmin(Regularizer(1.0))
    np.testing.assert_allclose(got, np.array([0.5]))


@pytest.mark.parametrize("coeff", [-0.1, float("nan"), float("inf")])
def test_fold_refuses_a_negative_or_non_finite_coeff(coeff):
    model = _fresh_model()
    with pytest.raises(ValueError, match=f"^coeff must be nonnegative and finite, got {coeff}$"):
        model.fold(coeff, np.zeros(2))
    np.testing.assert_array_equal(model.s, np.zeros(2))
    assert model.A == 0.0


def test_model_value_reconstruction():
    rng = np.random.default_rng(1)
    model = _fresh_model(3, x0=rng.normal(size=3))
    h = Regularizer(0.3)
    pieces = []
    c = 0.0
    for _ in range(6):
        coeff = float(rng.uniform(0.05, 0.8))
        g_val = float(rng.normal())
        g_grad = rng.normal(size=3)
        x_t = rng.normal(size=3)
        model.fold(coeff, g_grad)
        c += coeff * (g_val - float(g_grad @ x_t))
        pieces.append((coeff, g_val, g_grad, x_t))
    geom = ProxFunction(3)
    for _ in range(20):
        y = rng.normal(size=3)
        want = geom.bregman(model.anchor, y)
        for coeff, g_val, g_grad, x_t in pieces:
            want += coeff * (g_val + float(g_grad @ (y - x_t)) + h.value(y))
        got = dual_model_value(model.anchor, model.s, model.A, c, h, y)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_model_strong_convexity_around_its_minimizer():
    """phi(y) >= phi(xbar) + dist(xbar, y): the bregman anchor term makes the
    model 1-strongly convex regardless of what has been folded in."""
    rng = np.random.default_rng(2)
    h = Regularizer(0.4)
    model = _fresh_model(4, x0=rng.normal(size=4))
    c = 0.0
    for _ in range(8):
        coeff = float(rng.uniform(0.05, 0.6))
        g_val = float(rng.normal())
        g_grad, x_t = rng.normal(size=4), rng.normal(size=4)
        model.fold(coeff, g_grad)
        c += coeff * (g_val - float(g_grad @ x_t))
    xbar = model.argmin(h)
    geom = ProxFunction(4)

    def phi(y):
        return dual_model_value(model.anchor, model.s, model.A, c, h, y)

    for _ in range(200):
        y = rng.normal(size=4) * 3.0
        lhs = phi(y)
        rhs = phi(xbar) + geom.bregman(xbar, y)
        assert lhs >= rhs - 1e-9 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# one round at a time


def _record_folds(monkeypatch):
    """Record (model, model.A) after every DualModel.fold a run makes."""
    folds = []
    fold = DualModel.fold

    def spy(self, *args):
        fold(self, *args)
        folds.append((self, self.A))

    monkeypatch.setattr(DualModel, "fold", spy)
    return folds


def test_step_on_zero_objective_stays_at_anchor(monkeypatch):
    folds = _record_folds(monkeypatch)
    x0 = np.array([0.7, -0.3])
    x_final, trace = udgm_run(zero_problem(), np.array([0]), x0, 4.0, 1e-2, 0)
    assert np.array_equal(trace.i_t, [0])
    assert trace.L_next[0] == pytest.approx(2.0)
    np.testing.assert_array_equal(x_final, x0)
    [(model, A)] = folds
    np.testing.assert_array_equal(model.s, np.zeros(2))
    assert A > 0.0


def test_step_quadratic_equality_case():
    inst = LassoInstance(A=np.array([[1.0]]), b=np.array([0.0]))
    prob = lasso_problem(inst)
    _, trace = udgm_run(prob, np.array([0]), np.array([1.0]), 2.0, 1e-12, 0)
    assert np.array_equal(trace.i_t, [0])
    assert trace.L_next[0] == pytest.approx(1.0)


def test_state_requires_positive_modulus():
    with pytest.raises(ValueError, match="L0"):
        udgm_run(zero_problem(), np.array([0]), np.zeros(2), -1.0, 1e-2, 0)


def test_aggregated_coefficient_is_half_the_weight_sum(monkeypatch):
    prob = lasso_problem(synth_lasso(p=4, n=25, sparsity=2, noise=0.2, seed=3,
                                     l1_weight=0.1))
    folds = _record_folds(monkeypatch)
    order = np.random.default_rng(4).integers(0, 25, size=40)
    _, trace = udgm_run(prob, order, np.zeros(4), 1.0, 1e-2, 39)
    weight_sum = 0.0
    for (_, A), L_next in zip(folds, trace.L_next, strict=True):
        weight_sum += 1.0 / L_next
        assert A == weight_sum / 2.0


def test_accepted_moduli_capped_on_lasso_stream():
    prob = lasso_problem(synth_lasso(p=5, n=60, sparsity=2, noise=0.3, seed=5,
                                     l1_weight=0.1))
    v, Mv = prob.holder_constants()
    eps = 1e-2
    order = np.random.default_rng(6).integers(0, 60, size=201)
    _, trace = udgm_run(prob, order, np.zeros(5), 1.0, eps, 200)
    cap = gamma(Mv, v, eps)
    assert max(2.0 * L for L in trace.L_next) <= 2.0 * cap * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# runs


def test_run_is_deterministic():
    prob = steiner_problem(synth_steiner(p=3, m=10, seed=7))
    order = np.random.default_rng(8).integers(0, 10, size=101)
    xa, ta = udgm_run(prob, order, np.zeros(3), 1.0, 1e-1, 100)
    xb, tb = udgm_run(prob, order, np.zeros(3), 1.0, 1e-1, 100)
    np.testing.assert_array_equal(xa, xb)
    assert ta.L_next.tobytes() == tb.L_next.tobytes()
    for a, b in zip(ta.x_next, tb.x_next, strict=True):
        np.testing.assert_array_equal(a, b)


def test_fixed_step_records_constant_modulus():
    prob = steiner_problem(synth_steiner(p=3, m=8, seed=9))
    eps = 1e-1
    order = np.random.default_rng(10).integers(0, 8, size=61)
    _, trace = udgm_fixed_step_run(prob, order, np.zeros(3), eps, 60)
    step = gamma(2.0, 0.0, eps)
    assert all(L == pytest.approx(step, rel=1e-15) for L in trace.L_next)
    assert trace.L0 is None
    assert trace.extra_meta == {}


def test_fixed_step_iterates_match_aggregated_closed_form():
    """Each fixed-step iterate equals the running aggregate
    x0 - sum_i coeff * (x_i - c_i) / ||x_i - c_i|| over past rounds."""
    inst = synth_steiner(p=4, m=12, seed=11)
    prob = steiner_problem(inst)
    eps = 2e-1
    T = 50
    order = np.random.default_rng(12).integers(0, 12, size=T + 1)
    x0 = np.zeros(4)
    _, trace = udgm_fixed_step_run(prob, order, x0, eps, T)
    coeff = 0.5 / gamma(2.0, 0.0, eps)
    pre_update = [x0] + [np.asarray(v) for v in trace.x_next[:-1]]
    for t in range(T + 1):
        iterates = np.asarray(pre_update[: t + 1])
        centers = inst.centers[order[: t + 1]]
        coeffs = np.full(t + 1, coeff)
        want = steiner_dual_average(x0, coeffs, iterates, centers)
        np.testing.assert_allclose(trace.x_next[t], want, atol=1e-12, rtol=0)


REPLAY_PROBLEMS = {
    "l1-lasso": lambda: lasso_problem(synth_lasso(p=6, n=50, sparsity=3, noise=0.2,
                                                   seed=17, l1_weight=0.1)),
    "steiner": lambda: steiner_problem(synth_steiner(p=4, m=30, seed=18)),
}


@pytest.mark.parametrize("family", sorted(REPLAY_PROBLEMS))
@pytest.mark.parametrize("fixed", [False, True], ids=["adaptive", "fixed-step"])
def test_replay_reproduces_every_iterate_bit_for_bit(family, fixed):
    """Folding each round's linearization at coeff = 1 / (2 L_next) and
    minimizing the model from scratch, without DualModel, gives back every
    x_next of the run."""
    prob = REPLAY_PROBLEMS[family]()
    T = 150
    order = sample_order("random", prob.n_components, T, seed=19)
    x0 = np.full(prob.dimension, 0.5)
    if fixed:
        _, trace = udgm_fixed_step_run(prob, order, x0, 1e-2, T)
    else:
        _, trace = udgm_run(prob, order, x0, 1.0, 1e-2, T)
        assert sum(i + 1 for i in trace.i_t) > T + 1  # some rounds backtracked
    replayed = [x_next for x_next, *_ in replay_dual_rounds(trace, prob)]
    assert len(replayed) == T + 1
    for t, (got, want) in enumerate(zip(replayed, trace.x_next)):
        assert got.tobytes() == want.tobytes(), f"round {t}"


def test_dual_target_prefix_bound_on_line_searched_run():
    prob = lasso_problem(synth_lasso(p=6, n=80, sparsity=3, noise=0.2, seed=13,
                                     l1_weight=0.1))
    order = np.random.default_rng(14).integers(0, 80, size=301)
    _, trace = udgm_run(prob, order, np.zeros(6), 1.0, 1e-2, 300)
    ok, worst = check_dual_target_bound(trace, prob)
    assert ok, f"worst normalized prefix violation {worst}"


def test_dual_target_bound_needs_in_memory_trace(tmp_path):
    prob = steiner_problem(synth_steiner(p=2, m=5, seed=15))
    order = np.random.default_rng(16).integers(0, 5, size=21)
    _, trace = udgm_run(prob, order, np.zeros(2), 1.0, 1e-1, 20)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    parsed = parse_trace_csv(path)
    with pytest.raises(ValueError, match="in-memory"):
        check_dual_target_bound(parsed, prob)
