"""The round loop shared by oupgm, oudgm and their fixed-step variants."""

import dataclasses
import warnings

import numpy as np
import pytest

from helpers import zero_problem
from unigrad.bregman import ModulusUnderflow, bregman_map, gamma
from unigrad.harness import sample_order
from unigrad.oracles import NonFiniteOracleValue
from unigrad.problems import lasso_problem, synth_lasso
from unigrad.udgm import DualModel, udgm_fixed_step_run, udgm_run
from unigrad.upgm import upgm_fixed_step_run, upgm_run

RUNNERS = {
    "oupgm": lambda prob, order, x0, T: upgm_run(prob, order, x0, 1.0, 1e-2, T),
    "oupgm-fixed": lambda prob, order, x0, T: upgm_fixed_step_run(prob, order, x0, 1e-2, T),
    "oudgm": lambda prob, order, x0, T: udgm_run(prob, order, x0, 1.0, 1e-2, T),
    "oudgm-fixed": lambda prob, order, x0, T: udgm_fixed_step_run(prob, order, x0, 1e-2, T),
}


@pytest.mark.parametrize("runner", [upgm_fixed_step_run, udgm_fixed_step_run],
                         ids=["oupgm", "oudgm"])
def test_fixed_step_rounds_take_one_accepted_trial_at_twice_gamma(runner):
    prob = lasso_problem(synth_lasso(p=4, n=30, sparsity=2, noise=0.1, seed=6,
                                     l1_weight=0.05))
    v, Mv = prob.holder_constants()
    eps = 1e-2
    T = 50
    order = sample_order("random", 30, T, seed=7)
    _, trace = runner(prob, order, np.zeros(4), eps, T)
    assert np.array_equal(trace.i_t, [0] * (T + 1))
    assert np.array_equal(trace.L_next, [gamma(Mv, v, eps)] * (T + 1))
    assert trace.f_gt_yt.tobytes() == trace.f_gt_xnext.tobytes()
    assert trace.extra_meta == {"fixed_step": True, "Mv": Mv, "v": v}
    assert trace.L0 is None


@pytest.mark.parametrize("runner", [upgm_run, udgm_run], ids=["oupgm", "oudgm"])
def test_adaptive_rounds_record_the_accepted_bregman_point(runner):
    """f_gt_yt is f_{g_t} at y_t = B_{2 L_next, g_t}(x_t), the Bregman point
    the search accepted; oupgm steps to it, oudgm to the model minimizer."""
    prob = lasso_problem(synth_lasso(p=4, n=30, sparsity=2, noise=0.2, seed=4,
                                     l1_weight=0.1))
    h = prob.regularizer
    T = 40
    order = sample_order("random", 30, T, seed=5)
    _, trace = runner(prob, order, np.zeros(4), 1.0, 1e-2, T)
    points = [trace.x0, *trace.x_next]
    oracle = prob.components
    for t in range(T + 1):
        k, x = order[t], points[t]
        y = bregman_map(h, x, oracle.grad(k, x), 2.0 * trace.L_next[t])
        assert trace.f_gt_xt[t] == oracle.value(k, x) + h.value(x)
        assert trace.f_gt_yt[t] == oracle.value(k, y) + h.value(y)
        assert trace.f_gt_xnext[t] == oracle.value(k, points[t + 1]) + h.value(points[t + 1])
        if runner is upgm_run:
            np.testing.assert_array_equal(points[t + 1], y)


def test_adaptive_oudgm_minimizes_the_model_once_per_round(monkeypatch):
    calls = []
    fold, argmin = DualModel.fold, DualModel.argmin

    def fold_spy(self, coeff, g_grad):
        calls.append(coeff)
        fold(self, coeff, g_grad)

    def argmin_spy(self, regularizer):
        calls.append("argmin")
        return argmin(self, regularizer)

    monkeypatch.setattr(DualModel, "fold", fold_spy)
    monkeypatch.setattr(DualModel, "argmin", argmin_spy)
    prob = lasso_problem(synth_lasso(p=5, n=40, sparsity=2, noise=0.2, seed=1,
                                     l1_weight=0.1))
    T = 60
    order = sample_order("random", 40, T, seed=2)
    _, trace = udgm_run(prob, order, np.zeros(5), 1.0, 1e-2, T)
    assert sum(i + 1 for i in trace.i_t) > T + 1  # some rounds backtracked
    # each round folds its linearization at the accepted modulus 2 L_next,
    # then minimizes the model once
    assert calls == [c for L in trace.L_next for c in (0.5 / L, "argmin")]


def _with_bad_component(bad, value_fn):
    """The lasso stream with component bad's value replaced by value_fn."""
    prob = lasso_problem(synth_lasso(p=2, n=3, sparsity=1, noise=0.1, seed=3))
    good = prob.components.value
    prob.components = dataclasses.replace(
        prob.components, value=lambda i, x: value_fn(x) if i == bad else good(i, x)
    )
    return prob


@pytest.mark.parametrize("runner", list(RUNNERS))
@pytest.mark.parametrize(
    "bad, value_fn, order, message",
    [
        # NaN at the round's own point x_t
        (0, lambda x: np.nan, [1, 2, 0], "component 0 returned nan at round 2"),
        # finite at x_0 = 0, infinite at the point the round steps to
        (2, lambda x: np.inf if np.any(x != 0) else 1.0, [2, 0, 1],
         "component 2 returned inf at round 0"),
    ],
    ids=["at-x_t", "at-next-point"],
)
def test_non_finite_oracle_value_names_round_and_component(
    runner, bad, value_fn, order, message
):
    prob = _with_bad_component(bad, value_fn)
    with pytest.raises(NonFiniteOracleValue, match=message):
        RUNNERS[runner](prob, np.array(order), np.zeros(2), len(order) - 1)


@pytest.mark.parametrize("runner", list(RUNNERS))
@pytest.mark.parametrize("shape", [(1,), (4,)], ids=["short", "long"])
def test_bad_gradient_shape_names_round_component_and_shapes(runner, shape):
    prob = lasso_problem(synth_lasso(p=3, n=3, sparsity=1, noise=0.1, seed=3))
    good = prob.components.grad
    prob.components = dataclasses.replace(
        prob.components, grad=lambda i, x: np.ones(shape) if i == 2 else good(i, x)
    )
    message = (rf"component 2 returned a gradient of shape \({shape[0]},\) at round 1; "
               r"the point has shape \(3,\)")
    with pytest.raises(ValueError, match=message):
        RUNNERS[runner](prob, np.array([0, 2, 1]), np.zeros(3), 2)


@pytest.mark.parametrize("runner", [upgm_run, udgm_run], ids=["oupgm", "oudgm"])
def test_a_modulus_halved_below_the_normal_floats_fails_fast(runner):
    """On g = 0 every first trial passes and L_t = 2^-t: round 1022 halves L
    below the smallest normal float and must stop the run, before 1 / L or
    the model's coefficient 1 / (2 L) overflows into inf or NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModulusUnderflow,
                           match="round 1022: .* below the smallest normal float"):
            runner(zero_problem(), np.zeros(1200, dtype=int), np.zeros(2), 1.0, 1e-2, 1199)
    # one round fewer keeps every L normal and runs through
    _, trace = runner(zero_problem(), np.zeros(1022, dtype=int), np.zeros(2), 1.0, 1e-2, 1021)
    assert np.array_equal(trace.L_next, [2.0 ** -(t + 1) for t in range(1022)])
