"""The round loop shared by oupgm, oudgm and their fixed-step variants."""

import numpy as np
import pytest

from unigrad.bregman import bregman_map, gamma
from unigrad.harness import sample_order
from unigrad.oracles import ComponentOracle, NonFiniteOracleValue
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
    assert trace.i_t == [0] * (T + 1)
    assert trace.L_next == [gamma(Mv, v, eps)] * (T + 1)
    assert trace.f_gt_yt == trace.f_gt_xnext
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
    for t in range(T + 1):
        gt, x = prob.components[order[t]], points[t]
        y = bregman_map(h, x, gt.grad(x), 2.0 * trace.L_next[t])
        assert trace.f_gt_xt[t] == gt.value(x) + h.value(x)
        assert trace.f_gt_yt[t] == gt.value(y) + h.value(y)
        assert trace.f_gt_xnext[t] == gt.value(points[t + 1]) + h.value(points[t + 1])
        if runner is upgm_run:
            np.testing.assert_array_equal(points[t + 1], y)


def test_adaptive_oudgm_minimizes_the_model_once_per_round(monkeypatch):
    coeffs = []
    argmin = DualModel.argmin

    def spy(self, regularizer, extra_coeff=0.0, extra_grad=None):
        coeffs.append(extra_coeff)
        return argmin(self, regularizer, extra_coeff, extra_grad)

    monkeypatch.setattr(DualModel, "argmin", spy)
    prob = lasso_problem(synth_lasso(p=5, n=40, sparsity=2, noise=0.2, seed=1,
                                     l1_weight=0.1))
    T = 60
    order = sample_order("random", 40, T, seed=2)
    _, trace = udgm_run(prob, order, np.zeros(5), 1.0, 1e-2, T)
    assert sum(i + 1 for i in trace.i_t) > T + 1  # some rounds backtracked
    assert len(coeffs) == T + 1
    # each minimizer is taken at the accepted modulus 2 L_next
    assert coeffs == [0.5 / L for L in trace.L_next]


def _with_bad_component(bad, value_fn):
    prob = lasso_problem(synth_lasso(p=2, n=3, sparsity=1, noise=0.1, seed=3))
    good = prob.components[bad]
    prob.components[bad] = ComponentOracle(
        value=value_fn,
        grad=good.grad,
        holder_degree=good.holder_degree,
        holder_modulus=good.holder_modulus,
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
