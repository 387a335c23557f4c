"""The full-objective column, filled after the rounds by the batched pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unigrad import oracles
from unigrad.harness import sample_order
from unigrad.oracles import ComponentOracle, CompositeProblem, Regularizer
from unigrad.problems import lasso_problem, steiner_problem, synth_lasso, synth_steiner
from unigrad.sug import SugConfig, sug_run
from unigrad.trace import RunTrace
from unigrad.udgm import udgm_fixed_step_run, udgm_run
from unigrad.upgm import upgm_fixed_step_run, upgm_run

T = 40


def _custom_problem(p=3, n=6, seed=5):
    """Closure components with no vectorised form: g_i = 0.5 ||x - c_i||^2."""
    centers = np.random.default_rng(seed).normal(size=(n, p))
    comps = [
        ComponentOracle(
            value=lambda x, c=c: 0.5 * float((x - c) @ (x - c)),
            grad=lambda x, c=c: x - c,
            holder_degree=1.0,
            holder_modulus=1.0,
        )
        for c in centers
    ]
    return CompositeProblem(
        components=comps,
        regularizer=Regularizer.l1(0.05),
        dimension=p,
    )


PROBLEMS = {
    "lasso-l1": lambda: lasso_problem(
        synth_lasso(p=6, n=50, sparsity=2, noise=0.1, seed=1, l1_weight=0.1)
    ),
    "elastic-net": lambda: lasso_problem(
        synth_lasso(p=6, n=50, sparsity=2, noise=0.1, seed=2,
                    l1_weight=0.1, ridge_weight=5.0)
    ),
    "steiner": lambda: steiner_problem(synth_steiner(p=4, m=20, seed=3)),
    "custom": _custom_problem,
}


def _run(solver, problem, x0):
    order = sample_order("random", problem.n_components, T, seed=7)
    if solver == "oupgm":
        return upgm_run(problem, order, x0, 1.0, 1e-2, T)[1]
    if solver == "oupgm-fixed":
        return upgm_fixed_step_run(problem, order, x0, 1e-1, T)[1]
    if solver == "oudgm":
        return udgm_run(problem, order, x0, 1.0, 1e-2, T)[1]
    if solver == "oudgm-fixed":
        return udgm_fixed_step_run(problem, order, x0, 1e-1, T)[1]
    _, Mv = problem.holder_constants()
    cfg = SugConfig(M=1.1 * Mv, eps=1e-2, seed=7, max_iters=T)
    return sug_run(problem, x0, cfg)[1]


@pytest.mark.parametrize("family", sorted(PROBLEMS))
@pytest.mark.parametrize(
    "solver", ["oupgm", "oupgm-fixed", "oudgm", "oudgm-fixed", "sug"]
)
def test_f_full_is_the_objective_at_each_starting_iterate(solver, family, monkeypatch):
    """A 200-byte budget splits the 41 iterates and the samples unevenly."""
    monkeypatch.setattr(oracles, "BLOCK_BYTES", 200)
    problem = PROBLEMS[family]()
    x0 = np.random.default_rng(11).normal(size=problem.dimension)
    trace = _run(solver, problem, x0)
    iterates = [x0, *trace.x_next[:-1]]
    assert len(trace.f_full) == trace.n_rows == len(iterates)
    want = [problem.value(x) for x in iterates]
    np.testing.assert_allclose(trace.f_full, want, rtol=1e-12, atol=0.0)


def test_fill_f_full_needs_the_stored_iterates():
    trace = RunTrace(algorithm="oupgm", eps=1e-2, T=1, x0=np.zeros(2))
    trace.add_row(0, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, x_next=np.ones(2))
    trace.add_row(1, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    trace.fill_f_full(lambda X: np.zeros(len(X)))
    assert trace.f_full == [0.0, 0.0]
    trace.x_next.clear()
    with pytest.raises(ValueError, match="iterates"):
        trace.fill_f_full(lambda X: np.zeros(len(X)))


def test_values_rejects_points_of_the_wrong_width():
    problem = PROBLEMS["lasso-l1"]()
    with pytest.raises(ValueError, match="shape"):
        problem.values(np.zeros((3, problem.dimension + 1)))


def _family_problem(family, n, p, seed):
    if family == "steiner":
        return steiner_problem(synth_steiner(p=p, m=n, seed=seed))
    ridge = 2.0 if family == "elastic-net" else 0.0
    inst = synth_lasso(p=p, n=n, sparsity=min(p, 2), noise=0.1, seed=seed,
                       l1_weight=0.1, ridge_weight=ridge)
    return lasso_problem(inst)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["lasso-l1", "elastic-net", "steiner"]),
    n=st.integers(1, 70),
    p=st.integers(1, 9),
    k=st.integers(1, 40),
    block_bytes=st.sampled_from([1, 24, 200, 1000, oracles.BLOCK_BYTES]),
    seed=st.integers(0, 2**16),
)
def test_values_match_per_row_values(family, n, p, k, block_bytes, seed):
    """Small budgets split the samples and the centers into uneven blocks."""
    problem = _family_problem(family, n, p, seed)
    X = np.random.default_rng(seed + 1).normal(size=(k, p))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "BLOCK_BYTES", block_bytes)
        got = problem.values(X)
    want = [problem.value(x) for x in X]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
