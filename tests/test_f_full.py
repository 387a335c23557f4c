"""The full-objective column, filled after the rounds by the batched pass."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unigrad import oracles, problems
from unigrad.harness import sample_order
from unigrad.problems import (
    LassoInstance,
    lasso_problem,
    steiner_problem,
    synth_lasso,
    synth_steiner,
)
from unigrad.sug import sug_run
from unigrad.trace import RunTrace, parse_trace_csv, write_trace_csv
from unigrad.udgm import udgm_fixed_step_run, udgm_run
from unigrad.upgm import upgm_fixed_step_run, upgm_run

T = 40

PROBLEMS = {
    "lasso-l1": lambda: lasso_problem(
        synth_lasso(p=6, n=50, sparsity=2, noise=0.1, seed=1, l1_weight=0.1)
    ),
    "elastic-net": lambda: lasso_problem(
        synth_lasso(p=6, n=50, sparsity=2, noise=0.1, seed=2,
                    l1_weight=0.1, ridge_weight=5.0)
    ),
    "steiner": lambda: steiner_problem(synth_steiner(p=4, m=20, seed=3)),
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
    return sug_run(problem, x0, 1.1 * Mv, 1e-2, T, 7)[1]


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


def test_fill_f_full_needs_the_stored_iterates(tmp_path):
    trace = RunTrace(algorithm="oupgm", eps=1e-2, T=1, x0=np.zeros(2))
    trace.add_row(0, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, x_next=np.ones(2))
    trace.add_row(1, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, x_next=np.ones(2))
    trace.fill_f_full(lambda X: np.zeros(len(X)))
    assert np.array_equal(trace.f_full, [0.0, 0.0])
    # a trace whose rows give no iterates, and a parsed one, hold none
    short = RunTrace(algorithm="oupgm", eps=1e-2, T=1, x0=np.zeros(2))
    short.add_row(0, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    short.add_row(1, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    write_trace_csv(trace, tmp_path / "trace.csv")
    for stored in (short, parse_trace_csv(tmp_path / "trace.csv")):
        assert len(stored.x_next) == 0
        with pytest.raises(ValueError, match="iterates"):
            stored.fill_f_full(lambda X: np.zeros(len(X)))


@pytest.mark.parametrize("solver", ["oupgm", "oudgm", "sug"])
def test_fill_f_full_calls_values_once_on_the_iterate_array(solver, monkeypatch):
    """The 41 iterates span 11 point blocks of 4 under a 200-byte budget;
    values still gets them all at once, as a view of the trace's iterates."""
    monkeypatch.setattr(oracles, "BLOCK_BYTES", 200)
    calls = []

    def values(X):
        calls.append(X)
        return problem.values(X)

    problem = PROBLEMS["lasso-l1"]()
    spied = dataclasses.replace(problem)
    monkeypatch.setattr(spied, "values", values)
    trace = _run(solver, spied, np.zeros(problem.dimension))
    assert len(calls) == 1 and calls[0].base is trace.iterates
    assert len(calls[0]) == trace.n_rows


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


# ---------------------------------------------------------------------------
# accuracy of the lasso objective against a long double evaluation

needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps,
    reason="long double is binary64 on this platform",
)


def _long_double_values(inst, X):
    """The lasso objective at each row of X, residual form in long double."""
    A = inst.A.astype(np.longdouble)
    X = X.astype(np.longdouble)
    R = X @ A.T - inst.b.astype(np.longdouble)
    out = np.einsum("ki,ki->k", R, R) / inst.n + inst.l1_weight * np.abs(X).sum(axis=1)
    return out + 0.5 * inst.ridge_weight * np.einsum("kp,kp->k", X, X)


def _max_rel_error(got, inst, X):
    want = _long_double_values(inst, X)
    return float(np.max(np.abs(np.asarray(got, dtype=np.longdouble) - want) / want))


@pytest.fixture
def fallback_rows(monkeypatch):
    """Counts the rows the lasso objective sums again in residual form."""
    rows = []
    residual_sums = problems._residual_sums

    def spy(A, b, X):
        rows.append(len(X))
        return residual_sums(A, b, X)

    monkeypatch.setattr(problems, "_residual_sums", spy)
    return rows


@needs_long_double
@pytest.mark.parametrize("solver, ridge", [("oupgm", 0.0), ("oudgm", 2.0), ("sug", 2.0)])
def test_f_full_of_a_run_is_accurate_to_rounding(solver, ridge, fallback_rows):
    """The 2001 iterates, eight blocks of 256, are all expanded around the
    last one."""
    inst = synth_lasso(p=30, n=2000, sparsity=5, noise=0.1, seed=4,
                       l1_weight=0.1, ridge_weight=ridge)
    problem = lasso_problem(inst)
    x0 = np.zeros(inst.p)
    T = 2000
    if solver == "sug":
        _, Mv = problem.holder_constants()
        trace = sug_run(problem, x0, Mv, 1e-3, T, 4)[1]
    else:
        run = upgm_run if solver == "oupgm" else udgm_run
        order = sample_order("random", inst.n, T, seed=4)
        trace = run(problem, order, x0, 1.0, 1e-3, T)[1]
    X = np.stack([x0, *trace.x_next[:-1]])
    assert _max_rel_error(trace.f_full, inst, X) <= 1e-14
    assert fallback_rows == []


def test_residual_form_multiplies_up_to_256_points_at_once():
    """A lasso with 2p >= n sums every iterate in residual form.  The 601
    iterates of a run go 256 at a time, each block against the 200 rows of A
    at once, not all 601 against blocks of block_len(8 * 601) = 109 rows,
    which would read A once per 109 rows for every 601 points."""
    inst = synth_lasso(p=100, n=200, sparsity=5, noise=0.1, seed=4, l1_weight=0.1)
    problem = lasso_problem(inst)
    x0 = np.zeros(inst.p)
    trace = upgm_run(problem, sample_order("random", inst.n, 600, seed=4), x0, 1.0, 1e-3, 600)[1]
    X = np.stack([x0, *trace.x_next[:-1]])
    want = []
    for s in range(0, len(X), 256):
        R = inst.A @ X[s:s + 256].T
        R -= inst.b[:, None]
        want.extend(np.square(R).sum(axis=0) / inst.n
                    + problem.regularizer.values(X[s:s + 256]))
    assert np.array_equal(trace.f_full, want)


@needs_long_double
def test_single_point_block_is_accurate_to_rounding(fallback_rows):
    """A first block of 64 points builds A'A; the single point after it is
    then evaluated in the Gram form, around itself."""
    inst = synth_lasso(p=30, n=2000, sparsity=5, noise=0.1, seed=5, l1_weight=0.1)
    X = np.random.default_rng(5).normal(size=(65, inst.p))
    problem = lasso_problem(inst)
    problem.values(X[:64])
    assert _max_rel_error(problem.values(X[64:]), inst, X[64:]) <= 1e-14
    assert fallback_rows == []


@pytest.mark.parametrize(
    "n, p, blocks, residual_rows",
    [
        (40, 20, [300], [300]),                # 2p = n: never the Gram form
        (44, 20, [110], []),                   # np / (2(n - 2p)) = 110 points
        (44, 20, [2, 109, 200, 1], [2, 109]),  # residual until a block repays A'A
        (2000, 30, [15, 16, 1], [15]),         # np / (2(n - 2p)) = 15.5 points
    ],
)
def test_gram_form_is_built_only_where_it_repays(n, p, blocks, residual_rows, fallback_rows):
    inst = synth_lasso(p=p, n=n, sparsity=2, noise=0.1, seed=6, l1_weight=0.1)
    problem = lasso_problem(inst)
    X = np.random.default_rng(6).normal(size=(sum(blocks), p)) * 1e-2
    got = []
    for s, k in zip(np.cumsum([0, *blocks[:-1]]), blocks):
        got.extend(problem.values(X[s:s + k]))
    assert fallback_rows == residual_rows
    np.testing.assert_allclose(got, [problem.value(x) for x in X], rtol=1e-12, atol=0.0)


@needs_long_double
def test_near_collinear_design_falls_back_and_stays_accurate(fallback_rows):
    """Nonnegative rows near 1 make A'A nearly rank one: around a centre far
    from the fit, the Gram form of a well-fitting point cancels to a
    thousandth of its terms' size and alone loses three or more digits."""
    rng = np.random.default_rng(1)
    n, p = 2000, 30
    A = 1.0 + 0.01 * rng.random((n, p))
    x_fit = rng.normal(size=p)
    inst = LassoInstance(A=A, b=A @ x_fit + 0.1 * rng.normal(size=n), l1_weight=0.1)
    X = x_fit + rng.normal(size=(300, p)) * np.logspace(-6, 0, 300)[:, None]
    problem = lasso_problem(inst)
    got = np.concatenate([problem.values(X[s:s + 128]) for s in range(0, len(X), 128)])
    assert 0 < sum(fallback_rows) < len(X)
    assert _max_rel_error(got, inst, X) <= 1e-14
