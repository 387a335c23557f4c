"""Oracle-call accounting: every g_i evaluation goes through the problem's
one ComponentOracle, so wrapping its fields counts every call."""

import dataclasses

import numpy as np
import pytest

from unigrad import harness, sug, upgm
from unigrad.bregman import bregman_map
from unigrad.harness import RunConfig, run_experiment, sample_order
from unigrad.oracles import Regularizer
from unigrad.problems import lasso_problem, steiner_problem, synth_lasso, synth_steiner
from unigrad.sug import SugConfig, sug_run
from unigrad.udgm import udgm_fixed_step_run, udgm_run
from unigrad.upgm import upgm_fixed_step_run, upgm_run

T = 60

PROBLEMS = {
    "lasso": lambda: lasso_problem(
        synth_lasso(p=5, n=40, sparsity=2, noise=0.2, seed=1,
                    l1_weight=0.1, ridge_weight=1.0)
    ),
    "steiner": lambda: steiner_problem(synth_steiner(p=4, m=30, seed=2)),
}


def _counted(problem):
    """Swap in a counting copy of problem's oracle; returns the counts."""
    counts = {"value": 0, "grad": 0}
    oracle = problem.components

    def value(i, x):
        counts["value"] += 1
        return oracle.value(i, x)

    def grad(i, x):
        counts["grad"] += 1
        return oracle.grad(i, x)

    problem.components = dataclasses.replace(oracle, value=value, grad=grad)
    return counts


def _order(problem):
    return sample_order("random", problem.n_components, T, seed=3)


@pytest.mark.parametrize("family", sorted(PROBLEMS))
@pytest.mark.parametrize("runner, reads_next", [(upgm_run, 0), (udgm_run, 1)],
                         ids=["oupgm", "oudgm"])
def test_adaptive_rounds_read_each_trial_once(family, runner, reads_next):
    """g_t at x_t, one value per trial, and oudgm's g_t at x_{t+1}."""
    problem = PROBLEMS[family]()
    counts = _counted(problem)
    _, trace = runner(problem, _order(problem), np.zeros(problem.dimension), 1.0, 1e-2, T)
    trials = sum(i + 1 for i in trace.i_t)
    assert trials > T + 1  # some rounds backtracked
    assert counts == {"value": (1 + reads_next) * (T + 1) + trials, "grad": T + 1}


@pytest.mark.parametrize("family", sorted(PROBLEMS))
@pytest.mark.parametrize("runner", [upgm_fixed_step_run, udgm_fixed_step_run],
                         ids=["oupgm", "oudgm"])
def test_fixed_step_rounds_read_two_values_and_one_gradient(family, runner):
    problem = PROBLEMS[family]()
    counts = _counted(problem)
    runner(problem, _order(problem), np.zeros(problem.dimension), 1e-1, T)
    assert counts == {"value": 2 * (T + 1), "grad": T + 1}


def _spy_maps_and_proxes(monkeypatch):
    """Count every Bregman mapping the round driver takes and every prox."""
    maps, proxes = [], []
    prox = Regularizer.prox

    def map_spy(*args):
        maps.append(None)
        return bregman_map(*args)

    def prox_spy(self, z, tau):
        proxes.append(None)
        return prox(self, z, tau)

    monkeypatch.setattr(upgm, "bregman_map", map_spy)
    monkeypatch.setattr(Regularizer, "prox", prox_spy)
    return maps, proxes


@pytest.mark.parametrize("family", sorted(PROBLEMS))
@pytest.mark.parametrize("fixed", [False, True], ids=["adaptive", "fixed-step"])
def test_oupgm_maps_once_per_trial_and_proxes_only_in_its_maps(
    family, fixed, monkeypatch
):
    """One Bregman mapping per trial of the line search (one per round at a
    fixed step), and every prox is a mapping's."""
    maps, proxes = _spy_maps_and_proxes(monkeypatch)
    problem = PROBLEMS[family]()
    x0 = np.zeros(problem.dimension)
    if fixed:
        _, trace = upgm_fixed_step_run(problem, _order(problem), x0, 1e-1, T)
        trials = sum(i + 1 for i in trace.i_t)
        assert trials == T + 1
    else:
        _, trace = upgm_run(problem, _order(problem), x0, 1.0, 1e-2, T)
        trials = sum(i + 1 for i in trace.i_t)
        assert trials > T + 1  # some rounds backtracked
    assert len(maps) == trials
    assert len(proxes) == len(maps)


@pytest.mark.parametrize("family", sorted(PROBLEMS))
@pytest.mark.parametrize("fixed", [False, True], ids=["adaptive", "fixed-step"])
def test_oudgm_takes_bregman_distances_only_in_its_trials(family, fixed, monkeypatch):
    """One Bregman mapping per descent-test trial and none at a fixed step:
    the dual rounds fold and minimize without a Bregman point, so every other
    prox is one of the T + 1 model minimizers."""
    maps, proxes = _spy_maps_and_proxes(monkeypatch)
    problem = PROBLEMS[family]()
    x0 = np.zeros(problem.dimension)
    if fixed:
        udgm_fixed_step_run(problem, _order(problem), x0, 1e-1, T)
        assert maps == []
    else:
        _, trace = udgm_run(problem, _order(problem), x0, 1.0, 1e-2, T)
        trials = sum(i + 1 for i in trace.i_t)
        assert trials > T + 1  # some rounds backtracked
        assert len(maps) == trials
    assert len(proxes) == len(maps) + T + 1


def _spy(monkeypatch, owner, name):
    """Count the calls of owner.name; returns the list each call appends to."""
    calls = []
    fn = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("family", sorted(PROBLEMS))
def test_sug_reads_every_component_once_then_two_values_per_iteration(family, monkeypatch):
    """Past initialization an iteration reads one gradient and two values,
    and takes one subproblem, one update and one prox: the calls the
    benchmark's per-layer spans count."""
    problem = PROBLEMS[family]()
    counts = _counted(problem)
    steps = {name: _spy(monkeypatch, owner, name) for owner, name in
             ((sug, "sug_subproblem"), (sug, "sug_update"), (Regularizer, "prox"))}
    n, K = problem.n_components, 45
    sug_run(problem, np.zeros(problem.dimension),
            SugConfig(M=5.0, eps=1e-2, seed=4, max_iters=K))
    assert counts == {"value": 2 * K, "grad": n + K}
    assert {name: len(calls) for name, calls in steps.items()} == dict.fromkeys(steps, K)


@pytest.mark.parametrize("family", sorted(PROBLEMS))
def test_regret_ledger_reads_f_star_in_one_batched_call(family):
    """evaluate_regret reads g_t(x*) for all T + 1 rows through one
    values(idx, x*) call, and no component one at a time."""
    problem = PROBLEMS[family]()
    _, trace = upgm_run(problem, _order(problem), np.zeros(problem.dimension), 1.0, 1e-2, T)
    x_star = harness.reference_solution(problem).x
    counts = _counted(problem)
    batches = []
    oracle = problem.components

    def values(idx, x):
        batches.append(len(idx))
        return oracle.values(idx, x)

    problem.components = dataclasses.replace(oracle, values=values)
    harness.evaluate_regret(trace, problem, x_star, "thm1")
    assert counts == {"value": 0, "grad": 0}
    assert batches == [T + 1]


@pytest.mark.parametrize("family", sorted(PROBLEMS))
def test_batch_reads_no_component(family, tmp_path, monkeypatch):
    problem = PROBLEMS[family]()
    counts = _counted(problem)
    monkeypatch.setattr(harness, "problem_from_descriptor", lambda desc: problem)
    run_experiment(RunConfig(algorithm="batch", problem={"kind": family},
                             out=str(tmp_path), T=T))
    assert counts == {"value": 0, "grad": 0}
