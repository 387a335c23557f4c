"""Shared fixtures: the battery of line-searched online runs that several
acceptance checks evaluate, built once per session."""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from unigrad.harness import evaluate_regret, reference_solution, sample_order
from unigrad.problems import (
    lasso_problem,
    steiner_problem,
    synth_lasso,
    synth_steiner,
)
from unigrad.udgm import udgm_run
from unigrad.upgm import upgm_run

BATTERY_T = 2000
BATTERY_SEEDS = range(10)
BATTERY_EPS = (1e-1, 1e-2)


@dataclass
class OnlineRun:
    family: str
    algorithm: str
    seed: int
    eps: float
    problem: object
    trace: object
    x_star: np.ndarray
    f_star: float


@dataclass
class OnlineBattery:
    runs: list
    build_seconds: float


def _stream_problem(family: str, seed: int, T: int):
    """One online stream: fresh lasso samples visited in order, or random
    draws from a fixed set of Steiner centers."""
    if family == "lasso":
        inst = synth_lasso(
            p=20, n=T + 1, sparsity=5, noise=0.1, seed=seed, l1_weight=0.1
        )
        return lasso_problem(inst), "sequential"
    inst = synth_steiner(p=5, m=50, seed=seed)
    return steiner_problem(inst), "random"


@pytest.fixture(scope="session")
def online_battery():
    """80 runs: 2 families x 10 seeds x 2 eps x {O-UPGM, O-UDGM}."""
    runs = []
    start = time.time()
    for family in ("lasso", "steiner"):
        for seed in BATTERY_SEEDS:
            problem, order_kind = _stream_problem(family, seed, BATTERY_T)
            ref = reference_solution(problem, tol=1e-10)
            x0 = np.zeros(problem.dimension)
            order = sample_order(order_kind, problem.n_components, BATTERY_T, seed)
            for eps in BATTERY_EPS:
                for alg, runner in (("oupgm", upgm_run), ("oudgm", udgm_run)):
                    _, trace = runner(problem, order, x0, 1.0, eps, BATTERY_T)
                    runs.append(
                        OnlineRun(
                            family=family,
                            algorithm=alg,
                            seed=seed,
                            eps=eps,
                            problem=problem,
                            trace=trace,
                            x_star=ref.x,
                            f_star=ref.f,
                        )
                    )
    return OnlineBattery(runs=runs, build_seconds=time.time() - start)


@pytest.fixture(scope="session")
def battery_reports(online_battery):
    """Per battery run, in list position, thm1 and thm2 as evaluate_regret
    gives them: bound -> (r0, prefix lhs, prefix rhs)."""
    return [
        {bound: evaluate_regret(run.trace, run.problem, run.x_star, bound)
         for bound in ("thm1", "thm2")}
        for run in online_battery.runs
    ]
