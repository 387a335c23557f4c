"""Online universal dual gradient method.

The method maintains an aggregated model

    phi_t(x) = dist(x_0, x) + <s, x> + A * h(x) + c,

where each round adds one scaled linearization of its component.  Round t
backtracks a modulus M = 2^i * L_t until the Bregman point at the current
iterate passes the inexact descent test, exactly as in upgm (the model
value at that point certifies the per-round progress the aggregate bound
needs).  With L_{t+1} = M / 2 the round's linearization is folded into the
model with coefficient 1 / M = 1 / (2 L_{t+1}), and the next iterate is

    x_{t+1} = argmin_x phi_t(x) + (1/M) [g_t(x_t) + <grad g_t(x_t), x - x_t> + h(x)],

which minimizes phi_{t+1} exactly.  It is computed once per round, at the
accepted modulus.  The rounds run in the driver shared with upgm.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import ProxFunction
from .oracles import CompositeProblem, Regularizer
from .trace import RunTrace
from .upgm import _run_rounds


@dataclass
class DualModel:
    """Aggregated dual model phi(x) = dist(anchor, x) + <s, x> + A h(x) + c."""

    geometry: ProxFunction
    anchor: np.ndarray
    s: np.ndarray = field(default=None)  # type: ignore[assignment]
    A: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=float).copy()
        if self.s is None:
            self.s = np.zeros_like(self.anchor)

    def value(self, x: np.ndarray, regularizer: Regularizer) -> float:
        x = np.asarray(x, dtype=float)
        return (
            self.geometry.bregman(self.anchor, x)
            + float(self.s @ x)
            + self.A * regularizer.value(x)
            + self.c
        )

    def argmin(
        self, regularizer: Regularizer, extra_coeff: float, extra_grad: np.ndarray
    ) -> np.ndarray:
        """Minimizer of the model plus the linearization term
        extra_coeff * [<extra_grad, x> + h(x)].

        With w = s + extra_coeff * extra_grad and B = A + extra_coeff, the
        minimizer is prox_{B h}(anchor - w).
        """
        if extra_coeff < 0:
            raise ValueError(f"extra_coeff must be nonnegative, got {extra_coeff}")
        w = self.s + extra_coeff * np.asarray(extra_grad, dtype=float)
        return regularizer.prox(self.anchor - w, self.A + extra_coeff)

    def fold(
        self, coeff: float, g_value: float, g_grad: np.ndarray, x_t: np.ndarray
    ) -> None:
        """Add coeff * [g(x_t) + <grad g(x_t), x - x_t> + h(x)] to the model."""
        g_grad = np.asarray(g_grad, dtype=float)
        x_t = np.asarray(x_t, dtype=float)
        self.s = self.s + coeff * g_grad
        self.A += coeff
        self.c += coeff * (g_value - float(g_grad @ x_t))


def udgm_run(
    problem: CompositeProblem,
    order: np.ndarray,
    x0: np.ndarray,
    L0: float,
    eps: float,
    T: int,
) -> tuple[np.ndarray, RunTrace]:
    """Run rounds t = 0..T visiting components order[t].

    Returns (x_final, trace); the final iterate minimizes the last model.
    """
    model = DualModel(geometry=problem.geometry, anchor=x0)
    return _run_rounds(problem, order, x0, eps, T, L0=L0, model=model)


def udgm_fixed_step_run(
    problem: CompositeProblem,
    order: np.ndarray,
    x0: np.ndarray,
    eps: float,
    T: int,
    holder_modulus: float | None = None,
    holder_degree: float | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Fixed-step variant: every round folds its linearization with the
    constant coefficient 1 / (2 gamma(M_v, v, eps)); no line search.
    """
    model = DualModel(geometry=problem.geometry, anchor=x0)
    return _run_rounds(problem, order, x0, eps, T,
                       holder_modulus=holder_modulus, holder_degree=holder_degree,
                       model=model)


def check_dual_target_bound(trace: RunTrace):
    """Prefix bound: for every t,

        sum_{i<=t} f_{g_i}(y_i) / (2 L_{i+1}) <= phi*_{t+1} + S_t * eps / 4.

    Requires an in-memory trace with recorded model minima.  Returns
    (ok, worst) where worst is the largest normalized violation
    (lhs - rhs) / (1 + |rhs|) over prefixes, and ok says it is at most 1e-9,
    the relative slack every bound check allows.
    """
    if len(trace.phi_star) != trace.n_rows:
        raise ValueError("trace lacks recorded model minima; run in-memory")
    eps = trace.eps
    acc = 0.0
    S = 0.0
    worst = -np.inf
    for k in range(trace.n_rows):
        acc += trace.f_gt_yt[k] / (2.0 * trace.L_next[k])
        S += 1.0 / trace.L_next[k]
        rhs = trace.phi_star[k] + S * eps / 4.0
        worst = max(worst, (acc - rhs) / (1.0 + abs(rhs)))
    return worst <= 1e-9, worst
