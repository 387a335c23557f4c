"""Online universal dual gradient method.

The method maintains an aggregated model

    phi_t(x) = dist(x_0, x) + <s, x> + A * h(x) + c,

where each round adds one scaled linearization of its component.  Round t
backtracks a modulus M = 2^i * L_t until the Bregman point at the current
iterate passes the inexact descent test, exactly as in upgm (the model
value at that point certifies the per-round progress the aggregate bound
needs).  With L_{t+1} = M / 2 the round's linearization is folded into the
model with coefficient 1 / M = 1 / (2 L_{t+1}),

    phi_{t+1}(x) = phi_t(x) + (1/M) [g_t(x_t) + <grad g_t(x_t), x - x_t> + h(x)],

and the next iterate is its minimizer, x_{t+1} = argmin_x phi_{t+1}(x),
computed once per round, at the accepted modulus.  The rounds run in the
driver shared with upgm.

The constant c = sum_t (1/M_t) [g_t(x_t) - <grad g_t(x_t), x_t>] belongs to
the model but not to its minimizer, which depends on s and A alone; so
DualModel stores only the anchor, s and A.
"""

from dataclasses import dataclass, field

import numpy as np

from .oracles import CompositeProblem, Regularizer
from .trace import RunTrace
from .upgm import _run_rounds


@dataclass
class DualModel:
    """The part of phi(x) = dist(anchor, x) + <s, x> + A h(x) + c that its
    minimizer reads: the anchor, s and A, starting from the empty model
    s = 0, A = 0."""

    anchor: np.ndarray
    s: np.ndarray = field(init=False)
    A: float = field(default=0.0, init=False)

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=float).copy()
        self.s = np.zeros_like(self.anchor)

    def fold(self, coeff: float, g_grad: np.ndarray) -> None:
        """Add coeff * [<grad g(x_t), x> + h(x)] to the model: the round's
        linearization without its constant."""
        if not 0 <= coeff < np.inf:
            raise ValueError(f"coeff must be nonnegative and finite, got {coeff}")
        self.s = self.s + coeff * np.asarray(g_grad, dtype=float)
        self.A += coeff

    def argmin(self, regularizer: Regularizer) -> np.ndarray:
        """The model's minimizer, prox_{A h}(anchor - s)."""
        return regularizer.prox(self.anchor - self.s, self.A)


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
    return _run_rounds(problem, order, x0, eps, T, L0=L0, model=DualModel(anchor=x0))


def udgm_fixed_step_run(
    problem: CompositeProblem,
    order: np.ndarray,
    x0: np.ndarray,
    eps: float,
    T: int,
) -> tuple[np.ndarray, RunTrace]:
    """Fixed-step variant: every round folds its linearization with the
    constant coefficient 1 / (2 gamma(M_v, v, eps)), (v, M_v) the problem's
    Holder certificate; no line search.
    """
    return _run_rounds(problem, order, x0, eps, T, model=DualModel(anchor=x0))
