"""Bregman mapping and the constants of the line search.

The Bregman mapping of a smooth component g at x with modulus M is

    B_{M,g}(x) = argmin_y  g(x) + <grad g(x), y - x> + M * dist(x, y) + h(y)

where dist is the geometry's Bregman distance.  For the squared Euclidean
geometry, dist(x, y) = 0.5 ||y - x||^2, the minimizer is
prox_{h/M}(x - grad g(x) / M).

The shared round loop (upgm._run_rounds) backtracks the doublings M = 2^i * L,
i <= MAX_DOUBLINGS, until the inexact descent test with slack eps/2,

    g(x_hat) <= g(x) + <grad g(x), x_hat - x> + M * dist(x, x_hat) + eps/2,

holds at x_hat = B_{M,g}(x).  gamma(M_v, v, eps) is the adaptive step-size
ceiling: once a trial modulus exceeds it the test is guaranteed to hold, so
the doubling always terminates with 2 L_next <= 2 gamma.
"""

import math

import numpy as np

from .oracles import Regularizer


class LineSearchOverflow(RuntimeError):
    """Backtracking exceeded the doubling cap; oracle or geometry misfit."""


class ModulusUnderflow(RuntimeError):
    """The halved modulus L fell below the smallest normal float: on a stream
    whose every first trial passes, L halves each round until 1/L overflows."""


MAX_DOUBLINGS = 64


def gamma(holder_modulus: float, holder_degree: float, eps: float) -> float:
    """Step-size threshold (1/eps)^((1-v)/(1+v)) * M_v^(2/(1+v)).

    For degree v = 1 this is just the Lipschitz modulus; for v < 1 it grows
    as eps shrinks, trading accuracy for step size.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 0.0 <= holder_degree <= 1.0:
        raise ValueError(f"holder_degree must lie in [0, 1], got {holder_degree}")
    if not 0 < holder_modulus < math.inf:
        raise ValueError(
            f"holder_modulus must be positive and finite, got {holder_modulus}"
        )
    v = holder_degree
    return (1.0 / eps) ** ((1.0 - v) / (1.0 + v)) * holder_modulus ** (2.0 / (1.0 + v))


def bregman_map(
    regularizer: Regularizer,
    x: np.ndarray,
    g_grad: np.ndarray,
    M: float,
) -> np.ndarray:
    """Closed-form Bregman mapping of the linearized model at x: its
    minimizer x_hat.

    The gradient at x is precomputed so the line search can reuse it across
    trials; the round driver checks its shape once, when it reads it.
    """
    if M <= 0:
        raise ValueError(f"modulus M must be positive, got {M}")
    return regularizer.prox(x - g_grad / M, 1.0 / M)
