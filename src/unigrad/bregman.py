"""Bregman mapping, descent test, and backtracking primitives.

The Bregman mapping of a smooth component g at x with modulus M is

    B_{M,g}(x) = argmin_y  g(x) + <grad g(x), y - x> + M * dist(x, y) + h(y)

where dist is the geometry's Bregman distance.  For the squared Euclidean
geometry the minimizer is prox_{h/M}(x - grad g(x) / M).

gamma(M_v, v, eps) is the adaptive step-size ceiling: once a trial modulus
exceeds it, the inexact descent condition with slack eps/2 is guaranteed,
so the backtracking doubling always terminates with 2 L_next <= 2 gamma.
"""

from typing import Callable

import numpy as np

from .oracles import Regularizer


class LineSearchOverflow(RuntimeError):
    """Backtracking exceeded the doubling cap; oracle or geometry misfit."""


MAX_DOUBLINGS = 64


def gamma(holder_modulus: float, holder_degree: float, eps: float) -> float:
    """Step-size threshold (1/eps)^((1-v)/(1+v)) * M_v^(2/(1+v)).

    For degree v = 1 this is just the Lipschitz modulus; for v < 1 it grows
    as eps shrinks, trading accuracy for step size.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 <= holder_degree <= 1.0:
        raise ValueError(f"holder_degree must lie in [0, 1], got {holder_degree}")
    if holder_modulus <= 0:
        raise ValueError(f"holder_modulus must be positive, got {holder_modulus}")
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
    trials.
    """
    if M <= 0:
        raise ValueError(f"modulus M must be positive, got {M}")
    x = np.asarray(x, dtype=float)
    g_grad = np.asarray(g_grad, dtype=float)
    if g_grad.shape != x.shape:
        raise ValueError(f"gradient shape {g_grad.shape} != point shape {x.shape}")
    return regularizer.prox(x - g_grad / M, 1.0 / M)


def _descent_ok(g_value, g_grad, g_value_hat, x, x_hat, M, eps, geometry):
    """Inexact descent test with slack eps/2:

        g(x_hat) <= g(x) + <grad g(x), x_hat - x> + M * dist(x, x_hat) + eps/2.

    Guaranteed to hold whenever M exceeds gamma(M_v, v, eps).
    """
    bound = (
        g_value
        + float(g_grad @ (x_hat - x))
        + M * geometry.bregman(x, x_hat)
        + 0.5 * eps
    )
    return g_value_hat <= bound


def backtrack(
    initial_L: float, trial: Callable[[float], tuple[object, bool]]
) -> tuple[int, float, object]:
    """Doubling line search over trial moduli M = 2^i * initial_L.

    trial(M) returns (candidate, accepted).  Returns (i, L_next, candidate)
    for the smallest accepted i, with L_next = 2^(i-1) * initial_L (so the
    accepted modulus equals 2 * L_next).

    Raises LineSearchOverflow after MAX_DOUBLINGS rejected trials.
    """
    if initial_L <= 0:
        raise ValueError(f"initial_L must be positive, got {initial_L}")
    for i in range(MAX_DOUBLINGS + 1):
        M = (2.0**i) * initial_L
        candidate, accepted = trial(M)
        if accepted:
            return i, 0.5 * M, candidate
    raise LineSearchOverflow(
        f"no accepted modulus after {MAX_DOUBLINGS} doublings from L = {initial_L}; "
        "check the oracle's Holder certificate and the geometry"
    )


def l1_optimality_residual(
    smooth_grad: np.ndarray, x: np.ndarray, l1_weight: float
) -> float:
    """Max violation of 0 in smooth_grad + l1_weight * d|.|(x), coordinatewise.

    Zero (up to tolerance) certifies optimality of composite problems whose
    nonsmooth part is l1_weight * ||x||_1.
    """
    smooth_grad = np.asarray(smooth_grad, dtype=float)
    x = np.asarray(x, dtype=float)
    active = x != 0
    res = np.zeros_like(smooth_grad)
    res[active] = np.abs(smooth_grad[active] + l1_weight * np.sign(x[active]))
    res[~active] = np.maximum(np.abs(smooth_grad[~active]) - l1_weight, 0.0)
    return float(res.max()) if res.size else 0.0
