"""Online universal primal gradient method, and the round driver it shares
with the dual method (udgm).

Each round t receives one component g_t, backtracks a modulus M = 2^i * L_t
until the inexact descent condition with slack eps/2 holds at the Bregman
mapping, then steps to that mapping:

    x_{t+1} = B_{M, g_t}(x_t),    L_{t+1} = M / 2.

The running output is the step-size weighted average of the produced
iterates, xbar = sum_t x_{t+1} / L_{t+1} / sum_t 1 / L_{t+1}.  The doubling
cap guarantees 2 L_{t+1} <= 2 gamma(M_v, v, eps) for every round.  The
fixed-step variant replaces the search by one always-accepted trial at
M = 2 gamma(M_v, v, eps), recorded as i_t = 0 and L_{t+1} = gamma.
"""

import time

import numpy as np

from .bregman import backtrack, bregman_map, gamma, _descent_ok
from .oracles import CompositeProblem, oracle_value
from .trace import RunTrace


def upgm_run(
    problem: CompositeProblem,
    order: np.ndarray,
    x0: np.ndarray,
    L0: float,
    eps: float,
    T: int,
    trace_meta: dict | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Run rounds t = 0..T visiting components order[t].

    Returns (xbar, trace) where xbar is the weighted average iterate and the
    trace holds one row per round.
    """
    return _run_rounds(problem, order, x0, eps, T, trace_meta, L0=L0)


def upgm_fixed_step_run(
    problem: CompositeProblem,
    order: np.ndarray,
    x0: np.ndarray,
    eps: float,
    T: int,
    holder_modulus: float | None = None,
    holder_degree: float | None = None,
    trace_meta: dict | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Fixed-step variant: every round applies the Bregman mapping with
    modulus 2 * gamma(M_v, v, eps), no line search.

    Holder constants default to the problem's stream-level certificate.
    """
    return _run_rounds(problem, order, x0, eps, T, trace_meta,
                       holder_modulus=holder_modulus, holder_degree=holder_degree)


def _run_rounds(problem, order, x0, eps, T, trace_meta, L0=None,
                holder_modulus=None, holder_degree=None, model=None):
    """The round loop of both online methods and their fixed-step variants.

    With L0 each round backtracks from L_t; without it each round takes one
    accepted trial at 2 gamma(M_v, v, eps), the Holder constants defaulting
    to the problem's.  Without a model (oupgm) the Bregman point is the next
    iterate and the weighted average is returned.  With a DualModel (oudgm)
    the next iterate is the model's minimizer after folding in the round's
    linearization at the accepted modulus, and the final iterate is returned;
    the fixed-step dual round computes no Bregman point.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    order = np.asarray(order, dtype=int)
    if order.shape != (T + 1,):
        raise ValueError(f"order has shape {order.shape}, expected ({T + 1},)")
    if order.size and (order.min() < 0 or order.max() >= problem.n_components):
        raise ValueError(
            f"order indexes components outside [0, {problem.n_components})"
        )
    algorithm = "oupgm" if model is None else "oudgm"
    trace = RunTrace.start(algorithm, eps, T, x0, L0, trace_meta)
    fixed = L0 is None
    if fixed:
        if holder_modulus is None or holder_degree is None:
            degree, modulus = problem.holder_constants()
            holder_degree = degree if holder_degree is None else holder_degree
            holder_modulus = modulus if holder_modulus is None else holder_modulus
        L = gamma(holder_modulus, holder_degree, eps)
        trace.extra_meta.update(
            {"fixed_step": True, "Mv": holder_modulus, "v": holder_degree}
        )
    elif L0 <= 0:
        raise ValueError(f"L0 must be positive, got {L0}")
    else:
        L = L0
    geometry = problem.geometry
    regularizer = problem.regularizer
    x = trace.x0.copy()
    weight_sum = 0.0
    weighted_x = np.zeros_like(x)
    phi_star = None
    start = time.perf_counter()
    for t in range(T + 1):
        k = int(order[t])
        gt = problem.components[k]
        g_value = oracle_value(gt, x, t, k)
        g_grad = np.asarray(gt.grad(x), dtype=float)
        i_t = 0
        if not fixed:
            def trial(M: float):
                y = bregman_map(regularizer, x, g_grad, M)
                g_y = oracle_value(gt, y, t, k)
                return (y, g_y), _descent_ok(g_value, g_grad, g_y, x, y, M, eps, geometry)

            i_t, L, (y, g_y) = backtrack(L, trial)
        elif model is None:
            y = bregman_map(regularizer, x, g_grad, 2.0 * L)
            g_y = oracle_value(gt, y, t, k)
        f_xt = g_value + regularizer.value(x)
        if model is None:
            x = y
            f_next = f_y = g_y + regularizer.value(y)
            weight = 1.0 / L
            weight_sum += weight
            weighted_x = weighted_x + weight * y
        else:
            coeff = 0.5 / L  # the accepted modulus is 2 L, so coeff = 1 / M
            x_next = model.argmin(regularizer, coeff, g_grad)
            model.fold(coeff, g_value, g_grad, x)
            x = x_next
            f_next = oracle_value(gt, x, t, k) + regularizer.value(x)
            f_y = f_next if fixed else g_y + regularizer.value(y)
            phi_star = model.value(x, regularizer)
        trace.add_row(
            t, i_t, L, f_xt, f_next, f_y, np.nan, time.perf_counter() - start,
            component=k, x_next=x, phi_star=phi_star,
        )
    trace.fill_f_full(problem.values)
    return (weighted_x / weight_sum if model is None else x), trace

