"""Online universal primal gradient method, and the round driver it shares
with the dual method (udgm).

Each round t receives one component g_t, backtracks a modulus M = 2^i * L_t
until the inexact descent condition with slack eps/2 holds at the Bregman
mapping, then steps to that mapping:

    x_{t+1} = B_{M, g_t}(x_t),    L_{t+1} = M / 2.

The output is the step-size weighted average of the produced iterates,
xbar = sum_t x_{t+1} / L_{t+1} / sum_t 1 / L_{t+1}, taken after the rounds
from the iterates and moduli the trace holds.  The doubling
cap guarantees 2 L_{t+1} <= 2 gamma(M_v, v, eps) for every round; past
MAX_DOUBLINGS rejected doublings the round raises LineSearchOverflow, and
a round whose L_{t+1} falls below the smallest normal float raises
ModulusUnderflow before any weight 1 / L_{t+1} overflows.  The fixed-step
variant replaces the search by one always-accepted trial at
M = 2 gamma(M_v, v, eps), recorded as i_t = 0 and L_{t+1} = gamma, with
(v, M_v) the stream's Holder certificate (problem.holder_constants): the
fixed-step corollary holds only for constants the components satisfy; a
null L0 marks its trace.
"""

import math
import sys
import time

import numpy as np

from .bregman import MAX_DOUBLINGS, LineSearchOverflow, ModulusUnderflow, bregman_map, gamma
from .oracles import CompositeProblem, check_answer
from .trace import RunTrace


def upgm_run(
    problem: CompositeProblem,
    order: np.ndarray,
    x0: np.ndarray,
    L0: float,
    eps: float,
    T: int,
) -> tuple[np.ndarray, RunTrace]:
    """Run rounds t = 0..T visiting components order[t].

    Returns (xbar, trace) where xbar is the weighted average iterate and the
    trace holds one row per round.
    """
    return _run_rounds(problem, order, x0, eps, T, L0=L0)


def upgm_fixed_step_run(
    problem: CompositeProblem,
    order: np.ndarray,
    x0: np.ndarray,
    eps: float,
    T: int,
) -> tuple[np.ndarray, RunTrace]:
    """Fixed-step variant: every round applies the Bregman mapping with
    modulus 2 * gamma(M_v, v, eps), no line search, (v, M_v) the problem's
    Holder certificate.
    """
    return _run_rounds(problem, order, x0, eps, T)


def _run_rounds(problem, order, x0, eps, T, L0=None, model=None):
    """The round loop of both online methods and their fixed-step variants.

    With L0 each round backtracks from L_t; without it each round takes one
    accepted trial at 2 gamma(M_v, v, eps), (v, M_v) the problem's Holder
    certificate.  Without a model (oupgm) the Bregman point is the next
    iterate and the weighted average is returned.  With a DualModel (oudgm)
    the round folds its linearization into the model at the accepted
    modulus, the next iterate is the model's minimizer, and the final
    iterate is returned; the fixed-step dual round computes no Bregman
    point.

    A trial costs one bregman_map, one value of g_t and one difference
    y - x for both terms of the descent test; h at the round's point is
    carried from the last round, and each row is recorded once.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    order = np.asarray(order, dtype=int)
    if order.shape != (T + 1,):
        raise ValueError(f"order has shape {order.shape}, expected ({T + 1},)")
    if order.size and (order.min() < 0 or order.max() >= problem.n_components):
        raise ValueError(
            f"order indexes components outside [0, {problem.n_components})"
        )
    algorithm = "oupgm" if model is None else "oudgm"
    fixed = L0 is None
    trace = RunTrace(algorithm, eps, T, x0, L0)
    if fixed:
        v, Mv = problem.holder_constants()
        L = gamma(Mv, v, eps)
    elif not 0 < L0 < math.inf:
        raise ValueError(f"L0 must be positive and finite, got {L0}")
    else:
        L = L0
    regularizer = problem.regularizer
    value, grad = problem.components.value, problem.components.grad
    x = trace.x0.copy()
    h_x = regularizer.value(x)  # h at the round's point, carried from the last round
    start = time.perf_counter_ns()
    for t, k in enumerate(order.tolist()):
        g_value = float(value(k, x))
        g_grad = np.asarray(grad(k, x), dtype=float)
        if not math.isfinite(g_value) or g_grad.shape != x.shape:
            check_answer(k, t, g_value, g_grad, x)
        i_t = 0
        if not fixed:
            for i_t in range(MAX_DOUBLINGS + 1):
                M = (2.0**i_t) * L
                y = bregman_map(regularizer, x, g_grad, M)
                g_y = float(value(k, y))
                if not math.isfinite(g_y):
                    check_answer(k, t, g_y)
                diff = y - x  # the descent test, with dist(x, y) = 0.5 ||y - x||^2
                if g_y <= (g_value + float(g_grad.dot(diff)) + M * (0.5 * float(diff.dot(diff)))
                           + 0.5 * eps):
                    break
            else:
                raise LineSearchOverflow(
                    f"no accepted modulus after {MAX_DOUBLINGS} doublings from L = {L}; "
                    "check the oracle's Holder certificate and the geometry"
                )
            L = 0.5 * M
            if L < sys.float_info.min:
                raise ModulusUnderflow(
                    f"round {t}: the modulus L = {L!r} fell below the smallest normal "
                    f"float {sys.float_info.min!r}: L halves after every round "
                    "whose first trial passes"
                )
        elif model is None:
            y = bregman_map(regularizer, x, g_grad, 2.0 * L)
            g_y = float(value(k, y))
            if not math.isfinite(g_y):
                check_answer(k, t, g_y)
        f_xt = g_value + h_x
        if model is None:
            x = y
            h_x = regularizer.value(x)
            f_next = f_y = g_y + h_x
        else:
            model.fold(0.5 / L, g_grad)  # the accepted modulus is 2 L: coeff = 1 / M
            x = model.argmin(regularizer)
            g_next = float(value(k, x))
            if not math.isfinite(g_next):
                check_answer(k, t, g_next)
            h_x = regularizer.value(x)
            f_next = g_next + h_x
            f_y = f_next if fixed else g_y + regularizer.value(y)
        trace.add_row(t, i_t, L, f_xt, f_next, f_y, math.nan,
                      (time.perf_counter_ns() - start) / 1e9, k, x)
    trace.fill_f_full(problem.values)
    w = 1.0 / trace.L_next  # the weights of the average oupgm returns
    return ((w @ trace.x_next) / w.sum() if model is None else x), trace

