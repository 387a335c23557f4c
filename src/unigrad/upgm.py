"""Online universal primal gradient method.

Each round t receives one component g_t, backtracks a modulus M = 2^i * L_t
until the inexact descent condition with slack eps/2 holds at the Bregman
mapping, then steps to that mapping:

    x_{t+1} = B_{M, g_t}(x_t),    L_{t+1} = M / 2.

The running output is the step-size weighted average of the produced
iterates, xbar = sum_t x_{t+1} / L_{t+1} / sum_t 1 / L_{t+1}.  The doubling
cap guarantees 2 L_{t+1} <= 2 gamma(M_v, v, eps) for every round.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .bregman import backtrack, bregman_map, gamma, _descent_ok
from .geometry import ProxFunction
from .oracles import ComponentOracle, CompositeProblem, Regularizer
from .trace import RunTrace


@dataclass
class UpgmState:
    """Mutable solver state between rounds."""

    x: np.ndarray
    L: float
    geometry: ProxFunction
    t: int = 0
    weight_sum: float = 0.0
    weighted_x: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).copy()
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.weighted_x is None:
            self.weighted_x = np.zeros_like(self.x)

    def averaged_iterate(self) -> np.ndarray:
        if self.weight_sum <= 0:
            raise ValueError("no rounds have run yet; average undefined")
        return self.weighted_x / self.weight_sum


@dataclass(frozen=True)
class StepRecord:
    """Per-round scalars produced by one solver step."""

    i_t: int
    L_next: float
    f_gt_xt: float
    f_gt_xnext: float
    f_gt_yt: float


def upgm_step(
    state: UpgmState,
    gt: ComponentOracle,
    regularizer: Regularizer,
    eps: float,
) -> StepRecord:
    """Run one adaptive round on component gt, mutating state in place."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    geometry = state.geometry
    x = state.x
    g_value = float(gt.value(x))
    g_grad = np.asarray(gt.grad(x), dtype=float)

    def trial(M: float):
        mv = bregman_map(geometry, regularizer, x, g_value, g_grad, M)
        g_hat = float(gt.value(mv.minimizer))
        ok = _descent_ok(g_value, g_grad, g_hat, x, mv.minimizer, M, eps, geometry)
        return (mv, g_hat), ok

    i_t, L_next, (mv, g_hat) = backtrack(state.L, trial)
    h_x = regularizer.value(x)
    h_hat = regularizer.value(mv.minimizer)
    record = StepRecord(
        i_t=i_t,
        L_next=L_next,
        f_gt_xt=g_value + h_x,
        f_gt_xnext=g_hat + h_hat,
        f_gt_yt=g_hat + h_hat,
    )
    state.x = mv.minimizer
    state.L = L_next
    state.t += 1
    weight = 1.0 / L_next
    state.weight_sum += weight
    state.weighted_x = state.weighted_x + weight * mv.minimizer
    return record


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
    order = _check_order(order, problem.n_components, T)
    trace = _new_trace("oupgm", eps, T, x0, L0, trace_meta)
    state = UpgmState(x=x0, L=L0, geometry=problem.geometry)
    start = time.perf_counter()
    for t in range(T + 1):
        k = int(order[t])
        record = upgm_step(state, problem.components[k], problem.regularizer, eps)
        trace.add_row(
            t,
            record.i_t,
            record.L_next,
            record.f_gt_xt,
            record.f_gt_xnext,
            record.f_gt_yt,
            np.nan,
            time.perf_counter() - start,
            component=k,
            x_next=state.x,
        )
    trace.fill_f_full(problem.values)
    return state.averaged_iterate(), trace


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
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if holder_modulus is None or holder_degree is None:
        degree, modulus = problem.holder_constants()
        holder_degree = degree if holder_degree is None else holder_degree
        holder_modulus = modulus if holder_modulus is None else holder_modulus
    order = _check_order(order, problem.n_components, T)
    step_L = gamma(holder_modulus, holder_degree, eps)
    trace = _new_trace("oupgm", eps, T, x0, None, trace_meta)
    trace.extra_meta.update(
        {"fixed_step": True, "Mv": holder_modulus, "v": holder_degree}
    )
    geometry = problem.geometry
    regularizer = problem.regularizer
    x = np.asarray(x0, dtype=float).copy()
    weight_sum = 0.0
    weighted_x = np.zeros_like(x)
    start = time.perf_counter()
    for t in range(T + 1):
        k = int(order[t])
        gt = problem.components[k]
        g_value = float(gt.value(x))
        g_grad = gt.grad(x)
        mv = bregman_map(geometry, regularizer, x, g_value, g_grad, 2.0 * step_L)
        f_xt = g_value + regularizer.value(x)
        f_next = float(gt.value(mv.minimizer)) + regularizer.value(mv.minimizer)
        x = mv.minimizer
        weight_sum += 1.0 / step_L
        weighted_x += x / step_L
        trace.add_row(
            t, 0, step_L, f_xt, f_next, f_next, np.nan,
            time.perf_counter() - start, component=k, x_next=x,
        )
    trace.fill_f_full(problem.values)
    return weighted_x / weight_sum, trace


def _check_order(order, n_components: int, T: int) -> np.ndarray:
    order = np.asarray(order, dtype=int)
    if order.shape != (T + 1,):
        raise ValueError(f"order has shape {order.shape}, expected ({T + 1},)")
    if order.size and (order.min() < 0 or order.max() >= n_components):
        raise ValueError(
            f"order indexes components outside [0, {n_components})"
        )
    return order


def _new_trace(algorithm, eps, T, x0, L0, trace_meta) -> RunTrace:
    meta = dict(trace_meta or {})
    return RunTrace(
        algorithm=algorithm,
        eps=eps,
        T=T,
        x0=np.asarray(x0, dtype=float).copy(),
        L0=L0,
        seed=meta.get("seed"),
        order_kind=meta.get("order"),
        problem_meta=meta.get("problem", {}),
        extra_meta=dict(meta.get("extra", {})),
    )
