"""Online universal dual gradient method.

The method maintains an aggregated model

    phi_t(x) = dist(x_0, x) + <s, x> + A * h(x) + c,

where each round adds one scaled linearization of its component.  Round t
backtracks a modulus M = 2^i * L_t; the trial candidate is

    x_{t,i} = argmin_x phi_t(x) + (1/M) [g_t(x_t) + <grad g_t(x_t), x - x_t> + h(x)]

and the candidate is accepted once the Bregman point at the current
iterate passes the inexact descent test (the model value at that point
certifies the per-round progress the aggregate bound needs).  On
acceptance x_{t+1} = x_{t,i_t}, L_{t+1} = M / 2, and the trial's
linearization is folded into the model with the same coefficient
1 / (2 L_{t+1}), so x_{t+1} minimizes phi_{t+1} exactly.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .bregman import backtrack, bregman_map, gamma, _descent_ok
from .geometry import ProxFunction
from .oracles import ComponentOracle, CompositeProblem, Regularizer
from .trace import RunTrace
from .upgm import _check_order, _new_trace


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
        self,
        regularizer: Regularizer,
        extra_coeff: float = 0.0,
        extra_grad: np.ndarray | None = None,
    ) -> np.ndarray:
        """Minimizer of the model plus an optional extra linearization term.

        With w = s + extra_coeff * extra_grad and B = A + extra_coeff, the
        minimizer is prox_{B h}(anchor - w).
        """
        if extra_coeff < 0:
            raise ValueError(f"extra_coeff must be nonnegative, got {extra_coeff}")
        w = self.s
        if extra_coeff > 0.0:
            if extra_grad is None:
                raise ValueError("extra_coeff given without extra_grad")
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


def model_argmin(
    model: DualModel,
    regularizer: Regularizer,
    extra_coeff: float = 0.0,
    extra_grad: np.ndarray | None = None,
) -> np.ndarray:
    """Module-level convenience wrapper over DualModel.argmin."""
    return model.argmin(regularizer, extra_coeff, extra_grad)


@dataclass
class UdgmState:
    """Mutable solver state between rounds."""

    x: np.ndarray
    L: float
    model: DualModel
    t: int = 0
    weight_sum: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).copy()
        if self.L <= 0:
            raise ValueError(f"L must be positive, got {self.L}")


@dataclass(frozen=True)
class DualStepRecord:
    i_t: int
    L_next: float
    f_gt_xt: float
    f_gt_xnext: float
    f_gt_yt: float
    phi_star: float


def udgm_step(
    state: UdgmState,
    gt: ComponentOracle,
    regularizer: Regularizer,
    eps: float,
) -> DualStepRecord:
    """Run one adaptive round on component gt, mutating state in place."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    model = state.model
    geometry = model.geometry
    x = state.x
    g_value = float(gt.value(x))
    g_grad = np.asarray(gt.grad(x), dtype=float)

    def trial(M: float):
        candidate = model.argmin(regularizer, 1.0 / M, g_grad)
        bp = bregman_map(geometry, regularizer, x, g_value, g_grad, M)
        g_bp = float(gt.value(bp.minimizer))
        # f(B_M(x)) <= psi_star + eps/2 is the descent test in disguise: the
        # h terms on both sides cancel against psi_star's h term.
        ok = _descent_ok(g_value, g_grad, g_bp, x, bp.minimizer, M, eps, geometry)
        f_bp = g_bp + regularizer.value(bp.minimizer)
        return (candidate, f_bp), ok

    i_t, L_next, (candidate, f_bp) = backtrack(state.L, trial)
    coeff = 0.5 / L_next  # equals 1 / (2^{i_t} L_t)
    model.fold(coeff, g_value, g_grad, x)
    f_xt = g_value + regularizer.value(x)
    f_next = float(gt.value(candidate)) + regularizer.value(candidate)
    phi_star = model.value(candidate, regularizer)
    state.x = candidate
    state.L = L_next
    state.t += 1
    state.weight_sum += 1.0 / L_next
    return DualStepRecord(
        i_t=i_t,
        L_next=L_next,
        f_gt_xt=f_xt,
        f_gt_xnext=f_next,
        f_gt_yt=f_bp,
        phi_star=phi_star,
    )


def udgm_run(
    problem: CompositeProblem,
    order: np.ndarray,
    x0: np.ndarray,
    L0: float,
    eps: float,
    T: int,
    trace_meta: dict | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Run rounds t = 0..T visiting components order[t].

    Returns (x_final, trace); the final iterate minimizes the last model.
    """
    order = _check_order(order, problem.n_components, T)
    trace = _new_trace("oudgm", eps, T, x0, L0, trace_meta)
    model = DualModel(geometry=problem.geometry, anchor=x0)
    state = UdgmState(x=x0, L=L0, model=model)
    start = time.perf_counter()
    for t in range(T + 1):
        k = int(order[t])
        record = udgm_step(state, problem.components[k], problem.regularizer, eps)
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
            phi_star=record.phi_star,
        )
    trace.fill_f_full(problem.values)
    return state.x.copy(), trace


def udgm_fixed_step_run(
    problem: CompositeProblem,
    order: np.ndarray,
    x0: np.ndarray,
    eps: float,
    T: int,
    holder_modulus: float | None = None,
    holder_degree: float | None = None,
    trace_meta: dict | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Fixed-step variant: every round folds its linearization with the
    constant coefficient 1 / (2 gamma(M_v, v, eps)); no line search.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if holder_modulus is None or holder_degree is None:
        degree, modulus = problem.holder_constants()
        holder_degree = degree if holder_degree is None else holder_degree
        holder_modulus = modulus if holder_modulus is None else holder_modulus
    order = _check_order(order, problem.n_components, T)
    step_L = gamma(holder_modulus, holder_degree, eps)
    coeff = 0.5 / step_L
    trace = _new_trace("oudgm", eps, T, x0, None, trace_meta)
    trace.extra_meta.update(
        {"fixed_step": True, "Mv": holder_modulus, "v": holder_degree}
    )
    regularizer = problem.regularizer
    model = DualModel(geometry=problem.geometry, anchor=x0)
    x = np.asarray(x0, dtype=float).copy()
    start = time.perf_counter()
    for t in range(T + 1):
        k = int(order[t])
        gt = problem.components[k]
        g_value = float(gt.value(x))
        g_grad = np.asarray(gt.grad(x), dtype=float)
        candidate = model.argmin(regularizer, coeff, g_grad)
        model.fold(coeff, g_value, g_grad, x)
        f_xt = g_value + regularizer.value(x)
        f_next = float(gt.value(candidate)) + regularizer.value(candidate)
        phi_star = model.value(candidate, regularizer)
        x = candidate
        trace.add_row(
            t, 0, step_L, f_xt, f_next, f_next, np.nan,
            time.perf_counter() - start, component=k, x_next=x,
            phi_star=phi_star,
        )
    trace.fill_f_full(problem.values)
    return x.copy(), trace


def check_dual_target_bound(trace: RunTrace, slack_scale: float = 1e-9):
    """Prefix bound: for every t,

        sum_{i<=t} f_{g_i}(y_i) / (2 L_{i+1}) <= phi*_{t+1} + S_t * eps / 4.

    Requires an in-memory trace with recorded model minima.  Returns
    (ok, worst) where worst is the largest normalized violation
    (lhs - rhs) / (1 + |rhs|) over prefixes.
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
    return worst <= slack_scale, worst
