"""Stochastic universal gradient method with incremental quadratic surrogates.

Each component g_i keeps a surrogate anchored at some past iterate z_i:

    g_i^k(x) = g_i(z_i) + <grad g_i(z_i), x - z_i> + (M / 2) ||x - z_i||^2.

The surrogate average G^k collapses to a single quadratic, maintained via
three O(p) aggregates, so the subproblem argmin_x G^k(x) + h(x) is one
prox evaluation.  Every iteration re-anchors one uniformly sampled
surrogate at the fresh iterate.  When the modulus M exceeds the Holder
threshold (2/eps)^((1-v)/(1+v)) M_v^(2/(1+v)), the surrogates overestimate
g_i up to eps/4, which drives the geometric convergence bound.  With
rho = (1/n)(M / mu_h) + 1 - 1/n < 1 the bound reaches eps within
sug_iteration_estimate iterations; with confidence delta in (0, 1) the
gap is within eps after

    k >= log[(delta - 3/4 - 3 / (4 (mu_h - M))) eps / (M dist0_sq)]
         / log(rho) + 1

iterations, where the log argument is positive.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .oracles import CompositeProblem, Regularizer, oracle_value
from .trace import RunTrace


@dataclass
class SugConfig:
    """Solver knobs: surrogate modulus, target accuracy, sampling seed."""

    M: float
    eps: float
    seed: int
    max_iters: int

    def __post_init__(self):
        if self.M <= 0:
            raise ValueError(f"M must be positive, got {self.M}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class SurrogateTable:
    """Per-component surrogate state plus the three quadratic aggregates.

    Invariants (maintained by sug_update):
        sum_M     = sum_i moduli[i]
        lin       = sum_i (grads[i] - moduli[i] * anchors[i])
        const_sum = sum_i (values[i] - grads[i] @ anchors[i]
                           + moduli[i]/2 * ||anchors[i]||^2)
    """

    problem: CompositeProblem
    anchors: np.ndarray
    grads: np.ndarray
    values: np.ndarray
    moduli: np.ndarray
    sum_M: float = field(init=False)
    lin: np.ndarray = field(init=False)
    const_sum: float = field(init=False)

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=float).copy()
        self.grads = np.asarray(self.grads, dtype=float).copy()
        self.values = np.asarray(self.values, dtype=float).copy()
        self.moduli = np.asarray(self.moduli, dtype=float).copy()
        self.sum_M, self.lin, self.const_sum = self.from_scratch()

    @property
    def n(self) -> int:
        return self.anchors.shape[0]

    def from_scratch(self) -> tuple[float, np.ndarray, float]:
        """Recompute the aggregates directly from the per-component state."""
        sum_M = float(self.moduli.sum())
        lin = (self.grads - self.moduli[:, None] * self.anchors).sum(axis=0)
        const = float(
            (
                self.values
                - np.einsum("ij,ij->i", self.grads, self.anchors)
                + 0.5 * self.moduli * np.einsum("ij,ij->i", self.anchors, self.anchors)
            ).sum()
        )
        return sum_M, lin, const

    def value(self, x: np.ndarray) -> float:
        """Surrogate average G^k(x) via the aggregates, O(p)."""
        x = np.asarray(x, dtype=float)
        n = self.n
        return (
            0.5 * self.sum_M / n * float(x @ x)
            + float(self.lin @ x) / n
            + self.const_sum / n
        )


def sug_init(problem: CompositeProblem, x0: np.ndarray, M: float) -> SurrogateTable:
    """Anchor every surrogate at x0 with the one modulus M."""
    if M <= 0:
        raise ValueError(f"surrogate modulus must be positive, got {M}")
    x0 = np.asarray(x0, dtype=float)
    n = problem.n_components
    oracle = problem.components
    moduli = np.full(n, float(M))
    grads = np.stack([oracle.grad(i, x0) for i in range(n)])
    values = np.array([oracle_value(oracle, i, x0, 0) for i in range(n)], dtype=float)
    anchors = np.tile(x0, (n, 1))
    return SurrogateTable(
        problem=problem, anchors=anchors, grads=grads, values=values, moduli=moduli
    )


def sug_subproblem(table: SurrogateTable, regularizer: Regularizer) -> np.ndarray:
    """argmin_x G^k(x) + h(x), closed form via the regularizer's prox.

    With Q = sum_M / n and w = lin / n the minimizer is prox_{h/Q}(-w / Q).
    """
    if table.sum_M <= 0:
        raise ValueError("surrogate table has nonpositive total modulus")
    n = table.n
    Q = table.sum_M / n
    w = table.lin / n
    return regularizer.prox(-w / Q, 1.0 / Q)


def sug_update(table: SurrogateTable, j: int, x_new: np.ndarray, t: int = 0) -> None:
    """Re-anchor surrogate j at x_new with a fresh value and gradient, O(p).

    t, the iteration, is named in the error a non-finite value raises.
    """
    if not 0 <= j < table.n:
        raise IndexError(f"component index {j} out of range [0, {table.n})")
    x_new = np.asarray(x_new, dtype=float)
    old_anchor = table.anchors[j]
    old_lin = table.grads[j] - table.moduli[j] * old_anchor
    old_const = (
        table.values[j]
        - float(table.grads[j] @ old_anchor)
        + 0.5 * table.moduli[j] * float(old_anchor @ old_anchor)
    )
    oracle = table.problem.components
    new_grad = np.asarray(oracle.grad(j, x_new), dtype=float)
    new_value = oracle_value(oracle, j, x_new, t)
    table.anchors[j] = x_new
    table.grads[j] = new_grad
    table.values[j] = new_value
    new_lin = new_grad - table.moduli[j] * x_new
    new_const = (
        new_value - float(new_grad @ x_new) + 0.5 * table.moduli[j] * float(x_new @ x_new)
    )
    table.lin = table.lin + (new_lin - old_lin)
    table.const_sum += new_const - old_const


def sug_run(
    problem: CompositeProblem,
    x0: np.ndarray,
    cfg: SugConfig,
    trace_meta: dict | None = None,
) -> tuple[np.ndarray, RunTrace]:
    """Iterate the surrogate scheme cfg.max_iters times, re-anchoring one
    sampled component per step.

    Trace row k records f(x^k) in its full-objective column and the sampled
    component's round values; a non-finite component value raises
    NonFiniteOracleValue naming the iteration and the component.
    """
    x0 = np.asarray(x0, dtype=float).copy()
    trace = RunTrace.start("sug", cfg.eps, cfg.max_iters, x0, trace_meta=trace_meta)
    trace.seed = cfg.seed
    trace.extra_meta = {"M": cfg.M, **trace.extra_meta}
    regularizer = problem.regularizer
    table = sug_init(problem, x0, cfg.M)
    rng = np.random.default_rng(cfg.seed)
    x = x0
    start = time.perf_counter()
    for k in range(cfg.max_iters):
        x_next = sug_subproblem(table, regularizer)
        j = int(rng.integers(0, table.n))
        f_j_x = oracle_value(problem.components, j, x, k) + regularizer.value(x)
        sug_update(table, j, x_next, k)
        f_j_next = float(table.values[j]) + regularizer.value(x_next)
        trace.add_row(
            k, 0, cfg.M, f_j_x, f_j_next, f_j_next, np.nan,
            time.perf_counter() - start, component=j, x_next=x_next,
        )
        x = x_next
    trace.fill_f_full(problem.values)
    return x.copy(), trace


def sug_rho(M: float, mu_h: float, n: int) -> float:
    """Contraction factor (1/n)(M / mu_h) + 1 - 1/n."""
    if mu_h <= 0:
        raise ValueError(f"mu_h must be positive, got {mu_h}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (1.0 / n) * (M / mu_h) + 1.0 - 1.0 / n


def sug_bound(
    k: int, M: float, mu_h: float, n: int, eps: float, dist0_sq: float
) -> float:
    """Convergence bound at iterate k (k >= 1):

        M rho^(k-1) dist0_sq + (3 eps / (4 n mu_h)) (1 - rho^(k-1)) / (1 - rho)
        + 3 eps / 4.

    Returns math.inf when rho >= 1 (geometric sum invalid; bound vacuous).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if eps <= 0 or M <= 0 or dist0_sq < 0:
        raise ValueError("need eps > 0, M > 0, dist0_sq >= 0")
    rho = sug_rho(M, mu_h, n)
    if rho >= 1.0:
        return math.inf
    geo = (1.0 - rho ** (k - 1)) / (1.0 - rho)
    return M * rho ** (k - 1) * dist0_sq + (3.0 * eps / (4.0 * n * mu_h)) * geo + 0.75 * eps


def sug_iteration_estimate(
    M: float, mu_h: float, n: int, eps: float, dist0_sq: float
) -> int | None:
    """Iterations until the bound reaches accuracy eps (statement form):

        k >= log[(1/4 - 3 / (4 (mu_h - M))) eps / (M dist0_sq)] / log(rho) + 1.

    Returns None (undefined) when rho >= 1, mu_h == M, or the log argument
    is nonpositive; otherwise the smallest such integer, at least 1.
    """
    if eps <= 0 or M <= 0 or dist0_sq <= 0:
        raise ValueError("need eps > 0, M > 0, dist0_sq > 0")
    rho = sug_rho(M, mu_h, n)
    if rho >= 1.0 or mu_h == M:
        return None
    factor = 0.25 - 3.0 / (4.0 * (mu_h - M))
    arg = factor * eps / (M * dist0_sq)
    if arg <= 0:
        return None
    k = math.log(arg) / math.log(rho) + 1.0
    return max(1, math.ceil(k))

