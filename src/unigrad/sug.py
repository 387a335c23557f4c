"""Stochastic universal gradient method with incremental quadratic surrogates.

Each component g_i keeps a surrogate anchored at some past iterate z_i:

    g_i^k(x) = g_i(z_i) + <grad g_i(z_i), x - z_i> + (M / 2) ||x - z_i||^2.

All surrogates share the one modulus M, so the average G^k is
(M / 2) ||x||^2 plus a linear term plus a constant.  The subproblem
argmin_x G^k(x) + h(x) reads only the linear term's O(p) aggregate and
is one prox evaluation at modulus M.  Every iteration re-anchors one
uniformly sampled surrogate at the fresh iterate: one prox, one component
gradient, two component values and one value of h (at the new iterate; h at
the old one is carried over).  When M exceeds the Holder
threshold (2/eps)^((1-v)/(1+v)) M_v^(2/(1+v)), the surrogates overestimate
g_i up to eps/4, which drives the geometric convergence bound.  With
rho = (1/n)(M / mu_h) + 1 - 1/n < 1 the bound reaches eps within
sug_iteration_estimate iterations; with confidence delta in (0, 1) the
gap is within eps after

    k >= log[(delta - 3/4 - 3 / (4 (mu_h - M))) eps / (M dist0_sq)]
         / log(rho) + 1

iterations, where the log argument is positive.  dist0_sq is ||x0 - x*||^2
at the reference minimizer x*, which the harness measures.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .oracles import CompositeProblem, Regularizer, check_answer
from .trace import RunTrace


@dataclass
class SurrogateTable:
    """Per-component anchors and gradients at the one modulus M, plus the one
    aggregate the subproblem reads.  The constants g_i(anchors[i]) are not
    kept: no minimizer reads them.

    Invariant (maintained by sug_update):
        lin = sum_i (grads[i] - M * anchors[i])
    """

    problem: CompositeProblem
    anchors: np.ndarray
    grads: np.ndarray
    M: float
    lin: np.ndarray = field(init=False)

    def __post_init__(self):
        self.lin = (self.grads - self.M * self.anchors).sum(axis=0)

    @property
    def n(self) -> int:
        return self.anchors.shape[0]


def sug_init(problem: CompositeProblem, x0: np.ndarray, M: float) -> SurrogateTable:
    """Anchor every surrogate at x0 with the one modulus M."""
    if not 0 < M < math.inf:
        raise ValueError(f"surrogate modulus M must be positive and finite, got {M}")
    x0 = np.asarray(x0, dtype=float)
    n = problem.n_components
    grad = problem.components.grad
    grads = np.empty((n, *x0.shape))
    for i in range(n):
        g = np.asarray(grad(i, x0), dtype=float)
        if g.shape != x0.shape:
            check_answer(i, 0, grad=g, x=x0)
        grads[i] = g
    anchors = np.tile(x0, (n, 1))
    return SurrogateTable(problem=problem, anchors=anchors, grads=grads, M=float(M))


def sug_subproblem(table: SurrogateTable, regularizer: Regularizer) -> np.ndarray:
    """argmin_x G^k(x) + h(x), closed form via the regularizer's prox.

    G^k is (M / 2) ||x||^2 + <lin, x> / n plus a constant, so with
    w = lin / n the minimizer is prox_{h/M}(-w / M).
    """
    # lin / -n is -(lin / n) bit for bit, the sign of zero included
    return regularizer.prox(table.lin / -table.n / table.M, 1.0 / table.M)


def sug_update(table: SurrogateTable, j: int, x_new: np.ndarray, t: int = 0) -> float:
    """Re-anchor surrogate j at x_new, O(p); returns g_j(x_new).

    t, the iteration, is named in the error a bad oracle answer raises.
    """
    if not 0 <= j < table.n:
        raise IndexError(f"component index {j} out of range [0, {table.n})")
    x_new = np.asarray(x_new, dtype=float)
    old_lin = table.grads[j] - table.M * table.anchors[j]
    oracle = table.problem.components
    new_grad = np.asarray(oracle.grad(j, x_new), dtype=float)
    value = float(oracle.value(j, x_new))
    if not math.isfinite(value) or new_grad.shape != x_new.shape:
        check_answer(j, t, value, new_grad, x_new)
    table.anchors[j] = x_new
    table.grads[j] = new_grad
    # lin + (new_grad - M x_new - old_lin), in that float order, in place
    delta = new_grad - table.M * x_new
    delta -= old_lin
    table.lin += delta
    return value


def sug_run(
    problem: CompositeProblem,
    x0: np.ndarray,
    M: float,
    eps: float,
    T: int,
    seed: int,
) -> tuple[np.ndarray, RunTrace]:
    """Iterate the surrogate scheme T >= 1 times at the modulus M and
    accuracy eps, both positive and finite, re-anchoring one component per
    step, drawn by a generator of the given seed.

    Trace row k records f(x^k) in its full-objective column and the sampled
    component's round values; a non-finite component value raises
    NonFiniteOracleValue naming the iteration and the component.  The trace
    records the modulus M and the sampling seed.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    trace = RunTrace("sug", eps, T, x0, seed=seed, extra_meta={"M": M}, rows=T)
    table = sug_init(problem, trace.x0, M)  # refuses a bad M
    regularizer, value = problem.regularizer, problem.components.value
    rng = np.random.default_rng(seed)
    x = trace.x0
    h_x = regularizer.value(x)  # h at the iterate, carried from the last iteration
    start = time.perf_counter_ns()
    # one draw of K indices is the stream of K scalar draws
    for k, j in enumerate(rng.integers(0, table.n, size=T).tolist()):
        x_next = sug_subproblem(table, regularizer)
        g_x = float(value(j, x))
        if not math.isfinite(g_x):
            check_answer(j, k, g_x)
        f_x, h_x = g_x + h_x, regularizer.value(x_next)
        f_next = sug_update(table, j, x_next, k) + h_x
        trace.add_row(k, 0, M, f_x, f_next, f_next, math.nan,
                      (time.perf_counter_ns() - start) / 1e9, j, x_next)
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


def sug_bounds(
    ks, M: float, mu_h: float, n: int, eps: float, dist0_sq: float
) -> np.ndarray:
    """Convergence bound at each iterate k of ks (every k >= 1):

        M rho^(k-1) dist0_sq + (3 eps / (4 n mu_h)) (1 - rho^(k-1)) / (1 - rho)
        + 3 eps / 4,

    or math.inf when rho >= 1 (geometric sum invalid; bound vacuous).  The
    arguments are checked, and rho and the k-independent factors computed,
    once for all of ks, and the powers of rho taken one at a time, as
    Python floats.
    """
    if min(ks, default=1) < 1:
        raise ValueError(f"k must be >= 1, got {min(ks)}")
    if eps <= 0 or M <= 0 or dist0_sq < 0:
        raise ValueError("need eps > 0, M > 0, dist0_sq >= 0")
    rho = sug_rho(M, mu_h, n)
    if rho >= 1.0:
        return np.full(len(ks), math.inf)
    scale = 3.0 * eps / (4.0 * n * mu_h)
    one_minus_rho = 1.0 - rho
    tail = 0.75 * eps
    r = np.fromiter((rho ** (k - 1) for k in ks), float, len(ks))
    return M * r * dist0_sq + scale * ((1.0 - r) / one_minus_rho) + tail


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

