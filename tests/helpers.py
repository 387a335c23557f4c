"""Test-only references: a numeric Bregman mapping, closed-form round
updates for the shipped problem families, an l1 optimality residual, the
dual model's value, a replay of the dual method's rounds and the prefix
bound it certifies, a sample writer, the individual and averaged surrogate
values, the from-scratch surrogate aggregate, the sug bound at one iterate
and a zero-objective problem.
The library does not use them; the tests cross-check the library against
them.  evaluate_regret also checks the eps its callers name against the
trace's."""

from dataclasses import dataclass

import numpy as np

from unigrad import harness
from unigrad.oracles import ComponentOracle, CompositeProblem, Regularizer, soft_threshold
from unigrad.sug import sug_bounds


def evaluate_regret(trace, problem, x_star, eps):
    """harness.evaluate_regret, for callers that also name the eps the
    trace was run at; the library reads it from the trace."""
    if eps != trace.eps:
        raise ValueError(f"eps {eps} differs from the trace's eps {trace.eps}")
    return harness.evaluate_regret(trace, problem, x_star)


class ModelSolveError(RuntimeError):
    """Numeric model minimization failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class ModelValue:
    """A model minimizer and the model value there."""

    minimizer: np.ndarray
    psi_star: float


def model_value(geometry, regularizer, x, g_value, g_grad, M, y) -> float:
    """The linearized model g(x) + <grad g(x), y - x> + M dist(x, y) + h(y)."""
    return (
        g_value
        + float(g_grad @ (y - x))
        + M * geometry.bregman(x, y)
        + regularizer.value(y)
    )


def bregman_map_numeric(geometry, regularizer, x, g_value, g_grad, M,
                        tol=1e-10, max_iters=10000) -> ModelValue:
    """Minimize the model by fixed-step (1/M) proximal-gradient iteration
    until the iterate moves less than tol.

    The gradient of dist(x, .) at y is y - x, as for the squared Euclidean
    geometry.
    """
    if M <= 0:
        raise ValueError(f"modulus M must be positive, got {M}")
    x = np.asarray(x, dtype=float)
    g_grad = np.asarray(g_grad, dtype=float)
    y = x.copy()
    residual = np.inf
    for _ in range(max_iters):
        model_grad = g_grad + M * (y - x)
        y_next = regularizer.prox(y - model_grad / M, 1.0 / M)
        residual = float(np.linalg.norm(y_next - y))
        y = y_next
        if residual <= tol:
            break
    else:
        raise ModelSolveError(
            f"model minimization stalled at residual {residual:.3e} > {tol:.3e}",
            residual,
        )
    psi = model_value(geometry, regularizer, x, g_value, g_grad, M, y)
    return ModelValue(minimizer=y, psi_star=psi)


# ---------------------------------------------------------------------------
# Closed-form round updates of the lasso and Steiner families


def lasso_bregman_step(x, a, b, M, l1_weight):
    """Single-sample mapping: shrink(x - (2/M)(a'x - b) a, l1_weight / M)."""
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    r = float(a @ x) - b
    return soft_threshold(x - (2.0 / M) * r * a, l1_weight / M)


def lasso_batch_bregman_step(x, A, b, M, l1_weight):
    """Batch mapping with the mean gradient over the sample block."""
    x = np.asarray(x, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m = A.shape[0]
    grad = (2.0 / m) * (A.T @ (A @ x - b))
    return soft_threshold(x - grad / M, l1_weight / M)


def steiner_bregman_step(x, c, M):
    """Single-center mapping: x - (1/M) (x - c) / ||x - c|| (x when at c)."""
    x = np.asarray(x, dtype=float)
    c = np.asarray(c, dtype=float)
    diff = x - c
    norm = float(np.linalg.norm(diff))
    if norm == 0.0:
        return x.copy()
    return x - diff / (M * norm)


def _unit_directions(diffs):
    norms = np.linalg.norm(diffs, axis=1)
    dirs = np.zeros_like(diffs)
    nz = norms > 0
    dirs[nz] = diffs[nz] / norms[nz, None]
    return dirs


def steiner_batch_bregman_step(x, centers, M):
    """Batch mapping with the averaged unit directions to the centers."""
    x = np.asarray(x, dtype=float)
    centers = np.asarray(centers, dtype=float)
    return x - _unit_directions(x - centers).mean(axis=0) / M


def lasso_dual_average(x0, coeffs, grads, l1_weight):
    """Aggregated-model minimizer for lasso streams:

        shrink(x0 - sum_i coeffs[i] * grads[i], l1_weight * sum_i coeffs[i]).
    """
    x0 = np.asarray(x0, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    grads = np.asarray(grads, dtype=float)
    return soft_threshold(x0 - coeffs @ grads, l1_weight * float(coeffs.sum()))


def steiner_dual_average(x0, coeffs, iterates, centers):
    """Aggregated-model minimizer for Steiner streams:

        x0 - sum_i coeffs[i] * (x_i - c_i) / ||x_i - c_i||.
    """
    x0 = np.asarray(x0, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    diffs = np.asarray(iterates, dtype=float) - np.asarray(centers, dtype=float)
    return x0 - coeffs @ _unit_directions(diffs)


def l1_optimality_residual(smooth_grad, x, l1_weight) -> float:
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


# ---------------------------------------------------------------------------
# The dual method's model, replayed


def dual_model_value(anchor, s, A, c, h, y) -> float:
    """The dual model phi(y) = dist(anchor, y) + <s, y> + A h(y) + c, with
    the squared Euclidean dist 0.5 ||y - anchor||^2, summed left to right."""
    y = np.asarray(y, dtype=float)
    diff = y - anchor
    return 0.5 * float(diff @ diff) + float(s @ y) + A * h.value(y) + c


def replay_dual_rounds(trace, problem):
    """Replay an in-memory oudgm trace from x0, its visited components and
    its L_next, without unigrad.udgm: round t reads g_t at x_t, takes the
    minimizer prox_{(A + coeff) h}(x0 - s - coeff grad g_t(x_t)) with
    coeff = 1 / (2 L_next[t]), then folds the linearization, constant
    included, into (s, A, c).

    Yields (x_next, s, A, c) per round: the replayed minimizer and the
    model it minimizes, phi_{t+1}.
    """
    if len(trace.x_next) != trace.n_rows or len(trace.component) != trace.n_rows:
        raise ValueError("trace lacks the visited components and iterates; run in-memory")
    oracle, h = problem.components, problem.regularizer
    x = trace.x0
    s = np.zeros_like(x)
    A = c = 0.0
    for k, L in zip(trace.component, trace.L_next):
        g_value = float(oracle.value(k, x))
        g_grad = np.asarray(oracle.grad(k, x), dtype=float)
        coeff = 0.5 / L
        s = s + coeff * g_grad
        x_next = h.prox(trace.x0 - s, A + coeff)
        A += coeff
        c += coeff * (g_value - float(g_grad @ x))
        yield x_next, s, A, c
        x = x_next


def check_dual_target_bound(trace, problem):
    """Prefix bound of the dual method: for every t,

        sum_{i<=t} f_{g_i}(y_i) / (2 L_{i+1}) <= phi*_{t+1} + S_t * eps / 4,

    with phi*_{t+1} the value of the replayed model at its minimizer, each
    replayed minimizer asserted equal to the run's x_next bit for bit.
    Returns (ok, worst) where worst is the largest normalized violation
    (lhs - rhs) / (1 + |rhs|) over prefixes, and ok says it is at most 1e-9,
    the relative slack every bound check allows.
    """
    eps = trace.eps
    acc = 0.0
    S = 0.0
    worst = -np.inf
    rounds = replay_dual_rounds(trace, problem)
    for k, (x_next, s, A, c) in enumerate(rounds):
        assert x_next.tobytes() == trace.x_next[k].tobytes(), f"round {k} replays another x_next"
        phi_star = dual_model_value(trace.x0, s, A, c, problem.regularizer, x_next)
        acc += trace.f_gt_yt[k] / (2.0 * trace.L_next[k])
        S += 1.0 / trace.L_next[k]
        rhs = phi_star + S * eps / 4.0
        worst = max(worst, (acc - rhs) / (1.0 + abs(rhs)))
    return worst <= 1e-9, worst


# ---------------------------------------------------------------------------
# Sample files and surrogates


def save_samples(inst, path) -> None:
    """Write samples as CSV rows "b,a_1,...,a_p" with round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# b,a_1,...,a_p\n")
        for t in range(inst.n):
            fields = [repr(float(inst.b[t]))] + [repr(float(v)) for v in inst.A[t]]
            fh.write(",".join(fields) + "\n")


def surrogate_value(table, i, x) -> float:
    """Individual surrogate g_i^k(x) of a sug SurrogateTable; its constant
    g_i(anchor_i) comes from the oracle."""
    x = np.asarray(x, dtype=float)
    diff = x - table.anchors[i]
    return (
        float(table.problem.components.value(i, table.anchors[i]))
        + float(table.grads[i] @ diff)
        + 0.5 * table.M * float(diff @ diff)
    )


def surrogate_average(table, x) -> float:
    """Surrogate average G^k(x) = (1/n) sum_i g_i^k(x), from the
    per-component state alone."""
    return float(np.mean([surrogate_value(table, i, x) for i in range(table.n)]))


def surrogate_lin(table) -> np.ndarray:
    """sum_i (grads[i] - M anchors[i]), recomputed from scratch."""
    return (table.grads - table.M * table.anchors).sum(axis=0)


def sug_bound(k, M, mu_h, n, eps, dist0_sq) -> float:
    """The sug convergence bound at the one iterate k."""
    return sug_bounds([k], M, mu_h, n, eps, dist0_sq)[0]


def zero_problem(dim=2) -> CompositeProblem:
    """The one-component stream g_0 = 0 in dimension dim, with h = 0."""
    return CompositeProblem(
        components=ComponentOracle(
            value=lambda i, x: 0.0,
            grad=lambda i, x: np.zeros(dim),
            values=lambda idx, x: np.zeros(len(idx)),
            n=1,
            holder_degree=1.0,
            holder_modulus=1.0,
        ),
        regularizer=Regularizer(),
        dimension=dim,
        mean_value_fn=lambda x: 0.0,
        mean_grad_fn=lambda x: np.zeros(dim),
        mean_values_fn=lambda X: np.zeros(len(X)),
        certify_fn=lambda x: (0.0, 0.0),
    )
