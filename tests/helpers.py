"""Test-only references: a numeric Bregman mapping, closed-form round
updates for the shipped problem families, a sample writer and the
individual surrogate value.  The library does not use them; the tests
cross-check the library against them.  evaluate_regret also checks the
eps its callers name against the trace's."""

from dataclasses import dataclass

import numpy as np

from unigrad import harness
from unigrad.oracles import soft_threshold


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
    """Individual surrogate g_i^k(x) of a sug SurrogateTable."""
    x = np.asarray(x, dtype=float)
    diff = x - table.anchors[i]
    return (
        float(table.values[i])
        + float(table.grads[i] @ diff)
        + 0.5 * float(table.moduli[i]) * float(diff @ diff)
    )
