"""Shipped problem families: streaming lasso and the Steiner point problem.

Lasso components are squared residuals g_t(x) = (a_t' x - b_t)^2 with
Lipschitz gradients (Holder degree 1, modulus 2 ||a_t||^2); the composite
part is l1 or elastic net.  Steiner components are distances to centers,
g_i(x) = ||x - c_i||, with bounded subgradients (degree 0, modulus 2) and
no composite part.
"""

import math
from dataclasses import dataclass

import numpy as np

from .oracles import ComponentOracle, CompositeProblem, Regularizer, block_len


@dataclass(frozen=True)
class LassoInstance:
    """Streaming least-squares samples plus regularizer weights.

    x_true is the generator's ground truth when known (None for loaded data).
    """

    A: np.ndarray
    b: np.ndarray
    l1_weight: float = 0.0
    ridge_weight: float = 0.0
    x_true: np.ndarray | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be 2-d, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b has shape {b.shape}, expected ({A.shape[0]},)")
        if self.l1_weight < 0 or self.ridge_weight < 0:
            raise ValueError("regularizer weights must be nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class SteinerInstance:
    """Centers of the Steiner point (geometric median) problem."""

    centers: np.ndarray

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise ValueError(f"centers must be (m, p) with m >= 1, got {centers.shape}")
        object.__setattr__(self, "centers", centers)

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    @property
    def p(self) -> int:
        return self.centers.shape[1]


def _lasso_regularizer(l1_weight: float, ridge_weight: float) -> Regularizer:
    if ridge_weight > 0:
        return Regularizer.elastic_net(l1_weight, ridge_weight)
    if l1_weight > 0:
        return Regularizer.l1(l1_weight)
    return Regularizer.zero()


def lasso_problem(inst: LassoInstance) -> CompositeProblem:
    """Composite problem (1/n) sum_t (a_t' x - b_t)^2 + h(x)."""
    A, b = inst.A, inst.b
    components = []
    for t in range(inst.n):
        a_t = A[t]
        b_t = float(b[t])

        def value(x, a=a_t, bb=b_t):
            r = float(a @ x) - bb
            return r * r

        def grad(x, a=a_t, bb=b_t):
            return 2.0 * (float(a @ x) - bb) * a

        components.append(
            ComponentOracle(
                value=value,
                grad=grad,
                holder_degree=1.0,
                holder_modulus=2.0 * float(a_t @ a_t),
            )
        )
    n = inst.n

    def mean_value(x):
        r = A @ x - b
        return float(r @ r) / n

    def mean_grad(x):
        return (2.0 / n) * (A.T @ (A @ x - b))

    def mean_values(X):
        # Residual form, blocked over the rows of A.  The Gram form
        # x'(A'A/n)x - 2(A'b/n)'x + b'b/n is faster, but its cancellation
        # costs an order of magnitude in relative accuracy.
        total = np.zeros(X.shape[0])
        rows = block_len(8 * X.shape[0])
        for q in range(0, n, rows):
            R = A[q:q + rows] @ X.T
            R -= b[q:q + rows, None]
            np.square(R, out=R)
            total += R.sum(axis=0)
        return total / n

    return CompositeProblem(
        components=components,
        regularizer=_lasso_regularizer(inst.l1_weight, inst.ridge_weight),
        dimension=inst.p,
        mean_value_fn=mean_value,
        mean_grad_fn=mean_grad,
        mean_values_fn=mean_values,
    )


def steiner_problem(inst: SteinerInstance) -> CompositeProblem:
    """Composite problem (1/m) sum_i ||x - c_i|| with no regularizer.

    Subgradient convention: zero at x = c_i.
    """
    centers = inst.centers
    components = []
    for i in range(inst.m):
        c_i = centers[i]

        def value(x, c=c_i):
            return float(np.linalg.norm(x - c))

        def grad(x, c=c_i):
            diff = x - c
            norm = float(np.linalg.norm(diff))
            if norm == 0.0:
                return np.zeros_like(diff)
            return diff / norm

        components.append(
            ComponentOracle(value=value, grad=grad, holder_degree=0.0, holder_modulus=2.0)
        )
    m = inst.m

    def mean_value(x):
        return float(np.linalg.norm(centers - x, axis=1).mean())

    def mean_grad(x):
        diffs = x - centers
        norms = np.linalg.norm(diffs, axis=1)
        out = np.zeros_like(diffs)
        nz = norms > 0
        out[nz] = diffs[nz] / norms[nz, None]
        return out.mean(axis=0)

    def mean_values(X):
        total = np.zeros(X.shape[0])
        rows = block_len(8 * X.size)
        for q in range(0, m, rows):
            diffs = X[:, None, :] - centers[None, q:q + rows, :]
            total += np.sqrt(np.einsum("kip,kip->ki", diffs, diffs)).sum(axis=1)
        return total / m

    return CompositeProblem(
        components=components,
        regularizer=Regularizer.zero(),
        dimension=inst.p,
        mean_value_fn=mean_value,
        mean_grad_fn=mean_grad,
        mean_values_fn=mean_values,
    )


def synth_lasso(
    p: int, n: int, sparsity: int, noise: float, seed: int,
    l1_weight: float = 0.0, ridge_weight: float = 0.0,
) -> LassoInstance:
    """Standard-normal design, sparse ground truth, optional Gaussian noise.

    Deterministic for a fixed seed.  sparsity counts the nonzero entries of
    the ground truth; sparsity = 0 gives x_true = 0.
    """
    if p < 1 or n < 1:
        raise ValueError(f"need p >= 1 and n >= 1, got p={p}, n={n}")
    if not 0 <= sparsity <= p:
        raise ValueError(f"sparsity must lie in [0, {p}], got {sparsity}")
    if noise < 0:
        raise ValueError(f"noise must be nonnegative, got {noise}")
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, p))
    x_true = np.zeros(p)
    if sparsity > 0:
        support = rng.choice(p, size=sparsity, replace=False)
        x_true[support] = rng.normal(size=sparsity)
    b = A @ x_true + noise * rng.normal(size=n)
    return LassoInstance(
        A=A, b=b, l1_weight=l1_weight, ridge_weight=ridge_weight, x_true=x_true
    )


def synth_steiner(p: int, m: int, seed: int) -> SteinerInstance:
    """Standard-normal centers; deterministic for a fixed seed."""
    if p < 1 or m < 1:
        raise ValueError(f"need p >= 1 and m >= 1, got p={p}, m={m}")
    rng = np.random.default_rng(seed)
    return SteinerInstance(centers=rng.normal(size=(m, p)))


def load_samples(path) -> LassoInstance:
    """Read samples from CSV rows "b,a_1,...,a_p".

    Lines starting with '#' and blank lines are skipped.  Raises ValueError
    naming the offending file line for ragged rows, non-numeric or
    non-finite fields, and empty files.
    """
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise ValueError(
                        f"line {lineno}: need at least 2 fields (b plus features), got {width}"
                    )
            elif len(parts) != width:
                raise ValueError(
                    f"line {lineno}: ragged row with {len(parts)} fields, expected {width}"
                )
            try:
                row = [float(v) for v in parts]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-numeric field") from exc
            if not all(map(math.isfinite, row)):
                raise ValueError(f"line {lineno}: non-finite field")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    return LassoInstance(A=data[:, 1:], b=data[:, 0])

