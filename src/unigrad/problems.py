"""Shipped problem families: streaming lasso and the Steiner point problem.

Each family builds one ComponentOracle for its whole stream.  Lasso
components are squared residuals g_t(x) = (a_t' x - b_t)^2 with Lipschitz
gradients: the stream's certificate is degree 1 and modulus
max_t 2 ||a_t||^2.  The composite part is l1 or elastic net.  Steiner
components are distances to centers, g_i(x) = ||x - c_i||, with bounded
subgradients (degree 0, modulus 2) and no composite part.

Each family also certifies a point in its smooth average's pass: lasso and
elastic net by a duality gap, Steiner by its least-norm subgradient.

A lasso with 2p < n (gram_form_pays) keeps one Gram state, A'A, A'b and
|A'A|, built on first use: by the first full-objective call whose points
repay it, or by the reference solve, which steps on the smooth part's
quadratic (CompositeProblem.quadratic_fn).  Building the problem builds none.
"""

import math
from dataclasses import dataclass

import numpy as np

from .oracles import (
    ComponentOracle,
    CompositeProblem,
    Regularizer,
    block_len,
    check_nonnegative,
    point_blocks,
    soft_threshold,
)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")


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
        check_nonnegative("l1_weight (--mu)", self.l1_weight)
        check_nonnegative("ridge_weight (--ridge)", self.ridge_weight)
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


def _lipschitz_modulus(A: np.ndarray) -> float:
    """max_t 2 ||a_t||^2, bit for bit the value 2.0 * float(a @ a) of the
    largest row.

    The einsum row sums add in another order than a @ a, but each order of a
    p-term inner product is within gamma_p = p u / (1 - p u) of the exact sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., sec.
    3.1).  So the row with the largest a @ a has an einsum sum of at least
    (1 - 2 (p + 1) eps) times the largest one, and only the rows above that
    cut are summed again with a @ a.
    """
    sq = np.einsum("ij,ij->i", A, A)
    cut = sq.max(initial=0.0) * (1.0 - 2.0 * (A.shape[1] + 1) * np.finfo(float).eps)
    return max((2.0 * float(A[i] @ A[i]) for i in np.flatnonzero(sq >= cut)),
               default=0.0)


def _residual_sums(A: np.ndarray, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_t (a_t' x - b_t)^2 at each row x of X, blocked over the points and
    over the rows of A so that no temporary outgrows BLOCK_BYTES and each
    block of rows is multiplied by up to 256 points at once."""
    total = np.zeros(X.shape[0])
    for block in point_blocks(len(X), A.shape[1]):
        rows = block_len(8 * len(total[block]))
        for q in range(0, A.shape[0], rows):
            R = A[q:q + rows] @ X[block].T
            R -= b[q:q + rows, None]
            np.square(R, out=R)
            total[block] += R.sum(axis=0)
    return total


def gram_form_pays(n: int, p: int) -> bool:
    """Whether a lasso of n samples in dimension p evaluates its smooth
    average from A'A, built once for n p^2 flops: a full-objective point
    then costs 4p^2 flops plus its share of 4np a block, a reference trial
    2p^2, against 2np for either in residual form.  Only when 2p < n can the
    saving repay the build."""
    return 2 * p < n


def _gram_state(A: np.ndarray, b: np.ndarray) -> tuple:
    """(A'A, A'b, |A'A|), the lasso's Gram state."""
    G = A.T @ A
    return G, A.T @ b, np.abs(G)


def lasso_problem(inst: LassoInstance) -> CompositeProblem:
    """Composite problem (1/n) sum_t (a_t' x - b_t)^2 + h(x)."""
    A, b = inst.A, inst.b

    # a.dot(x) gives the bits of a @ x on one row, without matmul's dispatch
    def value(i, x):
        r = float(A[i].dot(x) - b[i])
        return r * r

    def grad(i, x):
        a = A[i]
        return 2.0 * float(a.dot(x) - b[i]) * a

    def values(idx, x):
        out = np.empty(len(idx))
        rows = block_len(8 * inst.p)
        for q in range(0, len(idx), rows):
            i = idx[q:q + rows]
            r = A[i] @ x - b[i]
            np.square(r, out=out[q:q + rows])
        return out

    components = ComponentOracle(
        value=value,
        grad=grad,
        values=values,
        n=inst.n,
        holder_degree=1.0,
        holder_modulus=_lipschitz_modulus(A),
    )
    n = inst.n

    def mean_value(x):
        r = A @ x - b
        return float(r @ r) / n

    def mean_grad(x):
        return (2.0 / n) * (A.T @ (A @ x - b))

    p = inst.p
    gram_pays = gram_form_pays(n, p)
    state = None  # the Gram state (A'A, A'b, |A'A|) once built

    def gram():
        nonlocal state
        if state is None:
            state = _gram_state(A, b)
        return state

    def quadratic():
        return gram()[:2]

    def mean_values(X):
        # Centred Gram form.  With r_c = A x_c - b at the last point x_c and
        # D = X - x_c,
        #     n f(x) = r_c'r_c + 2 D (A'r_c) + rowwise(D A'A o D).
        # The rounding error of these sums is a small multiple of the unit
        # roundoff times the same sums over absolute values, the row's scale
        # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        # ch. 3-4), so the form keeps rounding-level relative accuracy where
        # the scale is close to n f(x), as it is for the clustered points of
        # a run.  A row whose scale exceeds 64 n f(x), which covers
        # n f(x) <= 0, has cancelled too far and is summed again in the
        # residual form.  r_c and A'r_c, the only passes over A, are formed
        # once a call; the rows are expanded a point block at a time.
        #
        # Cost: the residual form takes 2np flops a point; the Gram form
        # 4p^2 (D A'A and D |A'A|) plus 4np a call, after n p^2 to build
        # A'A.  So the Gram form pays only when 2p < n, and the state is
        # built here only for a call whose saving of 2p (n - 2p) flops a
        # point repays the build by itself; until then, unless the reference
        # solve has built it, and always when 2p >= n, the points are summed
        # in residual form, as they would be without it.
        if state is None and (not gram_pays or 2 * len(X) * (n - 2 * p) < n * p):
            return _residual_sums(A, b, X) / n
        G, _, G_abs = gram()
        x_c = X[-1]
        r_c = A @ x_c - b
        g = A.T @ r_c
        rr, g_abs, total = float(r_c @ r_c), np.abs(g), np.empty(len(X))
        for block in point_blocks(len(X), p):
            D, sums = X[block] - x_c, total[block]
            sums[:] = rr + 2.0 * (D @ g) + np.einsum("ij,ij->i", D @ G, D)
            np.abs(D, out=D)
            scale = rr + 2.0 * (D @ g_abs) + np.einsum("ij,ij->i", D @ G_abs, D)
            redo = np.flatnonzero(scale > 64.0 * sums)
            if redo.size:
                sums[redo] = _residual_sums(A, b, X[block][redo])
        return total / n

    mu, ridge = inst.l1_weight, inst.ridge_weight
    regularizer = Regularizer(mu, ridge)

    def certify(x):
        # Duality gap P(x) - D(u) of Fercoq, Gramfort & Salmon, "Mind the
        # duality gap" (ICML 2015), at the dual point u = theta (2/n)(Ax - b),
        # where D(u) = -(u'b + (n/4)||u||^2) - h*(-A'u).  With r = Ax - b and
        # g = (2/n) A'r, the gradient of the smooth average, it equals
        #     (1 - theta)^2 r'r / n + theta x'g + h(x) + h*(-theta g),
        # the form summed here: no two of its terms sit near f* and cancel.
        # Elastic net: h*(w) = ||soft(w, mu)||^2 / (2 ridge) and theta = 1.
        # l1, and h = 0 as l1 with mu = 0: h* is 0 on the max-norm ball of
        # radius mu and infinite off it, so theta = min(1, mu / ||g||_inf).
        r = A @ x - b
        rr = float(r @ r)  # rr / n is the smooth average, bit for bit mean_value's
        g = (2.0 / n) * (A.T @ r)
        theta, conj = 1.0, 0.0
        if ridge > 0:
            w = soft_threshold(-g, mu)
            conj = float(w @ w) / (2.0 * ridge)
        else:
            g_max = float(np.abs(g).max())
            if g_max > mu:
                theta = mu / g_max
        return rr / n, ((1.0 - theta) ** 2 * rr / n + theta * float(x @ g)
                        + regularizer.value(x) + conj)

    return CompositeProblem(
        components=components,
        regularizer=regularizer,
        dimension=inst.p,
        mean_value_fn=mean_value,
        mean_grad_fn=mean_grad,
        mean_values_fn=mean_values,
        certify_fn=certify,
        quadratic_fn=quadratic if gram_pays else None,
    )


def steiner_problem(inst: SteinerInstance) -> CompositeProblem:
    """Composite problem (1/m) sum_i ||x - c_i|| with no regularizer.

    Subgradient convention: zero at x = c_i.
    """
    centers = inst.centers

    # math.sqrt(d.dot(d)) is the value np.linalg.norm(d) computes, bit for bit
    def value(i, x):
        diff = x - centers[i]
        return math.sqrt(diff.dot(diff))

    def grad(i, x):
        diff = x - centers[i]
        norm = math.sqrt(diff.dot(diff))
        if norm == 0.0:
            return np.zeros_like(diff)
        return diff / norm

    def values(idx, x):
        out = np.empty(len(idx))
        rows = block_len(8 * inst.p)
        for q in range(0, len(idx), rows):
            diffs = x - centers[idx[q:q + rows]]
            np.sqrt(np.einsum("ij,ij->i", diffs, diffs), out=out[q:q + rows])
        return out

    components = ComponentOracle(
        value=value, grad=grad, values=values, n=inst.m, holder_degree=0.0,
        holder_modulus=2.0,
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
        for block in point_blocks(len(X), inst.p):
            rows = block_len(8 * X[block].size)
            for q in range(0, m, rows):
                diffs = X[block, None, :] - centers[None, q:q + rows, :]
                total[block] += np.sqrt(np.einsum("kip,kip->ki", diffs, diffs)).sum(axis=1)
        return total / m

    def certify(x):
        # f(x) - f* <= ||s|| ||x - x*|| for every subgradient s at x, and x*
        # lies in the hull of the centers, so ||x - x*|| <= max_i ||x - c_i||.
        # The subdifferential is g + (k/m) B, with g the sum over the
        # non-coincident centers of the unit vectors (x - c_i)/||x - c_i||,
        # divided by m, and B the unit ball (each of the k coincident
        # centers adds B/m); its least norm is max(||g|| - k/m, 0).
        diffs = x - centers
        norms = np.linalg.norm(diffs, axis=1)
        at = norms == 0.0
        g = (diffs[~at] / norms[~at, None]).sum(axis=0) / m
        least = max(float(np.linalg.norm(g)) - int(at.sum()) / m, 0.0)
        # the norms are mean_value's, bit for bit
        return float(norms.mean()), least * float(norms.max())

    return CompositeProblem(
        components=components,
        regularizer=Regularizer(),
        dimension=inst.p,
        mean_value_fn=mean_value,
        mean_grad_fn=mean_grad,
        mean_values_fn=mean_values,
        certify_fn=certify,
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
    check_nonnegative("noise", noise)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, p))
    x_true = np.zeros(p)
    if sparsity > 0:
        support = rng.choice(p, size=sparsity, replace=False)
        x_true[support] = rng.standard_normal(sparsity)
    b = A @ x_true + noise * rng.standard_normal(n)
    return LassoInstance(
        A=A, b=b, l1_weight=l1_weight, ridge_weight=ridge_weight, x_true=x_true
    )


def synth_steiner(p: int, m: int, seed: int) -> SteinerInstance:
    """Standard-normal centers; deterministic for a fixed seed."""
    if p < 1 or m < 1:
        raise ValueError(f"need p >= 1 and m >= 1, got p={p}, m={m}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    return SteinerInstance(centers=rng.standard_normal((m, p)))


def load_samples(path) -> LassoInstance:
    """Read samples from CSV rows "b,a_1,...,a_p".

    Lines starting with '#' and blank lines are skipped.  Raises ValueError
    naming the offending file line for ragged rows, non-numeric or
    non-finite fields, and empty files.  One np.loadtxt pass parses the data
    lines; only a file it rejects is read again, line by line, for the error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in map(str.strip, fh) if line and not line.startswith("#")]
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2) if lines else None
    except ValueError:
        data = None
    if data is None or data.shape[1] < 2 or not np.isfinite(data).all():
        data = _read_rows(path)
    return LassoInstance(A=data[:, 1:], b=data[:, 0])


def _read_rows(path) -> np.ndarray:
    """load_samples' data read line by line, raising its line-numbered errors."""
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
    return np.asarray(rows, dtype=float)

