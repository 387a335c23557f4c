"""First-order oracles for composite objectives.

The objective is f(x) = (1/n) sum_i g_i(x) + h(x).  One ComponentOracle
answers value and (sub)gradient calls for every component g_i of the
stream, evaluates g_i at one point for a whole array of indices at once,
and carries the stream's Holder certificate: a degree v in [0, 1]
and modulus M_v such that every component satisfies

    ||grad g_i(x) - grad g_i(y)||_* <= M_v ||x - y||^v.

The composite regularizer h is simple: l1 plus ridge, whose proximal
operator has a closed form.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import ProxFunction

# Size cap, in bytes, of each block of points a batched evaluation works on
# and of each blocked temporary it allocates; it bounds the memory of the
# full-objective pass whatever the horizon.
BLOCK_BYTES = 1 << 19


def block_len(row_bytes: int) -> int:
    """Rows of row_bytes bytes each that one BLOCK_BYTES temporary holds."""
    return max(1, BLOCK_BYTES // row_bytes)


def point_blocks(k: int, p: int):
    """Slices of k points in dimension p, at most 256 and BLOCK_BYTES a slice:
    wide enough for fast matrix products, leaving room for temporaries."""
    step = min(256, block_len(8 * p))
    return (slice(s, s + step) for s in range(0, k, step))


class NonFiniteOracleValue(ValueError):
    """A component oracle returned NaN or an infinite value."""


@dataclass(frozen=True)
class ComponentOracle:
    """The n smooth components g_0..g_{n-1} of a stream: value(i, x) is
    g_i(x), grad(i, x) a (sub)gradient of g_i at x, values(idx, x) the array
    of g_i(x) for every i of the index array idx (repeats allowed, no
    temporary larger than BLOCK_BYTES beyond its result), and
    (holder_degree, holder_modulus) the Holder certificate every component
    satisfies."""

    value: Callable[[int, np.ndarray], float]
    grad: Callable[[int, np.ndarray], np.ndarray]
    values: Callable[[np.ndarray, np.ndarray], np.ndarray]
    n: int
    holder_degree: float
    holder_modulus: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"stream needs at least one component, got n={self.n}")
        if not 0.0 <= self.holder_degree <= 1.0:
            raise ValueError(
                f"holder_degree must lie in [0, 1], got {self.holder_degree}"
            )
        if self.holder_modulus <= 0:
            raise ValueError(
                f"holder_modulus must be positive, got {self.holder_modulus}"
            )


def check_answer(k: int, t: int, value: float = 0.0, grad=None, x=None) -> None:
    """Vet component k's answer in round t: raise NonFiniteOracleValue,
    naming the round and the component, when value is NaN or infinite, and
    ValueError, naming them and both shapes, when grad's shape is not x's."""
    if not math.isfinite(value):
        raise NonFiniteOracleValue(f"component {k} returned {value} at round {t}")
    if grad is not None and grad.shape != x.shape:
        raise ValueError(
            f"component {k} returned a gradient of shape {grad.shape} at round {t}; "
            f"the point has shape {x.shape}"
        )


def check_nonnegative(name: str, value: float) -> None:
    """Raise ValueError, naming the field, unless 0 <= value < inf (NaN
    fails too)."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def soft_threshold(z: np.ndarray, tau: float) -> np.ndarray:
    """Componentwise sign(z) * max(|z| - tau, 0)."""
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


@dataclass(frozen=True)
class Regularizer:
    """h(x) = l1_weight * ||x||_1 + 0.5 * ridge_weight * ||x||^2, strongly
    convex with modulus ridge_weight and with a closed-form prox; a zero
    weight drops its term, so both at zero is h = 0."""

    l1_weight: float = 0.0
    ridge_weight: float = 0.0

    def __post_init__(self):
        check_nonnegative("l1_weight", self.l1_weight)
        check_nonnegative("ridge_weight", self.ridge_weight)

    @property
    def strong_convexity(self) -> float:
        return self.ridge_weight

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        out = self.l1_weight * float(np.add.reduce(np.abs(x))) if self.l1_weight else 0.0
        if self.ridge_weight > 0:
            out += 0.5 * self.ridge_weight * float(x.dot(x))
        return out

    def values(self, X: np.ndarray) -> np.ndarray:
        """h at each row of the (k, p) array X."""
        X = np.asarray(X, dtype=float)
        out = self.l1_weight * np.abs(X).sum(axis=1) if self.l1_weight else np.zeros(len(X))
        if self.ridge_weight > 0:
            out += 0.5 * self.ridge_weight * np.einsum("ij,ij->i", X, X)
        return out

    def prox(self, z: np.ndarray, tau: float) -> np.ndarray:
        """argmin_y 0.5 * ||y - z||^2 + tau * h(y), closed form."""
        if tau < 0:
            raise ValueError(f"prox weight must be nonnegative, got {tau}")
        z = np.asarray(z, dtype=float)
        # soft_threshold(z, tau * l1_weight) in place, checked once; with no
        # l1 term a copy is that threshold up to the sign of zero, and cheaper
        if self.l1_weight:
            y = np.abs(z)
            y -= tau * self.l1_weight
            np.maximum(y, 0.0, out=y)
            y *= np.sign(z)
        else:
            y = z.copy()
        if self.ridge_weight > 0:
            y /= 1.0 + tau * self.ridge_weight
        return y


@dataclass
class CompositeProblem:
    """f(x) = (1/n) sum_i g_i(x) + h(x) over the squared Euclidean geometry
    of its dimension.

    components answers for each g_i; mean_value_fn and mean_grad_fn
    evaluate the smooth average (1/n) sum_i g_i and its gradient in
    vectorized form, and mean_values_fn the smooth average at every row of
    a (k, p) array at once.  mean_values_fn allocates no temporary larger
    than that array, one value per component, or BLOCK_BYTES; a problem may
    cache data-sized state for it, as lasso does A'A and |A'A|.  certify_fn
    gives, in one pass over the data, the smooth average at x and the
    family's certificate: an upper bound on f(x) - f* that needs no
    knowledge of f*.  quadratic_fn, for a family whose smooth average is
    the quadratic (x'Gx - 2c'x + const) / n, n the number of components,
    returns (G, c), built on its first call; a family sets it only where
    stepping on G is cheaper than on the components.
    """

    components: ComponentOracle
    regularizer: Regularizer
    dimension: int
    mean_value_fn: Callable[[np.ndarray], float]
    mean_grad_fn: Callable[[np.ndarray], np.ndarray]
    mean_values_fn: Callable[[np.ndarray], np.ndarray]
    certify_fn: Callable[[np.ndarray], tuple[float, float]]
    quadratic_fn: Callable[[], tuple[np.ndarray, np.ndarray]] | None = None
    geometry: ProxFunction = field(init=False)

    def __post_init__(self):
        self.geometry = ProxFunction(self.dimension)

    @property
    def n_components(self) -> int:
        return self.components.n

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dimension},)")
        return x

    def mean_smooth_value(self, x: np.ndarray) -> float:
        """(1/n) sum_i g_i(x)."""
        return float(self.mean_value_fn(self._check_point(x)))

    def mean_smooth_grad(self, x: np.ndarray) -> np.ndarray:
        """(1/n) sum_i grad g_i(x)."""
        return np.asarray(self.mean_grad_fn(self._check_point(x)), dtype=float)

    def value(self, x: np.ndarray) -> float:
        """Full objective f(x) = (1/n) sum_i g_i(x) + h(x)."""
        return self.mean_smooth_value(x) + self.regularizer.value(x)

    def values(self, X: np.ndarray) -> np.ndarray:
        """Full objective at each row of the (k, p) array X, h added a point block at a time."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ValueError(
                f"points have shape {X.shape}, expected (k, {self.dimension})"
            )
        out = np.array(self.mean_values_fn(X), dtype=float)
        for block in point_blocks(len(X), self.dimension):
            out[block] += self.regularizer.values(X[block])
        return out

    def certify(self, x: np.ndarray) -> tuple[float, float]:
        """(1/n) sum_i g_i(x) and the certified upper bound on f(x) - f*.  A
        negative certificate is rounding and reads 0; NaN stays NaN."""
        smooth, gap = self.certify_fn(self._check_point(x))
        return float(smooth), (0.0 if gap < 0.0 else float(gap))

    def holder_constants(self) -> tuple[float, float]:
        """The stream's Holder certificate (v, M_v)."""
        return self.components.holder_degree, self.components.holder_modulus
