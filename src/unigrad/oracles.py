"""First-order oracles for composite objectives.

The objective is f(x) = (1/n) sum_i g_i(x) + h(x).  Each smooth-part
component g_i exposes value and (sub)gradient callables together with its
Holder certificate: a degree v in [0, 1] and modulus M_v such that

    ||grad g(x) - grad g(y)||_* <= M_v ||x - y||^v.

The composite regularizer h is simple: its proximal operator has a closed
form for the supported structures (zero, l1, elastic net).
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import ProxFunction

# Size cap, in bytes, of each temporary a batched evaluation allocates; it
# bounds the memory of the full-objective pass whatever the horizon or the
# sample count.
BLOCK_BYTES = 1 << 19


def block_len(row_bytes: int) -> int:
    """Rows of row_bytes bytes each that one BLOCK_BYTES temporary holds."""
    return max(1, BLOCK_BYTES // row_bytes)


class NonFiniteOracleValue(ValueError):
    """A component oracle returned NaN or an infinite value."""


@dataclass(frozen=True)
class ComponentOracle:
    """One smooth component g_i with its Holder-continuity certificate."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    holder_degree: float
    holder_modulus: float

    def __post_init__(self):
        if not 0.0 <= self.holder_degree <= 1.0:
            raise ValueError(
                f"holder_degree must lie in [0, 1], got {self.holder_degree}"
            )
        if self.holder_modulus <= 0:
            raise ValueError(
                f"holder_modulus must be positive, got {self.holder_modulus}"
            )


def oracle_value(component: ComponentOracle, x: np.ndarray, t: int, k: int) -> float:
    """g_k(x) as a float, read in round t; raises NonFiniteOracleValue,
    naming the round and the component, when it is NaN or infinite."""
    value = float(component.value(x))
    if not math.isfinite(value):
        raise NonFiniteOracleValue(f"component {k} returned {value} at round {t}")
    return value


def soft_threshold(z: np.ndarray, tau: float) -> np.ndarray:
    """Componentwise sign(z) * max(|z| - tau, 0)."""
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    z = np.asarray(z, dtype=float)
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


@dataclass(frozen=True)
class Regularizer:
    """Simple convex regularizer h with closed-form prox.

    structure is one of "zero", "l1", "elastic_net".  For elastic_net,
    h(x) = l1_weight * ||x||_1 + 0.5 * ridge_weight * ||x||^2 and the
    strong-convexity modulus equals ridge_weight.
    """

    structure: str
    l1_weight: float = 0.0
    ridge_weight: float = 0.0
    strong_convexity: float = field(init=False)

    _STRUCTURES = ("zero", "l1", "elastic_net")

    def __post_init__(self):
        if self.structure not in self._STRUCTURES:
            raise ValueError(f"unknown regularizer structure: {self.structure!r}")
        if self.l1_weight < 0 or self.ridge_weight < 0:
            raise ValueError("regularizer weights must be nonnegative")
        mu = self.ridge_weight if self.structure == "elastic_net" else 0.0
        object.__setattr__(self, "strong_convexity", mu)

    @staticmethod
    def zero() -> "Regularizer":
        return Regularizer(structure="zero")

    @staticmethod
    def l1(weight: float) -> "Regularizer":
        return Regularizer(structure="l1", l1_weight=weight)

    @staticmethod
    def elastic_net(l1_weight: float, ridge_weight: float) -> "Regularizer":
        return Regularizer(
            structure="elastic_net", l1_weight=l1_weight, ridge_weight=ridge_weight
        )

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if self.structure == "zero":
            return 0.0
        if self.structure == "l1":
            return self.l1_weight * float(np.abs(x).sum())
        return self.l1_weight * float(np.abs(x).sum()) + 0.5 * self.ridge_weight * float(x @ x)

    def values(self, X: np.ndarray) -> np.ndarray:
        """h at each row of the (k, p) array X."""
        X = np.asarray(X, dtype=float)
        if self.structure == "zero":
            return np.zeros(X.shape[0])
        out = self.l1_weight * np.abs(X).sum(axis=1)
        if self.structure == "elastic_net":
            out += 0.5 * self.ridge_weight * np.einsum("ij,ij->i", X, X)
        return out

    def prox(self, z: np.ndarray, tau: float) -> np.ndarray:
        """argmin_y 0.5 * ||y - z||^2 + tau * h(y), closed form."""
        if tau < 0:
            raise ValueError(f"prox weight must be nonnegative, got {tau}")
        z = np.asarray(z, dtype=float)
        if self.structure == "zero":
            return z.copy()
        shrunk = soft_threshold(z, tau * self.l1_weight)
        if self.structure == "l1":
            return shrunk
        return shrunk / (1.0 + tau * self.ridge_weight)


@dataclass
class CompositeProblem:
    """f(x) = (1/n) sum_i g_i(x) + h(x) over the squared Euclidean geometry
    of its dimension.

    mean_value_fn / mean_grad_fn, when supplied by a constructor, evaluate
    the smooth average (1/n) sum_i g_i and its gradient in vectorized form;
    otherwise a loop over components is used.  mean_values_fn likewise
    evaluates the smooth average at every row of a (k, p) array at once,
    keeping each temporary within BLOCK_BYTES.
    """

    components: list[ComponentOracle]
    regularizer: Regularizer
    dimension: int
    mean_value_fn: Callable[[np.ndarray], float] | None = None
    mean_grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    mean_values_fn: Callable[[np.ndarray], np.ndarray] | None = None
    geometry: ProxFunction = field(init=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("problem needs at least one component")
        self.geometry = ProxFunction(self.dimension)

    @property
    def n_components(self) -> int:
        return len(self.components)

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dimension},)")
        return x

    def mean_smooth_value(self, x: np.ndarray) -> float:
        """(1/n) sum_i g_i(x)."""
        x = self._check_point(x)
        if self.mean_value_fn is not None:
            return float(self.mean_value_fn(x))
        return float(np.mean([c.value(x) for c in self.components]))

    def mean_smooth_grad(self, x: np.ndarray) -> np.ndarray:
        """(1/n) sum_i grad g_i(x)."""
        x = self._check_point(x)
        if self.mean_grad_fn is not None:
            return np.asarray(self.mean_grad_fn(x), dtype=float)
        acc = np.zeros(self.dimension)
        for c in self.components:
            acc += c.grad(x)
        return acc / len(self.components)

    def value(self, x: np.ndarray) -> float:
        """Full objective f(x) = (1/n) sum_i g_i(x) + h(x)."""
        return self.mean_smooth_value(x) + self.regularizer.value(x)

    def values(self, X: np.ndarray) -> np.ndarray:
        """Full objective at each row of the (k, p) array X.

        Uses mean_values_fn when the problem has one, else value per row.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ValueError(
                f"points have shape {X.shape}, expected (k, {self.dimension})"
            )
        if self.mean_values_fn is None:
            return np.array([self.value(x) for x in X], dtype=float)
        smooth = np.asarray(self.mean_values_fn(X), dtype=float)
        return smooth + self.regularizer.values(X)

    def holder_constants(self) -> tuple[float, float]:
        """Stream-level (v, M_v): common degree, max modulus over components.

        Raises ValueError when components disagree on the degree.
        """
        degrees = {c.holder_degree for c in self.components}
        if len(degrees) != 1:
            raise ValueError(f"components have mixed Holder degrees: {sorted(degrees)}")
        return degrees.pop(), max(c.holder_modulus for c in self.components)
