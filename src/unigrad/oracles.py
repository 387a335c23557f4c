"""First-order oracles for composite objectives.

The objective is f(x) = (1/n) sum_i g_i(x) + h(x).  Each smooth-part
component g_i exposes value and (sub)gradient callables together with its
Holder certificate: a degree v in [0, 1] and modulus M_v such that

    ||grad g(x) - grad g(y)||_* <= M_v ||x - y||^v.

The composite regularizer h is simple: its proximal operator has a closed
form for the supported structures (zero, l1, elastic net).
"""

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


class UnsupportedRegularizer(ValueError):
    """Raised when a closed-form path needs a prox the structure lacks."""


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


@dataclass(frozen=True)
class Regularizer:
    """Simple convex regularizer h with closed-form prox.

    structure is one of "zero", "l1", "elastic_net", "custom".  For
    elastic_net, h(x) = l1_weight * ||x||_1 + 0.5 * ridge_weight * ||x||^2
    and the strong-convexity modulus equals ridge_weight.  Custom
    regularizers supply their own value (and optionally prox) callables.
    """

    structure: str
    l1_weight: float = 0.0
    ridge_weight: float = 0.0
    value_fn: Callable[[np.ndarray], float] | None = None
    prox_fn: Callable[[np.ndarray, float], np.ndarray] | None = None
    strong_convexity: float = field(init=False)

    _STRUCTURES = ("zero", "l1", "elastic_net", "custom")

    def __post_init__(self):
        if self.structure not in self._STRUCTURES:
            raise ValueError(f"unknown regularizer structure: {self.structure!r}")
        if self.l1_weight < 0 or self.ridge_weight < 0:
            raise ValueError("regularizer weights must be nonnegative")
        if self.structure == "custom" and self.value_fn is None:
            raise ValueError("custom regularizer requires value_fn")
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

    @staticmethod
    def custom(
        value_fn: Callable[[np.ndarray], float],
        prox_fn: Callable[[np.ndarray, float], np.ndarray] | None = None,
        strong_convexity: float = 0.0,
    ) -> "Regularizer":
        reg = Regularizer(structure="custom", value_fn=value_fn, prox_fn=prox_fn)
        object.__setattr__(reg, "strong_convexity", strong_convexity)
        return reg

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if self.structure == "zero":
            return 0.0
        if self.structure == "l1":
            return self.l1_weight * float(np.abs(x).sum())
        if self.structure == "elastic_net":
            return self.l1_weight * float(np.abs(x).sum()) + 0.5 * self.ridge_weight * float(x @ x)
        return float(self.value_fn(x))  # type: ignore[misc]

    def values(self, X: np.ndarray) -> np.ndarray:
        """h at each row of the (k, p) array X."""
        X = np.asarray(X, dtype=float)
        if self.structure == "zero":
            return np.zeros(X.shape[0])
        if self.structure == "custom":
            return np.array([self.value(x) for x in X], dtype=float)
        out = self.l1_weight * np.abs(X).sum(axis=1)
        if self.structure == "elastic_net":
            out += 0.5 * self.ridge_weight * np.einsum("ij,ij->i", X, X)
        return out

    def prox(self, z: np.ndarray, tau: float) -> np.ndarray:
        """argmin_y 0.5 * ||y - z||^2 + tau * h(y), closed form.

        Raises UnsupportedRegularizer for custom structures without prox_fn.
        """
        if tau < 0:
            raise ValueError(f"prox weight must be nonnegative, got {tau}")
        z = np.asarray(z, dtype=float)
        if self.structure == "zero":
            return z.copy()
        if self.structure == "l1":
            from .bregman import soft_threshold

            return soft_threshold(z, tau * self.l1_weight)
        if self.structure == "elastic_net":
            from .bregman import soft_threshold

            shrunk = soft_threshold(z, tau * self.l1_weight)
            return shrunk / (1.0 + tau * self.ridge_weight)
        if self.prox_fn is not None:
            return np.asarray(self.prox_fn(z, tau), dtype=float)
        raise UnsupportedRegularizer(
            "custom regularizer has no prox; closed-form solvers cannot proceed"
        )


@dataclass
class CompositeProblem:
    """f(x) = (1/n) sum_i g_i(x) + h(x) over a fixed geometry.

    mean_value_fn / mean_grad_fn, when supplied by a constructor, evaluate
    the smooth average (1/n) sum_i g_i and its gradient in vectorized form;
    otherwise a loop over components is used.  mean_values_fn likewise
    evaluates the smooth average at every row of a (k, p) array at once,
    keeping each temporary within BLOCK_BYTES.
    """

    components: list[ComponentOracle]
    regularizer: Regularizer
    geometry: ProxFunction
    dimension: int
    mean_value_fn: Callable[[np.ndarray], float] | None = None
    mean_grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    mean_values_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not self.components:
            raise ValueError("problem needs at least one component")
        if self.dimension != self.geometry.dimension:
            raise ValueError(
                f"dimension {self.dimension} disagrees with geometry "
                f"dimension {self.geometry.dimension}"
            )

    @property
    def n_components(self) -> int:
        return len(self.components)

    def _check_index(self, t: int) -> int:
        if not 0 <= t < len(self.components):
            raise IndexError(
                f"component index {t} out of range [0, {len(self.components)})"
            )
        return t

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

    def per_sample_value(self, t: int, x: np.ndarray) -> float:
        """Round objective g_t(x) + h(x) seen by the online methods."""
        t = self._check_index(t)
        x = self._check_point(x)
        return float(self.components[t].value(x)) + self.regularizer.value(x)

    def component_subgradient(self, t: int, x: np.ndarray) -> np.ndarray:
        t = self._check_index(t)
        x = self._check_point(x)
        return np.asarray(self.components[t].grad(x), dtype=float)

    def holder_constants(self) -> tuple[float, float]:
        """Stream-level (v, M_v): common degree, max modulus over components.

        Raises ValueError when components disagree on the degree.
        """
        degrees = {c.holder_degree for c in self.components}
        if len(degrees) != 1:
            raise ValueError(f"components have mixed Holder degrees: {sorted(degrees)}")
        return degrees.pop(), max(c.holder_modulus for c in self.components)
