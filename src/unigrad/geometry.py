"""The prox-function and the Bregman distance it induces.

A prox-function d is 1-strongly convex w.r.t. the Euclidean norm and attains
its minimum value 0 at its center.  The induced Bregman distance

    dist(x, y) = d(y) - d(x) - <grad d(x), y - x>

therefore satisfies dist(x, y) >= 0.5 * ||x - y||^2.  Only the squared
Euclidean prox-function d(x) = 0.5 * ||x - center||^2 ships, for which
dist(x, y) = 0.5 * ||x - y||^2 whatever the center; the methods use the
geometry only through dist.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProxFunction:
    """The squared Euclidean geometry of a dimension-`dimension` space."""

    dimension: int

    def __post_init__(self):
        if self.dimension <= 0:
            raise ValueError(f"dimension must be positive, got {self.dimension}")

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dimension},)")
        return x

    def bregman(self, x: np.ndarray, y: np.ndarray) -> float:
        """Bregman distance dist(x, y) = 0.5 * ||x - y||^2."""
        x = self._check(x)
        y = self._check(y)
        diff = y - x
        return 0.5 * float(diff @ diff)
