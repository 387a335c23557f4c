"""Bregman-distance behavior of the squared Euclidean geometry."""

import numpy as np
import pytest

from unigrad.geometry import ProxFunction


def test_bregman_zero_iff_equal_points():
    d = ProxFunction(4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        assert d.bregman(x, x) == 0.0
        if not np.array_equal(x, y):
            assert d.bregman(x, y) > 0.0


def test_bregman_matches_half_squared_distance():
    d = ProxFunction(2)
    got = d.bregman(np.zeros(2), np.array([3.0, 4.0]))
    assert got == pytest.approx(12.5)


def test_bregman_strong_convexity_lower_bound():
    d = ProxFunction(5)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = rng.normal(size=5) * 3.0
        y = rng.normal(size=5) * 3.0
        lower = 0.5 * float(np.sum((x - y) ** 2))
        assert d.bregman(x, y) >= lower - 1e-12 * (1.0 + lower)


def test_constructor_rejects_bad_dimension():
    with pytest.raises(ValueError):
        ProxFunction(dimension=0)
    with pytest.raises(ValueError):
        ProxFunction(dimension=-3)


def test_operations_reject_dimension_mismatch():
    d = ProxFunction(2)
    bad = np.zeros(3)
    good = np.zeros(2)
    with pytest.raises(ValueError):
        d.bregman(good, bad)
    with pytest.raises(ValueError):
        d.bregman(bad, good)
