import numpy as np
import pytest

from congeo import finsler


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_randers(rng, dim=2, max_drift=0.9):
    """Random valid constant-coefficient Randers structure."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    a = q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.normal(size=dim)
    nb = np.sqrt(b @ np.linalg.solve(a, b))
    b *= rng.uniform(0.05, max_drift) / nb
    return finsler.constant_randers(a, b)


def invalid_drift_structure():
    """Raw structure with ||b||_a = 1.5, which no validating constructor accepts."""
    packed = (np.eye(2), np.array([1.5, 0.0]), np.zeros((2, 2, 2)), np.zeros((2, 2)))
    return finsler.RandersStructure(bundle=lambda x: packed)


def random_direction(rng, dim=2):
    y = rng.normal(size=dim)
    while np.linalg.norm(y) < 1e-8:
        y = rng.normal(size=dim)
    return y * 10 ** rng.uniform(-1.5, 1.5)
