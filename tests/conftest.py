import numpy as np
import pytest

from trudlab.eigensolver import first_eigenvalue
from trudlab.exponent import Exponent


@pytest.fixture(scope="session")
def eigen_cache():
    """Memoized first-eigenvalue results shared across the suite."""
    cache = {}

    def get(p_value, n, R):
        key = (p_value, n, R)
        if key not in cache:
            cache[key] = first_eigenvalue(Exponent.parse(p_value), n, R)
        return cache[key]

    return get


def sinc_profile(r):
    r = np.asarray(r, float)
    safe = np.maximum(r, 1e-300)
    return np.where(r == 0, 1.0, np.sin(np.pi * safe) / (np.pi * safe))
