import numpy as np
import pytest
from hypothesis import settings

from cliffordspec.matrices import HermitianTuple, float_matrix

# property tests run a fixed example sequence with no per-example deadline,
# so a slow or busy host cannot make them flake
settings.register_profile("cliffordspec", deadline=None, derandomize=True)
settings.load_profile("cliffordspec")


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_tuple(rng, d, n):
    return HermitianTuple([float_matrix(random_hermitian(rng, n)) for _ in range(d)])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
