import numpy as np
import pytest
from hypothesis import settings

from cliffordspec.matrices import HermitianTuple, exact_zeros, float_matrix
from cliffordspec.scalars import GaussianRational

# property tests run a fixed example sequence with no per-example deadline,
# so a slow or busy host cannot make them flake
settings.register_profile("cliffordspec", deadline=None, derandomize=True)
settings.load_profile("cliffordspec")


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_tuple(rng, d, n):
    return HermitianTuple([float_matrix(random_hermitian(rng, n)) for _ in range(d)])


def former_exact_conjugation_unitary(n2):
    """The former entry loop of the exact Q = [[I, -iZ], [iZ, I]],
    Z = [[0, I], [-I, 0]] of side n2: the reference for the skew pencil,
    (1/2) Q* M Q for each member M of a self-dual triple's localizer pencil."""
    half = n2 // 2
    q = exact_zeros((2 * n2, 2 * n2))
    one = GaussianRational(1)
    i = GaussianRational(0, 1)
    for k in range(n2):
        q[k, k] = one
        q[n2 + k, n2 + k] = one
    for k in range(half):
        q[k, n2 + half + k] = -i
        q[half + k, n2 + k] = i
        q[n2 + k, half + k] = i
        q[n2 + half + k, k] = -i
    return q


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
