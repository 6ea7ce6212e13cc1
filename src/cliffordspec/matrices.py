"""Dense matrix values in two kinds and the Hermitian tuple type.

Exact matrices are numpy object arrays of GaussianRational entries; float
matrices are complex128 arrays.  The tensor product convention is fixed
package-wide by :func:`kron`: the *second* factor indexes the blocks,

    kron(A, [[a, b], [c, d]]) = [[aA, bA], [cA, dA]],

which is the opposite of ``numpy.kron``.  Every tensor product in the
package routes through this one function, on float, GaussianRational or
Python-int object arrays.  :func:`gaussian_integers` gives exact matrices
their integer form, one common denominator and (re, im) arrays of Python
ints, in which exact determinants and the localizer pencil compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ContractError, KindMismatchError
from .scalars import EXACT, FLOAT, GaussianRational, as_gaussian
from .tolerances import HERMITIAN_RTOL


def exact_matrix(rows) -> np.ndarray:
    """Build an exact matrix from nested (int | Fraction | GaussianRational |
    (re, im) pair) entries."""
    n = len(rows)
    out = np.empty((n, len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != out.shape[1]:
            raise ContractError("ragged rows in matrix literal")
        for j, e in enumerate(row):
            if isinstance(e, tuple):
                out[i, j] = GaussianRational(Fraction(e[0]), Fraction(e[1]))
            else:
                out[i, j] = as_gaussian(e)
    return out


def float_matrix(rows) -> np.ndarray:
    return np.asarray(rows, dtype=complex)


def kind_of(m: np.ndarray) -> str:
    return EXACT if m.dtype == object else FLOAT


def check_same_kind(*mats: np.ndarray) -> str:
    kinds = {kind_of(m) for m in mats}
    if len(kinds) != 1:
        raise KindMismatchError("operands mix exact and float matrices")
    return kinds.pop()


def exact_zeros(shape) -> np.ndarray:
    return np.full(shape, GaussianRational(0), dtype=object)


def exact_eye(n: int) -> np.ndarray:
    out = exact_zeros((n, n))
    np.fill_diagonal(out, GaussianRational(1))
    return out


def eye(n: int, kind: str) -> np.ndarray:
    """The n-by-n identity of a kind: complex128 or GaussianRational entries."""
    return np.eye(n, dtype=complex) if kind == FLOAT else exact_eye(n)


def to_float(m: np.ndarray) -> np.ndarray:
    """Explicit exact -> complex128 conversion (lossy for big fractions);
    a float matrix is returned as it is."""
    return m if kind_of(m) == FLOAT else m.astype(complex)


def read_only(*mats) -> tuple:
    """Views of mats that refuse writes; the arrays passed in keep their own
    flags."""
    views = tuple(m.view() for m in mats)
    for v in views:
        v.setflags(write=False)
    return views


def dagger(m: np.ndarray) -> np.ndarray:
    """The conjugate transpose; on exact matrices conj() conjugates each entry."""
    return m.conj().T


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    check_same_kind(a, b)
    # np.matmul rejects object dtype; np.dot handles both kinds.
    return np.dot(a, b)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with block structure given by the second factor."""
    check_same_kind(a, b)
    p, q = a.shape
    r, s = b.shape
    if kind_of(a) == FLOAT:
        out = np.einsum("kl,ij->kilj", b, a).reshape(r * p, s * q)
        return np.ascontiguousarray(out)
    return (b[:, None, :, None] * a[None, :, None, :]).reshape(r * p, s * q)


def gaussian_integers(mats) -> tuple:
    """(den, re, im) for exact matrices of one shape: den is the lcm of the
    entry denominators and den * mats[k] = re[k] + i im[k], with re and im
    (k, rows, cols) object arrays of Python ints."""
    flat = [e for m in mats for e in m.reshape(-1)]
    den = math.lcm(*(e.re.denominator for e in flat), *(e.im.denominator for e in flat))
    shape = (len(mats), *mats[0].shape)
    return den, *(
        np.array([x.numerator * (den // x.denominator) for x in xs], dtype=object).reshape(shape)
        for xs in ([e.re for e in flat], [e.im for e in flat])
    )


def from_gaussian_integers(den: int, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The exact matrix (re + i im) / den, for integer arrays re and im of one
    shape: the inverse of :func:`gaussian_integers` for one matrix."""
    out = [GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(re.flat, im.flat)]
    return np.array(out, dtype=object).reshape(re.shape)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA for square matrices of identical shape and kind."""
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ContractError("commutator needs equal square shapes")
    return matmul(a, b) - matmul(b, a)


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude as a float, 0.0 for an empty matrix."""
    return float(np.max(np.abs(m), initial=0.0))


def defect_exceeds(defect: np.ndarray, m: np.ndarray, rtol: float) -> bool:
    """max |defect| > rtol * max |m| (1 for a zero m): the float check of a
    symmetry such as M = -M^T, with defect = M + M^T, against the scale of M."""
    return max_abs(defect) > rtol * (max_abs(m) or 1.0)


def is_hermitian(m: np.ndarray) -> bool:
    if m.shape[0] != m.shape[1]:
        return False
    if kind_of(m) == EXACT:
        return bool(np.all(m == dagger(m)))
    scale = float(np.linalg.norm(m)) or 1.0
    return max_abs(m - dagger(m)) <= HERMITIAN_RTOL * scale


def require_hermitian(m: np.ndarray, what: str = "matrix") -> None:
    if not is_hermitian(m):
        raise ContractError(f"{what} is not Hermitian")


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, m = a.shape[0], b.shape[0]
    # the identity's off-diagonal blocks are the zeros of the sum
    out = eye(n + m, check_same_kind(a, b))
    out[:n, :n] = a
    out[n:, n:] = b
    return out


@dataclass(frozen=True, eq=False)
class HermitianTuple:
    """d Hermitian n-by-n matrices of a uniform scalar kind, immutable: the
    matrices are read-only views, so the float image of an exact tuple, formed
    on the first :meth:`as_float` and held, cannot go stale."""

    matrices: tuple = field()
    kind: str = field(init=False)
    _float_image: "HermitianTuple | None" = field(init=False, repr=False)

    def __init__(self, matrices):
        mats = read_only(*(np.asarray(m) for m in matrices))
        if not mats:
            raise ContractError("a Hermitian tuple needs at least one matrix")
        kind = check_same_kind(*mats)
        n = mats[0].shape[0]
        for k, m in enumerate(mats):
            if m.shape != (n, n):
                raise ContractError(f"matrix {k} is not {n}x{n}")
            if kind == FLOAT and not np.isfinite(m).all():
                raise ContractError(f"matrix {k} has a non-finite entry")
            require_hermitian(m, f"matrix {k}")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_float_image", None)

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    def as_float(self) -> "HermitianTuple":
        """The float-kind tuple: self, or for an exact tuple one image shared
        by every call, converted (and checked Hermitian) on the first."""
        if self.kind == FLOAT:
            return self
        if self._float_image is None:
            image = HermitianTuple([to_float(m) for m in self.matrices])
            object.__setattr__(self, "_float_image", image)
        return self._float_image

    def shifted(self, mu) -> "HermitianTuple":
        """Subtract mu_j from the diagonal of each matrix."""
        if len(mu) != self.d:
            raise ContractError("shift length must equal d")
        scalar = complex if self.kind == FLOAT else as_gaussian
        unit = eye(self.n, self.kind)
        return HermitianTuple([m - scalar(s) * unit for m, s in zip(self.matrices, mu)])

    def direct_sum(self, other: "HermitianTuple") -> "HermitianTuple":
        if other.d != self.d:
            raise ContractError("direct sum needs tuples of equal length")
        return HermitianTuple(
            [direct_sum(a, b) for a, b in zip(self.matrices, other.matrices)]
        )
