"""Spectral localizer assembly.

L_lambda = sum_j (X_j - lambda_j I) (x) gamma_j is Hermitian for real
lambda; the joint (Clifford) spectrum is where it is singular.  The gammas
are those of ``cliffordrep.rep_for(d)``; ``build`` alone takes another
representation, and another irreducible one of the same rank changes L only
by a unitary conjugation and, for odd d, perhaps a sign.  For d = 4 with
the block off-diagonal standard representation there is a half-size
reduced localizer built from the upper-right gamma blocks, with
|det L| = |det L_reduced|^2.  The Laplace operator sum (X_j - lambda_j)^2
is also provided; its determinant's zero set is the (often empty) Laplace
spectrum.

Both localizers, the Laplace operator as a function of (lambda,
|lambda|^2) and the archetypal skew pencil (1/2) Q* L Q are affine
pencils, the internal :class:`Pencil`, which the characteristic
polynomials, the sampler and the archetypal invariants assemble by ``at``
at one point or ``at_rows`` at many.  Both localizer pencils come from one
formula on the Gaussian form (den, re, im) of ``matrices.gaussian_form``,
of either kind: L0 = sum_j X_j (x) B_j and P_j = I (x) B_j.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Number

import numpy as np

from .cliffordrep import GammaRep, rep_for, standard_rep
from .errors import ContractError, KindMismatchError
from .matrices import (
    EXACT,
    FLOAT,
    HermitianTuple,
    commutator,
    eye,
    from_gaussian_integers,
    gaussian_form,
    kron,
    matmul,
    max_abs,
    read_only,
)
from .linalg import operator_norm
from .scalars import as_gaussian, is_exact_scalar
from .tolerances import LAMBDA_BOUND


def _coerce_lambda(tuple_: HermitianTuple, lam) -> list:
    """Real lambda as GaussianRational (exact tuples) or finite float
    components of magnitude at most LAMBDA_BOUND (float tuples, from any
    number, exact ones included)."""
    if len(lam) != tuple_.d:
        raise ContractError(f"lambda must have length {tuple_.d}")
    out = []
    for j, v in enumerate(lam):
        if tuple_.kind == EXACT:
            if not is_exact_scalar(v):
                raise KindMismatchError(f"lambda component {j} is {v!r}, not an exact number")
            v = as_gaussian(v)
            imag = v.im
        else:
            try:
                z = complex(v) if isinstance(v, Number) else None
            except OverflowError:  # an int or fraction beyond the float range
                z = None
            if z is None or not cmath.isfinite(z):
                raise ContractError(f"lambda component {j} is {v!r}, not a finite number")
            if abs(z.real) > LAMBDA_BOUND:
                raise ContractError(
                    f"lambda component {j} is {v!r}, beyond the bound {LAMBDA_BOUND:g}"
                )
            v, imag = z.real, z.imag
        if imag:
            raise ContractError("lambda components must be real")
        out.append(v)
    return out


def _lowest_terms(den: int, re: np.ndarray, im: np.ndarray) -> tuple:
    """(den, re, im) over the gcd of den and every entry: the integer form
    whose den is the lcm of the entry denominators."""
    common = math.gcd(den, *re.reshape(-1), *im.reshape(-1))
    return den // common, *read_only(re // common, im // common)


class Pencil:
    """L(c) = L0 - sum_k c_k P_k, an affine family of square matrices.

    Every pencil comes from :meth:`from_gaussian_form`, the members
    (re[k] + i im[k]) / den with L0 first, as :attr:`gaussian_form` gives
    them back; :meth:`from_members` takes the members as matrices.  The
    localizer pencils (:meth:`localizer`, :meth:`reduced`) are assembled by
    one formula, ``_affine_pencil``.  Float pencils hold one read-only
    complex128 stack ``members``, (d + 1, side, side).  Exact ones hold
    ``den`` and read-only ``re`` and ``im``, object arrays of Python ints of
    that shape in lowest terms; GaussianRational entries are formed only
    for a matrix ``at`` returns."""

    @classmethod
    def localizer(cls, tuple_: HermitianTuple, rep: GammaRep | None = None) -> "Pencil":
        """The localizer pencil of tuple_ in rep, the one the tuple holds for
        rep_for(tuple_.d), the default, on exact gammas or their float images."""
        if rep is None or rep is rep_for(tuple_.d):
            return tuple_._held(_localizer_pencil)
        return _localizer_pencil(tuple_, rep)

    @classmethod
    def reduced(cls, tuple_: HermitianTuple) -> "Pencil":
        """The reduced localizer pencil of a 4-tuple, on the off-diagonal
        blocks of the standard d = 4 representation, held by the tuple."""
        return tuple_._held(_reduced_pencil)

    @classmethod
    def from_members(cls, members) -> "Pencil":
        """L(c) = members[0] - sum_k c_k members[k], all of one kind and side."""
        return cls.from_gaussian_form(*gaussian_form(members))

    @classmethod
    def from_gaussian_form(cls, den: int, re: np.ndarray, im: np.ndarray) -> "Pencil":
        """The pencil of members (re[k] + i im[k]) / den: exact, in lowest
        terms, for object arrays of Python ints, or float for float arrays,
        its complex members assembled part by part."""
        pencil = cls.__new__(cls)
        pencil.d, pencil.side = len(re) - 1, re.shape[1]
        if re.dtype == object:
            pencil.kind = EXACT
            pencil.den, pencil.re, pencil.im = _lowest_terms(den, re, im)
            return pencil
        pencil.kind = FLOAT
        pencil.members = np.empty(re.shape, dtype=complex)
        pencil.members.real, pencil.members.imag = re / den, im / den
        pencil.members.setflags(write=False)
        return pencil

    @property
    def gaussian_form(self) -> tuple:
        """(den, re, im) with L0 and the P_k the (re[k] + i im[k]) / den: the
        exact pencil's Python ints, or a float pencil's real and imaginary
        parts over 1."""
        if self.kind == EXACT:
            return self.den, self.re, self.im
        return 1, self.members.real, self.members.imag

    @classmethod
    def laplace(cls, tuple_: HermitianTuple) -> "Pencil":
        """sum_j (X_j - lambda_j)^2 = S - sum_j c_j (2 X_j) - c_(d+1) (-I) at
        c = (lambda, sum_j lambda_j^2), with S = sum_j X_j^2: d + 1 members
        P of side n."""
        members = (laplace(tuple_), *(x * 2 for x in tuple_.matrices), -eye(tuple_.n, tuple_.kind))
        return cls.from_members(members)

    def at(self, lam) -> np.ndarray:
        """L(lam) for real lam: float, or GaussianRational entries when exact
        (lam then rational or real GaussianRational)."""
        if self.kind == FLOAT:
            p = self.members[1:]
            return self.members[0] - sum((v * m for v, m in zip(lam[1:], p[1:])), lam[0] * p[0])
        den, a = self._gaussian_at(lam)
        return from_gaussian_integers(den, *a)

    def _gaussian_at(self, lam) -> tuple:
        """(den, a) with den L(lam) = a[0] + i a[1], a a (2, side, side)
        object array of Python ints, for an exact pencil at rational lam."""
        lam = [as_gaussian(v).re for v in lam]
        q = math.lcm(*(v.denominator for v in lam))
        c = np.array([int(v * q) for v in lam], dtype=object)[:, None, None]
        parts = [part[0] * q - (c * part[1:]).sum(axis=0) for part in (self.re, self.im)]
        return self.den * q, np.stack(parts)

    def at_rows(self, lam: np.ndarray) -> np.ndarray:
        """L(c) for each row c of lam, shape (count, d), in one buffer."""
        mats = np.tensordot(lam, self.members[1:], axes=(1, 0))
        return np.subtract(self.members[0][None], mats, out=mats)


def _affine_pencil(tuple_: HermitianTuple, blocks) -> Pencil:
    """The pencil L0 = sum_j X_j (x) B_j, P_j = I (x) B_j, for blocks B_j of
    the tuple's kind, formed on the Gaussian forms of the tuple and the
    blocks: exactly on Python ints, or on float parts over 1.  L0 starts from
    the j = 0 term and adds each further term whole, so a float pencil has
    the bits of the complex sum of the kron(X_j, B_j)."""
    if len(blocks) != tuple_.d:
        raise ContractError("representation rank must match tuple length")
    dx, xr, xi = gaussian_form(tuple_.matrices)
    db, br, bi = gaussian_form(blocks)
    terms = [
        (kron(xr[j], br[j]) - kron(xi[j], bi[j]), kron(xr[j], bi[j]) + kron(xi[j], br[j]))
        for j in range(tuple_.d)
    ]
    l0_re, l0_im = (sum(part[1:], part[0]) for part in zip(*terms))
    unit = np.eye(tuple_.n, dtype=xr.dtype) * dx
    re = np.stack([l0_re, *(kron(unit, b) for b in br)])
    im = np.stack([l0_im, *(kron(unit, b) for b in bi)])
    return Pencil.from_gaussian_form(dx * db, re, im)


def _localizer_pencil(tuple_: HermitianTuple, rep: GammaRep | None = None) -> Pencil:
    rep = rep_for(tuple_.d) if rep is None else rep
    return _affine_pencil(tuple_, rep.gammas if tuple_.kind == EXACT else rep.float_gammas)


def _reduced_pencil(tuple_: HermitianTuple) -> Pencil:
    rep = standard_rep(4)
    blocks = rep.off_diagonal_blocks if tuple_.kind == EXACT else rep.float_off_diagonal_blocks
    return _affine_pencil(tuple_, blocks)


@dataclass(frozen=True, eq=False)
class Localizer:
    """A localizer matrix, full or reduced, and the lambda it was assembled at."""

    lam: tuple
    matrix: np.ndarray


def build(tuple_: HermitianTuple, rep: GammaRep | None = None, lam=None) -> Localizer:
    """Assemble L_lambda = sum (X_j - lambda_j) (x) gamma_j, in rep_for(d)
    unless another representation is given: the one public entry that takes
    a representation."""
    pencil = Pencil.localizer(tuple_, rep)
    lam = _coerce_lambda(tuple_, [0] * tuple_.d if lam is None else lam)
    return Localizer(tuple(lam), pencil.at(lam))


def build_reduced(tuple_: HermitianTuple, lam=None) -> Localizer:
    """Half-size localizer from the upper-right gamma blocks (d = 4 only)."""
    if tuple_.d != 4:
        raise ContractError("the reduced localizer needs a 4-tuple")
    pencil = Pencil.reduced(tuple_)
    lam = _coerce_lambda(tuple_, [0] * 4 if lam is None else lam)
    return Localizer(tuple(lam), pencil.at(lam))


def laplace(tuple_: HermitianTuple, lam=None) -> np.ndarray:
    """sum_j (X_j - lambda_j)^2, a PSD Hermitian n x n matrix."""
    lam = _coerce_lambda(tuple_, [0] * tuple_.d if lam is None else lam)
    shifted = tuple_.shifted(lam)
    total = matmul(shifted.matrices[0], shifted.matrices[0])
    for x in shifted.matrices[1:]:
        total = total + matmul(x, x)
    return total


def square_identity_residual(tuple_: HermitianTuple, lam=None):
    """|| L^2 - [ sum (X_j-l_j)^2 (x) I + sum_{j<k} [X_j,X_k] (x) g_j g_k ] ||,
    in rep_for(d).

    Exactly zero for exact tuples (returned as a float 0.0).
    """
    rep = rep_for(tuple_.d)
    loc = build(tuple_, rep, lam)
    lsq = matmul(loc.matrix, loc.matrix)
    gammas = rep.gammas if tuple_.kind == EXACT else rep.as_float()
    shifted = tuple_.shifted(loc.lam)
    rhs = kron(laplace(tuple_, loc.lam), eye(rep.g, tuple_.kind))
    for j in range(tuple_.d):
        for k in range(j + 1, tuple_.d):
            comm = commutator(shifted.matrices[j], shifted.matrices[k])
            rhs = rhs + kron(comm, matmul(gammas[j], gammas[k]))
    return max_abs(lsq - rhs) if tuple_.kind == EXACT else operator_norm(lsq - rhs)
