"""Spectral localizer assembly.

L_lambda = sum_j (X_j - lambda_j I) (x) gamma_j is Hermitian for real
lambda; the joint (Clifford) spectrum is where it is singular.  For d = 4
with the block off-diagonal standard representation there is a half-size
reduced localizer built from the upper-right gamma blocks, with
|det L| = |det L_reduced|^2.  The Laplace operator sum (X_j - lambda_j)^2
is also provided; its determinant's zero set is the (often empty) Laplace
spectrum.

Both localizers, the Laplace operator as a function of (lambda,
|lambda|^2) and the archetypal skew pencil (1/2) Q* L Q are affine
pencils, the internal :class:`Pencil`, which the characteristic
polynomials, the sampler and the archetypal invariants assemble by ``at``
at one point or ``at_rows`` at many.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Number

import numpy as np

from .cliffordrep import GammaRep, rep_for, standard_rep
from .errors import ContractError
from .matrices import (
    EXACT,
    FLOAT,
    HermitianTuple,
    check_same_kind,
    commutator,
    eye,
    from_gaussian_integers,
    gaussian_integers,
    kron,
    matmul,
    max_abs,
)
from .linalg import operator_norm
from .scalars import as_gaussian


def _coerce_lambda(tuple_: HermitianTuple, lam) -> list:
    """Real lambda as GaussianRational (exact tuples) or finite float
    components (float tuples, from any number, exact ones included)."""
    if len(lam) != tuple_.d:
        raise ContractError(f"lambda must have length {tuple_.d}")
    out = []
    for j, v in enumerate(lam):
        if tuple_.kind == EXACT:
            v = as_gaussian(v)
            imag = v.im
        else:
            try:
                z = complex(v) if isinstance(v, Number) else None
            except OverflowError:  # an int or fraction beyond the float range
                z = None
            if z is None or not cmath.isfinite(z):
                raise ContractError(f"lambda component {j} is {v!r}, not a finite number")
            v, imag = z.real, z.imag
        if imag:
            raise ContractError("lambda components must be real")
        out.append(v)
    return out


class Pencil:
    """L(c) = L0 - sum_k c_k P_k, an affine family of square matrices.

    The localizer pencil has c = lambda, L0 = sum_j X_j (x) B_j and
    P_j = I (x) B_j, for blocks B_j that are the gammas (:meth:`localizer`)
    or, for the reduced localizer, the d = 4 off-diagonal blocks
    (:meth:`reduced`); :meth:`from_members` takes L0 and the P_k as they
    are, as :meth:`laplace` and the skew pencil do.  The
    blocks are of the tuple's kind: for a float tuple those constructors
    pass the float images the representation holds.  Float pencils hold
    complex128 ``l0`` and give the P_k as ``parts``.  Exact ones hold ``re``
    and ``im``, (d + 1, side, side) object arrays of Python ints with
    L0 = (re[0] + i im[0]) / den and P_k = (re[k] + i im[k]) / den;
    GaussianRational entries are formed only for a matrix ``at`` returns."""

    def __init__(self, tuple_: HermitianTuple, blocks):
        if len(blocks) != tuple_.d:
            raise ContractError("representation rank must match tuple length")
        self.kind = tuple_.kind
        self.d = tuple_.d
        self.side = tuple_.n * blocks[0].shape[0]
        if self.kind == FLOAT:
            self.blocks = tuple(blocks)
            self.eye = np.eye(tuple_.n, dtype=complex)
            self.l0 = kron(tuple_.matrices[0], self.blocks[0])
            for x, b in zip(tuple_.matrices[1:], self.blocks[1:]):
                self.l0 = self.l0 + kron(x, b)
            return
        check_same_kind(tuple_.matrices[0], *blocks)
        dx, xr, xi = gaussian_integers(tuple_.matrices)
        db, br, bi = gaussian_integers(blocks)
        l0_re = l0_im = 0
        for j in range(self.d):
            l0_re = l0_re + kron(xr[j], br[j]) - kron(xi[j], bi[j])
            l0_im = l0_im + kron(xr[j], bi[j]) + kron(xi[j], br[j])
        unit = np.eye(tuple_.n, dtype=int).astype(object) * dx
        re = np.stack([l0_re, *(kron(unit, b) for b in br)])
        im = np.stack([l0_im, *(kron(unit, b) for b in bi)])
        # divide out what the lcm of the entry denominators does not need
        common = math.gcd(dx * db, *re.reshape(-1), *im.reshape(-1))
        self.den, self.re, self.im = dx * db // common, re // common, im // common

    @classmethod
    def localizer(cls, tuple_: HermitianTuple, rep: GammaRep) -> "Pencil":
        """The localizer pencil of tuple_ in rep, on rep's exact gammas or
        on the float images it holds."""
        return cls(tuple_, rep.gammas if tuple_.kind == EXACT else rep.float_gammas)

    @classmethod
    def reduced(cls, tuple_: HermitianTuple) -> "Pencil":
        """The reduced localizer pencil of a 4-tuple, on the off-diagonal
        blocks of the standard d = 4 representation."""
        rep = standard_rep(4)
        exact = tuple_.kind == EXACT
        return cls(tuple_, rep.off_diagonal_blocks if exact else rep.float_off_diagonal_blocks)

    @classmethod
    def from_members(cls, members) -> "Pencil":
        """L(c) = members[0] - sum_k c_k members[k], all of one kind and
        side, with no identity factor."""
        pencil = cls.__new__(cls)
        pencil.kind = check_same_kind(*members)
        pencil.d, pencil.side = len(members) - 1, members[0].shape[0]
        if pencil.kind == FLOAT:
            pencil.l0, pencil.blocks, pencil.eye = members[0], tuple(members[1:]), None
        else:
            pencil.den, pencil.re, pencil.im = gaussian_integers(members)
        return pencil

    @classmethod
    def laplace(cls, tuple_: HermitianTuple) -> "Pencil":
        """sum_j (X_j - lambda_j)^2 = S - sum_j c_j (2 X_j) - c_(d+1) (-I) at
        c = (lambda, sum_j lambda_j^2), with S = sum_j X_j^2: d + 1 members
        P of side n."""
        members = (laplace(tuple_), *(x * 2 for x in tuple_.matrices), -eye(tuple_.n, tuple_.kind))
        return cls.from_members(members)

    def _lift(self, b: np.ndarray) -> np.ndarray:
        """I (x) b, or b itself for a pencil without an identity factor."""
        return b if self.eye is None else kron(self.eye, b)

    def at(self, lam) -> np.ndarray:
        """L(lam) for real lam: float, or GaussianRational entries when exact
        (lam then rational or real GaussianRational)."""
        if self.kind == FLOAT:
            shift = sum((v * b for v, b in zip(lam[1:], self.blocks[1:])), lam[0] * self.blocks[0])
            return self.l0 - self._lift(shift)
        lam = [as_gaussian(v).re for v in lam]
        q = math.lcm(*(v.denominator for v in lam))
        c = np.array([int(v * q) for v in lam], dtype=object)[:, None, None]
        re, im = (part[0] * q - (c * part[1:]).sum(axis=0) for part in (self.re, self.im))
        return from_gaussian_integers(self.den * q, re, im)

    @property
    def parts(self) -> np.ndarray:
        """The float P_k as one (d, side, side) stack, formed when read (build never reads it)."""
        return np.stack([self._lift(b) for b in self.blocks])

    def at_rows(self, lam: np.ndarray) -> np.ndarray:
        """L(c) for each row c of lam, shape (count, d), in one buffer."""
        mats = np.tensordot(lam, self.parts, axes=(1, 0))
        return np.subtract(self.l0[None], mats, out=mats)


@dataclass(frozen=True, eq=False)
class Localizer:
    tuple: HermitianTuple
    rep: GammaRep
    lam: tuple
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class ReducedLocalizer:
    tuple: HermitianTuple
    lam: tuple
    matrix: np.ndarray


def build(tuple_: HermitianTuple, rep: GammaRep | None = None, lam=None) -> Localizer:
    """Assemble L_lambda = sum (X_j - lambda_j) (x) gamma_j."""
    if rep is None:
        rep = rep_for(tuple_.d)
    pencil = Pencil.localizer(tuple_, rep)
    lam = _coerce_lambda(tuple_, [0] * tuple_.d if lam is None else lam)
    return Localizer(tuple_, rep, tuple(lam), pencil.at(lam))


def build_reduced(tuple_: HermitianTuple, lam=None) -> ReducedLocalizer:
    """Half-size localizer from the upper-right gamma blocks (d = 4 only)."""
    if tuple_.d != 4:
        raise ContractError("the reduced localizer needs a 4-tuple")
    pencil = Pencil.reduced(tuple_)
    lam = _coerce_lambda(tuple_, [0] * 4 if lam is None else lam)
    return ReducedLocalizer(tuple_, tuple(lam), pencil.at(lam))


def laplace(tuple_: HermitianTuple, lam=None) -> np.ndarray:
    """sum_j (X_j - lambda_j)^2, a PSD Hermitian n x n matrix."""
    lam = _coerce_lambda(tuple_, [0] * tuple_.d if lam is None else lam)
    shifted = tuple_.shifted(lam)
    total = matmul(shifted.matrices[0], shifted.matrices[0])
    for x in shifted.matrices[1:]:
        total = total + matmul(x, x)
    return total


def square_identity_residual(tuple_: HermitianTuple, rep: GammaRep | None = None, lam=None):
    """|| L^2 - [ sum (X_j-l_j)^2 (x) I + sum_{j<k} [X_j,X_k] (x) g_j g_k ] ||.

    Exactly zero for exact tuples (returned as a float 0.0).
    """
    if rep is None:
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
