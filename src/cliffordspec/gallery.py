"""Constructors for every worked matrix family, with expected facts.

All families with Gaussian-rational entries are exact-kind; the clock/shift
torus families involve roots of unity and are float-kind (except n = 4,
whose clock eigenvalues are Gaussian integers, available exactly for
cross-validation).  One table, :data:`EXAMPLES`, names each example's
constructor and its facts, keyed by the parameter values at which they hold.
"""

from __future__ import annotations

import cmath
import inspect
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cliffordrep import standard_rep
from .errors import ContractError
from .invariants import even_odd_grading
from .matrices import HermitianTuple, dagger, exact_matrix, float_matrix
from .multipoly import MultiPoly, variables
from .scalars import GaussianRational

F = Fraction


def _gi(re=0, im=0) -> GaussianRational:
    return GaussianRational(F(re), F(im))


def pauli() -> HermitianTuple:
    """The three Pauli spin matrices; joint spectrum is the unit sphere."""
    return scaled_pauli(1, 1, 1)


def scaled_pauli(a, b, c) -> HermitianTuple:
    """(a sigma_x, b sigma_y, c sigma_z) with rational scales."""
    a, b, c = F(a), F(b), F(c)
    return HermitianTuple(
        [
            exact_matrix([[0, a], [a, 0]]),
            exact_matrix([[0, _gi(0, -b)], [_gi(0, b), 0]]),
            exact_matrix([[c, 0], [0, -c]]),
        ]
    )


def lemniscate() -> HermitianTuple:
    """Half-scaled Pauli triple whose spectrum is a rotated lemniscate."""
    return scaled_pauli(F(1, 2), 1, F(1, 2))


def fuzzy_sphere_5(t=1) -> HermitianTuple:
    """5x5 fuzzy-sphere style triple (tA, B, C) along the scaling path."""
    t = F(t)
    diag = [2, 1, 0, -1, -2]
    a = exact_matrix(
        [[t * diag[i] if i == j else 0 for j in range(5)] for i in range(5)]
    )
    q = F(1, 4)
    b = exact_matrix(
        [[q if abs(i - j) == 1 else 0 for j in range(5)] for i in range(5)]
    )
    c = exact_matrix(
        [
            [
                _gi(0, -q) if j == i + 1 else (_gi(0, q) if j == i - 1 else 0)
                for j in range(5)
            ]
            for i in range(5)
        ]
    )
    return HermitianTuple([a, b, c])


def clock_shift(n: int, exact: bool = False):
    """The cyclic shift U (ones on the subdiagonal and top-right corner)
    and the clock V = diag(e^{2 pi i k / n}), k = 1..n."""
    if n < 2:
        raise ContractError("clock/shift matrices need n >= 2")
    if exact:
        if n not in (2, 4):
            raise ContractError("exact clock matrices exist only for n in {2, 4}")
        u = exact_matrix(
            [[1 if (i - j) % n == 1 else 0 for j in range(n)] for i in range(n)]
        )
        roots4 = [_gi(0, 1), _gi(-1), _gi(0, -1), _gi(1)]
        roots = [_gi(-1), _gi(1)] if n == 2 else roots4
        v = exact_matrix(
            [[roots[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )
        return u, v
    u = float_matrix(
        [[1.0 if (i - j) % n == 1 else 0.0 for j in range(n)] for i in range(n)]
    )
    v = np.diag([cmath.exp(2j * cmath.pi * (k + 1) / n) for k in range(n)])
    return u, v


def torus_quadruple(n: int, exact: bool = False) -> HermitianTuple:
    """Hermitian and anti-Hermitian parts of the shift and clock unitaries."""
    u, v = clock_shift(n, exact=exact)
    half, ihalf = (_gi(F(1, 2)), _gi(0, F(1, 2))) if exact else (0.5, 0.5j)
    ud, vd = dagger(u), dagger(v)
    return HermitianTuple([half * (ud + u), ihalf * (ud - u), half * (vd + v), ihalf * (vd - v)])


def torus_triple(n: int = 5, big_radius: float = 0.9, small_radius: float = 0.5) -> HermitianTuple:
    """Three matrices tracing an embedded torus, from the clock and shift."""
    u, v = clock_shift(n)
    ud, vd = u.conj().T, v.conj().T
    w = big_radius * np.eye(n) + (small_radius / 2.0) * (ud + u)
    a = 0.5 * (w @ vd) + 0.5 * (v @ w)
    b = 0.5j * (w @ vd) - 0.5j * (v @ w)
    c = 0.5j * small_radius * (ud - u)
    return HermitianTuple([a, b, c])


def sykora_two_torus(r=1) -> HermitianTuple:
    """6x6 triple whose spectrum is a two-holed torus at r = 1."""
    r = F(r)
    h = F(1, 2)
    x = exact_matrix(
        [
            [F(4, 5), h, h, 0, 0, 0],
            [h, 0, 0, h, 0, 0],
            [h, 0, F(8, 5), r / 2, h, 0],
            [0, h, r / 2, F(4, 5), 0, h],
            [0, 0, h, 0, F(12, 5), h],
            [0, 0, 0, h, h, F(8, 5)],
        ]
    )
    p = _gi(0, F(1, 2))
    q = _gi(0, r / 2)
    y = exact_matrix(
        [
            [0, -p, -p, 0, 0, 0],
            [p, 0, 0, -p, 0, 0],
            [p, 0, 0, -q, -p, 0],
            [0, p, q, 0, 0, -p],
            [0, 0, p, 0, 0, -p],
            [0, 0, 0, p, p, 0],
        ]
    )
    z_diag = [0, F(13, 10), F(13, 10), F(13, 5), F(13, 5), F(39, 10)]
    z = exact_matrix(
        [[z_diag[i] if i == j else 0 for j in range(6)] for i in range(6)]
    )
    return HermitianTuple([x, y, z])


def direct_sum_sphere(r=0) -> HermitianTuple:
    """Two oppositely oriented Pauli triples in direct sum; the determinant
    is a perfect square, so sign-based plotting returns nothing."""
    r = F(r)
    x = exact_matrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, r, 1], [0, 0, 1, r]]
    )
    i = _gi(0, 1)
    y = exact_matrix(
        [[0, -i, 0, 0], [i, 0, 0, 0], [0, 0, 0, i], [0, 0, -i, 0]]
    )
    z = exact_matrix(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    )
    return HermitianTuple([x, y, z])


def self_dual_path(s=0) -> HermitianTuple:
    """Self-dual Hermitian path starting at the direct-sum triple, s in [0, 1/2]."""
    s = F(s)
    if s < 0 or s > F(1, 2):
        raise ContractError("path parameter must satisfy 0 <= s <= 1/2")
    a = 1 - 2 * s
    es = _gi(0, s)  # Hermiticity and self-duality force the corner entries
    x = exact_matrix(
        [
            [0, a, 0, es],
            [a, 0, -es, 0],
            [0, es, 0, a],
            [-es, 0, a, 0],
        ]
    )
    i = _gi(0, 1)
    y = exact_matrix(
        [[0, -i, 0, 0], [i, 0, 0, 0], [0, 0, 0, i], [0, 0, -i, 0]]
    )
    z = exact_matrix(
        [
            [1 - s, 0, 0, 0],
            [0, s - 1, 0, 0],
            [0, 0, 1 - s, 0],
            [0, 0, 0, s - 1],
        ]
    )
    return HermitianTuple([x, y, z])


def gamma_tuple(s1=1, s2=1, s3=1, s4=1) -> HermitianTuple:
    """The four standard gamma matrices themselves, optionally rescaled."""
    scales = [_gi(F(s)) for s in (s1, s2, s3, s4)]
    gammas = standard_rep(4).gammas
    return HermitianTuple([s * g for s, g in zip(scales, gammas)])


def even_odd(deform=0) -> HermitianTuple:
    """Four matrices graded even/even/even/odd by diag(1, 1, -1, -1);
    deform = 0 is the undeformed three-sphere example."""
    t = F(deform)
    i = _gi(0, 1)
    x = exact_matrix(
        [[t, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, -2], [0, 0, -2, t]]
    )
    y = exact_matrix(
        [[0, -i, 0, 0], [i, 0, 0, 0], [0, 0, 0, i], [0, 0, -i, 0]]
    )
    z = exact_matrix(
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
    )
    h = exact_matrix(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    )
    return HermitianTuple([x, y, z, h])


# ---------------------------------------------------------------------------
# reference closed forms (expanded on demand, exact)


def sphere_char_reference() -> MultiPoly:
    x, y, z = variables("x y z")
    s = x**2 + y**2 + z**2
    return (s - 1) * (s + 3)


def lemniscate_char_reference() -> MultiPoly:
    x, y, z = variables("x y z")
    s = x**2 + y**2 + z**2
    return s**2 + 2 * z**2 + 2 * x**2 - y**2


def direct_sum_char_reference() -> MultiPoly:
    x, y, z = variables("x y z")
    s = x**2 + y**2 + z**2
    return (s - 1) ** 2 * (s + 3) ** 2


def gamma_reduced_reference() -> MultiPoly:
    w, x, y, z = variables("w x y z")
    s = w**2 + x**2 + y**2 + z**2
    return s**3 * (s + 8)


def scaled_gamma_reduced_reference() -> MultiPoly:
    w, x, y, z = variables("w x y z")
    r2 = x**2 + y**2 + z**2
    left = 9 + 6 * r2 + r2**2 - 6 * w**2 + 2 * r2 * w**2 + w**4
    right = -15 + 14 * r2 + r2**2 + 2 * w**2 + 2 * r2 * w**2 + w**4
    return left * right


# even_odd(0) has the reduced polynomial of gamma_tuple(2, 1, 1, 1)
even_odd_reduced_reference = scaled_gamma_reduced_reference


def torus_quadruple_imag_reference(n: int) -> MultiPoly:
    """Closed forms for the imaginary part of the reduced characteristic
    polynomial of the clock/shift quadruple (n = 3 and n = 4)."""
    w, x, y, z = variables("w x y z", kind="float")
    locus = w**2 + x**2 - y**2 - z**2
    if n == 3:
        return locus * (1.5 * float(np.sqrt(3.0)))
    if n == 4:
        return locus * (4 * (w**2 + x**2 + y**2 + z**2) + 8)
    raise ContractError("closed-form imaginary parts recorded for n in {3, 4}")


TORUS_POLAR_CONSTANTS = {3: -1.0, 4: -4.0, 6: -27.0}


@dataclass(frozen=True, eq=False)
class NamedExample:
    name: str
    params: dict
    tuple: HermitianTuple
    expected: dict = field(default_factory=dict)


def _integer(name: str, value) -> int:
    """A parameter that must be a whole number, as an int."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ContractError(f"parameter {name!r} must be an integer, got {value!r}")
    return whole


# name -> (constructor, facts): facts maps the constructor's parameter
# values, in signature order, to the facts that hold there; the key None
# holds at every value.  The adapters keep the parameter names, coercions
# and defaults that named_example has always taken.
EXAMPLES = {
    "pauli": (pauli, {None: {"char_poly": sphere_char_reference, "index_at_origin": 1}}),
    "lemniscate": (
        lemniscate,
        {None: {"char_poly": lemniscate_char_reference, "index_inside_lobe": 1}},
    ),
    "scaled_pauli": (lambda a=1, b=1, c=1: scaled_pauli(a, b, c), {}),
    "fuzzy_sphere_5": (fuzzy_sphere_5, {}),
    "torus_triple": (
        lambda n=5, R=0.9, r=0.5: torus_triple(_integer("n", n), float(R), float(r)),
        {},
    ),
    "torus_quadruple": (lambda n=4: torus_quadruple(_integer("n", n)), {}),
    # an interior probe of the two-holed torus (the surface spans z in
    # [0, 3.9]); a nonzero half-signature certifies an enclosing surface
    # rather than a point cloud
    "sykora_two_torus": (
        sykora_two_torus,
        {None: {"probe_point": (0.25, 0.0, 2.0), "probe_index": -1}},
    ),
    "bad_plot": (
        direct_sum_sphere,
        {(0,): {"char_poly": direct_sum_char_reference, "index_at_origin": 0}},
    ),
    "self_dual_path": (self_dual_path, {}),
    "gamma4": (
        gamma_tuple,
        {
            (1, 1, 1, 1): {"reduced_char_poly": gamma_reduced_reference},
            (2, 1, 1, 1): {"reduced_char_poly": scaled_gamma_reduced_reference},
        },
    ),
    # X1..X3 are even and X4 odd under the grading at every deformation; the
    # graded index at the origin is -1 at the listed deformations and 0 at
    # 4, 5, 10 and -4
    "even_odd": (
        even_odd,
        {
            None: {"grading": even_odd_grading},
            (0,): {"reduced_char_poly": even_odd_reduced_reference, "graded_index_at_origin": -1},
            **{(t,): {"graded_index_at_origin": -1} for t in (F(1, 2), 1, F(3, 2), 2, 3)},
        },
    ),
}


def named_example(name: str, **params) -> NamedExample:
    """The example's tuple at params, bound to its constructor's signature
    (defaults filled in), with the facts that hold at those values."""
    if name not in EXAMPLES:
        raise ContractError(f"unknown example {name!r}; see list_example_names()")
    build, facts = EXAMPLES[name]
    signature = inspect.signature(build)
    for key in params:
        if key not in signature.parameters:
            raise ContractError(f"example {name!r} has no parameter {key!r}")
    bound = signature.bind(**params)
    bound.apply_defaults()
    values = dict(bound.arguments)
    expected = {}
    for key, held in facts.items():
        if key is None or key == tuple(values.values()):
            expected.update(held)
    return NamedExample(name, values, build(**values), expected)


def list_example_names() -> list:
    return sorted(EXAMPLES)
