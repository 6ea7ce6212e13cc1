"""Correctness gate: compare library outputs with stored references.

Every function here raises :class:`GateError` on a mismatch; the runner
counts the operation as failed and carries on.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


class GateError(AssertionError):
    """An output missed its reference."""


def check_text(got: str, want: str, what: str) -> None:
    """Byte-for-byte equality of two serialised polynomials."""
    if got == want:
        return
    g, w = got.splitlines(), want.splitlines()
    for k, (a, b) in enumerate(zip(g, w)):
        if a != b:
            raise GateError(f"{what}: line {k + 1} is {a!r}, reference {b!r}")
    raise GateError(f"{what}: {len(g)} lines, reference has {len(w)}")


def parse_poly_text(text: str) -> dict:
    """``re im e1 .. ed`` lines -> {exponents: complex}; exact fractions
    are rounded to the nearest double once."""
    terms = {}
    for line in text.splitlines():
        re_s, im_s, *expo = line.split()
        terms[tuple(int(e) for e in expo)] = complex(
            float(Fraction(re_s)), float(Fraction(im_s))
        )
    return terms


def max_rel_err(got: dict, ref: dict) -> float:
    """Largest coefficient difference over the largest reference
    coefficient magnitude, across the union of both supports."""
    scale = max((abs(c) for c in ref.values()), default=0.0) or 1.0
    keys = set(got) | set(ref)
    return max((abs(got.get(k, 0j) - ref.get(k, 0j)) for k in keys), default=0.0) / scale


def check_coeffs(got: dict, ref: dict, rtol: float, what: str) -> float:
    """Coefficient agreement within ``rtol`` of the largest reference
    coefficient; returns the relative error."""
    err = max_rel_err(got, ref)
    if not err <= rtol:
        raise GateError(f"{what}: coefficient error {err:.3e} exceeds {rtol:.1e}")
    return err


def check_close(got: complex, want: complex, rtol: float, scale: float, what: str) -> None:
    if not abs(got - want) <= rtol * max(1.0, scale):
        raise GateError(f"{what}: {got!r} differs from {want!r} beyond {rtol:.1e}")


def check_equal(got, want, what: str) -> None:
    if got != want:
        raise GateError(f"{what}: got {got!r}, expected {want!r}")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_sha256(data: bytes, want: str, what: str) -> None:
    got = sha256_hex(data)
    if got != want:
        raise GateError(f"{what}: sha256 {got[:16]}.. differs from reference {want[:16]}..")
