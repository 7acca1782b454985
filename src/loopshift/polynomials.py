"""Real-coefficient univariate polynomials: arithmetic, complex evaluation,
root finding, and the Schur stability test.

Coefficients are stored in ascending degree order, so ``coeffs[i]`` multiplies
``z**i``.  The zero polynomial is represented by the single coefficient 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Polynomial:
    """Immutable real polynomial with trailing exact zeros trimmed (the zero
    polynomial keeps a single 0.0).  Tiny leading coefficients stay: the
    degree changes only through an explicit cancellation such as tf_reduce."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        raw = tuple(float(c) for c in self.coeffs) or (0.0,)
        cut = len(raw)
        while cut > 1 and raw[cut - 1] == 0.0:
            cut -= 1
        object.__setattr__(self, "coeffs", raw[:cut])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)


def poly_eval(p: Polynomial, z: complex) -> complex:
    """Evaluate ``p`` at a (possibly complex) point, Horner order from the
    highest degree down."""
    acc: complex = 0j
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    out = [0.0] * max(len(a.coeffs), len(b.coeffs))
    for i, c in enumerate(a.coeffs):
        out[i] += c
    for i, c in enumerate(b.coeffs):
        out[i] += c
    return Polynomial(tuple(out))


def poly_sub(a: Polynomial, b: Polynomial) -> Polynomial:
    return poly_add(a, poly_scale(b, -1.0))


def poly_scale(a: Polynomial, c: float) -> Polynomial:
    return Polynomial(tuple(c * x for x in a.coeffs))


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    return Polynomial(tuple(np.convolve(a.coeffs, b.coeffs)))


def poly_arg_scale(p: Polynomial, rho: float) -> Polynomial:
    """Substitute ``z -> rho*z``: returns q with q(z) = p(rho*z), i.e. each
    coefficient is multiplied by rho**i."""
    if not (math.isfinite(rho) and rho > 0.0):
        raise InvalidParameterError(f"argument scale must be positive, got {rho}")
    out, power = [], 1.0
    for c in p.coeffs:
        out.append(c * power)
        power *= rho
    return Polynomial(tuple(out))


def _quadratic_roots(a: float, b: float, c: float) -> list[complex]:
    # Stable form: avoid cancellation between -b and the discriminant root.
    disc = b * b - 4.0 * a * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
        if q == 0.0:
            # b == 0 and disc == 0 force c == 0: double root at the origin.
            return [0j, 0j]
        return [complex(q / a), complex(c / q)]
    im = math.sqrt(-disc) / (2.0 * a)
    re = -b / (2.0 * a)
    return [complex(re, -im), complex(re, im)]


def poly_roots(p: Polynomial) -> list[complex]:
    """All complex roots of ``p`` with multiplicity.

    Degrees 1 and 2 are solved in closed form; higher degrees go through the
    companion-matrix eigenvalues, in the layout of ``np.roots`` (coefficients
    in the first row), with which balancing keeps close roots apart.
    """
    if p.is_zero:
        raise InvalidParameterError("the zero polynomial has no root set")
    if p.degree == 0:
        raise InvalidParameterError("a nonzero constant has no roots")
    c = p.coeffs
    if p.degree == 1:
        return [complex(-c[0] / c[1])]
    if p.degree == 2:
        return _quadratic_roots(c[2], c[1], c[0])
    comp = np.eye(p.degree, k=-1)
    comp[0] = -np.asarray(c[-2::-1]) / c[-1]
    return np.linalg.eigvals(comp).tolist()


def schur_stable(p: Polynomial) -> bool:
    """True when every root of nonzero ``p`` lies strictly inside the unit
    circle, decided exactly for the stored coefficients: each Schur-Cohn step
    needs |p(0)| < |lead| and passes to (lead p(z) - p(0) z^n p(1/z)) / z,
    which by Rouche keeps the roots on or outside the circle.  Floats are
    dyadic rationals, so the steps run on integers, each row divided by its
    gcd (in floats, double roots 1e-5 from the circle were misjudged)."""
    if not all(map(math.isfinite, p.coeffs)):
        return False
    ratios = [c.as_integer_ratio() for c in p.coeffs]
    scale = max(den for _, den in ratios)
    c = [num * (scale // den) for num, den in ratios]
    while len(c) > 1:
        if not abs(c[0]) < abs(c[-1]):
            return False
        c = [c[-1] * a - c[0] * b for a, b in zip(c[1:], reversed(c[:-1]))]
        g = math.gcd(*c)
        c = [x // g for x in c]
    return True


def poly_from_roots(roots, leading: float = 1.0) -> Polynomial:
    """Real polynomial ``leading * prod(z - r)``; imaginary residue left by a
    conjugate-closed root set is discarded."""
    acc = np.array([1.0 + 0.0j])
    for r in roots:
        acc = np.convolve(acc, np.array([-r, 1.0 + 0.0j]))
    return Polynomial(tuple((leading * acc).real))
