"""Real-coefficient univariate polynomials: arithmetic, complex evaluation,
root finding, and the Schur stability test.

Coefficients are stored in ascending degree order, so ``coeffs[i]`` multiplies
``z**i``.  The zero polynomial is represented by the single coefficient 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Polynomial:
    """Immutable real polynomial with trailing exact zeros trimmed (the zero
    polynomial keeps a single 0.0).  Tiny leading coefficients stay: the
    degree never changes implicitly."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _trimmed([float(c) for c in self.coeffs]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)


def _trimmed(coeffs) -> tuple[float, ...]:
    """``coeffs`` without trailing exact zeros, the zero polynomial as (0.0,)."""
    cut = len(coeffs)
    while cut > 1 and coeffs[cut - 1] == 0.0:
        cut -= 1
    return tuple(coeffs[:cut]) or (0.0,)


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
    import numpy as np

    return Polynomial(tuple(np.convolve(a.coeffs, b.coeffs)))


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
    import numpy as np

    comp = np.eye(p.degree, k=-1)
    comp[0] = -np.asarray(c[-2::-1]) / c[-1]
    return np.linalg.eigvals(comp).tolist()


def schur_stable(coeffs) -> bool:
    """True when every root of the nonzero polynomial p with ascending
    coefficients ``coeffs`` lies strictly inside the unit circle, decided
    exactly for the stored coefficients: each Schur-Cohn step needs |p(0)| <
    |lead| and passes to (lead p(z) - p(0) z^n p(1/z)) / z, which by Rouche
    keeps the roots on or outside the circle.  Each row is one degree lower,
    so the test ends after at most deg p rows.  Floats are dyadic rationals,
    so the steps run on integers, each row divided by its gcd (in floats,
    double roots 1e-5 from the circle were misjudged)."""
    if not all(map(math.isfinite, coeffs)):
        return False
    ratios = [c.as_integer_ratio() for c in coeffs]
    scale = max(den for _, den in ratios)
    c = [num * (scale // den) for num, den in ratios]
    while len(c) > 1:
        if not abs(c[0]) < abs(c[-1]):
            return False
        c = [c[-1] * a - c[0] * b for a, b in zip(c[1:], reversed(c[:-1]))]
        g = math.gcd(*c)
        c = [x // g for x in c]
    return True

