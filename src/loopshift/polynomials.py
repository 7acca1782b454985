"""Real-coefficient univariate polynomials: arithmetic, complex evaluation,
root finding, and the Schur stability test.

A polynomial is the plain tuple of its coefficients in ascending degree
order, so ``p[i]`` multiplies ``z**i``: Python floats with trailing exact
zeros trimmed, the zero polynomial being ``(0.0,)``.  Tiny leading
coefficients stay: the degree never changes implicitly.  The functions
below accept any sequence of real numbers and return such tuples.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError


def _trimmed(coeffs) -> tuple[float, ...]:
    """``coeffs`` without trailing exact zeros, the zero polynomial as (0.0,)."""
    cut = len(coeffs)
    while cut > 1 and coeffs[cut - 1] == 0.0:
        cut -= 1
    return tuple(coeffs[:cut]) or (0.0,)


def _floats(coeffs) -> tuple[float, ...]:
    """``coeffs`` as a polynomial: Python floats, trailing exact zeros trimmed."""
    return _trimmed([float(c) for c in coeffs])


def poly_eval(p, z: complex) -> complex:
    """Evaluate ``p`` at a (possibly complex) point, Horner order from the
    highest degree down."""
    acc: complex = 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc


def poly_add(a, b) -> tuple[float, ...]:
    out = [0.0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _floats(out)


def poly_sub(a, b) -> tuple[float, ...]:
    return poly_add(a, poly_scale(b, -1.0))


def poly_scale(a, c: float) -> tuple[float, ...]:
    return _floats([c * x for x in a])


def poly_mul(a, b) -> tuple[float, ...]:
    import numpy as np

    return _floats(np.convolve(a, b))


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


def poly_roots(p) -> list[complex]:
    """All complex roots of ``p`` with multiplicity.

    Degrees 1 and 2 are solved in closed form; higher degrees go through the
    companion-matrix eigenvalues, in the layout of ``np.roots`` (coefficients
    in the first row), with which balancing keeps close roots apart.
    """
    c = _floats(p)
    degree = len(c) - 1
    if c == (0.0,):
        raise InvalidParameterError("the zero polynomial has no root set")
    if degree == 0:
        raise InvalidParameterError("a nonzero constant has no roots")
    if degree == 1:
        return [complex(-c[0] / c[1])]
    if degree == 2:
        return _quadratic_roots(c[2], c[1], c[0])
    import numpy as np

    comp = np.eye(degree, k=-1)
    comp[0] = -np.asarray(c[-2::-1]) / c[-1]
    return _eigvals(comp)


def _eigvals(matrix) -> list[complex]:
    """Eigenvalues of a real square matrix, complex even when real: the
    LAPACK call of ``np.linalg.eigvals`` without the wrapper's conversions,
    under its contract (an entry that is not finite, or no convergence,
    raises ``np.linalg.LinAlgError``; no floating-point warning escapes)."""
    import numpy as np

    # attribute reads: a from-import would run the import machinery per call
    linalg = np.linalg
    if not np.isfinite(matrix).all():
        raise linalg.LinAlgError("Array must not contain infs or NaNs")
    with np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return linalg._umath_linalg.eigvals(matrix, signature="d->D").tolist()


def _no_convergence(err, flag):
    import numpy as np

    raise np.linalg.LinAlgError("Eigenvalues did not converge")


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

