"""Real-coefficient univariate polynomials: complex evaluation, root
finding, and the Schur stability test.

A polynomial is the plain tuple of its coefficients in ascending degree
order, so ``p[i]`` multiplies ``z**i``: Python floats with trailing exact
zeros trimmed, the zero polynomial being ``(0.0,)``.  Tiny leading
coefficients stay: the degree never changes implicitly.  The functions
below accept any sequence of real numbers.  Numpy loads only for the
eigenvalues of companion and colleague matrices, which its LAPACK gufunc
computes directly once the caller has checked the entries finite.  The
Schur stability test is exact: it reads floats as dyadic rationals and runs
the Schur-Cohn recursion fraction-free on integers.
"""

from __future__ import annotations

import cmath
import math

from .errors import InvalidParameterError


def _trimmed(coeffs) -> tuple[float, ...]:
    """``coeffs`` without trailing exact zeros, the zero polynomial as (0.0,)."""
    cut = len(coeffs)
    while cut > 1 and coeffs[cut - 1] == 0.0:
        cut -= 1
    return tuple(coeffs[:cut]) or (0.0,)


def _real(c) -> float:
    """A coefficient as a Python float: ints and numpy reals convert, while
    bools, strings and complex numbers raise."""
    import numbers

    if isinstance(c, bool) or not isinstance(c, numbers.Real):
        raise InvalidParameterError(f"coefficients must be real numbers, got {c!r}")
    return float(c)


def _floats(coeffs) -> tuple[float, ...]:
    """``coeffs`` as a polynomial: Python floats, trailing exact zeros trimmed."""
    return _trimmed([c if type(c) is float else _real(c) for c in coeffs])


def poly_eval(p, z: complex) -> complex:
    """Evaluate ``p`` at a (possibly complex) point, Horner order from the
    highest degree down."""
    acc: complex = 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc


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
    in the first row), with which balancing keeps close roots apart.  A
    coefficient, root or companion entry that is not finite raises
    InvalidParameterError.
    """
    c = _floats(p)
    degree = len(c) - 1
    if c == (0.0,):
        raise InvalidParameterError("the zero polynomial has no root set")
    if degree == 0:
        raise InvalidParameterError("a nonzero constant has no roots")
    if degree <= 2:
        roots = [complex(-c[0] / c[1])] if degree == 1 else _quadratic_roots(c[2], c[1], c[0])
        # with the leading coefficient finite, a lower one that is not finite
        # makes a root infinite or nan
        if math.isfinite(c[-1]) and cmath.isfinite(roots[0]) and cmath.isfinite(roots[-1]):
            return roots
    else:
        row = [-x / c[-1] for x in c[-2::-1]]
        if all(map(math.isfinite, row)):
            import numpy as np

            comp = np.eye(degree, k=-1)
            comp[0] = row
            return _finite_eigvals(comp)
    raise InvalidParameterError(
        f"roots of {c} are not finite: a coefficient is not finite, "
        f"or the leading one is too small against the others")


def _finite_eigvals(matrix) -> list[complex]:
    """Eigenvalues of a real square matrix whose entries the caller has
    already checked finite, complex even when real: the LAPACK call of
    ``np.linalg.eigvals`` without the wrapper's checks and conversions.  No
    convergence raises ``np.linalg.LinAlgError``; no floating-point warning
    escapes."""
    import numpy as np

    with np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return np.linalg._umath_linalg.eigvals(matrix, signature="d->D").tolist()


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
    so the steps run on integers (in floats, double roots 1e-5 from the
    circle were misjudged).

    The recursion is fraction-free, as in Bareiss elimination.  With the
    input as row 0, rows 1 and 2 are kept whole, and each row k + 2 with
    k >= 1 is divided by the leading coefficient of row k, which divides it
    exactly.  That divisor is nonzero, row k having passed |p(0)| < |lead|,
    and dividing a row by a nonzero integer changes none of the comparisons
    that follow, so the verdict is that of the undivided recursion while the
    integers grow only linearly in the row number."""
    if not all(map(math.isfinite, coeffs)):
        return False
    ratios = [c.as_integer_ratio() for c in coeffs]
    scale = max(den for _, den in ratios)
    c = [num * (scale // den) for num, den in ratios]
    divisor = 1
    for row in range(len(c) - 1):
        lead, c0 = c[-1], c[0]
        if not abs(c0) < abs(lead):
            return False
        c = [(lead * a - c0 * b) // divisor for a, b in zip(c[1:], reversed(c[:-1]))]
        if row:
            divisor = lead
    return True
