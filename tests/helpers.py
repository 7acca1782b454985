"""Helpers shared by the test modules."""

import numpy as np

from loopshift import Polynomial, RationalTF, StateSpace, poly_add, poly_mul, poly_sub


def poly_from_roots(roots, leading: float = 1.0) -> Polynomial:
    """Real polynomial ``leading * prod(z - r)``; imaginary residue left by a
    conjugate-closed root set is discarded."""
    acc = np.array([1.0 + 0.0j])
    for r in roots:
        acc = np.convolve(acc, np.array([-r, 1.0 + 0.0j]))
    return Polynomial(tuple((leading * acc).real))


def constant_tf(c: float) -> RationalTF:
    return RationalTF(Polynomial((float(c),)), Polynomial((1.0,)))


def tf_add(a: RationalTF, b: RationalTF) -> RationalTF:
    num = poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
    return RationalTF(num, poly_mul(a.den, b.den))


def tf_sub(a: RationalTF, b: RationalTF) -> RationalTF:
    num = poly_sub(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
    return RationalTF(num, poly_mul(a.den, b.den))


def impulse_series(t: RationalTF, steps: int) -> np.ndarray:
    """Impulse response by long division of num/den in powers of 1/z; an
    oracle for :func:`loopshift.realize` independent of it."""
    n = t.den.degree
    num_rev = [
        t.num.coeffs[n - k] if 0 <= n - k < len(t.num.coeffs) else 0.0
        for k in range(n + 1)
    ]
    den_rev = [t.den.coeffs[n - k] for k in range(n + 1)]
    h = np.zeros(steps)
    for k in range(steps):
        acc = num_rev[k] if k <= n else 0.0
        for j in range(1, min(k, n) + 1):
            acc -= den_rev[j] * h[k - j]
        h[k] = acc
    return h


def verify_realization(t: RationalTF, ss: StateSpace, steps: int = 50,
                       tol: float = 1e-9) -> bool:
    """Check the realization against the long-division impulse response."""
    reference = impulse_series(t, steps)
    scale = max(1.0, float(np.max(np.abs(reference))))
    return bool(np.max(np.abs(ss.impulse(steps) - reference)) <= tol * scale)
