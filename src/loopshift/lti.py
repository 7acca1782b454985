"""Discrete-time SISO LTI systems: rational transfer-function algebra,
state-space realization, stability radius, frequency response, and the
H-infinity norm.

Transfer functions keep a monic denominator so coefficient-level equality is
well defined.  Common num/den roots are never cancelled implicitly; use
:func:`tf_reduce` for that.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnstableSystemError
from .polynomials import (
    Polynomial,
    poly_add,
    poly_arg_scale,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_roots,
    poly_scale,
    poly_sub,
)

# Root pairs closer than this cancel in tf_reduce.
CANCEL_TOL = 1e-8

# H-infinity evaluation: fixed angle grid on [0, pi] plus golden-section
# refinement around the grid argmax.  A peak basin narrower than the grid
# spacing can be missed: custom controllers of order 4 and above have
# resonances that 4096 points skip (ROADMAP open item 1).
HINF_GRID = 4096
_THETA = np.linspace(0.0, math.pi, HINF_GRID)
_ZGRID = np.exp(1j * _THETA)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _as_poly(value) -> Polynomial:
    return value if isinstance(value, Polynomial) else Polynomial(tuple(value))


@dataclass(frozen=True)
class RationalTF:
    """Proper rational transfer function num(z)/den(z), denominator monic."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self) -> None:
        num, den = _as_poly(self.num), _as_poly(self.den)
        if den.is_zero:
            raise InvalidParameterError("transfer function denominator is zero")
        lead = den.coeffs[-1]
        if lead != 1.0:
            num = Polynomial(tuple(c / lead for c in num.coeffs))
            den = Polynomial(tuple(c / lead for c in den.coeffs))
        if num.degree > den.degree:
            raise InvalidParameterError(
                "improper transfer function: numerator degree "
                f"{num.degree} exceeds denominator degree {den.degree}"
            )
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def order(self) -> int:
        return self.den.degree

    def __str__(self) -> str:
        return f"({_poly_str(self.num)}) / ({_poly_str(self.den)})"


def _poly_str(p: Polynomial) -> str:
    terms = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0.0 and p.degree > 0:
            continue
        var = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
        terms.append(f"{c:g}{var}" if not var or c != 1.0 else var)
    return " + ".join(terms) if terms else "0"


def constant_tf(c: float) -> RationalTF:
    return RationalTF(Polynomial((float(c),)), Polynomial((1.0,)))


def tf_add(a: RationalTF, b: RationalTF) -> RationalTF:
    num = poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
    return RationalTF(num, poly_mul(a.den, b.den))


def tf_sub(a: RationalTF, b: RationalTF) -> RationalTF:
    num = poly_sub(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
    return RationalTF(num, poly_mul(a.den, b.den))


def tf_mul(a: RationalTF, b: RationalTF) -> RationalTF:
    return RationalTF(poly_mul(a.num, b.num), poly_mul(a.den, b.den))


def tf_reduce(t: RationalTF, tol: float = CANCEL_TOL) -> RationalTF:
    """Cancel numerator/denominator root pairs closer than ``tol``.

    Left untouched when nothing cancels, so exact coefficients survive the
    common no-op case.
    """
    if t.num.is_zero or t.num.degree == 0 or t.den.degree == 0:
        return t
    num_roots = poly_roots(t.num)
    den_roots = poly_roots(t.den)
    used = [False] * len(den_roots)
    keep_num: list[complex] = []
    cancelled = False
    for nr in num_roots:
        best, best_dist = -1, math.inf
        for j, dr in enumerate(den_roots):
            if used[j]:
                continue
            dist = abs(nr - dr)
            if dist < best_dist:
                best, best_dist = j, dist
        if best >= 0 and best_dist < tol:
            used[best] = True
            cancelled = True
        else:
            keep_num.append(nr)
    if not cancelled:
        return t
    keep_den = [dr for j, dr in enumerate(den_roots) if not used[j]]
    num = poly_from_roots(keep_num, t.num.coeffs[-1])
    den = poly_from_roots(keep_den, t.den.coeffs[-1])
    return RationalTF(num, den)


def tf_arg_scale(t: RationalTF, rho: float) -> RationalTF:
    """Substitute ``z -> rho*z`` in both numerator and denominator."""
    return RationalTF(poly_arg_scale(t.num, rho), poly_arg_scale(t.den, rho))


def tf_allclose(a: RationalTF, b: RationalTF, rtol: float = 1e-10) -> bool:
    """Coefficient-wise comparison after the shared monic normalization."""
    return _poly_close(a.num, b.num, rtol) and _poly_close(a.den, b.den, rtol)


def _poly_close(a: Polynomial, b: Polynomial, rtol: float) -> bool:
    n = max(len(a.coeffs), len(b.coeffs))
    ca = a.coeffs + (0.0,) * (n - len(a.coeffs))
    cb = b.coeffs + (0.0,) * (n - len(b.coeffs))
    scale = max(max(abs(c) for c in ca), max(abs(c) for c in cb))
    if scale == 0.0:
        return True
    return all(abs(x - y) <= rtol * scale for x, y in zip(ca, cb))


def poles(t: RationalTF) -> list[complex]:
    reduced = tf_reduce(t)
    if reduced.den.degree == 0:
        return []
    return poly_roots(reduced.den)


def stability_radius(t: RationalTF) -> float:
    """Largest pole modulus after reduction; 0 for constants.

    ``t(rho*z)`` is Schur stable exactly when this radius is below ``rho``.
    """
    pole_list = poles(t)
    if not pole_list:
        return 0.0
    return max(abs(r) for r in pole_list)


def _eval_tf(t: RationalTF, z: complex) -> complex:
    den = poly_eval(t.den, z)
    if den == 0:
        return complex(math.inf, 0.0)
    return poly_eval(t.num, z) / den


def freq_response(t: RationalTF, f: float) -> complex:
    """Evaluate at ``z = exp(2j*pi*f)`` for f in (0, 0.5] cycles/iteration
    (unit sample time, Nyquist at 0.5).  A pole exactly on the sampled point
    comes back with infinite magnitude."""
    if not 0.0 < f <= 0.5:
        raise InvalidParameterError(f"frequency must lie in (0, 0.5], got {f}")
    # exp(i*pi) carries rounding in its imaginary part; Nyquist is z = -1 exactly
    z = complex(-1.0, 0.0) if f == 0.5 else cmath.exp(2j * math.pi * f)
    return _eval_tf(t, z)


def freq_response_many(t: RationalTF, fs) -> np.ndarray:
    """Vectorized :func:`freq_response` over an array of frequencies."""
    fs = np.asarray(fs, dtype=float)
    if fs.size and not (np.all(fs > 0.0) and np.all(fs <= 0.5)):
        raise InvalidParameterError("frequencies must lie in (0, 0.5]")
    zs = np.exp(2j * np.pi * fs)
    zs[fs == 0.5] = -1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.polyval(t.num.coeffs[::-1], zs) / np.polyval(t.den.coeffs[::-1], zs)
    return out


def _mag_on_grid(t: RationalTF, zs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.polyval(t.num.coeffs[::-1], zs) / np.polyval(t.den.coeffs[::-1], zs)
    return np.abs(vals)


def golden_section(f, a: float, b: float, tol: float):
    """Minimise ``f`` on ``[a, b]`` by golden-section search down to bracket
    width ``tol``; returns ``((a, b), (x_best, f_best))``, the final bracket
    and the first evaluated point with the smallest value."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    x_best, f_best = (x1, f1) if f1 <= f2 else (x2, f2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x = x1 = b - _INVPHI * (b - a)
            fx = f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x = x2 = a + _INVPHI * (b - a)
            fx = f2 = f(x2)
        if fx < f_best:
            x_best, f_best = x, fx
    return (a, b), (x_best, f_best)


def hinf_peak(t: RationalTF) -> tuple[float, float]:
    """Peak gain over the unit circle and the frequency (in cycles/iteration)
    where it is attained.

    Real coefficients make the magnitude symmetric about theta = pi, so the
    supremum is taken over theta in [0, pi]: a 4096-point grid locates the
    peak basin and golden-section refinement tightens it to a relative theta
    tolerance of 1e-10.  Raises for systems that are not stable, where the
    induced-gain reading of this norm breaks down.
    """
    if stability_radius(t) >= 1.0:
        raise UnstableSystemError(
            "H-infinity norm requested for a system with a pole of modulus >= 1"
        )
    mags = _mag_on_grid(t, _ZGRID)
    i = int(np.argmax(mags))
    lo = _THETA[max(i - 1, 0)]
    hi = _THETA[min(i + 1, HINF_GRID - 1)]
    (lo, hi), _ = golden_section(
        lambda th: -abs(_eval_tf(t, cmath.exp(1j * th))), lo, hi, 1e-10 * math.pi
    )
    theta = 0.5 * (lo + hi)
    mag = abs(_eval_tf(t, cmath.exp(1j * theta)))
    if mag < mags[i]:
        theta, mag = float(_THETA[i]), float(mags[i])
    return float(mag), theta / (2.0 * math.pi)


def hinf_norm(t: RationalTF) -> float:
    """Supremum of |t| over the unit circle (the induced gain when stable)."""
    return hinf_peak(t)[0]


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Controllable canonical realization of a proper SISO transfer function."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def impulse(self, steps: int) -> np.ndarray:
        """First ``steps`` impulse-response samples (D, CB, CAB, ...)."""
        out = np.zeros(steps)
        if steps == 0:
            return out
        out[0] = float(self.D[0, 0]) if self.D.size else 0.0
        if self.order == 0:
            return out
        x = self.B[:, 0].copy()
        for k in range(1, steps):
            out[k] = float(self.C[0] @ x)
            x = self.A @ x
        return out


def realize(t: RationalTF) -> StateSpace:
    """Controllable canonical form; D is the leading-coefficient ratio when
    the function is biproper and 0 otherwise."""
    n = t.den.degree
    d = t.num.coeffs[n] if t.num.degree == n and n > 0 else 0.0
    if n == 0:
        return StateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
            np.array([[t.num.coeffs[0]]]),
        )
    rem = poly_sub(t.num, poly_scale(t.den, d)) if d != 0.0 else t.num
    a = np.zeros((n, n))
    a[1:, :-1] = np.eye(n - 1)
    a[0, :] = [-t.den.coeffs[n - 1 - j] for j in range(n)]
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    c = np.zeros((1, n))
    for j in range(n):
        idx = n - 1 - j
        if idx < len(rem.coeffs):
            c[0, j] = rem.coeffs[idx]
    return StateSpace(a, b, c, np.array([[float(d)]]))


def impulse_series(t: RationalTF, steps: int) -> np.ndarray:
    """Impulse response by long division of num/den in powers of 1/z; serves
    as an independent oracle for :func:`realize`."""
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
