"""Discrete-time SISO LTI systems: rational transfer-function algebra,
state-space realization, stability radius, frequency response, and gains on
the unit circle (a level-crossing test and the H-infinity norm, no grid).

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
    schur_stable,
)

# Root pairs closer than this cancel in tf_reduce.
CANCEL_TOL = 1e-8

# A gain this close below a level (a few ulps) counts as reaching it, so a
# gain that only touches the level (a tangency) never passes for below it.
LEVEL_RTOL = 8.0 * np.finfo(float).eps

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

    ``t(rho*z)`` is Schur stable exactly when this radius is below ``rho``,
    but roots carry rounding: stability is decided by ``schur_stable``.
    """
    pole_list = poles(t)
    if not pole_list:
        return 0.0
    return max(abs(r) for r in pole_list)


def freq_response(t: RationalTF, f: float) -> complex:
    """Evaluate at ``z = exp(2j*pi*f)`` for f in (0, 0.5] cycles/iteration
    (unit sample time, Nyquist at 0.5).  A pole exactly on the sampled point
    comes back with infinite magnitude."""
    if not 0.0 < f <= 0.5:
        raise InvalidParameterError(f"frequency must lie in (0, 0.5], got {f}")
    # exp(i*pi) carries rounding in its imaginary part; Nyquist is z = -1 exactly
    z = complex(-1.0, 0.0) if f == 0.5 else cmath.exp(2j * math.pi * f)
    den = poly_eval(t.den, z)
    if den == 0:
        return complex(math.inf, 0.0)
    return poly_eval(t.num, z) / den


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


def _gain_series(p: Polynomial, size: int) -> list[float]:
    """Chebyshev coefficients in x = cos(theta) of |p(e^{j theta})|^2, from
    the autocorrelation r_k: r_0 + 2 sum_k r_k cos(k theta), padded to size."""
    c = p.coeffs
    r = [sum(a * b for a, b in zip(c, c[k:])) for k in range(size)]
    return [r[0]] + [2.0 * rk for rk in r[1:]]


def _chebyshev_roots(c: list[float]) -> list[complex]:
    """Complex roots of sum_k c_k T_k(x), after dropping trailing
    coefficients within LEVEL_RTOL of the largest: on [-1, 1] they are below
    rounding, and a tiny leading one would swamp the colleague matrix."""
    cut = LEVEL_RTOL * max(map(abs, c))
    n = max((k for k, ck in enumerate(c) if abs(ck) > cut), default=0)
    if n == 0:
        return []
    if n <= 2:
        # T_1 = x, T_2 = 2x^2 - 1
        power = (c[0], c[1]) if n == 1 else (c[0] - c[2], c[1], 2.0 * c[2])
        return poly_roots(Polynomial(power))
    # numpy's chebroots layout, coefficients down the first column: with it
    # balancing keeps close roots apart, the transpose merged such a pair
    colleague = 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    colleague[-2, -1] = 1.0
    colleague[:, 0] -= np.array(c[n - 1::-1]) / (2.0 * c[n])
    return np.linalg.eigvals(colleague).tolist()


def _level_crossings(t: RationalTF, level: float) -> tuple[float, float]:
    """Largest gain of ``t``, and its angle in [0, pi], at the points that
    decide whether the gain reaches ``level``.

    Between consecutive real roots of the Chebyshev series of
    |num|^2 - level^2 |den|^2 the gain stays on one side of the level, so it
    reaches the level exactly when it does at x = +-1, a real root or a
    midpoint between such points.  Real parts of complex roots join them (a
    touching double root comes back as a close complex pair).  Gains are
    resolved to about eps * cond^2 relative, cond = sum|den_k| / |den(x)|.
    """
    size = t.order + 1
    # at an infinite level the series is -|den|^2, whose roots lie near
    # x = cos(angle) of the poles closest to the circle, where peaks are
    num_w, den_w = (0.0, 1.0) if math.isinf(level) else (1.0, level * level)
    series = [num_w * a - den_w * b
              for a, b in zip(_gain_series(t.num, size), _gain_series(t.den, size))]
    xs = sorted([-1.0, 1.0] + [min(1.0, max(-1.0, r.real)) for r in _chebyshev_roots(series)])
    best, best_x = -1.0, 1.0
    for x in xs + [0.5 * (a + b) for a, b in zip(xs, xs[1:])]:
        z = complex(x, math.sqrt((1.0 - x) * (1.0 + x)))
        den = abs(poly_eval(t.den, z))
        # a pole within rounding of the circle gives an infinite gain: it reaches
        gain = abs(poly_eval(t.num, z)) / den if den else math.inf
        if gain > best:
            best, best_x = gain, x
    return best, math.acos(best_x)


def gain_reaches(t: RationalTF, level: float) -> bool:
    """Whether the gain of Schur-stable ``t`` reaches ``level`` anywhere on
    the unit circle; a tangency (within LEVEL_RTOL below) reaches."""
    return _level_crossings(t, level)[0] >= level * (1.0 - LEVEL_RTOL)


def hinf_peak(t: RationalTF) -> tuple[float, float]:
    """Peak gain over the unit circle and the frequency (cycles/iteration,
    in [0, 0.5] by symmetry) where it is attained.

    From the gains by the poles (the points deciding an infinite level), the
    level rises to the largest gain at the points deciding it until none
    exceeds it by LEVEL_RTOL; arc midpoints make the climb quadratic near the
    peak (Bruinsma-Steinbuch).  Raises for systems not Schur stable.
    """
    if not schur_stable(t.den):
        raise UnstableSystemError(
            "H-infinity norm requested for a system with a pole of modulus >= 1"
        )
    level, theta = _level_crossings(t, math.inf)
    while True:
        gain, at = _level_crossings(t, level)
        if gain <= level * (1.0 + LEVEL_RTOL):
            return level, theta / (2.0 * math.pi)
        level, theta = gain, at


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
