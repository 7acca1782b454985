"""Discrete-time SISO LTI systems: rational transfer-function algebra,
state-space realization, frequency response, and gains on the unit circle
(a level-crossing test and the H-infinity norm, no grid).

A transfer function holds its numerator and denominator as polynomials of
:mod:`loopshift.polynomials`, plain ascending coefficient tuples, and keeps
the denominator monic so coefficient-level equality is well defined.  Common
num/den roots are never cancelled.

The level tests of one system share its Chebyshev series, built once.  A
rate certificate costs one Schur-Cohn test and one level test at the
threshold: that test decides the verdict, and its largest gain seeds the
climb to the peak (:func:`climb_to_peak`) that reports ``hinf``.  Both tests
work on the scaled coefficient tuples, building no transfer-function object,
and a level test evaluates the gain once at each distinct candidate point.

A certificate of order up to 2 is pure Python: numpy loads on first use, in
the roots of a Chebyshev series of degree 3 or more, the vectorized
frequency response and the state-space realization.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidParameterError
from .polynomials import (_eigvals, _quadratic_roots, _trimmed, poly_eval, poly_mul, poly_scale,
                          poly_sub)

if TYPE_CHECKING:
    import numpy as np

# A gain this close below a level (a few ulps) counts as reaching it, so a
# gain that only touches the level (a tangency) never passes for below it.
LEVEL_RTOL = 8.0 * sys.float_info.epsilon

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _monic(num, den) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Ascending coefficients of num/den, trailing zeros trimmed and both
    divided by den's leading one; raises for a zero or improper pair."""
    num, den = _trimmed(num), _trimmed(den)
    if den == (0.0,):
        raise InvalidParameterError("transfer function denominator is zero")
    lead = den[-1]
    if lead != 1.0:
        num, den = _trimmed([c / lead for c in num]), _trimmed([c / lead for c in den])
    if len(num) > len(den):
        raise InvalidParameterError(f"improper transfer function: numerator degree "
                                    f"{len(num) - 1} exceeds denominator degree {len(den) - 1}")
    return num, den


def _real(c) -> float:
    """A coefficient as a Python float: ints and numpy reals convert, while
    bools, strings and complex numbers raise."""
    import numbers

    if isinstance(c, bool) or not isinstance(c, numbers.Real):
        raise InvalidParameterError(f"transfer-function coefficients must be real numbers, "
                                    f"got {c!r}")
    return float(c)


@dataclass(frozen=True)
class RationalTF:
    """Proper rational transfer function num(z)/den(z), denominator monic;
    built from any two sequences of real coefficients, ascending."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self) -> None:
        num, den = _monic([c if type(c) is float else _real(c) for c in self.num],
                          [c if type(c) is float else _real(c) for c in self.den])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def order(self) -> int:
        return len(self.den) - 1


def tf_mul(a: RationalTF, b: RationalTF) -> RationalTF:
    return RationalTF(poly_mul(a.num, b.num), poly_mul(a.den, b.den))


def tf_arg_scale(t: RationalTF, rho: float) -> RationalTF:
    """Substitute ``z -> rho*z`` in both numerator and denominator."""
    return RationalTF(*_arg_scaled(t, rho))


def _arg_scaled(t: RationalTF, rho: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The coefficients of ``t(rho*z)`` as the pair of :func:`_monic`: every
    scaling of a system goes through here, and a rate test works on the
    pair without building a :class:`RationalTF`."""
    if not (math.isfinite(rho) and rho > 0.0):
        raise InvalidParameterError(f"argument scale must be positive, got {rho}")
    powers = [1.0]
    for _ in range(t.order):
        powers.append(powers[-1] * rho)
    den = [c * p for c, p in zip(t.den, powers)]
    # the last nonzero coefficient leads: rho**n can underflow
    lead = next((c for c in reversed(den) if c != 0.0), 1.0)
    return _monic([c * p / lead for c, p in zip(t.num, powers)], [c / lead for c in den])


def tf_allclose(a: RationalTF, b: RationalTF, rtol: float = 1e-10) -> bool:
    """Coefficient-wise comparison after the shared monic normalization."""
    return _poly_close(a.num, b.num, rtol) and _poly_close(a.den, b.den, rtol)


def _poly_close(a: tuple[float, ...], b: tuple[float, ...], rtol: float) -> bool:
    n = max(len(a), len(b))
    ca = a + (0.0,) * (n - len(a))
    cb = b + (0.0,) * (n - len(b))
    scale = max(max(abs(c) for c in ca), max(abs(c) for c in cb))
    if scale == 0.0:
        return True
    return all(abs(x - y) <= rtol * scale for x, y in zip(ca, cb))


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
    import numpy as np

    fs = np.asarray(fs, dtype=float)
    if fs.size and not (np.all(fs > 0.0) and np.all(fs <= 0.5)):
        raise InvalidParameterError("frequencies must lie in (0, 0.5]")
    zs = np.exp(2j * np.pi * fs)
    zs[fs == 0.5] = -1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.polyval(t.num[::-1], zs) / np.polyval(t.den[::-1], zs)
    return out


def golden_section(f, a: float, b: float, tol: float):
    """Minimise ``f`` on ``[a, b]`` by golden-section search down to bracket
    width ``tol``, met to float resolution: the search also ends when no
    float lies strictly between the ends.  Returns ``((a, b), (x_best,
    f_best))``, the final bracket and the first evaluated point with the
    smallest value.

    ``f(x, rival)`` gets the other interior point's value (inf for the first
    point) and may return inf for any ``x`` whose value exceeds a finite
    ``rival``: such a point loses its comparison, its value is never read
    again, and the best value so far is at most ``rival``."""
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1 = f(x1, math.inf)
    f2 = f(x2, f1)
    x_best, f_best = (x1, f1) if f1 <= f2 else (x2, f2)
    while b - a > tol and math.nextafter(a, b) < b:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x = x1 = b - _INVPHI * (b - a)
            fx = f1 = f(x1, f2)
        else:
            a, x1, f1 = x1, x2, f2
            x = x2 = a + _INVPHI * (b - a)
            fx = f2 = f(x2, f1)
        if fx < f_best:
            x_best, f_best = x, fx
    return (a, b), (x_best, f_best)


class _CircleGains(NamedTuple):
    """What every level test of one system shares: its coefficients in
    Horner order (highest degree first) and the Chebyshev series of |num|^2
    and |den|^2 in x = cos(theta)."""

    num: tuple[float, ...]
    den: tuple[float, ...]
    num_series: list[float]
    den_series: list[float]


def _circle_gains(num: tuple[float, ...], den: tuple[float, ...]) -> _CircleGains:
    """The shared data of num/den, given by ascending coefficients."""
    size = len(den)
    return _CircleGains(num[::-1], den[::-1], _gain_series(num, size), _gain_series(den, size))


def _gain_series(c: tuple[float, ...], size: int) -> list[float]:
    """Chebyshev coefficients in x = cos(theta) of |p(e^{j theta})|^2 for p
    with ascending coefficients ``c``, from the autocorrelation r_k:
    r_0 + 2 sum_k r_k cos(k theta), padded to size."""
    # an explicit loop from 0.0: sum() of floats is compensated since
    # Python 3.12, which would make the series depend on the version
    r = []
    for k in range(size):
        acc = 0.0
        for a, b in zip(c, c[k:]):
            acc += a * b
        r.append(acc)
    return [r[0]] + [2.0 * rk for rk in r[1:]]


@functools.cache
def _colleague_template(n: int) -> np.ndarray:
    """The coefficient-free part of the size-n colleague matrix; callers
    fill in a copy."""
    import numpy as np

    colleague = 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    colleague[-2, -1] = 1.0
    return colleague


def _chebyshev_roots(c: list[float]) -> list[complex]:
    """Complex roots of sum_k c_k T_k(x), after dropping trailing
    coefficients within LEVEL_RTOL of the largest: on [-1, 1] they are below
    rounding, and a tiny leading one would swamp the colleague matrix."""
    cut = LEVEL_RTOL * max(map(abs, c))
    n = max((k for k, ck in enumerate(c) if abs(ck) > cut), default=0)
    if n == 0:
        return []
    # T_1 = x, T_2 = 2x^2 - 1
    if n == 1:
        return [complex(-c[0] / c[1])]
    if n == 2:
        return _quadratic_roots(2.0 * c[2], c[1], c[0] - c[2])
    import numpy as np

    # numpy's chebroots layout, coefficients down the first column: with it
    # balancing keeps close roots apart, the transpose merged such a pair
    colleague = _colleague_template(n).copy()
    colleague[:, 0] -= np.array(c[n - 1::-1]) / (2.0 * c[n])
    return _eigvals(colleague)


class LevelCrossing(NamedTuple):
    """One level test of a system: the largest gain at the points deciding
    ``level``, its angle in [0, pi], and the system's shared data, from
    which :func:`climb_to_peak` goes on."""

    level: float
    gain: float
    theta: float
    gains: _CircleGains

    @property
    def reaches(self) -> bool:
        """Whether the gain reaches the level anywhere on the unit circle; a
        tangency (within LEVEL_RTOL below) reaches."""
        return self.gain >= self.level * (1.0 - LEVEL_RTOL)


def _level_crossings(g: _CircleGains, level: float) -> LevelCrossing:
    """The points that decide whether the gain reaches ``level``, and the
    largest gain among them.

    Between consecutive real roots of the Chebyshev series of
    |num|^2 - level^2 |den|^2 the gain stays on one side of the level, so it
    reaches the level exactly when it does at x = +-1, a real root or a
    midpoint between such points.  Real parts of complex roots join them (a
    touching double root comes back as a close complex pair).  Gains are
    resolved to about eps * cond^2 relative, cond = sum|den_k| / |den(x)|.
    """
    # at an infinite level the series is -|den|^2, whose roots lie near
    # x = cos(angle) of the poles closest to the circle, where peaks are
    num_w, den_w = (0.0, 1.0) if math.isinf(level) else (1.0, level * level)
    series = [num_w * a - den_w * b for a, b in zip(g.num_series, g.den_series)]
    # each distinct point once: a conjugate pair shares its real part, and
    # every root outside [-1, 1] clips onto +-1
    xs = sorted({-1.0, 1.0, *[min(1.0, max(-1.0, r.real)) for r in _chebyshev_roots(series)]})
    best, best_x = -1.0, 1.0
    num, den = g.num, g.den
    for x in xs + [0.5 * (a + b) for a, b in zip(xs, xs[1:])]:
        z = complex(x, math.sqrt((1.0 - x) * (1.0 + x)))
        # poly_eval's Horner, inlined: same arithmetic, no call per point
        d = 0j
        for c in den:
            d = d * z + c
        d = abs(d)
        if d:
            n = 0j
            for c in num:
                n = n * z + c
            gain = abs(n) / d
        else:
            # a pole within rounding of the circle gives an infinite gain: it reaches
            gain = math.inf
        if gain > best:
            best, best_x = gain, x
    return LevelCrossing(level, best, math.acos(best_x), g)


def climb_to_peak(start: LevelCrossing) -> tuple[float, float]:
    """Peak gain of a Schur-stable system and its frequency, climbing from
    the largest gain of a level test: the level rises to the largest gain at
    the points deciding it until none exceeds it by LEVEL_RTOL; arc
    midpoints make the climb quadratic near the peak (Bruinsma-Steinbuch).
    It ends: each step raises the level by a factor above 1 + LEVEL_RTOL,
    and the step after an infinite gain returns."""
    level, theta = start.gain, start.theta
    while True:
        step = _level_crossings(start.gains, level)
        if step.gain <= level * (1.0 + LEVEL_RTOL):
            return level, theta / (2.0 * math.pi)
        level, theta = step.gain, step.theta


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


def realize(t: RationalTF) -> StateSpace:
    """Controllable canonical form; D is the leading-coefficient ratio when
    the function is biproper and 0 otherwise."""
    import numpy as np

    n = t.order
    d = t.num[n] if len(t.num) == n + 1 and n > 0 else 0.0
    if n == 0:
        return StateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
            np.array([[t.num[0]]]),
        )
    rem = poly_sub(t.num, poly_scale(t.den, d)) if d != 0.0 else t.num
    a = np.zeros((n, n))
    a[1:, :-1] = np.eye(n - 1)
    a[0, :] = [-t.den[n - 1 - j] for j in range(n)]
    b = np.zeros((n, 1))
    b[0, 0] = 1.0
    c = np.zeros((1, n))
    for j in range(n):
        idx = n - 1 - j
        if idx < len(rem):
            c[0, j] = rem[idx]
    return StateSpace(a, b, c, np.array([[float(d)]]))
