"""Discrete-time SISO LTI systems: rational transfer functions, their
``z -> rho*z`` scaling and frequency response, and gains on the unit circle
(a level-crossing test and the H-infinity norm, no grid).

A transfer function holds its numerator and denominator as polynomials of
:mod:`loopshift.polynomials`, plain ascending coefficient tuples, and keeps
the denominator monic so coefficient-level equality is well defined; its
constructor alone normalises, and a scaling keeps the denominator's degree.
Common num/den roots are never cancelled.

The level tests of one system share its Chebyshev series, built once.  A
level test at the threshold decides a rate certificate's gain condition,
and its largest gain seeds the climb to the peak (:func:`climb_to_peak`)
that reports ``hinf``.  The tests work on the scaled coefficient tuples,
building no transfer-function object, and a level test evaluates the gain
once at each distinct candidate point.

A certificate of order up to 2 is pure Python: numpy loads on first use,
only for the colleague eigenvalues that give the roots of a Chebyshev
series of degree 3 or more.  The colleague column is built and checked
finite in Python floats, and the LAPACK gufunc takes the matrix directly,
without ``np.linalg.eigvals``' checks and conversions.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidParameterError
from .polynomials import _finite_eigvals, _floats, _quadratic_roots, _trimmed, poly_eval

if TYPE_CHECKING:
    import numpy as np

# A gain this close below a level (a few ulps) counts as reaching it, so a
# gain that only touches the level (a tangency) never passes for below it.
LEVEL_RTOL = 8.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class RationalTF:
    """Proper rational transfer function num(z)/den(z), denominator monic;
    built from any two sequences of real coefficients, ascending, that stay
    finite once divided by the denominator's leading one."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self) -> None:
        num, den = _floats(self.num), _floats(self.den)
        if den == (0.0,):
            raise InvalidParameterError("transfer function denominator is zero")
        lead = den[-1]
        if lead != 1.0:
            num, den = _trimmed([c / lead for c in num]), tuple([c / lead for c in den])
        if len(num) > len(den):
            raise InvalidParameterError(f"improper transfer function: numerator degree "
                                        f"{len(num) - 1} exceeds denominator degree {len(den) - 1}")
        if not all(map(math.isfinite, num + den)):
            raise InvalidParameterError(
                f"transfer function coefficients must be finite, got num={num}, den={den}")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def order(self) -> int:
        return len(self.den) - 1


def tf_arg_scale(t: RationalTF, rho: float) -> RationalTF:
    """Substitute ``z -> rho*z`` in both numerator and denominator."""
    return RationalTF(*_arg_scaled(t, rho))


def _arg_scaled(t: RationalTF, rho: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The coefficients of ``t(rho*z)`` divided by rho**order, the monic pair
    of every scaling: the denominator keeps its degree, so a rho**order that
    underflows to 0 (or overflows) raises; top numerator ones that underflow drop."""
    if not (math.isfinite(rho) and rho > 0.0):
        raise InvalidParameterError(f"argument scale must be positive, got {rho}")
    powers = [1.0]
    for _ in range(t.order):
        powers.append(powers[-1] * rho)
    lead = powers[-1]
    if lead == 0.0 or lead == math.inf:
        fate = "underflows to 0" if lead == 0.0 else "overflows: scaled coefficients must be finite"
        raise InvalidParameterError(f"argument scale {rho!r} to the power {t.order} {fate}")
    return (_trimmed([c * p / lead for c, p in zip(t.num, powers)]),
            tuple([c * p / lead for c, p in zip(t.den, powers)]))


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
    rounding, and a tiny leading one would swamp the colleague matrix.  A
    colleague entry that is not finite raises ``np.linalg.LinAlgError``."""
    cut = LEVEL_RTOL * max(map(abs, c))
    n = len(c) - 1
    while n and not abs(c[n]) > cut:
        n -= 1
    if n == 0:
        return []
    # T_1 = x, T_2 = 2x^2 - 1
    if n == 1:
        return [complex(-c[0] / c[1])]
    if n == 2:
        return _quadratic_roots(2.0 * c[2], c[1], c[0] - c[2])
    lead = 2.0 * c[n]
    column = [x / lead for x in c[n - 1::-1]]
    if not all(map(math.isfinite, column)):
        import numpy as np

        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    # numpy's chebroots layout, coefficients down the first column: with it
    # balancing keeps close roots apart, the transpose merged such a pair
    colleague = _colleague_template(n).copy()
    colleague[:, 0] -= column
    return _finite_eigvals(colleague)


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
    ``level`` is finite.  A series that overflows reads as an infinite gain
    at a NaN angle; a finite one bounds |num| and |den| on the circle by
    sqrt(len * r_0), so no modulus overflows.
    """
    level2 = level * level
    series = [a - level2 * b for a, b in zip(g.num_series, g.den_series)]
    if not all(map(math.isfinite, series)):
        # |num|^2 or level^2 |den|^2 overflows: infinite, as for a pole on the circle
        return LevelCrossing(level, math.inf, math.nan, g)
    # each distinct point once: a conjugate pair shares its real part, and
    # every root outside [-1, 1] clips onto +-1
    xs = sorted({-1.0, 1.0, *[min(1.0, max(-1.0, r.real)) for r in _chebyshev_roots(series)]})
    best, best_x = -1.0, 1.0
    num, den = g.num, g.den
    for x in xs + [0.5 * (a + b) for a, b in zip(xs, xs[1:])]:
        z = complex(x, math.sqrt((1.0 - x) * (1.0 + x)))
        # poly_eval's Horner, inlined: same arithmetic, no call per point
        d = n = 0j
        for c in den:
            d = d * z + c
        for c in num:
            n = n * z + c
        d = abs(d)
        # a pole within rounding of the circle gives an infinite gain: it reaches
        gain = abs(n) / d if d else math.inf
        if gain > best:
            best, best_x = gain, x
    return LevelCrossing(level, best, math.acos(best_x), g)


def climb_to_peak(start: LevelCrossing) -> tuple[float, float]:
    """Peak gain of a Schur-stable system and its frequency, climbing from
    the largest gain of a level test: the level rises to the largest gain at
    the points deciding it until none exceeds it by LEVEL_RTOL; arc
    midpoints make the climb quadratic near the peak (Bruinsma-Steinbuch).
    It ends for every finite input: each step raises the level by a factor
    above 1 + LEVEL_RTOL, and an infinite gain (a pole within rounding of the
    circle or a level series that overflows) ends the climb at once."""
    level, theta = start.gain, start.theta
    while not math.isinf(level):
        step = _level_crossings(start.gains, level)
        if step.gain <= level * (1.0 + LEVEL_RTOL):
            break
        level, theta = step.gain, step.theta
    return level, theta / (2.0 * math.pi)
