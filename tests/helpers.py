"""Helpers shared by the test modules."""

import math

import numpy as np

from loopshift import (
    Family,
    GradientOracle,
    InvalidParameterError,
    LoopShiftError,
    MethodSpec,
    NoCertificateError,
    RationalTF,
    SectorClass,
    build_controller,
)
from loopshift.certify import RHO_MAX, _certifies, _threshold_test, loop_shift
from loopshift.lti import (LEVEL_RTOL, LevelCrossing, _circle_gains, _CircleGains,
                           _colleague_template, _level_crossings, climb_to_peak)
from loopshift.polynomials import _floats, _quadratic_roots, poly_roots, schur_stable
from loopshift.simulate import _feedback_matrices


class UnstableSystemError(LoopShiftError):
    """An H-infinity norm was requested for a system that is not stable."""


def poly_from_roots(roots, leading: float = 1.0) -> tuple[float, ...]:
    """Real polynomial ``leading * prod(z - r)``; imaginary residue left by a
    conjugate-closed root set is discarded."""
    acc = np.array([1.0 + 0.0j])
    for r in roots:
        acc = np.convolve(acc, np.array([-r, 1.0 + 0.0j]))
    return _floats((leading * acc).real)


def constant_tf(c: float) -> RationalTF:
    return RationalTF((c,), (1.0,))


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


def level_crossing(t: RationalTF, level: float) -> LevelCrossing:
    """The level test of ``t`` at ``level``; its ``reaches`` is the yes/no
    answer, and :func:`loopshift.lti.climb_to_peak` takes it on to the peak."""
    return _level_crossings(_circle_gains(t.num, t.den), level)


def gain_reaches(t: RationalTF, level: float) -> bool:
    """Whether the gain of Schur-stable ``t`` reaches ``level`` anywhere on
    the unit circle; a tangency (within LEVEL_RTOL below) reaches.  The
    reference verdict of the tests."""
    return level_crossing(t, level).reaches


def hinf_peak(t: RationalTF) -> tuple[float, float]:
    """Peak gain over the unit circle and the frequency (cycles/iteration,
    in [0, 0.5] by symmetry) where it is attained.

    The climb starts from the level test at level 0.  Raises for systems
    not Schur stable.
    """
    if not schur_stable(t.den):
        raise UnstableSystemError(
            "H-infinity norm requested for a system with a pole of modulus >= 1"
        )
    return climb_to_peak(level_crossing(t, 0.0))


def reference_schur_stable(coeffs) -> bool:
    """``polynomials.schur_stable`` as it was before its fraction-free
    recursion: the same integer Schur-Cohn steps, each row divided by the
    gcd of its entries.  The reference of its verdicts."""
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


def _reference_chebyshev_roots(c: list[float]) -> list[complex]:
    """``lti._chebyshev_roots`` as it was before its LAPACK shortcut, through
    ``np.linalg.eigvals``."""
    cut = LEVEL_RTOL * max(map(abs, c))
    n = max((k for k, ck in enumerate(c) if abs(ck) > cut), default=0)
    if n == 0:
        return []
    if n == 1:
        return [complex(-c[0] / c[1])]
    if n == 2:
        return _quadratic_roots(2.0 * c[2], c[1], c[0] - c[2])
    colleague = _colleague_template(n).copy()
    colleague[:, 0] -= np.array(c[n - 1::-1]) / (2.0 * c[n])
    return np.linalg.eigvals(colleague).tolist()


def reference_level_crossings(g: _CircleGains, level: float) -> LevelCrossing:
    """``lti._level_crossings`` as it was before it evaluated each distinct
    point once: every root's clipped real part, +-1 and every midpoint
    between neighbours, repeats included.  The reference of its answers,
    with the same overflow reading: a level series that is not finite gives
    an infinite gain at a NaN angle."""
    level2 = level * level
    series = [a - level2 * b for a, b in zip(g.num_series, g.den_series)]
    if not all(map(math.isfinite, series)):
        return LevelCrossing(level, math.inf, math.nan, g)
    xs = sorted([-1.0, 1.0] + [min(1.0, max(-1.0, r.real))
                               for r in _reference_chebyshev_roots(series)])
    best, best_x = -1.0, 1.0
    num, den = g.num, g.den
    for x in xs + [0.5 * (a + b) for a, b in zip(xs, xs[1:])]:
        z = complex(x, math.sqrt((1.0 - x) * (1.0 + x)))
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
            gain = math.inf
        if gain > best:
            best, best_x = gain, x
    return LevelCrossing(level, best, math.acos(best_x), g)


def reference_climb_to_peak(start: LevelCrossing) -> tuple[float, float]:
    """``lti.climb_to_peak`` on :func:`reference_level_crossings`."""
    level, theta = start.gain, start.theta
    while not math.isinf(level):
        step = reference_level_crossings(start.gains, level)
        if step.gain <= level * (1.0 + LEVEL_RTOL):
            break
        level, theta = step.gain, step.theta
    return level, theta / (2.0 * math.pi)


def _in_sector(u: np.ndarray, v: np.ndarray, sector: SectorClass) -> np.ndarray:
    """Row-wise membership of the pairs (u, v) along the last axis."""
    tol = 1e-9 * (1.0 + np.sum(u * u, axis=-1) + np.sum(v * v, axis=-1))
    return np.sum((v - sector.m * u) * (sector.L * u - v), axis=-1) >= -tol


def sector_check(u, v, sector: SectorClass) -> bool:
    """Membership test for the pair (u, v): (v - m u) . (L u - v) >= -tol with
    a tolerance that scales with the squared magnitudes, since an absolute
    tolerance misfires far from the origin."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if u.shape != v.shape or u.ndim != 1:
        raise InvalidParameterError("sector check needs equal-dimension points")
    return bool(_in_sector(u, v, sector))


def sector_membership_sampled(oracle: GradientOracle, sector: SectorClass,
                              samples: int = 10_000, radius: float = 10.0,
                              seed: int = 0) -> bool:
    """Sampled sector membership at ``samples`` random points around xstar,
    drawn and evaluated as one batch."""
    u = radius * np.random.default_rng(seed).standard_normal((samples, oracle.dim))
    return bool(np.all(_in_sector(u, oracle.centered_grad(u), sector)))


def custom_controller(rng, order) -> MethodSpec:
    """Integrator at a certifiable gradient gain times unit-DC-gain lead/lag
    factors and, when two orders are left, a resonant pole pair near the
    circle with zeros close by."""
    num = np.array([-rng.uniform(0.05, 0.15)])
    den = np.array([-1.0, 1.0])
    left = order - 1
    while left > 0:
        if left >= 2 and rng.random() < 0.5:
            theta, rp = rng.uniform(0.2, 2.5), rng.uniform(0.85, 0.97)
            rz = rp * rng.uniform(0.97, 1.0)
            poles = np.array([rp * rp, -2.0 * rp * math.cos(theta), 1.0])
            zeros = np.array([rz * rz, -2.0 * rz * math.cos(theta), 1.0])
            num, den = np.convolve(num, zeros * poles.sum() / zeros.sum()), np.convolve(den, poles)
            left -= 2
        else:
            a, b = rng.uniform(-0.3, 0.3, size=2)
            num = np.convolve(num, np.array([-a, 1.0]) * (1.0 - b) / (1.0 - a))
            den = np.convolve(den, np.array([-b, 1.0]))
            left -= 1
    return MethodSpec(Family.CUSTOM, custom_tf=RationalTF(tuple(num), tuple(den)))


def impulse(a_mat: np.ndarray, c_row: np.ndarray, steps: int) -> np.ndarray:
    """First ``steps`` impulse-response samples (0, cb, cAb, ...) of the
    strictly proper realization (A, b, c), b = e_1."""
    out = np.zeros(steps)
    x = np.eye(len(a_mat))[0]
    for k in range(1, steps):
        out[k] = float(c_row @ x)
        x = a_mat @ x
    return out


def impulse_series(t: RationalTF, steps: int) -> np.ndarray:
    """Impulse response by long division of num/den in powers of 1/z; an
    oracle for ``simulate._feedback_matrices`` independent of it."""
    n = t.order
    num_rev = [t.num[n - k] if 0 <= n - k < len(t.num) else 0.0 for k in range(n + 1)]
    den_rev = [t.den[n - k] for k in range(n + 1)]
    h = np.zeros(steps)
    for k in range(steps):
        acc = num_rev[k] if k <= n else 0.0
        for j in range(1, min(k, n) + 1):
            acc -= den_rev[j] * h[k - j]
        h[k] = acc
    return h


def verify_realization(t: RationalTF, a_mat: np.ndarray, c_row: np.ndarray,
                       steps: int = 50, tol: float = 1e-9) -> bool:
    """Check the realization (A, e_1, c) of ``t`` against the long-division
    impulse response."""
    reference = impulse_series(t, steps)
    scale = max(1.0, float(np.max(np.abs(reference))))
    return bool(np.max(np.abs(impulse(a_mat, c_row, steps) - reference)) <= tol * scale)


def reference_run(spec, oracle, x0, iters: int, noise_sigma: float = 0.0,
                  seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Iterates and residuals of one closed-loop run by the plain recursion

        u = c s,   x = u + x*,   s = A s + outer(b, grad(u) + noise),

    b = e_1, one step at a time from equal states scaled to give
    u[0] = x0 - x*: an oracle for :func:`loopshift.simulate_run` with the
    same arithmetic and none of its batching."""
    a_mat, c_row = _feedback_matrices(build_controller(spec))
    b_col = np.eye(len(a_mat))[0]
    xstar = oracle.xstar
    noise = (np.random.default_rng(seed).normal(0.0, noise_sigma, (iters, oracle.dim))
             if noise_sigma else None)
    xs = np.empty((iters + 1, oracle.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.tile((np.asarray(x0, dtype=float) - xstar) / float(c_row.sum()),
                    (a_mat.shape[0], 1))
        for k in range(iters):
            u = c_row @ s
            xs[k] = u + xstar
            v = oracle.centered_grad(u)
            if noise is not None:
                v = v + noise[k]
            s = a_mat @ s + np.outer(b_col, v)
        xs[iters] = c_row @ s + xstar
        residuals = np.linalg.norm(xs - xstar, axis=-1)
    return xs, residuals


def reference_bisect(spec, sector,
                     tol: float) -> tuple[float, int, tuple[tuple[float, float], ...]]:
    """The final ``hi``, the number of threshold tests and the bracket
    history of plain bisection for the best certified rate, from the
    stability radius up to RHO_MAX, one midpoint step at a time: an oracle
    for the interpolating search of :func:`loopshift.bisect_rate`, on the
    same threshold test.  Raises NoCertificateError when RHO_MAX does not
    certify."""
    shifted = loop_shift(build_controller(spec), sector)
    hi = RHO_MAX
    if not _certifies(_threshold_test(shifted, sector, hi)):
        raise NoCertificateError(f"{spec.label} admits no certified rate below one")
    radius = max(map(abs, poly_roots(shifted.den))) if shifted.order else 0.0
    lo = min(radius, hi)
    evaluations, history = 1, [(lo, hi)]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if _certifies(_threshold_test(shifted, sector, mid)):
            hi = mid
        else:
            lo = mid
        history.append((lo, hi))
    return hi, evaluations, tuple(history)
