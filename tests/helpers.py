"""Helpers shared by the test modules."""

import math

import numpy as np

from loopshift import (
    GradientOracle,
    InvalidParameterError,
    LoopShiftError,
    NoCertificateError,
    RationalTF,
    SectorClass,
    StateSpace,
    build_controller,
    poly_add,
    poly_mul,
    poly_sub,
    realize,
)
from loopshift.certify import RHO_MAX, _certifies, _threshold_test, loop_shift
from loopshift.lti import (LEVEL_RTOL, LevelCrossing, _circle_gains, _CircleGains,
                           _colleague_template, _level_crossings, climb_to_peak)
from loopshift.polynomials import _floats, _quadratic_roots, poly_roots, schur_stable


class UnstableSystemError(LoopShiftError):
    """An H-infinity norm was requested for a system that is not stable."""


def poly_from_roots(roots, leading: float = 1.0) -> tuple[float, ...]:
    """Real polynomial ``leading * prod(z - r)``; imaginary residue left by a
    conjugate-closed root set is discarded."""
    acc = np.array([1.0 + 0.0j])
    for r in roots:
        acc = np.convolve(acc, np.array([-r, 1.0 + 0.0j]))
    return _floats((leading * acc).real)


def poly_arg_scale(p: tuple[float, ...], rho: float) -> tuple[float, ...]:
    """Substitute ``z -> rho*z``: returns q with q(z) = p(rho*z), i.e. each
    coefficient is multiplied by rho**i."""
    if not (math.isfinite(rho) and rho > 0.0):
        raise InvalidParameterError(f"argument scale must be positive, got {rho}")
    out, power = [], 1.0
    for c in p:
        out.append(c * power)
        power *= rho
    return _floats(out)


def constant_tf(c: float) -> RationalTF:
    return RationalTF((c,), (1.0,))


def tf_add(a: RationalTF, b: RationalTF) -> RationalTF:
    num = poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
    return RationalTF(num, poly_mul(a.den, b.den))


def tf_sub(a: RationalTF, b: RationalTF) -> RationalTF:
    num = poly_sub(poly_mul(a.num, b.den), poly_mul(b.num, a.den))
    return RationalTF(num, poly_mul(a.den, b.den))


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

    The climb starts from the gains by the poles (the points deciding an
    infinite level).  Raises for systems not Schur stable.
    """
    if not schur_stable(t.den):
        raise UnstableSystemError(
            "H-infinity norm requested for a system with a pole of modulus >= 1"
        )
    return climb_to_peak(level_crossing(t, math.inf))


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
    between neighbours, repeats included.  The reference of its answers."""
    num_w, den_w = (0.0, 1.0) if math.isinf(level) else (1.0, level * level)
    series = [num_w * a - den_w * b for a, b in zip(g.num_series, g.den_series)]
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
    while True:
        step = reference_level_crossings(start.gains, level)
        if step.gain <= level * (1.0 + LEVEL_RTOL):
            return level, theta / (2.0 * math.pi)
        level, theta = step.gain, step.theta


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


def impulse(ss: StateSpace, steps: int) -> np.ndarray:
    """First ``steps`` impulse-response samples (D, CB, CAB, ...) of ``ss``."""
    out = np.zeros(steps)
    if steps == 0:
        return out
    out[0] = float(ss.D[0, 0]) if ss.D.size else 0.0
    if ss.order == 0:
        return out
    x = ss.B[:, 0].copy()
    for k in range(1, steps):
        out[k] = float(ss.C[0] @ x)
        x = ss.A @ x
    return out


def impulse_series(t: RationalTF, steps: int) -> np.ndarray:
    """Impulse response by long division of num/den in powers of 1/z; an
    oracle for :func:`loopshift.realize` independent of it."""
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


def verify_realization(t: RationalTF, ss: StateSpace, steps: int = 50,
                       tol: float = 1e-9) -> bool:
    """Check the realization against the long-division impulse response."""
    reference = impulse_series(t, steps)
    scale = max(1.0, float(np.max(np.abs(reference))))
    return bool(np.max(np.abs(impulse(ss, steps) - reference)) <= tol * scale)


def reference_run(spec, oracle, x0, iters: int, noise_sigma: float = 0.0,
                  seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Iterates and residuals of one closed-loop run by the plain recursion

        u = c s,   x = u + x*,   s = A s + outer(b, grad(u) + noise),

    one step at a time from equal states scaled to give u[0] = x0 - x*: an
    oracle for :func:`loopshift.simulate_run` with the same arithmetic and
    none of its batching."""
    ss = realize(build_controller(spec))
    a_mat, b_col, c_row = ss.A, ss.B[:, 0], ss.C[0]
    xstar = oracle.xstar
    noise = (np.random.default_rng(seed).normal(0.0, noise_sigma, (iters, oracle.dim))
             if noise_sigma else None)
    s = np.tile((np.asarray(x0, dtype=float) - xstar) / float(c_row.sum()), (a_mat.shape[0], 1))
    xs = np.empty((iters + 1, oracle.dim))
    with np.errstate(over="ignore", invalid="ignore"):
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
