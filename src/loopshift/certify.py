"""Worst-case linear convergence-rate certification.

The pipeline: build the method's controller K, loop-shift it into
K' = K/(K - 2/(m+L)) so the nonlinearity's gain is centered, substitute
z -> rho*z, and certify rate rho when the scaled system is stable with
peak gain below (L+m)/(L-m).  A certificate is sound for every gradient in
the sector but is sufficient only, never claimed tight.

On top of the single test sit a search for the best certifiable rate, a
closed-form-checked stepsize search, and a two-parameter grid search.

K' depends on the method and the sector, not on rho, and searches and
sweeps test one (method, sector) at many rates, so the last K' built is
kept (:func:`_shifted`) for every certificate and rate search.  The memo is
sound: specs, sectors and transfer functions are frozen, a transfer
function stores monic coefficients and the shift reads a sector only
through 2/(m+L), so equal keys give equal shifts; keys equal but not the
same (0.0 and -0.0, an int bound and its float) change no bit of a result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ImproperShiftError, InvalidParameterError, NoCertificateError
from .lti import (
    LevelCrossing,
    RationalTF,
    _arg_scaled,
    _circle_gains,
    _level_crossings,
    climb_to_peak,
    tf_arg_scale,
)
from .methods import Family, MethodSpec, SectorClass, build_controller
from .polynomials import poly_roots, schur_stable

# The largest rate a rate search tries; certifying only closer to one is none.
RHO_MAX = 1.0 - 1e-9

# The certified set in rho is an interval [rho*, 1), which every search below
# relies on.  Stability of D(rho z) holds for all rho above the stability
# radius.  Above it, K'(1/w) is analytic in |w| < 1/radius, so by the maximum
# modulus principle the peak of |K'(rho e^{j theta})|, its maximum on the
# circle |w| = 1/rho, cannot increase as rho grows.


def loop_shift(controller: RationalTF, sector: SectorClass) -> RationalTF:
    """Shifted controller N/(N - s*D) for K = N/D with s = 2/(m+L),
    monic-normalized and never reduced: a root N shares with N - s*D is a
    closed-loop mode all the same, and cancelling it would hide a growing
    mode from the stability test.

    For a strictly proper K the result is strictly proper with the same
    denominator degree.  A biproper K whose leading coefficients cancel in
    the new denominator has no proper shifted form and is rejected.
    """
    num, den, s = controller.num, controller.den, sector.shift
    shifted_den = [a - s * b for a, b in zip(num + (0.0,) * (len(den) - len(num)), den)]
    if shifted_den[-1] == 0.0:
        raise ImproperShiftError(
            "loop shift produced an improper system; the controller shape is "
            "outside the supported feedback form"
        )
    return RationalTF(num, shifted_den)


@functools.lru_cache(maxsize=1)
def _shifted(spec: MethodSpec, sector: SectorClass) -> RationalTF:
    """The loop-shifted controller of ``spec`` on ``sector``, remembered for
    the last (spec, sector) only: nothing that depends on rho is kept, and a
    raised :class:`ImproperShiftError` is not remembered."""
    return loop_shift(build_controller(spec), sector)


@dataclass(frozen=True)
class RateCertificate:
    """Outcome of the small-gain rate test at a single rho.

    ``certified`` means stable and the gain nowhere reaching the threshold
    (L+m)/(L-m); a gain that touches it (a tangency) does not certify.
    ``margin`` is threshold minus peak gain.  A true certificate is sound but
    not necessarily tight.
    """

    method: str
    m: float
    L: float
    rho: float
    stable: bool
    hinf: float
    threshold: float
    certified: bool
    margin: float
    peak_frequency: float


def _threshold_test(shifted: RationalTF, sector: SectorClass, rho: float,
                    radius: float | None = None) -> LevelCrossing | None:
    """The small-gain test at ``rho``: None when the scaled system is not
    Schur stable, else its level test at the threshold, which certifies
    when it does not reach.  Both tests read the scaled coefficients.
    Stability is decided exactly by Schur-Cohn, or, given the shifted
    denominator's float stability ``radius``, by ``rho > radius`` (a search
    step, whose answer the search retests exactly)."""
    num, den = _arg_scaled(shifted, rho)
    stable = schur_stable(den) if radius is None else rho > radius
    return _level_crossings(_circle_gains(num, den), sector.threshold) if stable else None


def _stability_radius(shifted: RationalTF) -> float:
    """Largest root modulus of the shifted denominator, whose roots are
    every closed-loop mode: D(rho z) is stable for rho above it.  Its degree
    is that of the controller's, at least 1 by the pole at z = 1."""
    return max(map(abs, poly_roots(shifted.den)))


def _certifies(test: LevelCrossing | None) -> bool:
    return test is not None and not test.reaches


def certify_rate(spec: MethodSpec, sector: SectorClass, rho: float) -> RateCertificate:
    """Run the small-gain rate test for one method, sector, and rate.

    The loop shift comes from the one-entry memo :func:`_shifted`, so a run
    of calls on one (method, sector) builds it once, while the test at
    ``rho`` runs on every call.  The memo keeps nothing that depends on rho;
    the module docstring says why equal keys may share a shift."""
    if not (math.isfinite(rho) and 0.0 < rho < 1.0):
        raise InvalidParameterError(f"rate rho must lie in (0, 1), got {rho}")
    return _certificate(spec, sector, rho, _threshold_test(_shifted(spec, sector), sector, rho))


def _certificate(spec: MethodSpec, sector: SectorClass, rho: float,
                 test: LevelCrossing | None) -> RateCertificate:
    """The certificate of the small-gain test ``test`` made at ``rho``; the
    peak gain climbs from the test's largest gain."""
    stable = test is not None
    hinf, peak_f = climb_to_peak(test) if stable else (math.inf, math.nan)
    threshold = sector.threshold
    return RateCertificate(
        method=spec.label,
        m=sector.m,
        L=sector.L,
        rho=rho,
        stable=stable,
        hinf=hinf,
        threshold=threshold,
        certified=_certifies(test),
        margin=threshold - hinf,
        peak_frequency=peak_f,
    )


@dataclass(frozen=True)
class RateSearchResult:
    rho_star: float
    certificate: RateCertificate
    iterations: int
    bracket_history: tuple[tuple[float, float], ...]


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameterError(f"tolerance must be positive and finite, got {tol}")


def bisect_rate(spec: MethodSpec, sector: SectorClass, tol: float = 1e-6) -> RateSearchResult:
    """Smallest certifiable rate, to bracket width ``tol`` met to float
    resolution, found by the search of :func:`_bisect`: at tol = 1e-6 it
    takes 3 tests for gradient descent, 4 to 11 for the other catalog
    methods and about 10 for an order-3..6 controller, where bisection takes
    about 20.  ``iterations`` counts those tests, the one at RHO_MAX
    included.  The certificate is built once, at the final rate, from the
    test that passed there.  Raises
    :class:`NoCertificateError` when not even RHO_MAX certifies; batch
    callers should treat that as a definite negative result, not a failure.
    """
    _check_tol(tol)
    found = _bisect(spec, sector, tol)
    if found is None:
        raise NoCertificateError(
            f"{spec.label} admits no certified rate below one on "
            f"S({sector.m:g}, {sector.L:g})"
        )
    hi, passed, history = found
    # the test that last passed was made at hi: its certificate needs no retest
    return RateSearchResult(hi, _certificate(spec, sector, hi, passed), len(history), history)


def _gap(test: LevelCrossing | None, threshold: float) -> float:
    """How far the gain of a threshold test sits below the threshold, as
    threshold/gain - 1 in [-1, inf]: -1 for an unstable system, inf for a
    zero gain.  Its sign is the verdict's (+-1e-300 where the two disagree
    within LEVEL_RTOL), so interpolating on it never contradicts the
    bracket."""
    if test is None:
        return -1.0
    g = threshold / test.gain - 1.0 if test.gain else math.inf
    return min(g, -1e-300) if test.reaches else max(g, 1e-300)


def _bisect(spec: MethodSpec, sector: SectorClass, tol: float, bound: float = math.inf
            ) -> tuple[float, LevelCrossing, tuple[tuple[float, float], ...]] | None:
    """The one rate search, behind :func:`bisect_rate`, the stepsize curve
    and both searches: the smallest certified rate ``hi`` of ``spec``, the
    test that passed there and the bracket history, one entry per test; or
    None when the method does not certify at a finite ``bound`` (its rate
    is then above ``bound``, the certified set being [rho*, 1)) or at
    RHO_MAX.  Callers that want only the rate build no certificate.

    The certified set is an interval [rho*, 1), so one test at RHO_MAX
    decides whether there is a certificate, and a bracketing search from
    the shifted controller's float stability radius (below it the scaled
    system is unstable) up to RHO_MAX finds rho*.  The radius is found
    first when ``bound`` is finite, for the prune at ``bound``; otherwise
    only once RHO_MAX has certified, so a method with no certificate costs
    no root finding.

    Above the stability radius the peak gain is continuous and does not
    increase in rho, so threshold/peak - 1 rises through zero at rho*.  The
    search interpolates on the gap :func:`_gap`, the same quantity for the
    largest gain each test already has, so no step climbs to the peak.
    Each step is the Illinois variant of regula falsi (Dowell and Jarratt,
    1971) on the gap at the bracket's ends, the radius counting as -1: the
    secant root, kept tol/2 and at least one float inside the bracket,
    with the gap of an end that stays put for a second step in a row
    halved.  The step is the midpoint instead when the secant root is not
    finite, or when the bracket is wider than the starting width halved
    once per two steps taken; that safeguard caps the search at
    2*ceil(log2(width/tol)) + 1 steps.  The search also ends when no float
    lies strictly between the ends, so any positive ``tol`` is met to float
    resolution.  Verdicts alone move the ends, so ``hi`` has always
    certified and ``lo`` is uncertified or the radius.

    Search steps and the prune decide stability by ``rho > radius``; the
    exact Schur-Cohn test runs at RHO_MAX and on the answer.  Should it
    refute the answer, the float radius was too low: the refuted ``hi``
    becomes ``lo``, the bracket reopens up to RHO_MAX's exact pass, and the
    same loop goes on with the exact test at every step, so ``hi`` stays
    within ``tol`` of the exactly decided rho*.
    """
    shifted = _shifted(spec, sector)
    radius = None
    if math.isfinite(bound):
        radius = _stability_radius(shifted)
        if not _certifies(_threshold_test(shifted, sector, bound, radius)):
            return None
    hi = RHO_MAX
    passed = top = _threshold_test(shifted, sector, hi)
    if not _certifies(passed):
        return None
    if radius is None:
        radius = _stability_radius(shifted)
    lo = min(radius, hi)
    g_lo, g_hi = -1.0, _gap(passed, sector.threshold)
    budget, moved = hi - lo, 0
    history = [(lo, hi)]
    for step_radius in (radius, None):
        while hi - lo > tol and math.nextafter(lo, hi) < hi:
            x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            if math.isfinite(x) and hi - lo <= budget:
                # at least one float inside each end when tol is below the spacing
                x = min(max(x, lo + 0.5 * tol, math.nextafter(lo, hi)),
                        hi - 0.5 * tol, math.nextafter(hi, lo))
            else:
                x = 0.5 * (lo + hi)
            test = _threshold_test(shifted, sector, x, step_radius)
            g = _gap(test, sector.threshold)
            if _certifies(test):
                if moved > 0:
                    g_lo *= 0.5
                hi, g_hi, passed, moved = x, g, test, 1
            else:
                if moved < 0:
                    g_hi *= 0.5
                lo, g_lo, moved = x, g, -1
            history.append((lo, hi))
            if len(history) % 2:
                budget *= 0.5
        if step_radius is None or passed is top or schur_stable(_arg_scaled(shifted, hi)[1]):
            break
        # the float radius was too low: rho* lies above the refuted hi
        lo, g_lo, hi, g_hi, passed = hi, -1.0, RHO_MAX, _gap(top, sector.threshold), top
        budget, moved = hi - lo, 0
    return hi, passed, tuple(history)


def certified_rate_curve(sector: SectorClass, alpha_grid,
                         tol: float = 1e-6) -> list[tuple[float, float | None]]:
    """Best certifiable gradient-descent rate per stepsize, in grid order;
    None marks stepsizes with no certificate."""
    alphas = [float(a) for a in alpha_grid]
    if any(a <= 0.0 for a in alphas):
        raise InvalidParameterError("stepsize grid must be positive")
    _check_tol(tol)

    def solve(alpha: float) -> float | None:
        found = _bisect(MethodSpec(Family.GRADIENT, alpha=alpha), sector, tol)
        return None if found is None else found[0]

    return [(a, solve(a)) for a in alphas]


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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


def search_stepsize(sector: SectorClass, tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section search for the gradient stepsize with the best
    certifiable rate over alpha in (0, 2/L).

    The certified-rate curve for gradient descent is max(1 - alpha m,
    alpha L - 1), a max of two affine functions, so it is unimodal and
    golden-section applies.  Uncertifiable stepsizes count as +inf, and so
    does a stepsize that does not certify at its rival's rate: its own rate
    is above the rival's, so it loses the comparison either way.
    """
    _check_tol(tol)
    inner_tol = min(tol, 1e-6)

    def value(alpha: float, rival: float) -> float:
        found = _bisect(MethodSpec(Family.GRADIENT, alpha=alpha), sector, inner_tol, rival)
        return math.inf if found is None else found[0]

    _, (best_alpha, best_rho) = golden_section(value, 0.0, 2.0 / sector.L, tol)
    if not math.isfinite(best_rho):
        raise NoCertificateError(
            f"no gradient stepsize in (0, {2.0 / sector.L:g}) certifies on this sector"
        )
    return best_alpha, best_rho


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced points from ``start`` to ``stop``, bit for bit
    ``np.linspace(start, stop, num).tolist()``: point i is i*step + start,
    or i/div*delta + start when the step underflows to 0, and the last point
    is ``stop``."""
    div, delta = num - 1, stop - start
    if div <= 0:
        return [i * delta + start for i in range(num)]
    step = delta / div
    points = ([i * step + start for i in range(num)] if step else
              [i / div * delta + start for i in range(num)])
    points[-1] = stop
    return points


@dataclass(frozen=True)
class TwoParamResult:
    alpha: float
    beta: float
    rho_star: float
    evaluations: int


def search_two_param(sector: SectorClass, alpha_grid, beta_grid,
                     family: Family = Family.HEAVY_BALL, tol: float = 1e-6,
                     refine_rounds: int = 2) -> TwoParamResult | None:
    """Exhaustive (alpha, beta) grid search for the best certifiable rate,
    refined ``refine_rounds`` times around the incumbent.

    Certified-rate surfaces for momentum methods can be non-smooth, so grids
    are used instead of derivative-based descent; ties break toward smaller
    alpha, then smaller beta (grid order).  A point that does not certify at
    the incumbent's rate has a larger rate, so only points that do get a
    rate search.  Returns None when nothing on the grid certifies.
    """
    family = Family(family)
    if family is Family.GRADIENT or family is Family.CUSTOM:
        raise InvalidParameterError("two-parameter search applies to momentum families")
    if isinstance(refine_rounds, bool) or not isinstance(refine_rounds, int) or refine_rounds < 0:
        raise InvalidParameterError(
            f"refine_rounds must be a non-negative integer, got {refine_rounds!r}")
    _check_tol(tol)
    alphas = sorted(float(a) for a in alpha_grid)
    betas = sorted(float(b) for b in beta_grid)
    if not alphas or not betas:
        raise InvalidParameterError("parameter grids must be nonempty")
    if alphas[0] <= 0.0:
        raise InvalidParameterError("stepsize grid must be positive")
    if betas[0] < 0.0 or betas[-1] >= 1.0:
        raise InvalidParameterError("momentum grid must lie in [0, 1)")

    evaluations = 0
    best: tuple[float, float, float] | None = None

    def sweep(a_list, b_list):
        nonlocal evaluations, best
        evaluations += len(a_list) * len(b_list)
        for a in a_list:
            for b in b_list:
                incumbent = math.inf if best is None else best[2]
                found = _bisect(MethodSpec(family, alpha=a, beta=b), sector, tol, incumbent)
                if found is not None and found[0] < incumbent:
                    best = (a, b, found[0])

    sweep(alphas, betas)
    if best is None:
        return None
    alpha_span = (alphas[-1] - alphas[0]) / max(len(alphas) - 1, 1)
    beta_span = (betas[-1] - betas[0]) / max(len(betas) - 1, 1)
    for _ in range(refine_rounds):
        if alpha_span == 0.0 and beta_span == 0.0:
            break
        a0, b0, _ = best
        a_list = [a0] if alpha_span == 0.0 else linspace(
            max(a0 - alpha_span, alpha_span * 1e-6), a0 + alpha_span, len(alphas))
        b_list = [b0] if beta_span == 0.0 else linspace(
            max(b0 - beta_span, 0.0), min(b0 + beta_span, 1.0 - 1e-12), len(betas))
        sweep(a_list, b_list)
        alpha_span /= max(len(alphas) - 1, 1)
        beta_span /= max(len(betas) - 1, 1)
    return TwoParamResult(best[0], best[1], best[2], evaluations)


def complementary_sensitivity(controller: RationalTF, sector: SectorClass,
                              rho: float) -> RationalTF:
    """Closed-loop transfer of the scaled controller K(rho z) in feedback
    with the constant gain -(m+L)/2, i.e. K(rho z)/(K(rho z) - 2/(m+L)):
    the system the certificate at ``rho`` tests, coefficient for coefficient
    (shift first, then scale; substituting z -> rho*z commutes with the
    feedback map)."""
    return tf_arg_scale(loop_shift(controller, sector), rho)
