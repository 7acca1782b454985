"""Worst-case linear convergence-rate certification.

The pipeline: build the method's controller K, loop-shift it into
K' = K/(K - 2/(m+L)) so the nonlinearity's gain is centered, substitute
z -> rho*z, and certify rate rho when the scaled system is stable with
peak gain below (L+m)/(L-m).  A certificate is sound for every gradient in
the sector but is sufficient only, never claimed tight.

On top of the single test sit a bisection for the best certifiable rate, a
closed-form-checked stepsize search, and a two-parameter grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ImproperShiftError, InvalidParameterError, NoCertificateError
from .lti import (
    RationalTF,
    gain_reaches,
    golden_section,
    hinf_peak,
    stability_radius,
    tf_arg_scale,
    tf_reduce,
)
from .methods import Family, MethodSpec, build_controller
from .polynomials import poly_scale, poly_sub, schur_stable
from .sectors import SectorClass

# The largest rate a bisection tries; certifying only closer to one is none.
RHO_MAX = 1.0 - 1e-9

# Bisection never leans on monotonicity of the certified set: a coarse scan
# locates the first certified interval before the bracket is tightened.
SCAN_POINTS = 64


def loop_shift(controller: RationalTF, sector: SectorClass) -> RationalTF:
    """Shifted controller N/(N - s*D) for K = N/D with s = 2/(m+L), reduced
    and monic-normalized.

    For a strictly proper K the result is strictly proper with the same
    denominator degree.  A biproper K whose leading coefficients cancel in
    the new denominator has no proper shifted form and is rejected.
    """
    num = controller.num
    shifted_den = poly_sub(num, poly_scale(controller.den, sector.shift))
    if shifted_den.is_zero or num.degree > shifted_den.degree:
        raise ImproperShiftError(
            "loop shift produced an improper system; the controller shape is "
            "outside the supported feedback form"
        )
    return tf_reduce(RationalTF(num, shifted_den))


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


def _certifies(shifted: RationalTF, sector: SectorClass, rho: float) -> bool:
    """The small-gain test alone, as :func:`certify_rate` decides it."""
    scaled = tf_arg_scale(shifted, rho)
    return schur_stable(scaled.den) and not gain_reaches(scaled, sector.threshold)


def certify_rate(spec: MethodSpec, sector: SectorClass, rho: float) -> RateCertificate:
    """Run the small-gain rate test for one method, sector, and rate."""
    if not (math.isfinite(rho) and 0.0 < rho < 1.0):
        raise InvalidParameterError(f"rate rho must lie in (0, 1), got {rho}")
    scaled = tf_arg_scale(loop_shift(build_controller(spec), sector), rho)
    stable = schur_stable(scaled.den)
    if stable:
        hinf, peak_f = hinf_peak(scaled)
    else:
        hinf, peak_f = math.inf, math.nan
    threshold = sector.threshold
    return RateCertificate(
        method=spec.label,
        m=sector.m,
        L=sector.L,
        rho=rho,
        stable=stable,
        hinf=hinf,
        threshold=threshold,
        certified=stable and not gain_reaches(scaled, threshold),
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
    """Smallest certifiable rate, to bracket width ``tol``.

    The lower bracket starts at the shifted controller's stability radius
    (below it the scaled system is unstable, so no certificate is possible).
    Scan and bisection steps run the test alone; the certificate is built
    once, at the final rate.  Raises :class:`NoCertificateError` when not
    even RHO_MAX certifies; batch callers should treat that as a definite
    negative result, not a failure.
    """
    _check_tol(tol)
    shifted = loop_shift(build_controller(spec), sector)
    hi = RHO_MAX
    evaluations = 1
    if not _certifies(shifted, sector, hi):
        raise NoCertificateError(
            f"{spec.label} admits no certified rate below one on "
            f"S({sector.m:g}, {sector.L:g})"
        )
    lo = min(stability_radius(shifted), hi)
    history = [(lo, hi)]
    step = (hi - lo) / SCAN_POINTS
    for k in range(1, SCAN_POINTS):
        rho = lo + k * step
        evaluations += 1
        if _certifies(shifted, sector, rho):
            lo, hi = lo + (k - 1) * step, rho
            break
    else:
        lo = hi - step
    history.append((lo, hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if _certifies(shifted, sector, mid):
            hi = mid
        else:
            lo = mid
        history.append((lo, hi))
    return RateSearchResult(hi, certify_rate(spec, sector, hi), evaluations, tuple(history))


def certified_rate_curve(sector: SectorClass, alpha_grid, family: Family = Family.GRADIENT,
                         beta: float | None = None,
                         tol: float = 1e-6) -> list[tuple[float, float | None]]:
    """Best certifiable rate per stepsize, in grid order; None marks
    stepsizes with no certificate."""
    alphas = [float(a) for a in alpha_grid]
    if any(a <= 0.0 for a in alphas):
        raise InvalidParameterError("stepsize grid must be positive")

    def solve(alpha: float) -> float | None:
        try:
            return bisect_rate(MethodSpec(family, alpha=alpha, beta=beta), sector, tol).rho_star
        except NoCertificateError:
            return None

    return [(a, solve(a)) for a in alphas]


def search_stepsize(sector: SectorClass, tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section search for the gradient stepsize with the best
    certifiable rate over alpha in (0, 2/L).

    The certified-rate curve for gradient descent is max(1 - alpha m,
    alpha L - 1), a max of two affine functions, so it is unimodal and
    golden-section applies.  Uncertifiable stepsizes count as +inf.
    """
    _check_tol(tol)
    inner_tol = min(tol, 1e-6)

    def value(alpha: float) -> float:
        try:
            return bisect_rate(MethodSpec(Family.GRADIENT, alpha=alpha), sector, inner_tol).rho_star
        except NoCertificateError:
            return math.inf

    _, (best_alpha, best_rho) = golden_section(value, 0.0, 2.0 / sector.L, tol)
    if not math.isfinite(best_rho):
        raise NoCertificateError(
            f"no gradient stepsize in (0, {2.0 / sector.L:g}) certifies on this sector"
        )
    return best_alpha, best_rho


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
    alpha, then smaller beta (grid order).  Returns None when nothing on the
    grid certifies.
    """
    family = Family(family)
    if family is Family.GRADIENT or family is Family.CUSTOM:
        raise InvalidParameterError("two-parameter search applies to momentum families")
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
        for a in a_list:
            for b in b_list:
                evaluations += 1
                try:
                    rho = bisect_rate(MethodSpec(family, alpha=a, beta=b), sector, tol).rho_star
                except NoCertificateError:
                    continue
                if best is None or rho < best[2]:
                    best = (a, b, rho)

    sweep(alphas, betas)
    if best is None:
        return None
    alpha_span = (alphas[-1] - alphas[0]) / max(len(alphas) - 1, 1)
    beta_span = (betas[-1] - betas[0]) / max(len(betas) - 1, 1)
    for _ in range(refine_rounds):
        if alpha_span == 0.0 and beta_span == 0.0:
            break
        a0, b0, _ = best
        a_list = [a0] if alpha_span == 0.0 else np.linspace(
            max(a0 - alpha_span, alpha_span * 1e-6), a0 + alpha_span, len(alphas)).tolist()
        b_list = [b0] if beta_span == 0.0 else np.linspace(
            max(b0 - beta_span, 0.0), min(b0 + beta_span, 1.0 - 1e-12), len(betas)).tolist()
        sweep(a_list, b_list)
        alpha_span /= max(len(alphas) - 1, 1)
        beta_span /= max(len(betas) - 1, 1)
    return TwoParamResult(best[0], best[1], best[2], evaluations)


def complementary_sensitivity(controller: RationalTF, sector: SectorClass,
                              rho: float) -> RationalTF:
    """Closed-loop transfer of the scaled controller K(rho z) in feedback
    with the constant gain -(m+L)/2, i.e. K(rho z)/(K(rho z) - 2/(m+L)).

    Substituting z -> rho*z commutes with the feedback map, so this equals
    ``tf_arg_scale(loop_shift(controller), rho)`` coefficient for
    coefficient.
    """
    return loop_shift(tf_arg_scale(controller, rho), sector)
