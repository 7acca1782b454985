import cmath
import math
from dataclasses import asdict

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopshift import (
    Family,
    ImproperShiftError,
    InvalidParameterError,
    MethodSpec,
    NoCertificateError,
    QuadraticOracle,
    RationalTF,
    SectorClass,
    bisect_rate,
    build_controller,
    certified_rate_curve,
    certify_rate,
    complementary_sensitivity,
    loop_shift,
    preset,
    search_stepsize,
    search_two_param,
    simulate_run,
    tf_arg_scale,
)
from loopshift import certify, lti
from loopshift.cli import _json_safe
from loopshift.certify import golden_section, linspace
from loopshift.lti import LevelCrossing, climb_to_peak
from loopshift.polynomials import poly_roots, schur_stable

from helpers import (custom_controller, gain_reaches, hinf_peak, level_crossing, poly_from_roots,
                     reference_bisect, tf_allclose)

SEC = SectorClass(1.0, 10.0)


def gradient(alpha):
    return MethodSpec(Family.GRADIENT, alpha=alpha)


def test_loop_shift_optimal_stepsize_is_pure_delay():
    sec = SEC
    k = build_controller(gradient(2.0 / (sec.m + sec.L)))
    shifted = loop_shift(k, sec)
    assert shifted.num == (1.0,)
    assert shifted.den == (0.0, 1.0)


def test_loop_shift_generic_gradient_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = float(rng.uniform(0.05, 2.0))
        L = float(rng.uniform(2.5, 30.0))
        alpha = float(rng.uniform(0.01, 1.8 / L))
        sec = SectorClass(m, L)
        shifted = loop_shift(build_controller(gradient(alpha)), sec)
        a = alpha * (m + L)
        expected = RationalTF((a,), (a - 2.0, 2.0))
        assert tf_allclose(shifted, expected, rtol=1e-12)


def test_loop_shift_standard_stepsize_kappa_form():
    m, L = 1.0, 10.0
    kappa = L / m
    shifted = loop_shift(build_controller(gradient(1.0 / L)), SectorClass(m, L))
    expected = RationalTF((1.0 + kappa,), (1.0 - kappa, 2.0 * kappa))
    assert tf_allclose(shifted, expected, rtol=1e-12)


def test_loop_shift_rejects_degenerate_biproper_controller():
    # biproper custom controller whose leading coefficients cancel at
    # shift = 1, i.e. on a sector with m + L = 2
    custom = MethodSpec(Family.CUSTOM, custom_tf=RationalTF((-0.5, 1.0), (-1.0, 1.0)))
    with pytest.raises(ImproperShiftError):
        loop_shift(build_controller(custom), SectorClass(0.5, 1.5))


def _reference_shift_den(k: RationalTF, sector: SectorClass) -> np.ndarray:
    """N - s*D by numpy's polynomial subtraction, independent of
    ``loop_shift``.  Its coefficients equal loop_shift's as floats; a zero
    one may differ in sign, as numpy negates s*d where loop_shift subtracts
    it from 0.0."""
    return P.polysub(k.num, np.multiply(sector.shift, k.den))


@pytest.mark.parametrize("family", [Family.GRADIENT, Family.HEAVY_BALL, Family.NESTEROV,
                                    Family.PID])
def test_loop_shift_matches_numpy_on_catalog_grid(family):
    betas = (None,) if family is Family.GRADIENT else (0.0, -0.0, 0.1, 0.5, 9.0 / 11.0, 0.99)
    for alpha in (0.01, 0.1, 2.0 / 11.0, 0.5, 1.0, 1.9802):
        for beta in betas:
            k = build_controller(MethodSpec(family, alpha=alpha, beta=beta))
            for sector in (SEC, SectorClass(0.01, 1.0), SectorClass(1e-10, 1.0),
                           SectorClass(2.0, 3.0)):
                assert loop_shift(k, sector) == RationalTF(k.num, _reference_shift_den(k, sector))


custom_controllers = st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=n + 1),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=n, max_size=n),
    st.floats(min_value=0.1, max_value=3.0) | st.floats(min_value=-3.0, max_value=-0.1)))


@settings(deadline=None, max_examples=300)
@given(custom_controllers, st.floats(min_value=0.01, max_value=5.0),
       st.floats(min_value=0.1, max_value=50.0))
@example(((0.0, 0.5), (0.25, 0.0), 1.0), 1.0, 9.0)
@example(((0.5,), (0.25, 0.0), 1.0), 1.0, 9.0)
@example(((-0.5, 1.0), (-1.0,), 1.0), 0.5, 1.0)
def test_loop_shift_matches_numpy_on_custom_controllers(coeffs, m, width):
    # numerators as long as the denominator down to constants; a biproper
    # controller can lose its leading coefficient in the shift
    num, den, lead = coeffs
    k = RationalTF(num, [*den, lead])
    sector = SectorClass(m, m + width)
    reference_den = _reference_shift_den(k, sector)
    try:
        shifted = loop_shift(k, sector)
    except ImproperShiftError:
        assert not reference_den.any() or len(reference_den) < len(k.num)
        return
    assert shifted == RationalTF(k.num, reference_den)


def test_certify_optimal_stepsize_at_rho_09():
    cert = certify_rate(gradient(2.0 / 11.0), SEC, 0.9)
    assert cert.stable
    assert cert.hinf == pytest.approx(1.0 / 0.9, rel=1e-10)
    assert cert.threshold == pytest.approx(11.0 / 9.0, rel=1e-12)
    assert cert.certified
    assert cert.margin == pytest.approx(11.0 / 9.0 - 1.0 / 0.9, rel=1e-8)


def test_certify_fails_below_sector_gain():
    cert = certify_rate(gradient(2.0 / 11.0), SEC, 0.8)
    assert cert.stable
    assert cert.hinf == pytest.approx(1.25, rel=1e-10)
    assert not cert.certified


def test_certify_standard_stepsize_boundary():
    spec = gradient(0.1)  # alpha = 1/L, boundary at rho = 1 - 1/kappa = 0.9
    assert certify_rate(spec, SEC, 0.902).certified
    assert not certify_rate(spec, SEC, 0.898).certified


def test_certify_validates_rho():
    with pytest.raises(InvalidParameterError):
        certify_rate(gradient(0.1), SEC, 0.0)
    with pytest.raises(InvalidParameterError):
        certify_rate(gradient(0.1), SEC, 1.0)


def test_certificate_serialization_fields():
    cert = certify_rate(gradient(0.1), SEC, 0.95)
    data = _json_safe(asdict(cert))
    assert list(data) == [
        "method", "m", "L", "rho", "stable", "hinf", "threshold",
        "certified", "margin", "peak_frequency",
    ]
    unstable = certify_rate(gradient(0.1), SEC, 0.2)
    d2 = _json_safe(asdict(unstable))
    assert not d2["stable"] and d2["hinf"] is None and d2["margin"] is None
    assert d2["peak_frequency"] is None


def test_bisect_recovers_sector_gain_rate():
    result = bisect_rate(gradient(2.0 / 11.0), SEC)
    assert abs(result.rho_star - 9.0 / 11.0) < 1e-5
    assert result.certificate.certified
    lo, hi = result.bracket_history[-1]
    assert hi - lo <= 1e-6


def test_bisect_recovers_standard_stepsize_rate():
    result = bisect_rate(gradient(0.1), SEC)
    assert abs(result.rho_star - 0.9) < 1e-5


def test_bisect_rejects_oversized_step():
    with pytest.raises(NoCertificateError):
        bisect_rate(gradient(3.0 / 10.0), SEC)


@pytest.mark.parametrize("spec", [
    gradient(2e11),
    MethodSpec(Family.HEAVY_BALL, alpha=1e12, beta=0.5),
    MethodSpec(Family.NESTEROV, alpha=1e12, beta=0.5),
])
def test_huge_stepsizes_have_no_certificate(spec):
    # the z term of the shifted denominator is tiny next to the others; it
    # must survive, or K' collapses to a constant and every rate certifies
    with pytest.raises(NoCertificateError):
        bisect_rate(spec, SEC)


def test_narrow_resonance_is_not_certified():
    # order 4: the peak is narrower than the spacing of a 4096-point grid
    spec = MethodSpec(Family.CUSTOM, custom_tf=RationalTF(
        (0.16037083383833653, -0.21533252642457526, 0.13773884700201308,
         0.018181818181818184),
        (0.8820395861108509, -1.1843288953351638, -0.22251673958693807,
         1.5248060488112511, -1.0),
    ))
    cert = certify_rate(spec, SEC, 0.99)
    assert cert.stable and not cert.certified
    assert cert.hinf == pytest.approx(4.966, abs=5e-3)


def test_overflowing_gain_reads_as_infinite():
    # finite coefficients whose gain moduli overflow a float: abs() of such a
    # complex raises, and the gain counts as infinite, as for a pole on the circle
    spec = MethodSpec(Family.CUSTOM, custom_tf=RationalTF((7.5e307, -7.5e307),
                                                          (1.5e308, -1.5e308, 1.0)))
    sec = SectorClass(1.0, 3.0)
    cert = certify_rate(spec, sec, 0.99)
    assert cert.stable and not cert.certified and cert.hinf == math.inf
    with pytest.raises(NoCertificateError):
        bisect_rate(spec, sec)
    # scaled by rho, this numerator overflows to (inf, -inf, inf, -inf, 3.0):
    # every gain came out nan and was skipped, and the test read gain -1.0
    a, b = 4.0866507834627503e+307, 8.173301566925501e+307
    shifted = loop_shift(RationalTF((a, -a, a, -a, 0.75), (b, -b, b, -b, 1.0)), sec)
    for rho in (0.3, 0.5, 0.7, 0.9):
        test = certify._threshold_test(shifted, sec, rho)
        assert test.reaches and test.gain == math.inf


def test_tangency_is_not_certified():
    # gradient(0.19) has rate exactly 0.9 on S(1, 10): at rho = 0.9 the peak
    # gain equals the threshold, which is not below it
    cert = certify_rate(gradient(0.19), SEC, 0.9)
    assert cert.hinf == pytest.approx(cert.threshold, rel=1e-14)
    assert not cert.certified


def test_bisect_local_tightness():
    result = bisect_rate(gradient(2.0 / 11.0), SEC, tol=1e-6)
    below = certify_rate(gradient(2.0 / 11.0), SEC, result.rho_star - 2e-6)
    assert not below.certified


def test_curve_matches_closed_form_oracle():
    alphas = np.linspace(0.01, 0.19, 15)
    rows = certified_rate_curve(SEC, alphas)
    for alpha, rho in rows:
        oracle = max(1.0 - alpha * SEC.m, alpha * SEC.L - 1.0)
        assert rho is not None
        assert abs(rho - oracle) < 1e-5


def test_curve_none_past_two_over_L():
    rows = certified_rate_curve(SEC, [0.2, 0.25])
    assert rows == [(0.2, None), (0.25, None)]


def test_curve_minimum_at_optimal_stepsize():
    rows = certified_rate_curve(SEC, [0.1, 2.0 / 11.0, 0.15])
    rhos = {a: r for a, r in rows}
    assert rhos[2.0 / 11.0] == min(r for r in rhos.values())
    assert rhos[2.0 / 11.0] == pytest.approx(9.0 / 11.0, abs=1e-5)


def test_curve_rejects_nonpositive_grid():
    with pytest.raises(InvalidParameterError):
        certified_rate_curve(SEC, [-0.1, 0.1])


def test_curve_rows_match_bisection_in_grid_order():
    alphas = [0.15, 0.05, 2.0 / 11.0, 0.25, 0.1]  # 0.25 lies past 2/L
    expected = []
    for alpha in alphas:
        try:
            expected.append((alpha, bisect_rate(gradient(alpha), SEC).rho_star))
        except NoCertificateError:
            expected.append((alpha, None))
    assert expected[3] == (0.25, None)
    assert certified_rate_curve(SEC, alphas) == expected


@pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan"), float("inf")])
def test_bisect_and_search_reject_bad_tolerance(tol):
    with pytest.raises(InvalidParameterError):
        bisect_rate(gradient(0.1), SEC, tol=tol)
    with pytest.raises(InvalidParameterError):
        search_stepsize(SEC, tol=tol)
    with pytest.raises(InvalidParameterError):
        search_two_param(SEC, [0.1], [0.2], tol=tol)


def test_search_stepsize_finds_sector_optimum():
    alpha, rho = search_stepsize(SEC)
    assert abs(alpha - 2.0 / 11.0) < 1e-4
    assert abs(rho - 9.0 / 11.0) < 1e-4


def test_search_stepsize_well_conditioned_limit():
    sec = SectorClass(0.999, 1.0)
    _, rho = search_stepsize(sec, tol=1e-5)
    assert rho < 1.5e-3  # (L-m)/(L+m) is about 5e-4


def test_search_stepsize_ill_conditioned():
    _, rho = search_stepsize(SectorClass(0.01, 1.0))
    assert abs(rho - 0.99 / 1.01) < 1e-4


def test_two_param_with_zero_momentum_matches_gradient_sweep():
    alphas = np.linspace(0.02, 0.3, 8)
    two = search_two_param(SEC, alphas, [0.0], Family.HEAVY_BALL, refine_rounds=0)
    curve = certified_rate_curve(SEC, alphas)
    best = min(((a, r) for a, r in curve if r is not None), key=lambda ar: ar[1])
    assert two is not None
    assert two.beta == 0.0
    assert two.alpha == pytest.approx(best[0], abs=1e-12)
    assert two.rho_star == pytest.approx(best[1], abs=1e-9)


def test_two_param_nesterov_regression_snapshot():
    result = search_two_param(
        SEC, np.linspace(0.02, 0.3, 8), np.linspace(0.0, 0.6, 7), Family.NESTEROV
    )
    assert result is not None
    # deterministic search; snapshot of the refined optimum
    assert result.rho_star == pytest.approx(0.81860, abs=1e-3)
    assert result.rho_star >= SEC.sector_gain - 1e-3


def test_two_param_empty_certification_reports_none():
    result = search_two_param(SEC, [0.5, 0.8], [0.2], Family.HEAVY_BALL)
    assert result is None


def test_two_param_one_point_grids_refine_nothing():
    # a grid of one point on both axes has no span to refine around
    result = search_two_param(SEC, [0.1], [0.2], Family.HEAVY_BALL)
    assert (result.alpha, result.beta, result.evaluations) == (0.1, 0.2, 1)
    assert result.rho_star == bisect_rate(
        MethodSpec(Family.HEAVY_BALL, alpha=0.1, beta=0.2), SEC).rho_star


@pytest.mark.parametrize("rounds", [1.5, "2", -2, True, None])
def test_two_param_validates_refine_rounds(rounds):
    with pytest.raises(InvalidParameterError, match="refine_rounds"):
        search_two_param(SEC, [0.1], [0.2], Family.HEAVY_BALL, refine_rounds=rounds)


def test_two_param_validates_grids():
    with pytest.raises(InvalidParameterError):
        search_two_param(SEC, [], [0.0])
    for alphas in ([0.0, 0.1], [-0.1]):
        with pytest.raises(InvalidParameterError):
            search_two_param(SEC, alphas, [0.0])
    with pytest.raises(InvalidParameterError):
        search_two_param(SEC, [0.1], [1.0])
    with pytest.raises(InvalidParameterError):
        search_two_param(SEC, [0.1], [0.0], Family.GRADIENT)


def test_complementary_sensitivity_equals_scaled_shift():
    sec = SEC
    spec = gradient(2.0 / 11.0)
    k = build_controller(spec)
    direct = complementary_sensitivity(k, sec, 0.9)
    assert tf_allclose(direct, RationalTF((1.0 / 0.9,), (0.0, 1.0)), rtol=1e-12)
    # substituting z -> rho z commutes with the feedback map: scale, then shift
    assert tf_allclose(direct, loop_shift(tf_arg_scale(k, 0.9), sec), rtol=1e-12)


def test_complementary_sensitivity_routes_agree_for_catalog():
    rng = np.random.default_rng(7)
    for _ in range(12):
        m = float(rng.uniform(0.1, 2.0))
        L = m * float(rng.uniform(1.5, 50.0))
        sec = SectorClass(m, L)
        rho = float(rng.uniform(0.1, 0.99))
        alpha = float(rng.uniform(0.05, 1.5) / L)
        beta = float(rng.uniform(0.0, 0.9))
        fam = [Family.GRADIENT, Family.HEAVY_BALL, Family.NESTEROV, Family.PID][
            int(rng.integers(0, 4))
        ]
        spec = gradient(alpha) if fam is Family.GRADIENT else MethodSpec(fam, alpha=alpha, beta=beta)
        k = build_controller(spec)
        route_a = complementary_sensitivity(k, sec, rho)
        # the system the certificate tests, coefficient for coefficient
        assert route_a == RationalTF(*lti._arg_scaled(loop_shift(k, sec), rho))
        # scale, then shift: equal up to rounding
        route_b = loop_shift(tf_arg_scale(k, rho), sec)
        assert tf_allclose(route_a, route_b, rtol=1e-10)


def test_complementary_sensitivity_at_rho_one_is_plain_shift():
    k = build_controller(gradient(0.07))
    assert tf_allclose(complementary_sensitivity(k, SEC, 1.0), loop_shift(k, SEC), rtol=1e-14)


def test_certified_set_monotone_on_catalog():
    # once a rate certifies, every larger rate below one certifies too
    rng = np.random.default_rng(5)
    specs = [
        gradient(0.1), gradient(2.0 / 11.0), preset(Family.NESTEROV, 1.0, 10.0),
        MethodSpec(Family.HEAVY_BALL, alpha=0.05, beta=0.5),
        MethodSpec(Family.HEAVY_BALL, alpha=0.15, beta=0.1),
        MethodSpec(Family.PID, alpha=0.1, beta=0.2),
        MethodSpec(Family.PID, alpha=0.15, beta=0.6),
    ] + [custom_controller(rng, order) for order in (3, 4, 5, 6, 3, 4, 5, 6)]
    rhos = np.linspace(0.05, 0.999, 40)
    certified = 0
    for spec in specs:
        flags = [certify_rate(spec, SEC, float(r)).certified for r in rhos]
        first = flags.index(True) if True in flags else len(flags)
        assert all(flags[first:])
        certified += first < len(flags)
    assert certified >= 12


# K = -0.18 (z - 1.5) / ((z - 1)(z - 1.5 - 1e-9)): the zero sits 1e-9 from an
# unstable pole, a mode the closed loop still has
HIDDEN_MODE = MethodSpec(Family.CUSTOM, custom_tf=RationalTF(
    tuple(-0.18 * np.array([-1.5, 1.0])), tuple(np.convolve([-1.0, 1.0], [-1.5 - 1e-9, 1.0]))))


def test_hidden_unstable_mode_is_not_certified():
    with pytest.raises(NoCertificateError):
        bisect_rate(HIDDEN_MODE, SEC)
    assert not certify_rate(HIDDEN_MODE, SEC, 0.95).stable
    traj = simulate_run(HIDDEN_MODE, QuadraticOracle([1.0, 10.0]), [1.0, 1.0], 100)
    assert traj.residuals[100] > 1e8


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([Family.GRADIENT, Family.HEAVY_BALL, Family.NESTEROV, Family.PID]),
       st.floats(min_value=0.02, max_value=1.5), st.floats(min_value=0.0, max_value=0.9),
       st.floats(min_value=1.5, max_value=50.0))
def test_bisect_rate_is_tight_to_its_tolerance(family, step, beta, kappa):
    # step is alpha * L; rho_star certifies and rho_star - tol does not
    sec = SectorClass(1.0, kappa)
    alpha = step / kappa
    spec = gradient(alpha) if family is Family.GRADIENT else MethodSpec(family, alpha=alpha, beta=beta)
    tol = 1e-6
    try:
        result = bisect_rate(spec, sec, tol)
    except NoCertificateError:
        assume(False)
    assert certify_rate(spec, sec, result.rho_star).certified
    assume(result.rho_star - tol > 0.0)
    assert not certify_rate(spec, sec, result.rho_star - tol).certified


def _reference_two_param(sector, alphas, betas, family, tol=1e-6, refine_rounds=2):
    """search_two_param without pruning: a full bisection at every grid point."""
    alphas, betas = sorted(alphas), sorted(betas)
    best = None

    def sweep(a_list, b_list):
        nonlocal best
        for a in a_list:
            for b in b_list:
                try:
                    rho = bisect_rate(MethodSpec(family, alpha=a, beta=b), sector, tol).rho_star
                except NoCertificateError:
                    continue
                if best is None or rho < best[2]:
                    best = (a, b, rho)

    sweep(alphas, betas)
    alpha_span = (alphas[-1] - alphas[0]) / (len(alphas) - 1)
    beta_span = (betas[-1] - betas[0]) / (len(betas) - 1)
    for _ in range(refine_rounds):
        a0, b0, _ = best
        sweep(np.linspace(max(a0 - alpha_span, alpha_span * 1e-6), a0 + alpha_span,
                          len(alphas)).tolist(),
              np.linspace(max(b0 - beta_span, 0.0), min(b0 + beta_span, 1.0 - 1e-12),
                          len(betas)).tolist())
        alpha_span /= len(alphas) - 1
        beta_span /= len(betas) - 1
    return best


@pytest.mark.parametrize("family", [Family.HEAVY_BALL, Family.NESTEROV])
@pytest.mark.parametrize("m, L", [(1.0, 10.0), (0.01, 1.0)])
def test_pruned_two_param_search_equals_full_search(monkeypatch, family, m, L):
    sec = SectorClass(m, L)
    alphas = np.linspace(0.2, 3.0, 6) / L
    betas = np.linspace(0.0, 0.8, 5)
    expected = _reference_two_param(sec, alphas, betas, family)
    searches = []
    threshold_test = certify._threshold_test

    def counted(shifted, sector, rho, radius=None):
        # a search tests RHO_MAX only once it has passed the prune
        if rho == certify.RHO_MAX:
            searches.append(shifted)
        return threshold_test(shifted, sector, rho, radius)

    monkeypatch.setattr(certify, "_threshold_test", counted)
    result = search_two_param(sec, alphas, betas, family)
    assert (result.alpha, result.beta, result.rho_star) == expected
    assert result.evaluations == 3 * len(alphas) * len(betas)
    # the incumbent spared most grid points their search
    assert len(searches) < result.evaluations / 2


@pytest.mark.parametrize("m, L", [(1.0, 10.0), (0.01, 1.0)])
def test_pruned_stepsize_search_equals_full_search(m, L):
    sec = SectorClass(m, L)

    def value(alpha, rival):
        try:
            return bisect_rate(gradient(alpha), sec).rho_star
        except NoCertificateError:
            return math.inf

    _, expected = golden_section(value, 0.0, 2.0 / L, 1e-6)
    assert search_stepsize(sec) == expected


def test_golden_section_below_float_spacing_ends():
    # ran until killed when the loop only compared the width with tol
    (a, b), (x, fx) = golden_section(lambda x, rival: (x - 0.3) ** 2, 0.0, 2.0, 1e-17)
    assert math.nextafter(a, b) == b and a <= 0.3 <= b
    assert x == pytest.approx(0.3, abs=1e-15)


@settings(max_examples=60)
@given(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=5e-324, max_value=1e-3))
def test_golden_section_ends_at_any_tol(c, tol):
    (a, b), _ = golden_section(lambda x, rival: abs(x - c), 0.0, 2.0, tol)
    assert 0.0 <= a <= b <= 2.0
    assert b - a <= tol or math.nextafter(a, b) == b


def test_curve_finds_radii_only_for_certified_stepsizes(monkeypatch):
    radii = []
    stability_radius = certify._stability_radius

    def counted(shifted):
        radii.append(shifted)
        return stability_radius(shifted)

    monkeypatch.setattr(certify, "_stability_radius", counted)
    rows = certified_rate_curve(SEC, np.linspace(0.10, 0.23, 14))
    # stepsizes from 2/L = 0.2 up have no certificate and need no radius
    assert [r is None for _, r in rows] == [False] * 10 + [True] * 4
    assert len(radii) == 10


# order 1..6: (modulus, angle) per conjugate pole pair and one real pole for
# an odd order, all of modulus at most 0.9, the numerator coefficients of
# K'(rho z) up to the order, rho, and L of S(1, L), whose threshold runs
# from 41 down to 1.1 so that both verdicts come up
scaled_systems = st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.9),
                       st.floats(min_value=0.0, max_value=math.pi)),
             min_size=n // 2, max_size=n // 2),
    st.lists(st.floats(min_value=-0.9, max_value=0.9), min_size=n % 2, max_size=n % 2),
    st.lists(st.integers(min_value=-2000, max_value=2000).map(lambda k: k / 1000.0),
             min_size=1, max_size=n + 1),
    st.floats(min_value=0.5, max_value=0.999),
    st.floats(min_value=1.05, max_value=20.0),
))


def _custom_with_scaled_system(pairs, real_poles, num, rho, sector):
    """A custom controller K whose K'(rho z) has the given poles and, up to
    a constant, the numerator num(rho z): K' = N/(c P) with P(z) the shifted
    poles' polynomial, so D = (N - c P)/s, and c = N(1)/P(1) puts the
    integrator pole of K at z = 1."""
    poles = list(real_poles)
    for r, angle in pairs:
        poles += [cmath.rect(r, angle), cmath.rect(r, -angle)]
    p = np.array(poly_from_roots([rho * q for q in poles]))
    n = np.zeros(len(p))
    n[:len(num)] = num
    n = n * rho ** -np.arange(len(p))
    c = np.polyval(n[::-1], 1.0) / np.polyval(p[::-1], 1.0)
    d = (n - c * p) / sector.shift
    assume(abs(np.polyval(n[::-1], 1.0)) > 1e-3 and abs(d[-1]) > 1e-3)
    return MethodSpec(Family.CUSTOM, custom_tf=RationalTF(tuple(n), tuple(d)))


@settings(deadline=None, max_examples=60)
@given(scaled_systems)
def test_one_pass_certificate_decides_as_the_separate_tests(system):
    pairs, real_poles, num, rho, L = system
    sec = SectorClass(1.0, L)
    spec = _custom_with_scaled_system(pairs, real_poles, num, rho, sec)
    scaled = tf_arg_scale(loop_shift(build_controller(spec), sec), rho)
    stable = schur_stable(scaled.den)
    assume(stable)
    cert = certify_rate(spec, sec, rho)
    assert cert.certified == (stable and not gain_reaches(scaled, sec.threshold))
    assert cert.hinf == pytest.approx(hinf_peak(scaled)[0], rel=1e-9)
    try:
        result = bisect_rate(spec, sec)
    except NoCertificateError:
        return
    assert result.certificate == certify_rate(spec, sec, result.rho_star)


def _count_schur_tests(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return schur_stable(p)

    monkeypatch.setattr(certify, "schur_stable", counted)
    return calls


@pytest.mark.parametrize("spec, rho", [
    (gradient(0.1), 0.95),  # certified
    (gradient(0.19), 0.9),  # a tangency: stable, not certified
    (gradient(0.1), 0.4),   # below the stability radius, 0.45
    (MethodSpec(Family.NESTEROV, alpha=0.1, beta=0.5), 0.9),
])
def test_certificate_runs_one_schur_cohn_test(monkeypatch, spec, rho):
    calls = _count_schur_tests(monkeypatch)
    certify_rate(spec, SEC, rho)
    assert len(calls) == 1


NARROW_RESONANCE = MethodSpec(Family.CUSTOM, custom_tf=RationalTF(
    (0.16037083383833653, -0.21533252642457526, 0.13773884700201308, 0.018181818181818184),
    (0.8820395861108509, -1.1843288953351638, -0.22251673958693807, 1.5248060488112511, -1.0)))


@pytest.mark.parametrize("spec", [
    gradient(0.1), gradient(2.0 / 11.0), MethodSpec(Family.HEAVY_BALL, alpha=0.05, beta=0.5),
    NARROW_RESONANCE,
])
def test_bisection_final_certificate_retests_nothing(monkeypatch, spec):
    calls = _count_schur_tests(monkeypatch)
    tests = []
    threshold_test = certify._threshold_test

    def counted(*args):
        tests.append(args)
        return threshold_test(*args)

    monkeypatch.setattr(certify, "_threshold_test", counted)
    result = bisect_rate(spec, SEC)
    # steps take stability from the float radius: the exact test runs at
    # RHO_MAX and on the answer only, and the certificate retests nothing
    assert len(calls) == 2
    assert len(tests) == result.iterations
    assert result.certificate.certified and result.certificate.rho == result.rho_star


@pytest.mark.parametrize("scale", [0.9, 0.5])
def test_too_low_float_radius_falls_back_to_exact_steps(monkeypatch, scale):
    tol = 1e-6
    want = bisect_rate(NARROW_RESONANCE, SEC, tol).rho_star
    monkeypatch.setattr(certify, "poly_roots",
                        lambda p: [scale * r for r in poly_roots(p)])
    calls = _count_schur_tests(monkeypatch)
    result = bisect_rate(NARROW_RESONANCE, SEC, tol)
    assert len(calls) > 2  # the answer was refuted, and exact steps followed
    assert abs(result.rho_star - want) <= tol
    assert certify_rate(NARROW_RESONANCE, SEC, result.rho_star).certified
    assert result.bracket_history[-1][1] == result.rho_star


def test_too_high_float_radius_still_certifies(monkeypatch):
    # the lower bracket end trusted the float radius before steps did
    monkeypatch.setattr(certify, "poly_roots",
                        lambda p: [1.02 * r for r in poly_roots(p)])
    result = bisect_rate(NARROW_RESONANCE, SEC)
    assert certify_rate(NARROW_RESONANCE, SEC, result.rho_star).certified


lean_systems = st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=n + 1),
    st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=n, max_size=n),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=1.05, max_value=20.0),
))


@settings(deadline=None, max_examples=200)
@given(lean_systems, st.booleans())
# the scaled top numerator coefficient 5e-324 * 0.25 rounds to 0 and is trimmed
@example(([1.0, 0.0], [0.1], 0.25, 10.0), True)
def test_threshold_test_equals_the_transfer_function_route(system, tiny_top):
    num, den, rho, L = system
    if tiny_top:
        num = num[:-1] + [5e-324]
    t = RationalTF(tuple(num), tuple(den) + (1.0,))
    sec = SectorClass(1.0, L)
    try:
        scaled = tf_arg_scale(t, rho)
    except InvalidParameterError as exc:
        if "must be finite" in str(exc):
            # steps take no finiteness check: non-finite scaled coefficients fail the test
            assert not certify._certifies(certify._threshold_test(t, sec, rho))
            return
        with pytest.raises(InvalidParameterError, match=str(exc)):
            certify._threshold_test(t, sec, rho)
        return
    step = certify._threshold_test(t, sec, rho)
    assert (step is not None) == schur_stable(scaled.den)
    if step is not None:
        want = level_crossing(scaled, sec.threshold)
        assert (step.level, step.gain, step.theta) == (want.level, want.gain, want.theta)
        assert step.gains == want.gains


# gradient descent at alpha = 0.05, rate 0.95, padded with two pole-zero
# pairs at the origin: an order-3 controller
PADDED_GRADIENT = MethodSpec(Family.CUSTOM, custom_tf=RationalTF((0.0, 0.0, -0.05),
                                                                   (0.0, 0.0, -1.0, 1.0)))


@pytest.mark.parametrize("spec, rho", [
    # rho**2 and rho**3 underflow to 0: dropping the denominator's top
    # coefficient once certified the rest
    (MethodSpec(Family.HEAVY_BALL, alpha=0.05, beta=0.0), 1e-300),
    (MethodSpec(Family.HEAVY_BALL, alpha=0.05, beta=0.0), 1e-170),
    (PADDED_GRADIENT, 1e-110),
    (PADDED_GRADIENT, 1e-200),
], ids=["heavyball-1e-300", "heavyball-1e-170", "padded-1e-110", "padded-1e-200"])
def test_a_rate_whose_power_underflows_raises(spec, rho):
    with pytest.raises(InvalidParameterError, match="underflows to 0"):
        certify_rate(spec, SEC, rho)


def test_scaling_never_drops_the_denominator_degree():
    k = build_controller(MethodSpec(Family.HEAVY_BALL, alpha=0.05, beta=0.0))
    with pytest.raises(InvalidParameterError, match="to the power 2 underflows to 0"):
        tf_arg_scale(loop_shift(k, SEC), 1e-300)
    with pytest.raises(InvalidParameterError, match="to the power 2 underflows to 0"):
        complementary_sensitivity(k, SEC, 1e-300)


def test_scaled_top_numerator_underflow_is_trimmed():
    t = RationalTF((1.0, 5e-324), (0.1, 1.0))
    assert tf_arg_scale(t, 0.25).num == (1.0 / 0.25,)
    assert lti._arg_scaled(t, 0.25) == ((1.0 / 0.25,), (0.1 / 0.25, 1.0))


def _count_builds(monkeypatch) -> list:
    built = []
    post_init = RationalTF.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RationalTF, "__post_init__", counted)
    return built


@pytest.mark.parametrize("spec", [
    gradient(0.1),
    MethodSpec(Family.HEAVY_BALL, alpha=0.05, beta=0.5),
    MethodSpec(Family.CUSTOM, custom_tf=RationalTF(
        (0.16037083383833653, -0.21533252642457526, 0.13773884700201308, 0.018181818181818184),
        (0.8820395861108509, -1.1843288953351638, -0.22251673958693807, 1.5248060488112511,
         -1.0))),
])
def test_bisection_steps_build_no_transfer_function(monkeypatch, spec):
    certify._shifted.cache_clear()  # so the search builds its shift here
    built = _count_builds(monkeypatch)
    per_step = []
    threshold_test = certify._threshold_test

    def step(*args):
        before = len(built)
        test = threshold_test(*args)
        per_step.append(len(built) - before)
        return test

    monkeypatch.setattr(certify, "_threshold_test", step)
    result = bisect_rate(spec, SEC)
    assert built  # the controller and its loop shift are built once
    assert per_step == [0] * result.iterations


@pytest.mark.parametrize("calls", [1, 2, 7])
def test_certificates_on_one_method_and_sector_build_the_shift_once(monkeypatch, calls):
    certify._shifted.cache_clear()
    built = _count_builds(monkeypatch)
    spec, other = gradient(0.1), SectorClass(0.5, 10.0)
    # the controller and its shift at the first call, then nothing
    for rho in linspace(0.95, 0.99, calls):
        certify_rate(spec, SEC, rho)
    assert len(built) == 2
    assert built[1] == loop_shift(build_controller(spec), SEC)
    del built[:]
    # the memo holds one key: a new sector builds anew, an equal one does not
    for sector in (other, other, SEC, SectorClass(1, 10)):
        certify_rate(spec, sector, 0.97)
    assert len(built) == 4
    assert built[1] == loop_shift(build_controller(spec), other)
    assert built[3] == loop_shift(build_controller(spec), SEC)


def _equal_specs(spec: MethodSpec) -> list[MethodSpec]:
    """``spec`` and specs equal to it but not the same object: a zero
    momentum given as 0.0, -0.0 and 0, a custom controller scaled by powers
    of two, which its monic normalization undoes exactly."""
    if spec.family is Family.CUSTOM:
        k = spec.custom_tf
        return [spec] + [MethodSpec(Family.CUSTOM, custom_tf=RationalTF(
            [c * x for x in k.num], [c * x for x in k.den])) for c in (-2.0, 0.25)]
    if spec.beta == 0.0:
        return [MethodSpec(spec.family, alpha=spec.alpha, beta=b) for b in (0.0, -0.0, 0)]
    return [spec, MethodSpec(spec.family, alpha=spec.alpha, beta=spec.beta)]


def _fields_repr(outcome) -> list:
    """Each field's repr, which tells every float bit apart but NaN's, or
    the exception raised."""
    if isinstance(outcome, Exception):
        return [repr(outcome)]
    return [(f, repr(getattr(outcome, f))) for f in outcome.__dataclass_fields__]


def _outcome(call, *args):
    try:
        return call(*args)
    except (NoCertificateError, ImproperShiftError) as exc:
        return exc


memo_specs = st.one_of(
    st.tuples(st.sampled_from([Family.HEAVY_BALL, Family.NESTEROV, Family.PID]),
              st.floats(min_value=0.02, max_value=2.2),
              st.just(0.0) | st.floats(min_value=0.0, max_value=0.95))
    .map(lambda t: MethodSpec(t[0], alpha=t[1] / 10.0, beta=t[2])),
    st.floats(min_value=0.02, max_value=2.2).map(lambda s: gradient(s / 10.0)),
    st.tuples(st.integers(0, 2**16), st.integers(3, 6))
    .map(lambda t: custom_controller(np.random.default_rng(t[0]), t[1])))
# bounds given as ints and as floats: equal sectors, not the same object
memo_sectors = st.sampled_from([(1, 10), (2, 3), (1, 40)])
memo_calls = st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 1), st.booleans(),
                       st.sampled_from([certify_rate, bisect_rate]),
                       st.floats(min_value=0.05, max_value=0.999))


@settings(deadline=None, max_examples=40)
@given(st.lists(memo_specs, min_size=2, max_size=2), st.lists(memo_sectors, min_size=2, max_size=2),
       st.lists(memo_calls, min_size=1, max_size=8))
def test_memoized_shift_gives_the_results_of_a_fresh_one(specs, bounds, calls):
    certify._shifted.cache_clear()
    variants = [_equal_specs(spec) for spec in specs]
    sectors = [(SectorClass(m, L), SectorClass(float(m), float(L))) for m, L in bounds]
    assert all(v == vs[0] and v is not vs[0] for vs in variants + sectors for v in vs[1:])
    # an equal key that is not the same object follows the first call
    calls = [(0, 0, 0, False, certify_rate, 0.97), (0, 1, 0, True, certify_rate, 0.97), *calls]
    for i, v, j, as_float, call, rho in calls:
        spec, sector = variants[i][v % len(variants[i])], sectors[j][as_float]
        args = (spec, sector, rho) if call is certify_rate else (spec, sector)
        got = _outcome(call, *args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "_shifted",
                       lambda spec, sector: loop_shift(build_controller(spec), sector))
            want = _outcome(call, *args)
        assert _fields_repr(got) == _fields_repr(want)
    assert certify._shifted.cache_info().hits >= 1


def _search_test_bound(result, tol):
    """The most tests a search may take: two steps per halving of its
    starting bracket, plus the test at RHO_MAX and one spare step."""
    lo0 = result.bracket_history[0][0]
    return 2 * math.ceil(math.log2(max((certify.RHO_MAX - lo0) / tol, 1.0))) + 2


def _check_search_against_reference(spec, sec, tol):
    try:
        ref_hi, _, _ = reference_bisect(spec, sec, tol)
    except NoCertificateError:
        with pytest.raises(NoCertificateError):
            bisect_rate(spec, sec, tol)
        return None
    result = bisect_rate(spec, sec, tol)
    assert abs(result.rho_star - ref_hi) <= tol
    assert certify_rate(spec, sec, result.rho_star).certified
    lo, hi = result.bracket_history[-1]
    assert hi == result.rho_star and hi - lo <= tol
    assert result.iterations <= _search_test_bound(result, tol)
    return result


# family, alpha * L and beta
catalog_specs = st.tuples(
    st.sampled_from([Family.GRADIENT, Family.HEAVY_BALL, Family.NESTEROV, Family.PID]),
    st.floats(min_value=0.02, max_value=2.2), st.floats(min_value=0.0, max_value=0.95))
search_sectors = st.sampled_from([(1.0, 10.0), (0.01, 1.0), (1.0, 1.5), (0.5, 40.0)])


@settings(deadline=None, max_examples=120)
@given(st.one_of(catalog_specs.map(lambda t: ("catalog", t)),
                 scaled_systems.map(lambda t: ("custom", t))),
       search_sectors, st.sampled_from([1e-6, 1e-9, 1e-3]))
def test_interpolating_search_matches_reference_bisection(case, m_L, tol):
    kind, data = case
    if kind == "catalog":
        family, step, beta = data
        sec = SectorClass(*m_L)
        alpha = step / sec.L
        spec = MethodSpec(family, alpha=alpha, beta=None if family is Family.GRADIENT else beta)
    else:
        pairs, real_poles, num, rho, L = data
        sec = SectorClass(m_L[0], m_L[0] * L)
        spec = _custom_with_scaled_system(pairs, real_poles, num, rho, sec)
    _check_search_against_reference(spec, sec, tol)


SAFEGUARD_SPECS = [
    gradient(0.1),
    gradient(2.0 / 11.0),
    MethodSpec(Family.HEAVY_BALL, alpha=0.05, beta=0.5),
    MethodSpec(Family.NESTEROV, alpha=0.1, beta=0.5),
    NARROW_RESONANCE,
]


@pytest.mark.parametrize("spec", SAFEGUARD_SPECS)
@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_search_safeguard_bounds_a_stalling_interpolation(monkeypatch, spec, tol):
    # a vanishing gap at every certified rate sends each secant step to
    # hi - tol/2, which shrinks the bracket by tol/2 only
    monkeypatch.setattr(certify, "_gap",
                        lambda test, threshold: 1e-300 if certify._certifies(test) else -1.0)
    result = _check_search_against_reference(spec, SEC, tol)
    lo0, hi0 = result.bracket_history[0]
    assert result.bracket_history[1] == (lo0, hi0 - 0.5 * tol)


@pytest.mark.parametrize("spec", SAFEGUARD_SPECS)
def test_non_finite_secant_step_is_a_midpoint(monkeypatch, spec):
    # an infinite gap at hi makes every secant root inf/inf, NaN
    monkeypatch.setattr(certify, "_gap",
                        lambda test, threshold: math.inf if certify._certifies(test) else -1.0)
    result = bisect_rate(spec, SEC)
    hi, evaluations, history = reference_bisect(spec, SEC, 1e-6)
    assert (result.rho_star, result.iterations, result.bracket_history) == (hi, evaluations, history)


def test_gap_takes_the_verdicts_sign():
    threshold = SEC.threshold
    assert certify._gap(None, threshold) == -1.0
    # a zero gain is an infinite gap, whose secant step is a midpoint
    assert certify._gap(LevelCrossing(threshold, 0.0, 0.0, None), threshold) == math.inf
    assert certify._gap(LevelCrossing(threshold, math.inf, 0.0, None), threshold) == -1.0
    assert certify._gap(LevelCrossing(threshold, threshold / 2, 0.0, None), threshold) == 1.0
    # a gain within LEVEL_RTOL below the threshold reaches it: the gap is
    # pushed below zero to agree with that verdict
    touching = LevelCrossing(threshold, threshold * (1.0 - 0.5 * lti.LEVEL_RTOL), 0.0, None)
    assert touching.reaches and certify._gap(touching, threshold) == -1e-300


def _count_climbs(monkeypatch):
    calls = []

    def counted(test):
        calls.append(test)
        return climb_to_peak(test)

    monkeypatch.setattr(certify, "climb_to_peak", counted)
    return calls


def test_rate_only_callers_climb_to_no_peak(monkeypatch):
    alphas = [0.05, 0.1, 2.0 / 11.0, 0.25]
    want_curve = []
    for a in alphas:
        try:
            want_curve.append((a, bisect_rate(gradient(a), SEC).rho_star))
        except NoCertificateError:
            want_curve.append((a, None))
    calls = _count_climbs(monkeypatch)
    assert certified_rate_curve(SEC, alphas) == want_curve
    alpha, rho = search_stepsize(SEC, 1e-4)
    assert rho == pytest.approx(9.0 / 11.0, abs=1e-4)
    best = search_two_param(SEC, [0.02, 0.05], [0.3, 0.5])
    assert len(calls) == 0
    assert best.rho_star == bisect_rate(
        MethodSpec(Family.HEAVY_BALL, alpha=best.alpha, beta=best.beta), SEC).rho_star
    assert len(calls) == 1
    assert bisect_rate(gradient(alpha), SEC).rho_star == rho


def _mp_peak(t, freq, bits=200):
    """Peak gain of ``t`` (its stored coefficients read exactly) in
    ``bits``-bit arithmetic: the best point of a local grid around ``freq``,
    refined by golden-section search."""
    import mpmath
    with mpmath.workprec(bits):
        num = [mpmath.mpf(c) for c in reversed(t.num)]
        den = [mpmath.mpf(c) for c in reversed(t.den)]

        def gain(theta):
            z = mpmath.expj(theta)
            return abs(mpmath.polyval(num, z) / mpmath.polyval(den, z))

        center, step = 2 * mpmath.pi * mpmath.mpf(freq), mpmath.mpf("1e-6")
        k_best = max(range(-200, 201), key=lambda k: gain(center + k * step))
        a, b = center + (k_best - 1) * step, center + (k_best + 1) * step
        invphi = (mpmath.sqrt(5) - 1) / 2
        for _ in range(150):
            x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
            if gain(x1) >= gain(x2):
                b = x2
            else:
                a = x1
        return float(gain((a + b) / 2))


def test_narrow_resonance_peak_against_mpmath():
    # the narrow-resonance reproducer of the highorder-custom benchmark
    spec = MethodSpec(Family.CUSTOM, custom_tf=RationalTF(
        (0.16037083383833653, -0.21533252642457526, 0.13773884700201308,
         0.018181818181818184),
        (0.8820395861108509, -1.1843288953351638, -0.22251673958693807,
         1.5248060488112511, -1.0),
    ))
    cert = certify_rate(spec, SEC, 0.99)
    assert cert.stable and not cert.certified
    scaled = tf_arg_scale(loop_shift(build_controller(spec), SEC), 0.99)
    exact = _mp_peak(scaled, cert.peak_frequency)
    assert abs(cert.hinf - exact) <= 1e-11 * exact


def test_rate_search_below_float_spacing_ends():
    # ran until killed when the search only compared the width with tol
    result = bisect_rate(gradient(0.1), SEC, tol=1e-16)
    lo, hi = result.bracket_history[-1]
    assert hi == result.rho_star and math.nextafter(lo, hi) == hi
    assert result.rho_star == pytest.approx(0.9, abs=1e-15)


def _drawn_method(case, m_L):
    """The method and sector of a drawn catalog spec on ``m_L``, or of a
    drawn ``helpers.custom_controller`` seed and order, or a given spec, on
    S(1, 10)."""
    kind, data = case
    if kind == "spec":
        return data, SEC
    if kind == "catalog":
        family, step, beta = data
        sec = SectorClass(*m_L)
        return MethodSpec(family, alpha=step / sec.L,
                          beta=None if family is Family.GRADIENT else beta), sec
    seed, order = data
    return custom_controller(np.random.default_rng(seed), order), SEC


@settings(deadline=None, max_examples=60)
@given(st.one_of(catalog_specs.map(lambda t: ("catalog", t)),
                 st.tuples(st.integers(0, 2**16), st.integers(3, 6)).map(lambda t: ("custom", t))),
       search_sectors)
def test_float_radius_steps_equal_exact_steps(case, m_L):
    spec, sec = _drawn_method(case, m_L)

    def search():
        try:
            return repr(bisect_rate(spec, sec))
        except NoCertificateError as exc:
            return repr(exc)

    got = search()
    threshold_test = certify._threshold_test
    with pytest.MonkeyPatch.context() as mp:
        # every step decides stability by Schur-Cohn
        mp.setattr(certify, "_threshold_test",
                   lambda shifted, sector, rho, radius=None: threshold_test(shifted, sector, rho))
        assert got == search()


@settings(deadline=None, max_examples=60)
@given(catalog_specs, search_sectors, st.floats(min_value=-1e-3, max_value=1e-3),
       st.sampled_from([1e-6, 1e-9, 1e-3]))
def test_bounded_search_is_pruned_or_equals_the_full_search(data, m_L, offset, tol):
    family, step, beta = data
    sec = SectorClass(*m_L)
    spec = MethodSpec(family, alpha=step / sec.L,
                      beta=None if family is Family.GRADIENT else beta)
    try:
        full = bisect_rate(spec, sec, tol)
    except NoCertificateError:
        full = None
    # the bound lies around rho*, or around 0.5 without a certificate
    center = 0.5 if full is None else full.rho_star
    bound = min(center * (1.0 + offset), certify.RHO_MAX)
    shifted = loop_shift(build_controller(spec), sec)
    prune = certify._threshold_test(shifted, sec, bound, certify._stability_radius(shifted))
    found = certify._bisect(spec, sec, tol, bound)
    if full is None or not certify._certifies(prune):
        assert found is None
    else:
        hi, passed, history = found
        assert (hi, history) == (full.rho_star, full.bracket_history)
        assert certify._certificate(spec, sec, hi, passed) == full.certificate


# tolerances from the benchmark's down to the smallest subnormal
tiny_tols = st.one_of(st.just(5e-324), st.floats(min_value=5e-324, max_value=1e-6),
                      st.integers(min_value=-1074, max_value=-20).map(lambda e: 2.0 ** e))


@settings(deadline=None, max_examples=60)
@given(catalog_specs, search_sectors, tiny_tols)
def test_rate_search_ends_within_its_cap_at_any_tol(data, m_L, tol):
    family, step, beta = data
    sec = SectorClass(*m_L)
    spec = MethodSpec(family, alpha=step / sec.L,
                      beta=None if family is Family.GRADIENT else beta)
    try:
        result = bisect_rate(spec, sec, tol)
    except NoCertificateError:
        return
    lo, hi = result.bracket_history[-1]
    assert hi == result.rho_star and (hi - lo <= tol or math.nextafter(lo, hi) == hi)
    # the cap of _search_test_bound, its ratio taken in logs: width/tol can overflow
    width = certify.RHO_MAX - result.bracket_history[0][0]
    assert result.iterations <= 2 * math.ceil(max(math.log2(width) - math.log2(tol), 0.0)) + 2
    assert result.certificate.certified


@settings(max_examples=300)
@given(st.floats(min_value=-1e3, max_value=1e3), st.floats(min_value=-1e3, max_value=1e3),
       st.integers(min_value=1, max_value=40), st.booleans())
@example(1.0, 3.0, 1, False)
@example(0.0, 0.005, 40, True)  # a step of 5e-323 / 39 underflows to 0
def test_linspace_is_numpys_bit_for_bit(start, stop, num, tiny):
    if tiny:
        # subnormal spans, where the step can underflow to 0
        start, stop = start * 1e-320, stop * 1e-320
    for a, b in ((start, stop), (start, start)):
        got = certify.linspace(a, b, num)
        want = np.linspace(a, b, num).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in want]


def _linear_worst_case(spec, sector):
    """rho_lin: the largest root modulus of D - q N over q in [m, L], the
    rate of the method on f = q |x|^2 / 2, a function in S(m, L).  numpy
    roots pick q on a 101-point grid that holds both ends; the modulus at
    that q is computed again, as an mpmath number, at 40 digits on the
    stored coefficients."""
    import mpmath
    k = build_controller(spec)
    num = k.num + (0.0,) * (len(k.den) - len(k.num))
    qs = np.linspace(sector.m, sector.L, 101)
    radii = [np.max(np.abs(np.roots((np.array(k.den) - q * np.array(num))[::-1]))) for q in qs]
    q = float(qs[int(np.argmax(radii))])
    with mpmath.workdps(40):
        coeffs = [mpmath.mpf(d) - mpmath.mpf(q) * mpmath.mpf(n) for d, n in zip(k.den, num)]
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=100)
        return +max(abs(r) for r in roots)


@settings(deadline=None, max_examples=60)
@given(st.one_of(catalog_specs.map(lambda t: ("catalog", t)),
                 st.tuples(st.integers(0, 2**16), st.integers(1, 6)).map(lambda t: ("custom", t))),
       search_sectors)
def test_certified_rate_is_at_least_the_linear_worst_case(case, m_L):
    # quadratics with curvature q in [m, L] lie in S(m, L), so a sound
    # certificate can promise no rate below theirs; where the certificate is
    # tight, the float level test can still certify up to one ulp below it
    # (heavyball(0.002, 0) on S(1, 10) certifies the float 0.998, 1.7e-18
    # under its rate); an exact final verdict would close that gap
    import mpmath
    spec, sec = _drawn_method(case, m_L)
    try:
        rho_star = bisect_rate(spec, sec).rho_star
    except NoCertificateError:
        return
    rho_lin = _linear_worst_case(spec, sec)
    with mpmath.workdps(40):
        assert mpmath.mpf(rho_star) + math.ulp(rho_star) >= rho_lin - mpmath.mpf(10) ** -30


@settings(deadline=None, max_examples=100)
@given(st.one_of(catalog_specs.map(lambda t: ("catalog", t)),
                 st.tuples(st.integers(0, 2**16), st.integers(1, 6)).map(lambda t: ("custom", t))),
       search_sectors,
       st.floats(min_value=math.log(5e-324), max_value=math.log(certify.RHO_MAX)).map(
           lambda u: max(math.exp(u), 5e-324)))
@example(("catalog", (Family.HEAVY_BALL, 0.5, 0.0)), (1.0, 10.0), 1e-300)
@example(("catalog", (Family.HEAVY_BALL, 0.5, 0.0)), (1.0, 10.0), 1e-170)
@example(("spec", PADDED_GRADIENT), (1.0, 10.0), 1e-110)
@example(("spec", PADDED_GRADIENT), (1.0, 10.0), 1e-200)
def test_certificate_at_any_rate_is_sound_or_raises(case, m_L, rho):
    # down to the smallest float: a rate whose power rho**order underflows
    # raises, and any other certifies no rate below the linear worst case
    # (to one ulp, as in the search above)
    import mpmath
    spec, sec = _drawn_method(case, m_L)
    try:
        cert = certify_rate(spec, sec, rho)
    except InvalidParameterError as exc:
        assert "underflows to 0" in str(exc)
        return
    if cert.certified:
        rho_lin = _linear_worst_case(spec, sec)
        with mpmath.workdps(40):
            assert mpmath.mpf(rho) + math.ulp(rho) >= rho_lin - mpmath.mpf(10) ** -30


# Catalog rates on S(1, 10): the closed-form order-2 rate that bisection
# meets within tol, and rho_lin.  The first seven bind at an end of the
# sector (q = m or q = L), where the two agree and the certificate is
# tight.  The last two bind at an interior frequency, where no quadratic
# attains the rate.
RATE_TABLE = [
    (gradient(0.05), 0.95, 0.95),
    (gradient(0.1), 0.9, 0.9),
    (gradient(2.0 / 11.0), 9.0 / 11.0, 9.0 / 11.0),
    (gradient(0.19), 0.9, 0.9),
    (MethodSpec(Family.NESTEROV, alpha=0.1, beta=0.2), 0.8740658618, 0.8740658618),
    (MethodSpec(Family.HEAVY_BALL, alpha=0.1, beta=0.1), 0.8872983346, 0.8872983346),
    (MethodSpec(Family.PID, alpha=0.05, beta=0.3), 0.9507765771, 0.9507765771),
    (preset(Family.NESTEROV, 1.0, 10.0), 0.9669999669, 0.6837722365),
    (MethodSpec(Family.HEAVY_BALL, alpha=0.05, beta=0.5), 0.9672245531, 0.8850781059),
]


@pytest.mark.parametrize("spec, closed, linear", RATE_TABLE, ids=[r[0].label for r in RATE_TABLE])
def test_rate_table_against_the_linear_worst_case(spec, closed, linear):
    tol = 1e-9
    rho_star = bisect_rate(spec, SEC, tol).rho_star
    rho_lin = _linear_worst_case(spec, SEC)
    assert float(rho_lin) == pytest.approx(linear, abs=1e-10)
    assert closed - 1e-10 <= rho_star <= closed + tol + 1e-10
    gap = float(rho_star - rho_lin)
    if closed == linear:
        assert 0.0 <= gap <= tol
    else:
        # 0.283 and 0.082: the conservatism of the sector-only test
        assert gap > 0.08
