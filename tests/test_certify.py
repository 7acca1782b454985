from dataclasses import asdict

import numpy as np
import pytest

from loopshift import (
    Family,
    ImproperShiftError,
    InvalidParameterError,
    MethodSpec,
    NoCertificateError,
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
    tf_allclose,
    tf_arg_scale,
)
from loopshift.cli import _json_safe

SEC = SectorClass(1.0, 10.0)


def gradient(alpha):
    return MethodSpec(Family.GRADIENT, alpha=alpha)


def test_loop_shift_optimal_stepsize_is_pure_delay():
    sec = SEC
    k = build_controller(gradient(2.0 / (sec.m + sec.L)))
    shifted = loop_shift(k, sec)
    assert shifted.num.coeffs == (1.0,)
    assert shifted.den.coeffs == (0.0, 1.0)


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


def test_two_param_validates_grids():
    with pytest.raises(InvalidParameterError):
        search_two_param(SEC, [], [0.0])
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
    assert tf_allclose(direct, tf_arg_scale(loop_shift(k, sec), 0.9), rtol=1e-12)


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
        route_b = tf_arg_scale(loop_shift(k, sec), rho)
        assert tf_allclose(route_a, route_b, rtol=1e-10)


def test_complementary_sensitivity_at_rho_one_is_plain_shift():
    k = build_controller(gradient(0.07))
    assert tf_allclose(complementary_sensitivity(k, SEC, 1.0), loop_shift(k, SEC), rtol=1e-14)


def test_certified_set_monotone_on_catalog():
    # once a rate certifies, every larger rate below one certifies too
    specs = [gradient(0.1), gradient(2.0 / 11.0), preset(Family.NESTEROV, 1.0, 10.0)]
    rhos = np.linspace(0.05, 0.999, 40)
    for spec in specs:
        flags = [certify_rate(spec, SEC, float(r)).certified for r in rhos]
        first = flags.index(True) if True in flags else len(flags)
        assert all(flags[first:])
