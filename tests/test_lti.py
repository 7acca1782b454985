import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopshift import (
    InvalidParameterError,
    Polynomial,
    RationalTF,
    UnstableSystemError,
    constant_tf,
    freq_response,
    freq_response_many,
    hinf_peak,
    impulse_series,
    poles,
    poly_from_roots,
    realize,
    stability_radius,
    tf_add,
    tf_allclose,
    tf_arg_scale,
    tf_mul,
    tf_reduce,
    tf_sub,
    verify_realization,
)
from loopshift.lti import gain_reaches


def integrator(alpha):
    return RationalTF((-alpha,), (-1.0, 1.0))


def _random_stable_tf(rng, max_order=3):
    order = int(rng.integers(1, max_order + 1))
    pole_list = []
    while len(pole_list) < order:
        if order - len(pole_list) >= 2 and rng.random() < 0.5:
            r, th = 0.9 * rng.random(), math.pi * rng.random()
            p = r * cmath.exp(1j * th)
            pole_list += [p, p.conjugate()]
        else:
            pole_list.append(complex(rng.uniform(-0.9, 0.9)))
    den = poly_from_roots(pole_list)
    num = Polynomial(tuple(rng.uniform(-2.0, 2.0, int(rng.integers(1, order + 1)))))
    return RationalTF(num, den)


def test_monic_normalization_and_properness():
    t = RationalTF((2.0,), (4.0, 2.0))
    assert t.den.coeffs == (2.0, 1.0)
    assert t.num.coeffs == (1.0,)
    with pytest.raises(InvalidParameterError):
        RationalTF((1.0, 1.0), (1.0,))
    with pytest.raises(InvalidParameterError):
        RationalTF((1.0,), (0.0,))


def test_sub_constant_from_integrator():
    # -2/(z-1) - 1 = (-z - 1)/(z - 1)
    out = tf_sub(integrator(2.0), constant_tf(1.0))
    assert tf_allclose(out, RationalTF((-1.0, -1.0), (-1.0, 1.0)), rtol=1e-14)


def test_mul_integrator_by_lag_gives_momentum_denominator():
    beta = 0.5
    out = tf_mul(integrator(1.0), RationalTF((0.0, 1.0), (-beta, 1.0)))
    expected = RationalTF((0.0, -1.0), (beta, -(1 + beta), 1.0))
    assert tf_allclose(out, expected, rtol=1e-14)


def test_add_zero_is_identity():
    t = RationalTF((0.3, -1.0), (0.25, -1.0, 1.0))
    assert tf_allclose(tf_add(t, constant_tf(0.0)), t, rtol=1e-14)


def test_reduce_cancels_shared_root():
    t = RationalTF((-1.0, 1.0), (0.5, -1.5, 1.0))  # (z-1)/((z-1)(z-0.5))
    out = tf_reduce(t)
    assert tf_allclose(out, RationalTF((1.0,), (-0.5, 1.0)), rtol=1e-9)


def test_reduce_leaves_irreducible_untouched():
    t = RationalTF((0.3, -1.0), (0.25, -1.0, 1.0))
    assert tf_reduce(t) is t


def test_reduce_tolerance_boundary():
    t = RationalTF((-0.5000000001, 1.0), (-0.5, 1.0))
    out = tf_reduce(t)
    assert out.den.degree == 0
    assert out.num.coeffs[0] == pytest.approx(1.0, abs=1e-8)


def test_arg_scale_examples():
    t = RationalTF((1.0,), (0.0, 1.0))  # 1/z
    scaled = tf_arg_scale(t, 0.9)
    assert scaled.den.coeffs == (0.0, 1.0)
    assert scaled.num.coeffs[0] == pytest.approx(1.0 / 0.9, rel=1e-15)

    kappa = 100.0
    t2 = RationalTF((1 + kappa,), (-kappa + 1, 2 * kappa))
    scaled2 = tf_arg_scale(t2, 0.8)
    assert tf_allclose(scaled2, RationalTF((1 + kappa,), (-kappa + 1, 2 * 0.8 * kappa)), rtol=1e-14)

    assert tf_allclose(tf_arg_scale(t2, 1.0), t2, rtol=1e-15)


def test_stability_radius_examples():
    assert stability_radius(RationalTF((1.0,), (0.0, 1.0))) == 0.0
    kappa = 100.0
    t = RationalTF((1 + kappa,), (-kappa + 1, 2 * kappa))
    assert stability_radius(t) == pytest.approx((kappa - 1) / (2 * kappa), abs=1e-14)
    t2 = RationalTF((1.0,), (0.5, -1.5, 1.0))
    assert stability_radius(t2) == pytest.approx(1.0, abs=1e-12)
    assert stability_radius(constant_tf(3.0)) == 0.0


def test_scaled_stability_matches_radius_predicate():
    rng = np.random.default_rng(5)
    for _ in range(30):
        t = _random_stable_tf(rng)
        rho = rng.uniform(0.05, 1.5)
        radius = stability_radius(t)
        scaled_stable = all(abs(p) < 1.0 for p in poles(tf_arg_scale(t, rho)))
        if abs(radius - rho) > 1e-9:  # away from the knife edge
            assert scaled_stable == (radius < rho)


def test_freq_response_gradient_at_nyquist():
    assert freq_response(integrator(1.0), 0.5) == pytest.approx(0.5, abs=1e-14)


def test_freq_response_magnitude_closed_form():
    alpha = 0.7
    for f in (0.03, 0.17, 0.42):
        mag = abs(freq_response(integrator(alpha), f))
        assert mag == pytest.approx(alpha / (2 * math.sin(math.pi * f)), rel=1e-12)


def test_freq_response_range_and_pole_flag():
    with pytest.raises(InvalidParameterError):
        freq_response(integrator(1.0), 0.0)
    with pytest.raises(InvalidParameterError):
        freq_response(integrator(1.0), 0.6)
    # pole exactly at z = -1 is sampled at Nyquist
    t = RationalTF((1.0,), (1.0, 1.0))
    assert math.isinf(abs(freq_response(t, 0.5)))


def test_freq_response_many_matches_scalar():
    t = RationalTF((0.3, -1.0), (0.25, -1.0, 1.0))
    fs = np.geomspace(1e-4, 0.5, 50)
    vals = freq_response_many(t, fs)
    for f, v in zip(fs, vals):
        assert abs(v - freq_response(t, float(f))) < 1e-12


def test_hinf_of_scaled_delay_is_inverse_rho():
    t = RationalTF((1.0,), (0.0, 1.0))
    for rho in (0.5, 0.8, 0.99):
        assert hinf_peak(tf_arg_scale(t, rho))[0] * rho == pytest.approx(1.0, abs=1e-9)


def test_hinf_of_constant():
    assert hinf_peak(constant_tf(-2.5))[0] == pytest.approx(2.5, abs=1e-12)


def test_hinf_peak_first_order_closed_form():
    kappa, rho = 100.0, 0.995
    t = RationalTF((1 + kappa,), (-kappa + 1, 2 * rho * kappa))
    norm, peak_f = hinf_peak(t)
    assert norm == pytest.approx((1 + kappa) / (2 * rho * kappa - kappa + 1), rel=1e-12)
    assert peak_f == pytest.approx(0.0, abs=1e-9)


def test_hinf_rejects_unstable():
    with pytest.raises(UnstableSystemError):
        hinf_peak(integrator(0.1))  # pole at z = 1


def test_hinf_dominates_random_samples():
    rng = np.random.default_rng(19)
    thetas = rng.uniform(0.0, 2 * math.pi, 100_000)
    zs = np.exp(1j * thetas)
    for _ in range(5):
        t = _random_stable_tf(rng)
        norm = hinf_peak(t)[0]
        mags = np.abs(
            np.polyval(t.num.coeffs[::-1], zs) / np.polyval(t.den.coeffs[::-1], zs)
        )
        assert norm >= np.max(mags) - 1e-9 * max(1.0, norm)


_DENSE = np.exp(1j * np.linspace(0.0, math.pi, 2**16 + 1))

# order 1..6: (modulus, angle) per conjugate pole pair, one real pole for an
# odd order, and numerator coefficients up to the order (multiples of 1e-3,
# so squared gains stay clear of underflow)
stable_systems = st.integers(min_value=1, max_value=6).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.99),
                       st.floats(min_value=0.0, max_value=math.pi)),
             min_size=n // 2, max_size=n // 2),
    st.lists(st.floats(min_value=-0.99, max_value=0.99), min_size=n % 2, max_size=n % 2),
    st.lists(st.integers(min_value=-2000, max_value=2000).map(lambda k: k / 1000.0),
             min_size=1, max_size=n + 1),
))


@settings(deadline=None)
@given(stable_systems)
def test_hinf_peak_against_dense_grid(system):
    pairs, real_poles, num = system
    pole_list = list(real_poles)
    for r, angle in pairs:
        pole_list += [cmath.rect(r, angle), cmath.rect(r, -angle)]
    t = RationalTF(Polynomial(tuple(num)), poly_from_roots(pole_list))
    peak, f = hinf_peak(t)
    den = np.polyval(t.den.coeffs[::-1], _DENSE)
    grid = np.abs(np.polyval(t.num.coeffs[::-1], _DENSE) / den)
    # the level test resolves gains to about eps * cond^2 (see lti)
    cond = sum(abs(c) for c in t.den.coeffs) / np.min(np.abs(den))
    tol = 1e-12 + 4.0 * np.finfo(float).eps * cond**2
    # no grid point above the peak, and the peak attained where reported
    assert np.max(grid) <= peak * (1.0 + tol)
    z = cmath.exp(2j * math.pi * f)
    attained = abs(np.polyval(t.num.coeffs[::-1], z) / np.polyval(t.den.coeffs[::-1], z))
    assert attained == pytest.approx(peak, rel=tol)
    if peak > 0.0:
        assert gain_reaches(t, peak * (1.0 - 10.0 * tol))
        assert not gain_reaches(t, peak * (1.0 + 10.0 * tol))


def test_realize_gradient_impulse():
    ss = realize(integrator(0.1))
    assert ss.order == 1
    h = ss.impulse(6)
    assert h[0] == 0.0
    assert np.allclose(h[1:], -0.1, atol=1e-15)


def test_realize_momentum_matches_long_division():
    t = RationalTF((0.0, -1.0), (0.5, -1.5, 1.0))
    ss = realize(t)
    assert ss.order == 2
    assert np.max(np.abs(ss.impulse(50) - impulse_series(t, 50))) < 1e-9


def test_realize_constant_has_order_zero():
    ss = realize(constant_tf(2.0))
    assert ss.order == 0
    assert ss.D[0, 0] == 2.0
    assert ss.impulse(4)[0] == 2.0


def test_realize_biproper_direct_term():
    t = RationalTF((-0.5, 1.0), (-1.0, 1.0))  # (z - 0.5)/(z - 1)
    ss = realize(t)
    assert ss.D[0, 0] == pytest.approx(1.0)
    assert verify_realization(t, ss)


def test_verify_realization_on_random_systems():
    rng = np.random.default_rng(23)
    for _ in range(20):
        t = _random_stable_tf(rng)
        assert verify_realization(t, realize(t))
