import cmath
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopshift import (
    FactorForm,
    Family,
    InvalidParameterError,
    MethodSpec,
    RationalTF,
    build_controller,
    freq_response,
    poly_roots,
    tf_arg_scale,
)
from loopshift.lti import (LEVEL_RTOL, _arg_scaled, _chebyshev_roots, _circle_gains,
                           _colleague_template, _gain_series, _level_crossings, climb_to_peak)
from loopshift.simulate import _feedback_matrices

from helpers import (
    UnstableSystemError,
    constant_tf,
    gain_reaches,
    hinf_peak,
    impulse,
    impulse_series,
    poly_from_roots,
    reference_climb_to_peak,
    reference_level_crossings,
    tf_allclose,
    verify_realization,
)


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
    num = rng.uniform(-2.0, 2.0, int(rng.integers(1, order + 1)))
    return RationalTF(num, den)


def test_monic_normalization_and_properness():
    t = RationalTF((2.0,), (4.0, 2.0))
    assert t.den == (2.0, 1.0)
    assert t.num == (1.0,)
    with pytest.raises(InvalidParameterError):
        RationalTF((1.0, 1.0), (1.0,))
    with pytest.raises(InvalidParameterError):
        RationalTF((1.0,), (0.0,))


@pytest.mark.parametrize("num, den", [
    (("1.5",), (1.0,)),
    ((1.0,), (True, 1.0)),
    ((1.0,), (np.bool_(True), 1.0)),
    ((1j,), (1.0,)),
    ((1.0,), (np.complex128(0.5), 1.0)),
    ((1.0,), (b"0.5", 1.0)),
])
def test_rejects_coefficients_that_are_not_real_numbers(num, den):
    # transfer functions and polynomials share one coefficient conversion
    for build in (RationalTF, lambda a, b: poly_roots(a + b)):
        with pytest.raises(InvalidParameterError):
            build(num, den)


@pytest.mark.parametrize("build", [
    # dividing by the tiny leading coefficient overflows
    lambda: RationalTF((1.0,), (1.0, 1e-320)),
    lambda: RationalTF((1.0,), (math.inf, 1.0)),
    # rho**3 overflows, and every scaled coefficient comes out nan
    lambda: tf_arg_scale(RationalTF((0.1888,), (-0.00029, 0.8605, -0.00053, 1.0)), 1e300),
], ids=["overflow", "inf", "scaled-nan"])
def test_rejects_coefficients_that_are_not_finite(build):
    with pytest.raises(InvalidParameterError, match="must be finite"):
        build()


def test_real_number_types_convert_to_floats():
    t = RationalTF((1, np.float64(0.5)), (np.int64(2), np.float32(4.0)))
    assert t == RationalTF((0.25, 0.125), (0.5, 1.0))
    assert all(type(c) is float for c in t.num + t.den)


def test_mul_integrator_by_lag_gives_momentum_denominator():
    beta = 0.5
    # the integrator -1/(z-1) times the lag z/(z-beta)
    out = FactorForm(-1.0, beta, 0.0, 1.0).product()
    expected = RationalTF((0.0, -1.0), (beta, -(1 + beta), 1.0))
    assert tf_allclose(out, expected, rtol=1e-14)


def test_arg_scale_examples():
    t = RationalTF((1.0,), (0.0, 1.0))  # 1/z
    scaled = tf_arg_scale(t, 0.9)
    assert scaled.den == (0.0, 1.0)
    assert scaled.num[0] == pytest.approx(1.0 / 0.9, rel=1e-15)

    kappa = 100.0
    t2 = RationalTF((1 + kappa,), (-kappa + 1, 2 * kappa))
    scaled2 = tf_arg_scale(t2, 0.8)
    assert tf_allclose(scaled2, RationalTF((1 + kappa,), (-kappa + 1, 2 * 0.8 * kappa)), rtol=1e-14)

    assert tf_allclose(tf_arg_scale(t2, 1.0), t2, rtol=1e-15)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=7),
       st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=0, max_size=6),
       st.floats(min_value=math.log(5e-324), max_value=math.log(1.7e308)).map(
           lambda u: max(math.exp(u), 5e-324)))
# rho**2 underflows to 0 and rho**3 overflows: the scaling once dropped
# the denominator's top coefficient, or returned NaN coefficients
@example([1.0], [0.5, -1.5], 1e-170)
@example([0.1888], [-0.00029, 0.8605, -0.00053], 1e300)
def test_scaling_keeps_the_denominator_degree_or_raises(num, den, rho):
    assume(len(num) <= len(den) + 1)
    t = RationalTF(tuple(num), tuple(den) + (1.0,))
    try:
        scaled_num, scaled_den = _arg_scaled(t, rho)
    except InvalidParameterError as exc:
        assert "underflows to 0" in str(exc) or "must be finite" in str(exc)
        return
    assert len(scaled_den) == t.order + 1 and scaled_den[-1] == 1.0
    assert len(scaled_num) <= len(scaled_den)


@pytest.mark.parametrize("rho", [0.0, -0.5, math.inf, math.nan])
def test_arg_scale_rejects_a_scale_that_is_not_positive(rho):
    with pytest.raises(InvalidParameterError, match="argument scale"):
        tf_arg_scale(RationalTF((1.0,), (-0.5, 1.0)), rho)


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
            np.polyval(t.num[::-1], zs) / np.polyval(t.den[::-1], zs)
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
    t = RationalTF(num, poly_from_roots(pole_list))
    peak, f = hinf_peak(t)
    den = np.polyval(t.den[::-1], _DENSE)
    grid = np.abs(np.polyval(t.num[::-1], _DENSE) / den)
    # the level test resolves gains to about eps * cond^2 (see lti)
    cond = sum(abs(c) for c in t.den) / np.min(np.abs(den))
    tol = 1e-12 + 4.0 * np.finfo(float).eps * cond**2
    # no grid point above the peak, and the peak attained where reported
    assert np.max(grid) <= peak * (1.0 + tol)
    z = cmath.exp(2j * math.pi * f)
    attained = abs(np.polyval(t.num[::-1], z) / np.polyval(t.den[::-1], z))
    assert attained == pytest.approx(peak, rel=tol)
    if peak > 0.0:
        assert gain_reaches(t, peak * (1.0 - 10.0 * tol))
        assert not gain_reaches(t, peak * (1.0 + 10.0 * tol))


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=-1e8, max_value=1e8), min_size=1, max_size=7),
       st.integers(min_value=1, max_value=8))
# sum() of floats is compensated since Python 3.12: 1e16 + 2 there, 1e16 here
@example([1e8, 1.0, 1.0], 1)
def test_gain_series_sums_left_to_right_from_zero(c, size):
    want = []
    for k in range(size):
        acc = 0.0
        for i in range(len(c) - k):
            acc += c[i] * c[i + k]
        want.append(acc if k == 0 else 2.0 * acc)
    assert [x.hex() for x in _gain_series(tuple(c), size)] == [x.hex() for x in want]


# order 1..6: per conjugate pole pair its distance 1e-6..0.1 from the unit
# circle and its angle, real poles of modulus at most 0.99 for the rest of
# the order, numerator coefficients up to the order, and L of S(1, L), whose
# threshold (L+1)/(L-1) runs from 41 down to 1.1; then a polynomial of
# degree 3..8
resonant_systems = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.integers(min_value=0, max_value=n // 2).flatmap(lambda k: st.tuples(
        st.lists(st.tuples(st.floats(min_value=-6.0, max_value=-1.0).map(lambda e: 10.0**e),
                           st.floats(min_value=0.0, max_value=math.pi)),
                 min_size=k, max_size=k),
        st.lists(st.floats(min_value=-0.99, max_value=0.99),
                 min_size=n - 2 * k, max_size=n - 2 * k),
        st.lists(st.integers(min_value=-2000, max_value=2000).map(lambda j: j / 1000.0),
                 min_size=1, max_size=n + 1),
        st.floats(min_value=1.05, max_value=20.0),
    )))
companion_polys = st.lists(st.integers(min_value=-5000, max_value=5000).map(lambda j: j / 1000.0),
                           min_size=4, max_size=9).filter(lambda c: c[-1] != 0.0)


def _bits(crossing):
    return [x.hex() for x in crossing[:3]]


@settings(deadline=None, max_examples=200)
@given(resonant_systems, companion_polys)
# den(1) rounds to 0, so the gain at the threshold is infinite
@example(([(1e-05, 0.0), (0.001, 0.0)], [], [0.0], 2.0), [0.0, 0.0, 0.0, 0.001])
# den(1) rounds to about 1e-308, so the reference's gain, 9e304, is a level
# whose series overflows
@example(([(1e-05, 0.0), (0.001, 0.0)], [0.0, 1.1125369292536007e-308], [0.001], 2.0),
         [0.0, 0.0, 0.0, 0.001])
def test_level_test_and_roots_equal_the_numpy_reference(system, p):
    pairs, real_poles, num, L = system
    poles = [complex(x) for x in real_poles]
    for gap, angle in pairs:
        poles += [cmath.rect(1.0 - gap, angle), cmath.rect(1.0 - gap, -angle)]
    t = RationalTF(num, poly_from_roots(poles))
    g = _circle_gains(t.num, t.den)
    threshold = (L + 1.0) / (L - 1.0)
    gain = reference_level_crossings(g, threshold).gain
    for level in (threshold, 1.0, gain, gain * (1.0 + 1e-12), gain * (1.0 - 1e-12)):
        got, want = _level_crossings(g, level), reference_level_crossings(g, level)
        level2 = level * level
        if all(math.isfinite(a - level2 * b) for a, b in zip(g.num_series, g.den_series)):
            assert _bits(got) == _bits(want)
            # by bits: a climb onto a level whose series overflows ends at
            # (inf, nan) on both sides
            assert _bits(climb_to_peak(got)) == _bits(reference_climb_to_peak(want))
        else:
            # the level series overflows, as an infinite level's always does:
            # an infinite gain at a NaN angle
            assert got.gain == want.gain == math.inf and got.reaches
            assert math.isnan(got.theta) and math.isnan(want.theta)
            peak, f = climb_to_peak(got)
            assert peak == reference_climb_to_peak(want)[0] == math.inf and math.isnan(f)
    # poly_roots' companion matrix, in np.roots' layout, through the wrapper
    comp = np.eye(len(p) - 1, k=-1)
    comp[0] = -np.asarray(p[-2::-1]) / p[-1]
    assert poly_roots(p) == [complex(r) for r in np.linalg.eigvals(comp)]


chebyshev_series = st.integers(min_value=3, max_value=8).flatmap(
    lambda n: st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=n + 1, max_size=n + 1))


@settings(max_examples=300)
@given(chebyshev_series)
def test_colleague_roots_equal_the_array_construction(c):
    # the colleague column as a numpy array, divided in numpy, through
    # np.linalg.eigvals: the same matrix and gufunc, so the same eigenvalues
    n = max((k for k, ck in enumerate(c) if abs(ck) > LEVEL_RTOL * max(map(abs, c))), default=0)
    assume(n >= 3)
    colleague = _colleague_template(n).copy()
    colleague[:, 0] -= np.array(c[n - 1::-1]) / (2.0 * c[n])
    assert _chebyshev_roots(c) == [complex(r) for r in np.linalg.eigvals(colleague)]
    # trailing coefficients within LEVEL_RTOL of the largest are dropped
    assert _chebyshev_roots(c + [1e-17 * max(map(abs, c)), 0.0]) == _chebyshev_roots(c)


@pytest.mark.parametrize("c", [[1.0, math.nan, 1.0, 1.0], [1.0, 2.0, 3.0, math.nan, 0.5]])
def test_colleague_rejects_a_column_that_is_not_finite(c):
    with pytest.raises(np.linalg.LinAlgError):
        _chebyshev_roots(c)


def test_overflowing_level_series_reads_as_infinite_gain():
    # 1e154 (z^4 - 1)/z^4 peaks at 2e154: |num|^2's series overflows, every
    # root was dropped, and only x = +-1, 0, where the gain is 0, were read
    crossing = _level_crossings(_circle_gains((-1e154, 0.0, 0.0, 0.0, 1e154),
                                              (0.0, 0.0, 0.0, 0.0, 1.0)), 2.0)
    assert crossing.gain == math.inf and crossing.reaches
    peak, f = climb_to_peak(crossing)
    assert peak == math.inf and math.isnan(f)


_GRID = [mpmath.pi * i / 256 for i in range(257)]


@settings(deadline=None, max_examples=60)
@given(stable_systems, st.integers(min_value=0, max_value=160),
       st.floats(min_value=0.5, max_value=2.0))
@example(([(0.0, 0.0), (0.0, 0.0)], [], [-1.0, 0.0, 0.0, 0.0, 1.0]), 154, 0.9)
def test_large_gains_never_pass_below_a_level_they_reach(system, k, factor):
    # the numerator scaled by 10^k: |num|^2 or level^2 |den|^2 overflows a
    # float from about k = 154, where a level test must still reach
    pairs, real_poles, num = system
    assume(any(num))
    poles = list(real_poles)
    for r, angle in pairs:
        poles += [cmath.rect(r, angle), cmath.rect(r, -angle)]
    t = RationalTF([c * 10.0**k for c in num], poly_from_roots(poles))
    with mpmath.workdps(30):
        n = [mpmath.mpf(c) for c in reversed(t.num)]
        d = [mpmath.mpf(c) for c in reversed(t.den)]
        zs = [mpmath.expj(theta) for theta in _GRID]
        dens = [mpmath.polyval(d, z) for z in zs]
        grid_peak = float(max(abs(mpmath.polyval(n, z) / dz) for z, dz in zip(zs, dens)))
        cond = sum(abs(c) for c in t.den) / float(min(map(abs, dens)))
    level = factor * grid_peak
    # the level test resolves gains to about eps * cond^2 (see lti)
    tol = 1e-12 + 4.0 * np.finfo(float).eps * cond**2
    if grid_peak >= level * (1.0 + tol):
        assert _level_crossings(_circle_gains(t.num, t.den), level).reaches


def test_pole_on_the_circle_reads_as_infinite_gain():
    # 1/(z - 1) has its pole at z = 1, the point x = 1 of the level test
    crossing = _level_crossings(_circle_gains((1.0,), (-1.0, 1.0)), 10.0)
    assert crossing.gain == math.inf and crossing.theta == 0.0
    assert crossing.reaches
    assert climb_to_peak(crossing) == (math.inf, 0.0)


def test_realize_gradient_impulse():
    matrices = _feedback_matrices(build_controller(MethodSpec(Family.GRADIENT, alpha=0.1)))
    assert [m.shape for m in matrices] == [(1, 1), (1,)]
    h = impulse(*matrices, 6)
    assert h[0] == 0.0
    assert np.allclose(h[1:], -0.1, atol=1e-15)


def test_realize_momentum_matches_long_division():
    t = RationalTF((0.0, -1.0), (0.5, -1.5, 1.0))
    matrices = _feedback_matrices(t)
    assert matrices[0].shape == (2, 2)
    assert np.max(np.abs(impulse(*matrices, 50) - impulse_series(t, 50))) < 1e-9


def test_verify_realization_on_random_systems():
    # strictly proper controllers with integral action: a pole at z = 1
    # times a random stable denominator
    rng = np.random.default_rng(23)
    for _ in range(20):
        stable = _random_stable_tf(rng)
        t = RationalTF(stable.num, P.polymul(stable.den, (-1.0, 1.0)))
        assert verify_realization(t, *_feedback_matrices(t))


