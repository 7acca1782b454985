import cmath
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from loopshift import (
    Family,
    InvalidParameterError,
    MethodSpec,
    RationalTF,
    bode_csv_text,
    bode_svg_text,
    bode_table,
    build_controller,
    crossover_frequency,
    freq_response,
    gain_metrics,
    poly_eval,
)

from helpers import constant_tf


def integrator(alpha):
    return RationalTF((-alpha,), (-1.0, 1.0))


def test_gradient_row_at_nyquist():
    rows = bode_table(integrator(1.0))
    assert rows[-1].f_hz == 0.5
    assert rows[-1].mag_db == pytest.approx(20 * math.log10(0.5), abs=1e-10)


def test_integrator_low_end_small_angle():
    alpha, f_min = 0.3, 1e-4
    rows = bode_table(integrator(alpha), f_min=f_min, n=10)
    expected = 20 * math.log10(alpha / (2 * math.pi * f_min))
    assert rows[0].mag_db == pytest.approx(expected, abs=1e-3)


def test_table_with_two_points_is_endpoints_only():
    rows = bode_table(integrator(1.0), f_min=1e-3, n=2)
    assert [r.f_hz for r in rows] == [1e-3, 0.5]


def test_table_validates_inputs():
    with pytest.raises(InvalidParameterError):
        bode_table(integrator(1.0), f_min=0.6)
    with pytest.raises(InvalidParameterError):
        bode_table(integrator(1.0), n=1)


@pytest.mark.parametrize("curves, match", [
    (lambda: [], "at least one curve"),
    # a zero gain has no finite magnitude in dB, and no phase to unwrap
    (lambda: [("zero", bode_table(RationalTF((0.0,), (1.0,)), n=4))], "no finite magnitudes"),
], ids=["no-curves", "zero-gain"])
def test_svg_input_checks_raise(curves, match):
    with pytest.raises(InvalidParameterError, match=match):
        bode_svg_text(curves())


def test_pole_on_sampled_point_flags_infinite_row():
    t = RationalTF((1.0,), (1.0, 1.0))  # pole at z = -1, sampled at Nyquist
    rows = bode_table(t, n=16)
    assert rows[-1].infinite
    assert math.isinf(rows[-1].mag_db)
    assert math.isnan(rows[-1].phase_deg)


def test_phase_principal_range_and_unwrapped_column():
    rows = bode_table(build_controller(MethodSpec(Family.HEAVY_BALL, alpha=1.0, beta=0.5)), n=200)
    for row in rows:
        assert -180.0 < row.phase_deg <= 180.0
    unwrapped = np.array([r.phase_unwrapped_deg for r in rows])
    assert np.all(np.abs(np.diff(unwrapped)) < 180.0)


def test_magnitude_symmetric_under_conjugation():
    t = build_controller(MethodSpec(Family.NESTEROV, alpha=0.4, beta=0.3))
    for f in (0.05, 0.2, 0.45):
        z = complex(math.cos(2 * math.pi * f), math.sin(2 * math.pi * f))
        up = abs(poly_eval(t.num, z) / poly_eval(t.den, z))
        down = abs(poly_eval(t.num, z.conjugate()) / poly_eval(t.den, z.conjugate()))
        assert up == pytest.approx(down, rel=1e-12)


def _numpy_table(tf, f_min, n):
    """The table as a numpy-vectorised pass computes it, independently of
    ``freq_response``: frequencies, gains in dB and unwrapped phases in
    degrees, nan where the gain is zero or not finite."""
    fs = np.geomspace(f_min, 0.5, n)
    fs[0], fs[-1] = f_min, 0.5
    zs = np.exp(2j * np.pi * fs)
    zs[-1] = -1.0
    with np.errstate(all="ignore"):
        values = np.polyval(tf.num[::-1], zs) / np.polyval(tf.den[::-1], zs)
        mags = np.abs(values)
        mag_db = np.where(np.isfinite(mags), 20.0 * np.log10(mags), np.inf)
    finite = np.isfinite(mags) & (mags > 0.0)
    unwrapped = np.full(n, math.nan)
    unwrapped[finite] = np.degrees(np.unwrap(np.angle(values[finite])))
    return fs, mag_db, unwrapped


REFERENCE_SYSTEMS = {
    "gradient": integrator(1.0),
    "gradient-fast": integrator(1.9802),
    "heavy-ball": build_controller(MethodSpec(Family.HEAVY_BALL, alpha=1.0, beta=0.5)),
    "nesterov": build_controller(MethodSpec(Family.NESTEROV, alpha=0.4, beta=0.3)),
    # a resonant pair 0.01 inside the circle: a steep phase drop near f = 0.1
    "resonance": RationalTF((0.3, -1.0), (0.99 ** 2, -2 * 0.99 * math.cos(0.2 * math.pi), 1.0)),
    # z^-5 and (z - 0.5)^-6: the phase wraps several times
    "delay": RationalTF((1.0,), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)),
    "six-poles": RationalTF((0.01,), tuple(P.polyfromroots([0.5] * 6))),
    "pole-at-nyquist": RationalTF((1.0,), (1.0, 1.0)),
    "zero-at-nyquist": RationalTF((1.0, 1.0), (-0.5, 1.0)),
    "zero-gain": RationalTF((0.0,), (1.0,)),
}


def test_bode_table_rows_match_scalar_freq_response():
    for name, tf in REFERENCE_SYSTEMS.items():
        rows = bode_table(tf, 1e-4, 500)
        for row in rows:
            # each row is freq_response at its frequency, bit for bit
            value = freq_response(tf, row.f_hz)
            mag = math.hypot(value.real, value.imag)
            if 0.0 < mag < math.inf:
                phase = math.degrees(cmath.phase(value))
                assert row.mag_db == 20.0 * math.log10(mag), name
                assert row.phase_deg == (phase + 360.0 if phase <= -180.0 else phase), name
            else:
                assert row.mag_db == (-math.inf if mag == 0.0 else math.inf), name
                assert math.isnan(row.phase_deg), name
        fs, mag_db, unwrapped = _numpy_table(tf, 1e-4, 500)
        np.testing.assert_allclose([r.f_hz for r in rows], fs, rtol=1e-15, atol=0.0, err_msg=name)
        got_db = np.array([r.mag_db for r in rows])
        finite = np.isfinite(mag_db)
        assert np.array_equal(got_db[~finite], mag_db[~finite]), name
        assert np.all(np.abs(got_db[finite] - mag_db[finite])
                      <= 1e-12 * np.maximum(1.0, np.abs(mag_db[finite]))), name
        # the same branch as the reference, not just the same angle
        np.testing.assert_allclose([r.phase_unwrapped_deg for r in rows], unwrapped,
                                   rtol=0.0, atol=1e-9, err_msg=name)


def test_product_table_is_db_sum_of_factor_tables():
    a = integrator(0.7)
    b = RationalTF((0.0, 1.0), (-0.4, 1.0))
    rows_ab = bode_table(RationalTF(P.polymul(a.num, b.num), P.polymul(a.den, b.den)), n=64)
    rows_a = bode_table(a, n=64)
    rows_b = bode_table(b, n=64)
    for ra, rb, rab in zip(rows_a, rows_b, rows_ab):
        assert rab.mag_db == pytest.approx(ra.mag_db + rb.mag_db, abs=1e-8)
        phase_sum = (ra.phase_deg + rb.phase_deg + 180.0) % 360.0 - 180.0
        diff = abs(rab.phase_deg - phase_sum) % 360.0
        assert min(diff, 360.0 - diff) < 1e-8


def test_gradient_tuning_gap_is_pure_gain():
    m, L = 0.01, 1.0
    opt = bode_table(integrator(2.0 / (L + m)), n=50)
    std = bode_table(integrator(1.0 / L), n=50)
    gap = 20 * math.log10(2 * L / (L + m))
    for a, b in zip(opt, std):
        assert a.mag_db - b.mag_db == pytest.approx(gap, abs=1e-10)


def test_crossover_closed_forms():
    # |K| = alpha / (2 sin(pi f)) crosses 1 where 2 sin(pi f) = alpha
    fc = crossover_frequency(integrator(1.0))
    assert fc == pytest.approx(1.0 / 6.0, abs=1e-6)
    alpha = 2.0 / 1.01
    fc = crossover_frequency(integrator(alpha))
    assert fc == pytest.approx(math.asin(alpha / 2.0) / math.pi, abs=1e-6)
    fc = crossover_frequency(integrator(0.01))
    assert fc == pytest.approx(math.asin(0.005) / math.pi, abs=1e-6)


def test_crossover_none_when_gain_below_one():
    assert crossover_frequency(constant_tf(0.5)) is None


@pytest.mark.parametrize("den", [(49.5, 1.0), (-49.5, 1.0)])
def test_crossover_none_when_gain_touches_one_at_the_ends(den):
    # |50.5 / (z +- 49.5)| is 1 at f = 0 (or 0.5) and above 1 elsewhere
    assert crossover_frequency(RationalTF((50.5,), den)) is None


def test_crossover_of_a_gain_whose_square_overflows():
    # |N|^2's series for num = 1e160 (1.5 + z) overflowed, and the crossing
    # of |K| ~ |1.5 + z| = 1 was lost; mpmath finds it at 60 digits
    k = RationalTF((1.5e160, 1e160), (1e160, 1.0))

    def excess(f):
        z = mpmath.expj(2 * mpmath.pi * f)
        return abs((mpmath.mpf(1.5e160) + mpmath.mpf(1e160) * z) / (mpmath.mpf(1e160) + z)) - 1

    with mpmath.workdps(60):
        want = float(mpmath.findroot(excess, 0.385))
    assert abs(crossover_frequency(k) - want) <= 1e-15
    assert gain_metrics(k).crossover_hz == crossover_frequency(k)


def test_crossover_smallest_of_several():
    # |K| = 0.3 / |z^2 - 1.9 cos(0.6) z + 0.9025| is below 1 at f = 0 and
    # 0.5 and above it around the resonance at theta = 0.6: the first of the
    # two crossings, against a dense grid
    k = RationalTF((0.3,), (0.9025, -1.9 * math.cos(0.6), 1.0))
    fs = np.linspace(1e-6, 0.5, 1 << 16)
    above = np.abs(np.polyval([0.3], np.exp(2j * np.pi * fs))
                   / np.polyval([1.0, -1.9 * math.cos(0.6), 0.9025], np.exp(2j * np.pi * fs))) > 1
    first = fs[np.argmax(above != above[0])]
    assert crossover_frequency(k) == pytest.approx(first, abs=1e-5)


def test_gain_metrics_integrator_slope():
    metrics = gain_metrics(integrator(0.1))
    assert metrics.crossover_hz == pytest.approx(math.asin(0.05) / math.pi, abs=1e-6)
    assert metrics.slope_at_crossover_db_per_decade == pytest.approx(-20.0, abs=1.0)
    assert metrics.low_gain_db > metrics.high_gain_db


def test_gain_metrics_without_crossover():
    metrics = gain_metrics(constant_tf(0.2))
    assert metrics.slope_at_crossover_db_per_decade is None
    assert metrics.crossover_hz is None


def test_gain_metrics_read_an_overflowing_gain_as_infinite():
    # |K| at f = 1e-3 overflows: abs() of the response raised OverflowError
    metrics = gain_metrics(RationalTF((1.5e308, 1.5e308), (0.0, 1.0)))
    assert metrics.low_gain_db == math.inf


def test_lag_factor_boost_and_attenuation():
    beta = 9.0 / 11.0
    lag = RationalTF((0.0, 1.0), (-beta, 1.0))
    boost = abs(freq_response(lag, 1e-4))
    assert boost == pytest.approx(1.0 / (1.0 - beta), rel=0.05)
    atten = abs(freq_response(lag, 0.5))
    assert atten == pytest.approx(1.0 / (1.0 + beta), rel=0.05)


def test_csv_text_layout():
    rows = bode_table(integrator(1.0), n=4)
    text = bode_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "f_hz,mag_db,phase_deg,phase_unwrapped_deg"
    assert len(lines) == 5
    assert len(lines[1].split(",")) == 4


def test_svg_is_deterministic_and_self_contained():
    curves = [
        ("gradient(alpha=1)", bode_table(integrator(1.0), n=40)),
        ("gradient(alpha=0.5)", bode_table(integrator(0.5), n=40)),
    ]
    svg1 = bode_svg_text(curves)
    svg2 = bode_svg_text(curves)
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert svg1.count("<polyline") == 2
    assert "gradient(alpha=1)" in svg1
    assert "http" not in svg1.replace("http://www.w3.org/2000/svg", "")
    # one flat curve: its dB range is empty and widens to one 10 dB step
    flat = bode_svg_text([("flat", bode_table(RationalTF((1.0,), (1.0,))))])
    assert flat == (Path(__file__).resolve().parent / "golden" / "bode-flat.svg").read_text()
