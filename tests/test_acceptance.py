"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are fixed here and match the library's contracts.
"""

import math
import time

import numpy as np

from loopshift import (
    Family,
    InsufficientDataError,
    MethodSpec,
    NoCertificateError,
    PiecewiseLinearOracle,
    QuadraticOracle,
    RationalTF,
    SectorClass,
    bisect_rate,
    build_controller,
    certified_rate_curve,
    complementary_sensitivity,
    crossover_frequency,
    estimate_rate,
    factor_controller,
    freq_response,
    gain_metrics,
    loop_shift,
    noise_robustness_experiment,
    preset,
    random_rotation,
    search_stepsize,
    simulate_run,
    simulate_shifted_run,
    tf_arg_scale,
)
from loopshift.cli import main as cli_main
from loopshift.simulate import RESIDUAL_FLOOR

from helpers import tf_allclose


def _report(criterion, description, ok):
    print(f"\n[acceptance] criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


SECTORS = [(1.0, 10.0), (0.01, 1.0), (1.0, 100.0)]


def test_criterion_01_rate_recovery_optimal_sector_stepsize():
    start = time.perf_counter()
    errors = []
    for m, L in SECTORS:
        sector = SectorClass(m, L)
        spec = preset(Family.GRADIENT, m, L, "optimal_sector")
        rho = bisect_rate(spec, sector).rho_star
        errors.append(abs(rho - (L - m) / (L + m)))
    elapsed = time.perf_counter() - start
    ok = max(errors) <= 1e-4 and elapsed < 1.0
    _report(1, f"optimal-sector stepsize rates within {max(errors):.2e} "
               f"of (L-m)/(L+m) in {elapsed:.3f}s", ok)


def test_criterion_02_rate_recovery_standard_stepsize():
    errors = []
    for m, L in SECTORS:
        sector = SectorClass(m, L)
        spec = preset(Family.GRADIENT, m, L, "standard")
        rho = bisect_rate(spec, sector).rho_star
        errors.append(abs(rho - (1.0 - m / L)))
    ok = max(errors) <= 1e-4
    _report(2, f"standard stepsize rates within {max(errors):.2e} of 1 - 1/kappa", ok)


def test_criterion_03_exact_shift_identity():
    worst = 0.0
    for m, L in SECTORS:
        sector = SectorClass(m, L)
        spec = preset(Family.GRADIENT, m, L, "optimal_sector")
        shifted = loop_shift(build_controller(spec), sector)
        num = shifted.num + (0.0,) * (2 - len(shifted.num))
        den = shifted.den + (0.0,) * (2 - len(shifted.den))
        worst = max(worst, abs(num[0] - 1.0), abs(num[1]), abs(den[0]), abs(den[1] - 1.0))
    ok = worst <= 1e-12
    _report(3, f"loop shift at alpha=2/(m+L) equals 1/z to {worst:.2e}", ok)


def test_criterion_04_certified_rate_curve_matches_closed_form():
    m, L = 1.0, 10.0
    sector = SectorClass(m, L)
    alphas = [(i + 1) * (2.0 / L) / 101.0 for i in range(100)]
    rows = certified_rate_curve(sector, alphas)
    sup_err = 0.0
    ok = True
    for alpha, rho in rows:
        closed = max(1.0 - alpha * m, alpha * L - 1.0)
        if closed >= 1.0:
            ok = ok and rho is None
        else:
            ok = ok and rho is not None
            sup_err = max(sup_err, abs(rho - closed))
    ok = ok and sup_err < 1e-5
    beyond = certified_rate_curve(sector, [2.0 / L, 0.21])
    ok = ok and all(rho is None for _, rho in beyond)
    _report(4, f"100-point stepsize curve within {sup_err:.2e} of "
               "max(1-alpha*m, alpha*L-1); uncertified iff the closed form >= 1", ok)


def test_criterion_05_stepsize_search():
    start = time.perf_counter()
    alpha, rho = search_stepsize(SectorClass(1.0, 10.0))
    elapsed = time.perf_counter() - start
    ok = abs(alpha - 2.0 / 11.0) <= 1e-4 and abs(rho - 9.0 / 11.0) <= 1e-4 and elapsed < 2.0
    _report(5, f"stepsize search -> alpha={alpha:.6f}, rho={rho:.6f} in {elapsed:.3f}s", ok)


def _soundness_oracles(sector):
    m, L = sector.m, sector.L
    mid = 0.5 * (m + L)
    return [
        QuadraticOracle([m, L]),
        QuadraticOracle([m, mid, L], rotation=random_rotation(3, 7)),
        QuadraticOracle([m, m]),
        QuadraticOracle([m, 2.5]),
        QuadraticOracle([m, 4.0, 7.0, L]),
        PiecewiseLinearOracle([0.0], [m]),
        PiecewiseLinearOracle([0.0, 1.0], [m, L]),
        PiecewiseLinearOracle([0.0, 0.5, 1.5], [m, L, 2.0]),
    ]


def _empirical_rate(traj):
    """Fitted rate; falls back to the geometric-mean rate down to the floor
    when the trajectory outruns the fit window."""
    try:
        return estimate_rate(traj).rho_hat
    except InsufficientDataError:
        r = traj.residuals
        above = np.nonzero(r > RESIDUAL_FLOOR)[0]
        k = int(above[-1])
        if k == 0:
            return 0.0
        return float((r[k] / r[0]) ** (1.0 / k))


def test_criterion_06_soundness_sweep():
    start = time.perf_counter()
    sector = SectorClass(1.0, 10.0)
    methods = [
        preset(Family.GRADIENT, sector.m, sector.L, "standard"),
        preset(Family.GRADIENT, sector.m, sector.L, "optimal_sector"),
        preset(Family.NESTEROV, sector.m, sector.L),
        MethodSpec(Family.HEAVY_BALL, alpha=2.0 / 11.0, beta=0.2),
    ]
    checked, skipped = 0, 0
    worst_gap = -math.inf
    ok = True
    for spec in methods:
        try:
            rho_star = bisect_rate(spec, sector).rho_star
        except NoCertificateError:
            print(f"\n[acceptance]   {spec.label}: no certificate, skipped")
            skipped += 1
            continue
        for oracle in _soundness_oracles(sector):
            x0 = oracle.xstar + 1.0
            traj = simulate_run(spec, oracle, x0, 500)
            rho_hat = _empirical_rate(traj)
            worst_gap = max(worst_gap, rho_hat - rho_star)
            ok = ok and rho_hat <= rho_star + 0.01
            checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0 and checked > 0
    _report(6, f"soundness over {checked} certified runs ({skipped} methods "
               f"uncertified/skipped), worst rho_hat - rho_star = {worst_gap:.3g}, "
               f"{elapsed:.1f}s", ok)


def test_criterion_07_exact_quadratic_rate():
    oracle = QuadraticOracle([1.0, 10.0])
    spec = MethodSpec(Family.GRADIENT, alpha=2.0 / 11.0)
    traj = simulate_run(spec, oracle, [1.0, 1.0], 100)
    worst = 0.0
    for k in range(101):
        expected = (9.0 / 11.0) ** k
        worst = max(worst, abs(traj.residuals[k] / traj.residuals[0] - expected) / expected)
    ok = worst < 1e-9
    _report(7, f"residuals track (9/11)^k with max relative error {worst:.2e}", ok)


def test_criterion_08_shifted_interconnection_equivalence():
    rng = np.random.default_rng(2024)
    sector = SectorClass(1.0, 10.0)
    worst = 0.0
    families = (Family.GRADIENT, Family.HEAVY_BALL, Family.NESTEROV, Family.PID)
    for trial in range(16):
        family = families[trial % 4]
        if family is Family.GRADIENT:
            spec = MethodSpec(family, alpha=float(rng.uniform(0.01, 0.19)))
        else:
            spec = MethodSpec(family, alpha=float(rng.uniform(0.01, 0.08)),
                              beta=float(rng.uniform(0.0, 0.4)))
        if trial // 4 % 2 == 0:
            dim = int(rng.integers(1, 4))
            oracle = QuadraticOracle(rng.uniform(1.0, 10.0, dim))
        else:
            oracle = PiecewiseLinearOracle([0.0, 1.0], rng.uniform(1.0, 10.0, 2))
        x0 = rng.normal(size=oracle.dim)
        plain = simulate_run(spec, oracle, x0, 100)
        shifted = simulate_shifted_run(spec, oracle, sector, x0, 100)
        worst = max(worst, float(np.max(np.abs(plain.iterates - shifted.iterates))))
    ok = worst < 1e-12
    _report(8, f"shifted interconnection matches the plain loop for every catalog family "
               f"to {worst:.2e}", ok)


def test_criterion_09_factorization_fidelity():
    rng = np.random.default_rng(5)
    ok = True
    worst_zero = 0.0
    for _ in range(10):
        alpha = float(rng.uniform(0.05, 1.5))
        beta = float(rng.uniform(0.0, 0.95))
        hb = MethodSpec(Family.HEAVY_BALL, alpha=alpha, beta=beta)
        ns = MethodSpec(Family.NESTEROV, alpha=alpha, beta=beta)
        ok = ok and tf_allclose(factor_controller(hb).product(), build_controller(hb), rtol=1e-10)
        ok = ok and tf_allclose(factor_controller(ns).product(), build_controller(ns), rtol=1e-10)
        worst_zero = max(worst_zero, abs(factor_controller(ns).zero - beta / (1.0 + beta)))
    ok = ok and worst_zero <= 1e-12
    _report(9, f"factor products reconstruct the catalog; zero offset {worst_zero:.2e}", ok)


def test_criterion_10_bode_anchors_and_orderings(tmp_path):
    m, L = 0.01, 1.0
    grad_opt = build_controller(MethodSpec(Family.GRADIENT, alpha=2.0 / (L + m)))
    grad_std = build_controller(MethodSpec(Family.GRADIENT, alpha=1.0 / L))
    fc_opt = crossover_frequency(grad_opt)
    fc_std = crossover_frequency(grad_std)
    ok = abs(fc_opt - 0.4547) <= 1e-3
    ok = ok and abs(fc_std - 1.0 / 6.0) <= 1e-3

    beta = preset(Family.NESTEROV, m, L).beta
    lag = RationalTF((0.0, 1.0), (-beta, 1.0))
    boost = abs(freq_response(lag, 1e-4))
    ok = ok and abs(boost - 1.0 / (1.0 - beta)) <= 0.05 / (1.0 - beta)

    sqL, sqm = math.sqrt(L), math.sqrt(m)
    hb = build_controller(MethodSpec(
        Family.HEAVY_BALL, alpha=4.0 / (sqL + sqm) ** 2,
        beta=((sqL - sqm) / (sqL + sqm)) ** 2,
    ))
    slope_hb = gain_metrics(hb).slope_at_crossover_db_per_decade
    slope_opt = gain_metrics(grad_opt).slope_at_crossover_db_per_decade
    slope_std = gain_metrics(grad_std).slope_at_crossover_db_per_decade
    ok = ok and slope_hb < slope_opt and slope_hb < slope_std

    svg = tmp_path / "bode.svg"
    code = cli_main([
        "bode", "--methods",
        "gradient:alpha=1,gradient:alpha=1.9802,nesterov:preset,"
        "heavyball:alpha=3.3058,beta=0.6694",
        "--m", "0.01", "--L", "1", "--svg", str(svg),
    ])
    ok = ok and code == 0 and svg.exists() and svg.read_text().startswith("<svg")
    _report(10, f"crossovers {fc_opt:.4f}/{fc_std:.4f}, lag boost {boost:.3f}, "
                f"slopes hb={slope_hb:.1f} < grad {slope_opt:.1f}/{slope_std:.1f}, "
                "svg written", ok)


def test_criterion_11_noise_robustness_ordering():
    sector = SectorClass(0.01, 1.0)
    oracle = QuadraticOracle([0.01, 1.0])
    report = noise_robustness_experiment(sector, oracle, 1e-3, range(20), iters=3000)
    ok = report.median_optimal_sector > report.median_standard
    _report(11, f"steady-state residual: alpha=2/(L+m) gives "
                f"{report.median_optimal_sector:.3e} > alpha=1/L gives "
                f"{report.median_standard:.3e}", ok)


def test_criterion_12_route_equivalence():
    rng = np.random.default_rng(99)
    families = [Family.GRADIENT, Family.HEAVY_BALL, Family.NESTEROV, Family.PID]
    ok = True
    for trial in range(20):
        m = float(rng.uniform(0.1, 2.0))
        L = m * float(rng.uniform(1.5, 80.0))
        sector = SectorClass(m, L)
        rho = float(rng.uniform(0.1, 0.99))
        alpha = float(rng.uniform(0.05, 1.5) / L)
        beta = float(rng.uniform(0.0, 0.9))
        family = families[trial % 4]
        spec = (MethodSpec(Family.GRADIENT, alpha=alpha) if family is Family.GRADIENT
                else MethodSpec(family, alpha=alpha, beta=beta))
        k = build_controller(spec)
        ok = ok and tf_allclose(
            complementary_sensitivity(k, sector, rho),
            loop_shift(tf_arg_scale(k, rho), sector),
            rtol=1e-10,
        )
    _report(12, "complementary sensitivity equals scale-then-shift on 20 random tuples", ok)
