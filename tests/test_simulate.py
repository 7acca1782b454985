import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopshift import (
    Family,
    InsufficientDataError,
    InvalidParameterError,
    MethodSpec,
    PiecewiseLinearOracle,
    QuadraticOracle,
    RationalTF,
    SectorClass,
    SeparableOracle,
    Trajectory,
    certify_rate,
    estimate_rate,
    noise_robustness_experiment,
    poly_roots,
    random_rotation,
    simulate_run,
    simulate_shifted_run,
    trajectory_csv_text,
)
from loopshift.simulate import _feedback_matrices, _median

from helpers import custom_controller, reference_run

SEC = SectorClass(1.0, 10.0)
GRAD_OPT = MethodSpec(Family.GRADIENT, alpha=2.0 / 11.0)


def test_scalar_gradient_recursion_is_exact():
    oracle = QuadraticOracle([10.0])
    traj = simulate_run(GRAD_OPT, oracle, [1.0], 20)
    for k in range(21):
        assert traj.iterates[k, 0] == pytest.approx((-9.0 / 11.0) ** k, rel=1e-12)


def test_fixed_point_stays_fixed():
    oracle = QuadraticOracle([2.0, 5.0], xstar=[1.0, -1.0])
    traj = simulate_run(MethodSpec(Family.HEAVY_BALL, alpha=0.1, beta=0.5),
                        oracle, oracle.xstar, 30)
    assert np.all(traj.iterates == oracle.xstar)
    assert np.all(traj.residuals == 0.0)


def test_two_eigenvalue_residual_rate():
    oracle = QuadraticOracle([1.0, 10.0])
    traj = simulate_run(GRAD_OPT, oracle, [1.0, 1.0], 50)
    ratio = traj.residuals[1:] / traj.residuals[:-1]
    assert np.allclose(ratio, 9.0 / 11.0, rtol=1e-12)


def test_shifted_run_matches_plain_run():
    # every catalog family, and custom controllers of order 3-6 that
    # certify a rate below one, through K' = N/(N - sD) and u - s grad(u)
    rng = np.random.default_rng(4)
    specs = [MethodSpec(Family.GRADIENT, alpha=float(rng.uniform(0.01, 0.19))) for _ in range(5)]
    specs += [MethodSpec(family, alpha=float(rng.uniform(0.01, 0.08)),
                         beta=float(rng.uniform(0.0, 0.4)))
              for family in (Family.HEAVY_BALL, Family.NESTEROV, Family.PID) for _ in range(5)]
    customs = [custom_controller(rng, order) for order in (3, 4, 5, 6) * 3]
    specs += [spec for spec in customs if certify_rate(spec, SEC, 0.999).certified]
    assert len(specs) >= 28
    for spec in specs:
        eigs = rng.uniform(1.0, 10.0, 2)
        oracle = QuadraticOracle(eigs, random_rotation(2, int(rng.integers(99))))
        x0 = rng.normal(size=2)
        a = simulate_run(spec, oracle, x0, 80)
        b = simulate_shifted_run(spec, oracle, SEC, x0, 80)
        assert np.max(np.abs(a.iterates - b.iterates)) < 1e-12, spec.label


def test_shifted_run_constant_at_fixed_point():
    oracle = QuadraticOracle([3.0], xstar=[2.0])
    traj = simulate_shifted_run(MethodSpec(Family.GRADIENT, alpha=0.1),
                                oracle, SectorClass(1.0, 5.0), [2.0], 15)
    assert np.all(traj.iterates == 2.0)


def test_momentum_initialization_matches_cold_start():
    # first step of the momentum recursions from x[-1] = x[0]
    oracle = QuadraticOracle([4.0])
    x0, lam = 2.0, 4.0
    hb = MethodSpec(Family.HEAVY_BALL, alpha=0.1, beta=0.5)
    traj = simulate_run(hb, oracle, [x0], 3)
    assert traj.iterates[0, 0] == pytest.approx(x0, rel=1e-14)
    # x1 = x0 - alpha*grad(x0) + beta*(x0 - x0)
    assert traj.iterates[1, 0] == pytest.approx(x0 - 0.1 * lam * x0, rel=1e-12)
    ns = MethodSpec(Family.NESTEROV, alpha=0.1, beta=0.5)
    traj = simulate_run(ns, oracle, [x0], 3)
    assert traj.iterates[0, 0] == pytest.approx(x0, rel=1e-14)
    # y1 = y0 - alpha*(1+beta)*grad(y0) for the cold start
    assert traj.iterates[1, 0] == pytest.approx(x0 - 0.1 * 1.5 * lam * x0, rel=1e-12)


def test_translation_invariance_is_exact():
    oracle = QuadraticOracle([1.0, 10.0])
    shift = np.array([0.5, -2.0])  # binary-exact translation
    x0 = np.array([1.0, 2.0])
    spec = MethodSpec(Family.NESTEROV, alpha=0.1, beta=0.25)
    base = simulate_run(spec, oracle, x0, 40)
    moved = simulate_run(spec, QuadraticOracle([1.0, 10.0], xstar=shift), x0 + shift, 40)
    assert np.array_equal(base.iterates + shift, moved.iterates)


def test_identical_seeds_are_bit_identical():
    oracle = QuadraticOracle([1.0, 10.0])
    a = simulate_run(GRAD_OPT, oracle, [1.0, 1.0], 50, noise_sigma=1e-3, seed=7)
    b = simulate_run(GRAD_OPT, oracle, [1.0, 1.0], 50, noise_sigma=1e-3, seed=7)
    assert np.array_equal(a.iterates, b.iterates)
    c = simulate_run(GRAD_OPT, oracle, [1.0, 1.0], 50, noise_sigma=1e-3, seed=8)
    assert not np.array_equal(a.iterates, c.iterates)


def test_gradient_noise_is_one_draw_per_step():
    oracle = QuadraticOracle([1.0, 10.0], xstar=[0.5, -1.0])
    alpha, sigma = 2.0 / 11.0, 1e-2
    traj = simulate_run(GRAD_OPT, oracle, [1.0, 1.0], 40, noise_sigma=sigma, seed=7)
    rng = np.random.default_rng(7)
    x = np.array([1.0, 1.0])
    for k in range(41):
        np.testing.assert_allclose(traj.iterates[k], x, rtol=1e-12, atol=1e-14)
        x = x - alpha * (oracle.grad(x) + rng.normal(0.0, sigma, 2))


@st.composite
def _specs(draw):
    family = draw(st.sampled_from([Family.GRADIENT, Family.HEAVY_BALL, Family.NESTEROV,
                                   Family.PID]))
    alpha = draw(st.floats(0.01, 0.25))
    beta = None if family is Family.GRADIENT else draw(st.floats(0.0, 0.9))
    return MethodSpec(family, alpha=alpha, beta=beta)


@st.composite
def _scalar_pwl(draw, xstar=None):
    bps = [0.0]
    for gap in draw(st.lists(st.floats(0.05, 2.0), max_size=3)):
        bps.append(bps[-1] + gap)
    slopes = draw(st.lists(st.floats(0.5, 10.0), min_size=len(bps), max_size=len(bps)))
    return PiecewiseLinearOracle(bps, slopes, xstar)


@st.composite
def _oracles(draw):
    kind = draw(st.sampled_from(["quadratic", "rotated", "pwl", "separable"]))
    if kind == "pwl":
        return draw(_scalar_pwl(draw(_points(1))))
    if kind == "separable":
        comps = draw(st.lists(
            st.one_of(_scalar_pwl(), st.floats(0.5, 10.0).map(lambda e: QuadraticOracle([e]))),
            min_size=1, max_size=4))
        return SeparableOracle(comps, draw(_points(len(comps))))
    eigs = draw(st.lists(st.floats(0.5, 10.0), min_size=1, max_size=4))
    rotation = random_rotation(len(eigs), draw(st.integers(0, 99))) if kind == "rotated" else None
    return QuadraticOracle(eigs, rotation, draw(_points(len(eigs))))


def _points(dim):
    return st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)


# The examples start a gradient run, whose integrator steps in place, at its
# minimizer (the start state is then a signed zero) and where the start state
# overflows; the signs of zeros must match the reference's too.
@settings(deadline=None, max_examples=60)
@given(_specs(), _oracles(), st.floats(-2.0, 2.0), st.sampled_from([0.0, 1e-3]),
       st.integers(0, 2**16), st.integers(1, 60))
@example(MethodSpec(Family.GRADIENT, alpha=0.1), QuadraticOracle([1.0, 10.0], xstar=[0.5, -1.0]),
         0.0, 0.0, 0, 20)
@example(MethodSpec(Family.GRADIENT, alpha=0.1), QuadraticOracle([1.0, 10.0], xstar=[0.5, -1.0]),
         -0.0, 1e-3, 3, 20)
@example(MethodSpec(Family.GRADIENT, alpha=0.1), PiecewiseLinearOracle([0.0, 1.0], [1.0, 10.0]),
         -0.0, 0.0, 0, 20)
@example(MethodSpec(Family.GRADIENT, alpha=0.1), PiecewiseLinearOracle([0.0, 1.0], [1.0, 10.0]),
         1e308, 0.0, 0, 20)
def test_single_run_is_bit_identical_to_reference_loop(spec, oracle, offset, sigma, seed, iters):
    x0 = oracle.xstar + offset * np.linspace(1.0, -0.5, oracle.dim)
    want_x, want_r = reference_run(spec, oracle, x0, iters, sigma, seed)
    traj = simulate_run(spec, oracle, x0, iters, sigma, seed)
    assert np.array_equal(traj.iterates, want_x, equal_nan=True)
    assert np.array_equal(traj.residuals, want_r, equal_nan=True)
    assert np.array_equal(np.signbit(traj.iterates), np.signbit(want_x))
    assert np.array_equal(np.signbit(traj.residuals), np.signbit(want_r))


def test_simulate_validates_inputs():
    oracle = QuadraticOracle([1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        simulate_run(GRAD_OPT, oracle, [1.0], 10)
    with pytest.raises(InvalidParameterError):
        simulate_run(GRAD_OPT, oracle, [1.0, 1.0], 0)
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            simulate_run(GRAD_OPT, oracle, [1.0, 1.0], 10, noise_sigma=sigma, seed=0)


@pytest.mark.parametrize("call, match", [
    (lambda: _feedback_matrices(RationalTF((1.0, -1.0), (0.5, -1.5, 1.0))), "zero at z = 1"),
    (lambda: noise_robustness_experiment(SectorClass(0.01, 1.0), QuadraticOracle([0.01, 1.0]),
                                         1e-3, []), "at least one seed"),
    (lambda: simulate_run(GRAD_OPT, QuadraticOracle([1.0, 2.0]), [1.0, 1.0], 10,
                          noise_sigma=0.1, seed=-1), "seeds must be >= 0"),
    (lambda: noise_robustness_experiment(SectorClass(0.01, 1.0), QuadraticOracle([0.01, 1.0]),
                                         0.1, [0, -1], iters=10), "seeds must be >= 0"),
], ids=["zero-at-one", "no-seeds", "negative-seed", "negative-seed-in-batch"])
def test_simulate_input_checks_raise(call, match):
    with pytest.raises(InvalidParameterError, match=match):
        call()


def test_simulate_rejects_direct_feedthrough():
    custom = MethodSpec(Family.CUSTOM, custom_tf=RationalTF((-0.5, 1.0), (-1.0, 1.0)))
    with pytest.raises(InvalidParameterError):
        simulate_run(custom, QuadraticOracle([1.0]), [1.0], 10)


def _synthetic_trajectory(residuals):
    residuals = np.asarray(residuals, dtype=float)
    iterates = residuals[:, None]
    return Trajectory(iterates, residuals, GRAD_OPT, "synthetic", None)


def test_estimate_rate_on_exact_geometric_sequence():
    rho = 9.0 / 11.0
    traj = _synthetic_trajectory([rho ** k for k in range(200)])
    est = estimate_rate(traj)
    assert est.rho_hat == pytest.approx(rho, abs=1e-9)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.c_hat == pytest.approx(1.0, rel=1e-9)
    assert not est.diverged


def test_estimate_rate_fits_a_run_that_reaches_the_floor_early():
    # 0.5^k drops to the floor at k = 40, long before iters/4 = 100
    traj = _synthetic_trajectory([0.5 ** k for k in range(401)])
    est = estimate_rate(traj)
    assert est.rho_hat == pytest.approx(0.5, abs=1e-9)
    assert est.fit_window == (9, 39)


def test_estimate_rate_constant_residuals():
    est = estimate_rate(_synthetic_trajectory(np.ones(100)))
    assert est.rho_hat == pytest.approx(1.0, abs=1e-12)


def test_estimate_rate_needs_enough_points():
    oracle = QuadraticOracle([1.0])
    traj = simulate_run(GRAD_OPT, oracle, [0.0], 50)  # starts at the minimum
    with pytest.raises(InsufficientDataError):
        estimate_rate(traj)


def test_estimate_rate_flags_divergence():
    traj = simulate_run(MethodSpec(Family.GRADIENT, alpha=1.0),
                        QuadraticOracle([10.0]), [1.0], 40)
    est = estimate_rate(traj)
    assert est.diverged
    assert est.rho_hat > 1.0


def test_heavy_ball_oscillatory_fit_matches_spectral_radius():
    alpha, beta = 0.05, 0.9
    eigs = [1.0, 10.0]
    spec = MethodSpec(Family.HEAVY_BALL, alpha=alpha, beta=beta)
    traj = simulate_run(spec, QuadraticOracle(eigs), [1.0, 1.0], 500)
    est = estimate_rate(traj)
    rate = 0.0
    for lam in eigs:
        roots = poly_roots((beta, -(1.0 + beta - alpha * lam), 1.0))
        rate = max(rate, max(abs(r) for r in roots))
    assert abs(est.rho_hat - rate) / rate < 0.02


def test_noise_robustness_preconditions():
    with pytest.raises(InvalidParameterError):
        noise_robustness_experiment(SEC, QuadraticOracle([1.0, 10.0]), 1e-3, [0])
    with pytest.raises(InvalidParameterError):
        noise_robustness_experiment(SectorClass(0.01, 1.0),
                                    PiecewiseLinearOracle([0.0], [0.5]), 1e-3, [0])
    for sigma in (-1e-3, math.nan, math.inf):
        with pytest.raises(InvalidParameterError):
            noise_robustness_experiment(SectorClass(0.01, 1.0), QuadraticOracle([0.01, 1.0]),
                                        sigma, [0], iters=10)


def test_noise_robustness_sigma_zero_converges():
    sec = SectorClass(0.01, 1.0)
    report = noise_robustness_experiment(sec, QuadraticOracle([0.01, 1.0]), 0.0,
                                         [0, 1], iters=3000)
    assert report.median_standard < 1e-10
    assert report.median_optimal_sector < 1e-10


@pytest.mark.parametrize("oracle, sigma", [
    (QuadraticOracle([0.01, 1.0], xstar=[0.75, -2.0]), 1e-3),
    (QuadraticOracle([0.01, 1.0], xstar=[0.75, -2.0]), 0.0),
    (QuadraticOracle([0.01, 0.2, 1.0], random_rotation(3, 5), xstar=[1.0, -0.5, 2.0]), 1e-3),
    # xstar + 1 rounds to xstar: the centered start is 0
    (QuadraticOracle([0.01, 1.0], xstar=[1e17, 1e17]), 0.0),
    (QuadraticOracle([0.01, 1.0], xstar=[1e17, 1e17]), 1e-3),
], ids=["noisy", "sigma-zero", "rotated-3d", "zero-start", "zero-start-noisy"])
def test_noise_robustness_batch_equals_per_seed_runs(oracle, sigma):
    sec = SectorClass(0.01, 1.0)
    seeds, iters = (4, 9, 11), 700
    report = noise_robustness_experiment(sec, oracle, sigma, seeds, iters)
    start = oracle.xstar + 1.0
    tail = (iters + 1) // 10
    for alpha, got in ((report.alpha_standard, report.steady_state_standard),
                       (report.alpha_optimal_sector, report.steady_state_optimal_sector)):
        spec = MethodSpec(Family.GRADIENT, alpha=alpha)
        want = tuple(
            float(np.median(simulate_run(spec, oracle, start, iters,
                                         sigma, seed).residuals[-tail:]))
            for seed in seeds
        )
        assert got == want


def test_noise_robustness_scales_roughly_linearly():
    sec = SectorClass(0.01, 1.0)
    oracle = QuadraticOracle([0.01, 1.0])
    low = noise_robustness_experiment(sec, oracle, 5e-4, range(5), iters=2500)
    high = noise_robustness_experiment(sec, oracle, 1e-3, range(5), iters=2500)
    for a, b in ((low.median_standard, high.median_standard),
                 (low.median_optimal_sector, high.median_optimal_sector)):
        assert b / a == pytest.approx(2.0, rel=0.2)


@pytest.mark.parametrize("shape", [(1,), (7,), (8,), (31, 4), (300, 40)])
def test_median_equals_numpy_median(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    values = np.abs(rng.standard_normal(shape)) * 10.0 ** rng.uniform(-12, 0, shape)
    values[0] = values[-1]  # a tie
    want = np.asarray(np.median(values, axis=0))
    assert want.tobytes() == np.asarray(_median(values)).tobytes()
    values[shape[0] // 2] = np.nan
    with np.errstate(invalid="ignore"):
        assert np.isnan(np.median(values, axis=0)).all() and np.isnan(_median(values)).all()


def test_trajectory_csv_text():
    oracle = QuadraticOracle([2.0, 4.0])
    traj = simulate_run(GRAD_OPT, oracle, [1.0, 1.0], 3)
    text = trajectory_csv_text(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "k,residual"
    assert len(lines) == 5
    wide = trajectory_csv_text(traj, include_iterates=True)
    assert wide.startswith("k,residual,x_0,x_1")
