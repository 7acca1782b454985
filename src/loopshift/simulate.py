"""Closed-loop execution of optimization methods, empirical rate fitting, and
gradient-noise robustness experiments.

The simulator realizes the method's SISO controller once and replicates it
per coordinate (state shape (order, dim)); the plant closes the loop with
v[k] = grad(u[k] + xstar) plus optional seeded Gaussian noise on the gradient
output.  Controller states start equal, scaled so the first produced point is
x0; for second-order methods that equals the conventional cold start where
the pre-initial iterate coincides with x0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError
from .lti import realize
from .methods import Family, MethodSpec, build_controller
from .sectors import GradientOracle, SectorClass, shifted_plant_apply

# Residuals at or below this are machine-precision noise; rate fits skip them.
RESIDUAL_FLOOR = 1e-12

DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Iterates x[k] (shape (iters+1, dim)), their residuals ||x[k] - x*||,
    and the configuration that produced them."""

    iterates: np.ndarray
    residuals: np.ndarray
    method: MethodSpec
    oracle_id: str
    seed: int | None

    @property
    def iters(self) -> int:
        return len(self.residuals) - 1

    @property
    def first_nonfinite(self) -> int | None:
        """First step whose residual overflowed to inf or nan, if any."""
        bad = np.flatnonzero(~np.isfinite(self.residuals))
        return int(bad[0]) if bad.size else None


def _check_x0(x0, dim: int) -> np.ndarray:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (dim,):
        raise InvalidParameterError(f"x0 must have shape ({dim},), got {x0.shape}")
    return x0


def simulate_run(spec: MethodSpec, oracle: GradientOracle, x0, iters: int,
                 noise_sigma: float = 0.0, seed: int | None = None) -> Trajectory:
    """Run the feedback loop for ``iters`` steps and record iters+1 points.

    ``noise_sigma`` adds i.i.d. Gaussian noise per coordinate to the gradient
    output, drawn from a generator seeded with ``seed`` (identical seeds give
    bit-identical trajectories).
    """
    if iters < 1:
        raise InvalidParameterError(f"iters must be >= 1, got {iters}")
    if noise_sigma < 0.0:
        raise InvalidParameterError(f"noise sigma must be >= 0, got {noise_sigma}")
    x0 = _check_x0(x0, oracle.dim)
    controller = build_controller(spec)
    ss = realize(controller)
    if ss.order == 0 or (ss.D.size and ss.D[0, 0] != 0.0):
        raise InvalidParameterError(
            "controller with direct feedthrough cannot close the gradient "
            "loop (algebraic loop); use a strictly proper controller"
        )
    a_mat, b_col, c_row = ss.A, ss.B[:, 0], ss.C[0]
    c_sum = float(c_row.sum())
    if abs(c_sum) <= 1e-12 * max(1.0, float(np.max(np.abs(c_row)))):
        raise InvalidParameterError(
            "controller has a zero at z = 1, so no equal-state "
            "initialization reproduces the start point"
        )
    xstar = oracle.xstar
    u0 = x0 - xstar
    # Equal delayed states scaled to produce u[0] = x0 - xstar; this is the
    # cold start x[-1] = x[0] for the order-2 catalog methods.
    state = np.tile(u0 / c_sum, (ss.order, 1))
    rng = np.random.default_rng(seed)
    xs = np.empty((iters + 1, oracle.dim))
    for k in range(iters):
        u = c_row @ state
        xs[k] = u + xstar
        v = oracle.centered_grad(u)
        if noise_sigma > 0.0:
            v = v + rng.normal(0.0, noise_sigma, oracle.dim)
        state = a_mat @ state + np.outer(b_col, v)
    xs[iters] = c_row @ state + xstar
    residuals = np.linalg.norm(xs - xstar, axis=1)
    return Trajectory(xs, residuals, spec, oracle.describe(), seed)


def simulate_shifted_run(spec: MethodSpec, oracle: GradientOracle,
                         sector: SectorClass, x0, iters: int) -> Trajectory:
    """Gradient descent through the loop-shifted interconnection:

        xi[k+1] = (1 - (m+L) a / 2) xi[k] + ((m+L) a / 2) v[k]
        v[k]    = xi[k] - (2/(L+m)) grad(xi[k] + xstar)

    The substitution collapses algebraically to xi[k+1] = xi[k] - a grad(..),
    so this matches :func:`simulate_run` to machine precision.
    """
    if spec.family is not Family.GRADIENT:
        raise InvalidParameterError("the shifted interconnection is defined for gradient descent")
    if iters < 1:
        raise InvalidParameterError(f"iters must be >= 1, got {iters}")
    x0 = _check_x0(x0, oracle.dim)
    gain = 0.5 * (sector.m + sector.L) * spec.alpha
    xstar = oracle.xstar
    xi = x0 - xstar
    xs = np.empty((iters + 1, oracle.dim))
    for k in range(iters):
        xs[k] = xi + xstar
        v = shifted_plant_apply(oracle, sector, xi)
        xi = (1.0 - gain) * xi + gain * v
    xs[iters] = xi + xstar
    residuals = np.linalg.norm(xs - xstar, axis=1)
    return Trajectory(xs, residuals, spec, oracle.describe(), None)


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares fit of log residuals against iteration count."""

    rho_hat: float
    c_hat: float
    fit_window: tuple[int, int]
    r_squared: float
    diverged: bool = False


def estimate_rate(traj: Trajectory) -> RateEstimate:
    """Fit ln(residual[k]) ~ intercept + slope*k over the window from
    iters/4 to the last residual above the machine floor; rho_hat is
    exp(slope) and c_hat recovers the constant in residual <= c rho^k
    residual[0].

    The window start discards the transient where that constant dominates.
    Growth past a factor of 1e6, or a non-finite residual, sets the diverged
    flag; non-finite residuals are left out of the fit.
    """
    r = traj.residuals
    iters = len(r) - 1
    start = iters // 4
    ks = np.arange(start, iters + 1)
    finite = np.isfinite(r)
    usable = ks[finite[ks] & (r[ks] > RESIDUAL_FLOOR)]
    if usable.size < 10:
        raise InsufficientDataError(
            f"only {usable.size} usable residuals above {RESIDUAL_FLOOR:g} "
            "in the fit window; need at least 10"
        )
    diverged = bool(not finite.all() or
                    (r[0] > 0.0 and float(np.max(r)) > DIVERGENCE_FACTOR * r[0]))
    y = np.log(r[usable])
    slope, intercept = np.polyfit(usable.astype(float), y, 1)
    fitted = intercept + slope * usable
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - fitted) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    c_hat = math.exp(intercept) / r[0] if r[0] > 0.0 else math.nan
    return RateEstimate(
        rho_hat=math.exp(slope),
        c_hat=c_hat,
        fit_window=(int(usable[0]), int(usable[-1])),
        r_squared=r_squared,
        diverged=diverged,
    )


@dataclass(frozen=True)
class NoiseRobustnessReport:
    """Steady-state residuals of the two gradient tunings under identical
    seeded gradient noise; report only, orderings are asserted elsewhere."""

    m: float
    L: float
    sigma: float
    iters: int
    seeds: tuple[int, ...]
    alpha_standard: float
    alpha_optimal_sector: float
    steady_state_standard: tuple[float, ...]
    steady_state_optimal_sector: tuple[float, ...]
    median_standard: float
    median_optimal_sector: float

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "L": self.L,
            "sigma": self.sigma,
            "iters": self.iters,
            "seeds": list(self.seeds),
            "alpha_standard": self.alpha_standard,
            "alpha_optimal_sector": self.alpha_optimal_sector,
            "steady_state_standard": list(self.steady_state_standard),
            "steady_state_optimal_sector": list(self.steady_state_optimal_sector),
            "median_standard": self.median_standard,
            "median_optimal_sector": self.median_optimal_sector,
        }


def noise_robustness_experiment(sector: SectorClass, oracle: GradientOracle,
                                noise_sigma: float, seeds, iters: int = 3000,
                                x0=None) -> NoiseRobustnessReport:
    """Compare gradient descent at alpha = 1/L against alpha = 2/(L+m) under
    the same seeded gradient noise.

    Steady state is the median of the last 10% of residuals per run, then the
    median across seeds per tuning.  Requires a quadratic oracle on a badly
    conditioned sector (kappa >= 50), where the aggressive tuning's fragility
    shows.
    """
    if oracle.kind != "quadratic":
        raise InvalidParameterError("noise robustness experiment expects a quadratic oracle")
    if sector.kappa < 50.0:
        raise InvalidParameterError(
            f"noise robustness experiment expects kappa >= 50, got {sector.kappa:g}"
        )
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise InvalidParameterError("need at least one seed")
    x0 = oracle.xstar + 1.0 if x0 is None else _check_x0(x0, oracle.dim)
    alpha_std = 1.0 / sector.L
    alpha_opt = 2.0 / (sector.L + sector.m)
    tail = max(1, (iters + 1) // 10)

    def steady_states(alpha: float) -> tuple[float, ...]:
        spec = MethodSpec(Family.GRADIENT, alpha=alpha)
        out = []
        for seed in seeds:
            traj = simulate_run(spec, oracle, x0, iters, noise_sigma, seed)
            out.append(float(np.median(traj.residuals[-tail:])))
        return tuple(out)

    ss_std = steady_states(alpha_std)
    ss_opt = steady_states(alpha_opt)
    return NoiseRobustnessReport(
        m=sector.m,
        L=sector.L,
        sigma=noise_sigma,
        iters=iters,
        seeds=seeds,
        alpha_standard=alpha_std,
        alpha_optimal_sector=alpha_opt,
        steady_state_standard=ss_std,
        steady_state_optimal_sector=ss_opt,
        median_standard=float(np.median(ss_std)),
        median_optimal_sector=float(np.median(ss_opt)),
    )


def trajectory_csv_text(traj: Trajectory, include_iterates: bool = False) -> str:
    """CSV export with header ``k,residual`` plus optional per-coordinate
    iterate columns x_0..x_{p-1}."""
    dim = traj.iterates.shape[1]
    header = "k,residual"
    if include_iterates:
        header += "," + ",".join(f"x_{j}" for j in range(dim))
    lines = [header]
    for k in range(len(traj.residuals)):
        row = f"{k},{float(traj.residuals[k])!r}"
        if include_iterates:
            row += "," + ",".join(repr(float(v)) for v in traj.iterates[k])
        lines.append(row)
    return "\n".join(lines) + "\n"
