"""Closed-loop execution of optimization methods, empirical rate fitting, and
gradient-noise robustness experiments.

The simulator builds the controllable canonical form of the method's SISO
controller from its coefficients once and replicates it per coordinate and
per run (state shape (order, runs*dim), so the seeds of a noise experiment
advance together); the plant closes the loop with
v[k] = grad(u[k] + xstar) plus optional seeded Gaussian noise on the gradient
output.  Order-1 controllers that share A may take one output row per
state column, so a noise experiment runs both gradient tunings in one batch;
run groups that share a noise stream add the same noise rows, never a copy.
Controller states start equal, scaled so the first produced point is x0; for
second-order methods that equals the conventional cold start where the
pre-initial iterate coincides with x0.  A single run of an integrator
(A = [[1]]) on a scalar or separable piecewise-linear oracle steps in Python
floats instead, one pass per coordinate per step, bit for bit as the numpy
loop would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import loop_shift
from .errors import InsufficientDataError, InvalidParameterError
from .lti import RationalTF
from .methods import GRADIENT_PRESETS, Family, MethodSpec, build_controller, preset
from .sectors import (GradientOracle, PiecewiseLinearOracle, SectorClass, SeparableOracle,
                      _integrator_states, _point, shifted_plant_apply)

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
    def first_nonfinite(self) -> int | None:
        """First step whose residual overflowed to inf or nan, if any."""
        bad = np.flatnonzero(~np.isfinite(self.residuals))
        return int(bad[0]) if bad.size else None


def _feedback_matrices(controller: RationalTF) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) of a controller num/den of order n, checked to close the
    loop: the controllable canonical form, with A's first row
    -den[n-1], ..., -den[0] above a shift, input b = e_1 (the loop adds to
    the first state row) and c = num[n-1], ..., num[0]."""
    num, den, n = controller.num, controller.den, controller.order
    if len(num) > n:
        raise InvalidParameterError(
            "controller with direct feedthrough cannot close the gradient "
            "loop (algebraic loop); use a strictly proper controller"
        )
    a_mat = np.eye(n, k=-1)
    a_mat[0] = [-c for c in den[-2::-1]]
    c_row = np.array((0.0,) * (n - len(num)) + num[::-1])
    if abs(float(c_row.sum())) <= 1e-12 * max(1.0, float(np.max(np.abs(c_row)))):
        raise InvalidParameterError(
            "controller has a zero at z = 1, so no equal-state "
            "initialization reproduces the start point"
        )
    return a_mat, c_row


def _is_integrator(a_mat: np.ndarray) -> bool:
    """Whether the controller's state matrix is exactly A = [[1]]."""
    return a_mat.shape == (1, 1) and a_mat[0, 0] == 1.0


def _gradient_noise(noise_sigma: float, seeds, iters: int, dim: int) -> np.ndarray | None:
    """Gradient noise for runs side by side, shape (iters, runs*dim), or None
    without noise.  Each seed's block is one draw of shape (iters, dim): the
    same stream as one draw of ``dim`` values per step.  A seed is None
    (fresh entropy) or a non-negative integer.  An iteration count whose noise
    cannot be allocated raises InvalidParameterError naming it."""
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise InvalidParameterError(f"noise sigma must be finite and >= 0, got {noise_sigma}")
    for seed in seeds:
        if seed is not None and seed < 0:
            raise InvalidParameterError(f"seeds must be >= 0, got {seed}")
    if noise_sigma == 0.0:
        return None
    try:
        noise = np.empty((iters, len(seeds) * dim))
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an index holds
        raise InvalidParameterError(
            f"gradient noise for {iters} iterations cannot be allocated: {exc}") from exc
    for run, seed in enumerate(seeds):
        noise[:, run * dim:(run + 1) * dim] = np.random.default_rng(seed).normal(
            0.0, noise_sigma, (iters, dim))
    return noise


def _closed_loop(matrices, plant, x0: np.ndarray, xstar: np.ndarray, iters: int,
                 noise: np.ndarray | None, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """Advance ``runs`` copies of the loop

        u[k] = c s[k],   s[k+1] = A s[k] + e_1 (plant(u[k]) + noise[k])

    at once in numpy, the controller replicated per coordinate and per run (state
    shape (order, runs*dim)), from the start points ``x0`` of shape
    (runs, dim), centered as u[0] = x0 - xstar.  ``c`` is one row of shape
    (order,), or for order-1 controllers that share A, one output per state
    column, shape (1, runs*dim): each u entry is then the single product the
    matmul forms.  An integrator, A = [[1]], steps its state in place: BLAS
    forms the product 1 s as 0 + 1 s, which differs from s only in turning
    -0.0 into +0.0, and a -0.0 state arises only from a zero centered start,
    whose next gradient is +0.0 or noise, so no iterate changes.  ``noise`` has
    shape (iters, width) with width dividing runs*dim; the run groups of that
    width all add the same noise, so runs that share a noise stream need no
    copy of it.  The kept rows are collected and joined once.  Returns the
    iterates x[k] = u[k] + xstar of the last ``keep`` steps, shape
    (keep, runs, dim), and their residuals ||x[k] - xstar||, shape
    (keep, runs), by :func:`_iterates_and_residuals`.  A start whose centered
    or scaled state overflows reads as non-finite from step 0.  Single
    integrator runs on piecewise-linear oracles take :func:`_integrator_run`
    instead; this loop serves order 2 and up, batches, quadratic oracles
    (which numpy evaluates for the whole vector at once) and any oracle
    subclass.
    """
    a_mat, c_row = matrices
    runs, dim = x0.shape
    per_column = c_row.ndim == 2
    integrator = _is_integrator(a_mat)
    first = iters + 1 - keep
    rows = []
    # a single run hands the plant its point as the matmul forms it, shape (dim,)
    single = runs == 1 and not per_column
    if noise is not None:
        groups = (runs * dim) // noise.shape[1]
    # a diverging run overflows; that is reported through its residuals
    with np.errstate(over="ignore", invalid="ignore"):
        # Equal delayed states scaled to produce u[0]; this is the cold start
        # x[-1] = x[0] for the order-2 catalog methods.
        state = np.tile((x0 - xstar).ravel() / c_row.sum(axis=0), (a_mat.shape[0], 1))
        for k in range(iters):
            u = c_row * state if per_column else c_row @ state
            if k >= first:
                rows.append(u)
            if single:
                v = plant(u)
                if noise is not None:
                    v = v + noise[k]
            else:
                v = plant(u.reshape(runs, dim))
                if noise is not None:
                    v = v.reshape(groups, -1) + noise[k]
                v = v.ravel()
            if not integrator:
                state = a_mat @ state
            state[0] += v
        rows.append(c_row * state if per_column else c_row @ state)
        us = np.concatenate(rows).reshape(keep, runs, dim)
        del rows  # the residuals need the block, not its rows too
        return _iterates_and_residuals(us, xstar)


def _iterates_and_residuals(us: np.ndarray, xstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The iterates x = u + xstar of a block of outputs ``us`` (in place) and
    their residuals ||x - xstar|| over the last axis, formed as
    ``np.linalg.norm`` forms them but with one temporary.  Run under an
    ``np.errstate`` that ignores overflow."""
    us += xstar
    d = us - xstar
    d *= d
    return us, np.sqrt(np.add.reduce(d, -1))


def _integrator_run(c: float, oracle: GradientOracle, x0: np.ndarray, iters: int,
                    noise: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """One run of an integrator, A = [[1]] and c = [c], on a
    :class:`PiecewiseLinearOracle` or :class:`SeparableOracle`, stepped in
    Python floats by :func:`loopshift.sectors._integrator_states`, one pass
    per coordinate per step.

    This is bit for bit what :func:`_closed_loop` computes for the run: each
    numpy or BLAS operation it replaces is one IEEE product or sum.  The
    length-1 product ``c_row @ state`` is one rounded product added to 0,
    which turns -0.0 into +0.0 as ``0.0 +`` does; the oracle evaluates its
    pieces in Python floats itself; the noise and the in-place state update
    are one sum each.  On a few coordinates per step, numpy's per-call cost
    outweighs that arithmetic many times over.  The kept states become the
    outputs 0.0 + c s at the end, the same product and sum elementwise in
    numpy.  The iterates and residuals, of shapes (iters+1, 1, dim) and
    (iters+1, 1), come from the same numpy tail as :func:`_closed_loop`'s.
    """
    xstar = oracle.xstar
    with np.errstate(over="ignore", invalid="ignore"):
        states = _integrator_states(oracle, c, ((x0 - xstar) / c).tolist(), iters, noise)
        us = np.frombuffer(states).reshape(iters + 1, 1, oracle.dim)
        us *= c
        us += 0.0
        return _iterates_and_residuals(us, xstar)


def _check_iters(iters: int) -> None:
    if iters < 1:
        raise InvalidParameterError(f"iters must be >= 1, got {iters}")


def simulate_run(spec: MethodSpec, oracle: GradientOracle, x0, iters: int,
                 noise_sigma: float = 0.0, seed: int | None = None) -> Trajectory:
    """Run the feedback loop for ``iters`` steps and record iters+1 points.

    ``noise_sigma`` adds i.i.d. Gaussian noise per coordinate to the gradient
    output, drawn from a generator seeded with ``seed`` (identical seeds give
    bit-identical trajectories).
    """
    _check_iters(iters)
    noise = _gradient_noise(noise_sigma, (seed,), iters, oracle.dim)
    x0 = _point(x0, oracle.dim, "x0")
    a_mat, c_row = matrices = _feedback_matrices(build_controller(spec))
    # the exact class: a subclass may override centered_grad
    if _is_integrator(a_mat) and type(oracle) in (PiecewiseLinearOracle, SeparableOracle):
        xs, residuals = _integrator_run(float(c_row[0]), oracle, x0, iters, noise)
    else:
        xs, residuals = _closed_loop(matrices, oracle.centered_grad, x0[None], oracle.xstar,
                                     iters, noise, iters + 1)
    return Trajectory(xs[:, 0], residuals[:, 0], spec, oracle.describe(), seed)


def simulate_shifted_run(spec: MethodSpec, oracle: GradientOracle,
                         sector: SectorClass, x0, iters: int) -> Trajectory:
    """Any method through the loop-shifted interconnection: the shifted
    controller K' = N/(N - sD) of :func:`loop_shift` (s = 2/(L+m)) in
    feedback with the plant v[k] = u[k] - s grad(u[k] + xstar).

    Eliminating v gives back D u = N grad(u + xstar), and both loops start
    from the same implied history (u constant at x0 - xstar, gradient 0), so
    this matches :func:`simulate_run` to machine precision.
    """
    _check_iters(iters)
    x0 = _point(x0, oracle.dim, "x0")
    matrices = _feedback_matrices(loop_shift(build_controller(spec), sector))
    xs, residuals = _closed_loop(matrices, lambda u: shifted_plant_apply(oracle, sector, u),
                                 x0[None], oracle.xstar, iters, None, iters + 1)
    return Trajectory(xs[:, 0], residuals[:, 0], spec, oracle.describe(), None)


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares fit of log residuals against iteration count."""

    rho_hat: float
    c_hat: float
    fit_window: tuple[int, int]
    r_squared: float
    diverged: bool = False


def estimate_rate(traj: Trajectory) -> RateEstimate:
    """Fit ln(residual[k]) ~ intercept + slope*k over the residuals above
    the machine floor from a quarter of the way to the last of them (to
    iters/4 for a run that never reaches the floor); rho_hat is exp(slope)
    and c_hat recovers the constant in residual <= c rho^k residual[0].

    The window start discards the transient where that constant dominates.
    Growth past a factor of 1e6, or a non-finite residual, sets the diverged
    flag; non-finite residuals are left out of the fit.
    """
    r = traj.residuals
    iters = len(r) - 1
    finite = np.isfinite(r)
    above = finite & (r > RESIDUAL_FLOOR)
    end = iters
    if above.any() and (r <= RESIDUAL_FLOOR).any():
        end = int(np.flatnonzero(above)[-1])
    ks = np.arange(end // 4, iters + 1)
    usable = ks[above[ks]]
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


def _median(values) -> np.ndarray:
    """``np.median(values, axis=0)`` without its import of ``numpy.ma``: the
    middle value, or the mean of the middle pair, and NaN where any is."""
    s = np.sort(values, axis=0)
    h = len(s) // 2
    return np.where(np.isnan(s[-1]), np.nan, s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2.0)


def noise_robustness_experiment(sector: SectorClass, oracle: GradientOracle,
                                noise_sigma: float, seeds, iters: int = 3000
                                ) -> NoiseRobustnessReport:
    """Compare gradient descent at alpha = 1/L against alpha = 2/(L+m) under
    the same seeded gradient noise, every run starting at xstar + 1.

    Steady state is the median of the last 10% of residuals per run, then the
    median across seeds per tuning.  All seeds of both tunings run as one
    batch, and both tunings see the same noise, drawn once per seed.  Requires a
    quadratic oracle on a badly conditioned sector (kappa >= 50), where the
    aggressive tuning's fragility shows.
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
    _check_iters(iters)
    noise = _gradient_noise(noise_sigma, seeds, iters, oracle.dim)
    standard, optimal = [preset(Family.GRADIENT, sector.m, sector.L, v) for v in GRADIENT_PRESETS]
    # gradient descent realizes as A = [[1]], c = [-alpha] for every
    # alpha, so both tunings run as one batch told apart by the output row,
    # the standard tuning's seeds first
    a_mat, c_std = _feedback_matrices(build_controller(standard))
    c_opt = _feedback_matrices(build_controller(optimal))[1]
    c_cols = np.repeat(np.concatenate((c_std, c_opt)), len(seeds) * oracle.dim)[None]
    x0 = np.tile(oracle.xstar + 1.0, (2 * len(seeds), 1))
    tail = max(1, (iters + 1) // 10)
    _, residuals = _closed_loop((a_mat, c_cols), oracle.centered_grad, x0, oracle.xstar,
                                iters, noise, tail)
    steady = [float(r) for r in _median(residuals)]
    ss_std = tuple(steady[:len(seeds)])
    ss_opt = tuple(steady[len(seeds):])
    return NoiseRobustnessReport(
        m=sector.m,
        L=sector.L,
        sigma=noise_sigma,
        iters=iters,
        seeds=seeds,
        alpha_standard=standard.alpha,
        alpha_optimal_sector=optimal.alpha,
        steady_state_standard=ss_std,
        steady_state_optimal_sector=ss_opt,
        median_standard=float(_median(ss_std)),
        median_optimal_sector=float(_median(ss_opt)),
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
