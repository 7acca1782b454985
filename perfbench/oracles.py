"""Independent checks on loopshift's answers.

Nothing here imports loopshift: every check rebuilds what it needs from the
inputs with numpy, so a defect in the code under test cannot hide itself.
A check returns None when the answer stands and a one-line reason when it is
refuted.
"""

from __future__ import annotations

import numpy as np

# Dense angle grid on [0, pi] (|K'| is symmetric about the real axis).  2**16
# intervals resolve peaks far narrower than the 4096-point grid under test.
GRID_POINTS = 2**16 + 1
_THETA = np.linspace(0.0, np.pi, GRID_POINTS)
_CIRCLE = np.exp(1j * _THETA)
REFINE_PEAKS = 8
REFINE_POINTS = 257
REFINE_ROUNDS = 3

# Closed-form gradient rate checks: bisection stops within its tolerance above
# the true boundary; anything below it by more than rounding is unsound.
CLOSED_FORM_ABOVE = 1e-5
CLOSED_FORM_BELOW = 1e-7

# The golden-section stepsize search lands within this of the optimum.
STEPSIZE_SEARCH_TOL = 1e-4

# Simulated rates may exceed the certified one by the fit's slack only.
SIM_SLACK = 0.01


def catalog_controller(family: str, alpha: float, beta: float | None):
    """Numerator and denominator coefficients (ascending powers of z) of the
    catalog controllers, written out from their recursions."""
    a, b = alpha, beta
    if family == "gradient":
        return np.array([-a]), np.array([-1.0, 1.0])
    if family == "heavyball":
        return np.array([0.0, -a]), np.array([b, -(1.0 + b), 1.0])
    if family == "nesterov":
        return np.array([a * b, -a * (1.0 + b)]), np.array([b, -(1.0 + b), 1.0])
    if family == "pid":
        return np.array([a * b, -a * (1.0 + b)]), np.array([0.0, -1.0, 1.0])
    raise ValueError(f"no catalog controller {family!r}")


def shifted_controller(num, den, m: float, L: float):
    """K' = N / (N - 2/(m+L) D), untrimmed and unreduced."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    width = max(num.size, den.size)
    n = np.pad(num, (0, width - num.size))
    d = n - (2.0 / (m + L)) * np.pad(den, (0, width - den.size))
    return n, d


def _gain(n, d, z) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        mags = np.abs(np.polyval(n[::-1], z) / np.polyval(d[::-1], z))
    return np.nan_to_num(mags, nan=np.inf)


def peak_gain(num, den, m: float, L: float, rho: float) -> float:
    """Largest |K'(rho z)| on the dense unit-circle grid, then on finer grids
    around its highest local maxima, so narrow resonances are not
    underestimated."""
    n, d = shifted_controller(num, den, m, L)
    mags = _gain(n, d, rho * _CIRCLE)
    best = float(np.max(mags))
    peaks = np.flatnonzero((mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:])) + 1
    for i in peaks[np.argsort(mags[peaks])[-REFINE_PEAKS:]]:
        lo, hi = _THETA[i - 1], _THETA[i + 1]
        for _ in range(REFINE_ROUNDS):
            theta = np.linspace(lo, hi, REFINE_POINTS)
            local = _gain(n, d, rho * np.exp(1j * theta))
            j = int(np.argmax(local))
            best = max(best, float(local[j]))
            lo, hi = theta[max(j - 1, 0)], theta[min(j + 1, REFINE_POINTS - 1)]
    return best


def refute_certificate(num, den, m: float, L: float, rho: float) -> str | None:
    """A 'certified at rho' verdict stands only if K'(rho z) has every pole
    strictly inside the unit circle and its peak gain on the dense grid stays
    below (L+m)/(L-m)."""
    n, d = shifted_controller(num, den, m, L)
    poles = np.roots(d[::-1])
    if poles.size:
        radius = float(np.max(np.abs(poles)))
        if radius >= rho:
            return f"pole of modulus {radius:.6g} >= rho={rho:.9g}"
    threshold = (L + m) / (L - m)
    gain = peak_gain(num, den, m, L, rho)
    if gain >= threshold:
        return f"dense-grid peak gain {gain:.6g} >= threshold {threshold:.6g} at rho={rho:.9g}"
    return None


def gradient_rate(alpha: float, m: float, L: float) -> float:
    return max(1.0 - alpha * m, alpha * L - 1.0)


def refute_gradient_rate(alpha: float, m: float, L: float, rho_star: float | None) -> str | None:
    """Gradient descent's certified rate is max(1 - alpha m, alpha L - 1) for
    alpha < 2/L, and no rate certifies at or above 2/L."""
    if alpha * L >= 2.0:
        if rho_star is not None:
            return f"certified rho={rho_star:.9g} at alpha={alpha:.6g} >= 2/L"
        return None
    closed = gradient_rate(alpha, m, L)
    if rho_star is None:
        return f"no certificate at alpha={alpha:.6g} < 2/L; closed form {closed:.9g}"
    if rho_star < closed - CLOSED_FORM_BELOW:
        return f"rho={rho_star:.9g} below closed form {closed:.9g} (unsound)"
    if rho_star > closed + CLOSED_FORM_ABOVE:
        return f"rho={rho_star:.9g} above closed form {closed:.9g} beyond tolerance"
    return None


def refute_stepsize_optimum(rho: float, m: float, L: float) -> str | None:
    """The best gradient rate over all stepsizes is (L-m)/(L+m)."""
    best = (L - m) / (L + m)
    if rho < best - CLOSED_FORM_BELOW:
        return f"stepsize search rho={rho:.9g} below the optimum {best:.9g} (unsound)"
    if rho > best + STEPSIZE_SEARCH_TOL:
        return f"stepsize search rho={rho:.9g} misses the optimum {best:.9g}"
    return None


def refute_simulated_rate(rho_hat: float, rho_star: float) -> str | None:
    if not rho_hat <= rho_star + SIM_SLACK:
        return f"simulated rate {rho_hat:.6g} exceeds certified {rho_star:.6g} + {SIM_SLACK}"
    return None


def refute_robustness_order(median_standard: float, median_optimal: float) -> str | None:
    """Under gradient noise the aggressive tuning 2/(L+m) settles at a larger
    residual than 1/L on a badly conditioned quadratic."""
    if not median_optimal > median_standard:
        return (f"alpha=2/(L+m) steady state {median_optimal:.6g} not above "
                f"alpha=1/L steady state {median_standard:.6g}")
    return None
