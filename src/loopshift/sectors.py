"""Sector classes, gradient oracles with known minimizers, and the plant maps
used in the feedback interconnection.

A gradient map g belongs to the sector S(m, L) relative to its stationary
point when (g(x) - m(x-x*)) . (L(x-x*) - g(x)) >= 0 for all x.  Oracles here
are built so membership holds by construction: quadratics with eigenvalues in
[m, L], and continuous piecewise-linear scalar gradients whose segment slopes
stay in [m, L] (chord slopes then stay in [m, L] as well, and such functions
need not look anything like a convex quadratic).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, json_block, json_number, json_numbers


@dataclass(frozen=True)
class SectorClass:
    """Sector bounds 0 < m < L and the constants derived from them."""

    m: float
    L: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and math.isfinite(self.L) and 0.0 < self.m < self.L):
            # m = 0 is rejected on purpose: the certification threshold
            # (L+m)/(L-m) collapses to 1 there and no finite-rate statement
            # survives.
            raise InvalidParameterError(
                f"sector needs 0 < m < L, got m={self.m}, L={self.L}"
            )

    @property
    def kappa(self) -> float:
        return self.L / self.m

    @property
    def sector_gain(self) -> float:
        """Gain bound of the loop-shifted plant, (L-m)/(L+m) in (0, 1)."""
        return (self.L - self.m) / (self.L + self.m)

    @property
    def threshold(self) -> float:
        """Small-gain certification threshold (L+m)/(L-m) > 1."""
        return (self.L + self.m) / (self.L - self.m)

    @property
    def shift(self) -> float:
        """Loop-shift coefficient 2/(L+m)."""
        return 2.0 / (self.L + self.m)


class GradientOracle(ABC):
    """Evaluatable gradient of a function with a known stationary point.

    ``centered_grad(u)`` returns the gradient at ``xstar + u`` and maps 0 to 0
    exactly, which is what the feedback plant needs.
    """

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @property
    @abstractmethod
    def xstar(self) -> np.ndarray: ...

    @property
    @abstractmethod
    def kind(self) -> str: ...

    @abstractmethod
    def centered_grad(self, u: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def lies_in(self, sector: SectorClass) -> bool:
        """Analytic membership check from the oracle's construction data."""

    @abstractmethod
    def translated(self, t) -> "GradientOracle":
        """Same function with the stationary point moved by ``t``."""

    @abstractmethod
    def describe(self) -> str: ...

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise InvalidParameterError(
                f"gradient oracle has dimension {self.dim}, got point of shape {x.shape}"
            )
        return self.centered_grad(x - self.xstar)


def _as_xstar(xstar, dim: int) -> np.ndarray:
    if xstar is None:
        return np.zeros(dim)
    out = np.atleast_1d(np.asarray(xstar, dtype=float))
    if out.shape != (dim,):
        raise InvalidParameterError(f"xstar must have shape ({dim},), got {out.shape}")
    return out


class QuadraticOracle(GradientOracle):
    """Gradient of 0.5 (x - x*)^T Q (x - x*) with prescribed eigenvalues and
    an optional orthogonal rotation."""

    def __init__(self, eigenvalues, rotation: np.ndarray | None = None, xstar=None):
        eigs = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
        if eigs.ndim != 1 or eigs.size == 0 or not np.all((eigs > 0.0) & np.isfinite(eigs)):
            raise InvalidParameterError("eigenvalues must be a nonempty positive finite vector")
        self._eigs = eigs
        if rotation is not None:
            rotation = np.asarray(rotation, dtype=float)
            if rotation.shape != (eigs.size, eigs.size):
                raise InvalidParameterError("rotation shape does not match eigenvalues")
            if not np.allclose(rotation @ rotation.T, np.eye(eigs.size), atol=1e-8):
                raise InvalidParameterError("rotation must be orthogonal")
        self._rot = rotation
        self._xstar = _as_xstar(xstar, eigs.size)

    @property
    def dim(self) -> int:
        return self._eigs.size

    @property
    def xstar(self) -> np.ndarray:
        return self._xstar

    @property
    def kind(self) -> str:
        return "quadratic"

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigs

    def centered_grad(self, u: np.ndarray) -> np.ndarray:
        if self._rot is None:
            return self._eigs * u
        return self._rot.T @ (self._eigs * (self._rot @ u))

    def lies_in(self, sector: SectorClass) -> bool:
        return bool(self._eigs.min() >= sector.m and self._eigs.max() <= sector.L)

    def translated(self, t) -> "QuadraticOracle":
        return QuadraticOracle(self._eigs, self._rot, self._xstar + np.asarray(t, dtype=float))

    def describe(self) -> str:
        tag = "quadratic:" + ",".join(f"{v:.10g}" for v in self._eigs)
        return tag + ("(rotated)" if self._rot is not None else "")


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """Deterministic random orthogonal matrix (QR of seeded Gaussians with a
    fixed sign convention)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


class PiecewiseLinearOracle(GradientOracle):
    """Scalar gradient that is continuous piecewise linear with g(0) = 0.

    Segment j has slope ``slopes[j]`` on [breakpoints[j], breakpoints[j+1]);
    the last slope extends to infinity and the odd extension g(-u) = -g(u)
    covers negative inputs.  The gradient is continuous but kinks at the
    breakpoints, so the underlying function is once but not twice
    differentiable there.
    """

    def __init__(self, breakpoints, slopes, xstar=None):
        bp = np.atleast_1d(np.asarray(breakpoints, dtype=float))
        sl = np.atleast_1d(np.asarray(slopes, dtype=float))
        if bp.size == 0 or bp[0] != 0.0:
            raise InvalidParameterError("breakpoints must start at 0")
        if bp.size != sl.size:
            raise InvalidParameterError("need one slope per breakpoint")
        if not np.all(np.diff(bp) > 0.0) or not np.isfinite(bp[-1]):
            raise InvalidParameterError("breakpoints must be finite and strictly increasing")
        if np.any(sl <= 0.0) or not np.all(np.isfinite(sl)):
            raise InvalidParameterError("slopes must be positive and finite")
        self._bp = bp
        self._slopes = sl
        vals = np.zeros(bp.size)
        for i in range(1, bp.size):
            vals[i] = vals[i - 1] + sl[i - 1] * (bp[i] - bp[i - 1])
        self._vals = vals
        self._xstar = _as_xstar(xstar, 1)

    @property
    def dim(self) -> int:
        return 1

    @property
    def xstar(self) -> np.ndarray:
        return self._xstar

    @property
    def kind(self) -> str:
        return "pwl"

    @property
    def slopes(self) -> np.ndarray:
        return self._slopes

    def _g(self, u: float) -> float:
        if u == 0.0:
            return 0.0
        sign = 1.0 if u > 0.0 else -1.0
        a = abs(u)
        i = int(np.searchsorted(self._bp, a, side="right")) - 1
        return sign * (self._vals[i] + self._slopes[i] * (a - self._bp[i]))

    def centered_grad(self, u: np.ndarray) -> np.ndarray:
        return np.array([self._g(float(u[0]))])

    def lies_in(self, sector: SectorClass) -> bool:
        return bool(self._slopes.min() >= sector.m and self._slopes.max() <= sector.L)

    def translated(self, t) -> "PiecewiseLinearOracle":
        return PiecewiseLinearOracle(self._bp, self._slopes, self._xstar + np.asarray(t, dtype=float))

    def describe(self) -> str:
        return "pwl:" + ",".join(
            f"{b:.10g}:{s:.10g}" for b, s in zip(self._bp, self._slopes)
        )


class SeparableOracle(GradientOracle):
    """Coordinate-wise composition of scalar oracles."""

    def __init__(self, components, xstar=None):
        components = tuple(components)
        if not components:
            raise InvalidParameterError("separable oracle needs at least one component")
        for comp in components:
            if comp.dim != 1:
                raise InvalidParameterError("separable components must be scalar oracles")
        self._components = components
        self._xstar = _as_xstar(xstar, len(components))

    @property
    def dim(self) -> int:
        return len(self._components)

    @property
    def xstar(self) -> np.ndarray:
        return self._xstar

    @property
    def kind(self) -> str:
        return "separable"

    def centered_grad(self, u: np.ndarray) -> np.ndarray:
        return np.array(
            [comp.centered_grad(u[i : i + 1])[0] for i, comp in enumerate(self._components)]
        )

    def lies_in(self, sector: SectorClass) -> bool:
        return all(comp.lies_in(sector) for comp in self._components)

    def translated(self, t) -> "SeparableOracle":
        return SeparableOracle(self._components, self._xstar + np.asarray(t, dtype=float))

    def describe(self) -> str:
        return "sep(" + ";".join(c.describe() for c in self._components) + ")"


def sector_check(u, v, sector: SectorClass) -> bool:
    """Membership test for the pair (u, v): (v - m u) . (L u - v) >= -tol with
    a tolerance that scales with the squared magnitudes, since an absolute
    tolerance misfires far from the origin."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if u.shape != v.shape:
        raise InvalidParameterError("sector check needs equal-dimension points")
    tol = 1e-9 * (1.0 + float(u @ u) + float(v @ v))
    return bool(float((v - sector.m * u) @ (sector.L * u - v)) >= -tol)


def shifted_plant_apply(oracle: GradientOracle, sector: SectorClass, u) -> np.ndarray:
    """Loop-shifted plant u - (2/(L+m)) grad(u + xstar); centering the sector
    this way bounds its gain by (L-m)/(L+m)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (oracle.dim,):
        raise InvalidParameterError(f"expected shape ({oracle.dim},), got {u.shape}")
    return u - sector.shift * oracle.centered_grad(u)


def sector_membership_sampled(oracle: GradientOracle, sector: SectorClass,
                              samples: int = 10_000, radius: float = 10.0,
                              seed: int = 0) -> bool:
    """Sampled sector membership at ``samples`` random points around xstar."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        u = radius * rng.standard_normal(oracle.dim)
        if not sector_check(u, oracle.centered_grad(u), sector):
            return False
    return True


def parse_oracle(text: str) -> GradientOracle:
    """Parse a CLI oracle string: ``quadratic:1,10`` (eigenvalues) or
    ``pwl:0:1,1:10`` (breakpoint:slope pairs)."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    try:
        if kind == "quadratic":
            return QuadraticOracle([float(tok) for tok in rest.split(",") if tok])
        if kind == "pwl":
            pairs = [tok.split(":") for tok in rest.split(",") if tok]
            if any(len(p) != 2 for p in pairs):
                raise InvalidParameterError(f"bad pwl oracle string {text!r}")
            return PiecewiseLinearOracle(
                [float(p[0]) for p in pairs], [float(p[1]) for p in pairs]
            )
    except ValueError as exc:
        raise InvalidParameterError(f"bad numeric value in oracle string {text!r}") from exc
    raise InvalidParameterError(
        f"unknown oracle kind {kind!r}; choose 'quadratic' or 'pwl'"
    )


def oracle_from_json(obj: dict) -> GradientOracle:
    """Build an oracle from its JSON form.

    Schemas: {"kind": "quadratic", "eigenvalues": [..], "xstar": [..]?,
    "rotation_seed": int?}, {"kind": "pwl", "breakpoints": [..],
    "slopes": [..], "xstar": num?}, and {"kind": "separable",
    "components": [..], "xstar": [..]?}.
    """
    with json_block(obj, "oracle_json block"):
        kind = obj.get("kind")
        if kind == "quadratic":
            eigs = json_numbers(obj["eigenvalues"], "eigenvalues")
            rotation = None
            if "rotation_seed" in obj:
                seed = json_number(obj["rotation_seed"], "rotation_seed", int)
                rotation = random_rotation(len(eigs), seed)
            return QuadraticOracle(eigs, rotation, obj.get("xstar"))
        if kind == "pwl":
            return PiecewiseLinearOracle(json_numbers(obj["breakpoints"], "breakpoints"),
                                         json_numbers(obj["slopes"], "slopes"), obj.get("xstar"))
        if kind == "separable":
            comps = [oracle_from_json(c) for c in obj["components"]]
            return SeparableOracle(comps, obj.get("xstar"))
        raise InvalidParameterError(f"unknown oracle kind {kind!r}")
