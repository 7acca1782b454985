"""Gradient oracles with known minimizers, and the plant map used in the
feedback interconnection.  :class:`SectorClass` lives in :mod:`methods`,
which needs no numpy, and is re-exported here.

A gradient map g belongs to the sector S(m, L) relative to its stationary
point when (g(x) - m(x-x*)) . (L(x-x*) - g(x)) >= 0 for all x.  Oracles here
are built so membership holds by construction: quadratics with eigenvalues in
[m, L], and continuous piecewise-linear scalar gradients whose segment slopes
stay in [m, L] (chord slopes then stay in [m, L] as well, and such functions
need not look anything like a convex quadratic).

Scalar and separable piecewise-linear oracles share one evaluator,
:func:`_piecewise_grad`, which takes a point's coordinates one Python float at
a time: the simulator hands it one point per step, where numpy's per-call cost
on a few elements outweighs the arithmetic.  Beside it,
:func:`_integrator_states` steps a whole integrator run on these oracles in
Python floats with the same arithmetic, for the simulator's single runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from bisect import bisect_right
from math import copysign

import numpy as np

from .errors import InvalidParameterError, json_block, json_keys, json_number, json_numbers
from .methods import SectorClass


class GradientOracle(ABC):
    """Evaluatable gradient of a function with a known stationary point.

    ``centered_grad(u)`` returns the gradient at ``xstar + u`` and maps 0 to 0
    exactly, which is what the feedback plant needs.  It takes ``u`` of shape
    ``(..., dim)``: the last axis is the coordinate and any leading axes index
    independent points, so one call evaluates a whole batch; each point gets
    the same arithmetic as it would alone.  ``dim``, ``xstar`` (shape
    ``(dim,)``) and ``kind`` are plain attributes; the constructors' ``xstar=``
    places the stationary point.
    """

    dim: int
    xstar: np.ndarray
    kind: str

    @abstractmethod
    def centered_grad(self, u: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def lies_in(self, sector: SectorClass) -> bool:
        """Analytic membership check from the oracle's construction data."""

    @abstractmethod
    def describe(self) -> str: ...

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.centered_grad(_point(x, self.dim, "x") - self.xstar)


def _point(value, dim: int, name: str) -> np.ndarray:
    """``value`` as a float point of shape (dim,), a scalar counting as (1,)."""
    out = np.atleast_1d(np.asarray(value, dtype=float))
    if out.shape != (dim,):
        raise InvalidParameterError(f"{name} must have shape ({dim},), got {out.shape}")
    return out


def _as_xstar(xstar, dim: int) -> np.ndarray:
    if xstar is None:
        return np.zeros(dim)
    out = _point(xstar, dim, "xstar")
    if not np.all(np.isfinite(out)):
        raise InvalidParameterError(f"xstar must be finite, got {xstar!r}")
    return out


class QuadraticOracle(GradientOracle):
    """Gradient of 0.5 (x - x*)^T Q (x - x*) with prescribed eigenvalues and
    an optional orthogonal rotation."""

    kind = "quadratic"

    def __init__(self, eigenvalues, rotation: np.ndarray | None = None, xstar=None):
        eigs = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
        if eigs.ndim != 1 or eigs.size == 0 or not np.all((eigs > 0.0) & np.isfinite(eigs)):
            raise InvalidParameterError("eigenvalues must be a nonempty positive finite vector")
        if rotation is not None:
            rotation = np.asarray(rotation, dtype=float)
            if rotation.shape != (eigs.size, eigs.size):
                raise InvalidParameterError("rotation shape does not match eigenvalues")
            if not np.allclose(rotation @ rotation.T, np.eye(eigs.size), atol=1e-8):
                raise InvalidParameterError("rotation must be orthogonal")
        self.eigenvalues = eigs
        self._rot = rotation
        self.dim = eigs.size
        self.xstar = _as_xstar(xstar, eigs.size)

    def centered_grad(self, u: np.ndarray) -> np.ndarray:
        if self._rot is None:
            return self.eigenvalues * u
        # row form: (R^T diag(eigs) R u)^T = ((u^T R^T) * eigs) R, per point.  A
        # batch goes as a stack of single rows: BLAS may round a product of
        # whole matrices unlike the same rows one at a time.
        rows = u if u.ndim == 1 else u[..., None, :]
        out = ((rows @ self._rot.T) * self.eigenvalues) @ self._rot
        return out if u.ndim == 1 else out[..., 0, :]

    def lies_in(self, sector: SectorClass) -> bool:
        return bool(self.eigenvalues.min() >= sector.m and self.eigenvalues.max() <= sector.L)

    def describe(self) -> str:
        tag = "quadratic:" + ",".join(f"{v:.10g}" for v in self.eigenvalues)
        return tag + ("(rotated)" if self._rot is not None else "")


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """Deterministic random orthogonal matrix (QR of seeded Gaussians with a
    fixed sign convention)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def _piecewise_grad(u: np.ndarray, pieces) -> np.ndarray:
    """Odd continuous piecewise-linear gradients of the coordinates of ``u``,
    shape (..., len(pieces)), one Python float at a time.

    ``pieces`` holds one (upper, breakpoints, values, slopes) tuple of lists
    per coordinate: breakpoints start at 0, ``upper`` is the breakpoints after
    0, and values are the gradient at each breakpoint.  The piece holding |u|
    is the count of ``upper`` at or below it, and the result is
    copysign(values[i] + slopes[i] (|u| - breakpoints[i]), u), so -0.0 maps to
    -0.0, +-inf to +-inf and NaN to NaN.  A single point, shape (dim,), is
    read and built as it is; a batch goes through rows of shape (-1, dim).
    """
    if u.shape[-1:] != (len(pieces),):
        raise InvalidParameterError(f"expected shape (..., {len(pieces)}), got {u.shape}")
    single = u.ndim == 1
    out = []
    for row in [u.tolist()] if single else u.reshape(-1, len(pieces)).tolist():
        for x, (upper, bp, vals, slopes) in zip(row, pieces):
            a = abs(x)
            i = bisect_right(upper, a)
            out.append(copysign(vals[i] + slopes[i] * (a - bp[i]), x))
    return np.array(out) if single else np.array(out).reshape(u.shape)


def _integrator_states(oracle: GradientOracle, c: float, s0: list, iters: int,
                       noise: np.ndarray | None) -> array:
    """The states s[0..iters] of one run of an integrator with output gain
    ``c`` on a :class:`PiecewiseLinearOracle` or :class:`SeparableOracle`,
    from the start state ``s0`` (a list, one float per coordinate), in one
    ``array('d')`` of (iters+1)*dim floats.  Each step makes one pass per
    coordinate in Python floats:

        u = 0.0 + c s,   g = copysign(vals[i] + slopes[i] (|u| - bp[i]), u),
        g += noise[k][j],   s += g,

    the gradient being :func:`_piecewise_grad`'s arithmetic for that
    coordinate.  The noise, shape (iters, dim) or None, is read one row per
    step.
    """
    s = list(s0)
    states = array("d")
    coords = tuple(enumerate(oracle._pieces))
    for k in range(iters):
        states.extend(s)
        row = None if noise is None else noise[k].tolist()
        for j, (upper, bp, vals, slopes) in coords:
            x = s[j]
            u = 0.0 + c * x
            a = abs(u)
            i = bisect_right(upper, a)
            g = copysign(vals[i] + slopes[i] * (a - bp[i]), u)
            if row is not None:
                g += row[j]
            s[j] = x + g
    states.extend(s)
    return states


class PiecewiseLinearOracle(GradientOracle):
    """Scalar gradient that is continuous piecewise linear with g(0) = 0.

    Segment j has slope ``slopes[j]`` on [breakpoints[j], breakpoints[j+1]);
    the last slope extends to infinity and the odd extension g(-u) = -g(u)
    covers negative inputs.  The gradient is continuous but kinks at the
    breakpoints, so the underlying function is once but not twice
    differentiable there.
    """

    kind = "pwl"
    dim = 1

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
        self.slopes = sl
        bps, sls = bp.tolist(), sl.tolist()
        vals = [0.0]
        for lo, hi, slope in zip(bps, bps[1:], sls):
            vals.append(vals[-1] + slope * (hi - lo))
        self._pieces = ((bps[1:], bps, vals, sls),)
        self.xstar = _as_xstar(xstar, 1)

    def centered_grad(self, u: np.ndarray) -> np.ndarray:
        return _piecewise_grad(u, self._pieces)

    def lies_in(self, sector: SectorClass) -> bool:
        return bool(self.slopes.min() >= sector.m and self.slopes.max() <= sector.L)

    def describe(self) -> str:
        _, bps, _, slopes = self._pieces[0]
        return "pwl:" + ",".join(f"{b:.10g}:{s:.10g}" for b, s in zip(bps, slopes))


def _scalar_pieces(oracle: GradientOracle) -> tuple[list, list, list, list]:
    """A scalar oracle's odd piecewise-linear gradient in the form
    :func:`_piecewise_grad` takes; a scalar quadratic is one piece of slope
    lambda (and 0 + lambda (|u| - 0) carries the sign exactly as lambda u
    does)."""
    if not isinstance(oracle, (PiecewiseLinearOracle, QuadraticOracle, SeparableOracle)):
        raise InvalidParameterError(
            "separable components must be quadratic, pwl or separable oracles"
        )
    if oracle.dim != 1:
        raise InvalidParameterError("separable components must be scalar oracles")
    if isinstance(oracle, QuadraticOracle):
        return [], [0.0], [0.0], oracle.eigenvalues.tolist()
    return oracle._pieces[0]


class SeparableOracle(GradientOracle):
    """Coordinate-wise composition of scalar oracles, each coordinate
    evaluated from its component's piecewise-linear pieces."""

    kind = "separable"

    def __init__(self, components, xstar=None):
        components = tuple(components)
        if not components:
            raise InvalidParameterError("separable oracle needs at least one component")
        self._pieces = tuple(_scalar_pieces(comp) for comp in components)
        self._components = components
        self.dim = len(components)
        self.xstar = _as_xstar(xstar, len(components))

    def centered_grad(self, u: np.ndarray) -> np.ndarray:
        return _piecewise_grad(u, self._pieces)

    def lies_in(self, sector: SectorClass) -> bool:
        return all(comp.lies_in(sector) for comp in self._components)

    def describe(self) -> str:
        return "sep(" + ";".join(c.describe() for c in self._components) + ")"


def shifted_plant_apply(oracle: GradientOracle, sector: SectorClass, u) -> np.ndarray:
    """Loop-shifted plant u - (2/(L+m)) grad(u + xstar); centering the sector
    this way bounds its gain by (L-m)/(L+m).  Batches like ``centered_grad``."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape[-1] != oracle.dim:
        raise InvalidParameterError(f"expected shape (..., {oracle.dim}), got {u.shape}")
    return u - sector.shift * oracle.centered_grad(u)


def parse_oracle(text: str) -> GradientOracle:
    """Parse a CLI oracle string, ``quadratic:1,10`` (eigenvalues) or
    ``pwl:0:1,1:10`` (breakpoint:slope pairs), into its JSON form and build
    that with :func:`oracle_from_json`."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in ("quadratic", "pwl"):
        raise InvalidParameterError(f"unknown oracle kind {kind!r}; choose 'quadratic' or 'pwl'")
    tokens = [tok.split(":") for tok in rest.split(",") if tok]
    try:
        if kind == "quadratic":
            obj = {"kind": kind, "eigenvalues": [float(value) for value, in tokens]}
        else:
            obj = {"kind": kind, "breakpoints": [float(bp) for bp, _ in tokens],
                   "slopes": [float(slope) for _, slope in tokens]}
    except ValueError as exc:
        raise InvalidParameterError(f"bad oracle string {text!r}: {exc}") from exc
    return oracle_from_json(obj)


_ORACLE_KEYS = {
    "quadratic": ("kind", "eigenvalues", "xstar", "rotation_seed"),
    "pwl": ("kind", "breakpoints", "slopes", "xstar"),
    "separable": ("kind", "components", "xstar"),
}


def oracle_from_json(obj: dict) -> GradientOracle:
    """Build an oracle from its JSON form.

    Schemas: {"kind": "quadratic", "eigenvalues": [..], "xstar": [..]?,
    "rotation_seed": int?}, {"kind": "pwl", "breakpoints": [..],
    "slopes": [..], "xstar": num?}, and {"kind": "separable",
    "components": [..], "xstar": [..]?}; any other key is an error, and
    ``xstar``, like every other number, must be a finite JSON number.
    """
    with json_block(obj, "oracle_json block"):
        kind = obj.get("kind")
        if kind in _ORACLE_KEYS:
            json_keys(obj, _ORACLE_KEYS[kind], f"a {kind} oracle_json block")
        xstar = obj.get("xstar")
        if xstar is not None:
            xstar = (json_number if kind == "pwl" else json_numbers)(xstar, "xstar")
        if kind == "quadratic":
            eigs = json_numbers(obj["eigenvalues"], "eigenvalues")
            rotation = None
            if "rotation_seed" in obj:
                seed = json_number(obj["rotation_seed"], "rotation_seed", int)
                rotation = random_rotation(len(eigs), seed)
            return QuadraticOracle(eigs, rotation, xstar)
        if kind == "pwl":
            return PiecewiseLinearOracle(json_numbers(obj["breakpoints"], "breakpoints"),
                                         json_numbers(obj["slopes"], "slopes"), xstar)
        if kind == "separable":
            comps = [oracle_from_json(c) for c in obj["components"]]
            return SeparableOracle(comps, xstar)
        raise InvalidParameterError(f"unknown oracle kind {kind!r}")
