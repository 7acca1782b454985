"""Controller catalog for first-order optimization methods, and the sector
class S(m, L) they are certified on.

Every catalog controller carries integral action (an exact pole at z = 1):
that is what regulates the gradient to zero at an unknown minimizer.

    gradient    -alpha / (z - 1)
    heavyball   -alpha z / (z^2 - (1+beta) z + beta)
    nesterov    (-alpha (1+beta) z + alpha beta) / (z^2 - (1+beta) z + beta)
    pid         (-alpha (1+beta) z + alpha beta) / (z (z - 1))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    InvalidParameterError,
    UnsupportedFactorizationError,
    UnsupportedPresetError,
    json_block,
    json_keys,
    json_number,
    json_numbers,
)
from .lti import RationalTF
from .polynomials import poly_eval


class Family(str, Enum):
    GRADIENT = "gradient"
    HEAVY_BALL = "heavyball"
    NESTEROV = "nesterov"
    PID = "pid"
    CUSTOM = "custom"


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


def _fmt(x: float) -> str:
    return f"{x:.10g}"


@dataclass(frozen=True)
class MethodSpec:
    """Tagged description of an optimization method."""

    family: Family
    alpha: float | None = None
    beta: float | None = None
    custom_tf: RationalTF | None = None

    def __post_init__(self) -> None:
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        if fam is Family.CUSTOM:
            if self.custom_tf is None:
                raise InvalidParameterError("custom method needs custom_tf")
            if self.alpha is not None or self.beta is not None:
                raise InvalidParameterError("custom method takes no alpha/beta")
            den = self.custom_tf.den
            scale = max(abs(c) for c in den)
            if abs(poly_eval(den, 1.0)) > 1e-9 * scale:
                raise InvalidParameterError(
                    "custom controller needs an exact pole at z = 1 "
                    "(integral action) to regulate to the minimizer"
                )
            return
        if self.custom_tf is not None:
            raise InvalidParameterError(f"{fam.value} method takes no custom_tf")
        if self.alpha is None or not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InvalidParameterError(f"step size alpha must be positive, got {self.alpha}")
        if fam is Family.GRADIENT:
            if self.beta is not None:
                raise InvalidParameterError("gradient descent takes no momentum beta")
        else:
            if self.beta is None or not (0.0 <= self.beta < 1.0):
                raise InvalidParameterError(
                    f"momentum beta must lie in [0, 1), got {self.beta}"
                )

    @property
    def label(self) -> str:
        if self.family is Family.CUSTOM:
            return "custom"
        if self.family is Family.GRADIENT:
            return f"gradient(alpha={_fmt(self.alpha)})"
        return f"{self.family.value}(alpha={_fmt(self.alpha)},beta={_fmt(self.beta)})"


def build_controller(spec: MethodSpec) -> RationalTF:
    """Transfer function of the method's linear part (the per-coordinate
    SISO controller; the simulator replicates it across coordinates)."""
    a, b = spec.alpha, spec.beta
    if spec.family is Family.GRADIENT:
        return RationalTF((-a,), (-1.0, 1.0))
    if spec.family is Family.HEAVY_BALL:
        return RationalTF((0.0, -a), (b, -(1.0 + b), 1.0))
    if spec.family is Family.NESTEROV:
        return RationalTF((a * b, -a * (1.0 + b)), (b, -(1.0 + b), 1.0))
    if spec.family is Family.PID:
        return RationalTF((a * b, -a * (1.0 + b)), (0.0, -1.0, 1.0))
    return spec.custom_tf


GRADIENT_PRESETS = ("standard", "optimal_sector")


def preset(family: Family, m: float, L: float, variant: str = "standard") -> MethodSpec:
    """Standard parameter presets for a sector with bounds 0 < m < L.

    Gradient descent: ``standard`` uses alpha = 1/L, ``optimal_sector`` uses
    alpha = 2/(L+m).  Nesterov: alpha = 1/L with
    beta = (sqrt(L)-sqrt(m))/(sqrt(L)+sqrt(m)), none where that rounds to 1
    (L/m from about 1e32 up).  Heavy ball has no preset here; its usual
    tunings are justified only under assumptions this tool does not
    certify, so alpha and beta must be supplied explicitly.
    """
    SectorClass(m, L)  # raises unless 0 < m < L
    family = Family(family)
    if family is Family.GRADIENT:
        if variant == "standard":
            return MethodSpec(Family.GRADIENT, alpha=1.0 / L)
        if variant == "optimal_sector":
            return MethodSpec(Family.GRADIENT, alpha=2.0 / (L + m))
        raise InvalidParameterError(
            f"unknown gradient preset {variant!r}; choose from {GRADIENT_PRESETS}"
        )
    if family is Family.NESTEROV:
        if variant != "standard":
            raise InvalidParameterError(f"nesterov has a single preset, not {variant!r}")
        beta = (math.sqrt(L) - math.sqrt(m)) / (math.sqrt(L) + math.sqrt(m))
        if beta == 1.0:
            raise UnsupportedPresetError(f"no nesterov preset on S({m:g}, {L:g}): its momentum "
                                         "(sqrt(L)-sqrt(m))/(sqrt(L)+sqrt(m)) rounds to 1")
        return MethodSpec(Family.NESTEROV, alpha=1.0 / L, beta=beta)
    if family is Family.HEAVY_BALL:
        raise UnsupportedPresetError(
            "no heavy-ball preset: its common tunings are only justified for "
            "quadratics, outside what this tool certifies; pass alpha and "
            "beta explicitly"
        )
    raise UnsupportedPresetError(f"no preset defined for family {family.value!r}")


@dataclass(frozen=True)
class FactorForm:
    """Integrator x lag x zero factorization of a catalog controller.

    ``zero_gain`` is the leading coefficient of the controller-zero factor
    (1 + beta for nesterov, 1 elsewhere); without it the zero location alone
    cannot reproduce the original coefficients.
    """

    integrator_gain: float
    lag_pole: float | None
    zero: float | None
    zero_gain: float

    def product(self) -> RationalTF:
        gain, pole = self.integrator_gain, self.lag_pole
        if pole is None:
            return RationalTF((gain,), (-1.0, 1.0))
        # gain/(z-1) times zero_gain*(z-zero)/(z-pole), coefficients multiplied out
        return RationalTF((gain * (-self.zero_gain * self.zero), gain * self.zero_gain),
                          (pole, -1.0 - pole, 1.0))


def factor_controller(spec: MethodSpec) -> FactorForm:
    """Split a catalog controller into integrator and lag/zero factors.

    Gradient descent is the bare integrator -alpha/(z-1).  Heavy ball adds the
    lag z/(z-beta) (zero at the origin); nesterov's lag carries a zero at
    beta/(1+beta) instead, which is what flattens its response near crossover.
    That zero factor (1+beta) z - beta = z + beta (z - 1) is proportional plus
    derivative action: the recursion also feeds back the gradient difference
    -alpha beta (g[k] - g[k-1]).
    """
    if spec.family is Family.GRADIENT:
        return FactorForm(-spec.alpha, None, None, 1.0)
    if spec.family is Family.HEAVY_BALL:
        return FactorForm(-spec.alpha, spec.beta, 0.0, 1.0)
    if spec.family is Family.NESTEROV:
        beta = spec.beta
        return FactorForm(-spec.alpha, beta, beta / (1.0 + beta), 1.0 + beta)
    raise UnsupportedFactorizationError(
        f"no integrator/lag factorization for family {spec.family.value!r}"
    )


_FAMILY_NAMES = {f.value: f for f in Family}


def parse_method(text: str, m: float | None = None, L: float | None = None) -> MethodSpec:
    """Parse a CLI method string, ``family:alpha=..[,beta=..]`` or the preset
    form ``family:preset[=variant]`` (needs the sector bounds m and L), into
    its JSON form and build that with :func:`method_from_json`.  Each
    parameter may appear once; custom controllers need the JSON form."""
    name, _, rest = text.partition(":")
    obj: dict = {"family": name.strip()}
    for token in rest.split(",") if rest else ():
        key, eq, value = token.strip().partition("=")
        if key == "preset" and not eq:
            value = "standard"
        elif not eq:
            raise InvalidParameterError(f"cannot parse method token {token!r}")
        elif key in ("alpha", "beta"):
            try:
                value = float(value)
            except ValueError as exc:
                raise InvalidParameterError(
                    f"bad numeric value in method string: {token!r}"
                ) from exc
        elif key != "preset":
            raise InvalidParameterError(f"unknown method parameter {key!r}")
        if key in obj:
            raise InvalidParameterError(f"method parameter {key!r} given twice in {text!r}")
        obj[key] = value
    if obj["family"] == Family.CUSTOM.value:
        raise InvalidParameterError(
            "custom controllers are accepted through the JSON config only"
        )
    return method_from_json(obj, m, L)


def method_from_json(obj: dict, m: float | None = None, L: float | None = None) -> MethodSpec:
    """Build a MethodSpec from its JSON form.

    Schemas: {"family": str, "preset": str}, {"family": "custom",
    "num": [..], "den": [..]} with coefficient lists in ascending degree,
    and {"family": str, "alpha": num, "beta": num?}; any other key is an
    error.
    """
    with json_block(obj, "method_json block"):
        family = _FAMILY_NAMES.get(obj.get("family"))
        if family is None:
            raise InvalidParameterError(f"unknown method family {obj.get('family')!r}; "
                                        f"choose from {sorted(_FAMILY_NAMES)}")
        if "preset" in obj:
            json_keys(obj, ("family", "preset"),
                      "a method_json block with a preset, which fixes alpha and beta,")
            if m is None or L is None:
                raise InvalidParameterError("preset method forms need the sector bounds m and L")
            return preset(family, m, L, obj["preset"])
        if family is Family.CUSTOM:
            json_keys(obj, ("family", "num", "den"), "a custom method_json block")
            tf = RationalTF(json_numbers(obj["num"], "num"), json_numbers(obj["den"], "den"))
            return MethodSpec(Family.CUSTOM, custom_tf=tf)
        json_keys(obj, ("family", "alpha", "beta"), f"a {family.value} method_json block")
        params = {key: json_number(obj[key], key) for key in ("alpha", "beta") if key in obj}
        return MethodSpec(family, **params)
