"""Controller catalog for first-order optimization methods.

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
    json_number,
    json_numbers,
)
from .lti import RationalTF, tf_allclose, tf_mul
from .polynomials import poly_eval


class Family(str, Enum):
    GRADIENT = "gradient"
    HEAVY_BALL = "heavyball"
    NESTEROV = "nesterov"
    PID = "pid"
    CUSTOM = "custom"


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
            if not all(map(math.isfinite, self.custom_tf.num.coeffs + den.coeffs)):
                raise InvalidParameterError("custom controller coefficients must be finite")
            scale = max(abs(c) for c in den.coeffs)
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
    beta = (sqrt(L)-sqrt(m))/(sqrt(L)+sqrt(m)).  Heavy ball has no preset
    here; its usual tunings are justified only under assumptions this tool
    does not certify, so alpha and beta must be supplied explicitly.
    """
    if not (math.isfinite(m) and math.isfinite(L) and 0.0 < m < L):
        raise InvalidParameterError(f"need 0 < m < L, got m={m}, L={L}")
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
    residual: RationalTF

    def product(self) -> RationalTF:
        out = RationalTF((self.integrator_gain,), (-1.0, 1.0))
        if self.lag_pole is not None:
            factor = RationalTF(
                (-self.zero_gain * self.zero, self.zero_gain),
                (-self.lag_pole, 1.0),
            )
            out = tf_mul(out, factor)
        return tf_mul(out, self.residual)


def factor_controller(spec: MethodSpec) -> FactorForm:
    """Split a catalog controller into integrator and lag/zero factors.

    Gradient descent is the bare integrator -alpha/(z-1).  Heavy ball adds the
    lag z/(z-beta) (zero at the origin); nesterov's lag carries a zero at
    beta/(1+beta) instead, which is what flattens its response near crossover.
    """
    one = RationalTF((1.0,), (1.0,))
    if spec.family is Family.GRADIENT:
        return FactorForm(-spec.alpha, None, None, 1.0, one)
    if spec.family is Family.HEAVY_BALL:
        return FactorForm(-spec.alpha, spec.beta, 0.0, 1.0, one)
    if spec.family is Family.NESTEROV:
        beta = spec.beta
        return FactorForm(-spec.alpha, beta, beta / (1.0 + beta), 1.0 + beta, one)
    raise UnsupportedFactorizationError(
        f"no integrator/lag factorization for family {spec.family.value!r}"
    )


def nesterov_derivative_tf(alpha: float, beta: float) -> RationalTF:
    """Transfer function read off the gradient-difference rewrite of the
    nesterov recursion:

        y[k+1] = y[k] + beta (y[k] - y[k-1]) - alpha g[k]
                 - alpha beta (g[k] - g[k-1])

    The trailing term differences the plant output, i.e. derivative action.
    """
    out_taps = (1.0 + beta, -beta)                     # y[k], y[k-1]
    in_taps = (-alpha * (1.0 + beta), alpha * beta)    # g[k], g[k-1]
    den = (-out_taps[1], -out_taps[0], 1.0)
    num = (in_taps[1], in_taps[0])
    return RationalTF(num, den)


def derivative_form_check(spec: MethodSpec) -> bool:
    """Verify coefficient-wise that the catalog nesterov controller matches
    the derivative-control rewrite of the recursion."""
    if spec.family is not Family.NESTEROV:
        raise InvalidParameterError("derivative form check applies to nesterov only")
    return tf_allclose(
        build_controller(spec),
        nesterov_derivative_tf(spec.alpha, spec.beta),
        rtol=1e-12,
    )


_FAMILY_NAMES = {f.value: f for f in Family}


def parse_method(text: str, m: float | None = None, L: float | None = None) -> MethodSpec:
    """Parse a CLI method string: ``family:alpha=..[,beta=..]``, or a preset
    form ``family:preset[=variant]`` (needs the sector bounds m and L)."""
    name, _, rest = text.partition(":")
    family = _FAMILY_NAMES.get(name.strip())
    if family is None:
        raise InvalidParameterError(
            f"unknown method family {name!r}; choose from {sorted(_FAMILY_NAMES)}"
        )
    params: dict[str, float] = {}
    variant = None
    if rest:
        for token in rest.split(","):
            token = token.strip()
            if token == "preset":
                variant = "standard"
            elif "=" in token:
                key, _, value = token.partition("=")
                if key == "preset":
                    variant = value
                elif key in ("alpha", "beta"):
                    try:
                        params[key] = float(value)
                    except ValueError as exc:
                        raise InvalidParameterError(
                            f"bad numeric value in method string: {token!r}"
                        ) from exc
                else:
                    raise InvalidParameterError(f"unknown method parameter {key!r}")
            else:
                raise InvalidParameterError(f"cannot parse method token {token!r}")
    if variant is not None:
        if m is None or L is None:
            raise InvalidParameterError(
                "preset method forms need the sector bounds m and L"
            )
        return preset(family, m, L, variant)
    if family is Family.CUSTOM:
        raise InvalidParameterError(
            "custom controllers are accepted through the JSON config only"
        )
    return MethodSpec(family, alpha=params.get("alpha"), beta=params.get("beta"))


def method_from_json(obj: dict, m: float | None = None, L: float | None = None) -> MethodSpec:
    """Build a MethodSpec from its JSON form.

    Schema: {"family": str, "alpha": num?, "beta": num?, "preset": str?,
    "num": [..]?, "den": [..]?} with num/den coefficient lists (ascending
    degree) for custom controllers.
    """
    with json_block(obj, "method_json block"):
        family = _FAMILY_NAMES.get(obj.get("family"))
        if family is None:
            raise InvalidParameterError(f"unknown method family {obj.get('family')!r}")
        if "preset" in obj:
            if m is None or L is None:
                raise InvalidParameterError("preset method forms need m and L")
            return preset(family, m, L, obj["preset"])
        if family is Family.CUSTOM:
            tf = RationalTF(json_numbers(obj["num"], "num"), json_numbers(obj["den"], "den"))
            return MethodSpec(Family.CUSTOM, custom_tf=tf)
        params = {key: json_number(obj[key], key) for key in ("alpha", "beta") if key in obj}
        return MethodSpec(family, **params)
