"""loopshift: first-order optimization methods as discrete-time feedback
controllers, with worst-case convergence-rate certification over
sector-bounded gradients, loop-shaping diagnostics, and simulation
cross-checks.

The certificate layers and ``bode`` import without numpy.  Names from
``sectors`` and ``simulate``, which do array work, load their module on
first access (PEP 562), and so do the names from ``bode``, whose module body
takes a few milliseconds to import that other commands need not pay.
"""

import importlib

from .certify import (
    RateCertificate,
    RateSearchResult,
    TwoParamResult,
    bisect_rate,
    certified_rate_curve,
    certify_rate,
    complementary_sensitivity,
    loop_shift,
    search_stepsize,
    search_two_param,
)
from .errors import (
    ImproperShiftError,
    InsufficientDataError,
    InvalidParameterError,
    LoopShiftError,
    NoCertificateError,
    UnsupportedFactorizationError,
    UnsupportedPresetError,
)
from .lti import (
    RationalTF,
    freq_response,
    tf_arg_scale,
)
from .methods import (
    FactorForm,
    Family,
    MethodSpec,
    SectorClass,
    build_controller,
    factor_controller,
    method_from_json,
    parse_method,
    preset,
)
from .polynomials import poly_eval, poly_roots

_LAZY = {name: module for module, names in (
    ("bode", ("FrequencyRow", "GainMetrics", "bode_csv_text", "bode_svg_text", "bode_table",
              "crossover_frequency", "gain_metrics")),
    ("sectors", ("GradientOracle", "PiecewiseLinearOracle", "QuadraticOracle", "SeparableOracle",
                 "oracle_from_json", "parse_oracle", "random_rotation", "shifted_plant_apply")),
    ("simulate", ("NoiseRobustnessReport", "RateEstimate", "Trajectory", "estimate_rate",
                  "noise_robustness_experiment", "simulate_run", "simulate_shifted_run",
                  "trajectory_csv_text")),
) for name in names}


def __getattr__(name: str):
    """Load a name of a lazy layer, or the layer itself, on first use."""
    if name in ("bode", "sectors", "simulate"):
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "FrequencyRow", "GainMetrics", "bode_csv_text", "bode_svg_text",
    "bode_table", "crossover_frequency", "gain_metrics",
    "RateCertificate", "RateSearchResult", "TwoParamResult", "bisect_rate",
    "certified_rate_curve", "certify_rate", "complementary_sensitivity",
    "loop_shift", "search_stepsize", "search_two_param",
    "ImproperShiftError", "InsufficientDataError", "InvalidParameterError",
    "LoopShiftError", "NoCertificateError", "UnsupportedFactorizationError",
    "UnsupportedPresetError",
    "RationalTF", "freq_response", "tf_arg_scale",
    "FactorForm", "Family", "MethodSpec", "build_controller",
    "factor_controller", "method_from_json", "parse_method", "preset",
    "poly_eval", "poly_roots",
    "GradientOracle", "PiecewiseLinearOracle", "QuadraticOracle",
    "SectorClass", "SeparableOracle", "oracle_from_json",
    "parse_oracle", "random_rotation", "shifted_plant_apply",
    "NoiseRobustnessReport", "RateEstimate", "Trajectory", "estimate_rate",
    "noise_robustness_experiment", "simulate_run", "simulate_shifted_run",
    "trajectory_csv_text",
]
