"""loopshift: first-order optimization methods as discrete-time feedback
controllers, with worst-case convergence-rate certification over
sector-bounded gradients, loop-shaping diagnostics, and simulation
cross-checks."""

from .bode import (
    FrequencyRow,
    GainMetrics,
    bode_csv_text,
    bode_svg_text,
    bode_table,
    crossover_frequency,
    gain_metrics,
)
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
    UnstableSystemError,
    UnsupportedFactorizationError,
    UnsupportedPresetError,
)
from .lti import (
    RationalTF,
    StateSpace,
    constant_tf,
    freq_response,
    freq_response_many,
    hinf_peak,
    impulse_series,
    poles,
    realize,
    stability_radius,
    tf_add,
    tf_allclose,
    tf_arg_scale,
    tf_mul,
    tf_reduce,
    tf_sub,
    verify_realization,
)
from .methods import (
    FactorForm,
    Family,
    MethodSpec,
    build_controller,
    derivative_form_check,
    factor_controller,
    method_from_json,
    nesterov_derivative_tf,
    parse_method,
    preset,
)
from .polynomials import (
    Polynomial,
    poly_add,
    poly_arg_scale,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_roots,
    poly_scale,
    poly_sub,
)
from .sectors import (
    GradientOracle,
    PiecewiseLinearOracle,
    QuadraticOracle,
    SectorClass,
    SeparableOracle,
    oracle_from_json,
    parse_oracle,
    random_rotation,
    sector_check,
    sector_membership_sampled,
    shifted_plant_apply,
)
from .simulate import (
    NoiseRobustnessReport,
    RateEstimate,
    Trajectory,
    estimate_rate,
    noise_robustness_experiment,
    simulate_run,
    simulate_shifted_run,
    trajectory_csv_text,
)

__version__ = "0.1.0"

__all__ = [
    "FrequencyRow", "GainMetrics", "bode_csv_text", "bode_svg_text",
    "bode_table", "crossover_frequency", "gain_metrics",
    "RateCertificate", "RateSearchResult", "TwoParamResult", "bisect_rate",
    "certified_rate_curve", "certify_rate", "complementary_sensitivity",
    "loop_shift", "search_stepsize", "search_two_param",
    "ImproperShiftError", "InsufficientDataError", "InvalidParameterError",
    "LoopShiftError", "NoCertificateError", "UnstableSystemError",
    "UnsupportedFactorizationError", "UnsupportedPresetError",
    "RationalTF", "StateSpace", "constant_tf", "freq_response",
    "freq_response_many", "hinf_peak", "impulse_series",
    "poles", "realize", "stability_radius", "tf_add", "tf_allclose",
    "tf_arg_scale", "tf_mul", "tf_reduce", "tf_sub", "verify_realization",
    "FactorForm", "Family", "MethodSpec", "build_controller",
    "derivative_form_check", "factor_controller", "method_from_json",
    "nesterov_derivative_tf", "parse_method", "preset",
    "Polynomial", "poly_add", "poly_arg_scale", "poly_eval",
    "poly_from_roots", "poly_mul", "poly_roots", "poly_scale", "poly_sub",
    "GradientOracle", "PiecewiseLinearOracle", "QuadraticOracle",
    "SectorClass", "SeparableOracle", "oracle_from_json",
    "parse_oracle", "random_rotation", "sector_check",
    "sector_membership_sampled", "shifted_plant_apply",
    "NoiseRobustnessReport", "RateEstimate", "Trajectory", "estimate_rate",
    "noise_robustness_experiment", "simulate_run", "simulate_shifted_run",
    "trajectory_csv_text",
]
