import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from loopshift import (
    Family,
    InvalidParameterError,
    MethodSpec,
    RationalTF,
    UnsupportedFactorizationError,
    UnsupportedPresetError,
    build_controller,
    factor_controller,
    freq_response,
    method_from_json,
    parse_method,
    poly_eval,
    preset,
)

from helpers import tf_allclose


def test_gradient_controller():
    k = build_controller(MethodSpec(Family.GRADIENT, alpha=0.1))
    assert tf_allclose(k, RationalTF((-0.1,), (-1.0, 1.0)), rtol=1e-15)


def test_heavy_ball_with_zero_momentum_reduces_to_gradient():
    k = build_controller(MethodSpec(Family.HEAVY_BALL, alpha=1.0, beta=0.0))
    fs = np.linspace(0.01, 0.5, 50)
    expected = [freq_response(RationalTF((-1.0,), (-1.0, 1.0)), f) for f in fs]
    assert np.allclose([freq_response(k, f) for f in fs], expected, rtol=1e-12, atol=0.0)


def test_nesterov_preset_coefficients():
    spec = preset(Family.NESTEROV, 0.01, 1.0)
    assert spec.alpha == pytest.approx(1.0)
    assert spec.beta == pytest.approx(9.0 / 11.0, rel=1e-12)
    k = build_controller(spec)
    expected = RationalTF((9.0 / 11.0, -20.0 / 11.0), (9.0 / 11.0, -20.0 / 11.0, 1.0))
    assert tf_allclose(k, expected, rtol=1e-10)


def test_pid_controller_denominator():
    k = build_controller(MethodSpec(Family.PID, alpha=0.2, beta=0.5))
    assert k.den == (0.0, -1.0, 1.0)
    assert k.num == (0.2 * 0.5, -0.2 * 1.5)


def test_every_catalog_controller_has_integral_action():
    rng = np.random.default_rng(1)
    specs = [MethodSpec(Family.GRADIENT, alpha=float(rng.uniform(0.01, 2)))]
    for fam in (Family.HEAVY_BALL, Family.NESTEROV, Family.PID):
        for _ in range(5):
            specs.append(MethodSpec(fam, alpha=float(rng.uniform(0.01, 2)),
                                    beta=float(rng.uniform(0, 0.99))))
    for spec in specs:
        den = build_controller(spec).den
        scale = max(abs(c) for c in den)
        assert abs(poly_eval(den, 1.0)) <= 1e-12 * scale


def test_gradient_presets():
    assert preset(Family.GRADIENT, 1, 10, "optimal_sector").alpha == pytest.approx(2 / 11)
    assert preset(Family.GRADIENT, 1, 10, "standard").alpha == pytest.approx(0.1)
    assert preset(Family.GRADIENT, 1.0, 1.0 + 1e-9).alpha == pytest.approx(1.0, rel=1e-8)


def test_heavy_ball_preset_rejected_with_message():
    with pytest.raises(UnsupportedPresetError, match="alpha and beta"):
        preset(Family.HEAVY_BALL, 1, 10)


def test_nesterov_preset_whose_momentum_rounds_to_one_is_unsupported():
    # (sqrt(L) - sqrt(m)) / (sqrt(L) + sqrt(m)) is exactly 1.0 on S(1, 1e32),
    # a sector whose threshold rounds to 1 long before: it is rejected itself
    assert preset(Family.NESTEROV, 1.0, 2.0**53).beta < 1.0
    with pytest.raises(InvalidParameterError, match="rounds to 1.0"):
        preset(Family.NESTEROV, 1.0, 1e32)


def test_preset_validates_sector():
    with pytest.raises(InvalidParameterError):
        preset(Family.GRADIENT, 10, 1)
    with pytest.raises(InvalidParameterError):
        preset(Family.GRADIENT, 1, 10, "fastest")


def test_method_spec_validation():
    with pytest.raises(InvalidParameterError):
        MethodSpec(Family.GRADIENT, alpha=-0.1)
    with pytest.raises(InvalidParameterError):
        MethodSpec(Family.GRADIENT, alpha=0.1, beta=0.5)
    with pytest.raises(InvalidParameterError):
        MethodSpec(Family.HEAVY_BALL, alpha=0.1, beta=1.0)
    with pytest.raises(InvalidParameterError):
        MethodSpec(Family.NESTEROV, alpha=0.1)


INTEGRATOR = RationalTF((1.0,), (-1.0, 1.0))


@pytest.mark.parametrize("call, error, match", [
    (lambda: MethodSpec(Family.CUSTOM), InvalidParameterError, "needs custom_tf"),
    (lambda: MethodSpec(Family.CUSTOM, alpha=0.1, custom_tf=INTEGRATOR), InvalidParameterError,
     "takes no alpha/beta"),
    (lambda: MethodSpec(Family.GRADIENT, alpha=0.1, custom_tf=INTEGRATOR),
     InvalidParameterError, "takes no custom_tf"),
    (lambda: preset(Family.NESTEROV, 1, 10, "optimal_sector"), InvalidParameterError,
     "single preset"),
    (lambda: preset(Family.PID, 1, 10), UnsupportedPresetError, "'pid'"),
    (lambda: parse_method("gradient:alpha"), InvalidParameterError, "cannot parse"),
    (lambda: method_from_json([1, 2]), InvalidParameterError, "must be a JSON object"),
], ids=["custom-without-tf", "custom-with-alpha", "gradient-with-tf", "nesterov-variant",
        "pid-preset", "token-without-value", "json-not-object"])
def test_method_input_checks_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_custom_spec_needs_integrator_pole():
    with pytest.raises(InvalidParameterError):
        MethodSpec(Family.CUSTOM, custom_tf=RationalTF((1.0,), (-0.5, 1.0)))
    with pytest.raises(InvalidParameterError):
        MethodSpec(Family.CUSTOM, custom_tf=RationalTF((float("nan"),), (-1.0, 1.0)))
    ok = MethodSpec(Family.CUSTOM, custom_tf=RationalTF((1.0,), (-1.0, 1.0)))
    assert ok.label == "custom"


def test_factor_heavy_ball():
    form = factor_controller(MethodSpec(Family.HEAVY_BALL, alpha=1.0, beta=0.5))
    assert form.integrator_gain == -1.0
    assert form.lag_pole == 0.5
    assert form.zero == 0.0
    rebuilt = form.product()
    assert tf_allclose(rebuilt, build_controller(MethodSpec(Family.HEAVY_BALL, alpha=1.0, beta=0.5)), rtol=1e-10)


def test_factor_nesterov_zero_location():
    beta = 9.0 / 11.0
    form = factor_controller(MethodSpec(Family.NESTEROV, alpha=1.0, beta=beta))
    assert form.zero == pytest.approx(0.45, abs=1e-12)
    assert form.zero_gain == pytest.approx(1.0 + beta)
    assert tf_allclose(form.product(),
                       build_controller(MethodSpec(Family.NESTEROV, alpha=1.0, beta=beta)),
                       rtol=1e-10)


def test_factor_gradient_is_bare_integrator():
    form = factor_controller(MethodSpec(Family.GRADIENT, alpha=0.3))
    assert form.lag_pole is None and form.zero is None
    assert tf_allclose(form.product(), build_controller(MethodSpec(Family.GRADIENT, alpha=0.3)), rtol=1e-12)


@pytest.mark.parametrize("family", [Family.GRADIENT, Family.HEAVY_BALL, Family.NESTEROV])
def test_factor_product_matches_numpy_composition(family):
    betas = (None,) if family is Family.GRADIENT else (0.0, -0.0, 0.1, 0.5, 9.0 / 11.0, 0.99)
    for alpha in (0.01, 0.1, 2.0 / 11.0, 0.5, 1.0, 1.9802):
        for beta in betas:
            form = factor_controller(MethodSpec(family, alpha=alpha, beta=beta))
            integrator = RationalTF((form.integrator_gain,), (-1.0, 1.0))
            expected = integrator if form.lag_pole is None else RationalTF(
                P.polymul(integrator.num, (-form.zero_gain * form.zero, form.zero_gain)),
                P.polymul(integrator.den, (-form.lag_pole, 1.0)))
            # equal as floats; at beta = -0.0 numpy's sum turns the constant -0.0 into 0.0
            assert form.product() == expected


def test_factor_rejects_pid_and_custom():
    with pytest.raises(UnsupportedFactorizationError):
        factor_controller(MethodSpec(Family.PID, alpha=0.1, beta=0.2))


def test_parse_method_strings():
    spec = parse_method("gradient:alpha=0.18182")
    assert spec.family is Family.GRADIENT and spec.alpha == pytest.approx(0.18182)
    spec = parse_method("nesterov:alpha=1,beta=0.8182")
    assert spec.beta == pytest.approx(0.8182)
    spec = parse_method("nesterov:preset", m=0.01, L=1.0)
    assert spec.alpha == pytest.approx(1.0)
    spec = parse_method("gradient:preset=optimal_sector", m=1.0, L=10.0)
    assert spec.alpha == pytest.approx(2 / 11)


def test_parse_method_errors():
    with pytest.raises(InvalidParameterError):
        parse_method("newton:alpha=0.1")
    with pytest.raises(InvalidParameterError):
        parse_method("gradient:step=0.1")
    with pytest.raises(InvalidParameterError):
        parse_method("gradient:preset")  # no sector bounds
    with pytest.raises(InvalidParameterError):
        parse_method("custom:alpha=1")
    with pytest.raises(InvalidParameterError):
        parse_method("gradient:alpha=fast")
    with pytest.raises(InvalidParameterError):
        parse_method("gradient:alpha=0.1,alpha=0.2")  # a repeat does not override
    with pytest.raises(InvalidParameterError):
        parse_method("gradient:preset,alpha=0.5", 1.0, 10.0)  # nor does a preset


def test_method_from_json():
    spec = method_from_json({"family": "heavyball", "alpha": 0.5, "beta": 0.25})
    assert spec.family is Family.HEAVY_BALL
    spec = method_from_json({"family": "nesterov", "preset": "standard"}, m=1, L=10)
    assert spec.alpha == pytest.approx(0.1)
    spec = method_from_json({"family": "custom", "num": [1.0], "den": [-1.0, 1.0]})
    assert spec.family is Family.CUSTOM
    with pytest.raises(InvalidParameterError):
        method_from_json({"family": "custom"})


@pytest.mark.parametrize("block", [
    {"family": "custom", "num": [-0.1], "den": [-1, 1], "alpha": 0.5},
    {"family": "gradient", "alpha": 0.1, "num": [-0.1]},
    {"family": "heavyball", "alpha": 0.1, "beta": 0.5, "alpah": 0.2},
    {"family": "nesterov", "preset": "standard", "beta": 0.5},
    {"family": "gradient", "alpha": 0.1, "momentum": 0.5},
])
def test_method_from_json_rejects_unknown_and_unused_keys(block):
    # each block builds without its last key; with it, the key would be dropped
    with pytest.raises(InvalidParameterError, match=repr(list(block)[-1])):
        method_from_json(block, m=1.0, L=10.0)
    method_from_json(dict(list(block.items())[:-1]), m=1.0, L=10.0)
