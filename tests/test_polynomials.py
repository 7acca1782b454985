import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopshift import (
    InvalidParameterError,
    Polynomial,
    poly_add,
    poly_arg_scale,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_roots,
    poly_scale,
)
from loopshift.polynomials import schur_stable

coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
polys = st.lists(coeff, min_size=1, max_size=6).map(lambda c: Polynomial(tuple(c)))


def test_eval_integrator_denominator_root():
    assert poly_eval(Polynomial((-1.0, 1.0)), 1.0) == 0


def test_eval_momentum_denominator_has_root_at_one():
    beta = 0.5
    p = Polynomial((beta, -(1 + beta), 1.0))
    assert poly_eval(p, 1.0) == 0


def test_eval_complex_point():
    assert poly_eval(Polynomial((3.0, 2.0)), 1j) == 3 + 2j


def test_mul_two_linear_factors():
    prod = poly_mul(Polynomial((-1.0, 1.0)), Polynomial((-0.25, 1.0)))
    assert prod.coeffs == (0.25, -1.25, 1.0)


def test_add_cancels_constant():
    assert poly_add(Polynomial((-1.0, 1.0)), Polynomial((1.0,))).coeffs == (0.0, 1.0)


def test_scale_by_zero_gives_zero_polynomial():
    out = poly_scale(Polynomial((-1.0, 1.0)), 0.0)
    assert out.is_zero and out.coeffs == (0.0,)


def test_normalization_trims_exact_zeros_only():
    # a tiny leading coefficient is kept, so the degree never changes silently
    p = Polynomial((2.0, 1.0, 1e-15))
    assert p.coeffs == (2.0, 1.0, 1e-15)
    assert Polynomial((2.0, 1.0, 0.0, -0.0)).coeffs == (2.0, 1.0)
    assert Polynomial((0.0, 0.0, 0.0)).coeffs == (0.0,)


def test_arg_scale_examples():
    assert poly_arg_scale(Polynomial((0.0, 1.0)), 0.5).coeffs == (0.0, 0.5)
    kappa = 100.0
    p = Polynomial((-(kappa - 1.0), 2.0 * kappa))
    assert poly_arg_scale(p, 0.99).coeffs == (-99.0, 198.0)


def test_arg_scale_identity_and_validation():
    p = Polynomial((1.0, -2.0, 3.0))
    assert poly_arg_scale(p, 1.0).coeffs == p.coeffs
    with pytest.raises(InvalidParameterError):
        poly_arg_scale(p, 0.0)
    with pytest.raises(InvalidParameterError):
        poly_arg_scale(p, -0.3)


def test_roots_quadratic_factors():
    roots = sorted(poly_roots(Polynomial((0.7, -1.7, 1.0))), key=lambda r: r.real)
    assert roots[0] == pytest.approx(0.7, abs=1e-12)
    assert roots[1] == pytest.approx(1.0, abs=1e-12)


def test_roots_linear():
    assert poly_roots(Polynomial((-1.0, 1.0))) == [1.0]


def test_roots_zero_polynomial_rejected():
    with pytest.raises(InvalidParameterError):
        poly_roots(Polynomial((0.0,)))
    with pytest.raises(InvalidParameterError):
        poly_roots(Polynomial((3.0,)))


def test_roots_degree_six_from_known_roots():
    known = [-0.9, -0.3, 0.2, 1.1, 0.5 + 0.4j, 0.5 - 0.4j]
    p = poly_from_roots(known, leading=2.0)
    found = sorted(poly_roots(p), key=lambda r: (round(r.real, 6), r.imag))
    expected = sorted(known, key=lambda r: (round(np.real(r), 6), np.imag(r)))
    for f, e in zip(found, expected):
        assert abs(f - e) < 1e-8


def _residual_bound(p, r):
    scale = max(abs(c) for c in p.coeffs)
    return 1e-9 * scale * max(1.0, abs(r)) ** p.degree


def test_root_residuals_within_contract():
    rng = np.random.default_rng(3)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        p = Polynomial(tuple(rng.uniform(-3, 3, deg + 1)))
        if p.degree < 1:
            continue
        for r in poly_roots(p):
            assert abs(poly_eval(p, r)) <= _residual_bound(p, r)


def test_reconstruction_from_roots():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        p = Polynomial(tuple(rng.uniform(-2, 2, deg + 1)))
        if p.degree < 1:
            continue
        rebuilt = poly_from_roots(poly_roots(p), leading=p.coeffs[-1])
        scale = max(abs(c) for c in p.coeffs)
        n = max(len(p.coeffs), len(rebuilt.coeffs))
        pa = p.coeffs + (0.0,) * (n - len(p.coeffs))
        pb = rebuilt.coeffs + (0.0,) * (n - len(rebuilt.coeffs))
        assert max(abs(a - b) for a, b in zip(pa, pb)) <= 1e-7 * scale


@settings(deadline=None)
@given(polys, polys, st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_eval_is_multiplicative(a, b, re, im):
    z = complex(re, im)
    lhs = poly_eval(poly_mul(a, b), z)
    rhs = poly_eval(a, z) * poly_eval(b, z)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))


@settings(deadline=None)
@given(polys, st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_arg_scale_matches_substitution(p, rho, theta):
    z = complex(math.cos(theta), math.sin(theta))
    lhs = poly_eval(poly_arg_scale(p, rho), z)
    rhs = poly_eval(p, rho * z)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))


# root sets closed under conjugation: (modulus, angle) pairs, angle 0 or pi
# giving one real root and anything else a conjugate pair
root_sets = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1.5),
              st.sampled_from([0.0, math.pi]) | st.floats(min_value=0.1, max_value=3.0)),
    min_size=1, max_size=4,
)


@settings(deadline=None)
@given(root_sets, st.floats(min_value=0.1, max_value=3.0))
def test_schur_stable_matches_root_moduli(pairs, leading):
    roots = []
    for r, angle in pairs:
        z = r * complex(math.cos(angle), math.sin(angle))
        roots += [z.real] if angle in (0.0, math.pi) else [z, z.conjugate()]
    p = poly_from_roots(roots, leading)
    # np.roots moves an m-fold root by about eps^(1/m): 1e-4 for m = 4
    moduli = np.abs(np.roots(p.coeffs[::-1]))
    assume(np.all(np.abs(moduli - 1.0) > 1e-3))
    assert schur_stable(p) == bool(np.all(moduli < 1.0))


@pytest.mark.parametrize("factor, stable", [(1.0 + 1e-3, True), (1.0 - 1e-3, False)])
def test_schur_stable_triple_root_near_circle(factor, stable):
    # the triple root at 0.9 moves to 1 / factor; computed roots are off by
    # several 1e-6, the recursion decides without them
    p = poly_arg_scale(poly_from_roots([0.9, 0.9, 0.9]), 0.9 * factor)
    assert schur_stable(p) is stable
    assert bool(np.all(np.abs(np.roots(p.coeffs[::-1])) < 1.0)) is stable
    assert schur_stable(Polynomial((3.0,)))
