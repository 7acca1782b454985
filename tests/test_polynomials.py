import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopshift import InvalidParameterError, RationalTF, poly_eval, poly_roots, tf_arg_scale
from loopshift.polynomials import _finite_eigvals, schur_stable

from helpers import poly_from_roots, reference_schur_stable

coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
polys = st.lists(coeff, min_size=1, max_size=6).map(tuple)


def test_eval_integrator_denominator_root():
    assert poly_eval((-1.0, 1.0), 1.0) == 0


def test_eval_momentum_denominator_has_root_at_one():
    beta = 0.5
    p = (beta, -(1 + beta), 1.0)
    assert poly_eval(p, 1.0) == 0


def test_eval_complex_point():
    assert poly_eval((3.0, 2.0), 1j) == 3 + 2j


def test_normalization_trims_exact_zeros_only():
    # a tiny leading coefficient is kept, so the degree never changes silently
    unit = (0.0, 0.0, 0.0, 1.0)
    assert RationalTF((2.0, 1.0, 1e-15), unit).num == (2.0, 1.0, 1e-15)
    assert len(poly_roots((2.0, 1.0, 1e-15))) == 2
    assert RationalTF((2.0, 1.0, 0.0, -0.0), unit).num == (2.0, 1.0)
    assert RationalTF((0.0, 0.0, 0.0), (1.0,)).num == (0.0,)
    assert RationalTF([0, -0.0], (1,)).num == (0.0,)
    assert RationalTF((0.0, 1.0), unit).num == (0.0, 1.0)
    assert poly_roots((1.0, 2.0, 0.0)) == [-0.5]
    # int, list and numpy coefficients all give the same tuple of Python floats
    for coeffs in ((2, 1, 0), [2.0, 1.0, -0.0], np.array([2.0, 1.0, 0.0])):
        tf = RationalTF(coeffs, (0, 0, 0, 1))
        assert tf.num == (2.0, 1.0) and type(tf.num) is tuple
        assert all(type(c) is float for c in tf.num)
        assert tf.den == (0.0, 0.0, 0.0, 1.0)
        assert poly_eval(coeffs, 2j) == 2 + 2j
        assert poly_roots(coeffs) == [-2.0]
    # equal after the monic normalization, and hashed alike
    tf = RationalTF((1, 0), [0.0, 2])
    assert tf == RationalTF((0.5,), (0.0, 1.0))
    assert hash(tf) == hash(RationalTF((0.5,), (0.0, 1.0)))


def test_roots_quadratic_factors():
    roots = sorted(poly_roots((0.7, -1.7, 1.0)), key=lambda r: r.real)
    assert roots[0] == pytest.approx(0.7, abs=1e-12)
    assert roots[1] == pytest.approx(1.0, abs=1e-12)
    # b == 0 and c == 0: the double root at the origin
    assert poly_roots((0.0, 0.0, 1.0)) == [0j, 0j]


def test_roots_linear():
    assert poly_roots((-1.0, 1.0)) == [1.0]


def test_roots_zero_polynomial_rejected():
    for constant in ((0.0,), (0, 0.0), (3.0,), [3, 0]):
        with pytest.raises(InvalidParameterError):
            poly_roots(constant)


@pytest.mark.parametrize("p", [(0.0, 0.0, 1.0, 2.225073858507203e-309),
                               (1.0, math.nan, 0.0, 1.0), (math.inf, 0.0, 0.0, 1.0)])
def test_roots_with_non_finite_companion_rejected_without_warning(p):
    # the companion row overflowed to inf: numpy warned, then raised LinAlgError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            poly_roots(p)


@pytest.mark.parametrize("p", [(1.0, 5e-324), (1.0, 1.0, 5e-324), (math.nan, 1.0),
                               (1.0, math.inf, 1.0)] + [
    base[:i] + (bad,) + base[i + 1:] for base in ((0.5, 1.0), (0.5, -1.3, 1.0))
    for i in range(len(base)) for bad in (math.inf, -math.inf, math.nan)])
def test_closed_form_roots_not_finite_rejected(p):
    # degrees 1 and 2 returned infinite or nan roots without an error, and
    # (0.5, inf) the finite root -0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError):
            poly_roots(p)


def test_roots_degree_six_from_known_roots():
    known = [-0.9, -0.3, 0.2, 1.1, 0.5 + 0.4j, 0.5 - 0.4j]
    p = poly_from_roots(known, leading=2.0)
    found = sorted(poly_roots(p), key=lambda r: (round(r.real, 6), r.imag))
    expected = sorted(known, key=lambda r: (round(np.real(r), 6), np.imag(r)))
    for f, e in zip(found, expected):
        assert abs(f - e) < 1e-8


def _residual_bound(p, r):
    scale = max(abs(c) for c in p)
    return 1e-9 * scale * max(1.0, abs(r)) ** (len(p) - 1)


def test_root_residuals_within_contract():
    rng = np.random.default_rng(3)
    for _ in range(25):
        deg = int(rng.integers(1, 9))
        p = tuple(rng.uniform(-3, 3, deg + 1).tolist())
        for r in poly_roots(p):
            assert abs(poly_eval(p, r)) <= _residual_bound(p, r)


def test_reconstruction_from_roots():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        p = tuple(rng.uniform(-2, 2, deg + 1).tolist())
        rebuilt = poly_from_roots(poly_roots(p), leading=p[-1])
        scale = max(abs(c) for c in p)
        n = max(len(p), len(rebuilt))
        pa = p + (0.0,) * (n - len(p))
        pb = rebuilt + (0.0,) * (n - len(rebuilt))
        assert max(abs(a - b) for a, b in zip(pa, pb)) <= 1e-7 * scale


@settings(deadline=None)
@given(polys, polys, st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
def test_eval_is_multiplicative(a, b, re, im):
    z = complex(re, im)
    lhs = poly_eval(P.polymul(a, b), z)
    rhs = poly_eval(a, z) * poly_eval(b, z)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))


@settings(deadline=None)
@given(polys, polys, st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_arg_scale_matches_substitution(p, q, rho, theta):
    # s(z) = t(rho z), cross-multiplied: s.num(z) t.den(rho z) = s.den(z) t.num(rho z),
    # to rounding relative to the same products taken over |coefficients|,
    # plus an absolute 1e-300 for subnormal coefficients, which round absolutely
    assume(len(p) <= len(q) + 1)
    t = RationalTF(p, q + (1.0,))
    s = tf_arg_scale(t, rho)
    z = complex(math.cos(theta), math.sin(theta))
    lhs = poly_eval(s.num, z) * poly_eval(t.den, rho * z)
    rhs = poly_eval(s.den, z) * poly_eval(t.num, rho * z)

    def size(a, b):
        return abs(poly_eval([abs(c) for c in a], 1.0) * poly_eval([abs(c) for c in b], rho))

    assert abs(lhs - rhs) <= 1e-12 * (size(s.num, t.den) + size(s.den, t.num)) + 1e-300


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
    moduli = np.abs(np.roots(p[::-1]))
    assume(np.all(np.abs(moduli - 1.0) > 1e-3))
    assert schur_stable(p) == bool(np.all(moduli < 1.0))


@pytest.mark.parametrize("factor, stable", [(1.0 + 1e-3, True), (1.0 - 1e-3, False)])
def test_schur_stable_triple_root_near_circle(factor, stable):
    # the triple root at 0.9 moves to 1 / factor; computed roots are off by
    # several 1e-6, the recursion decides without them
    p = tf_arg_scale(RationalTF((1.0,), poly_from_roots([0.9, 0.9, 0.9])), 0.9 * factor).den
    assert schur_stable(p) is stable
    assert bool(np.all(np.abs(np.roots(p[::-1])) < 1.0)) is stable
    assert schur_stable((3.0,))


def _polar_roots(pairs) -> list[complex]:
    """Each (modulus, angle) as a real root (angle 0 or pi) or a conjugate pair."""
    roots = []
    for r, angle in pairs:
        z = r * complex(math.cos(angle), math.sin(angle))
        roots += [z.real] if angle in (0.0, math.pi) else [z, z.conjugate()]
    return roots


angles = st.sampled_from([0.0, math.pi]) | st.floats(min_value=0.05, max_value=3.1)
# up to five pairs or real roots of modulus at most 0.98: degree up to 10,
# and every Schur-Cohn row runs
stable_root_sets = st.lists(st.tuples(st.floats(min_value=0.0, max_value=0.98), angles),
                            min_size=1, max_size=5)
# a root, or conjugate pair, taken twice 1e-9..1e-3 inside or outside the
# circle, with up to three stable roots or pairs
repeated_near_circle = st.tuples(
    st.floats(min_value=-9.0, max_value=-3.0).map(lambda e: 10.0**e),
    st.sampled_from([1.0, -1.0]), angles, stable_root_sets.map(lambda pairs: pairs[:3]))


@settings(deadline=None, max_examples=300)
@given(stable_root_sets, st.floats(min_value=0.1, max_value=3.0))
def test_fraction_free_schur_cohn_runs_stable_polynomials_to_full_depth(pairs, leading):
    p = poly_from_roots(_polar_roots(pairs), leading)
    assert schur_stable(p) and reference_schur_stable(p)


@settings(deadline=None, max_examples=300)
@given(repeated_near_circle, st.floats(min_value=0.1, max_value=3.0))
def test_fraction_free_schur_cohn_agrees_on_repeated_roots_near_the_circle(repeated, leading):
    gap, side, angle, others = repeated
    pair = (1.0 + side * gap, angle)
    p = poly_from_roots(_polar_roots([pair, pair, *others]), leading)
    assert schur_stable(p) == reference_schur_stable(p)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([(-1, 1), (1, 1), (1, 0, 1), (1, 1, 1), (1, -1, 1)]),
       st.lists(st.integers(min_value=-64, max_value=64), min_size=1, max_size=8)
       .filter(lambda q: q[-1] != 0),
       st.integers(min_value=-60, max_value=60))
def test_fraction_free_schur_cohn_refuses_roots_on_the_circle(factor, q, exponent):
    # z - 1, z + 1 or z^2 + c z + 1 with |c| < 2 times any integer q, in
    # exact integer arithmetic, then scaled by a power of two: stored exactly
    p = [0] * (len(q) + len(factor) - 1)
    for i, a in enumerate(q):
        for j, b in enumerate(factor):
            p[i + j] += a * b
    p = [math.ldexp(float(x), exponent) for x in p]
    assert not schur_stable(p)
    assert not reference_schur_stable(p)


big_integers = st.integers(min_value=-2**80, max_value=2**80)


@settings(deadline=None, max_examples=300)
@given(st.lists(big_integers, min_size=1, max_size=10), big_integers.filter(bool),
       st.integers(min_value=0, max_value=80))
def test_fraction_free_schur_cohn_agrees_on_large_integer_coefficients(lower, lead, shift):
    # shifting the lower coefficients down makes deep recursions likely
    p = [float(x >> shift) for x in lower] + [float(lead)]
    assert schur_stable(p) == reference_schur_stable(p)


def test_eigvals_are_numpys_as_complex_values():
    # all real: the numpy wrapper returns them as floats, _finite_eigvals as complex
    m = np.diag([0.5, -0.25, 2.0, 1.0]) + np.eye(4, k=1)
    got = _finite_eigvals(m)
    assert all(type(r) is complex for r in got)
    assert got == [complex(r) for r in np.linalg.eigvals(m)]
    assert sorted(r.real for r in got) == [-0.25, 0.5, 1.0, 2.0]
