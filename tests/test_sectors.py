import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopshift import (
    InvalidParameterError,
    PiecewiseLinearOracle,
    QuadraticOracle,
    SectorClass,
    SeparableOracle,
    oracle_from_json,
    parse_oracle,
    random_rotation,
    shifted_plant_apply,
)

from helpers import sector_check, sector_membership_sampled


def oracle_suite(sector):
    mid = 0.5 * (sector.m + sector.L)
    return [
        QuadraticOracle([sector.m, sector.L]),
        QuadraticOracle([sector.m, mid, sector.L], rotation=random_rotation(3, 42)),
        PiecewiseLinearOracle([0.0, 1.0], [sector.m, sector.L]),
        SeparableOracle([
            PiecewiseLinearOracle([0.0, 0.5], [sector.L, sector.m]),
            QuadraticOracle([mid]),
        ]),
    ]


def test_sector_constants():
    sec = SectorClass(1.0, 10.0)
    assert sec.kappa == 10.0
    assert sec.sector_gain == pytest.approx(9 / 11)
    assert sec.threshold == pytest.approx(11 / 9)
    assert sec.shift == pytest.approx(2 / 11)


def test_sector_rejects_degenerate_bounds():
    with pytest.raises(InvalidParameterError):
        SectorClass(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        SectorClass(2.0, 1.0)
    with pytest.raises(InvalidParameterError):
        SectorClass(1.0, 1.0)


def test_sector_whose_threshold_rounds_to_one_is_rejected():
    # at L = 2**53, L - 1 is exact and L + 1 rounds to L, so (L+m)/(L-m) stays
    # above 1; at 1.5 * 2**53 the spacing is 2 and both L + 1 and L - 1 round to L
    wide = SectorClass(1.0, 2.0**53)
    assert wide.threshold > 1.0 and wide.sector_gain < 1.0
    with pytest.raises(InvalidParameterError, match=r"threshold \(L\+m\)/\(L-m\) rounds to 1.0"):
        SectorClass(1.0, 1.5 * 2.0**53)


def test_sector_check_arithmetic():
    sec = SectorClass(1.0, 10.0)
    assert sector_check(0.0, 0.0, sec)
    assert sector_check(1.0, 5.0, sec)
    assert not sector_check(1.0, 11.0, sec)


def test_quadratic_gradient():
    oracle = QuadraticOracle([1.0, 10.0])
    assert np.allclose(oracle.grad([1.0, 1.0]), [1.0, 10.0])
    assert np.all(oracle.grad(oracle.xstar) == 0.0)


def test_piecewise_linear_gradient_accumulates_slopes():
    oracle = PiecewiseLinearOracle([0.0, 1.0], [1.0, 10.0])
    assert oracle.grad([2.0])[0] == pytest.approx(11.0)
    assert oracle.grad([0.5])[0] == pytest.approx(0.5)
    assert oracle.grad([-2.0])[0] == pytest.approx(-11.0)
    assert oracle.grad([0.0])[0] == 0.0


def test_piecewise_linear_gradient_is_continuous():
    oracle = PiecewiseLinearOracle([0.0, 0.5, 2.0], [3.0, 1.0, 7.0])
    for b in (0.5, 2.0):
        left = oracle.centered_grad(np.array([b - 1e-9]))[0]
        right = oracle.centered_grad(np.array([b + 1e-9]))[0]
        assert abs(left - right) < 1e-7


def test_pwl_validation():
    with pytest.raises(InvalidParameterError):
        PiecewiseLinearOracle([1.0], [1.0])  # must start at 0
    with pytest.raises(InvalidParameterError):
        PiecewiseLinearOracle([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        PiecewiseLinearOracle([0.0, float("inf")], [1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        PiecewiseLinearOracle([0.0], [-1.0])


def test_plant_apply_examples():
    oracle = QuadraticOracle([2.0], xstar=[3.0])
    assert oracle.centered_grad(np.array([0.0]))[0] == 0.0
    assert oracle.centered_grad(np.array([1.0]))[0] == pytest.approx(2.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=1)
        direct = oracle.centered_grad(u)
        via_grad = oracle.grad(u + oracle.xstar)
        assert np.allclose(direct, via_grad, atol=1e-12)


def test_shifted_plant_examples():
    m, L = 1.0, 10.0
    sec = SectorClass(m, L)
    top = QuadraticOracle([L])
    assert shifted_plant_apply(top, sec, [0.0])[0] == 0.0
    out = shifted_plant_apply(top, sec, [2.0])[0]
    assert out == pytest.approx(-2.0 * sec.sector_gain, rel=1e-12)
    center = QuadraticOracle([(m + L) / 2.0])
    assert shifted_plant_apply(center, sec, [7.0])[0] == pytest.approx(0.0, abs=1e-14)


def test_shifted_plant_gain_bound():
    sec = SectorClass(1.0, 10.0)
    rng = np.random.default_rng(10)
    for oracle in oracle_suite(sec):
        assert oracle.lies_in(sec)
        u = 5.0 * rng.standard_normal((10_000, oracle.dim))
        out = shifted_plant_apply(oracle, sec, u)
        bound = sec.sector_gain * np.linalg.norm(u, axis=1) * (1.0 + 1e-9)
        assert np.all(np.linalg.norm(out, axis=1) <= bound)


def test_quadratic_sector_membership_per_eigendirection():
    sec = SectorClass(1.0, 10.0)
    for lam in (1.0, 2.5, 5.5, 10.0):
        for u in np.linspace(-50.0, 50.0, 2001):
            assert sector_check(u, lam * u, sec)
    # outside the band the check must fail somewhere
    assert not sector_check(1.0, 10.5, sec)


def test_sampled_membership_for_oracle_suite():
    sec = SectorClass(1.0, 10.0)
    for oracle in oracle_suite(sec):
        assert sector_membership_sampled(oracle, sec, samples=10_000, seed=1)


def test_sampled_membership_rejects_out_of_sector_oracles():
    sec = SectorClass(1.0, 10.0)
    assert not sector_membership_sampled(QuadraticOracle([1.0, 12.0]), sec, samples=200)
    steep = SeparableOracle([QuadraticOracle([2.0]),
                             PiecewiseLinearOracle([0.0, 1.0], [2.0, 11.0])])
    assert not sector_membership_sampled(steep, sec, samples=200)


def test_rotated_quadratic_batch_matches_rows():
    # a batch as long as the dimension is the shape a column-vector formula
    # would silently misread
    dim = 6
    eigs = np.linspace(1.0, 10.0, dim)
    rot = random_rotation(dim, 7)
    oracle = QuadraticOracle(eigs, rotation=rot)
    u = np.random.default_rng(3).normal(size=(dim, dim))
    rows = np.array([oracle.centered_grad(row) for row in u])
    # the same arithmetic per point: one matrix product rounded differently
    assert np.array_equal(oracle.centered_grad(u), rows)
    np.testing.assert_allclose(rows, u @ (rot.T @ np.diag(eigs) @ rot), rtol=1e-12, atol=1e-12)
    assert oracle.centered_grad(u[None]).shape == (1, dim, dim)


def _g_reference(breakpoints, slopes, u):
    """The scalar odd piecewise-linear gradient, one element at a time."""
    if u == 0.0:
        return 0.0
    vals = [0.0]
    for i in range(1, len(breakpoints)):
        vals.append(vals[-1] + slopes[i - 1] * (breakpoints[i] - breakpoints[i - 1]))
    sign = 1.0 if u > 0.0 else -1.0
    a = abs(u)
    i = bisect.bisect_right(breakpoints, a) - 1
    return sign * (vals[i] + slopes[i] * (a - breakpoints[i]))


@st.composite
def pwl_parts(draw):
    bps = [0.0]
    for gap in draw(st.lists(st.floats(0.01, 5.0), max_size=4)):
        bps.append(bps[-1] + gap)
    slopes = draw(st.lists(st.floats(0.1, 20.0), min_size=len(bps), max_size=len(bps)))
    return bps, slopes


def _probe_points(bps, extra):
    """0, both signs of every breakpoint, both sides beyond the last one."""
    beyond = 2.0 * bps[-1] + 1.0
    return [0.0, beyond, -beyond] + [s * b for b in bps for s in (1.0, -1.0)] + list(extra)


@settings(deadline=None)
@given(st.lists(pwl_parts(), min_size=1, max_size=5),
       st.lists(st.floats(-50.0, 50.0), max_size=6))
def test_batched_pwl_matches_scalar_formula(parts, extra):
    comps = [PiecewiseLinearOracle(bps, slopes) for bps, slopes in parts]
    probes = [_probe_points(bps, extra) for bps, _ in parts]
    for (bps, slopes), comp, pts in zip(parts, comps, probes):
        got = comp.centered_grad(np.array(pts)[:, None])
        assert got.shape == (len(pts), 1)
        assert got[:, 0].tolist() == [_g_reference(bps, slopes, u) for u in pts]
    # every coordinate sees each of its probes in some row of the batch
    rows = max(len(p) for p in probes)
    u = np.array([[p[r % len(p)] for p in probes] for r in range(rows)])
    want = [[_g_reference(bps, slopes, x) for (bps, slopes), x in zip(parts, row)] for row in u]
    assert SeparableOracle(comps).centered_grad(u).tolist() == want


def _same_float(got, want, u) -> bool:
    """Equal, NaN for NaN, and a zero keeps the sign of its input."""
    if math.isnan(want):
        return math.isnan(got)
    return got == want and (got != 0.0 or math.copysign(1.0, got) == math.copysign(1.0, u))


def test_piecewise_evaluator_special_values_and_batches():
    outer, inner = ([0.0, 0.5, 2.0], [1.0, 4.0, 10.0]), ([0.0, 1.0], [2.0, 5.0])
    # a scalar quadratic is the one piece at 0 with slope lambda
    cases = [
        (PiecewiseLinearOracle(*outer), [outer]),
        (SeparableOracle([PiecewiseLinearOracle(*outer),
                          SeparableOracle([PiecewiseLinearOracle(*inner)]),
                          QuadraticOracle([3.0])]),
         [outer, inner, ([0.0], [3.0])]),
    ]
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -5e-324]
    for oracle, parts in cases:
        probes = [special + [s * b for b in bps for s in (1.0, -1.0)] for bps, _ in parts]
        # every coordinate meets each of its probes in some row, in batches of (2, 3, dim)
        rows = -(-max(map(len, probes)) // 6) * 6
        u = np.array([[p[r % len(p)] for p in probes] for r in range(rows)])
        batches = u.reshape(-1, 2, 3, oracle.dim)
        for got_all in (oracle.centered_grad(batches),
                        np.array([oracle.centered_grad(b) for b in batches]),
                        np.array([oracle.centered_grad(x) for x in u]).reshape(batches.shape)):
            assert got_all.shape == batches.shape
            for got_row, u_row in zip(got_all.reshape(-1, oracle.dim).tolist(), u.tolist()):
                for got, x, (bps, slopes) in zip(got_row, u_row, parts):
                    assert _same_float(got, _g_reference(bps, slopes, x), x), (x, got)


def test_separable_scalar_quadratic_components_are_exact():
    u = np.random.default_rng(5).normal(size=(50, 3)) * 10.0 ** np.arange(-3, 3, 2)
    comps = [QuadraticOracle([3.7]), QuadraticOracle([0.3], rotation=[[-1.0]]),
             SeparableOracle([PiecewiseLinearOracle([0.0, 1.0], [2.0, 5.0])])]
    got = SeparableOracle(comps).centered_grad(u)
    assert np.array_equal(got[:, 0], 3.7 * u[:, 0])
    assert np.array_equal(got[:, 1], 0.3 * u[:, 1])
    nested = PiecewiseLinearOracle([0.0, 1.0], [2.0, 5.0]).centered_grad(u[:, 2:])
    assert np.array_equal(got[:, 2:], nested)


def test_translated_oracle_moves_stationary_point():
    oracle = QuadraticOracle([1.0, 4.0])
    moved = QuadraticOracle([1.0, 4.0], xstar=[1.0, -2.0])
    assert np.allclose(moved.xstar, [1.0, -2.0])
    assert np.all(moved.grad(moved.xstar) == 0.0)
    x = np.array([0.3, 0.7])
    assert np.allclose(moved.grad(x + moved.xstar), oracle.grad(x))


def test_separable_oracle_composition():
    comp = SeparableOracle(
        [QuadraticOracle([2.0]), PiecewiseLinearOracle([0.0], [3.0])],
        xstar=[1.0, -1.0],
    )
    assert comp.dim == 2
    out = comp.grad([2.0, 0.0])
    assert out[0] == pytest.approx(2.0)   # 2 * (2 - 1)
    assert out[1] == pytest.approx(3.0)   # 3 * (0 + 1)


def test_dimension_mismatch_errors():
    oracle = QuadraticOracle([1.0, 2.0])
    with pytest.raises(InvalidParameterError):
        oracle.grad([1.0])
    with pytest.raises(InvalidParameterError):
        shifted_plant_apply(oracle, SectorClass(1, 2), [1.0, 2.0, 3.0])
    with pytest.raises(InvalidParameterError):
        sector_check([1.0], [1.0, 2.0], SectorClass(1, 2))
    # a piecewise-linear oracle reads the last axis as the coordinate
    separable = SeparableOracle([PiecewiseLinearOracle([0.0], [1.0]), QuadraticOracle([2.0])])
    for oracle, u in ((separable, np.ones((2, 1))), (separable, np.ones(4)),
                      (PiecewiseLinearOracle([0.0], [1.0]), np.ones(2))):
        with pytest.raises(InvalidParameterError, match=r"expected shape \(\.\.\., \d\)"):
            oracle.centered_grad(u)


@pytest.mark.parametrize("call, match", [
    (lambda: QuadraticOracle([1.0, 2.0], xstar=[1.0]), r"xstar must have shape \(2,\)"),
    (lambda: QuadraticOracle([1.0, 2.0]).grad([1.0]), r"x must have shape \(2,\), got \(1,\)"),
    (lambda: QuadraticOracle([]), "nonempty"),
    (lambda: QuadraticOracle([1.0, 2.0], rotation=np.eye(3)), "rotation shape"),
    (lambda: QuadraticOracle([1.0, 2.0], rotation=[[1.0, 1.0], [0.0, 1.0]]), "orthogonal"),
    (lambda: PiecewiseLinearOracle([0.0, 1.0], [1.0]), "one slope per breakpoint"),
    (lambda: SeparableOracle([QuadraticOracle([1.0, 2.0])]), "scalar oracles"),
    (lambda: SeparableOracle([]), "at least one component"),
    (lambda: SeparableOracle([object()]), "quadratic, pwl or separable"),
    (lambda: oracle_from_json({"kind": "separable", "components": 5}), "malformed"),
    (lambda: QuadraticOracle([1.0, 2.0], xstar=[math.nan, 0.0]), "xstar must be finite"),
    (lambda: PiecewiseLinearOracle([0.0], [1.0], xstar=math.inf), "xstar must be finite"),
    (lambda: SeparableOracle([QuadraticOracle([1.0])], xstar=[-math.inf]), "xstar must be finite"),
    (lambda: oracle_from_json({"kind": "pwl", "breakpoints": [0], "slopes": [1], "xstar": "3"}),
     "xstar must be a finite number"),
    (lambda: oracle_from_json({"kind": "quadratic", "eigenvalues": [1], "xstar": [True]}),
     "xstar must be a finite number"),
], ids=["xstar-shape", "grad-shape", "no-eigenvalues", "rotation-shape", "rotation-skew",
        "slope-short", "component-2d", "separable-empty", "component-not-oracle",
        "components-not-list", "xstar-nan", "xstar-inf", "separable-xstar-inf",
        "json-xstar-string", "json-xstar-bool"])
def test_oracle_input_checks_raise(call, match):
    with pytest.raises(InvalidParameterError, match=match):
        call()


def test_parse_oracle_strings():
    q = parse_oracle("quadratic:1,10")
    assert q.kind == "quadratic" and q.dim == 2
    p = parse_oracle("pwl:0:1,1:10")
    assert p.kind == "pwl"
    assert p.grad([2.0])[0] == pytest.approx(11.0)
    with pytest.raises(InvalidParameterError):
        parse_oracle("cubic:1,2")
    with pytest.raises(InvalidParameterError):
        parse_oracle("pwl:0:1:2")
    with pytest.raises(InvalidParameterError):
        parse_oracle("quadratic:1,nan")


def test_oracle_from_json():
    q = oracle_from_json({"kind": "quadratic", "eigenvalues": [1, 5, 10], "rotation_seed": 3})
    assert q.dim == 3
    sec = SectorClass(1.0, 10.0)
    assert q.lies_in(sec)
    s = oracle_from_json({
        "kind": "separable",
        "components": [
            {"kind": "pwl", "breakpoints": [0.0], "slopes": [2.0]},
            {"kind": "quadratic", "eigenvalues": [4.0]},
        ],
    })
    assert s.dim == 2
    with pytest.raises(InvalidParameterError):
        oracle_from_json({"kind": "spline"})


@pytest.mark.parametrize("block", [
    {"kind": "quadratic", "eigenvalues": [1, 10], "rotation_sed": 3},
    {"kind": "quadratic", "eigenvalues": [1, 10], "slopes": [1]},
    {"kind": "pwl", "breakpoints": [0, 1], "slopes": [1, 10], "rotation_seed": 3},
    {"kind": "separable", "components": [{"kind": "quadratic", "eigenvalues": [1]}],
     "eigenvalues": [1]},
    {"kind": "separable",
     "components": [{"kind": "pwl", "breakpoints": [0], "slopes": [2], "slope": 2}]},
])
def test_oracle_from_json_rejects_unknown_and_unused_keys(block):
    # a misspelt rotation_seed used to build an unrotated quadratic
    with pytest.raises(InvalidParameterError, match="unknown or unused"):
        oracle_from_json(block)


def test_describe_round_trips_cli_syntax():
    assert parse_oracle("quadratic:1,10").describe() == "quadratic:1,10"
    assert parse_oracle("pwl:0:1,1:10").describe() == "pwl:0:1,1:10"
