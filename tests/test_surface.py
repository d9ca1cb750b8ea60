"""Fundamental forms, normal and curvature formulas, plus their identities."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sol3 import (
    CurveState,
    circle_flat,
    covariant_derivatives,
    curvature_report,
    extrinsic_curvature,
    first_form,
    flat_residual,
    fundamental_forms,
    gauss_curvature,
    immersion,
    left_translate,
    mean_curvature,
    second_form,
    sectional_curvature,
    surface_tangents,
    unit_normal,
)

val = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
angle = st.floats(min_value=-7.0, max_value=7.0, allow_nan=False)


def rand_state(rng, box=2.0):
    x, y = rng.uniform(-box, box, size=2)
    theta = rng.uniform(-math.pi, math.pi)
    return CurveState(0.0, float(x), float(y), float(theta))


def test_immersion_examples():
    assert immersion(CurveState(0, 1, 2, 0), 0.0) == left_translate(0.0, immersion(CurveState(0, 1, 2, 0), 0.0))
    p = immersion(CurveState(0, 1, 1, 0.3), 1.0)
    assert p.x == pytest.approx(math.exp(-1), rel=1e-15)
    assert p.y == pytest.approx(math.e, rel=1e-15)
    assert p.z == 1.0


def test_immersion_is_vertical_orbit():
    rng = np.random.default_rng(0)
    for _ in range(50):
        state = rand_state(rng)
        t = rng.uniform(-2, 2)
        direct = immersion(state, t)
        orbited = left_translate(t, immersion(state, 0.0))
        assert abs(direct.x - orbited.x) < 1e-14
        assert abs(direct.y - orbited.y) < 1e-14
        assert direct.z == orbited.z


def test_first_form_origin():
    ff = first_form(CurveState(0, 0, 0, 1.234))
    assert (ff.E, ff.F, ff.G, ff.A, ff.W) == (1.0, 0.0, 1.0, 0.0, 1.0)


def test_first_form_example():
    ff = first_form(CurveState(0, 1, 2, math.pi / 2))
    assert ff.F == pytest.approx(2.0, abs=1e-15)
    assert ff.G == 6.0
    assert ff.A == pytest.approx(1.0, abs=1e-15)
    assert ff.W == pytest.approx(2.0, abs=1e-15)


def test_first_form_against_metric_of_tangents():
    # Cross-check E, F, G with frame inner products of the patch tangents.
    rng = np.random.default_rng(1)
    for _ in range(100):
        state = rand_state(rng)
        ff = first_form(state)
        ps, pt = surface_tangents(state)
        assert ff.E == pytest.approx(ps.dot(ps), abs=1e-14)
        assert ff.F == pytest.approx(ps.dot(pt), abs=1e-13)
        assert ff.G == pytest.approx(pt.dot(pt), abs=1e-13)


@given(val, val, angle)
@settings(derandomize=True, max_examples=200)
def test_w_identity_and_bound(x, y, theta):
    ff = first_form(CurveState(0.0, x, y, theta))
    assert ff.E * ff.G - ff.F * ff.F == pytest.approx(ff.W, rel=1e-12, abs=1e-9)
    assert ff.W >= 1.0
    assert ff.G >= 1.0


def test_unit_normal_examples():
    n = unit_normal(CurveState(0, 0, 0, 0))
    assert (n.a1, n.a2, n.a3) == (0.0, -1.0, 0.0)
    n = unit_normal(CurveState(0, 0, 0, math.pi / 2))
    assert n.a1 == pytest.approx(1.0)
    assert n.a2 == pytest.approx(0.0, abs=1e-16)
    assert n.a3 == 0.0


def test_unit_normal_orthogonality():
    rng = np.random.default_rng(2)
    for _ in range(200):
        state = rand_state(rng)
        n = unit_normal(state)
        ps, pt = surface_tangents(state)
        assert n.dot(ps) == pytest.approx(0.0, abs=1e-13)
        assert n.dot(pt) == pytest.approx(0.0, abs=1e-13)
        assert n.dot(n) == pytest.approx(1.0, rel=1e-14)


def test_second_form_origin():
    e, f, g = second_form(CurveState(0, 0, 0, 0), 0.0)
    assert (e, f, g) == (0.0, 0.0, 0.0)


def test_second_form_ruled_diagonal():
    # Along the diagonal line the s-curves are geodesics, so e vanishes
    # (cos(pi/2) evaluates to ~1.8e-16, hence the sub-eps allowance).
    e, _, _ = second_form(CurveState(0, 1, 1, math.pi / 4), 0.0)
    assert e == pytest.approx(0.0, abs=1e-15)
    d_ss, _, _ = covariant_derivatives(CurveState(0, 1, 1, math.pi / 4), 0.0)
    assert max(abs(d_ss.a1), abs(d_ss.a2), abs(d_ss.a3)) < 1e-15


def test_mean_curvature_examples():
    assert mean_curvature(CurveState(0, 3.7, -1.2, 0.0), 0.0) == 0.0
    assert mean_curvature(CurveState(0, 2.5, 2.5, math.pi / 4), 0.0) == pytest.approx(0.0, abs=1e-15)
    assert mean_curvature(CurveState(0, 0, 0, 0), -2.0) == 1.0


def test_mean_curvature_matches_assembled_forms():
    rng = np.random.default_rng(3)
    for _ in range(300):
        state = rand_state(rng)
        tp = rng.uniform(-2, 2)
        ff = fundamental_forms(state, tp)
        assembled = (ff.e * ff.G - 2 * ff.f * ff.F + ff.g * ff.E) / (2 * (ff.E * ff.G - ff.F ** 2))
        assert mean_curvature(state, tp) == pytest.approx(assembled, rel=1e-12, abs=1e-12)


def test_sectional_examples():
    assert sectional_curvature(CurveState(0, 0, 0, 0)) == -1.0
    assert sectional_curvature(CurveState(0, 0, 1, 0)) == 0.0  # A = 1
    # A = 10 via x = 10, theta = pi/2
    assert sectional_curvature(CurveState(0, 10, 0, math.pi / 2)) == pytest.approx(99 / 101, rel=1e-12)


@given(val, val, angle)
@settings(derandomize=True, max_examples=200)
def test_sectional_range(x, y, theta):
    k = sectional_curvature(CurveState(0.0, x, y, theta))
    assert -1.0 <= k < 1.0


def test_extrinsic_examples():
    assert extrinsic_curvature(CurveState(0, 0, 0, 0), 0.0) == 0.0
    assert extrinsic_curvature(CurveState(0, 0, 1, 0), 0.0) == pytest.approx(-0.5, rel=1e-15)


def test_extrinsic_matches_assembled_forms():
    rng = np.random.default_rng(4)
    for _ in range(300):
        state = rand_state(rng)
        tp = rng.uniform(-2, 2)
        ff = fundamental_forms(state, tp)
        assembled = (ff.e * ff.g - ff.f ** 2) / (ff.E * ff.G - ff.F ** 2)
        assert extrinsic_curvature(state, tp) == pytest.approx(assembled, rel=1e-12, abs=1e-12)


def test_gauss_examples():
    assert gauss_curvature(CurveState(0, 0, 0, 0), 0.0) == -1.0
    for y0 in (0.5, 1.0, 2.0):
        assert gauss_curvature(CurveState(0, 0, y0, 0), 0.0) == \
            pytest.approx(-1.0 / (1.0 + y0 ** 2), abs=1e-12)
    state, tp = circle_flat(1.0, 0.0)
    assert gauss_curvature(state, tp) == pytest.approx(0.0, abs=1e-15)


def test_gauss_splits_into_extrinsic_plus_sectional():
    # The Gauss equation, with K_ext assembled from the fundamental forms.
    rng = np.random.default_rng(5)
    for _ in range(300):
        state = rand_state(rng)
        tp = rng.uniform(-2, 2)
        ff = fundamental_forms(state, tp)
        k_ext = (ff.e * ff.g - ff.f ** 2) / (ff.E * ff.G - ff.F ** 2)
        split = k_ext + sectional_curvature(state)
        assert gauss_curvature(state, tp) == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_curvature_report_consistency():
    rng = np.random.default_rng(6)
    for _ in range(200):
        state = rand_state(rng)
        tp = rng.uniform(-2, 2)
        rep = curvature_report(state, tp)
        assert rep.K == rep.K_ext + rep.K_sec
        assert rep.H == pytest.approx(mean_curvature(state, tp), rel=1e-14, abs=1e-14)
        assert rep.K == pytest.approx(gauss_curvature(state, tp), rel=1e-12, abs=1e-12)


signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@given(st.lists(st.tuples(signed, signed, signed, signed), min_size=1, max_size=12))
@settings(derandomize=True, max_examples=300)
def test_array_kernel_matches_scalar_bit_for_bit(rows):
    # The CSV writer evaluates whole trajectories at once; its columns must
    # carry the bits, signs of zero included, of a per-sample evaluation.
    x, y, theta, tp = (np.array(column) for column in zip(*rows))
    state = CurveState(np.zeros_like(x), x, y, theta)
    table, F = curvature_report(state, tp), first_form(state).F
    for i, (xi, yi, ti, tpi) in enumerate(rows):
        one = CurveState(0.0, xi, yi, ti)
        rep = curvature_report(one, tpi)
        pairs = [(table.H[i], rep.H), (table.K[i], rep.K), (table.K_ext[i], rep.K_ext),
                 (table.K_sec[i], rep.K_sec), (F[i], first_form(one).F)]
        for a, b in pairs:
            assert a == b and np.signbit(a) == np.signbit(b)


def test_flat_residual_circle_family():
    for r in (0.5, 1.0, 2.0):
        for s in (0.0, 1.0, 2.5, -0.7):
            state, tp = circle_flat(r, s)
            assert flat_residual(state, tp) == pytest.approx(0.0, abs=1e-12)
    assert flat_residual(CurveState(0, 0, 0, 0), 0.0) == 1.0


def test_flat_residual_signals_gauss_zero():
    rng = np.random.default_rng(7)
    for _ in range(100):
        state = rand_state(rng)
        tp = rng.uniform(-2, 2)
        ff = first_form(state)
        assert gauss_curvature(state, tp) == \
            pytest.approx(-flat_residual(state, tp) / ff.W ** 2, rel=1e-12, abs=1e-12)


def test_flip_covariance_of_curvatures():
    # Mapping a state through (x,y,z) -> (y,x,-z) sends theta to pi/2 - theta
    # and theta' to -theta'; |H| and K must be unchanged.
    rng = np.random.default_rng(8)
    for _ in range(200):
        state = rand_state(rng)
        tp = rng.uniform(-2, 2)
        flipped = CurveState(state.s, state.y, state.x, math.pi / 2 - state.theta)
        assert abs(mean_curvature(flipped, -tp)) == \
            pytest.approx(abs(mean_curvature(state, tp)), rel=1e-12, abs=1e-12)
        assert gauss_curvature(flipped, -tp) == \
            pytest.approx(gauss_curvature(state, tp), rel=1e-12, abs=1e-12)
