"""Group, metric, frame, connection and isometry checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sol3 import (
    AXIS_SWAP_FLIP,
    BasePointMismatch,
    CurveState,
    IsometryDescriptor,
    IsometryFamily,
    SolPoint,
    TangentVector,
    group_mul,
    immersion,
    inverse,
    isometry_apply,
    left_translate,
    metric_eval,
)
from sol3 import oracle

coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def rand_point(rng) -> SolPoint:
    return SolPoint(*(rng.uniform(-2.0, 2.0, size=3)))


def rand_iso(rng) -> IsometryDescriptor:
    family = IsometryFamily.TRANSLATION if rng.uniform() < 0.5 else IsometryFamily.FLIP
    sx, sy = rng.choice([-1, 1]), rng.choice([-1, 1])
    a, b, c = rng.uniform(-1.5, 1.5, size=3)
    return IsometryDescriptor(family, int(sx), int(sy), float(a), float(b), float(c))


def test_identity_element():
    p = SolPoint(3.0, -2.0, 5.0)
    assert group_mul(SolPoint(0, 0, 0), p) == p
    assert group_mul(p, SolPoint(0, 0, 0)) == p


def test_mul_examples():
    assert group_mul(SolPoint(1, 0, 0), SolPoint(0, 1, 0)) == SolPoint(1, 1, 0)
    t, p = 0.7, SolPoint(1.2, -0.4, 0.9)
    q = group_mul(SolPoint(0, 0, t), p)
    assert q.x == pytest.approx(math.exp(-t) * p.x, rel=1e-15)
    assert q.y == pytest.approx(math.exp(t) * p.y, rel=1e-15)
    assert q.z == t + p.z


@given(coord, coord, coord, coord, coord, coord, coord, coord, coord)
@settings(derandomize=True, max_examples=100)
def test_associativity(ax, ay, az, bx, by, bz, cx, cy, cz):
    a, b, c = SolPoint(ax, ay, az), SolPoint(bx, by, bz), SolPoint(cx, cy, cz)
    left = group_mul(group_mul(a, b), c)
    right = group_mul(a, group_mul(b, c))
    for u, v in zip(left, right):
        assert u == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_inverse_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = rand_point(rng)
        q = group_mul(p, inverse(p))
        assert max(abs(q.x), abs(q.y), abs(q.z)) < 1e-12


def test_left_translate_matches_group_mul():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, t = rand_point(rng), rng.uniform(-2, 2)
        assert left_translate(t, p) == group_mul(SolPoint(0, 0, t), p)


def test_left_translate_one_parameter_group():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = rand_point(rng)
        s, t = rng.uniform(-1.5, 1.5, size=2)
        a = left_translate(s, left_translate(t, p))
        b = left_translate(s + t, p)
        assert abs(a.x - b.x) < 1e-12 and abs(a.y - b.y) < 1e-12 and abs(a.z - b.z) < 1e-12


def test_left_translate_example():
    q = left_translate(1.0, SolPoint(1, 1, 0))
    assert q.x == pytest.approx(math.exp(-1), rel=1e-15)
    assert q.y == pytest.approx(math.e, rel=1e-15)
    assert q.z == 1.0


def test_metric_examples():
    o = SolPoint(0, 0, 0)
    assert metric_eval(TangentVector(o, 1, 0, 0), TangentVector(o, 1, 0, 0)) == 1.0
    p = SolPoint(0, 0, 1)
    assert metric_eval(TangentVector(p, 1, 0, 0), TangentVector(p, 1, 0, 0)) == \
        pytest.approx(math.e ** 2, rel=1e-15)


def test_metric_base_mismatch():
    u = TangentVector(SolPoint(0, 0, 0), 1, 0, 0)
    v = TangentVector(SolPoint(0, 0, 1), 1, 0, 0)
    with pytest.raises(BasePointMismatch):
        metric_eval(u, v)


def frame(p: SolPoint) -> np.ndarray:
    """Rows: coordinate components of E1 = e^{-z} d/dx, E2 = e^{z} d/dy, E3 = d/dz at p."""
    return np.diag([math.exp(-p.z), math.exp(p.z), 1.0])


def test_frame_orthonormal():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = rand_point(rng)
        vectors = [TangentVector(p, *row) for row in frame(p)]
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else 0.0
                assert metric_eval(vectors[i], vectors[j]) == pytest.approx(expected, abs=1e-14)


def test_frame_components():
    # The patch tangents that tests/test_surface.py writes in frame components,
    # psi_s = cos(theta) E1 + sin(theta) E2 and psi_t = -x E1 + y E2 + E3, are
    # the derivatives of the immersion; it is affine in (x, y) and the
    # t-stencil is short, so central differences pin them to 1e-9.
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(50):
        x, y = rng.uniform(-2, 2, size=2)
        theta, t = rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5)
        dx, dy = math.cos(theta), math.sin(theta)

        def psi(ds, dt):
            state = CurveState(0.0, x + ds * dx, y + ds * dy, theta)
            return np.array(list(immersion(state, t + dt)))

        psi_s = (psi(h, 0.0) - psi(-h, 0.0)) / (2 * h)
        psi_t = (psi(0.0, h) - psi(0.0, -h)) / (2 * h)
        e = frame(SolPoint(0.0, 0.0, t))
        assert np.max(np.abs(psi_s - (dx * e[0] + dy * e[1]))) < 1e-9
        assert np.max(np.abs(psi_t - (-x * e[0] + y * e[1] + e[2]))) < 1e-9


def test_metric_left_invariance():
    # dL_q = diag(e^{-q.z}, e^{q.z}, 1) must preserve the metric pairing.
    rng = np.random.default_rng(7)
    for _ in range(200):
        p, q = rand_point(rng), rand_point(rng)
        u = TangentVector(p, *rng.uniform(-1, 1, size=3))
        v = TangentVector(p, *rng.uniform(-1, 1, size=3))
        qp = group_mul(q, p)
        scale = (math.exp(-q.z), math.exp(q.z), 1.0)
        du = TangentVector(qp, scale[0] * u.vx, scale[1] * u.vy, scale[2] * u.vz)
        dv = TangentVector(qp, scale[0] * v.vx, scale[1] * v.vy, scale[2] * v.vz)
        assert metric_eval(du, dv) == pytest.approx(metric_eval(u, v), rel=1e-12, abs=1e-12)


def test_connection_table():
    # nabla_{E_i} E_j in frame components from the oracle's coordinate
    # Christoffel symbols: E_i(E_j^k) + Gamma^k_{ab} E_i^a E_j^b.  The frame
    # route in sol3.surface is built on this table; all other entries vanish.
    table = {(0, 0): (0, 0, -1), (0, 2): (1, 0, 0), (1, 1): (0, 0, 1), (1, 2): (0, -1, 0)}
    for z in (-1.2, 0.0, 0.7):
        e = frame(SolPoint(0.0, 0.0, z))
        de_dz = np.diag([-math.exp(-z), math.exp(z), 0.0])  # d/dz of the rows of e
        gam = oracle.coord_christoffel(z)
        for i in range(3):
            for j in range(3):
                coord = e[i, 2] * de_dz[j] + np.einsum("kab,a,b->k", gam, e[i], e[j])
                want = table.get((i, j), (0, 0, 0))
                assert np.max(np.abs(coord / e.diagonal() - want)) < 1e-14


def test_connection_metric_compatible():
    # nabla g = 0 in coordinates: d_c g_ab = Gamma^l_{ca} g_lb + Gamma^l_{cb} g_al,
    # where only d_z g = diag(2 e^{2z}, -2 e^{-2z}, 0) is nonzero.
    for z in (-1.2, 0.0, 0.7):
        g = oracle.coord_metric(SolPoint(0.0, 0.0, z))
        gam = oracle.coord_christoffel(z)
        dg = np.zeros((3, 3, 3))
        dg[2] = np.diag([2 * math.exp(2 * z), -2 * math.exp(-2 * z), 0.0])
        lowered = np.einsum("lca,lb->cab", gam, g)
        assert np.max(np.abs(lowered + lowered.transpose(0, 2, 1) - dg)) < 1e-13


def test_flip_example():
    assert isometry_apply(AXIS_SWAP_FLIP, SolPoint(1, 2, 3)) == SolPoint(2, 1, -3)


def test_translation_identity():
    rng = np.random.default_rng(8)
    ident = IsometryDescriptor(IsometryFamily.TRANSLATION)
    for _ in range(20):
        p = rand_point(rng)
        assert isometry_apply(ident, p) == p


def test_vertical_flip_conjugation():
    # L_t o phi = phi o L_{-t} pointwise.
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = rng.uniform(-2, 2)
        p = rand_point(rng)
        a = left_translate(t, isometry_apply(AXIS_SWAP_FLIP, p))
        b = isometry_apply(AXIS_SWAP_FLIP, left_translate(-t, p))
        assert abs(a.x - b.x) < 1e-13 and abs(a.y - b.y) < 1e-13 and abs(a.z - b.z) < 1e-13


def push(iso: IsometryDescriptor, v: TangentVector) -> TangentVector:
    """v pushed through iso by a central difference of isometry_apply; the maps
    are affine, so a unit step is exact up to rounding."""
    p, d = np.array(list(v.base)), np.array([v.vx, v.vy, v.vz])
    plus, minus = (np.array(list(isometry_apply(iso, SolPoint(*(p + d * sign)))))
                   for sign in (1.0, -1.0))
    return TangentVector(isometry_apply(iso, v.base), *((plus - minus) / 2.0))


def test_isometries_preserve_metric():
    rng = np.random.default_rng(11)
    for _ in range(200):
        iso = rand_iso(rng)
        p = rand_point(rng)
        u = TangentVector(p, *rng.uniform(-1, 1, size=3))
        v = TangentVector(p, *rng.uniform(-1, 1, size=3))
        assert metric_eval(push(iso, u), push(iso, v)) == \
            pytest.approx(metric_eval(u, v), rel=1e-12, abs=1e-12)
