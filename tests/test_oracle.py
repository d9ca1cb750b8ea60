"""Self-checks of the coordinate finite-difference route, then the dual-route
agreement between it and the closed frame formulas."""
import ast
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from sol3 import CurveState, circle_flat, curvature_report
from sol3 import oracle
from sol3.verify import random_states, run_verification


def test_christoffel_closed_form_matches_metric_differences():
    # Truncation scales with the entries themselves (up to e^{2|z|}).
    for z in (-1.5, -0.3, 0.0, 0.8, 2.0):
        exact = oracle.coord_christoffel(z)
        fd = oracle.coord_christoffel_fd(z)
        assert np.max(np.abs(exact - fd)) < 1e-9 * max(1.0, math.exp(2 * abs(z)))


def test_sectional_anchor_planes():
    # span(E1, E2) has curvature +1; the vertical planes have -1.
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    for z in (-0.7, 0.0, 1.1):
        scale = np.array([math.exp(-z), math.exp(z), 1.0])
        assert oracle.sectional_curvature_coord(z, e1 * scale[0], e2 * scale[1]) == \
            pytest.approx(1.0, abs=1e-9)
        assert oracle.sectional_curvature_coord(z, e1, e3) == pytest.approx(-1.0, abs=1e-9)
        assert oracle.sectional_curvature_coord(z, e2, e3) == pytest.approx(-1.0, abs=1e-9)


def test_local_curve_matches_two_jet():
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(50):
        state = CurveState(0.0, *rng.uniform(-2, 2, size=2), rng.uniform(-3, 3))
        tp = rng.uniform(-2, 2)
        curve = oracle.local_curve(state, tp)
        x0, y0 = curve(0.0)
        assert (x0, y0) == (state.x, state.y)
        xp = (curve(h)[0] - curve(-h)[0]) / (2 * h)
        yp = (curve(h)[1] - curve(-h)[1]) / (2 * h)
        assert xp == pytest.approx(math.cos(state.theta), abs=1e-9)
        assert yp == pytest.approx(math.sin(state.theta), abs=1e-9)
        xpp = (curve(h)[0] - 2 * x0 + curve(-h)[0]) / (h * h)
        ypp = (curve(h)[1] - 2 * y0 + curve(-h)[1]) / (h * h)
        assert xpp == pytest.approx(-math.sin(state.theta) * tp, abs=1e-5)
        assert ypp == pytest.approx(math.cos(state.theta) * tp, abs=1e-5)


def test_oracle_plane_and_circle_anchors():
    plane = oracle.curvatures_fd(CurveState(0, 0, 0, 0), 0.0)
    assert plane.H == pytest.approx(0.0, abs=1e-8)
    assert plane.K == pytest.approx(-1.0, abs=1e-7)
    state, tp = circle_flat(1.0, 0.4)
    circ = oracle.curvatures_fd(state, tp)
    assert circ.K == pytest.approx(0.0, abs=1e-7)


def test_oracle_offset_line_value():
    rep = oracle.curvatures_fd(CurveState(0, 0.0, 1.0, 0.0), 0.0)
    assert rep.K == pytest.approx(-0.5, abs=1e-7)
    assert rep.K_ext == pytest.approx(-0.5, abs=1e-7)
    assert rep.K_sec == pytest.approx(0.0, abs=1e-7)


def test_curvatures_agree_with_oracle():
    for state, tp in random_states(150, seed=123):
        frame = curvature_report(state, tp)
        coord = oracle.curvatures_fd(state, tp)
        assert abs(frame.H - coord.H) < 1e-6
        assert abs(frame.K - coord.K) < 1e-6
        assert abs(frame.K_ext - coord.K_ext) < 1e-6
        assert abs(frame.K_sec - coord.K_sec) < 1e-6


def test_run_verification_report():
    report = run_verification(samples=50, seed=42)
    assert report["passed"] is True
    assert report["max_dev_H"] < 1e-6
    assert report["max_dev_K"] < 1e-6
    assert report["plane_H"] == 0.0
    assert report["plane_K"] == -1.0
    assert abs(report["circle_K"]) < 1e-10


def test_run_verification_deterministic():
    a = run_verification(samples=30, seed=9)
    b = run_verification(samples=30, seed=9)
    assert a == b


def _wide_states(samples, seed):
    """Seeded states far outside verify's box: |x|, |y| <= 8, |theta| <= 20, |theta'| <= 50."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        x, y = rng.uniform(-8.0, 8.0, size=2)
        out.append((CurveState(0.0, float(x), float(y), float(rng.uniform(-20.0, 20.0))),
                    float(rng.uniform(-50.0, 50.0))))
    return out


# Recorded before the oracle was rewritten on Python floats; it proves that
# every OracleReport field keeps its bits, sign of zero included.  The metric
# inner products go through the BLAS dot kernel, whose multiply-add (FMA)
# order these bits depend on, so another BLAS build may legitimately give
# another digest.
def test_oracle_report_golden_digest():
    states = random_states(400, 99) + _wide_states(200, 5) + [
        (CurveState(0.0, -0.0, 0.0, 0.0), 0.0),
        (CurveState(0.0, 0.0, -0.0, -math.pi / 4), -0.0),
    ]
    digest = hashlib.sha256()
    for state, tp in states:
        rep = oracle.curvatures_fd(state, tp)
        digest.update(repr(tuple(getattr(rep, name) for name in (
            "E", "F", "G", "e", "f", "g", "H", "K", "K_ext", "K_sec"))).encode())
    assert digest.hexdigest() == \
        "d8b1804c0f0bf4f87bf6b2e3e47d1a03149efb19b5f48a5a6f5c37381d79fb0e"


def test_oracle_never_imports_surface():
    # The oracle is only independent evidence if it shares no code with the
    # frame route it checks.
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            assert "surface" not in name.split("."), f"oracle imports {name}"


def test_stage_layout_stays_in_the_stepper():
    # Only _rk knows a dense segment's start t0, its signed step h and its
    # stage rows K[...]; a plain `.K` is the curvature field of a report.
    for path in Path(oracle.__file__).parent.glob("*.py"):
        if path.name == "_rk.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("t0", "h"), f"{path.name} reads .{node.attr}"
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
                assert node.value.attr != "K", f"{path.name} subscripts .K"
