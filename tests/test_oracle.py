"""Self-checks of the coordinate finite-difference route, then the dual-route
agreement between it and the closed frame formulas."""
import ast
import functools
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sol3 import CurveState, circle_flat, curvature_report
from sol3 import oracle
from sol3.verify import run_verification
from support import coord_christoffel_fd, sectional_curvature_coord, state_pairs


def test_christoffel_closed_form_matches_metric_differences():
    # Truncation scales with the entries themselves (up to e^{2|z|}).
    for z in (-1.5, -0.3, 0.0, 0.8, 2.0):
        exact = oracle.coord_christoffel(z)
        fd = coord_christoffel_fd(z)
        assert np.max(np.abs(exact - fd)) < 1e-9 * max(1.0, math.exp(2 * abs(z)))


def test_sectional_anchor_planes():
    # span(E1, E2) has curvature +1; the vertical planes have -1.
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    for z in (-0.7, 0.0, 1.1):
        scale = np.array([math.exp(-z), math.exp(z), 1.0])
        assert sectional_curvature_coord(z, e1 * scale[0], e2 * scale[1]) == \
            pytest.approx(1.0, abs=1e-9)
        assert sectional_curvature_coord(z, e1, e3) == pytest.approx(-1.0, abs=1e-9)
        assert sectional_curvature_coord(z, e2, e3) == pytest.approx(-1.0, abs=1e-9)


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
    for state, tp in state_pairs(150, seed=123):
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
    states = state_pairs(400, 99) + _wide_states(200, 5) + [
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


# The oracle as it was before it contracted only the nonzero Christoffel and
# Riemann terms: dense loops over all 27 and 81 entries.  The sparse sums
# must keep every bit of these, sign of zero and non-finite values included.
_dense_riemann = functools.lru_cache(maxsize=16)(oracle._riemann_tensor)


def reference_riemann_apply(z, u, v, w):
    u, v, w = (np.asarray(a, dtype=float).tolist() for a in (u, v, w))
    out = []
    for rl in _dense_riemann(z):
        acc = 0.0
        for rli, ui in zip(rl, u):
            for rlij, vj in zip(rli, v):
                for r, wk in zip(rlij, w):
                    acc += r * ui * vj * wk
        out.append(acc)
    return np.array(out)


def reference_sectional(z, u, v):
    g = np.diag([math.exp(2.0 * z), math.exp(-2.0 * z), 1.0])
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    num = float(reference_riemann_apply(z, u, v, v).dot(g).dot(u))
    uv = float(u.dot(g).dot(v))
    area2 = float(u.dot(g).dot(u)) * float(v.dot(g).dot(v)) - uv ** 2
    return num / area2


def reference_curvatures_fd(state, theta_prime):
    h1, h2 = oracle.FD_STEP_FIRST, oracle.FD_STEP_SECOND
    curve = oracle.local_curve(state, theta_prime)

    def psi(ds, t):
        cx, cy = curve(ds)
        return math.exp(-t) * cx, math.exp(t) * cy, t

    base = psi(0.0, 0.0)
    z = base[2]
    g_mat = oracle.coord_metric(base)
    g_diag = g_mat.diagonal().tolist()
    gam = oracle.coord_christoffel(z).tolist()

    def first(plus, minus, step):
        return [(p - q) / (2.0 * step) for p, q in zip(plus, minus)]

    def pure_second(plus, minus):
        return [(p - 2.0 * b + q) / (h2 * h2) for p, b, q in zip(plus, base, minus)]

    psi_s = first(psi(h1, 0.0), psi(-h1, 0.0), h1)
    psi_t = first(psi(0.0, h1), psi(0.0, -h1), h1)
    psi_ss = pure_second(psi(h2, 0.0), psi(-h2, 0.0))
    psi_tt = pure_second(psi(0.0, h2), psi(0.0, -h2))
    psi_st = [(a - b - c + d) / (4.0 * h2 * h2) for a, b, c, d in zip(
        psi(h2, h2), psi(h2, -h2), psi(-h2, h2), psi(-h2, -h2))]

    s_vec, t_vec = np.array(psi_s), np.array(psi_t)
    s_g, t_g = s_vec.dot(g_mat), t_vec.dot(g_mat)
    E = float(s_g.dot(s_vec))
    F = float(s_g.dot(t_vec))
    G = float(t_g.dot(t_vec))
    W = E * G - F * F

    (s0, s1, s2), (t0, t1, t2) = psi_s, psi_t
    n_cov = (s1 * t2 - s2 * t1, s2 * t0 - s0 * t2, s0 * t1 - s1 * t0)
    n = np.array([c / gk for c, gk in zip(n_cov, g_diag)])
    n /= math.sqrt(float(n.dot(g_mat).dot(n)))
    n_g = n.dot(g_mat)

    def second(u, v, second_partial):
        cov = []
        for gk, d2 in zip(gam, second_partial):
            acc = 0.0
            for gki, ui in zip(gk, u):
                for gkij, vj in zip(gki, v):
                    acc += gkij * ui * vj
            cov.append(d2 + acc)
        return float(n_g.dot(np.array(cov)))

    e = second(psi_s, psi_s, psi_ss)
    f = second(psi_s, psi_t, psi_st)
    g2 = second(psi_t, psi_t, psi_tt)

    H = (e * G - 2.0 * f * F + g2 * E) / (2.0 * W)
    k_ext = (e * g2 - f * f) / W
    k_sec = reference_sectional(z, s_vec, t_vec)
    return oracle.OracleReport(E=E, F=F, G=G, e=e, f=f, g=g2,
                               H=H, K=k_ext + k_sec, K_ext=k_ext, K_sec=k_sec)


_FIELDS = ("E", "F", "G", "e", "f", "g", "H", "K", "K_ext", "K_sec")


def _outcome(fn, *args):
    """repr and sign of every value fn returns, or the exception it raises."""
    # Non-finite stencils would stop at numpy's first RuntimeWarning (an
    # error in this suite); silenced, every field is compared instead.
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except Exception as exc:
            return type(exc), str(exc)
    values = (out,) if isinstance(out, float) else [getattr(out, name) for name in _FIELDS]
    return [(repr(v), math.copysign(1.0, v)) for v in values]


_ZEROS = st.sampled_from([0.0, -0.0])
# verify's box, the wide box of the golden digest, up to 1e308, and signed zeros.
_COORD = st.one_of(st.floats(-2.0, 2.0), st.floats(-8.0, 8.0), st.floats(-1e308, 1e308), _ZEROS)
_ANGLE = st.one_of(st.floats(-math.pi, math.pi), st.floats(-20.0, 20.0), _ZEROS,
                   st.sampled_from([math.pi / 4, -math.pi / 4, math.pi / 2, -math.pi / 2]))
_RATE = st.one_of(st.floats(-2.0, 2.0), st.floats(-50.0, 50.0), _ZEROS)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(x=_COORD, y=_COORD, theta=_ANGLE, theta_prime=_RATE)
@example(x=-0.0, y=0.0, theta=0.0, theta_prime=0.0)
@example(x=0.0, y=-0.0, theta=-math.pi / 4, theta_prime=-0.0)
@example(x=1.7e308, y=-1.7e308, theta=0.3, theta_prime=1.0)
# theta' * 1e-5 underflows to 0 (the straight branch of local_curve) while
# theta' * 2e-4 is 5e-324 (the arc branch): one call takes both branches.
@example(x=0.7, y=-1.3, theta=0.4, theta_prime=3e-320)
@example(x=-1.1, y=0.9, theta=-2.2, theta_prime=-3e-320)
def test_oracle_keeps_the_bits_of_the_dense_sums(x, y, theta, theta_prime):
    state = CurveState(0.0, x, y, theta)
    assert _outcome(oracle.curvatures_fd, state, theta_prime) == \
        _outcome(reference_curvatures_fd, state, theta_prime)


_COMPONENT = st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(z=st.one_of(st.floats(-2.0, 2.0), st.floats(-400.0, 400.0)),
       u=st.lists(_COMPONENT, min_size=3, max_size=3),
       v=st.lists(_COMPONENT, min_size=3, max_size=3))
def test_sectional_keeps_the_bits_of_the_dense_sum(z, u, v):
    assert _outcome(sectional_curvature_coord, z, u, v) == \
        _outcome(reference_sectional, z, u, v)


def test_height_memo_is_read_only_and_public_arrays_are_fresh():
    height = oracle._height(0.0)
    assert oracle._height(0.0) is height
    with pytest.raises(ValueError):
        height.metric[0, 0] = 2.0
    # 6 of 27 Christoffel and 12 of 81 Riemann entries are nonzero.
    assert [len(terms) for terms in height.christoffel] == [2, 2, 2]
    assert [len(terms) for terms in height.riemann] == [4, 4, 4]
    assert isinstance(height.diag, tuple) and height.diag == (1.0, 1.0, 1.0)
    # test_core and test_analysis write into these.
    for make in (lambda: oracle.coord_metric((0.0, 0.0, 0.0)),
                 lambda: oracle.coord_christoffel(0.0)):
        mine = make()
        mine.flat[0] += 1.0
        assert make().flat[0] == mine.flat[0] - 1.0
    assert height.metric[0, 0] == 1.0


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
    # Only _rk knows how a run's step rows are laid out.  Elsewhere no module
    # reads a step start `.t0` or a step `.h`, subscripts a `.K` (a plain `.K`
    # is the curvature field of a report), or indexes step rows (K, bK,
    # self._K, ...) by anything but the step: their stage dimension and theta'
    # column stay in _rk, where only the mirror helper `reflected` reaches the
    # column or applies the slope reflection.
    for path in Path(oracle.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name == "_rk.py":
            mirror = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "reflected")
            inside = {id(node) for node in ast.walk(mirror)}
            for node in ast.walk(tree):
                if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                        and len(node.slice.elts) == 3 and _base_name(node).startswith("K")):
                    assert id(node) in inside, f"_rk.py:{node.lineno} indexes a stage column"
                if isinstance(node, ast.Name) and node.id == "_REFLECT_SLOPES":
                    assert id(node) in inside or isinstance(node.ctx, ast.Store)
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("t0", "h"), f"{path.name} reads .{node.attr}"
            if isinstance(node, ast.Subscript):
                if isinstance(node.value, ast.Attribute):
                    assert node.value.attr != "K", f"{path.name} subscripts .K"
                if _base_name(node).endswith("K"):
                    assert (isinstance(node.value, (ast.Name, ast.Attribute))
                            and not isinstance(node.slice, ast.Tuple)), \
                        f"{path.name}:{node.lineno} indexes step rows past the step"


def _base_name(node: ast.AST) -> str:
    """The name or attribute a chain of subscripts starts from ('' for others)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return getattr(node, "id", None) or getattr(node, "attr", "")
