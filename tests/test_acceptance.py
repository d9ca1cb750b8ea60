"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines directly.
Every tolerance is pinned here, not deferred to configuration.
"""
import math
import time

import numpy as np

from sol3 import (
    InitialCondition,
    OdeSettings,
    SolPoint,
    TangentVector,
    circle_flat,
    classify_minimal,
    closed_curve_search,
    explicit_solution,
    gauss_curvature,
    group_mul,
    integrate,
    inverse,
    isometry_apply,
    left_translate,
    mean_curvature,
    metric_eval,
    origin_symmetry_deviation,
    theorem_checks,
    inflection_points,
    AXIS_SWAP_FLIP,
    CurveClass,
    CurveState,
)
from sol3.verify import run_verification
from support import integrate_unsnapped

PI8 = math.pi / 8


def _criterion(name: str, ok: bool, detail: str):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_explicit_solution_regression():
    t0 = time.perf_counter()
    cases = [
        ("I", (1.0, 2.0, 0.0)),
        ("II", (1.0, 2.0, math.pi / 2)),
        ("III", (1.0, 1.0, math.pi / 4)),
        ("IV", (1.0, -1.0, -math.pi / 4)),
    ]
    settings = OdeSettings(max_step=0.05, max_s=10.0)
    worst_phase, worst_h = 0.0, 0.0
    for kind, ic in cases:
        traj = integrate_unsnapped(InitialCondition(*ic), settings)
        for s in np.linspace(-10.0, 10.0, 201):
            got = traj.state_at(float(s))
            want = explicit_solution(kind, ic[0], ic[1], float(s))
            worst_phase = max(worst_phase, abs(got.x - want.x),
                              abs(got.y - want.y), abs(got.theta - want.theta))
        worst_h = max(worst_h, max(abs(mean_curvature(st, tp))
                                   for st, tp in traj.samples))
    elapsed = time.perf_counter() - t0
    _criterion(
        "criterion-1 explicit lines", worst_phase < 1e-8 and worst_h < 1e-10 and elapsed < 1.0,
        f"max phase error {worst_phase:.2e} (<1e-8), max |H| {worst_h:.2e} (<1e-10), "
        f"{elapsed:.2f}s (<1s)")


def test_criterion_2_gauss_curvature_table():
    t0 = time.perf_counter()
    plane_exact = gauss_curvature(CurveState(0, 0, 0, 0), 0.0) == -1.0
    worst_line = max(
        abs(gauss_curvature(CurveState(0.0, 0.0, y0, 0.0), 0.0) + 1.0 / (1.0 + y0 ** 2))
        for y0 in (0.5, 1.0, 2.0))
    worst_circle = max(
        abs(gauss_curvature(*circle_flat(r, float(s))))
        for r in (0.5, 1.0, 2.0)
        for s in np.linspace(0.0, 2.0 * math.pi * r, 100))
    elapsed = time.perf_counter() - t0
    _criterion(
        "criterion-2 gauss table",
        plane_exact and worst_line < 1e-12 and worst_circle < 1e-10 and elapsed < 1.0,
        f"plane exact {plane_exact}, offset-line dev {worst_line:.2e} (<1e-12), "
        f"circle |K| {worst_circle:.2e} (<1e-10), {elapsed:.2f}s (<1s)")


def test_criterion_3_minimal_figure_reproduction():
    t0 = time.perf_counter()
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_step=0.5, max_s=600.0))
    result = classify_minimal(traj)
    offsets = sorted(line.offset for line in result.asymptotes)
    dev = max(abs(offsets[0] + 0.736872), abs(offsets[1] - 0.736872)) \
        if len(offsets) == 2 else float("inf")
    elapsed = time.perf_counter() - t0
    _criterion(
        "criterion-3 minimal profile",
        result.kind is CurveClass.TYPE_B and dev < 1e-3 and elapsed < 5.0,
        f"kind {result.kind.value}, asymptote offsets dev {dev:.2e} vs 0.736872 (<1e-3), "
        f"{elapsed:.2f}s (<5s)")


def test_criterion_4_cmc_closed_curve():
    t0 = time.perf_counter()
    res = closed_curve_search(1.0, (0.125, 0.75))
    worst_h = max(abs(mean_curvature(st, tp) - 1.0) for st, tp in res.trajectory.samples)
    elapsed = time.perf_counter() - t0
    ok = (abs(res.y0_star - 0.6425) < 1e-2
          and abs(res.residual_x) < 1e-6 and abs(res.residual_y) < 1e-6
          and worst_h < 1e-8 and elapsed < 30.0)
    _criterion(
        "criterion-4 closed CMC curve", ok,
        f"y0* = {res.y0_star:.6f} (0.6425 +- 1e-2), residuals "
        f"({abs(res.residual_x):.1e}, {abs(res.residual_y):.1e}) (<1e-6), "
        f"max |H-1| {worst_h:.1e} (<1e-8), {elapsed:.2f}s (<30s)")


def test_criterion_5_classification_grid():
    t0 = time.perf_counter()
    settings = OdeSettings(max_step=1.0, max_s=1000.0)
    expected = {
        math.pi / 10: CurveClass.TYPE_B,
        math.pi / 6: CurveClass.TYPE_B,
        math.pi / 4: CurveClass.TYPE_A,
        math.pi / 3: CurveClass.TYPE_A,
    }
    got = {theta0: classify_minimal(integrate(InitialCondition(1, 2, theta0), settings)).kind
           for theta0 in expected}
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 10.0
    _criterion(
        "criterion-5 classification grid", ok,
        f"{[k.value for k in got.values()]} vs "
        f"{[k.value for k in expected.values()]}, {elapsed:.2f}s (<10s)")


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    report = run_verification(samples=100, seed=42)
    elapsed = time.perf_counter() - t0
    ok = report["passed"] and report["max_dev_H"] < 1e-6 \
        and report["max_dev_K"] < 1e-6 and elapsed < 5.0
    _criterion(
        "criterion-6 oracle equivalence", ok,
        f"max dev H {report['max_dev_H']:.2e}, K {report['max_dev_K']:.2e} (<1e-6), "
        f"{elapsed:.2f}s (<5s)")


def test_criterion_7_theorem_suite():
    t0 = time.perf_counter()
    settings = OdeSettings(max_step=0.05, max_s=30.0)
    failures = []
    for theta0 in (math.pi / 16, PI8, 3 * math.pi / 16, math.pi / 5):
        traj = integrate(InitialCondition(0, 0, theta0), settings)
        report = theorem_checks(traj)
        inflections = inflection_points(traj)
        symmetric = origin_symmetry_deviation(traj) < 1e-6
        if not (report.all_passed and inflections == [0.0] and symmetric):
            failures.append((theta0, report, inflections, symmetric))
    elapsed = time.perf_counter() - t0
    _criterion(
        "criterion-7 theorem suite", not failures and elapsed < 10.0,
        f"4 origin starts: monotone, concave, below diagonal, unique inflection "
        f"at 0, origin-symmetric; failures = {failures or 'none'}, {elapsed:.2f}s (<10s)")


def test_criterion_8_group_isometry_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        a, b, c = (SolPoint(*rng.uniform(-2, 2, size=3)) for _ in range(3))
        left = group_mul(group_mul(a, b), c)
        right = group_mul(a, group_mul(b, c))
        scale = max(1.0, abs(right.x), abs(right.y), abs(right.z))
        worst = max(worst, abs(left.x - right.x) / scale,
                    abs(left.y - right.y) / scale, abs(left.z - right.z) / scale)

        ident = group_mul(a, inverse(a))
        worst = max(worst, abs(ident.x), abs(ident.y), abs(ident.z))

        u = TangentVector(a, *rng.uniform(-1, 1, size=3))
        v = TangentVector(a, *rng.uniform(-1, 1, size=3))
        qa = group_mul(b, a)
        sx, sy = math.exp(-b.z), math.exp(b.z)
        du = TangentVector(qa, sx * u.vx, sy * u.vy, u.vz)
        dv = TangentVector(qa, sx * v.vx, sy * v.vy, v.vz)
        pairing = metric_eval(u, v)
        worst = max(worst, abs(metric_eval(du, dv) - pairing) / max(1.0, abs(pairing)))

        t = float(rng.uniform(-2, 2))
        lhs = left_translate(t, isometry_apply(AXIS_SWAP_FLIP, a))
        rhs = isometry_apply(AXIS_SWAP_FLIP, left_translate(-t, a))
        worst = max(worst, abs(lhs.x - rhs.x), abs(lhs.y - rhs.y), abs(lhs.z - rhs.z))
    elapsed = time.perf_counter() - t0
    _criterion(
        "criterion-8 group algebra", worst < 1e-12 and elapsed < 1.0,
        f"worst relative deviation {worst:.2e} (<1e-12) on 1000 instances, "
        f"{elapsed:.2f}s (<1s)")
