"""Classification, asymptotes, theorem checks and the shooting search."""
import math
import warnings

import numpy as np
import pytest

from sol3 import (
    Axis,
    BracketError,
    CurveClass,
    InitialCondition,
    Line,
    NotSettledError,
    OdeSettings,
    asymptote_estimate,
    circle_flat,
    classify_minimal,
    closed_curve_search,
    explicit_solution,
    find_event,
    first_return,
    immersion,
    inflection_points,
    integrate,
    integrate_forward,
    mean_curvature,
    origin_symmetry_deviation,
    scan_bracket,
    slab_width,
    theorem_checks,
)
from sol3 import oracle

PI8 = math.pi / 8

LONG = OdeSettings(max_step=0.5, max_s=600.0)
MEDIUM = OdeSettings(max_step=1.0, max_s=1000.0)


def minimal(x0, y0, theta0, settings):
    return integrate(InitialCondition(x0, y0, theta0), settings)


def test_inflections_origin_start():
    traj = minimal(0, 0, PI8, OdeSettings(max_s=30.0, max_step=0.1))
    assert inflection_points(traj) == [0.0]


def test_inflections_line_empty():
    traj = minimal(1, 2, 0.0, OdeSettings(max_s=10.0))
    assert inflection_points(traj) == []


def test_inflections_offset_start():
    traj = minimal(1, 2, math.pi / 10, OdeSettings(max_s=30.0, max_step=0.1))
    pts = inflection_points(traj)
    assert len(pts) == 1
    assert -0.5 < pts[0] < -0.25
    traj = minimal(1, 2, math.pi / 100, OdeSettings(max_s=30.0, max_step=0.1))
    assert len(inflection_points(traj)) == 1


def test_inflections_require_minimal():
    traj = integrate(InitialCondition(0, 0.5, 0), OdeSettings(max_s=2.0), H=1.0)
    with pytest.raises(ValueError):
        inflection_points(traj)


@pytest.mark.parametrize("theta0,expected", [
    (math.pi / 10, CurveClass.TYPE_B),
    (math.pi / 6, CurveClass.TYPE_B),
    (math.pi / 4, CurveClass.TYPE_A),
    (math.pi / 3, CurveClass.TYPE_A),
])
def test_classification_grid_at_offset_start(theta0, expected):
    result = classify_minimal(minimal(1, 2, theta0, MEDIUM))
    assert result.kind is expected


def test_classification_type_b_offset_diagonal_start():
    assert classify_minimal(minimal(1, 1, PI8, MEDIUM)).kind is CurveClass.TYPE_B


def test_classification_lines():
    assert classify_minimal(minimal(1, 2, 0.0, OdeSettings())).kind is CurveClass.LINE_I
    assert classify_minimal(minimal(1, 2, math.pi / 2, OdeSettings())).kind is CurveClass.LINE_II
    assert classify_minimal(minimal(1, 1, math.pi / 4, OdeSettings())).kind is CurveClass.LINE_III
    assert classify_minimal(minimal(1, -1, -math.pi / 4, OdeSettings())).kind is CurveClass.LINE_IV


def test_classification_short_horizon_undetermined():
    result = classify_minimal(minimal(0, 0, PI8, OdeSettings(max_s=5.0)))
    assert result.kind is CurveClass.UNDETERMINED


def test_classification_flip_covariance():
    b_x = classify_minimal(minimal(0, 0, PI8, LONG))
    b_y = classify_minimal(minimal(0, 0, math.pi / 2 - PI8, LONG))
    assert b_x.kind is CurveClass.TYPE_B and b_y.kind is CurveClass.TYPE_B
    assert {line.axis for line in b_x.asymptotes} == {Axis.PARALLEL_TO_X}
    assert {line.axis for line in b_y.asymptotes} == {Axis.PARALLEL_TO_Y}
    # The two runs sample different arc lengths, so the tail means agree only
    # to the estimator's own precision, well inside the reported uncertainty.
    for lx, ly in zip(b_x.asymptotes, b_y.asymptotes):
        assert abs(abs(lx.offset) - abs(ly.offset)) < lx.uncertainty


def test_asymptote_offsets_match_reference_value():
    # Reference offset 0.736872 for the pi/8 origin curve; tail means must
    # land within 1e-3 of it on a settled long horizon.
    lines = asymptote_estimate(minimal(0, 0, PI8, LONG))
    assert len(lines) == 2
    offsets = sorted(line.offset for line in lines)
    assert offsets[0] == pytest.approx(-0.736872, abs=1e-3)
    assert offsets[1] == pytest.approx(+0.736872, abs=1e-3)
    for line in lines:
        assert line.axis is Axis.PARALLEL_TO_X
        assert 0.0 < line.uncertainty < 1e-3


def test_asymptote_line_is_its_own():
    lines = asymptote_estimate(minimal(1, 2, 0.0, OdeSettings()))
    assert all(line.axis is Axis.PARALLEL_TO_X and line.offset == 2.0 for line in lines)


def test_asymptote_not_settled_names_end():
    with pytest.raises(NotSettledError) as err:
        asymptote_estimate(minimal(0, 0, PI8, OdeSettings(max_s=10.0)))
    assert err.value.end in ("forward", "backward")


@pytest.mark.parametrize("tail_fraction,settle_threshold", [
    (0.0, 1e-4), (-1.0, 1e-4), (5.0, 1e-4), (math.nan, 1e-4),
    (0.1, 0.0), (0.1, -1.0), (0.1, 1.0), (0.1, math.inf), (0.1, math.nan),
])
def test_tail_settings_out_of_range_are_refused(tail_fraction, settle_threshold):
    line = minimal(1, 2, 0.0, OdeSettings())
    curve = minimal(0, 0, PI8, OdeSettings(max_s=5.0))
    for traj in (line, curve):
        with pytest.raises(ValueError, match="must lie in"):
            classify_minimal(traj, tail_fraction, settle_threshold)
    with pytest.raises(ValueError, match="must lie in"):
        asymptote_estimate(curve, tail_fraction, settle_threshold)


def test_tail_settings_at_their_bounds_are_accepted():
    # A whole-curve tail at a loose threshold is meaningful, if coarse.
    traj = minimal(0, 0, PI8, OdeSettings(max_s=5.0))
    assert len(asymptote_estimate(traj, 1.0, 0.5)) == 2


def test_slab_width_examples():
    a = Line(Axis.PARALLEL_TO_X, 0.736872)
    b = Line(Axis.PARALLEL_TO_X, -0.736872)
    assert slab_width(a, b) == pytest.approx(1.473744, abs=1e-12)
    assert slab_width(a, a) == 0.0
    with pytest.raises(ValueError):
        slab_width(a, Line(Axis.PARALLEL_TO_Y, 0.0))


def test_slab_widths_positive_on_sweep():
    for theta0 in (0.1, 0.25, 0.4, 0.55, 0.7):
        lines = asymptote_estimate(minimal(0, 0, theta0, OdeSettings(max_step=0.5, max_s=800.0)))
        width = slab_width(*lines)
        assert math.isfinite(width) and width > 0.0


def test_origin_grid_classifies_type_b():
    # Origin starts in (0, pi/4) should all come out type B; exceptions are
    # flagged as warnings (the behaviour is observed, not proved), but a
    # corner-asymptotic or line classification would be a real failure.
    flagged = []
    for theta0 in np.linspace(0.02, math.pi / 4 - 0.02, 20):
        result = classify_minimal(minimal(0, 0, float(theta0),
                                          OdeSettings(max_step=0.5, max_s=800.0)))
        assert result.kind in (CurveClass.TYPE_B, CurveClass.UNDETERMINED)
        if result.kind is not CurveClass.TYPE_B:
            flagged.append(float(theta0))
        else:
            assert [round(s, 9) for s in result.inflection_s] == [0.0]
    if flagged:
        warnings.warn(f"origin starts not classified type B: {flagged}")


def test_theorem_checks_pass_on_grid():
    settings = OdeSettings(max_step=0.05, max_s=30.0)
    for theta0 in (math.pi / 16, PI8, 3 * math.pi / 16, math.pi / 5, math.pi / 100):
        traj = minimal(0, 0, theta0, settings)
        report = theorem_checks(traj)
        assert report.all_passed, f"theta0={theta0}: {report}"
        assert origin_symmetry_deviation(traj) < 1e-8


def test_origin_symmetry_refuses_one_sided_trajectory():
    # A forward-only trajectory has only s = 0 to compare, which proves nothing.
    with pytest.raises(ValueError, match="s < 0 side"):
        origin_symmetry_deviation(integrate_forward(InitialCondition(0, 0, 0.3)))


def test_theorem_checks_preconditions():
    with pytest.raises(ValueError):
        theorem_checks(minimal(0, 0, math.pi / 4, OdeSettings(max_s=2.0)))
    with pytest.raises(ValueError):
        theorem_checks(minimal(1, 0, PI8, OdeSettings(max_s=2.0)))


def test_first_return_h1_reference_start():
    traj = integrate_forward(InitialCondition(0, 0.6425, 0), OdeSettings(max_s=10.0), H=1.0)
    hit = first_return(traj)
    assert hit is not None
    s1, state = hit
    assert math.isfinite(s1) and s1 > 0
    assert abs(state.x) < 1e-2 and abs(state.y - 0.6425) < 1e-2


def test_first_return_small_y0_overshoots():
    # Baseline from an independent solve_ivp run (rtol=atol=1e-12):
    # x(s1) = -0.28500328, y(s1) = 0.24729483 for y0 = 1/8.
    traj = integrate_forward(InitialCondition(0, 0.125, 0), OdeSettings(max_s=10.0), H=1.0)
    s1, state = first_return(traj)
    assert state.x < 0 and state.y > 0.125
    assert state.x == pytest.approx(-0.28500328, abs=1e-6)
    assert state.y == pytest.approx(0.24729483, abs=1e-6)
    assert s1 == pytest.approx(4.174436, abs=1e-4)


@pytest.mark.parametrize("make", [
    lambda: integrate_forward(InitialCondition(0, 0.6425, 0), OdeSettings(max_s=10.0), H=1.0),
    lambda: integrate_forward(InitialCondition(0, 0.3, 0), OdeSettings(max_s=10.0), H=1.5,
                              stop_event=lambda s, yv: yv[2] + 2 * math.pi),
    lambda: integrate(InitialCondition(0, 0.5, 0.2), OdeSettings(max_s=10.0), H=-1.0),
])
def test_first_return_matches_the_find_event_route(make):
    traj = make()
    target = traj.ic.theta0 - math.copysign(2.0 * math.pi, traj.H_target)
    s1 = find_event(traj, lambda st, _: st.theta - target)
    assert s1 is not None and first_return(traj) == (s1, traj.state_at(s1))


def test_first_return_none_for_minimal_like():
    traj = integrate(InitialCondition(0, 0.5, 0), OdeSettings(max_s=10.0), H=0.0)
    assert first_return(traj) is None
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=10.0))
    assert first_return(traj) is None


def test_closed_curve_search_h1():
    res = closed_curve_search(1.0, (0.125, 0.75))
    # Independent solve_ivp bisection baseline: y0* = 0.6421766756.
    assert res.y0_star == pytest.approx(0.6421766756, abs=1e-6)
    assert res.y0_star == pytest.approx(0.6425, abs=1e-2)
    assert res.s1 == pytest.approx(3.93262027, abs=1e-5)
    assert abs(res.residual_x) < 1e-9
    assert abs(res.residual_y) < 1e-6
    orbit = res.trajectory
    assert max(abs(mean_curvature(st, tp) - 1.0) for st, tp in orbit.samples) < 1e-8
    start, tp0 = orbit.sample(0)
    end, tp1 = orbit.sample(len(orbit) - 1)
    assert abs(end.x - start.x) < 1e-6
    assert abs(end.y - start.y) < 1e-6
    assert abs((end.theta + 2 * math.pi) - start.theta) < 1e-6
    assert abs(tp1 - tp0) < 1e-6


def test_closed_curve_axis_crossings_equidistant():
    res = closed_curve_search(1.0, (0.125, 0.75))
    orbit = res.trajectory
    crossings = []
    for i in range(len(orbit) - 1):
        a, _ = orbit.sample(i)
        b, _ = orbit.sample(i + 1)
        if b.s > res.s1 - 0.05:
            break  # stop before the closure corner duplicates the start point
        if a.x * b.x < 0:
            crossings.append(abs(_bisect_coord(orbit, a.s, b.s, "x")))
        if a.y * b.y < 0:
            crossings.append(abs(_bisect_coord(orbit, a.s, b.s, "y")))
    assert len(crossings) == 3  # the start point itself is the fourth axis point
    for value in crossings:
        assert value == pytest.approx(res.y0_star, abs=1e-4)


def _bisect_coord(orbit, lo, hi, which):
    f = (lambda s: orbit.state_at(s).x) if which == "x" else (lambda s: orbit.state_at(s).y)
    f_lo = f(lo)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or f_lo * fm < 0:
            hi = mid
        else:
            lo, f_lo = mid, fm
    s = 0.5 * (lo + hi)
    state = orbit.state_at(s)
    return state.y if which == "x" else state.x


def test_closed_curve_search_stability_under_tolerances():
    base = closed_curve_search(1.0, (0.125, 0.75))
    tight = closed_curve_search(
        1.0, (0.125, 0.75),
        OdeSettings(abs_tol=5e-11, rel_tol=5e-11, max_step=5e-3, event_tol=5e-13))
    assert abs(base.y0_star - tight.y0_star) < 1e-6


def test_closed_curve_search_h2_via_scan():
    bracket = scan_bracket(2.0)
    res = closed_curve_search(2.0, bracket)
    # Independent solve_ivp bisection baseline: y0* = 0.2639807059.
    assert res.y0_star == pytest.approx(0.2639807059, abs=1e-6)
    assert res.s1 == pytest.approx(1.64957283, abs=1e-5)
    assert res.y0_star < 0.6421766756  # smaller closed curve than H = 1
    assert abs(res.residual_y) < 1e-6


def _count_integrations(monkeypatch):
    from sol3 import ode

    calls, solve = [], ode.solve_fixed_horizon

    def counted(*args, **kwargs):
        calls.append((args[2], args[5]))  # (s_end, max_step)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ode, "solve_fixed_horizon", counted)
    return calls


def _fields(res):
    return res.y0_star, res.s1, res.residual_x, res.residual_y, res.iterations


def test_scanned_bracket_spares_integrating_its_ends(monkeypatch):
    calls = _count_integrations(monkeypatch)
    bracket = scan_bracket(2.0)
    assert type(bracket) is tuple
    n_scan = len(calls)
    given = closed_curve_search(2.0, bracket)
    del calls[:]
    scanned = closed_curve_search(2.0)
    assert _fields(scanned) == _fields(given)
    # The scan's two end integrations serve the search; only the iterations
    # and the final orbit are integrated on top of the scan.
    assert len(calls) == n_scan + scanned.iterations + 1


@pytest.mark.parametrize("settings,horizon", [
    (OdeSettings(max_step=5e-3), 40.0),
    (OdeSettings(max_s=60.0), 60.0),
])
def test_bracket_scanned_for_other_arguments_is_integrated_again(
        monkeypatch, settings, horizon):
    # Without a bracket, the scan runs with the search's own settings, never
    # with the defaults; each shot runs to max(max_s, 40).
    calls = _count_integrations(monkeypatch)
    bracket = scan_bracket(2.0, settings)
    n_scan = len(calls)
    given = closed_curve_search(2.0, bracket, settings)
    del calls[:]
    scanned = closed_curve_search(2.0, None, settings)
    assert _fields(scanned) == _fields(given)
    assert len(calls) == n_scan + scanned.iterations + 1
    assert set(calls) == {(horizon, settings.max_step), (scanned.s1, settings.max_step)}


def test_closed_curve_search_bad_bracket():
    with pytest.raises(BracketError) as err:
        closed_curve_search(1.0, (2.0, 3.0))
    assert err.value.residual_lo is not None and err.value.residual_lo > 0
    assert err.value.residual_hi is not None and err.value.residual_hi > 0


def test_closed_curve_search_rejects_zero_h():
    with pytest.raises(ValueError):
        closed_curve_search(0.0, (0.1, 1.0))


def test_diagonal_rulings_are_geodesics():
    # t = const curves of the diagonal types have vanishing covariant
    # acceleration; the x-parallel type does not (its norm is exactly 1).
    h2, h1 = 1e-3, 1e-5

    def accel_norm(kind, x0, y0, t):
        def c(s):
            return np.array(list(immersion(explicit_solution(kind, x0, y0, s), t)))

        vel = (c(h1) - c(-h1)) / (2 * h1)
        acc = (c(h2) - 2 * c(0) + c(-h2)) / (h2 * h2)
        gam = oracle.coord_christoffel(t)
        cov = acc + np.einsum("kij,i,j->k", gam, vel, vel)
        g = oracle.coord_metric(immersion(explicit_solution(kind, x0, y0, 0.0), t))
        return math.sqrt(float(cov @ g @ cov))

    for t in (-1.0, 0.0, 1.0):
        assert accel_norm("III", 0.7, 0.7, t) < 1e-8
        assert accel_norm("IV", 0.7, -0.7, t) < 1e-8
    assert accel_norm("I", 0.7, 0.3, 0.0) == pytest.approx(1.0, abs=1e-6)


def test_diagonal_surface_order_two_symmetry():
    # (x,y,z) -> (-y,-x,-z) maps the diagonal surface point (s,t) to (-s,-t).
    for s, t in ((0.3, 0.8), (-1.2, 0.5), (2.0, -1.5)):
        p = immersion(explicit_solution("III", 0.0, 0.0, s), t)
        q = immersion(explicit_solution("III", 0.0, 0.0, -s), -t)
        assert (-p.y, -p.x, -p.z) == pytest.approx((q.x, q.y, q.z), abs=1e-14)


def test_flat_circle_not_a_cmc_orbit():
    # The flat circle solves the zero-Gauss equation, not constant H; its
    # mean curvature varies along the curve.
    values = {round(mean_curvature(*circle_flat(1.0, s)), 6) for s in (0.0, 0.5, 1.0)}
    assert len(values) > 1
