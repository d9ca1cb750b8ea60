"""Classification, asymptotes, theorem checks and the shooting search."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st
from hypothesis.extra import numpy as hnp

from sol3 import (
    Axis,
    BracketError,
    ClosureError,
    CurveClass,
    CurveState,
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
from sol3 import analysis, oracle
from sol3.ode import _bisect
from sol3.surface import first_form
from support import reference_scan, reference_search

PI8 = math.pi / 8

LONG = OdeSettings(max_step=0.5, max_s=600.0)
# The default settings as a search's shots run them, to arc length 40.
SHOTS = OdeSettings(max_s=40.0)
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


def reference_inflection_points(traj):
    """`inflection_points` as a per-sample loop: a root wherever the sign of
    the concavity indicator flips across its zero samples."""
    if traj.explicit_kind is not None:
        return []

    def concavity(s):
        return first_form(traj.state_at(s)).F

    vals = analysis._concavity_indicator(traj)
    s = traj.s
    roots = []
    last_sign = 0.0
    zero_at = None
    for i in range(len(traj)):
        v = float(vals[i])
        if v == 0.0:
            zero_at = float(s[i])
            continue
        sign = math.copysign(1.0, v)
        if last_sign != 0.0 and sign != last_sign:
            if zero_at is not None:
                roots.append(zero_at)
            else:
                lo = float(s[i - 1])
                roots.append(_bisect(concavity, lo, float(s[i]), concavity(lo)))
        last_sign = sign
        zero_at = None
    return roots


@given(start=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))),
       theta0=st.floats(-math.pi, math.pi), max_step=st.sampled_from([0.1, 0.5]),
       max_s=st.floats(2.0, 30.0))
@example(start=(0.0, 0.0), theta0=PI8, max_step=0.1, max_s=30.0)
@example(start=(1.0, 2.0), theta0=math.pi / 10, max_step=0.1, max_s=30.0)
@hsettings(derandomize=True, max_examples=40, deadline=None)
def test_inflections_match_the_reference_loop(start, theta0, max_step, max_s):
    # Origin starts have F(0) = 0 exactly, so their root is that zero sample.
    traj = minimal(*start, theta0, OdeSettings(max_s=max_s, max_step=max_step))
    assert inflection_points(traj) == reference_inflection_points(traj)


INDICATOR_VALUES = st.one_of(st.sampled_from([0.0, -0.0, math.nan, -math.nan, 1.0, -1.0]),
                             st.floats(-1.0, 1.0))
SHORT_TRAJECTORY = minimal(1, 2, math.pi / 10, OdeSettings(max_s=1.0, max_step=0.1))
N_SHORT = len(SHORT_TRAJECTORY)


@given(vals=hnp.arrays(float, N_SHORT, elements=INDICATOR_VALUES))
@example(vals=np.resize([0.0, -0.0, -1.0, 0.0, 0.0, 1.0], N_SHORT))
@example(vals=np.resize([1.0, -0.0, 0.0, -1.0, math.nan, -math.nan, 0.0], N_SHORT))
@hsettings(derandomize=True, max_examples=200, deadline=None)
def test_inflections_match_the_reference_loop_on_drawn_indicators(vals):
    # Runs of +-0.0 are zero samples; a NaN is a nonzero sample of its sign bit.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_concavity_indicator", lambda traj: vals)
        got = inflection_points(SHORT_TRAJECTORY)
        want = reference_inflection_points(SHORT_TRAJECTORY)
    assert got == want


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


def _check_line_asymptotes(traj, result):
    """A snapped line I or II reports itself, the first line `asymptote_estimate`
    gives, as its one asymptote; a diagonal reports none."""
    want = {CurveClass.LINE_I: [Line(Axis.PARALLEL_TO_X, traj.ic.y0)],
            CurveClass.LINE_II: [Line(Axis.PARALLEL_TO_Y, traj.ic.x0)]}.get(result.kind, [])
    assert result.asymptotes == want
    if want:
        assert result.asymptotes == asymptote_estimate(traj)[:1]


def test_classification_lines():
    for x0, y0, theta0, kind in ((1, 2, 0.0, CurveClass.LINE_I),
                                 (1, 2, math.pi / 2, CurveClass.LINE_II),
                                 (1, 1, math.pi / 4, CurveClass.LINE_III),
                                 (1, -1, -math.pi / 4, CurveClass.LINE_IV)):
        traj = minimal(x0, y0, theta0, OdeSettings())
        result = classify_minimal(traj)
        assert result.kind is kind and result.inflection_s == []
        _check_line_asymptotes(traj, result)


@pytest.mark.parametrize("x0,y0,theta0,kind,direction", [
    (1.0, 1.0, math.pi, CurveClass.LINE_I, (-1.0, 0.0)),
    (1.0, 1.0, -math.pi, CurveClass.LINE_I, (-1.0, 0.0)),
    (1.0, -1.0, 3 * math.pi / 4, CurveClass.LINE_IV, (-1.0, 1.0)),
    (1.0, 1.0, -3 * math.pi / 4, CurveClass.LINE_III, (-1.0, -1.0)),
    # Angles beyond [-pi, pi] snap modulo 2 pi and keep their own theta.
    (1.0, 1.0, 2 * math.pi, CurveClass.LINE_I, (1.0, 0.0)),
    (1.0, 1.0, -2 * math.pi, CurveClass.LINE_I, (1.0, 0.0)),
    (1.0, 1.0, math.pi / 2 + 2 * math.pi, CurveClass.LINE_II, (0.0, 1.0)),
    (1.0, 1.0, math.pi / 4 + 2 * math.pi, CurveClass.LINE_III, (1.0, 1.0)),
    # Unequal offsets, so an asymptote on the wrong coordinate shows.
    (2.0, -3.0, math.pi, CurveClass.LINE_I, (-1.0, 0.0)),
    (2.0, -3.0, 1.5 * math.pi, CurveClass.LINE_II, (0.0, -1.0)),
])
def test_reversed_line_starts_snap(x0, y0, theta0, kind, direction):
    # The constant-angle lines run backwards, or from an angle a full turn
    # away; integrated, they would pick up a spurious inflection and read
    # type B or undetermined.
    traj = minimal(x0, y0, theta0, OdeSettings(max_s=50.0, max_step=0.5))
    result = classify_minimal(traj)
    assert result.kind is kind
    _check_line_asymptotes(traj, result)
    dx, dy = (c / math.hypot(*direction) for c in direction)
    for s in np.linspace(-50.0, 50.0, 41).tolist():
        got = traj.state_at(s)
        assert got.theta == theta0
        assert got.x == pytest.approx(x0 + s * dx, abs=1e-14)
        assert got.y == pytest.approx(y0 + s * dy, abs=1e-14)


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


@pytest.mark.parametrize("x0, y0, theta0", [(1, 1, math.pi / 4), (0, 0, 3 * math.pi / 4)])
def test_diagonal_line_asymptotes_name_the_backward_end(x0, y0, theta0):
    # Lines III and IV settle onto no axis-parallel line: the backward end is
    # refused with the line's own spans, |sin theta| = |cos theta| = 1/sqrt2.
    with pytest.raises(NotSettledError, match="^backward end not settled: tail max "
                       r"\|sin theta\| = 7\.071e-01, max \|cos theta\| = 7\.071e-01$") as err:
        asymptote_estimate(minimal(x0, y0, theta0, OdeSettings(max_s=10.0)))
    assert err.value.end == "backward"


@pytest.mark.parametrize("x0, y0, theta0", [(0, 0, PI8), (1, 2, 0.5)])
def test_one_sided_trajectories_are_refused(x0, y0, theta0):
    # A one-sided run's start is no end of the curve: it is neither classified
    # nor given an asymptote, while the two-sided run is a settled slab.
    ic = InitialCondition(x0, y0, theta0)
    assert classify_minimal(integrate(ic, LONG)).kind is CurveClass.TYPE_B
    one_sided = integrate_forward(ic, LONG)
    with pytest.raises(ValueError, match="classification needs a trajectory with an s < 0"):
        classify_minimal(one_sided)
    with pytest.raises(ValueError, match="asymptote estimate needs a trajectory with an s < 0"):
        asymptote_estimate(one_sided)


@pytest.mark.parametrize("theta0, inflections", [
    (math.pi / 10, []),           # a slab with no inflection: both ends on one axis
    (math.pi / 3, [1.0]),         # a corner with one: its ends on two axes
    (math.pi / 10, [1.0, 2.0]),   # two inflections fit neither type
])
def test_settled_ends_that_fit_neither_type_are_undetermined(monkeypatch, theta0, inflections):
    traj = minimal(1, 2, theta0, MEDIUM)
    lines = asymptote_estimate(traj)
    monkeypatch.setattr(analysis, "inflection_points", lambda traj: inflections)
    result = classify_minimal(traj)
    assert result == analysis.Classification(CurveClass.UNDETERMINED, inflections, lines)


def test_theorem_checks_report_the_first_violating_s(monkeypatch):
    # Indicator samples made non-negative at two s > 0 fail the concavity
    # check at the first of them; the other two checks still pass.
    traj = minimal(0, 0, PI8, OdeSettings(max_step=0.05, max_s=5.0))
    indicator = analysis._concavity_indicator(traj)
    first = int(np.searchsorted(traj.s, 1.0))
    indicator[[first, first + 7]] = (0.0, 1.0)
    monkeypatch.setattr(analysis, "_concavity_indicator", lambda traj: indicator)
    report = theorem_checks(traj)
    assert report.concave == analysis.PropertyCheck(False, float(traj.s[first]))
    assert report.monotone.passed and report.below_diagonal.passed
    assert not report.all_passed


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


def test_origin_symmetry_keeps_a_nan(monkeypatch):
    traj = integrate(InitialCondition(0, 0, 0.3), OdeSettings(max_s=2.0))
    state_at = traj.state_at
    nan_state = CurveState(0.0, math.nan, math.nan, math.nan)
    monkeypatch.setattr(traj, "state_at", lambda s: state_at(s) if s >= 0.0 else nan_state)
    assert math.isnan(origin_symmetry_deviation(traj))


def test_theorem_checks_preconditions():
    with pytest.raises(ValueError):
        theorem_checks(minimal(0, 0, math.pi / 4, OdeSettings(max_s=2.0)))
    with pytest.raises(ValueError):
        theorem_checks(minimal(1, 0, PI8, OdeSettings(max_s=2.0)))
    # Inside (0, pi/4) but within 1e-14 of an end the start snaps to a line,
    # whose samples would fail monotone (line I) or concave and below_diagonal (III).
    for theta0, kind in ((1e-15, "I"), (math.pi / 4 - 2e-16, "III")):
        traj = minimal(0, 0, theta0, OdeSettings(max_s=2.0))
        assert traj.explicit_kind == kind
        with pytest.raises(ValueError, match=r"theta0 in \(0, pi/4\)"):
            theorem_checks(traj)


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


def test_first_return_at_large_arc_length_ends(monkeypatch):
    # The turn lies near s = 10376, where one ulp of s is wider than
    # EVENT_TOL; its refinement ends on a bracket one ulp wide.  Every
    # predicate call is counted, so a loop that does not end fails.
    traj = integrate_forward(InitialCondition(0, 6000, 0),
                             OdeSettings(max_s=12000, max_step=20), H=0.5)
    calls = []

    def counted_find_event(traj, predicate):
        def counted(state):
            calls.append(state.s)
            assert len(calls) < len(traj) + 200, "the bisection does not end"
            return predicate(state)
        return find_event(traj, counted)

    monkeypatch.setattr(analysis, "find_event", counted_find_event)
    s1, state = first_return(traj)
    assert s1 == pytest.approx(10375.98, abs=0.01)
    assert state.theta == pytest.approx(-2 * math.pi, abs=1e-8)


@pytest.mark.parametrize("make", [
    lambda: integrate_forward(InitialCondition(0, 0.6425, 0), OdeSettings(max_s=10.0), H=1.0),
    lambda: integrate_forward(InitialCondition(0, 0.3, 0), OdeSettings(max_s=10.0), H=1.5,
                              stop_theta=-2 * math.pi),
    lambda: integrate(InitialCondition(0, 0.5, 0.2), OdeSettings(max_s=10.0), H=-1.0),
])
def test_first_return_matches_the_find_event_route(make):
    traj = make()
    target = traj.ic.theta0 - math.copysign(2.0 * math.pi, traj.H_target)
    s1 = find_event(traj, lambda st: st.theta - target)
    assert s1 is not None and first_return(traj) == (s1, traj.state_at(s1))


def shot_and_find_event_route(H, y0, settings):
    """`_shot`'s residuals and those of the full run to the same horizon, 40,
    searched by find_event and read by state_at, each as its repr."""
    settings = dataclasses.replace(settings, max_s=40.0)
    traj = integrate_forward(InitialCondition(0.0, y0, 0.0), settings, H=H)
    target = -math.copysign(2.0 * math.pi, H)
    s1 = find_event(traj, lambda st: st.theta - target)
    if s1 is None:
        expected = None
    else:
        end = traj.state_at(s1)
        expected = (end.x, end.y - y0, s1)
    shot = analysis._shot(H, y0, settings)
    return repr(shot and shot[:3]), repr(expected)


@pytest.mark.parametrize("H, y0", [
    (1.0, 0.6425), (1.0, 0.125), (2.0, 0.25), (0.8, 0.5), (-1.0, -0.5), (0.05, 0.5),
])
def test_shot_matches_the_find_event_route(H, y0):
    # The shot stops on the step that crosses its turn and refines only that
    # step, on its interpolant; the full run to the same horizon, searched by
    # find_event, gives the same residuals bit for bit, and no turn (H = 0.05
    # within 40) gives None.  The shot's fourth field is its run, which the
    # search continues.
    got, expected = shot_and_find_event_route(H, y0, OdeSettings())
    assert got == expected
    assert (expected == "None") == (H == 0.05)


@given(H=st.floats(0.3, 4.0), y0=st.floats(0.05, 2.0), sign=st.sampled_from([1.0, -1.0]),
       max_step=st.floats(1e-3, 0.5))
@hsettings(derandomize=True, max_examples=30, deadline=None)
def test_shot_matches_the_find_event_route_on_drawn_orbits(H, y0, sign, max_step):
    # The same on drawn orbits, y0 of H's sign; about a third of the draws
    # (the small |H|) make no turn within 40.
    got, expected = shot_and_find_event_route(sign * H, sign * y0,
                                              OdeSettings(max_step=max_step))
    assert got == expected


@pytest.mark.parametrize("run", [
    lambda H: scan_bracket(H),
    lambda H: closed_curve_search(H),
    lambda H: closed_curve_search(H, (0.125, 0.75)),
])
@pytest.mark.parametrize("H", [0.0, -0.0])
def test_zero_h_is_refused_before_any_shot(monkeypatch, run, H):
    calls = _count_integrations(monkeypatch)
    with pytest.raises(ValueError, match=r"require H != 0"):
        run(H)
    assert calls == []


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
        OdeSettings(tol=5e-11, max_step=5e-3))
    assert abs(base.y0_star - tight.y0_star) < 1e-6


def test_closed_curve_search_h2_via_scan():
    bracket = scan_bracket(2.0)
    res = closed_curve_search(2.0, bracket)
    # Independent solve_ivp bisection baseline: y0* = 0.2639807059.
    assert res.y0_star == pytest.approx(0.2639807059, abs=1e-6)
    assert res.s1 == pytest.approx(1.64957283, abs=1e-5)
    assert res.y0_star < 0.6421766756  # smaller closed curve than H = 1
    assert abs(res.residual_y) < 1e-6


def test_closed_curve_search_tends_to_the_circle_at_large_H():
    # As H grows the closed orbit tends to a circle of radius 1/(2H), so
    # H y0* -> 1/2 and H s1 -> pi; at H = 8 both are within 1%.
    res = closed_curve_search(8.0)
    assert 8.0 * res.y0_star == pytest.approx(0.5, rel=0.01)
    assert 8.0 * res.s1 == pytest.approx(math.pi, rel=0.01)
    assert abs(res.residual_y) < 1e-6


def _count_integrations(monkeypatch):
    from sol3 import ode

    calls, solve = [], ode.solve_fixed_horizon

    def counted(*args, **kwargs):
        calls.append((args[2], args[4]))  # (s_end, max_step)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ode, "solve_fixed_horizon", counted)
    return calls


def test_closing_orbit_continues_the_final_shot(monkeypatch):
    # The certificate's orbit is the final shot's run continued to s1: the
    # last stepper call starts past s = 0, at most two steps before s1.
    from sol3 import ode

    starts, solve = [], ode.solve_fixed_horizon

    def recorded(*args, **kwargs):
        starts.append((args[2], args[4], kwargs.get("start")))  # (s_end, max_step, start)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ode, "solve_fixed_horizon", recorded)
    res = closed_curve_search(1.0, (0.125, 0.75))
    s_end, max_step, start = starts[-1]
    assert (s_end, max_step) == (res.s1, OdeSettings().max_step)
    assert start is not None and 0.0 < start[0] and res.s1 - start[0] <= 2 * max_step


def test_shots_refine_on_their_step_not_through_state_at(monkeypatch):
    # Each shot finds its turn on its stopped step's interpolant: with the
    # generic lookup gone the anchor search gives, bit for bit, the fields
    # and orbit of the same search with it.  The CLI golden digest of
    # `shoot --H 1 --bracket 0.125:0.75` pins those bytes themselves.
    from sol3 import ode

    def refused(self, s):
        raise AssertionError("a shot called Trajectory.state_at")

    want = closed_curve_search(1.0, (0.125, 0.75))
    monkeypatch.setattr(ode.Trajectory, "state_at", refused)
    got = closed_curve_search(1.0, (0.125, 0.75))
    assert repr(_fields(got)) == repr(_fields(want))
    for name in ("s", "x", "y", "theta", "theta_prime"):
        assert getattr(got.trajectory, name).tobytes() == \
            getattr(want.trajectory, name).tobytes()


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


def _record_shots(monkeypatch, alter=lambda y0, settings, shot: shot):
    """Every `analysis._shot` call as (y0, settings, shot returned), the shot
    first passed through `alter`."""
    made, shoot = [], analysis._shot

    def recorded(H, y0, settings):
        made.append((y0, settings, alter(y0, settings, shoot(H, y0, settings))))
        return made[-1][2]

    monkeypatch.setattr(analysis, "_shot", recorded)
    return made


def _assert_same_scan(scanned, reference):
    # Bit for bit: the y0s, the residuals and the shots' runs.
    assert repr([(y0, shot[:3]) for y0, shot in scanned]) == \
        repr([(y0, shot[:3]) for y0, shot in reference])
    for (_, shot), (_, ref) in zip(scanned, reference):
        for name in ("s", "x", "y", "theta"):
            assert getattr(shot[3], name).tobytes() == getattr(ref[3], name).tobytes()


@pytest.mark.parametrize("settings,horizon", [
    (OdeSettings(max_step=5e-3), 40.0),
    (OdeSettings(max_s=60.0), 60.0),
])
def test_bracket_scanned_for_other_arguments_is_integrated_again(
        monkeypatch, settings, horizon):
    # Without a bracket, the scan reads grid signs, and the search its loose
    # iterates, off shots capped only by the horizon, max(max_s, 40); every
    # shot whose numbers reach the output, the bracket's two ends and the
    # final shot that the orbit continues included, runs with the search's
    # own settings, never with the defaults.
    calls = _count_integrations(monkeypatch)
    bracket = scan_bracket(2.0, settings)
    n_scan = len(calls)
    given = closed_curve_search(2.0, bracket, settings)
    del calls[:]
    scanned = closed_curve_search(2.0, None, settings)
    assert _fields(scanned) == _fields(given)
    assert len(calls) == n_scan + scanned.iterations + 1
    assert set(calls) == {(horizon, horizon), (horizon, settings.max_step),
                          (scanned.s1, settings.max_step)}
    assert set(calls[n_scan:]) == set(calls)
    assert calls[-2:] == [(horizon, settings.max_step), (scanned.s1, settings.max_step)]
    made = _record_shots(monkeypatch)
    shots = dataclasses.replace(settings, max_s=horizon)
    ends = analysis._scan(2.0, shots)
    assert tuple(y0 for y0, _ in ends) == bracket
    assert all(any(shot is end and used == shots for _, used, shot in made)
               for _, end in ends)


def test_scan_without_a_counted_sign_shoots_as_the_reference(monkeypatch):
    # No sign clears an infinite margin: every point is shot again at the
    # caller's settings, in the reference scan's order and with its result.
    monkeypatch.setattr(analysis, "_SIGN_MARGIN", math.inf)
    made = _record_shots(monkeypatch)
    scanned = analysis._scan(2.0, SHOTS)
    caller = [y0 for y0, used, _ in made if used == SHOTS]
    del made[:]
    reference = reference_scan(2.0, SHOTS)
    assert caller == [y0 for y0, _, _ in made] == [1 / 16, 1 / 8, 0.25, 0.5]
    _assert_same_scan(scanned, reference)


def test_scan_point_whose_sign_shot_does_not_turn_is_shot_again(monkeypatch):
    def unturned(y0, settings, shot):
        return None if (y0, settings.max_step) == (1 / 8, 40.0) else shot

    made = _record_shots(monkeypatch, unturned)
    scanned = analysis._scan(2.0, SHOTS)
    assert [y0 for y0, used, _ in made if used == SHOTS] == [1 / 8, 0.25, 0.5]
    _assert_same_scan(scanned, reference_scan(2.0, SHOTS))


def test_scan_goes_on_from_a_sign_change_its_ends_do_not_confirm(monkeypatch):
    # A sign shot flipped at y0 = 1/8 shows a false change next to 1/16;
    # both ends, shot at the caller's settings, agree, and the scan carries
    # on from them to the reference's bracket.
    def flipped(y0, settings, shot):
        return (-shot[0],) + shot[1:] if (y0, settings.max_step) == (1 / 8, 40.0) else shot

    made = _record_shots(monkeypatch, flipped)
    scanned = analysis._scan(2.0, SHOTS)
    assert [y0 for y0, used, _ in made if used == SHOTS] == [1 / 16, 1 / 8, 0.25, 0.5]
    _assert_same_scan(scanned, reference_scan(2.0, SHOTS))


@hsettings(derandomize=True, max_examples=25, deadline=None)
@given(H=st.floats(0.4, 8.0), negative=st.booleans(),
       tol_exp=st.floats(-12.0, -6.0),
       max_step=st.sampled_from([5e-3, 1e-2, 0.2, 0.5]), max_s=st.sampled_from([10.0, 60.0]))
@example(H=0.45, negative=False, tol_exp=-10.0, max_step=1e-2, max_s=10.0)
@example(H=1.0, negative=True, tol_exp=-6.0, max_step=0.5, max_s=10.0)
def test_scan_and_search_match_the_reference_scan(H, negative, tol_exp, max_step, max_s):
    # The sign-only shots change no bracket and no bit of the search: the
    # same (y0, shot) pairs, or the same BracketError, and the same fields.
    H = -H if negative else H
    settings = OdeSettings(tol=10.0 ** tol_exp, max_step=max_step, max_s=max_s)
    outcomes = []
    for scan in (analysis._scan, reference_scan):
        scans = []

        def recorded(H, settings, scan=scan):
            scans.append(scan(H, settings))
            return scans[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_scan", recorded)
            try:
                outcome = repr(_fields(closed_curve_search(H, None, settings)))
            except (BracketError, ClosureError) as err:
                outcome = f"{type(err).__name__}: {err}"
        outcomes.append((scans, outcome))
    (scanned, outcome), (reference, ref_outcome) = outcomes
    assert outcome == ref_outcome
    assert len(scanned) == len(reference)
    if scanned:
        _assert_same_scan(scanned[0], reference[0])


def _count_rhs_calls(monkeypatch):
    from sol3 import ode

    count, raw_rhs = [0], ode._raw_rhs

    def counted_rhs(H):
        f = raw_rhs(H)

        def counted(x, y, theta):
            count[0] += 1
            return f(x, y, theta)

        return counted

    monkeypatch.setattr(ode, "_raw_rhs", counted_rhs)
    return count


@pytest.mark.parametrize("H", [0.8, 2.0])
def test_sign_shots_take_fewer_rhs_calls_than_the_reference_scan(monkeypatch, H):
    # Shots that only read a sign run uncapped at _SIGN_TOL; capping them
    # again would cost more than shooting every point at the caller's settings.
    count = _count_rhs_calls(monkeypatch)
    res = closed_curve_search(H)
    n_calls, count[0] = count[0], 0
    monkeypatch.setattr(analysis, "_scan", reference_scan)
    ref = closed_curve_search(H)
    assert repr(_fields(res)) == repr(_fields(ref))
    assert 0 < n_calls < count[0]


@pytest.mark.parametrize("H, bracket", [(0.8, None), (2.0, None), (1.0, (0.125, 0.75))])
def test_two_phase_search_takes_fewer_rhs_calls_than_the_reference_search(
        monkeypatch, H, bracket):
    # Loose iterates and a closing secant cost less than shooting every
    # iterate at the caller's settings, and land on the same y0*.
    count = _count_rhs_calls(monkeypatch)
    res = closed_curve_search(H, bracket)
    n_calls, count[0] = count[0], 0
    ref = reference_search(H, bracket)
    assert 0 < n_calls < count[0]
    assert abs(res.y0_star - ref.y0_star) < 1e-9


def test_loose_shots_take_a_caller_tol_looser_than_the_sign_tol(monkeypatch):
    # At tol 1e-6 the scan's sign shots and the loose iterates run at that
    # tol, uncapped, and the loose phase stops below 100 times it: here on
    # its first iterate, whose |x(s1)| is above 100 * _SIGN_TOL.
    settings = OdeSettings(tol=1e-6)
    loose = OdeSettings(tol=1e-6, max_step=40.0, max_s=40.0)
    made = _record_shots(monkeypatch)
    res = closed_curve_search(3.0, None, settings)
    assert {used for _, used, _ in made} == {loose, dataclasses.replace(settings, max_s=40.0)}
    iterates = [abs(shot[0]) for y0, used, shot in made
                if used == loose and y0 not in analysis._SCAN_GRID]
    assert len(iterates) == 1 and 100 * analysis._SIGN_TOL <= iterates[0] < 100 * 1e-6
    assert abs(res.y0_star - closed_curve_search(3.0).y0_star) < 1e-9


def test_closed_curve_search_bad_bracket():
    with pytest.raises(BracketError) as err:
        closed_curve_search(1.0, (2.0, 3.0))
    assert err.value.residual_lo is not None and err.value.residual_lo > 0
    assert err.value.residual_hi is not None and err.value.residual_hi > 0


@pytest.mark.parametrize("bracket", [(0.75, 0.125), (0.5, 0.5), (math.nan, 0.75),
                                     (0.125, math.inf), (-math.inf, 0.75)])
def test_closed_curve_search_refuses_a_malformed_bracket(monkeypatch, bracket):
    # Refused before any shot: a reversed bracket used to be integrated at both
    # ends and then reported as a collapsed bracket.
    calls = _count_integrations(monkeypatch)
    with pytest.raises(ValueError, match=r"bracket \(.*\) must be finite with lo < hi"):
        closed_curve_search(1.0, bracket)
    assert calls == []


# The start of the closed reference H = 1 orbit.
Y0_STAR = 0.64217667565445699
# The loose shots of a search at the default settings: uncapped to 40, at _SIGN_TOL.
LOOSE = OdeSettings(tol=1e-7, max_step=40.0, max_s=40.0)


def _fake_shots(monkeypatch, rx_of, loose_rx_of=None):
    """Make every `analysis._shot` return x(s1) = rx_of(y0), or loose_rx_of(y0)
    for a loose shot when given, with the real reference orbit's shot
    otherwise, so that the certificate passes and the final shot's
    stop-angle run is continued; returns the shots as (y0, loose)."""
    _, ry, s1, traj = analysis._shot(1.0, Y0_STAR, SHOTS)
    shot = []

    def fake(H, y0, settings):
        loose = settings == LOOSE
        assert loose or settings == SHOTS
        shot.append((y0, loose))
        return (loose_rx_of if loose and loose_rx_of else rx_of)(y0), ry, s1, traj

    monkeypatch.setattr(analysis, "_shot", fake)
    return shot


@pytest.mark.parametrize("end", [0, 1])
def test_search_takes_an_end_with_zero_residual(monkeypatch, end):
    bracket = (0.5, 0.75)
    shot = _fake_shots(monkeypatch,
                       lambda y0: 0.0 if y0 == bracket[end] else (-1.0, 1.0)[1 - end])
    res = closed_curve_search(1.0, bracket)
    assert (res.y0_star, res.iterations) == (bracket[end], 0)
    assert shot == [(y0, False) for y0 in bracket]
    assert res.trajectory.s[-1] == res.s1 == pytest.approx(3.9326, abs=1e-3)


def test_search_bisects_when_the_secant_rounds_onto_an_end(monkeypatch):
    # With x(s1) = -1e-300 at lo and 1 at hi, the loose phase's secant step
    # rounds to lo exactly, so the midpoint is shot instead; its x(s1) = 0
    # ends both phases there.
    shot = _fake_shots(monkeypatch, lambda y0: {0.5: -1e-300, 0.75: 1.0}.get(y0, 0.0))
    res = closed_curve_search(1.0, (0.5, 0.75))
    assert shot == [(0.5, False), (0.75, False), (0.625, True), (0.625, False)]
    assert (res.y0_star, res.iterations) == (0.625, 2)


def test_search_bisects_when_a_closing_step_leaves_the_bracket(monkeypatch):
    # The loose phase stops at the secant root 0.625 of the ends; there
    # x(s1) = 5 at the caller's settings, and the step 5 / 8 along the
    # loose slope lands at 0, below the bracket [0.5, 0.625], so its
    # midpoint is shot instead, where x(s1) = 0.
    rx = {0.5: -1.0, 0.75: 1.0, 0.625: 5.0, 0.5625: 0.0}
    shot = _fake_shots(monkeypatch, lambda y0: rx.get(y0, -1.0), loose_rx_of=lambda y0: 0.0)
    res = closed_curve_search(1.0, (0.5, 0.75))
    assert shot == [(0.5, False), (0.75, False), (0.625, True), (0.625, False),
                    (0.5625, False)]
    assert (res.y0_star, res.iterations) == (0.5625, 3)


def test_closing_phase_stops_on_y0_not_on_x(monkeypatch):
    # x(s1) = 0.01 (y0 - Y0_STAR): the ends' secant root, where the loose
    # phase stops, is 5e-9 above Y0_STAR.  There |x(s1)| = 5e-11 is below
    # DEFAULT_RESIDUAL_TOL, but the secant step 5e-9 is not, so one more
    # shot lands on Y0_STAR.
    off = Y0_STAR + 5e-9
    ends = {0.5: 0.01 * (0.5 - off), 0.75: 0.01 * (0.75 - off)}
    shot = _fake_shots(monkeypatch, lambda y0: ends.get(y0, 0.01 * (y0 - Y0_STAR)),
                       loose_rx_of=lambda y0: 0.0)
    res = closed_curve_search(1.0, (0.5, 0.75))
    assert shot[2:4] == [(pytest.approx(off, abs=1e-15), True),
                         (pytest.approx(off, abs=1e-15), False)]
    assert res.y0_star == pytest.approx(Y0_STAR, abs=1e-14)
    assert res.iterations == 3


def _step_at(c):
    """x(s1) as a step from -1 to 1 at y0 = c, never within the residual tolerance."""
    return lambda y0: -1.0 if y0 < c else 1.0


def test_loose_phase_hands_its_latest_iterate_on_at_the_iteration_cap(monkeypatch):
    # Loose shots that never come near zero stop the loose phase at the cap;
    # the closing phase goes on from its latest iterate and finds the root
    # of the caller's x(s1), here a line through Y0_STAR.
    monkeypatch.setattr(analysis, "_MAX_SHOOT_ITER", 5)
    shot = _fake_shots(monkeypatch, lambda y0: 0.5 * (y0 - Y0_STAR), loose_rx_of=_step_at(0.6))
    res = closed_curve_search(1.0, (0.5, 0.75))
    assert [loose for _, loose in shot] == [False] * 2 + [True] * 5 + [False] * (len(shot) - 7)
    assert shot[7][0] == shot[6][0]  # the closing phase starts at the last loose iterate
    assert res.y0_star == pytest.approx(Y0_STAR, abs=1e-12)
    assert res.iterations == len(shot) - 2


def test_search_gives_up_after_the_iteration_cap(monkeypatch):
    # Each phase is allowed _MAX_SHOOT_ITER iterations; the closing phase
    # then gives up.
    monkeypatch.setattr(analysis, "_MAX_SHOOT_ITER", 5)
    shot = _fake_shots(monkeypatch, _step_at(0.6))
    with pytest.raises(BracketError, match=r"in 5 iterations"):
        closed_curve_search(1.0, (0.5, 0.75))
    assert [loose for _, loose in shot] == [False] * 2 + [True] * 5 + [False] * 5


def test_search_reports_a_collapsed_bracket(monkeypatch):
    # Illinois steps on a step narrow the loose bracket until it is a few ulps
    # wide, which hands its iterate on; the closing phase's bracket, from the
    # ends, then collapses onto the step too, well before either cap.
    shot = _fake_shots(monkeypatch, _step_at(0.6))
    with pytest.raises(BracketError, match=r"bracket collapsed at y0 = 0\.6"):
        closed_curve_search(1.0, (0.5, 0.75))
    n_loose = sum(loose for _, loose in shot)
    assert 40 < n_loose < analysis._MAX_SHOOT_ITER
    assert 0 < len(shot) - 2 - n_loose < analysis._MAX_SHOOT_ITER


@pytest.mark.parametrize("turns_again", [True, False])
def test_loose_shot_that_does_not_turn_is_shot_again(monkeypatch, turns_again):
    # A loose shot that makes no turn is shot again at the caller's
    # settings, which count as the same iterate; when that one makes no turn
    # either, the search reports it.
    def unturned(y0, settings, shot):
        first_loose = settings == LOOSE and all(used != LOOSE for _, used, _ in made)
        again = not turns_again and made and made[-1][1] == LOOSE and made[-1][2] is None
        return None if first_loose or again else shot

    made = _record_shots(monkeypatch, unturned)
    if not turns_again:
        with pytest.raises(BracketError, match=r"no angular return"):
            closed_curve_search(1.0, (0.125, 0.75))
        assert [used for _, used, _ in made] == [SHOTS, SHOTS, LOOSE, SHOTS]
        return
    res = closed_curve_search(1.0, (0.125, 0.75))
    assert [used for _, used, _ in made][2:4] == [LOOSE, SHOTS]
    assert made[2][0] == made[3][0] and made[2][2] is None
    assert res.iterations == len(made) - 3
    assert res.y0_star == pytest.approx(Y0_STAR, abs=1e-9)


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
