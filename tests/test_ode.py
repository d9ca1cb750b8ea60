"""Integrator behaviour: explicit solutions, convergence, events, cross-checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st
from scipy.integrate import solve_ivp

from sol3 import (
    CurveState,
    InitialCondition,
    IntegrationError,
    InvalidInitialCondition,
    OdeSettings,
    circle_flat,
    explicit_solution,
    find_event,
    gauss_curvature,
    graph_residual,
    integrate,
    integrate_forward,
    mean_curvature,
    rhs_cmc,
    rhs_minimal,
)

PI8 = math.pi / 8


def scipy_reference(ic, s_end, H=None):
    """Independent trajectory endpoint at tight tolerance."""

    def f(_s, u):
        state = CurveState(0.0, u[0], u[1], u[2])
        return rhs_minimal(state) if H is None else rhs_cmc(state, H)

    sol = solve_ivp(f, (0.0, s_end), [ic.x0, ic.y0, ic.theta0],
                    rtol=1e-12, atol=1e-12, dense_output=True)
    return sol.y[:, -1]


def test_settings_validation():
    with pytest.raises(ValueError):
        OdeSettings(abs_tol=0.0)
    with pytest.raises(ValueError):
        OdeSettings(max_step=-1.0)
    defaults = OdeSettings()
    assert defaults.abs_tol == 1e-10 and defaults.rel_tol == 1e-10
    assert defaults.max_step == 1e-2 and defaults.event_tol == 1e-12


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol", "max_step", "max_s", "event_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_settings_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        OdeSettings(**{field: value})


@pytest.mark.parametrize("theta0", [2.0 ** 20 + 1.0, -1e308, 1e308])
def test_initial_condition_refuses_huge_launch_angle(theta0):
    # From 2**20 on, an ulp of theta0 outweighs the default tolerance and a
    # step's h * theta' no longer moves theta0.
    with pytest.raises(ValueError, match=r"2\*\*20 = 1048576"):
        InitialCondition(0.0, 0.0, theta0)
    bound = math.copysign(2.0 ** 20, theta0)
    assert InitialCondition(0.0, 0.0, bound).theta0 == bound


def test_rhs_minimal_constant_angle_starts():
    assert rhs_minimal(CurveState(0, 1.3, -0.2, 0.0)) == (1.0, 0.0, 0.0)
    dx, dy, dth = rhs_minimal(CurveState(0, 0.9, 0.9, math.pi / 4))
    assert dx == pytest.approx(math.cos(math.pi / 4))
    assert dy == pytest.approx(math.sin(math.pi / 4))
    assert dth == pytest.approx(0.0, abs=1e-16)
    dx, dy, dth = rhs_minimal(CurveState(0, 0.4, -2.0, math.pi / 2))
    assert dx == pytest.approx(0.0, abs=1e-16)
    assert dy == pytest.approx(1.0)
    assert dth == pytest.approx(0.0, abs=1e-15)


def test_rhs_cmc_reduces_to_minimal():
    rng = np.random.default_rng(0)
    for _ in range(100):
        state = CurveState(0.0, *rng.uniform(-2, 2, size=2), rng.uniform(-3, 3))
        assert rhs_cmc(state, 0.0) == rhs_minimal(state)


def test_rhs_cmc_example_and_inversion():
    assert rhs_cmc(CurveState(0, 0, 0, 0), 1.0)[2] == -2.0
    # theta' produced by the field plugs back into H exactly.
    rng = np.random.default_rng(1)
    for _ in range(1000):
        state = CurveState(0.0, *rng.uniform(-2, 2, size=2), rng.uniform(-3, 3))
        H = rng.uniform(-2, 2)
        dtheta = rhs_cmc(state, H)[2]
        assert mean_curvature(state, dtheta) == pytest.approx(H, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind,ic", [
    ("I", (1.0, 2.0, 0.0)),
    ("II", (1.0, 2.0, math.pi / 2)),
    ("III", (1.0, 1.0, math.pi / 4)),
    ("IV", (1.0, -1.0, -math.pi / 4)),
])
def test_snapped_lines_are_exact(kind, ic):
    traj = integrate(InitialCondition(*ic), OdeSettings(max_s=10.0))
    assert traj.explicit_kind == kind
    for s in np.linspace(-10, 10, 41):
        got = traj.state_at(float(s))
        want = explicit_solution(kind, ic[0], ic[1], float(s))
        assert abs(got.x - want.x) < 1e-14
        assert abs(got.y - want.y) < 1e-14
        assert got.theta == want.theta
    # sin(pi) = 1.2e-16 leaves a sub-eps residual on the vertical line
    assert traj.max_ode_residual() < 1e-15


@pytest.mark.parametrize("kind,ic", [
    ("I", (1.0, 2.0, 0.0)),
    ("II", (1.0, 2.0, math.pi / 2)),
    ("III", (1.0, 1.0, math.pi / 4)),
    ("IV", (1.0, -1.0, -math.pi / 4)),
])
def test_unsnapped_numerics_match_lines(kind, ic):
    traj = integrate(InitialCondition(*ic), OdeSettings(max_s=10.0), snap=False)
    assert traj.explicit_kind is None
    worst = 0.0
    for s in np.linspace(-10, 10, 81):
        got = traj.state_at(float(s))
        want = explicit_solution(kind, ic[0], ic[1], float(s))
        worst = max(worst, abs(got.x - want.x), abs(got.y - want.y),
                    abs(got.theta - want.theta))
    assert worst < 1e-8


def test_explicit_solution_examples():
    st = explicit_solution("I", 1.0, 2.0, 0.7)
    assert (st.x, st.y, st.theta) == (1.7, 2.0, 0.0)
    st = explicit_solution("II", 1.0, 2.0, 0.7)
    assert (st.x, st.y, st.theta) == (1.0, 2.7, math.pi / 2)
    # The frozen coordinate is kept as given, signed zero included.
    assert math.copysign(1.0, explicit_solution("II", -0.0, 0.0, 1.0).x) == -1.0
    assert math.copysign(1.0, explicit_solution("I", 0.0, -0.0, 1.0).y) == -1.0
    st = explicit_solution("IV", 1.0, -1.0, 1.0)
    assert st.x == pytest.approx(1.0 + 1.0 / math.sqrt(2), rel=1e-15)
    assert st.y == pytest.approx(-1.0 - 1.0 / math.sqrt(2), rel=1e-15)
    assert st.theta == -math.pi / 4


@pytest.mark.parametrize("kind,theta0", [
    ("I", 0.0), ("II", math.pi / 2), ("III", math.pi / 4), ("IV", -math.pi / 4)])
def test_line_routes_agree_on_signed_zero(kind, theta0):
    settings = OdeSettings(max_s=1.0, max_step=0.25)
    if kind in ("I", "II"):
        # The frozen coordinate keeps the sign of a -0.0 start on both sides.
        traj = integrate(InitialCondition(-0.0, -0.0, theta0), settings)
        assert np.all(np.signbit(traj.y if kind == "I" else traj.x))
    # Samples, dense output and the closed form agree bit for bit, signed
    # zeros included (line IV through the origin has y = -0.0 at s = 0).
    for x0, y0 in ((-0.0, -0.0), (0.0, 0.0), (0.0, -0.0)):
        traj = integrate(InitialCondition(x0, y0, theta0), settings)
        assert traj.explicit_kind == kind
        for i, s in enumerate(traj.s.tolist()):
            want = explicit_solution(kind, x0, y0, s)
            for got in (traj.state_at(s), traj.sample(i)[0]):
                assert (got.x, got.y) == (want.x, want.y)
                assert np.signbit([got.x, got.y]).tolist() == \
                    np.signbit([want.x, want.y]).tolist()


def test_explicit_solution_preconditions():
    with pytest.raises(InvalidInitialCondition):
        explicit_solution("III", 1.0, 2.0, 0.0)
    with pytest.raises(InvalidInitialCondition):
        explicit_solution("IV", 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        explicit_solution("V", 0.0, 0.0, 0.0)


def test_trajectory_shape_and_monotone_samples():
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=5.0))
    assert np.all(np.diff(traj.s) > 0)
    assert traj.s[0] == -5.0 and traj.s[-1] == 5.0
    state0, tp0 = traj.sample(int(np.searchsorted(traj.s, 0.0)))
    assert (state0.x, state0.y, state0.theta) == (0.0, 0.0, PI8)
    assert tp0 == rhs_minimal(state0)[2]
    assert traj.max_ode_residual() == 0.0


def test_trajectory_immutable():
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=1.0))
    with pytest.raises(ValueError):
        traj.s[0] = 0.0


def test_dense_output_matches_nodes():
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=5.0))
    worst = 0.0
    for state, _tp in traj.samples:
        dense = traj.state_at(state.s)
        worst = max(worst, abs(dense.x - state.x), abs(dense.y - state.y),
                    abs(dense.theta - state.theta))
    assert worst < 1e-12


def test_step_size_underflow_raises():
    # A field with a finite-time pole collapses the step size.
    from sol3._rk import StepSizeUnderflow, solve_fixed_horizon

    with pytest.raises(StepSizeUnderflow) as err:
        solve_fixed_horizon(lambda y: (1.0 + y * y,), (1.0,), 2.0,
                            1e-10, 1e-10, 0.1)
    assert 0.0 < err.value.last_s < 2.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_horizon_within_rounding_is_reached(sign):
    # Line I grows its step tenfold per step; the clipped last step's t + h
    # lands one ulp short of the horizon, and that remainder is not stepped.
    from sol3._rk import StepSizeUnderflow, solve_fixed_horizon

    f = lambda x, y, th: rhs_minimal(CurveState(0.0, x, y, th))
    span = 3.6365642928673023
    ss, _, segments = solve_fixed_horizon(f, (0.0, 0.0, 0.0), sign * span,
                                          1e-10, 1e-10, 1000.0)
    assert abs(abs(ss[-1]) - span) <= math.ulp(span)
    assert len(segments) == len(ss) - 1 == 5
    # A horizon below step resolution from s = 0 is still an underflow.
    with pytest.raises(StepSizeUnderflow):
        solve_fixed_horizon(f, (0.0, 0.0, 0.3), sign * 1e-15, 1e-10, 1e-10, 0.01)


def test_tiny_tolerances_reject_steps_without_overflow():
    # The scaled error overflows to inf: every step is rejected until the step
    # size underflows, and no OverflowError escapes the float arithmetic.
    from sol3._rk import StepSizeUnderflow, solve_fixed_horizon

    with pytest.raises(StepSizeUnderflow):
        solve_fixed_horizon(lambda x, y, th: rhs_minimal(CurveState(0.0, x, y, th)),
                            (0.0, 0.0, 0.3), 1.0, 1e-300, 1e-300, 0.01)
    with pytest.raises(IntegrationError):
        integrate(InitialCondition(0, 0, 0.3), OdeSettings(abs_tol=1e-300, rel_tol=1e-300))


def test_step_budget_ends_in_integration_error(monkeypatch):
    from sol3 import _rk

    f = lambda x, y, th: rhs_minimal(CurveState(0.0, x, y, th))
    monkeypatch.setattr(_rk, "MAX_STEPS", 50)
    ss, _, _ = _rk.solve_fixed_horizon(f, (0.0, 0.0, 0.3), 0.4, 1e-10, 1e-10, 0.01)
    assert ss[-1] == 0.4  # 41 steps, none rejected, fit the budget
    with pytest.raises(_rk.StepBudgetExceeded) as err:
        _rk.solve_fixed_horizon(f, (0.0, 0.0, 0.3), -1.0, 1e-10, 1e-10, 0.01)
    assert -1.0 < err.value.last_s < 0.0
    with pytest.raises(IntegrationError, match="50 attempted steps"):
        integrate(InitialCondition(0, 0, 0.3), OdeSettings(max_s=1.0))


@pytest.mark.parametrize("H", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("run", [integrate, integrate_forward])
def test_non_finite_h_is_refused(run, H):
    with pytest.raises(ValueError, match="H must be finite"):
        run(InitialCondition(0.0, 0.5, 0.0), OdeSettings(max_s=1.0), H=H)


@pytest.mark.parametrize("run", [integrate, integrate_forward])
def test_overflowing_h_ends_in_integration_error(run):
    # 2 H W^{3/2} overflows, the first stage angle is -inf and math.sin raises;
    # the integration ends at its start, the last good s.
    with pytest.raises(IntegrationError, match="not finite") as err:
        run(InitialCondition(0.0, 0.5, 0.0), OdeSettings(max_s=1.0), H=1e308)
    assert err.value.last_s == 0.0


def test_non_finite_stage_names_the_last_accepted_s():
    from sol3._rk import NonFiniteState, solve_fixed_horizon

    def f(x):  # finite until x passes 0.5, then math.sin of inf raises
        return (math.sin(x * math.inf if x > 0.5 else x) + 1.0,)

    with pytest.raises(NonFiniteState) as err:
        solve_fixed_horizon(f, (0.0,), 2.0, 1e-10, 1e-10, 0.01)
    assert 0.0 < err.value.last_s <= 0.5


@pytest.mark.parametrize("make", [
    lambda: integrate(InitialCondition(0.2, -0.1, PI8), OdeSettings(max_s=3.0)),
    lambda: integrate(InitialCondition(0.0, 0.6, 0.0), OdeSettings(max_s=3.0), H=1.0),
    lambda: integrate_forward(InitialCondition(0.0, 0.6, 0.0), OdeSettings(max_s=10.0),
                              H=1.0, stop_event=lambda s, yv: yv[2] + 2 * math.pi),
    lambda: integrate_forward(InitialCondition(0.0, 0.5, 0.1), H=1.0, horizon=0.0),
])
def test_theta_prime_is_the_rhs_at_every_sample(make):
    traj = make()
    H = traj.H_target
    rhs = rhs_minimal if H is None else lambda state: rhs_cmc(state, H)
    raw = [rhs(CurveState(0.0, x, y, th))[2]
           for x, y, th in zip(traj.x.tolist(), traj.y.tolist(), traj.theta.tolist())]
    assert np.array_equal(traj.theta_prime, np.array(raw))


def test_stop_event_sees_accepted_states():
    from sol3._rk import solve_fixed_horizon

    seen = []

    def stop(s, yv):
        seen.append((s, list(yv)))
        return yv[2] + 0.5  # theta passes -0.5 on this CMC field

    f = lambda x, y, th: rhs_cmc(CurveState(0.0, x, y, th), 1.0)
    ss, ys, segments = solve_fixed_horizon(f, (0.0, 0.6, 0.0), 10.0,
                                           1e-10, 1e-10, 0.01, stop)
    assert ss[-1] < 10.0 and len(segments) == len(ss) - 1
    assert seen == [(s, row) for s, row in zip(ss.tolist(), ys.tolist())]
    assert ys[-2, 2] > -0.5 >= ys[-1, 2]


def test_dense_segment_ends_reproduce_samples():
    traj = integrate(InitialCondition(0.2, -0.1, PI8), OdeSettings(max_s=2.0))
    rows = np.column_stack([traj.x, traj.y, traj.theta])
    index = {s: i for i, s in enumerate(traj.s.tolist())}
    step_signs = set()
    for seg in traj._segments:
        step_signs.add(math.copysign(1.0, seg.h))
        # The stepper forms each sample time as t0 + h, so both ends are samples.
        for t in (seg.t0, seg.t0 + seg.h):
            assert np.max(np.abs(np.array(seg.eval(t)) - rows[index[t]])) < 1e-12
    assert step_signs == {-1.0, 1.0}


def test_determinism_bitwise():
    a = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=5.0))
    b = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=5.0))
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.theta, b.theta)


def test_against_independent_integrator():
    ic = InitialCondition(0, 0, PI8)
    traj = integrate(ic, OdeSettings(max_s=10.0))
    ref = scipy_reference(ic, 10.0)
    end = traj.state_at(10.0)
    assert abs(end.x - ref[0]) < 1e-8
    assert abs(end.y - ref[1]) < 1e-8
    assert abs(end.theta - ref[2]) < 1e-8


def test_against_independent_integrator_cmc():
    ic = InitialCondition(0.0, 0.5, 0.0)
    traj = integrate(ic, OdeSettings(max_s=3.0), H=1.0)
    ref = scipy_reference(ic, 3.0, H=1.0)
    end = traj.state_at(3.0)
    assert abs(end.x - ref[0]) < 1e-8
    assert abs(end.y - ref[1]) < 1e-8
    assert abs(end.theta - ref[2]) < 1e-8


def test_tolerance_convergence():
    ic = InitialCondition(0, 0, PI8)
    base = integrate(ic, OdeSettings(max_s=10.0)).state_at(10.0)
    half = integrate(ic, OdeSettings(abs_tol=5e-11, rel_tol=5e-11, max_s=10.0)).state_at(10.0)
    tol = 1e-10
    assert abs(base.x - half.x) < 10 * tol
    assert abs(base.y - half.y) < 10 * tol
    assert abs(base.theta - half.theta) < 10 * tol


def test_minimal_angle_stays_in_open_quadrant():
    for theta0 in (0.2, PI8, 1.1, 1.4):
        if abs(theta0 - math.pi / 4) < 1e-12:
            continue
        traj = integrate(InitialCondition(0.3, -0.7, theta0), OdeSettings(max_s=40.0, max_step=0.1))
        assert np.all(traj.theta > 0.0)
        assert np.all(traj.theta < math.pi / 2)


def test_origin_symmetry():
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=20.0, max_step=0.1))
    for s in np.linspace(0, 20, 101):
        a = traj.state_at(float(s))
        b = traj.state_at(float(-s))
        assert abs(b.x + a.x) < 1e-9
        assert abs(b.y + a.y) < 1e-9
        assert abs(b.theta - a.theta) < 1e-9


@given(theta0=st.floats(0.01, 1.5, exclude_min=True, exclude_max=True),
       max_step=st.sampled_from([0.1, 0.5]))
@hsettings(derandomize=True, max_examples=25, deadline=None)
def test_origin_symmetry_is_exact(theta0, max_step):
    # The backward run takes the forward run's steps with the sign flipped, so
    # the samples mirror bit for bit through the origin.
    traj = integrate(InitialCondition(0.0, 0.0, theta0),
                     OdeSettings(max_s=20.0, max_step=max_step), snap=False)
    assert np.array_equal(traj.s[::-1], -traj.s)
    assert np.array_equal(traj.x[::-1], -traj.x)
    assert np.array_equal(traj.y[::-1], -traj.y)
    assert np.array_equal(traj.theta[::-1], traj.theta)


def test_flip_covariance_of_trajectories():
    ic = InitialCondition(0.4, -0.3, 0.5)
    settings = OdeSettings(max_s=8.0, max_step=0.1)
    traj = integrate(ic, settings)
    flipped = integrate(InitialCondition(ic.y0, ic.x0, math.pi / 2 - ic.theta0), settings)
    for s in np.linspace(-8, 8, 81):
        a = traj.state_at(float(s))
        b = flipped.state_at(float(s))
        assert abs(b.x - a.y) < 1e-8
        assert abs(b.y - a.x) < 1e-8
        assert abs(b.theta - (math.pi / 2 - a.theta)) < 1e-8


def test_cmc_samples_have_target_mean_curvature():
    settings = OdeSettings(max_s=5.0)
    for H in (0.5, 1.0, -1.0):
        traj = integrate(InitialCondition(0.0, 0.25, 0.0), settings, H=H)
        worst = max(abs(mean_curvature(state, tp) - H) for state, tp in traj.samples)
        assert worst < 100 * settings.abs_tol


def test_circle_flat_examples():
    state, tp = circle_flat(1.0, 0.0)
    assert (state.x, state.y, state.theta, tp) == (0.0, -1.0, 0.0, 1.0)
    state, tp = circle_flat(1.0, math.pi / 2)
    assert state.x == pytest.approx(1.0)
    assert state.y == pytest.approx(0.0, abs=1e-16)
    assert state.theta == pytest.approx(math.pi / 2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        r, s = rng.uniform(0.2, 3.0), rng.uniform(-5, 5)
        st, tp = circle_flat(r, s)
        assert gauss_curvature(st, tp) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        circle_flat(0.0, 1.0)


def test_circle_flat_radius_too_small_for_arc_length():
    # s / r overflows, so the angle is not a float: the radius is named.
    with pytest.raises(ValueError, match="radius 1e-320 is too small for arc length s = 1.0"):
        circle_flat(1e-320, 1.0)


def test_graph_residual_examples():
    assert graph_residual(0.3, -1.2, 0.0, 0.0) == 0.0
    for x in (0.1, 1.0, 2.5):
        assert graph_residual(x, x, 1.0, 0.0) == pytest.approx(0.0, abs=1e-16)


def test_graph_residual_on_resampled_trajectory():
    # Resample y(x) from the integrated curve and difference numerically.
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=6.0))
    xs = np.linspace(0.5, 4.5, 41)
    h = 1e-3

    def y_of_x(x_target):
        lo, hi = 0.0, 6.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if traj.state_at(mid).x < x_target:
                lo = mid
            else:
                hi = mid
        return traj.state_at(0.5 * (lo + hi)).y

    worst = 0.0
    for x in xs:
        y0, yp_, ym = y_of_x(x), y_of_x(x + h), y_of_x(x - h)
        yp = (yp_ - ym) / (2 * h)
        ypp = (yp_ - 2 * y0 + ym) / (h * h)
        worst = max(worst, abs(graph_residual(x, y0, yp, ypp)))
    assert worst < 1e-4


def test_find_event_analytic_zero():
    # theta grows through pi on this field; sin(theta) flags the crossing.
    traj = integrate_forward(InitialCondition(0, 0, 0), OdeSettings(max_s=6.0), H=-1.0)
    s_by_sin = find_event(traj, lambda st, tp: math.sin(st.theta))
    s_by_angle = find_event(traj, lambda st, tp: st.theta - math.pi)
    assert s_by_sin is not None and s_by_angle is not None
    assert abs(s_by_sin - s_by_angle) < 1e-10
    assert abs(traj.state_at(s_by_sin).theta - math.pi) < 1e-10


def test_find_event_none_for_bounded_angle():
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=10.0))
    assert find_event(traj, lambda st, tp: st.theta + 2 * math.pi) is None


def test_find_event_cmc_regression():
    # Baseline from an independent solve_ivp run at rtol=atol=1e-12.
    traj = integrate_forward(InitialCondition(0.0, 0.6425, 0.0),
                             OdeSettings(max_s=10.0), H=1.0)
    s1 = find_event(traj, lambda st, tp: st.theta + 2 * math.pi)
    assert s1 == pytest.approx(3.932526, abs=1e-4)
    end = traj.state_at(s1)
    assert abs(end.x - 0.0) < 1e-2
    assert abs(end.y - 0.6425) < 1e-2
