"""Integrator behaviour: explicit solutions, convergence, events, cross-checks."""
import ast
import bisect
import dataclasses
import inspect
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings as hsettings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp

from sol3 import (
    CurveState,
    InitialCondition,
    IntegrationError,
    OdeSettings,
    circle_flat,
    explicit_solution,
    find_event,
    gauss_curvature,
    integrate,
    integrate_forward,
    mean_curvature,
)
from sol3 import _rk, ode
from support import integrate_unsnapped, max_ode_residual

PI8 = math.pi / 8


def scipy_reference(ic, s_end, H=None):
    """Independent trajectory endpoint at tight tolerance."""

    rhs = ode._raw_rhs(H)
    sol = solve_ivp(lambda _s, u: rhs(*u), (0.0, s_end), [ic.x0, ic.y0, ic.theta0],
                    rtol=1e-12, atol=1e-12, dense_output=True)
    return sol.y[:, -1]


def test_settings_validation():
    with pytest.raises(ValueError):
        OdeSettings(tol=0.0)
    with pytest.raises(ValueError):
        OdeSettings(max_step=-1.0)
    defaults = OdeSettings()
    assert defaults.tol == 1e-10
    assert defaults.max_step == 1e-2 and ode.EVENT_TOL == 1e-12


@pytest.mark.parametrize("field", ["tol", "max_step", "max_s", "abs_tol", "rel_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_settings_reject_non_finite(field, value):
    # abs_tol and rel_tol are retired, tol replaced both: the keyword itself is
    # refused, at any value.
    error = TypeError if field in ("abs_tol", "rel_tol") else ValueError
    with pytest.raises(error, match=field):
        OdeSettings(**{field: value})


@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
def test_settings_have_one_tolerance(field):
    # tol is both the absolute and the relative tolerance; the two fields it
    # replaced are gone.
    assert [f.name for f in dataclasses.fields(OdeSettings)] == ["tol", "max_step", "max_s"]
    with pytest.raises(TypeError):
        OdeSettings(**{field: 1e-8})


@pytest.mark.parametrize("theta0", [2.0 ** 20 + 1.0, -1e308, 1e308])
def test_initial_condition_refuses_huge_launch_angle(theta0):
    # From 2**20 on, an ulp of theta0 outweighs the default tolerance and a
    # step's h * theta' no longer moves theta0.
    with pytest.raises(ValueError, match=r"2\*\*20 = 1048576"):
        InitialCondition(0.0, 0.0, theta0)
    bound = math.copysign(2.0 ** 20, theta0)
    assert InitialCondition(0.0, 0.0, bound).theta0 == bound


def test_rhs_minimal_constant_angle_starts():
    rhs_minimal = ode._raw_rhs(None)
    assert rhs_minimal(1.3, -0.2, 0.0) == (1.0, 0.0, 0.0)
    dx, dy, dth = rhs_minimal(0.9, 0.9, math.pi / 4)
    assert dx == pytest.approx(math.cos(math.pi / 4))
    assert dy == pytest.approx(math.sin(math.pi / 4))
    assert dth == pytest.approx(0.0, abs=1e-16)
    dx, dy, dth = rhs_minimal(0.4, -2.0, math.pi / 2)
    assert dx == pytest.approx(0.0, abs=1e-16)
    assert dy == pytest.approx(1.0)
    assert dth == pytest.approx(0.0, abs=1e-15)


def test_rhs_cmc_reduces_to_minimal():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y, theta = *rng.uniform(-2, 2, size=2), rng.uniform(-3, 3)
        assert ode._raw_rhs(0.0)(x, y, theta) == ode._raw_rhs(None)(x, y, theta)


def test_rhs_cmc_example_and_inversion():
    assert ode._raw_rhs(1.0)(0.0, 0.0, 0.0)[2] == -2.0
    # theta' produced by the field plugs back into H exactly.
    rng = np.random.default_rng(1)
    for _ in range(1000):
        state = CurveState(0.0, *rng.uniform(-2, 2, size=2), rng.uniform(-3, 3))
        H = rng.uniform(-2, 2)
        dtheta = ode._raw_rhs(H)(state.x, state.y, state.theta)[2]
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
    assert max_ode_residual(traj) < 1e-15


@pytest.mark.parametrize("kind,ic", [
    ("I", (1.0, 2.0, 0.0)),
    ("II", (1.0, 2.0, math.pi / 2)),
    ("III", (1.0, 1.0, math.pi / 4)),
    ("IV", (1.0, -1.0, -math.pi / 4)),
])
def test_unsnapped_numerics_match_lines(kind, ic):
    traj = integrate_unsnapped(InitialCondition(*ic), OdeSettings(max_s=10.0))
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
    with pytest.raises(ValueError, match="kind III requires y0 == x0"):
        explicit_solution("III", 1.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="kind IV requires y0 == -x0"):
        explicit_solution("IV", 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        explicit_solution("V", 0.0, 0.0, 0.0)


@pytest.mark.parametrize("theta0", [0.0, math.pi / 4, math.pi / 2])
def test_integrate_forward_steps_a_line_start(theta0):
    # Only `integrate` snaps a start on a constant-angle line; the one-sided
    # run steps it like any other start.
    ic, settings = InitialCondition(0.0, 0.0, theta0), OdeSettings(max_s=5.0)
    assert integrate(ic, settings).explicit_kind is not None
    traj = integrate_forward(ic, settings)
    assert traj.explicit_kind is None
    assert len(traj) == 502 and len(traj._h) == 501
    assert traj.s[0] == 0.0 and traj.s[-1] == 5.0


def test_trajectory_shape_and_monotone_samples():
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=5.0))
    assert np.all(np.diff(traj.s) > 0)
    assert traj.s[0] == -5.0 and traj.s[-1] == 5.0
    state0, tp0 = traj.sample(int(np.searchsorted(traj.s, 0.0)))
    assert (state0.x, state0.y, state0.theta) == (0.0, 0.0, PI8)
    assert tp0 == ode._raw_rhs(None)(state0.x, state0.y, state0.theta)[2]
    assert max_ode_residual(traj) == 0.0


def test_max_ode_residual_keeps_a_nan():
    from sol3.ode import Trajectory

    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=1.0))
    tp = traj.theta_prime.copy()
    tp[len(tp) // 2] = math.nan
    broken = Trajectory(traj.s, traj.x, traj.y, traj.theta, tp, traj.ic, None)
    assert math.isnan(max_ode_residual(broken))


def test_trajectory_immutable():
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=1.0))
    with pytest.raises(ValueError):
        traj.s[0] = 0.0


def test_state_at_refuses_arc_length_outside_the_samples():
    # A snapped line and an integrated curve alike: beyond the sampled range
    # (or at NaN) there is no state to give.
    settings = OdeSettings(max_s=2.0)
    for theta0, kind in ((0.0, "I"), (PI8, None)):
        traj = integrate(InitialCondition(0.0, 1.0, theta0), settings)
        assert traj.explicit_kind == kind
        assert traj.state_at(2.0).s == 2.0
        for s in (1e9, -2.5, math.nan):
            with pytest.raises(ValueError, match="outside sampled range"):
                traj.state_at(s)


def test_step_cap_and_horizon_below_the_step_floor_are_refused():
    # Below the stepper's smallest step no step can be taken.  OdeSettings
    # refuses such a max_step or max_s, as it refuses a negative, zero or NaN
    # one: a usage error, not an integration failure.  Every run's horizon is
    # a max_s so checked; at the floor a run takes one step.
    for name in ("max_step", "max_s"):
        with pytest.raises(ValueError, match=f"{name} = 5e-15 is below the stepper's "
                                             "smallest step 1e-14"):
            OdeSettings(**{name: 5e-15})
        for value in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                OdeSettings(**{name: value})
    ic = InitialCondition(0.0, 0.5, 0.3)
    floor = OdeSettings(max_step=1e-14, max_s=1e-14)
    for H in (None, 1.0):
        assert integrate_forward(ic, floor, H=H).s.tolist() == [0.0, 1e-14]
    assert "horizon" not in inspect.signature(integrate_forward).parameters


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
    from sol3._rk import solve_fixed_horizon

    with pytest.raises(IntegrationError, match=r"integration failed \(last good s") as err:
        solve_fixed_horizon(lambda x, y, th: (1.0 + x * x, 0.0, 0.0), (1.0, 0.0, 0.0), 2.0,
                            1e-10, 0.1)
    assert 0.0 < err.value.last_s < 2.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_horizon_within_rounding_is_reached(sign):
    # Line I grows its step tenfold per step; the clipped last step's t + h
    # lands one ulp short of the horizon, and that remainder is not stepped.
    from sol3._rk import solve_fixed_horizon

    f = ode._raw_rhs(None)
    span = 3.6365642928673023
    ss, _, h, K = solve_fixed_horizon(f, (0.0, 0.0, 0.0), sign * span,
                                      1e-10, 1000.0)[:4]
    assert abs(abs(ss[-1]) - span) <= math.ulp(span)
    assert len(h) == len(K) == len(ss) - 1 == 5
    # A horizon below step resolution from s = 0 is still an underflow.
    with pytest.raises(IntegrationError, match=r"integration failed \(last good s = -?0\.0\)"):
        solve_fixed_horizon(f, (0.0, 0.0, 0.3), sign * 1e-15, 1e-10, 0.01)


def test_tiny_tolerances_reject_steps_without_overflow():
    # The scaled error overflows to inf: every step is rejected until the step
    # size underflows, and no OverflowError escapes the float arithmetic.
    from sol3._rk import solve_fixed_horizon

    with pytest.raises(IntegrationError, match=r"integration failed \(last good s"):
        solve_fixed_horizon(ode._raw_rhs(None), (0.0, 0.0, 0.3), 1.0, 1e-300, 0.01)
    with pytest.raises(IntegrationError):
        integrate(InitialCondition(0, 0, 0.3), OdeSettings(tol=1e-300))


def test_step_budget_ends_in_integration_error(monkeypatch):
    from sol3 import _rk

    f = ode._raw_rhs(None)
    monkeypatch.setattr(_rk, "MAX_STEPS", 50)
    ss = _rk.solve_fixed_horizon(f, (0.0, 0.0, 0.3), 0.4, 1e-10, 0.01)[0]
    assert ss[-1] == 0.4  # 41 steps, none rejected, fit the budget
    budget = "horizon not reached in 50 attempted steps"
    with pytest.raises(IntegrationError, match=budget) as err:
        _rk.solve_fixed_horizon(f, (0.0, 0.0, 0.3), -1.0, 1e-10, 0.01)
    assert -1.0 < err.value.last_s < 0.0
    # 50 steps of max_step = 0.01 could reach 0.5, but the first steps are shorter.
    with pytest.raises(IntegrationError, match="50 attempted steps"):
        integrate(InitialCondition(0, 0, 0.3), OdeSettings(max_s=0.5))


def test_horizon_beyond_the_step_budget_is_refused_before_stepping(monkeypatch):
    from sol3 import _rk

    def no_stepping(*args):
        raise AssertionError("the stepper ran")

    monkeypatch.setattr(_rk, "MAX_STEPS", 50)
    ic = InitialCondition(0.0, 0.5, 0.3)
    with monkeypatch.context() as m:
        m.setattr(ode, "solve_fixed_horizon", no_stepping)
        refused = r"horizon \(max_s\) = 0.51 needs more than 50 steps of max_step = 0.01"
        line = InitialCondition(0.0, 0.5, 0.0)  # snaps to a line: no steps, as many samples
        for run in (lambda: integrate(ic, OdeSettings(max_s=0.51)),
                    lambda: integrate(line, OdeSettings(max_s=0.51)),
                    lambda: integrate_forward(ic, OdeSettings(max_s=0.51), H=1.0),
                    lambda: integrate_forward(ic, OdeSettings(max_s=0.51))):
            with pytest.raises(ValueError, match=refused):
                run()
    # A stop angle may end the run in time: it still steps, and runs out when
    # the angle (theta decreases from 0.3 here) is out of reach.
    settings = OdeSettings(max_s=0.51)
    with pytest.raises(IntegrationError, match="50 attempted steps"):
        integrate_forward(ic, settings, H=1.0, stop_theta=10.0)
    assert len(integrate_forward(ic, settings, H=1.0, stop_theta=0.299)) < 50


def test_line_whose_span_overflows_ends_in_integration_error():
    # [-max_s, max_s] spans more than the largest float: the line's samples
    # cannot be counted, and the run fails like an overflowing integration.
    with pytest.raises(IntegrationError, match="line samples overflow"):
        integrate(InitialCondition(0.0, 0.5, 0.0), OdeSettings(max_step=1e308, max_s=1e308))


def test_integration_error_is_one_class():
    import sol3
    from sol3 import _rk, ode

    assert sol3.IntegrationError is ode.IntegrationError is _rk.IntegrationError


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
    from sol3._rk import solve_fixed_horizon

    def f(x, y, th):  # finite until x passes 0.5, then math.sin of inf raises
        return (math.sin(x * math.inf if x > 0.5 else x) + 1.0, 0.0, 0.0)

    with pytest.raises(IntegrationError, match="a stage state is not finite") as err:
        solve_fixed_horizon(f, (0.0, 0.0, 0.0), 2.0, 1e-10, 0.01)
    assert 0.0 < err.value.last_s <= 0.5


@pytest.mark.parametrize("make", [
    lambda: integrate(InitialCondition(0.2, -0.1, PI8), OdeSettings(max_s=3.0)),
    lambda: integrate(InitialCondition(0.0, 0.6, 0.0), OdeSettings(max_s=3.0), H=1.0),
    lambda: integrate_forward(InitialCondition(0.0, 0.6, 0.0), OdeSettings(max_s=10.0),
                              H=1.0, stop_theta=-2 * math.pi),
    lambda: integrate_forward(InitialCondition(0.0, 0.5, 0.1), OdeSettings(max_s=1e-14),
                              H=1.0),
])
def test_theta_prime_is_the_rhs_at_every_sample(make):
    traj = make()
    rhs = ode._raw_rhs(traj.H_target)
    raw = [rhs(x, y, th)[2]
           for x, y, th in zip(traj.x.tolist(), traj.y.tolist(), traj.theta.tolist())]
    assert np.array_equal(traj.theta_prime, np.array(raw))


def test_stop_event_sees_accepted_states():
    # The stop angle is tested on accepted states only: the stopped run is a
    # prefix of the full one, ending on the first sample at or past the angle.
    # It hands back the controller states of its last three samples, t first;
    # the full run hands back none.
    from sol3._rk import solve_fixed_horizon

    f = ode._raw_rhs(1.0)
    ss, ys, h, K, slopes, controls = solve_fixed_horizon(f, (0.0, 0.6, 0.0), 10.0,
                                                         1e-10, 0.01, -0.5)
    full_ss, full_ys, *_, full_controls = solve_fixed_horizon(f, (0.0, 0.6, 0.0), 10.0,
                                                              1e-10, 0.01)
    assert ss[-1] < 10.0 and len(h) == len(K) == len(ss) - 1
    assert [c[0] for c in controls] == ss[-3:].tolist() and full_controls == ()
    assert ss.tobytes() == full_ss[:len(ss)].tobytes()
    assert ys.tobytes() == full_ys[:len(ys)].tobytes()
    assert slopes.tolist() == [list(f(*row)) for row in ys.tolist()]
    assert (ys[:-1, 2] > -0.5).all() and ys[-1, 2] <= -0.5


class DenseSegment:
    """One accepted step's interpolant as an object, the dense output `_rk` had
    before its steps became array rows, kept as the reference for those rows:
    y(t0 + u*h) = y0 + h * (K.T @ P) @ [u, u^2, u^3, u^4]."""

    __slots__ = ("t0", "h", "y0", "K", "_Q")

    def __init__(self, t0: float, h: float, y0: list[float], K: np.ndarray):
        self.t0, self.h, self.y0, self.K, self._Q = t0, h, y0, K, None

    def eval(self, t: float) -> list[float]:
        if self._Q is None:
            self._Q = self.K.T.dot(_rk._P)
        u, h = (t - self.t0) / self.h, self.h
        q = self._Q.dot(np.array([u, u * u, u ** 3, u ** 4])).tolist()
        return [yj + h * qj for yj, qj in zip(self.y0, q)]


def reference_solve(f, y0, s_end, abs_tol, rel_tol, max_step, stop_event=None):
    """The stepper on a list-of-floats state of any length: `_rk` before it was
    specialised to three floats, kept to pin the specialised loop bit for bit.
    It keeps the two-tolerance scale abs_tol + rel_tol * max(...): called with
    (tol, tol), it pins the stepper's one-tolerance scale to it.  Returns (s
    samples, state samples, dense segments, slopes)."""
    from sol3._rk import (_A, _B, _BETA, _E, _EXP1, _FAILED, _MAX_FACTOR, _MIN_FACTOR,
                          _SAFETY, MAX_STEPS)

    y = [float(v) for v in y0]
    K = np.empty((7, len(y)))
    K[0] = f_y = f(*y)
    stages = [(a, K[: a.size]) for a in _A]
    K6 = K[:6]
    sign, span = math.copysign(1.0, s_end), abs(s_end)
    h = min(max_step, 1e-3, span)
    t, ss, ys, slopes = 0.0, [0.0], [y], [f_y]
    segments = []
    err_prev = 1e-4
    p_prev = stop_event(0.0, y) if stop_event is not None else None
    budget = MAX_STEPS
    try:
        while t < span:
            if budget == 0:
                raise IntegrationError(
                    f"{_FAILED}: horizon not reached in {MAX_STEPS} attempted steps", sign * t)
            budget -= 1
            h_ctrl = h
            h = min(h, max_step, span - t)
            if h < 1e-14 * max(1.0, t):
                if min(h_ctrl, max_step) >= 1e-14 * max(1.0, t):
                    break
                raise IntegrationError(_FAILED, sign * t)
            hs = sign * h

            for i, (a, Ki) in enumerate(stages, 1):
                K[i] = f(*[yj + hs * dj for yj, dj in zip(y, a.dot(Ki).tolist())])
            y_new = [yj + hs * dj for yj, dj in zip(y, _B.dot(K6).tolist())]
            K[6] = f_y = f(*y_new)

            sq = 0.0
            for yj, zj, ej in zip(y, y_new, _E.dot(K).tolist()):
                r = hs * ej / (abs_tol + rel_tol * max(abs(yj), abs(zj)))
                sq += r * r
            err_norm = math.sqrt(sq / len(y))

            if err_norm <= 1.0:
                segments.append(DenseSegment(sign * t, hs, y, K.copy()))
                t += h
                ss.append(sign * t)
                ys.append(y_new)
                slopes.append(f_y)
                factor = (_MAX_FACTOR if err_norm == 0.0
                          else _SAFETY * err_norm ** (-_EXP1) * err_prev ** _BETA)
                err_prev = max(err_norm, 1e-4)
                h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                y = y_new
                K[0] = K[6]
                if stop_event is not None:
                    p_new = stop_event(sign * t, y)
                    if p_prev is not None and (p_new == 0.0 or p_prev * p_new < 0.0):
                        break
                    p_prev = p_new
            else:
                h *= min(1.0, max(_MIN_FACTOR, _SAFETY * err_norm ** (-_EXP1)))
    except ValueError as exc:
        raise IntegrationError(f"{_FAILED}: a stage state is not finite", sign * t) from exc

    return np.array(ss), np.array(ys), segments, np.array(slopes)


def step_segments(ss, ys, h, K, *_):
    """A stepper run's step rows as reference segments: step i starts at
    sample i (at the signed zero of its step for i = 0) with h[i] and K[i]."""
    return [DenseSegment(float(ss[i]) if i else math.copysign(0.0, h[i]), float(h[i]),
                         ys[i].tolist(), K[i]) for i in range(len(h))]


def run_or_error(solve, *args):
    """solve(*args), or the IntegrationError it raised, as comparable bytes:
    samples, states, slopes and t0, h, y0 and K of every step."""
    try:
        run = solve(*args)
    except IntegrationError as exc:
        return str(exc), exc.last_s
    segments = run[2] if solve is reference_solve else step_segments(*run)
    ss, ys, slopes = run[0], run[1], run[3 if solve is reference_solve else 4]
    return ss.tobytes(), ys.tobytes(), slopes.tobytes(), [segment_bytes(g) for g in segments]


def segment_bytes(seg):
    return np.array([seg.t0, seg.h]).tobytes(), np.array(seg.y0).tobytes(), seg.K.tobytes()


def trajectory_steps(traj):
    """A trajectory's steps as reference segments, from its own rows."""
    return [DenseSegment(*traj._step(i)[:3], traj._K[i]) for i in range(len(traj) - 1)]


H_VALUES = st.one_of(st.none(), st.floats(-3.0, 3.0).filter(lambda v: v != 0.0))
STEP_CAPS = st.sampled_from([0.01, 0.1, 0.5])


@given(H=H_VALUES, x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0),
       theta0=st.floats(-math.pi, math.pi), span=st.floats(0.5, 4.0),
       sign=st.sampled_from([1.0, -1.0]), max_step=STEP_CAPS,
       event=st.one_of(st.none(), st.floats(-0.5, 0.5)))
@hsettings(derandomize=True, max_examples=100, deadline=None)
def test_stepper_matches_reference_loop_bit_for_bit(H, x0, y0, theta0, span, sign, max_step,
                                                    event):
    # tobytes, not ==, so that a -0.0 where the reference has 0.0 fails too.
    from sol3._rk import solve_fixed_horizon

    # The reference keeps a stop callable; the stepper tests the angle inline.
    stop_theta = None if event is None else theta0 + event
    stop = None if event is None else (lambda s, yv: yv[2] - stop_theta)
    # The stepper's one tolerance is the reference's absolute and relative one.
    f, start, s_end = ode._raw_rhs(H), (x0, y0, theta0), sign * span
    assert (run_or_error(solve_fixed_horizon, f, start, s_end, 1e-10, max_step, stop_theta)
            == run_or_error(reference_solve, f, start, s_end, 1e-10, 1e-10, max_step, stop))


@pytest.mark.parametrize("H, start, s_end, tol, max_step", [
    # Signed zeros in every error-norm scale, forward and backward.
    (None, (-0.0, -0.0, -0.0), 2.0, 1e-10, 0.1),
    (None, (-0.0, -0.0, -0.0), -2.0, 1e-10, 0.1),
    (1.0, (-0.0, -0.0, -0.0), 2.0, 1e-10, 0.1),
    (1.0, (-0.0, -0.0, -0.0), -2.0, 1e-10, 0.1),
    # A horizon of exactly 1, where the step floor's t > 1 test flips.
    (None, (0.0, 0.0, 0.3), 1.0, 1e-10, 0.01),
    (1.0, (0.0, 0.6, 0.0), -1.0, 1e-10, 0.5),
    (None, (0.2, -0.1, 0.4), 1.0, 1e-6, 10.0),
    # The error norm overflows to inf: reject clamps until the step collapses.
    (None, (0.0, 0.0, 0.3), 1.0, 1e-300, 0.01),
    (1.0, (0.0, 0.6, 0.0), -1.0, 1e-300, 0.5),
    # Non-finite values: a NaN error norm, infinite scales, and math.sin of
    # an infinite stage angle.
    (None, (math.nan, 0.0, 0.3), 1.0, 1e-10, 0.01),
    (1.0, (-math.inf, 0.5, 0.0), 1.0, 1e-10, 0.01),
    (1e308, (0.0, 0.5, 0.0), 1.0, 1e-10, 0.01),
])
def test_stepper_matches_reference_loop_at_edge_values(H, start, s_end, tol, max_step):
    from sol3._rk import solve_fixed_horizon

    f = ode._raw_rhs(H)
    assert (run_or_error(solve_fixed_horizon, f, start, s_end, tol, max_step)
            == run_or_error(reference_solve, f, start, s_end, tol, tol, max_step))


def test_step_loop_calls_no_min_max_or_abs():
    # The loop spells them as comparisons (cheaper per step, same floats);
    # the edge-value and hypothesis tests above pin their tie rules.
    from sol3._rk import solve_fixed_horizon

    tree = ast.parse(inspect.getsource(solve_fixed_horizon))
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.While))
    called = {node.func.id for node in ast.walk(loop)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"min", "max", "abs"}


@given(H=H_VALUES, x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0),
       theta0=st.floats(-math.pi, math.pi), a=st.floats(0.2, 3.0),
       extra=st.floats(1e-6, 3.0), sign=st.sampled_from([1.0, -1.0]), max_step=STEP_CAPS)
@hsettings(derandomize=True, max_examples=100, deadline=None)
def test_shorter_horizon_is_a_bitwise_prefix(H, x0, y0, theta0, a, extra, sign, max_step):
    # Up to the run to a's last step, which is clipped to land on a, both runs
    # take the same steps: the horizon only ever shortens the last one.
    from sol3._rk import solve_fixed_horizon

    f, start = ode._raw_rhs(H), (x0, y0, theta0)
    run_a = solve_fixed_horizon(f, start, sign * a, 1e-10, max_step)
    run_b = solve_fixed_horizon(f, start, sign * (a + extra), 1e-10, max_step)
    ss_a, ys_a, _, _, slopes_a, _ = run_a
    ss_b, ys_b, _, _, slopes_b, _ = run_b
    n = len(ss_a) - 1
    assert len(ss_b) > n
    assert ss_a[:n].tobytes() == ss_b[:n].tobytes()
    assert ys_a[:n].tobytes() == ys_b[:n].tobytes()
    assert slopes_a[:n].tobytes() == slopes_b[:n].tobytes()
    assert ([segment_bytes(g) for g in step_segments(*run_a)[:n - 1]]
            == [segment_bytes(g) for g in step_segments(*run_b)[:n - 1]])


def first_difference(a: np.ndarray, b: np.ndarray):
    """(index, a row, b row) of the first rows of a and b that are not ==, or None."""
    rows = np.flatnonzero(~(a == b).reshape(len(a), -1).all(axis=1))
    return None if rows.size == 0 else (int(rows[0]), a[rows[0]].tolist(), b[rows[0]].tolist())


@given(H=st.one_of(st.none(), st.floats(-3.0, 3.0)), y0=st.floats(-2.0, 2.0),
       s_end=st.floats(0.5, 6.0), max_step=STEP_CAPS)
@hsettings(derandomize=True, max_examples=100, deadline=None)
def test_backward_run_is_the_reflected_forward_run(H, y0, s_end, max_step):
    # R(x, y, theta) = (-x, y, -theta) fixes the start (0, y0, 0) and the field
    # obeys f(R u) = -R f(u), so the backward run is R of the forward run at -s,
    # bit for bit up to the sign of zeros (R turns 0.0 into -0.0, hence ==).
    from sol3._rk import solve_fixed_horizon

    f, start = ode._raw_rhs(H), (0.0, y0, 0.0)
    ss_f, ys_f, _, _, slopes_f, _ = solve_fixed_horizon(f, start, s_end, 1e-10, max_step)
    ss_b, ys_b, _, _, slopes_b, _ = solve_fixed_horizon(f, start, -s_end, 1e-10, max_step)
    flip = np.array([-1.0, 1.0, -1.0])
    assert first_difference(ss_b, -ss_f) is None
    assert first_difference(ys_b, ys_f * flip) is None
    assert first_difference(slopes_b, -slopes_f * flip) is None


def trajectory_arrays(traj):
    """Every array of a trajectory as bytes with its shape: samples, slopes, steps."""
    return [(a.shape, a.tobytes()) for a in (traj.s, traj.x, traj.y, traj.theta,
                                             traj.theta_prime, traj._h, traj._K)]


@given(H=st.floats(-3.0, 3.0), y0=st.floats(-2.0, 2.0),
       max_step=st.floats(-3.0, math.log10(5.0)).map(lambda e: 10.0 ** e),
       tol=st.floats(-12.0, -6.0).map(lambda e: 10.0 ** e), w=st.floats(0.0, 1.0))
# Continued from one of the last three samples; made afresh where max_step
# is far above the steps taken (at either end of the step) or above s_end.
@example(H=1.0, y0=0.6425, max_step=0.01, tol=1e-10, w=0.5)
@example(H=-2.0, y0=-0.25, max_step=5.0, tol=1e-10, w=1.0)
@example(H=2.5, y0=0.3, max_step=5.0, tol=1e-6, w=0.0)
@example(H=8.0, y0=0.0627, max_step=0.5, tol=1e-10, w=0.5)
@hsettings(derandomize=True, max_examples=60, deadline=None)
def test_continued_run_is_the_fresh_run(H, y0, max_step, tol, w):
    # A stop-angle shot continued to any s_end inside its last step, both ends
    # included, is bit for bit the run integrated afresh to that horizon.
    settings = OdeSettings(tol=tol, max_step=max_step, max_s=8.0)
    ic = InitialCondition(0.0, y0, 0.0)
    shot = integrate_forward(ic, settings, H=H, stop_theta=-math.copysign(2 * math.pi, H))
    lo, hi = shot.s[-2:].tolist()
    s_end = hi if w == 1.0 else min(hi, lo + w * (hi - lo))
    got = ode._continued(shot, settings, s_end)
    want = integrate_forward(ic, dataclasses.replace(settings, max_s=s_end), H=H)
    assert trajectory_arrays(got) == trajectory_arrays(want)
    assert (got.ic, got.H_target, got.explicit_kind) == (ic, H, None)


def test_dense_segment_ends_reproduce_samples():
    traj = integrate(InitialCondition(0.2, -0.1, PI8), OdeSettings(max_s=2.0))
    rows = np.column_stack([traj.x, traj.y, traj.theta])
    index = {s: i for i, s in enumerate(traj.s.tolist())}
    step_signs = set()
    for i, seg in enumerate(trajectory_steps(traj)):
        step_signs.add(math.copysign(1.0, seg.h))
        # A step starts at its sample nearest s = 0, at the signed zero of its
        # step next to s = 0, with that sample's state and its own stage rows.
        start = index[seg.t0]
        assert start == (i if seg.h > 0.0 else i + 1)
        assert math.copysign(1.0, seg.t0) == math.copysign(1.0, seg.h)
        assert np.array(seg.y0).tobytes() == rows[start].tobytes()
        assert seg.K.tobytes() == traj._K[i].tobytes()
        # The stepper forms each sample time as t0 + h, so both ends are samples.
        for t in (seg.t0, seg.t0 + seg.h):
            state = _rk.dense_state(traj._step(i), t)
            assert np.array(state).tobytes() == np.array(seg.eval(t)).tobytes()
            assert np.max(np.abs(np.array(state) - rows[index[t]])) < 1e-12
    assert step_signs == {-1.0, 1.0}


def test_one_trajectory_is_safe_to_share_between_threads():
    # Each evaluation builds its own step interpolant, so four threads that
    # evaluate one trajectory, switching as often as the interpreter lets
    # them, read the same states, bit for bit, as one thread does.
    traj = integrate(InitialCondition(0, 1, 0.3), OdeSettings(max_s=2, max_step=0.5))
    assert len(traj) == 57
    points = np.linspace(-1.9, 1.9, 1000).tolist()

    def states():  # the bits of each state, one row per point
        return np.array([dataclasses.astuple(traj.state_at(s)) for s in points]).view(np.int64)

    serial = states()
    found = [[] for _ in range(4)]

    def evaluate(out):
        out.extend(states() for _ in range(3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=evaluate, args=(out,)) for out in found]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [len(out) for out in found] == [3] * 4
    mismatches = sum(int(np.any(run != serial, axis=1).sum()) for out in found for run in out)
    assert mismatches == 0


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
    half = integrate(ic, OdeSettings(tol=5e-11, max_s=10.0)).state_at(10.0)
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
    traj = integrate_unsnapped(InitialCondition(0.0, 0.0, theta0),
                               OdeSettings(max_s=20.0, max_step=max_step))
    assert np.array_equal(traj.s[::-1], -traj.s)
    assert np.array_equal(traj.x[::-1], -traj.x)
    assert np.array_equal(traj.y[::-1], -traj.y)
    assert np.array_equal(traj.theta[::-1], traj.theta)


def state_bytes(state):
    return np.array([state.s, state.x, state.y, state.theta]).tobytes()


def reference_state_at(segments, ends, s):
    """`Trajectory.state_at` as it was, on reference segments in increasing s
    that end at `ends` (the samples after the first)."""
    i = min(bisect.bisect_left(ends, s), len(segments) - 1)
    return CurveState(s, *segments[i].eval(s))


@given(x0=st.sampled_from([0.0, -0.0]), y0=st.sampled_from([0.0, -0.0]),
       theta0=st.floats(-math.pi, math.pi), max_step=STEP_CAPS, max_s=st.floats(0.5, 30.0))
@example(x0=0.0, y0=0.0, theta0=0.0, max_step=0.1, max_s=3.0)
@example(x0=0.0, y0=0.0, theta0=math.pi / 4, max_step=0.1, max_s=3.0)
@example(x0=0.0, y0=-0.0, theta0=math.pi / 2, max_step=0.1, max_s=3.0)
@example(x0=-0.0, y0=0.0, theta0=3 * math.pi / 4, max_step=0.1, max_s=3.0)
@example(x0=-0.0, y0=-0.0, theta0=math.pi, max_step=0.1, max_s=3.0)
@hsettings(derandomize=True, max_examples=40, deadline=None)
def test_mirrored_half_is_the_backward_run(x0, y0, theta0, max_step, max_s):
    # A minimal curve from the origin gets its s < 0 half by reflecting the
    # forward half; here it must equal an actual backward run byte for byte,
    # signed zeros included: samples, slopes, dense segments and dense states.
    # The constant-angle starts (snap off) have exact zeros that a
    # reflection would turn into -0.0; those still integrate both sides.
    from sol3._rk import solve_fixed_horizon

    settings = OdeSettings(max_s=max_s, max_step=max_step)
    traj = integrate_unsnapped(InitialCondition(x0, y0, theta0), settings)
    f, start = ode._raw_rhs(None), (x0, y0, theta0)
    back = solve_fixed_horizon(f, start, -max_s, 1e-10, max_step)
    fwd = solve_fixed_horizon(f, start, max_s, 1e-10, max_step)
    bs, bys, _, _, bslopes, _ = back
    n = len(bs) - 1
    assert len(traj) == n + len(fwd[0])
    for got, want in ((traj.s, bs), (traj.x, bys[:, 0]), (traj.y, bys[:, 1]),
                      (traj.theta, bys[:, 2]), (traj.theta_prime, bslopes[:, 2])):
        assert got[:n].tobytes() == want[:0:-1].tobytes()
    segments = step_segments(*back)[::-1] + step_segments(*fwd)
    assert ([segment_bytes(g) for g in trajectory_steps(traj)]
            == [segment_bytes(g) for g in segments])
    probes = [0.0, -max_s] + (0.5 * (bs[1:] + bs[:-1])).tolist()
    ends = np.concatenate([bs[:0:-1], fwd[0]])[1:].tolist()
    assert ([state_bytes(traj.state_at(s)) for s in probes]
            == [state_bytes(reference_state_at(segments, ends, s)) for s in probes])


COORDINATES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


@given(t0=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0)),
       h=st.floats(1e-3, 1.0), sign=st.sampled_from([1.0, -1.0]),
       y0=st.lists(COORDINATES, min_size=3, max_size=3),
       K=hnp.arrays(float, (7, 3), elements=st.floats(-10.0, 10.0)),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
@hsettings(derandomize=True, max_examples=200, deadline=None)
def test_dense_state_matches_the_reference_segment(t0, h, sign, y0, K, fractions):
    # On real trajectories the stage rows vary little across a step, so the
    # u ** 3 and u ** 4 terms are small and their last bit rarely reaches the
    # state; on arbitrary rows it does, so this pins how they round.  Each
    # step is evaluated in both orders of its fractions: the buffers the step
    # reuses carry nothing from one call to the next.
    step, ref = _rk.dense_step(t0, sign * h, y0, K), DenseSegment(t0, sign * h, y0, K)
    ws = fractions + [0.0, -0.0, 1.0]
    for w in ws + ws[::-1]:
        t = t0 + w * (sign * h)
        assert np.array(_rk.dense_state(step, t)).tobytes() == np.array(ref.eval(t)).tobytes()


ORIGIN_STARTS = st.tuples(st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0]),
                          st.floats(-math.pi, math.pi))
GENERAL_STARTS = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                           st.floats(-math.pi, math.pi))


@given(start=st.one_of(ORIGIN_STARTS, GENERAL_STARTS),
       H=st.one_of(st.none(), st.floats(-2.0, 2.0)),
       run=st.sampled_from(["two-sided", "one-sided", "stopped"]), max_step=STEP_CAPS,
       max_s=st.floats(0.5, 4.0), w=st.floats(0.0, 1.0),
       fractions=st.lists(st.floats(0.0, 1.0), max_size=30))
@example(start=(0.0, 0.0, PI8), H=None, run="two-sided", max_step=0.1, max_s=3.0, w=0.3,
         fractions=[])
@example(start=(-0.0, -0.0, PI8), H=None, run="two-sided", max_step=0.5, max_s=3.0, w=0.7,
         fractions=[])
@example(start=(-0.0, 0.0, 0.0), H=None, run="two-sided", max_step=0.1, max_s=3.0, w=0.3,
         fractions=[])
@example(start=(0.0, 0.6, 0.0), H=1.0, run="stopped", max_step=0.01, max_s=4.0, w=0.3,
         fractions=[])
@hsettings(derandomize=True, max_examples=100, deadline=None)
def test_state_at_matches_the_reference_segments(start, H, run, max_step, max_s, w, fractions):
    # The trajectory's array rows against segments from the reference loop:
    # for a minimal origin start, the mirrored half against a real backward
    # run.  tobytes at every sample, every midpoint, the fraction w into
    # every step, +-0.0 and random s, so a -0.0 where the reference has 0.0
    # fails too.  Midpoints and samples give u = 0.5, 0 or 1, whose powers
    # are exact; the w probes are what pin how u ** 3 and u ** 4 round.
    settings = OdeSettings(max_s=max_s, max_step=max_step)
    ic, f = InitialCondition(*start), ode._raw_rhs(H)
    if run == "two-sided":
        traj = integrate_unsnapped(ic, settings, H=H)
        bs, _, bsegs, _ = reference_solve(f, start, -max_s, 1e-10, 1e-10, max_step)
        fs, _, fsegs, _ = reference_solve(f, start, max_s, 1e-10, 1e-10, max_step)
        ref_s, segments = np.concatenate([bs[:0:-1], fs]), bsegs[::-1] + fsegs
    else:
        stop_theta = None if run == "one-sided" else start[2] - 0.3
        stop = None if stop_theta is None else (lambda s, yv: yv[2] - stop_theta)
        traj = integrate_forward(ic, settings, H=H, stop_theta=stop_theta)
        ref_s, _, segments, _ = reference_solve(f, start, max_s, 1e-10, 1e-10, max_step, stop)
    assert traj.s.tobytes() == ref_s.tobytes()
    lo, hi = ref_s[0], ref_s[-1]
    probes = (ref_s.tolist() + (0.5 * (ref_s[1:] + ref_s[:-1])).tolist()
              + (ref_s[:-1] + w * np.diff(ref_s)).tolist() + [0.0, -0.0]
              + [min(hi, lo + u * (hi - lo)) for u in fractions])
    ends = ref_s[1:].tolist()
    assert ([state_bytes(traj.state_at(s)) for s in probes]
            == [state_bytes(reference_state_at(segments, ends, s)) for s in probes])


@given(x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0), theta0=st.floats(-math.pi, math.pi),
       H=st.one_of(st.none(), st.floats(-2.0, -0.25), st.floats(0.25, 2.0)))
@hsettings(derandomize=True, max_examples=40, deadline=None)
def test_flip_covariance_of_trajectories(x0, y0, theta0, H):
    # (x, y, theta) -> (y, x, pi/2 - theta) flips the sign of F and keeps A, W
    # and G, so it maps minimal curves onto minimal curves and CMC curves of
    # mean curvature H onto CMC curves of mean curvature -H.  The two runs take
    # different steps, so they differ by their global error: at the default
    # tolerances CMC curves that wind past 10 rad reach 1.3e-8; at 1e-12 the
    # worst draw is 1.3e-10, well inside the bound.
    settings = OdeSettings(tol=1e-12, max_s=8.0, max_step=0.1)
    traj = integrate(InitialCondition(x0, y0, theta0), settings, H=H)
    flipped = integrate(InitialCondition(y0, x0, math.pi / 2 - theta0), settings,
                        H=None if H is None else -H)
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
        assert worst < 100 * settings.tol


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


def graph_residual(x, y, yp, ypp):
    """Residual of the graph form y'' = 2 y'(y y' - x)/(1 + x^2 + y^2) of the
    minimal equation; the arc-length system is what gets integrated, because
    graphs degenerate near vertical tangents."""
    return ypp - 2.0 * yp * (y * yp - x) / (1.0 + x * x + y * y)


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
    s_by_sin = find_event(traj, lambda st: math.sin(st.theta))
    s_by_angle = find_event(traj, lambda st: st.theta - math.pi)
    assert s_by_sin is not None and s_by_angle is not None
    assert abs(s_by_sin - s_by_angle) < 1e-10
    assert abs(traj.state_at(s_by_sin).theta - math.pi) < 1e-10


def test_find_event_none_for_bounded_angle():
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=10.0))
    assert find_event(traj, lambda st: st.theta + 2 * math.pi) is None


def test_find_event_stops_at_the_first_crossing(monkeypatch):
    # The closed H = 1 orbit turns through -2 pi near sample 394 of 4,003.  The
    # predicate runs once per sample up to that crossing, then once per
    # bisection probe of the step that crossed; no sample past it is read,
    # and no right-hand side is evaluated.
    traj = integrate_forward(InitialCondition(0.0, 0.6425, 0.0), OdeSettings(max_s=40.0), H=1.0)
    monkeypatch.setattr(ode, "_raw_rhs", None)
    calls = []

    def predicate(state):
        calls.append(state.s)
        return state.theta + 2 * math.pi

    s1 = find_event(traj, predicate)
    crossing = int(np.searchsorted(traj.s, s1))
    assert len(traj) == 4003 and 390 < crossing < 400
    probes = math.ceil(math.log2(OdeSettings().max_step / ode.EVENT_TOL))
    assert len(calls) <= crossing + 1 + probes < len(traj) // 8
    assert max(calls) <= traj.s[crossing]


@pytest.mark.parametrize("step, root", [
    (lambda s: 10.0 * (s - 9000.0) - 3.0, 9000.3),  # no float is its zero
    (lambda s: 10.0 * (s + 9000.0) + 3.0, -9000.3),
    (lambda s: -1.0 if s < 9000.3 else 1.0, 9000.3),
    (lambda s: -1.0 if s < -9000.3 else 1.0, -9000.3),
])
def test_bisect_ends_on_a_bracket_one_ulp_wide(step, root):
    # From |s| = 8192 on, one ulp of s (1.8e-12 here) is wider than EVENT_TOL,
    # so the bracket stops shrinking above the tolerance; the refinement ends
    # there, within an ulp of the root.  The predicate fails on its 200th
    # call, so a loop that does not end fails instead of stalling the suite.
    assert math.ulp(root) > ode.EVENT_TOL
    calls = []

    def f(s):
        calls.append(s)
        assert len(calls) < 200, "the bisection does not end"
        return step(s)

    lo, hi = root - 2.0, root + 2.0
    s = ode._bisect(f, lo, hi, f(lo))
    assert abs(s - root) <= math.ulp(root)
    assert len(calls) < 60


def test_find_event_cmc_regression():
    # Baseline from an independent solve_ivp run at rtol=atol=1e-12.
    traj = integrate_forward(InitialCondition(0.0, 0.6425, 0.0),
                             OdeSettings(max_s=10.0), H=1.0)
    s1 = find_event(traj, lambda st: st.theta + 2 * math.pi)
    assert s1 == pytest.approx(3.932526, abs=1e-4)
    end = traj.state_at(s1)
    assert abs(end.x - 0.0) < 1e-2
    assert abs(end.y - 0.6425) < 1e-2
