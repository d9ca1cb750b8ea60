"""Higher-level experiments: curve classification, asymptotes, shooting.

Minimal generating curves that are not constant-angle lines come in two
observed shapes: asymptotic to a quadrant corner (one x-parallel and one
y-parallel line, no inflection) or squeezed between two parallel lines with
a single inflection.  The classifier reports which, `asymptote_estimate`
extracts the bounding lines, and `closed_curve_search` hunts the closed
constant-mean-curvature generating curve by shooting on its y-intercept,
with shot settings built once per search: the caller's, max_s at least 40.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .ode import (
    InitialCondition,
    OdeSettings,
    Trajectory,
    _bisect,
    _continued,
    _stop_crossing,
    find_event,
    integrate_forward,
)
from .surface import CurveState, first_form

#: Tail of each trajectory end treated as "settled" data, as a fraction of samples.
TAIL_FRACTION = 0.1
#: An end counts as axis-parallel when max |sin theta| (or |cos theta|) over the
#: tail stays below this.
SETTLE_THRESHOLD = 1e-4
#: Shooting drives |x(s1)| below this...
DEFAULT_RESIDUAL_TOL = 1e-10
#: ...and then |y(s1) - y0| must independently fall below this.
DEFAULT_CLOSURE_TOL = 1e-6
#: Secant/bisection iterations allowed before shooting gives up.
_MAX_SHOOT_ITER = 200
#: The y0 values scanned for a bracket when none is given, in order.
_SCAN_GRID = (1 / 16, 1 / 8, 0.25, 0.5, 1.0, 2.0, 4.0)
#: Tolerance of the scan's shots that only read the sign of x(s1), run with
#: no step cap below the horizon...
_SIGN_TOL = 1e-7
#: ...whose sign counts when |x(s1)| is at least this many times the largest
#: of _SIGN_TOL and the caller's tolerance (1e-3 at the defaults).
_SIGN_MARGIN = 1e4


class Axis(Enum):
    PARALLEL_TO_X = "x"
    PARALLEL_TO_Y = "y"


class CurveClass(Enum):
    LINE_I = "line-I"
    LINE_II = "line-II"
    LINE_III = "line-III"
    LINE_IV = "line-IV"
    TYPE_A = "type-A"
    TYPE_B = "type-B"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Line:
    """An axis-parallel line in the plane z = 0, with an offset uncertainty."""

    axis: Axis
    offset: float
    uncertainty: float = 0.0


@dataclass(frozen=True)
class Classification:
    kind: CurveClass
    inflection_s: list[float] = field(default_factory=list)
    asymptotes: list[Line] = field(default_factory=list)


@dataclass(frozen=True)
class PropertyCheck:
    passed: bool
    first_violation_s: Optional[float] = None


@dataclass(frozen=True)
class TheoremReport:
    """Sample-level checks of the origin-start monotonicity/concavity results."""

    monotone: PropertyCheck
    concave: PropertyCheck
    below_diagonal: PropertyCheck

    @property
    def all_passed(self) -> bool:
        return self.monotone.passed and self.concave.passed and self.below_diagonal.passed


@dataclass(frozen=True)
class ShootingResult:
    y0_star: float
    s1: float
    residual_x: float
    residual_y: float
    trajectory: Trajectory
    iterations: int


class NotSettledError(RuntimeError):
    """A trajectory end has not settled to an axis-parallel direction."""

    def __init__(self, end: str, sin_span: float, cos_span: float):
        super().__init__(
            f"{end} end not settled: tail max |sin theta| = {sin_span:.3e}, "
            f"max |cos theta| = {cos_span:.3e}")
        self.end = end


class BracketError(RuntimeError):
    """The shooting bracket does not enclose a sign change of x(s1; y0)."""

    def __init__(self, message: str, residual_lo=None, residual_hi=None):
        super().__init__(message)
        self.residual_lo = residual_lo
        self.residual_hi = residual_hi


class ClosureError(RuntimeError):
    """x(s1) was driven to zero but the curve does not re-close in y."""

    def __init__(self, y0_star: float, s1: float, residual_y: float):
        super().__init__(
            f"orbit from y0 = {y0_star!r} returns with y-residual {residual_y:.3e}")
        self.y0_star = y0_star
        self.s1 = s1
        self.residual_y = residual_y


def _require_minimal(traj: Trajectory):
    if traj.H_target is not None:
        raise ValueError("operation requires a minimal trajectory (H_target None)")


def _require_both_sides(traj: Trajectory, what: str):
    if not traj.s[0] < 0.0:
        raise ValueError(f"{what} needs a trajectory with an s < 0 side")


def _concavity_indicator(traj: Trajectory) -> np.ndarray:
    # F = -x cos + y sin equals cos(theta) * (y y' - x) along a graph, so its
    # zeros are the graph's inflections wherever cos(theta) != 0.
    return first_form(CurveState(traj.s, traj.x, traj.y, traj.theta)).F


def inflection_points(traj: Trajectory) -> list[float]:
    """Arc-length locations where the graph y(x) changes convexity.

    Constant-angle lines have none.  Each pair of neighbouring nonzero samples
    of the concavity indicator whose sign bits differ holds one root: the last
    zero sample between them if there is one, else the bisection of the step
    between them on the dense output to EVENT_TOL.
    """
    _require_minimal(traj)
    if traj.explicit_kind is not None:
        return []

    def concavity(s: float) -> float:
        return first_form(traj.state_at(s)).F

    vals = _concavity_indicator(traj)
    nonzero = np.flatnonzero(vals != 0.0)  # NaN counts as nonzero, by its sign bit
    a, b = nonzero[:-1], nonzero[1:]
    flips = np.signbit(vals[a]) != np.signbit(vals[b])
    roots = []
    for i, j in zip(a[flips].tolist(), b[flips].tolist()):
        lo = float(traj.s[j - 1])
        roots.append(lo if j - i > 1 else
                     _bisect(concavity, lo, float(traj.s[j]), concavity(lo)))
    return roots


def _tail_slice(traj: Trajectory, end: str) -> slice:
    n = max(2, int(math.ceil(TAIL_FRACTION * len(traj))))
    return slice(0, n) if end == "backward" else slice(len(traj) - n, len(traj))


def _end_line(traj: Trajectory, end: str) -> Line:
    sl = _tail_slice(traj, end)
    sin_span = float(np.max(np.abs(np.sin(traj.theta[sl]))))
    cos_span = float(np.max(np.abs(np.cos(traj.theta[sl]))))
    if sin_span < SETTLE_THRESHOLD:
        ys = traj.y[sl]
        return Line(Axis.PARALLEL_TO_X, float(np.mean(ys)), float(np.std(ys)))
    if cos_span < SETTLE_THRESHOLD:
        xs = traj.x[sl]
        return Line(Axis.PARALLEL_TO_Y, float(np.mean(xs)), float(np.std(xs)))
    raise NotSettledError(end, sin_span, cos_span)


def asymptote_estimate(traj: Trajectory) -> list[Line]:
    """Asymptotic lines of the two trajectory ends, backward end first.

    An end must have settled (tail |sin theta| or |cos theta| below
    SETTLE_THRESHOLD); otherwise NotSettledError names the offending end.
    Offsets are tail means, with the tail standard deviation as uncertainty.
    A trajectory without an s < 0 side raises ValueError: its start is no end.
    """
    _require_minimal(traj)
    _require_both_sides(traj, "asymptote estimate")
    if traj.explicit_kind is not None:
        ic, kind = traj.ic, traj.explicit_kind
        if kind == "I":
            return [Line(Axis.PARALLEL_TO_X, ic.y0), Line(Axis.PARALLEL_TO_X, ic.y0)]
        if kind == "II":
            return [Line(Axis.PARALLEL_TO_Y, ic.x0), Line(Axis.PARALLEL_TO_Y, ic.x0)]
    # A diagonal is not axis-parallel: `_end_line` refuses its backward end.
    return [_end_line(traj, "backward"), _end_line(traj, "forward")]


def classify_minimal(traj: Trajectory) -> Classification:
    """Classify a minimal generating curve by shape.

    Constant-angle trajectories map to their line kind.  Otherwise: no
    inflection with ends settling onto one x-parallel and one y-parallel line
    is a corner-asymptotic curve (type A); exactly one inflection with both
    ends parallel to the same axis is a slab curve (type B).  Anything else
    (typically a too-short horizon) is undetermined; a one-sided one raises ValueError.
    """
    _require_minimal(traj)
    _require_both_sides(traj, "classification")
    if traj.explicit_kind is not None:
        diagonal = traj.explicit_kind in ("III", "IV")  # no axis-parallel asymptote
        return Classification(CurveClass(f"line-{traj.explicit_kind}"), [],
                              [] if diagonal else asymptote_estimate(traj)[:1])

    inflections = inflection_points(traj)
    try:
        lines = asymptote_estimate(traj)
    except NotSettledError:
        return Classification(CurveClass.UNDETERMINED, inflections, [])

    axes = {line.axis for line in lines}
    if len(inflections) == 0 and len(axes) == 2:
        return Classification(CurveClass.TYPE_A, inflections, lines)
    if len(inflections) == 1 and len(axes) == 1:
        return Classification(CurveClass.TYPE_B, inflections, lines)
    return Classification(CurveClass.UNDETERMINED, inflections, lines)


def slab_width(line_a: Line, line_b: Line) -> float:
    """Distance between two parallel axis-parallel lines."""
    if line_a.axis is not line_b.axis:
        raise ValueError("slab width requires two lines parallel to the same axis")
    return abs(line_a.offset - line_b.offset)


def theorem_checks(traj: Trajectory) -> TheoremReport:
    """Check monotonicity, concavity and the diagonal barrier on every sample.

    Requires a minimal trajectory started at the origin with direction angle
    in (0, pi/4), and not within 1e-14 of either end, where it snaps to a
    line.  For s > 0 the graph y(x) must be increasing (sin theta > 0 and
    cos theta > 0), concave (y y' - x < 0) and stay below y = x.
    """
    _require_minimal(traj)
    ic = traj.ic
    if ic.x0 != 0.0 or ic.y0 != 0.0:
        raise ValueError("theorem checks require an origin start")
    if not 0.0 < ic.theta0 < math.pi / 4.0 or traj.explicit_kind is not None:
        raise ValueError("theorem checks require theta0 in (0, pi/4)")

    pos = traj.s > 0.0
    s_pos = traj.s[pos]

    def check(ok: np.ndarray) -> PropertyCheck:
        bad = np.flatnonzero(~ok)
        if bad.size == 0:
            return PropertyCheck(True, None)
        return PropertyCheck(False, float(s_pos[bad[0]]))

    sin_t, cos_t = np.sin(traj.theta[pos]), np.cos(traj.theta[pos])
    monotone = check((sin_t > 0.0) & (cos_t > 0.0))
    concave = check(_concavity_indicator(traj)[pos] < 0.0)
    below = check(traj.y[pos] < traj.x[pos])
    return TheoremReport(monotone=monotone, concave=concave, below_diagonal=below)


def origin_symmetry_deviation(traj: Trajectory) -> float:
    """Max deviation of (x, y, theta)(-s) from (-x(s), -y(s), theta(s)) at 101 probes.

    Raises ValueError for a trajectory without an s < 0 side (integrate_forward's).
    """
    _require_both_sides(traj, "origin symmetry")
    span = min(abs(float(traj.s[0])), float(traj.s[-1]))
    devs = []
    for s in np.linspace(0.0, span, 101).tolist():
        a, b = traj.state_at(s), traj.state_at(-s)
        devs += (abs(b.x + a.x), abs(b.y + a.y), abs(b.theta - a.theta))
    return float(np.max(devs))  # NaN if any deviation is NaN


def first_return(traj: Trajectory) -> Optional[tuple[float, CurveState]]:
    """First s > 0 where the unwrapped angle completes a full turn.

    For H > 0 the angle decreases, so the turn target is theta0 - 2 pi (and
    theta0 + 2 pi for H < 0).  Returns None when the horizon is too short;
    minimal trajectories never return (their angle is trapped in an open
    interval).
    """
    if traj.H_target is None or traj.H_target == 0.0:
        return None
    target = traj.ic.theta0 - math.copysign(2.0 * math.pi, traj.H_target)
    s1 = find_event(traj, lambda state: state.theta - target)
    return None if s1 is None else (s1, traj.state_at(s1))


def _shot_settings(settings: Optional[OdeSettings]) -> OdeSettings:
    """The settings of a search's shots, built once per search: `settings`
    (the defaults if None) with max_s raised to at least 40."""
    settings = settings or OdeSettings()
    return replace(settings, max_s=max(settings.max_s, 40.0))


def _shot(H: float, y0: float,
          shots: OdeSettings) -> Optional[tuple[float, float, float, Trajectory]]:
    """Residuals (x(s1), y(s1) - y0, s1) of the orbit from (0, y0, 0) at its
    first full turn s1, and the run itself, or None when it does not turn
    within arc length `shots.max_s` (`_shot_settings`).  The run stops on the
    step whose angle crosses the turn target, and `ode._stop_crossing`
    refines the turn on that step alone."""
    target = -math.copysign(2.0 * math.pi, H)
    traj = integrate_forward(InitialCondition(0.0, y0, 0.0), shots, H=H, stop_theta=target)
    turn = _stop_crossing(traj, target)
    if turn is None:
        return None
    s1, x, y = turn
    return x, y - y0, s1, traj


def _scan(H: float, shots: OdeSettings) -> tuple[tuple[float, tuple], tuple[float, tuple]]:
    """`(lo, shot_lo), (hi, shot_hi)` with lo < hi: the first adjacent pair of
    _SCAN_GRID (negated for H < 0) whose `_shot` residuals differ in the sign
    of x(s1), at the caller's shot settings `shots` (`_shot_settings`).

    Each point is first shot at _SIGN_TOL with no step cap below the horizon.
    Its sign counts when |x(s1)| clears the margin; otherwise, or when that
    shot does not turn, the point is shot again at the caller's settings.
    When two adjacent signs differ, both ends are shot at the caller's
    settings (once each), and the pair is returned only if those shots still
    differ in sign; else the loop goes on from them.  So the returned shots
    are the caller's, and the pair is the one an all-caller-settings scan
    picks whenever every counted sign is the caller's too.
    """
    grid = _SCAN_GRID if H > 0.0 else tuple(-y0 for y0 in _SCAN_GRID)
    sign_settings = OdeSettings(tol=_SIGN_TOL, max_step=shots.max_s, max_s=shots.max_s)
    margin = _SIGN_MARGIN * max(_SIGN_TOL, shots.tol)

    def differ(a: Optional[tuple], b: Optional[tuple]) -> bool:
        return a is not None and b is not None and a[0] * b[0] < 0.0

    prev_y0, prev, prev_exact = None, None, False  # prev: the last point's shot
    for y0 in grid:
        shot = _shot(H, y0, sign_settings)
        exact = shot is None or abs(shot[0]) < margin
        if exact:
            shot = _shot(H, y0, shots)
        if differ(prev, shot):
            if not prev_exact:
                prev, prev_exact = _shot(H, prev_y0, shots), True
            if not exact:
                shot, exact = _shot(H, y0, shots), True
            if differ(prev, shot):
                pair = ((prev_y0, prev), (y0, shot))
                return pair if H > 0.0 else pair[::-1]
        prev_y0, prev, prev_exact = y0, shot, exact
    raise BracketError(f"no sign change of x(s1; y0) on the scan grid "
                       f"[{min(grid)}, {max(grid)}] for H = {H}")


def scan_bracket(H: float, settings: Optional[OdeSettings] = None) -> tuple[float, float]:
    """Scan y0 = 1/16, 1/8, ..., 4 (their negatives for H < 0) for a sign
    change of x(s1; y0), as `(lo, hi)` with lo < hi.

    The y-reflection (x, y, theta) -> (x, -y, -theta) maps the H system onto
    the -H system, so for H < 0 the orbits start below the x-axis.  A grid
    point's sign is read off a shot at _SIGN_TOL with no step cap when it
    clears `_scan`'s margin; the two ends are shot at `settings`.  Raises
    ValueError for H = 0 and BracketError when no sign change shows up;
    closure of the generating curve away from the exhibited cases is
    conjectural, so a failed scan is reported data, not a crash.
    """
    if H == 0.0:
        raise ValueError("closed generating curves require H != 0")
    (lo, _), (hi, _) = _scan(H, _shot_settings(settings))
    return lo, hi


def closed_curve_search(
    H: float,
    bracket: Optional[tuple[float, float]] = None,
    settings: Optional[OdeSettings] = None,
) -> ShootingResult:
    """Shooting search for the closed constant-mean-curvature generating curve.

    The control is the scalar residual x(s1; y0), driven below
    DEFAULT_RESIDUAL_TOL by bisection with secant acceleration; the second
    residual y(s1) - y0 is then an independent closure certificate (below
    DEFAULT_CLOSURE_TOL), never part of the control.  A certificate failure
    raises ClosureError: simultaneous closure is observed, not guaranteed,
    and must be reported rather than assumed.  Each shot runs to arc length
    max(settings.max_s, 40).  Without a bracket, the `scan_bracket` grid (its
    negatives for H < 0) is scanned first and its two end integrations, run
    at `settings` like every shot whose numbers the search reads, serve as
    the bracket's residuals; a given bracket (lo, hi) must be finite with
    lo < hi (else ValueError).  The certificate's orbit, from s = 0 to s1, is
    the final shot's run continued to s1 (`ode._continued`), bit for bit what
    integrating it afresh gives, so the closed orbit is not integrated twice;
    of the shots, only the latest is kept alive for it.
    """
    if H == 0.0:
        raise ValueError("closed generating curves require H != 0")
    shots = _shot_settings(settings)

    def residual(y0: float) -> tuple[float, float, float, Trajectory]:
        shot = _shot(H, y0, shots)
        if shot is None:
            raise BracketError(f"no angular return within arc length max(max_s, 40) "
                               f"from y0 = {y0!r}")
        return shot

    if bracket is None:
        (lo, end_lo), (hi, end_hi) = _scan(H, shots)
    else:
        lo, hi = bracket
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"bracket {bracket!r} must be finite with lo < hi")
        end_lo, end_hi = residual(lo), residual(hi)
    rx_lo, rx_hi = end_lo[0], end_hi[0]
    if rx_lo == 0.0:
        y0, shot, iterations = lo, end_lo, 0
    elif rx_hi == 0.0:
        y0, shot, iterations = hi, end_hi, 0
    elif (rx_lo > 0.0) == (rx_hi > 0.0):
        raise BracketError(
            f"x(s1; y0) does not change sign on [{lo}, {hi}]: "
            f"{rx_lo:.6e} and {rx_hi:.6e}", rx_lo, rx_hi)
    else:
        del end_lo, end_hi  # only the latest shot's run stays alive
        iterations = 0
        while True:
            iterations += 1
            if iterations > _MAX_SHOOT_ITER:
                raise BracketError(
                    f"shooting did not reach |x(s1)| < {DEFAULT_RESIDUAL_TOL} "
                    f"in {_MAX_SHOOT_ITER} iterations")
            # Secant proposal, midpoint fallback when it leaves the bracket.
            y0 = hi - rx_hi * (hi - lo) / (rx_hi - rx_lo)
            if not lo < y0 < hi:
                y0 = 0.5 * (lo + hi)
            shot = residual(y0)
            rx = shot[0]
            if abs(rx) < DEFAULT_RESIDUAL_TOL:
                break
            if (rx > 0.0) == (rx_hi > 0.0):
                hi, rx_hi = y0, rx
            else:
                lo, rx_lo = y0, rx
            if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(hi)):
                raise BracketError(
                    f"bracket collapsed at y0 = {y0!r} with |x(s1)| = {abs(rx):.3e} "
                    f"above the requested {DEFAULT_RESIDUAL_TOL}")

    _, ry, s1, traj = shot
    if abs(ry) >= DEFAULT_CLOSURE_TOL:
        raise ClosureError(y0, s1, ry)

    orbit = _continued(traj, shots, s1)
    end = orbit.sample(len(orbit) - 1)[0]
    return ShootingResult(
        y0_star=y0, s1=s1,
        residual_x=end.x, residual_y=end.y - y0,
        trajectory=orbit, iterations=iterations)
