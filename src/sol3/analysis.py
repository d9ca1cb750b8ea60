"""Higher-level experiments: curve classification, asymptotes, shooting.

Minimal generating curves that are not constant-angle lines come in two
observed shapes: asymptotic to a quadrant corner (one x-parallel and one
y-parallel line, no inflection) or squeezed between two parallel lines with
a single inflection.  The classifier reports which, `asymptote_estimate`
extracts the bounding lines, and `closed_curve_search` hunts the closed
constant-mean-curvature generating curve by shooting on its y-intercept.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

# `find_event` is not called here (first_return scans the angle samples
# directly) but stays importable from this module: the benchmark's layer
# tracer wraps `analysis.find_event` to time event searches.
from .ode import (  # noqa: F401
    InitialCondition,
    OdeSettings,
    Trajectory,
    _bisect,
    _first_crossing,
    find_event,
    integrate_forward,
)
from .surface import CurveState, first_form

#: Tail of each trajectory end treated as "settled" data, as a fraction of samples.
DEFAULT_TAIL_FRACTION = 0.1
#: An end counts as axis-parallel when max |sin theta| (or |cos theta|) over the
#: tail stays below this.
DEFAULT_SETTLE_THRESHOLD = 1e-4
#: Shooting drives |x(s1)| below this...
DEFAULT_RESIDUAL_TOL = 1e-10
#: ...and then |y(s1) - y0| must independently fall below this.
DEFAULT_CLOSURE_TOL = 1e-6
#: Secant/bisection iterations allowed before shooting gives up.
_MAX_SHOOT_ITER = 200
#: The y0 values scanned for a bracket when none is given, in order.
_SCAN_GRID = (1 / 16, 1 / 8, 0.25, 0.5, 1.0, 2.0, 4.0)


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


def _concavity_indicator(traj: Trajectory) -> np.ndarray:
    # F = -x cos + y sin equals cos(theta) * (y y' - x) along a graph, so its
    # zeros are the graph's inflections wherever cos(theta) != 0.
    return first_form(CurveState(traj.s, traj.x, traj.y, traj.theta)).F


def inflection_points(traj: Trajectory) -> list[float]:
    """Arc-length locations where the graph y(x) changes convexity.

    Constant-angle lines have none.  Zeros are located among the samples and
    refined by bisection to settings.event_tol.
    """
    _require_minimal(traj)
    if traj.explicit_kind is not None:
        return []

    def concavity(s: float) -> float:
        return first_form(traj.state_at(s)).F

    vals = _concavity_indicator(traj)
    s = traj.s
    roots: list[float] = []
    last_sign = 0.0
    zero_at: Optional[float] = None
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
                roots.append(_bisect(concavity, lo, float(s[i]), concavity(lo),
                                     traj.settings.event_tol))
        last_sign = sign
        zero_at = None
    return roots


def check_tail_settings(tail_fraction: float, settle_threshold: float) -> None:
    """ValueError unless 0 < tail_fraction <= 1 and 0 < settle_threshold < 1."""
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail fraction must lie in (0, 1], got {tail_fraction!r}")
    if not 0.0 < settle_threshold < 1.0:
        raise ValueError(f"settle threshold must lie in (0, 1), got {settle_threshold!r}")


def _tail_slice(traj: Trajectory, end: str, tail_fraction: float) -> slice:
    n = max(2, int(math.ceil(tail_fraction * len(traj))))
    return slice(0, n) if end == "backward" else slice(len(traj) - n, len(traj))


def _end_line(traj: Trajectory, end: str, tail_fraction: float,
              settle_threshold: float) -> Line:
    sl = _tail_slice(traj, end, tail_fraction)
    sin_span = float(np.max(np.abs(np.sin(traj.theta[sl]))))
    cos_span = float(np.max(np.abs(np.cos(traj.theta[sl]))))
    if sin_span < settle_threshold:
        ys = traj.y[sl]
        return Line(Axis.PARALLEL_TO_X, float(np.mean(ys)), float(np.std(ys)))
    if cos_span < settle_threshold:
        xs = traj.x[sl]
        return Line(Axis.PARALLEL_TO_Y, float(np.mean(xs)), float(np.std(xs)))
    raise NotSettledError(end, sin_span, cos_span)


def asymptote_estimate(
    traj: Trajectory,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    settle_threshold: float = DEFAULT_SETTLE_THRESHOLD,
) -> list[Line]:
    """Asymptotic lines of the two trajectory ends, backward end first.

    An end must have settled (tail |sin theta| or |cos theta| below the
    threshold); otherwise NotSettledError names the offending end.  Offsets
    are tail means and carry the tail standard deviation as uncertainty.
    """
    _require_minimal(traj)
    check_tail_settings(tail_fraction, settle_threshold)
    if traj.explicit_kind is not None:
        ic, kind = traj.ic, traj.explicit_kind
        if kind == "I":
            return [Line(Axis.PARALLEL_TO_X, ic.y0), Line(Axis.PARALLEL_TO_X, ic.y0)]
        if kind == "II":
            return [Line(Axis.PARALLEL_TO_Y, ic.x0), Line(Axis.PARALLEL_TO_Y, ic.x0)]
        raise NotSettledError("both", 1.0, 1.0)  # diagonal lines are not axis-parallel
    return [
        _end_line(traj, "backward", tail_fraction, settle_threshold),
        _end_line(traj, "forward", tail_fraction, settle_threshold),
    ]


def classify_minimal(
    traj: Trajectory,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    settle_threshold: float = DEFAULT_SETTLE_THRESHOLD,
) -> Classification:
    """Classify a minimal generating curve by shape.

    Constant-angle trajectories map to their line kind.  Otherwise: no
    inflection with ends settling onto one x-parallel and one y-parallel line
    is a corner-asymptotic curve (type A); exactly one inflection with both
    ends parallel to the same axis is a slab curve (type B).  Anything else
    (typically a too-short horizon) is undetermined.
    """
    _require_minimal(traj)
    check_tail_settings(tail_fraction, settle_threshold)
    if traj.explicit_kind is not None:
        kind = CurveClass(f"line-{traj.explicit_kind}")
        asym: list[Line] = []
        if kind is CurveClass.LINE_I:
            asym = [Line(Axis.PARALLEL_TO_X, traj.ic.y0)]
        elif kind is CurveClass.LINE_II:
            asym = [Line(Axis.PARALLEL_TO_Y, traj.ic.x0)]
        return Classification(kind, [], asym)

    inflections = inflection_points(traj)
    try:
        lines = asymptote_estimate(traj, tail_fraction, settle_threshold)
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
    in (0, pi/4).  For s > 0 the graph y(x) must be increasing (sin theta > 0
    and cos theta > 0), concave (y y' - x < 0) and stay below y = x.
    """
    _require_minimal(traj)
    ic = traj.ic
    if ic.x0 != 0.0 or ic.y0 != 0.0:
        raise ValueError("theorem checks require an origin start")
    if not 0.0 < ic.theta0 < math.pi / 4.0:
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
    if not traj.s[0] < 0.0:
        raise ValueError("origin symmetry needs a trajectory with an s < 0 side")
    span = min(abs(float(traj.s[0])), float(traj.s[-1]))
    worst = 0.0
    for s in np.linspace(0.0, span, 101):
        a = traj.state_at(float(s))
        b = traj.state_at(float(-s))
        worst = max(worst, abs(b.x + a.x), abs(b.y + a.y), abs(b.theta - a.theta))
    return worst


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
    idx = int(np.searchsorted(traj.s, 0.0, side="left"))
    s1 = _first_crossing(traj.s[idx:].tolist(), (traj.theta[idx:] - target).tolist(),
                         lambda s: traj.state_at(s).theta - target, traj.settings.event_tol)
    if s1 is None:
        return None
    return s1, traj.state_at(s1)


def _shooting_horizon(settings: OdeSettings) -> float:
    """Arc length each shot may run to find its first return: max_s, at least 40."""
    return max(settings.max_s, 40.0)


def _shoot_once(H: float, y0: float, settings: OdeSettings) -> Optional[tuple[float, CurveState]]:
    target = -math.copysign(2.0 * math.pi, H)
    return first_return(integrate_forward(
        InitialCondition(0.0, y0, 0.0), settings, H=H,
        stop_event=lambda s, yv: yv[2] - target, horizon=_shooting_horizon(settings)))


def _scan(H: float, settings: OdeSettings) -> tuple[tuple[float, tuple], tuple[float, tuple]]:
    """`(lo, hit_lo), (hi, hit_hi)`: the first adjacent pair of _SCAN_GRID
    whose first returns `hit = (s1, state)` differ in the sign of x."""
    prev: Optional[tuple[float, tuple]] = None
    for y0 in _SCAN_GRID:
        hit = _shoot_once(H, y0, settings)
        if hit is not None and prev is not None and prev[1][1].x * hit[1].x < 0.0:
            return prev, (y0, hit)
        prev = None if hit is None else (y0, hit)
    raise BracketError(f"no sign change of x(s1; y0) on the scan grid "
                       f"[{_SCAN_GRID[0]}, {_SCAN_GRID[-1]}] for H = {H}")


def scan_bracket(H: float, settings: Optional[OdeSettings] = None) -> tuple[float, float]:
    """Scan y0 = 1/16, 1/8, ..., 4 for a sign change of x(s1; y0), as `(lo, hi)`.

    Raises BracketError when no sign change shows up; closure of the
    generating curve away from the exhibited cases is conjectural, so a
    failed scan is reported data, not a crash.
    """
    (lo, _), (hi, _) = _scan(H, settings or OdeSettings())
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
    max(settings.max_s, 40).  Without a bracket, the `scan_bracket` grid is
    scanned first and its two end integrations serve as the bracket's residuals.
    """
    if H == 0.0:
        raise ValueError("closed generating curves require H != 0")
    settings = settings or OdeSettings()

    def residual(y0: float, hit: Optional[tuple] = None) -> tuple[float, float, float]:
        hit = hit or _shoot_once(H, y0, settings)
        if hit is None:
            raise BracketError(f"no angular return within horizon "
                               f"{_shooting_horizon(settings)} from y0 = {y0!r}")
        s1, state = hit
        return state.x, state.y - y0, s1

    if bracket is None:
        (lo, hit_lo), (hi, hit_hi) = _scan(H, settings)
    else:
        (lo, hi), hit_lo, hit_hi = bracket, None, None
    end_lo, end_hi = residual(lo, hit_lo), residual(hi, hit_hi)
    rx_lo, rx_hi = end_lo[0], end_hi[0]
    if rx_lo == 0.0:
        y0, (rx, ry, s1), iterations = lo, end_lo, 0
    elif rx_hi == 0.0:
        y0, (rx, ry, s1), iterations = hi, end_hi, 0
    elif (rx_lo > 0.0) == (rx_hi > 0.0):
        raise BracketError(
            f"x(s1; y0) does not change sign on [{lo}, {hi}]: "
            f"{rx_lo:.6e} and {rx_hi:.6e}", rx_lo, rx_hi)
    else:
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
            rx, ry, s1 = residual(y0)
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

    if abs(ry) >= DEFAULT_CLOSURE_TOL:
        raise ClosureError(y0, s1, ry)

    orbit = integrate_forward(InitialCondition(0.0, y0, 0.0), settings, H=H, horizon=s1)
    end = orbit.sample(len(orbit) - 1)[0]
    return ShootingResult(
        y0_star=y0, s1=s1,
        residual_x=end.x, residual_y=end.y - y0,
        trajectory=orbit, iterations=iterations)
