"""Generating-curve ODE systems and a deterministic adaptive integrator.

The arc-length system is always integrated:

    x' = cos(theta),  y' = sin(theta),
    theta' = [sin(2 theta)(-x cos + y sin) - 2 H (1 + A^2)^{3/2}] / (1 + x^2 + y^2)

with H = 0 for minimal surfaces.  The backward half of a curve is the same
stepper run with negative steps, except for a minimal curve launched from
the origin: the system is reversible under P(x, y, theta) = (-x, -y, theta),
s -> -s, and rounding is sign-symmetric, so that half is the forward half
reflected through the origin, bit for bit, and is built from it instead
whenever the stepper's `reflected` finds that reflection exact (on the
constant-angle lines through the origin it is not, and both sides are
integrated).  The stepper (`_rk`) hands back each side's samples, slopes and
step rows, theta' being the third slope column, and raises IntegrationError
itself; this module re-exports it.  theta is kept unwrapped so closure
events (theta returning to theta0 - 2 pi) reduce to a plain sign test.
`integrate` snaps a minimal start within 1e-14 of a constant-angle solution
(theta0 = 0, +-pi/4, +-pi/2, +-3 pi/4 or pi, modulo 2 pi, on the diagonal
for the diagonal angles) to the exact line, where nearby numerics would look
spuriously stiff; `integrate_forward` steps every start, such a one included.
Events are refined by bisection to EVENT_TOL in arc length, or to one ulp of
s where that is wider.  A public run's horizon is its settings' max_s, which
`OdeSettings` checks; only the private `_trajectory` and `_continued` take
another (s1, for a certificate orbit).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import _rk
# IntegrationError is re-exported: callers catch it as sol3.ode.IntegrationError.
from ._rk import STEP_FLOOR, IntegrationError, solve_fixed_horizon  # noqa: F401
from .surface import CurveState

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0
_TWO_PI = 2.0 * math.pi
_SNAP_TOL = 1e-14
#: Arc-length width to which `find_event` and `analysis` bisect a sign change.
EVENT_TOL = 1e-12
# From this |theta0| on, an ulp of theta0 is over twice the default tolerance.
_MAX_ABS_THETA0 = 2.0 ** 20


@dataclass(frozen=True)
class OdeSettings:
    """Integrator tolerance, step cap and horizon, one `sol3` option each;
    all entries must be finite and positive, and max_step and max_s at least
    the stepper's smallest step, STEP_FLOOR.  tol is both the absolute and
    the relative tolerance of each step's error, and max_s is the horizon of
    every public run."""

    tol: float = 1e-10
    max_step: float = 1e-2
    max_s: float = 10.0

    def __post_init__(self):
        for name in ("tol", "max_step", "max_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive")
            if name.startswith("max_") and value < STEP_FLOOR:
                raise ValueError(f"{name} = {value!r} is below the stepper's "
                                 f"smallest step {STEP_FLOOR!r}")


@dataclass(frozen=True)
class InitialCondition:
    x0: float
    y0: float
    theta0: float

    def __post_init__(self):
        for name in ("x0", "y0", "theta0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if abs(self.theta0) > _MAX_ABS_THETA0:
            raise ValueError(f"|theta0| must be at most 2**20 = {_MAX_ABS_THETA0:.0f}; "
                             "reduce it modulo 2 pi")


def _minimal_raw(x: float, y: float, theta: float) -> tuple[float, float, float]:
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    dtheta = 2.0 * sin_t * cos_t * (-x * cos_t + y * sin_t) / (1.0 + x * x + y * y)
    return cos_t, sin_t, dtheta


def _cmc_raw(H: float) -> Callable[[float, float, float], tuple[float, float, float]]:
    def f(x: float, y: float, theta: float) -> tuple[float, float, float]:
        sin_t, cos_t = math.sin(theta), math.cos(theta)
        A = x * sin_t + y * cos_t
        W = 1.0 + A * A
        num = 2.0 * sin_t * cos_t * (-x * cos_t + y * sin_t) - 2.0 * H * W * math.sqrt(W)
        return cos_t, sin_t, num / (1.0 + x * x + y * y)

    return f


def _raw_rhs(H: Optional[float]) -> Callable[[float, float, float], tuple[float, float, float]]:
    return _minimal_raw if H is None else _cmc_raw(H)


class Trajectory:
    """Dense, ordered solution samples of one generating-curve integration.

    Samples are the accepted integrator steps (strictly increasing in s);
    between them states can be evaluated through the stored quartic
    interpolants, step i's from h[i] and K[i] of `steps = (h, K)`.  A
    stop-angle run also keeps its stepper's `controls`, the controller states
    of its last samples, from which `_continued` goes on.
    Instances are read-only values: nothing is written after construction,
    and each evaluation builds the interpolant of its step for itself, so one
    trajectory may be shared between threads.
    """

    def __init__(
        self,
        s: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        theta: np.ndarray,
        theta_prime: np.ndarray,
        ic: InitialCondition,
        H_target: Optional[float],
        steps: Optional[tuple[np.ndarray, np.ndarray]] = None,
        line: Optional[tuple] = None,
        controls: tuple = (),
    ):
        for arr in (s, x, y, theta, theta_prime, *(steps or ())):
            arr.flags.writeable = False
        self.s = s
        self.x = x
        self.y = y
        self.theta = theta
        self.theta_prime = theta_prime
        self.ic = ic
        self.H_target = H_target
        self._line = line  # a snapped line's _LINE_DIRECTIONS row, at its own angle
        self.explicit_kind: Optional[str] = None if line is None else line[1]
        self._h, self._K = steps or (None, None)  # a snapped line has no steps
        self._controls = controls

    def __len__(self) -> int:
        return self.s.size

    def sample(self, i: int) -> tuple[CurveState, float]:
        return (CurveState(float(self.s[i]), float(self.x[i]), float(self.y[i]),
                           float(self.theta[i])), float(self.theta_prime[i]))

    @property
    def samples(self) -> Iterator[tuple[CurveState, float]]:
        return (self.sample(i) for i in range(len(self)))

    def state_at(self, s: float) -> CurveState:
        """Dense-output state at arc length s (s within the sampled range)."""
        lo, hi = float(self.s[0]), float(self.s[-1])
        if not lo - 1e-12 <= s <= hi + 1e-12:
            raise ValueError(f"s = {s!r} outside sampled range [{lo}, {hi}]")
        if self.explicit_kind is not None:
            x, y = _line_xy(self._line, self.ic.x0, self.ic.y0, s)
            return CurveState(s, x, y, float(self.theta[0]))
        if self._K is None:
            raise ValueError("trajectory has no dense output")
        # Step i ends at s[i + 1].
        i = min(int(self.s[1:].searchsorted(s)), len(self) - 2)
        x, y, theta = _rk.dense_state(self._step(i), s)
        return CurveState(s, x, y, theta)

    def _step(self, i: int) -> tuple:
        """Step i's interpolant, built afresh on every call.  A step starts at
        its sample nearest s = 0, or at h's signed zero if that is 0."""
        h = float(self._h[i])
        j = i if h > 0.0 else i + 1
        t0 = float(self.s[j]) or math.copysign(0.0, h)
        y0 = [float(self.x[j]), float(self.y[j]), float(self.theta[j])]
        return _rk.dense_step(t0, h, y0, self._K[i])


# Constant-angle solutions: exact angle, exact direction components (so the
# line's frozen coordinate never picks up a cos(pi/2)-sized drift) and, for
# the diagonal lines, the slope c of their start constraint y0 == c * x0.
# Rows are (theta, kind, (dx, dy), slope).
_LINE_DIRECTIONS = (
    (0.0, "I", (1.0, 0.0), None),
    (_HALF_PI, "II", (0.0, 1.0), None),
    (-_HALF_PI, "II", (0.0, -1.0), None),
    (_QUARTER_PI, "III", (_INV_SQRT2, _INV_SQRT2), 1.0),
    (-_QUARTER_PI, "IV", (_INV_SQRT2, -_INV_SQRT2), -1.0),
    # The same lines run the other way; explicit_solution reads the rows above.
    (math.pi, "I", (-1.0, 0.0), None),
    (3.0 * _QUARTER_PI, "IV", (-_INV_SQRT2, _INV_SQRT2), -1.0),
    (-3.0 * _QUARTER_PI, "III", (-_INV_SQRT2, -_INV_SQRT2), 1.0),
)


def _snap_line_kind(ic: InitialCondition) -> Optional[tuple]:
    """The _LINE_DIRECTIONS row when ic sits on a constant-angle solution,
    modulo 2 pi, with the row's angle plus the multiple of 2 pi that separates
    theta0 from it: the line keeps theta0's turn (theta0 = -pi gives -pi)."""
    for target, kind, direction, slope in _LINE_DIRECTIONS:
        turn = ic.theta0 - target
        rest = math.remainder(turn, _TWO_PI)
        if abs(rest) <= _SNAP_TOL:
            if slope is not None and ic.y0 != slope * ic.x0:
                return None
            return target + (turn - rest), kind, direction, slope
    return None


def _line_xy(line: tuple, x0: float, y0: float, s):
    """(x, y) at arc length s (a float or an array) on a _LINE_DIRECTIONS line.

    The frozen coordinate of lines I and II stays exactly as given, -0.0
    included; the diagonals form y = slope * x, so every route through this
    function gives the same signed zeros.
    """
    _, _, (dx, dy), slope = line
    x = x0 + s * dx if dx else x0
    if slope is not None:
        return x, slope * x
    return x, (y0 + s * dy if dy else y0)


def _line_trajectory(ic: InitialCondition, settings: OdeSettings, line: tuple) -> Trajectory:
    if 2.0 * settings.max_s == math.inf:  # max_s above half the largest float
        raise IntegrationError("line samples overflow: 2 max_s is not finite", 0.0)
    n = max(2, int(math.ceil(2.0 * settings.max_s / settings.max_step)) + 1)
    s = np.linspace(-settings.max_s, settings.max_s, n)
    if 0.0 not in s:
        s = np.sort(np.append(s, 0.0))
    x, y = (np.full_like(s, c) if np.ndim(c) == 0 else c
            for c in _line_xy(line, ic.x0, ic.y0, s))
    th = np.full_like(s, line[0])
    tp = np.zeros_like(s)
    return Trajectory(s, x, y, th, tp, ic, None, line=line)


def check_step_budget(settings: OdeSettings) -> None:
    """Raise ValueError when the stepper's MAX_STEPS steps, each at most
    max_step, cannot reach the horizon max_s: a run without a stop event
    would only find that out at the end of its step budget."""
    if settings.max_s > _rk.MAX_STEPS * settings.max_step:
        raise ValueError(f"horizon (max_s) = {settings.max_s!r} needs more than "
                         f"{_rk.MAX_STEPS} steps of max_step = {settings.max_step!r}")


def _check_run(settings: OdeSettings, H: Optional[float],
               stop_theta: Optional[float] = None) -> None:
    """ValueError for a public run refused before its first step or sample."""
    if H is not None and not math.isfinite(H):
        raise ValueError("H must be finite")
    if stop_theta is None:
        check_step_budget(settings)


def _trajectory(
    ic: InitialCondition, settings: OdeSettings, H: Optional[float], horizon: float,
    stop_theta: Optional[float] = None, both_sides: bool = False,
) -> Trajectory:
    """Trajectory over [0, horizon], or over [-horizon, horizon] with both_sides."""
    raw = _raw_rhs(H)

    def side(s_end: float):
        return solve_fixed_horizon(raw, (ic.x0, ic.y0, ic.theta0), s_end, settings.tol,
                                   settings.max_step, stop_theta)

    s, states, h, K, slopes, controls = side(horizon)
    if both_sides:
        back = None
        if H is None and ic.x0 == ic.y0 == 0.0:
            # The backward run is P of this one (see the module docstring).
            back = _rk.reflected(s, states, h, K, slopes)
        bs, bstates, bh, bK, bslopes, _ = back or side(-horizon)
        # The backward run in increasing s, its start sample left to the forward run.
        s, states, slopes = (np.concatenate([b[:0:-1], a])
                             for b, a in ((bs, s), (bstates, states), (bslopes, slopes)))
        h, K = np.concatenate([bh[::-1], h]), np.concatenate([bK[::-1], K])
    return Trajectory(s, states[:, 0], states[:, 1], states[:, 2], slopes[:, 2],
                      ic, H, steps=(h, K), controls=controls)


def _continued(shot: Trajectory, settings: OdeSettings, horizon: float) -> Trajectory:
    """`integrate_forward(shot.ic, replace(settings, max_s=horizon),
    shot.H_target)`, bit for bit, from `shot`: a stop-angle run of that start
    and system, made with these settings and a horizon of at least `horizon`.
    The shot reached `horizon` within its step budget, so no check is made.

    A step from a sample at s with horizon - s >= max_step (as rounded) is
    never clipped by either horizon, so both runs agree up to the end of the
    last such step, sample m.  From there the stepper goes on with the
    controller state that the shot kept for sample m.  When it kept none
    (or m is the start), the run is made afresh.
    """
    n, kept = len(shot), shot._controls
    m = next((i for i in range(n - 1, max(n - len(kept), 1) - 1, -1)
              if horizon - float(shot.s[i - 1]) >= settings.max_step), None)
    if m is None:
        return _trajectory(shot.ic, settings, shot.H_target, horizon)
    start = (float(shot.x[m]), float(shot.y[m]), float(shot.theta[m]))
    # kept[-1] is the state of the last sample, n - 1.
    cs, cstates, h, K, slopes, _ = solve_fixed_horizon(
        _raw_rhs(shot.H_target), start, horizon, settings.tol, settings.max_step,
        start=kept[m - n])
    s, x, y, theta, theta_prime, h, K = (
        np.concatenate([a[:m], b]) for a, b in (
            (shot.s, cs), (shot.x, cstates[:, 0]), (shot.y, cstates[:, 1]),
            (shot.theta, cstates[:, 2]), (shot.theta_prime, slopes[:, 2]),
            (shot._h, h), (shot._K, K)))
    return Trajectory(s, x, y, theta, theta_prime, shot.ic, shot.H_target, steps=(h, K))


def _stop_crossing(traj: Trajectory, stop_theta: float) -> Optional[tuple[float, float, float]]:
    """(s1, x, y) where a stop-angle run's angle crosses stop_theta, or None if
    it did not: the run ends on the crossing step, so only that step is refined,
    on its own interpolant, the one `Trajectory.state_at` evaluates there."""
    step = traj._step(len(traj) - 2)
    s1 = _first_crossing(traj.s[-2:].tolist(), (traj.theta[-2:] - stop_theta).tolist(),
                         lambda s: _rk.dense_state(step, s)[2] - stop_theta)
    return None if s1 is None else (s1, *_rk.dense_state(step, s1)[:2])


def integrate(
    ic: InitialCondition,
    settings: Optional[OdeSettings] = None,
    H: Optional[float] = None,
) -> Trajectory:
    """Deterministic bidirectional trajectory on [-max_s, max_s].

    H selects the system: None integrates the minimal equation, a float the
    constant-mean-curvature equation with that target.  Minimal initial
    conditions on a constant-angle line reproduce the exact line instead of
    integrating it numerically.
    """
    settings = settings or OdeSettings()
    # A line takes as many samples as an integrated curve takes steps: both
    # are held to the step budget.
    _check_run(settings, H)
    line = _snap_line_kind(ic) if H is None else None
    if line is not None:
        return _line_trajectory(ic, settings, line)
    return _trajectory(ic, settings, H, settings.max_s, both_sides=True)


def integrate_forward(
    ic: InitialCondition,
    settings: Optional[OdeSettings] = None,
    H: Optional[float] = None,
    stop_theta: Optional[float] = None,
) -> Trajectory:
    """One-sided variant of `integrate` over [0, max_s] that steps every
    start, one on a constant-angle line too (`integrate` snaps that one).

    Given `stop_theta`, integration halts on the first step whose end angle
    reaches or crosses it, one step past the crossing, which the final two
    samples bracket; such a run is not held to the step budget up front."""
    settings = settings or OdeSettings()
    _check_run(settings, H, stop_theta)
    return _trajectory(ic, settings, H, settings.max_s, stop_theta)


def explicit_solution(kind: str, x0: float, y0: float, s: float) -> CurveState:
    """Closed-form constant-angle lines, arc-length parametrized.

    kind I:  (x0 + s, y0, theta = 0)
    kind II: (x0, y0 + s, theta = pi/2)
    kind III (requires y0 == x0):  (x0 + s/sqrt2, x0 + s/sqrt2, theta = pi/4)
    kind IV  (requires y0 == -x0): (x0 + s/sqrt2, -x0 - s/sqrt2, theta = -pi/4)
    """
    line = next((row for row in _LINE_DIRECTIONS if row[1] == kind), None)
    if line is None:
        raise ValueError(f"unknown line kind {kind!r}")
    slope = line[3]
    if slope is not None and y0 != slope * x0:
        raise ValueError(f"kind {kind} requires y0 == {'-' * (slope < 0)}x0")
    x, y = _line_xy(line, x0, y0, s)
    return CurveState(s, x, y, line[0])


def circle_flat(r: float, s: float) -> tuple[CurveState, float]:
    """The flat-surface circle x = r sin(s/r), y = -r cos(s/r), theta = s/r."""
    if not 0.0 < r < math.inf:
        raise ValueError("circle radius must be positive and finite")
    u = s / r
    if not math.isfinite(u):
        raise ValueError(f"circle radius {r!r} is too small for arc length s = {s!r}")
    return CurveState(s, r * math.sin(u), -r * math.cos(u), u), 1.0 / r


def find_event(
    traj: Trajectory,
    predicate: Callable[[CurveState], float],
) -> Optional[float]:
    """First s > 0 where predicate(state) changes sign along the trajectory.

    The stored samples are scanned from s = 0, one predicate call each, up
    to the first sign change, which is refined by bisection on the dense
    output to EVENT_TOL (or one ulp of s, where that is wider).  Returns None
    when no sign change exists on the sampled horizon.
    """
    idx = int(np.searchsorted(traj.s, 0.0, side="left"))
    vals = (predicate(traj.sample(i)[0]) for i in range(idx, len(traj)))
    return _first_crossing(traj.s[idx:].tolist(), vals,
                           lambda s: predicate(traj.state_at(s)))


def _first_crossing(s: list[float], vals: Iterable[float],
                    f: Callable[[float], float]) -> Optional[float]:
    """First s > 0 where the sampled values `vals` of f change sign, refined on f.

    `vals` is consumed lazily, so nothing past the crossing is evaluated.
    """
    for (s_a, p_a), (s_b, p_b) in itertools.pairwise(zip(s, vals)):
        if p_b == 0.0 and s_b > 0.0:
            return s_b
        if p_a != 0.0 and p_a * p_b < 0.0:
            return _bisect(f, s_a, s_b, p_a)
    return None


def _bisect(f: Callable[[float], float], lo: float, hi: float, f_lo: float) -> float:
    """Zero of f between lo and hi, where f(lo) = f_lo and f(hi) differ in sign,
    to EVENT_TOL, or to one ulp where that is wider (from |s| = 8192 on)."""
    while hi - lo > EVENT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is one ulp wide
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
