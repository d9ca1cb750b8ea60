"""Generating-curve ODE systems and a deterministic adaptive integrator.

The arc-length system is always integrated:

    x' = cos(theta),  y' = sin(theta),
    theta' = [sin(2 theta)(-x cos + y sin) - 2 H (1 + A^2)^{3/2}] / (1 + x^2 + y^2)

with H = 0 for minimal surfaces.  The backward half of a curve is the same
stepper run with negative steps.  theta is kept unwrapped so closure events
(theta returning to theta0 - 2 pi) reduce to a plain sign test.  Initial
angles within 1e-14 of the constant-angle solutions are snapped and routed to
the exact lines, where nearby numerics would look spuriously stiff.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from ._rk import (DenseSegment, NonFiniteState, StepBudgetExceeded, StepSizeUnderflow,
                  solve_fixed_horizon)
from .surface import CurveState

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_HALF_PI = math.pi / 2.0
_QUARTER_PI = math.pi / 4.0
_SNAP_TOL = 1e-14
# From this |theta0| on, an ulp of theta0 is over twice the default tolerance.
_MAX_ABS_THETA0 = 2.0 ** 20


class IntegrationError(RuntimeError):
    """Integration could not reach the requested horizon."""

    def __init__(self, message: str, last_s: float):
        super().__init__(f"{message} (last good s = {last_s!r})")
        self.last_s = last_s


class InvalidInitialCondition(ValueError):
    """Initial condition violates a constant-angle line's constraint."""


@dataclass(frozen=True)
class OdeSettings:
    """Integrator tolerances and horizons; all entries must be finite and positive."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = 1e-2
    max_s: float = 10.0
    event_tol: float = 1e-12

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "max_step", "max_s", "event_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive")


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


def rhs_minimal(state: CurveState) -> tuple[float, float, float]:
    """(x', y', theta') of the minimal-surface system at one state."""
    return _minimal_raw(state.x, state.y, state.theta)


def rhs_cmc(state: CurveState, H: float) -> tuple[float, float, float]:
    """(x', y', theta') of the constant-mean-curvature system; H = 0 is minimal."""
    return _cmc_raw(H)(state.x, state.y, state.theta)


class Trajectory:
    """Dense, ordered solution samples of one generating-curve integration.

    Samples are the accepted integrator steps (strictly increasing in s);
    between them states can be evaluated through the stored quartic
    interpolants.  Instances are immutable after construction.
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
        settings: OdeSettings,
        segments: Optional[list[DenseSegment]] = None,
        line: Optional[tuple] = None,
    ):
        for arr in (s, x, y, theta, theta_prime):
            arr.flags.writeable = False
        self.s = s
        self.x = x
        self.y = y
        self.theta = theta
        self.theta_prime = theta_prime
        self.ic = ic
        self.H_target = H_target
        self.settings = settings
        self._line = line  # the _LINE_DIRECTIONS row of a snapped line
        self.explicit_kind: Optional[str] = None if line is None else line[1]
        self._segments = segments or []
        # Backward segments have h < 0 and end at t0 + h, below their start.
        self._seg_his = [max(seg.t0, seg.t0 + seg.h) for seg in self._segments]
        self._raw = _raw_rhs(H_target)

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
        if self.explicit_kind is not None:
            x, y = _line_xy(self._line, self.ic.x0, self.ic.y0, s)
            return CurveState(s, x, y, float(self.theta[0]))
        if not self._segments:
            raise ValueError("trajectory has no dense segments")
        lo, hi = float(self.s[0]), float(self.s[-1])
        if s < lo - 1e-12 or s > hi + 1e-12:
            raise ValueError(f"s = {s!r} outside sampled range [{lo}, {hi}]")
        i = min(bisect.bisect_left(self._seg_his, s), len(self._segments) - 1)
        x, y, theta = self._segments[i].eval(s)
        return CurveState(s, x, y, theta)

    def eval(self, s: float) -> tuple[CurveState, float]:
        state = self.state_at(s)
        return state, self._raw(state.x, state.y, state.theta)[2]

    def max_ode_residual(self) -> float:
        """Max |theta'_stored - theta'(state)| over all samples, re-evaluated."""
        worst = 0.0
        for i in range(len(self)):
            d = self._raw(float(self.x[i]), float(self.y[i]), float(self.theta[i]))[2]
            worst = max(worst, abs(d - float(self.theta_prime[i])))
        return worst


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
)


def _snap_line_kind(ic: InitialCondition) -> Optional[tuple]:
    """The _LINE_DIRECTIONS row when ic sits on a constant-angle solution."""
    for row in _LINE_DIRECTIONS:
        target, _, _, slope = row
        if abs(ic.theta0 - target) <= _SNAP_TOL:
            if slope is not None and ic.y0 != slope * ic.x0:
                return None
            return row
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


def _line_trajectory(
    ic: InitialCondition, settings: OdeSettings, line: tuple, s_lo: float, s_hi: float,
) -> Trajectory:
    n = max(2, int(math.ceil((s_hi - s_lo) / settings.max_step)) + 1)
    s = np.linspace(s_lo, s_hi, n)
    if s_lo < 0.0 < s_hi and 0.0 not in s:
        s = np.sort(np.append(s, 0.0))
    x, y = (np.full_like(s, c) if np.ndim(c) == 0 else c
            for c in _line_xy(line, ic.x0, ic.y0, s))
    th = np.full_like(s, line[0])
    tp = np.zeros_like(s)
    return Trajectory(s, x, y, th, tp, ic, None, settings, line=line)


def _trajectory(
    ic: InitialCondition, settings: OdeSettings, H: Optional[float], horizon: float,
    stop_event: Optional[Callable[[float, list], float]] = None, both_sides: bool = False,
) -> Trajectory:
    """Trajectory over [0, horizon], or over [-horizon, horizon] with both_sides."""
    if H is not None and not math.isfinite(H):
        raise ValueError("H must be finite")
    raw = _raw_rhs(H)

    def side(s_end: float):
        try:
            s, states, segments = solve_fixed_horizon(
                raw, (ic.x0, ic.y0, ic.theta0), s_end,
                settings.abs_tol, settings.rel_tol, settings.max_step, stop_event)
        except StepSizeUnderflow as exc:
            raise IntegrationError("generating-curve integration failed", exc.last_s) from exc
        except (StepBudgetExceeded, NonFiniteState) as exc:
            raise IntegrationError(f"generating-curve integration failed: {exc}",
                                   exc.last_s) from exc
        # theta' is already stored: each segment's first stage is f at its
        # start sample, and the last segment's FSAL stage is f at the end.
        tp = [seg.K[0, 2] for seg in segments]
        tp.append(segments[-1].K[6, 2] if segments else raw(*states[0].tolist())[2])
        return s, states, np.array(tp), segments

    s, states, theta_prime, segments = side(horizon)
    if both_sides:
        bs, bstates, btp, bsegs = side(-horizon)
        s = np.concatenate([bs[::-1][:-1], s])
        states = np.concatenate([bstates[::-1][:-1], states])
        theta_prime = np.concatenate([btp[::-1][:-1], theta_prime])
        segments = bsegs[::-1] + segments
    return Trajectory(s, states[:, 0], states[:, 1], states[:, 2], theta_prime,
                      ic, H, settings, segments=segments)


def integrate(
    ic: InitialCondition,
    settings: Optional[OdeSettings] = None,
    H: Optional[float] = None,
    snap: bool = True,
) -> Trajectory:
    """Deterministic bidirectional trajectory on [-max_s, max_s].

    H selects the system: None integrates the minimal equation, a float the
    constant-mean-curvature equation with that target.  With snap=True (the
    default), minimal initial conditions on a constant-angle line reproduce
    the exact line instead of integrating it numerically.
    """
    settings = settings or OdeSettings()
    if snap and H is None:
        line = _snap_line_kind(ic)
        if line is not None:
            return _line_trajectory(ic, settings, line, -settings.max_s, settings.max_s)
    return _trajectory(ic, settings, H, settings.max_s, both_sides=True)


def integrate_forward(
    ic: InitialCondition,
    settings: Optional[OdeSettings] = None,
    H: Optional[float] = None,
    stop_event: Optional[Callable[[float, list], float]] = None,
    horizon: Optional[float] = None,
) -> Trajectory:
    """One-sided variant of `integrate` over [0, horizon or max_s].

    `stop_event(s, (x, y, theta))` halts integration one step past its first
    sign change, leaving the change bracketed by the final two samples.
    """
    settings = settings or OdeSettings()
    span = settings.max_s if horizon is None else horizon
    return _trajectory(ic, settings, H, span, stop_event)


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
        raise InvalidInitialCondition(f"kind {kind} requires y0 == {'-' * (slope < 0)}x0")
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


def graph_residual(x: float, y: float, yp: float, ypp: float) -> float:
    """Residual of the graph form y'' = 2 y'(y y' - x)/(1 + x^2 + y^2).

    Verification only; the arc-length system is what gets integrated,
    because graphs degenerate near vertical tangents.
    """
    return ypp - 2.0 * yp * (y * yp - x) / (1.0 + x * x + y * y)


def find_event(
    traj: Trajectory,
    predicate: Callable[[CurveState, float], float],
) -> Optional[float]:
    """First s > 0 where the predicate changes sign along the trajectory.

    The sign change is located among the stored samples and refined by
    bisection on the dense output to settings.event_tol.  Returns None when
    no sign change exists on the sampled horizon.
    """
    idx = int(np.searchsorted(traj.s, 0.0, side="left"))
    vals = [predicate(*traj.sample(i)) for i in range(idx, len(traj))]
    return _first_crossing(traj.s[idx:].tolist(), vals,
                           lambda s: predicate(*traj.eval(s)), traj.settings.event_tol)


def _first_crossing(s: list[float], vals: list[float], f: Callable[[float], float],
                    tol: float) -> Optional[float]:
    """First s > 0 where the sampled values `vals` of f change sign, refined on f."""
    for s_a, p_a, s_b, p_b in zip(s, vals, s[1:], vals[1:]):
        if p_b == 0.0 and s_b > 0.0:
            return s_b
        if p_a == 0.0:
            continue
        if p_a * p_b < 0.0:
            return _bisect(f, s_a, s_b, p_a, tol)
    return None


def _bisect(f: Callable[[float], float], lo: float, hi: float, f_lo: float,
            tol: float) -> float:
    """Zero of f between lo and hi, where f(lo) = f_lo and f(hi) differ in sign."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
