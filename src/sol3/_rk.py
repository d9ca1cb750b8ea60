"""Adaptive embedded Runge-Kutta 5(4) stepper with quartic dense output.

Dormand-Prince pair: six fresh right-hand-side evaluations per step (FSAL),
fifth-order propagation, fourth-order error estimate, proportional-integral
step-size control.  State, stage arguments, error norm and step control are
lists of Python floats, since numpy's per-call overhead dominates on a
3-vector.  The stage sums stay in numpy: the BLAS kernel fuses their
multiply-adds (FMA), which float arithmetic cannot reproduce, and that keeps
output bytes unchanged.  They are written `a.dot(K)` rather than `a @ K`:
both reach the same BLAS routine and give the same bits, but `ndarray.dot`
skips matmul's ufunc dispatch and costs about half as much per call on
these tiny operands.  Each accepted step keeps its stage matrix K, whose
first row is f at the step's start (the FSAL stage of the step before); the
interpolant Q = K.T P is formed lazily, as few steps are ever evaluated.
A backward run takes negative steps; since rounding is sign-symmetric, it
gives exactly the negated-arc-length samples of a forward run of -f.
A call attempts at most MAX_STEPS steps, so no horizon runs unbounded.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

# Butcher tableau (node fractions are implicit: the fields are autonomous here).
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
)
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
# Fifth-minus-fourth order weights, including the FSAL stage.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# Quartic interpolant weights (rows: stages, columns: powers of the step fraction).
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_BETA = 0.04            # integral gain of the PI controller
_EXP1 = 0.2 - 0.75 * _BETA
#: Attempted steps (accepted or rejected) allowed per call: about 250 times
#: the longest integration of the benchmark workloads (about 4k steps).
MAX_STEPS = 1_000_000


class StepSizeUnderflow(RuntimeError):
    """Step size collapsed below floating-point resolution."""

    def __init__(self, last_s: float):
        super().__init__(f"step size underflow at s = {last_s!r}")
        self.last_s = last_s


class StepBudgetExceeded(RuntimeError):
    """More than MAX_STEPS steps were attempted before reaching the horizon."""

    def __init__(self, last_s: float, steps: int):
        super().__init__(f"horizon not reached in {steps} attempted steps")
        self.last_s = last_s


class NonFiniteState(RuntimeError):
    """A stage state overflowed, so the right-hand side raised ValueError."""

    def __init__(self, last_s: float):
        super().__init__("a stage state is not finite")
        self.last_s = last_s


class DenseSegment:
    """One accepted step's interpolant: y(t0 + u*h) = y0 + h * (K.T @ P) @ [u, u^2, u^3, u^4]."""

    __slots__ = ("t0", "h", "y0", "K", "_Q")

    def __init__(self, t0: float, h: float, y0: list[float], K: np.ndarray):
        self.t0, self.h, self.y0, self.K, self._Q = t0, h, y0, K, None

    def eval(self, t: float) -> list[float]:
        if self._Q is None:
            self._Q = self.K.T.dot(_P)
        u, h = (t - self.t0) / self.h, self.h
        q = self._Q.dot(np.array([u, u * u, u ** 3, u ** 4])).tolist()
        return [yj + h * qj for yj, qj in zip(self.y0, q)]


def solve_fixed_horizon(
    f: Callable[..., tuple],
    y0: tuple,
    s_end: float,
    abs_tol: float,
    rel_tol: float,
    max_step: float,
    stop_event: Optional[Callable[[float, list], float]] = None,
) -> tuple[np.ndarray, np.ndarray, list[DenseSegment]]:
    """Integrate y' = f(*y) from s = 0 to s_end; s_end < 0 steps backward.

    Returns (s samples, state samples, dense segments), samples ordered from
    s = 0 outward.  A backward segment has a negative `h`.  When
    `stop_event` is given, integration halts at the first accepted step whose
    endpoint changes the sign of the event function (the step itself is kept,
    so the sign change is bracketed by the last two samples).  A last step
    that lands within rounding of s_end (t + h an ulp short of it) reaches
    s_end.  Raises StepSizeUnderflow when the step collapses,
    StepBudgetExceeded after MAX_STEPS attempted steps and NonFiniteState
    when f raises ValueError (math.sin of an infinite angle, for one).
    """
    y = [float(v) for v in y0]
    K = np.empty((7, len(y)))
    K[0] = f(*y)
    stages = [(a, K[: a.size]) for a in _A]
    K6 = K[:6]
    # t is the distance from s = 0; the signed position is sign * t.
    sign, span = math.copysign(1.0, s_end), abs(s_end)
    h = min(max_step, 1e-3, span)
    t, ss, ys = 0.0, [0.0], [y]
    segments: list[DenseSegment] = []
    err_prev = 1e-4
    p_prev = stop_event(0.0, y) if stop_event is not None else None
    budget = MAX_STEPS

    # A try around the loop costs nothing per step while no exception is raised.
    try:
        while t < span:
            if budget == 0:
                raise StepBudgetExceeded(sign * t, MAX_STEPS)
            budget -= 1
            h_ctrl = h
            h = min(h, max_step, span - t)
            if h < 1e-14 * max(1.0, t):
                if min(h_ctrl, max_step) >= 1e-14 * max(1.0, t):
                    break  # only the rounding remainder of the horizon is left
                raise StepSizeUnderflow(sign * t)
            hs = sign * h

            for i, (a, Ki) in enumerate(stages, 1):
                K[i] = f(*[yj + hs * dj for yj, dj in zip(y, a.dot(Ki).tolist())])
            y_new = [yj + hs * dj for yj, dj in zip(y, _B.dot(K6).tolist())]
            K[6] = f(*y_new)

            # Summed in np.mean's order; r * r overflows to inf where r ** 2 raises.
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
        raise NonFiniteState(sign * t) from exc

    return np.array(ss), np.array(ys), segments
