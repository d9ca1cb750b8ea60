"""Adaptive embedded Runge-Kutta 5(4) stepper with quartic dense output.

Dormand-Prince pair: six fresh right-hand-side evaluations per step (FSAL:
the last stage of a step is the first of the next), fifth-order propagation,
fourth-order error estimate, proportional-integral step-size control.  The
state is the generating curve's three floats (x, y, theta), held as three
Python locals: numpy's per-call overhead dominates on a 3-vector, so stage
arguments, error norm and step control are float arithmetic, the norm summed
in np.mean's order.  The step loop calls no min, max or abs: each is an
inline comparison with the builtin's tie rule (max(a, b) is `b if b > a else
a`), so every step is the same float for signed zeros, infinities and NaN
too.  The stage sums stay in numpy: the BLAS kernel fuses their
multiply-adds (FMA), which float arithmetic cannot reproduce, and that keeps
output bytes unchanged.  They are written out as straight-line code,
each `a.dot(K[:i], out)` into one preallocated buffer, read back as floats
through a memoryview: the same BLAS routine and bits as `a @ K`, without
matmul's ufunc dispatch or a fresh array per call.  Stage rows are written
into K through one flat memoryview, several times cheaper than assigning a
tuple to a row of K.  An accepted step records only its signed step and its
21 stage values, appended to one bytearray; a run hands back its steps h
and stage rows K (a view of that buffer) as arrays.  `dense_step` forms one
step's interpolant Q = K.T P with two small buffers, and `dense_state`, the
only dense-output evaluator, evaluates it at one s through them: the same
BLAS gemv as `Q.dot(array)`, with no array made per call.  A caller
builds a step's interpolant for the evaluations it makes and shares it with
no other thread.  The slope f at each
sample is its FSAL stage, returned as it came from f.  A backward run takes
negative steps; since rounding is sign-symmetric, it gives exactly the
negated-arc-length samples of a forward run of -f, and `reflected` gives the rows of the run that a point reflection
maps onto this one.  Given a stop angle, a run ends one step past it: on the
first accepted step whose theta reaches or crosses it, and hands back the
controller state (t, proposed step, previous error norm, remaining attempt
budget) of each of its last three samples.  A run can start from such a
state: it then goes on from that sample exactly as the run that recorded it
did, so a shorter horizon that clips none of the steps before the sample
is continued from there instead of integrated again.  A call attempts at
most MAX_STEPS steps, counted from the start state's budget, so no horizon
runs unbounded.  Every failure is an IntegrationError naming the last
accepted s.
"""
from __future__ import annotations

import math
from itertools import chain
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
# P(x, y, theta) = (-x, -y, theta) on states, and on their slopes (x', y', theta').
_REFLECT_STATE = np.array([-1.0, -1.0, 1.0])
_REFLECT_SLOPES = np.array([1.0, 1.0, -1.0])

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_BETA = 0.04            # integral gain of the PI controller
_EXP1 = 0.2 - 0.75 * _BETA
#: Attempted steps (accepted or rejected) allowed per call: about 790 times
#: the longest run of the seed-1 benchmark workloads (1,272 accepted steps).
MAX_STEPS = 1_000_000
#: Smallest step, relative to max(1, |s|): a step below it ends the run as a
#: collapse, so a step cap or a horizon below it cannot take a single step.
STEP_FLOOR = 1e-14


class IntegrationError(RuntimeError):
    """Integration could not reach the requested horizon."""

    def __init__(self, message: str, last_s: float):
        super().__init__(f"{message} (last good s = {last_s!r})")
        self.last_s = last_s


_FAILED = "generating-curve integration failed"
# A controller state (t, proposed step, previous error norm, attempts left).
Control = tuple[float, float, float, int]
# A run: s samples, state samples, signed steps h, stage rows K, slopes and
# the controller states of its last samples (none without a stop angle).
Run = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[Control, ...]]


def reflected(s: np.ndarray, states: np.ndarray, h: np.ndarray, K: np.ndarray,
              slopes: np.ndarray) -> Optional[Run]:
    """The run that P(x, y, theta) = (-x, -y, theta), s -> -s, maps onto this
    one, or None when an x or y sample or a stage theta' after the start is
    exactly 0.

    Negation flips the sign of every value but an exact zero, which the
    reflected run's rounding gives as +0.0 just the same; only without such a
    zero are these rows the reflected run's bit for bit.  Stage 0 of step 0,
    the slope at the start the two runs share, is kept as given.
    """
    if not (states[1:, :2].all() and K[:, 1:, 2].all()):
        return None
    K_ref = K * _REFLECT_SLOPES
    K_ref[:1, 0] = K[:1, 0]
    return -s, states * _REFLECT_STATE, -h, K_ref, slopes * _REFLECT_SLOPES, ()


def dense_step(t0: float, h: float, y0: list[float], K: np.ndarray) -> tuple:
    """One step's interpolant for `dense_state`: the step starts at t0 in
    state y0 with signed step h and stage rows K.  It holds Q = K.T P and two
    buffers that every evaluation overwrites, the powers of u and Q's
    product with them, each with a memoryview."""
    powers, q = np.empty(4), np.empty(3)
    return t0, h, y0, K.T.dot(_P), powers, memoryview(powers), q, memoryview(q)


def dense_state(step: tuple, t: float) -> list[float]:
    """y(t) = y0 + h * Q @ [u, u^2, u^3, u^4], u = (t - t0) / h, on one step.

    u ** 3 and u ** 4 are float powers: numpy's power rounds differently.
    The product is the BLAS gemv of `Q.dot(array)`, written into the step's
    buffer, so no array is made per call.
    """
    t0, h, (x, y, th), Q, powers, pv, q, qv = step
    u = (t - t0) / h
    pv[0], pv[1], pv[2], pv[3] = u, u * u, u ** 3, u ** 4
    Q.dot(powers, q)
    q0, q1, q2 = qv
    return [x + h * q0, y + h * q1, th + h * q2]


def solve_fixed_horizon(
    f: Callable[..., tuple],
    y0: tuple,
    s_end: float,
    tol: float,
    max_step: float,
    stop_theta: Optional[float] = None,
    start: Optional[Control] = None,
) -> Run:
    """Integrate (x, y, theta)' = f(x, y, theta) from y0 at s = 0 to s_end.

    s_end < 0 steps backward.  f returns three floats; y0 holds three.  A
    step is accepted when the RMS of its error estimate, each component over
    tol + tol * max(|v|, |v_new|), is at most 1.

    Returns (s samples, state samples, signed steps h, stage rows K, slopes,
    controls), samples ordered from s = 0 outward.  Step i takes the signed
    step h[i] from sample i to sample i + 1 with the stage rows K[i], shape
    (7, 3), and slopes[i] is f at state sample i, bit for bit.  When
    `stop_theta` is given, integration halts at the first accepted step whose
    end theta equals it or lies across it from the previous sample's (the
    step is kept, so the last two samples bracket the crossing), and
    controls holds the controller states of the last (up to three) samples,
    in order; without it, controls is empty.  Given `start`, one of those
    states, the run starts from it with y0 its sample's state: at distance
    t from s = 0, with its step proposal, error norm and attempt budget.
    A last step that lands within rounding of s_end (t + h an ulp short of
    it) reaches s_end.  Raises IntegrationError when the step collapses
    below STEP_FLOOR, after MAX_STEPS attempted steps, and when f raises
    ValueError (math.sin of an infinite angle, for one).
    """
    x, y, th = (float(v) for v in y0)
    K = np.empty((7, 3))
    Kf = memoryview(K.reshape(-1))  # flat view: stage i is Kf[3i:3i + 3]
    out = np.empty(3)  # every stage sum lands here; o reads it back as floats
    o = memoryview(out)
    Kf[0], Kf[1], Kf[2] = f_start = f(x, y, th)
    sum1, sum2, sum3, sum4, sum5 = (a.dot for a in _A)
    sum_b, sum_e = _B.dot, _E.dot
    K1, K2, K3, K4, K5, K6 = (K[:i] for i in range(1, 7))
    # t is the distance from s = 0; the signed position is sign * t.
    sign, span = math.copysign(1.0, s_end), abs(s_end)
    t, h, err_prev, budget = start or (0.0, min(max_step, 1e-3, span), 1e-4, MAX_STEPS)
    ss, ys = [sign * t or 0.0], [[x, y, th]]  # s = 0 is +0.0 in either direction
    hs_rows: list[float] = []
    rows = bytearray()  # accepted steps' stage matrices, 21 floats each
    p_prev = th - stop_theta if stop_theta is not None else None
    # The controller states of the last three samples, oldest first.
    c1 = c2 = None
    c3 = None if stop_theta is None else (t, h, err_prev, budget)

    # A try around the loop costs nothing per step while no exception is raised.
    try:
        while t < span:
            if budget == 0:
                raise IntegrationError(
                    f"{_FAILED}: horizon not reached in {MAX_STEPS} attempted steps", sign * t)
            budget -= 1
            h_ctrl = h
            if max_step < h:  # h = min(h, max_step, span - t)
                h = max_step
            rest = span - t
            if rest < h:
                h = rest
            floor = STEP_FLOOR * (t if t > 1.0 else 1.0)
            if h < floor:
                if (max_step if max_step < h_ctrl else h_ctrl) >= floor:
                    break  # only the rounding remainder of the horizon is left
                raise IntegrationError(_FAILED, sign * t)
            hs = sign * h

            sum1(K1, out)
            d0, d1, d2 = o
            Kf[3], Kf[4], Kf[5] = f(x + hs * d0, y + hs * d1, th + hs * d2)
            sum2(K2, out)
            d0, d1, d2 = o
            Kf[6], Kf[7], Kf[8] = f(x + hs * d0, y + hs * d1, th + hs * d2)
            sum3(K3, out)
            d0, d1, d2 = o
            Kf[9], Kf[10], Kf[11] = f(x + hs * d0, y + hs * d1, th + hs * d2)
            sum4(K4, out)
            d0, d1, d2 = o
            Kf[12], Kf[13], Kf[14] = f(x + hs * d0, y + hs * d1, th + hs * d2)
            sum5(K5, out)
            d0, d1, d2 = o
            Kf[15], Kf[16], Kf[17] = f(x + hs * d0, y + hs * d1, th + hs * d2)
            sum_b(K6, out)
            d0, d1, d2 = o
            xn, yn, thn = x + hs * d0, y + hs * d1, th + hs * d2
            Kf[18], Kf[19], Kf[20] = k7 = f(xn, yn, thn)

            # Summed in np.mean's order; r * r overflows to inf where r ** 2 raises.
            # Each scale is max(abs(v), abs(vn)), except that -0.0 stays -0.0;
            # tol + tol * -0.0 is tol + tol * 0.0, so r is the same.
            sum_e(K, out)
            e0, e1, e2 = o
            a = -x if x < 0.0 else x
            b = -xn if xn < 0.0 else xn
            r0 = hs * e0 / (tol + tol * (b if b > a else a))
            a = -y if y < 0.0 else y
            b = -yn if yn < 0.0 else yn
            r1 = hs * e1 / (tol + tol * (b if b > a else a))
            a = -th if th < 0.0 else th
            b = -thn if thn < 0.0 else thn
            r2 = hs * e2 / (tol + tol * (b if b > a else a))
            err_norm = math.sqrt((r0 * r0 + r1 * r1 + r2 * r2) / 3)

            if err_norm <= 1.0:
                hs_rows.append(hs)
                rows += Kf
                t += h
                ss.append(sign * t)
                ys.append([xn, yn, thn])
                factor = (_MAX_FACTOR if err_norm == 0.0
                          else _SAFETY * err_norm ** (-_EXP1) * err_prev ** _BETA)
                err_prev = 1e-4 if 1e-4 > err_norm else err_norm
                factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
                h *= factor if factor < _MAX_FACTOR else _MAX_FACTOR
                x, y, th = xn, yn, thn
                Kf[0], Kf[1], Kf[2] = k7
                if stop_theta is not None:
                    c1, c2, c3 = c2, c3, (t, h, err_prev, budget)
                    p_new = thn - stop_theta
                    if p_new == 0.0 or p_prev * p_new < 0.0:
                        break
                    p_prev = p_new
            else:
                factor = _SAFETY * err_norm ** (-_EXP1)
                factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
                h *= factor if factor < 1.0 else 1.0
    except ValueError as exc:
        raise IntegrationError(f"{_FAILED}: a stage state is not finite", sign * t) from exc

    # Stage 0 of step i is f at sample i, and the last step's FSAL stage f at
    # the last sample: the slopes are read back from the step rows.
    K_rows = np.frombuffer(rows).reshape(-1, 7, 3)
    slopes = (np.concatenate([K_rows[:, 0], K_rows[-1:, 6]]) if len(K_rows)
              else np.array([f_start]))
    states = np.fromiter(chain.from_iterable(ys), float, 3 * len(ys)).reshape(-1, 3)
    controls = tuple(c for c in (c1, c2, c3) if c is not None)
    return np.array(ss), states, np.array(hs_rows), K_rows, slopes, controls
