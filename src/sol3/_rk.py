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
21 stage values, appended to one bytearray; the dense segments are built
from those rows on first use (K is a view of the buffer) and cached, as few
steps are ever evaluated, and each forms its interpolant Q = K.T P lazily
too.  The slope f at each sample is its FSAL stage, returned as it came
from f.  A backward run takes negative steps; since rounding is
sign-symmetric, it gives exactly the negated-arc-length samples of a forward
run of -f, and `DenseSegments.reflected` gives the segments of a run that a
point reflection maps onto this one.  A call attempts at most MAX_STEPS
steps, so no horizon runs unbounded.  Every failure is an IntegrationError
naming the last accepted s.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
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
# Stage slopes of the point-reflected run: (x', y', theta') -> (x', y', -theta').
_REFLECT_SLOPES = np.array([1.0, 1.0, -1.0])

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_BETA = 0.04            # integral gain of the PI controller
_EXP1 = 0.2 - 0.75 * _BETA
#: Attempted steps (accepted or rejected) allowed per call: about 250 times
#: the longest integration of the benchmark workloads (about 4k steps).
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


class _Segments(Sequence):
    """A read-only sequence of dense segments, each made on first access and
    cached: len, indexing (negative too), slicing (to a list) and iteration,
    like the list it stands for."""

    __slots__ = ("_built",)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self._built)))]
        seg = self._built[i]
        if seg is None:
            i %= len(self._built)
            seg = self._built[i] = self._make(i)
        return seg


class DenseSegments(_Segments):
    """One run's dense segments, each built from its step row on first access.

    Segment i spans the samples i and i + 1: it starts at ss[i] (at
    sign * 0.0 for i = 0, the signed zero the step started from) with the
    signed step hs[i], start state ys[i] and stage rows K[i], a view of the
    run's step buffer.  A reflected sequence holds the segments of the run
    that P(x, y, theta) = (-x, -y, theta), s -> -s, maps onto this one: t0
    and h negated, the stage theta' column negated and the start state
    reflected, except in segment 0, which keeps the start and its slope
    exactly as given.
    """

    __slots__ = ("_ss", "_ys", "_hs", "_K", "_sign", "_reflect")

    def __init__(self, ss: list[float], ys: list[list[float]], hs: list[float],
                 K: np.ndarray, sign: float, reflect: bool = False):
        self._ss, self._ys, self._hs, self._K = ss, ys, hs, K
        self._sign, self._reflect = sign, reflect
        self._built: list[Optional[DenseSegment]] = [None] * len(hs)

    def _make(self, i: int) -> DenseSegment:
        t0 = self._ss[i] if i else self._sign * 0.0
        h, y0, K = self._hs[i], self._ys[i], self._K[i]
        if self._reflect:
            t0, h, K = -t0, -h, K * _REFLECT_SLOPES
            if i:
                y0 = [-y0[0], -y0[1], y0[2]]
            else:
                K[0] = self._K[0, 0]
        return DenseSegment(t0, h, y0, K)

    def reflectable(self) -> bool:
        """True when no stage theta' after the start is exactly 0.

        Negation flips the sign of every value but an exact zero, which the
        reflected run's rounding gives as +0.0 just the same; only then is
        `reflected` the backward run bit for bit, stage rows included.
        """
        return bool(self._K[:, 1:, 2].all())

    def reflected(self) -> DenseSegments:
        """This run's segments under P (see the class docstring), built lazily too."""
        return DenseSegments(self._ss, self._ys, self._hs, self._K, self._sign,
                             not self._reflect)


class TwoSided(_Segments):
    """A backward run's segments in increasing s, then a forward run's."""

    __slots__ = ("_back", "_fwd")

    def __init__(self, back: Sequence, fwd: Sequence):
        self._back, self._fwd = back, fwd
        self._built: list[Optional[DenseSegment]] = [None] * (len(back) + len(fwd))

    def _make(self, i: int) -> DenseSegment:
        nb = len(self._back)
        return self._back[nb - 1 - i] if i < nb else self._fwd[i - nb]


def solve_fixed_horizon(
    f: Callable[..., tuple],
    y0: tuple,
    s_end: float,
    abs_tol: float,
    rel_tol: float,
    max_step: float,
    stop_event: Optional[Callable[[float, list], float]] = None,
) -> tuple[np.ndarray, np.ndarray, DenseSegments, np.ndarray]:
    """Integrate (x, y, theta)' = f(x, y, theta) from y0 at s = 0 to s_end.

    s_end < 0 steps backward.  f returns three floats; y0 holds three.

    Returns (s samples, state samples, dense segments, slopes), samples
    ordered from s = 0 outward.  Segment i spans the samples i and i + 1, and
    slopes[i] is f at state sample i, bit for bit.  When
    `stop_event` is given, integration halts at the first accepted step whose
    endpoint changes the sign of the event function (the step itself is kept,
    so the sign change is bracketed by the last two samples).  A last step
    that lands within rounding of s_end (t + h an ulp short of it) reaches
    s_end.  Raises IntegrationError when the step collapses below STEP_FLOOR,
    after MAX_STEPS attempted steps, and when f raises ValueError (math.sin of
    an infinite angle, for one).
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
    h = min(max_step, 1e-3, span)
    state = [x, y, th]
    t, ss, ys = 0.0, [0.0], [state]
    hs_rows: list[float] = []
    rows = bytearray()  # accepted steps' stage matrices, 21 floats each
    err_prev = 1e-4
    p_prev = stop_event(0.0, state) if stop_event is not None else None
    budget = MAX_STEPS

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
            # abs_tol + rel_tol * -0.0 is abs_tol + rel_tol * 0.0, so r is the same.
            sum_e(K, out)
            e0, e1, e2 = o
            a = -x if x < 0.0 else x
            b = -xn if xn < 0.0 else xn
            r0 = hs * e0 / (abs_tol + rel_tol * (b if b > a else a))
            a = -y if y < 0.0 else y
            b = -yn if yn < 0.0 else yn
            r1 = hs * e1 / (abs_tol + rel_tol * (b if b > a else a))
            a = -th if th < 0.0 else th
            b = -thn if thn < 0.0 else thn
            r2 = hs * e2 / (abs_tol + rel_tol * (b if b > a else a))
            err_norm = math.sqrt((r0 * r0 + r1 * r1 + r2 * r2) / 3)

            if err_norm <= 1.0:
                hs_rows.append(hs)
                rows += Kf
                t += h
                state = [xn, yn, thn]
                ss.append(sign * t)
                ys.append(state)
                factor = (_MAX_FACTOR if err_norm == 0.0
                          else _SAFETY * err_norm ** (-_EXP1) * err_prev ** _BETA)
                err_prev = 1e-4 if 1e-4 > err_norm else err_norm
                factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
                h *= factor if factor < _MAX_FACTOR else _MAX_FACTOR
                x, y, th = xn, yn, thn
                Kf[0], Kf[1], Kf[2] = k7
                if stop_event is not None:
                    p_new = stop_event(sign * t, state)
                    if p_prev is not None and (p_new == 0.0 or p_prev * p_new < 0.0):
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
    return np.array(ss), states, DenseSegments(ss, ys, hs_rows, K_rows, sign), slopes
