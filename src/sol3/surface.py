"""Pointwise geometry of a vertically invariant surface patch.

A curve s -> (x(s), y(s), 0) in the plane z = 0 with direction angle theta
(x' = cos theta, y' = sin theta) sweeps the surface

    psi(s, t) = (e^{-t} x(s), e^{t} y(s), t)

under vertical left translations.  Its fundamental forms depend only on
the curve state (x, y, theta) and on theta', never on t.  One kernel,
`_terms`, spells out once each shared subexpression and, from them, H,
K_ext, K_sec and K = K_ext + K_sec, on floats or along equal-shape arrays
(a whole trajectory in one call).  The first form, the unit normal and the
curvatures below are views of it.  The second form is not exposed: it is
folded into H and K_ext, and the oracle (`oracle.py`) forms it on its own:

    A = x sin(theta) + y cos(theta),      W = 1 + A^2  (metric determinant)
    F = -x cos(theta) + y sin(theta),     G = 1 + x^2 + y^2
    radial = x cos(theta) + y sin(theta), D = y^2 - x^2
    lateral = -x sin(theta) + y cos(theta) + A D
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import FrameVector, SolPoint


@dataclass(frozen=True)
class CurveState:
    """Generating-curve phase point; theta is unwrapped (never reduced mod 2*pi)."""

    s: float
    x: float
    y: float
    theta: float


@dataclass(frozen=True)
class FundamentalForms:
    """First fundamental form E, F, G and the shorthand A, W at one curve state."""

    E: float
    F: float
    G: float
    A: float
    W: float


@dataclass(frozen=True)
class CurvatureReport:
    """Mean, Gauss, extrinsic and ambient-sectional curvature at one state."""

    H: float
    K: float
    K_ext: float
    K_sec: float


_Terms = namedtuple("_Terms", "sin cos A W root_W F G cos2t D lateral H K_ext K_sec K")


def _terms(state: CurveState, theta_prime: float = 0.0) -> _Terms:
    """Every shared subexpression and curvature at one state, or along arrays.

    Float fields are evaluated with `math`; array fields elementwise with
    numpy, whose sin, cos and sqrt match `math` bit for bit where measured
    (a hypothesis test in tests/test_surface.py guards it).  Like float
    arithmetic, the array route overflows to inf or nan silently.
    """
    if isinstance(state.theta, np.ndarray):
        with np.errstate(all="ignore"):
            return _spell(np, state.x, state.y, state.theta, theta_prime)
    return _spell(math, state.x, state.y, state.theta, theta_prime)


def _spell(lib, x, y, theta, theta_prime) -> _Terms:
    sin_t, cos_t = lib.sin(theta), lib.cos(theta)
    A = x * sin_t + y * cos_t
    W = 1.0 + A * A
    root_W = lib.sqrt(W)
    F = -x * cos_t + y * sin_t
    G = 1.0 + x * x + y * y
    cos2t = cos_t * cos_t - sin_t * sin_t
    radial = x * cos_t + y * sin_t
    D = y * y - x * x
    lateral = -x * sin_t + y * cos_t + A * D
    H = (2.0 * sin_t * cos_t * F - G * theta_prime) / (2.0 * W * root_W)
    K_ext = -(A * A * radial * radial + (theta_prime + A * cos2t) * lateral) / (W * W)
    K_sec = (A * A - 1.0) / W
    return _Terms(sin_t, cos_t, A, W, root_W, F, G, cos2t, D, lateral,
                  H, K_ext, K_sec, K_ext + K_sec)


def immersion(state: CurveState, t: float) -> SolPoint:
    """Surface point psi(s, t) = (e^{-t} x, e^{t} y, t)."""
    return SolPoint(math.exp(-t) * state.x, math.exp(t) * state.y, t)


def first_form(state: CurveState) -> FundamentalForms:
    """First fundamental form: E = 1, F, G and the shorthand A, W."""
    k = _terms(state)
    return FundamentalForms(E=1.0, F=k.F, G=k.G, A=k.A, W=k.W)


def unit_normal(state: CurveState) -> FrameVector:
    """Unit normal (sin E1 - cos E2 + A E3)/sqrt(W); the sign is never flipped."""
    k = _terms(state)
    rw = 1.0 / k.root_W
    return FrameVector(k.sin * rw, -k.cos * rw, k.A * rw)


def mean_curvature(state: CurveState, theta_prime: float) -> float:
    """H = [sin(2 theta) F - G theta'] / (2 W^{3/2})."""
    return _terms(state, theta_prime).H


def gauss_curvature(state: CurveState, theta_prime: float) -> float:
    """Gauss curvature by the Gauss equation: K = K_ext + K_sec."""
    return _terms(state, theta_prime).K


def flat_residual(state: CurveState, theta_prime: float) -> float:
    """Left-hand side of the zero-Gauss-curvature equation; 0 iff K = 0.

    The closed numerator (theta' + A cos 2theta) lateral + 1 - cos(2 theta) D A^2
    equals -K W^2 but is not formed from K, so it checks the kernel's K.
    """
    k = _terms(state, theta_prime)
    return (theta_prime + k.A * k.cos2t) * k.lateral + 1.0 - k.cos2t * k.D * k.A * k.A


def curvature_report(state: CurveState, theta_prime: float) -> CurvatureReport:
    """H, K, K_ext, K_sec from one kernel evaluation, at one state or along arrays."""
    k = _terms(state, theta_prime)
    return CurvatureReport(H=k.H, K=k.K, K_ext=k.K_ext, K_sec=k.K_sec)
