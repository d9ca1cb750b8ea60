"""Pointwise geometry of a vertically invariant surface patch.

A curve s -> (x(s), y(s), 0) in the plane z = 0 with direction angle theta
(x' = cos theta, y' = sin theta) sweeps the surface

    psi(s, t) = (e^{-t} x(s), e^{t} y(s), t)

under vertical left translations.  All first/second fundamental form
quantities of psi depend only on the curve state (x, y, theta) and on
theta'; none depend on t.  One kernel, `_terms`, spells out once each
shared subexpression and, from them, H, K_ext, K_sec and K = K_ext + K_sec,
on floats or along equal-shape arrays (a whole trajectory in one call):

    A = x sin(theta) + y cos(theta),      W = 1 + A^2  (metric determinant)
    F = -x cos(theta) + y sin(theta),     G = 1 + x^2 + y^2
    radial = x cos(theta) + y sin(theta), D = y^2 - x^2
    lateral = -x sin(theta) + y cos(theta) + A D
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

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
    """First and second fundamental form coefficients at one curve state.

    `first_form` fills only (E, F, G, A, W) and leaves e = f = g = 0;
    `fundamental_forms` fills everything.
    """

    E: float
    F: float
    G: float
    A: float
    W: float
    e: float = 0.0
    f: float = 0.0
    g: float = 0.0


@dataclass(frozen=True)
class CurvatureReport:
    """Mean, Gauss, extrinsic and ambient-sectional curvature at one state."""

    H: float
    K: float
    K_ext: float
    K_sec: float


_Terms = namedtuple("_Terms", "sin cos A W root_W F G cos2t radial D lateral H K_ext K_sec K")


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
    return _Terms(sin_t, cos_t, A, W, root_W, F, G, cos2t, radial, D, lateral,
                  H, K_ext, K_sec, K_ext + K_sec)


def immersion(state: CurveState, t: float) -> SolPoint:
    """Surface point psi(s, t) = (e^{-t} x, e^{t} y, t)."""
    return SolPoint(math.exp(-t) * state.x, math.exp(t) * state.y, t)


def surface_tangents(state: CurveState) -> tuple[FrameVector, FrameVector]:
    """The patch tangents psi_s = cos(theta) E1 + sin(theta) E2 and
    psi_t = -x E1 + y E2 + E3, in frame components."""
    k = _terms(state)
    return FrameVector(k.cos, k.sin, 0.0), FrameVector(-state.x, state.y, 1.0)


def first_form(state: CurveState) -> FundamentalForms:
    """First fundamental form: E = 1, F, G and the shorthand A, W."""
    k = _terms(state)
    return FundamentalForms(E=1.0, F=k.F, G=k.G, A=k.A, W=k.W)


def unit_normal(state: CurveState) -> FrameVector:
    """Unit normal (sin E1 - cos E2 + A E3)/sqrt(W); the sign is never flipped."""
    k = _terms(state)
    rw = 1.0 / k.root_W
    return FrameVector(k.sin * rw, -k.cos * rw, k.A * rw)


def covariant_derivatives(
    state: CurveState, theta_prime: float
) -> tuple[FrameVector, FrameVector, FrameVector]:
    """Ambient covariant derivatives (D_s psi_s, D_s psi_t, D_t psi_t) in the frame."""
    k = _terms(state)
    return (FrameVector(-theta_prime * k.sin, theta_prime * k.cos, -k.cos2t),
            FrameVector(0.0, 0.0, k.radial),
            FrameVector(-state.x, -state.y, k.D))


def second_form(state: CurveState, theta_prime: float) -> tuple[float, float, float]:
    """Second fundamental form (e, f, g) assembled from the covariant derivatives."""
    n = unit_normal(state)
    d_ss, d_st, d_tt = covariant_derivatives(state, theta_prime)
    return n.dot(d_ss), n.dot(d_st), n.dot(d_tt)


def fundamental_forms(state: CurveState, theta_prime: float) -> FundamentalForms:
    """All eight coefficients (E, F, G, A, W, e, f, g) at one state."""
    e, f, g = second_form(state, theta_prime)
    return replace(first_form(state), e=e, f=f, g=g)


def mean_curvature(state: CurveState, theta_prime: float) -> float:
    """H = [sin(2 theta) F - G theta'] / (2 W^{3/2})."""
    return _terms(state, theta_prime).H


def sectional_curvature(state: CurveState) -> float:
    """Ambient sectional curvature of the tangent plane: (A^2 - 1)/(1 + A^2)."""
    return _terms(state).K_sec


def extrinsic_curvature(state: CurveState, theta_prime: float) -> float:
    """Extrinsic curvature det(II)/det(I) in closed form:

    K_ext = -[A^2 radial^2 + (theta' + A cos 2theta) lateral] / W^2
    """
    return _terms(state, theta_prime).K_ext


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
