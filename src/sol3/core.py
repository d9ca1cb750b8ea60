"""Sol3 ambient space: group law, metric, orthonormal frame, and isometries.

The model is R^3 carrying the left-invariant metric

    e^{2z} dx^2 + e^{-2z} dy^2 + dz^2

with group operation (x,y,z)*(x',y',z') = (x + e^{-z}x', y + e^{z}y', z + z').
Everything here is a pure function of its inputs; there is no shared state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class BasePointMismatch(ValueError):
    """Raised when a bilinear operation mixes tangent vectors at different points."""


@dataclass(frozen=True)
class SolPoint:
    """A point of Sol3 in global coordinates."""

    x: float
    y: float
    z: float

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z


@dataclass(frozen=True)
class FrameVector:
    """Coefficients (a1, a2, a3) with respect to the orthonormal frame E1, E2, E3."""

    a1: float
    a2: float
    a3: float

    def dot(self, other: "FrameVector") -> float:
        return self.a1 * other.a1 + self.a2 * other.a2 + self.a3 * other.a3

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def __iter__(self):
        yield self.a1
        yield self.a2
        yield self.a3


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector in the coordinate basis d/dx, d/dy, d/dz at a base point."""

    base: SolPoint
    vx: float
    vy: float
    vz: float


class IsometryFamily(Enum):
    # (x,y,z) -> (sx e^{-c} x + a, sy e^{c} y + b,  z + c)
    TRANSLATION = "translation"
    # (x,y,z) -> (sx e^{-c} y + a, sy e^{c} x + b, -z + c)
    FLIP = "flip"


@dataclass(frozen=True)
class IsometryDescriptor:
    """One isometry of Sol3, encoded by family, sign pair and parameters (a, b, c).

    Descriptors (rather than closures) make composition and conjugation
    identities testable on the parameters themselves.
    """

    family: IsometryFamily
    sx: int = 1
    sy: int = 1
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    def __post_init__(self):
        if self.sx not in (-1, 1) or self.sy not in (-1, 1):
            raise ValueError("sign entries must be +1 or -1")


#: The orientation-reversing swap (x, y, z) -> (y, x, -z).
AXIS_SWAP_FLIP = IsometryDescriptor(IsometryFamily.FLIP)


def vertical_translation(t: float) -> IsometryDescriptor:
    """Descriptor of the left translation by (0, 0, t)."""
    return IsometryDescriptor(IsometryFamily.TRANSLATION, c=t)


def group_mul(p: SolPoint, q: SolPoint) -> SolPoint:
    """Group operation p * q."""
    return SolPoint(p.x + math.exp(-p.z) * q.x, p.y + math.exp(p.z) * q.y, p.z + q.z)


def inverse(p: SolPoint) -> SolPoint:
    """Group inverse, the unique q with p * q = (0, 0, 0)."""
    return SolPoint(-math.exp(p.z) * p.x, -math.exp(-p.z) * p.y, -p.z)


def left_translate(t: float, p: SolPoint) -> SolPoint:
    """Left translation by (0, 0, t): p -> (e^{-t} x, e^{t} y, t + z)."""
    return SolPoint(math.exp(-t) * p.x, math.exp(t) * p.y, t + p.z)


def metric_eval(u: TangentVector, v: TangentVector) -> float:
    """Inner product e^{2z} ux vx + e^{-2z} uy vy + uz vz at the common base point."""
    if u.base != v.base:
        raise BasePointMismatch(f"bases differ: {u.base} vs {v.base}")
    z = u.base.z
    return (
        math.exp(2.0 * z) * u.vx * v.vx
        + math.exp(-2.0 * z) * u.vy * v.vy
        + u.vz * v.vz
    )


def frame_at(p: SolPoint) -> tuple[TangentVector, TangentVector, TangentVector]:
    """Coordinate components of E1 = e^{-z} d/dx, E2 = e^{z} d/dy, E3 = d/dz at p."""
    return (
        TangentVector(p, math.exp(-p.z), 0.0, 0.0),
        TangentVector(p, 0.0, math.exp(p.z), 0.0),
        TangentVector(p, 0.0, 0.0, 1.0),
    )


# Connection table nabla_{E_i} E_j in frame components, keyed by (i, j).
_CONNECTION = {
    (1, 1): FrameVector(0.0, 0.0, -1.0),
    (1, 2): FrameVector(0.0, 0.0, 0.0),
    (1, 3): FrameVector(1.0, 0.0, 0.0),
    (2, 1): FrameVector(0.0, 0.0, 0.0),
    (2, 2): FrameVector(0.0, 0.0, 1.0),
    (2, 3): FrameVector(0.0, -1.0, 0.0),
    (3, 1): FrameVector(0.0, 0.0, 0.0),
    (3, 2): FrameVector(0.0, 0.0, 0.0),
    (3, 3): FrameVector(0.0, 0.0, 0.0),
}


def connection_coeff(i: int, j: int) -> FrameVector:
    """Riemannian connection nabla_{E_i} E_j of Sol3 in the orthonormal frame."""
    try:
        return _CONNECTION[(i, j)]
    except KeyError:
        raise ValueError(f"frame indices must lie in 1..3, got ({i}, {j})") from None


def isometry_apply(iso: IsometryDescriptor, p: SolPoint) -> SolPoint:
    """Apply the isometry described by `iso` to the point p."""
    em, ep = math.exp(-iso.c), math.exp(iso.c)
    if iso.family is IsometryFamily.TRANSLATION:
        return SolPoint(iso.sx * em * p.x + iso.a, iso.sy * ep * p.y + iso.b, p.z + iso.c)
    return SolPoint(iso.sx * em * p.y + iso.a, iso.sy * ep * p.x + iso.b, -p.z + iso.c)


def isometry_differential(iso: IsometryDescriptor) -> tuple[tuple[float, float, float], ...]:
    """Jacobian of the isometry in coordinates (constant: the maps are affine)."""
    em, ep = math.exp(-iso.c), math.exp(iso.c)
    if iso.family is IsometryFamily.TRANSLATION:
        return ((iso.sx * em, 0.0, 0.0), (0.0, iso.sy * ep, 0.0), (0.0, 0.0, 1.0))
    return ((0.0, iso.sx * em, 0.0), (iso.sy * ep, 0.0, 0.0), (0.0, 0.0, -1.0))


def isometry_push(iso: IsometryDescriptor, v: TangentVector) -> TangentVector:
    """Push a tangent vector forward through the isometry."""
    jac = isometry_differential(iso)
    comps = (v.vx, v.vy, v.vz)
    out = [sum(jac[r][k] * comps[k] for k in range(3)) for r in range(3)]
    return TangentVector(isometry_apply(iso, v.base), out[0], out[1], out[2])


def isometry_compose(outer: IsometryDescriptor, inner: IsometryDescriptor) -> IsometryDescriptor:
    """Descriptor of the composition outer o inner (apply inner first).

    An outer translation keeps the inner map's family and an outer flip
    switches it, so a flip composed with a flip is a translation-type map.
    """
    em, ep = math.exp(-outer.c), math.exp(outer.c)
    T, F = IsometryFamily.TRANSLATION, IsometryFamily.FLIP
    if outer.family is T:
        return IsometryDescriptor(inner.family, outer.sx * inner.sx, outer.sy * inner.sy,
                                  outer.sx * em * inner.a + outer.a,
                                  outer.sy * ep * inner.b + outer.b,
                                  outer.c + inner.c)
    return IsometryDescriptor(F if inner.family is T else T,
                              outer.sx * inner.sy, outer.sy * inner.sx,
                              outer.sx * em * inner.b + outer.a,
                              outer.sy * ep * inner.a + outer.b,
                              outer.c - inner.c)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def ricci_frame_origin() -> tuple[FrameVector, FrameVector, FrameVector]:
    """The frame basis diagonalizing the Ricci tensor at the origin."""
    return (
        FrameVector(_INV_SQRT2, _INV_SQRT2, 0.0),
        FrameVector(_INV_SQRT2, -_INV_SQRT2, 0.0),
        FrameVector(0.0, 0.0, 1.0),
    )
