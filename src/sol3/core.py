"""Sol3 ambient space: group law, metric, frame components, and isometries.

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
    """One isometry of Sol3, encoded by family, sign pair and parameters (a, b, c)."""

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


def isometry_apply(iso: IsometryDescriptor, p: SolPoint) -> SolPoint:
    """Apply the isometry described by `iso` to the point p."""
    em, ep = math.exp(-iso.c), math.exp(iso.c)
    if iso.family is IsometryFamily.TRANSLATION:
        return SolPoint(iso.sx * em * p.x + iso.a, iso.sy * ep * p.y + iso.b, p.z + iso.c)
    return SolPoint(iso.sx * em * p.y + iso.a, iso.sy * ep * p.x + iso.b, -p.z + iso.c)
