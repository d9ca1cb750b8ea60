"""Cross-route verification: frame formulas against the coordinate oracle.

Draws every seeded random curve state at once, as one (n, 4) uniform array
whose rows are (x, y, theta, theta') in the order the generator yields them.
Mean and Gauss curvature come from the closed frame formulas in one array
evaluation of the whole draw, and from the finite-difference coordinate
route one sample at a time; the report holds the worst deviation.  Two fixed
anchor states ride along in every report: the origin line state (H = 0,
K = -1) and the unit flat circle (K = 0).
"""
from __future__ import annotations

import math

import numpy as np

from . import oracle
from .ode import circle_flat
from .surface import CurveState, curvature_report

DEFAULT_TOLERANCE = 1e-6

# Bounds of one drawn row (x, y, theta, theta').
_LOW = (-2.0, -2.0, -math.pi, -2.0)
_HIGH = (2.0, 2.0, math.pi, 2.0)


def random_states(samples: int, seed: int) -> tuple[CurveState, np.ndarray]:
    """Seeded states with array fields, and their theta' array.

    One `uniform(_LOW, _HIGH, size=(samples, 4))` draw: x, y and theta' in
    [-2, 2], theta in [-pi, pi].  Row i is sample i, so each value is the one
    a per-sample draw of x, y, then theta, then theta' would give.
    """
    draw = np.random.default_rng(seed).uniform(_LOW, _HIGH, size=(samples, 4))
    x, y, theta, theta_prime = draw.T
    return CurveState(0.0, x, y, theta), theta_prime


def run_verification(samples: int = 100, seed: int = 42) -> dict:
    """Compare both curvature routes on seeded states to DEFAULT_TOLERANCE; flat report.

    The frame route evaluates all samples in one array call; the oracle is
    called once per sample, in draw order, on Python floats.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    tol = DEFAULT_TOLERANCE
    states, theta_prime = random_states(samples, seed)
    frame = curvature_report(states, theta_prime)
    rows = np.column_stack((states.x, states.y, states.theta, theta_prime)).tolist()

    def oracle_hk(x, y, theta, tp):
        coord = oracle.curvatures_fd(CurveState(0.0, x, y, theta), tp)
        return coord.H, coord.K

    coord_h, coord_k = np.array([oracle_hk(*row) for row in rows]).T
    # np.max, unlike max(), keeps a NaN deviation, and NaN fails `< tol` below.
    max_dev_h = float(np.max(np.abs(frame.H - coord_h)))
    max_dev_k = float(np.max(np.abs(frame.K - coord_k)))

    plane_state = CurveState(0.0, 0.0, 0.0, 0.0)
    plane = curvature_report(plane_state, 0.0)
    circle_state, circle_tp = circle_flat(1.0, 0.3)
    circle = curvature_report(circle_state, circle_tp)

    report = {
        "samples": samples,
        "seed": seed,
        "tolerance": tol,
        "max_dev_H": max_dev_h,
        "max_dev_K": max_dev_k,
        "plane_H": plane.H,
        "plane_K": plane.K,
        "circle_K": circle.K,
        "passed": bool(
            max_dev_h < tol and max_dev_k < tol
            and plane.H == 0.0 and plane.K == -1.0
            and abs(circle.K) < 1e-10
        ),
    }
    return report
