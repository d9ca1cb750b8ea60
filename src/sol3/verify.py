"""Cross-route verification: frame formulas against the coordinate oracle.

Draws seeded random curve states, evaluates mean and Gauss curvature through
the closed frame formulas and through the finite-difference coordinate route,
and reports the worst deviation.  Two fixed anchor states ride along in every
report: the origin line state (H = 0, K = -1) and the unit flat circle
(K = 0).
"""
from __future__ import annotations

import math

import numpy as np

from . import oracle
from .ode import circle_flat
from .surface import CurveState, curvature_report

DEFAULT_TOLERANCE = 1e-6


def random_states(samples: int, seed: int) -> list[tuple[CurveState, float]]:
    """Seeded random (state, theta') pairs with x and y in [-2, 2]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        x, y = rng.uniform(-2.0, 2.0, size=2)
        theta = rng.uniform(-math.pi, math.pi)
        theta_prime = rng.uniform(-2.0, 2.0)
        out.append((CurveState(0.0, float(x), float(y), float(theta)),
                    float(theta_prime)))
    return out


def run_verification(samples: int = 100, seed: int = 42) -> dict:
    """Compare both curvature routes on seeded states to DEFAULT_TOLERANCE; flat report."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    tol = DEFAULT_TOLERANCE
    max_dev_h = 0.0
    max_dev_k = 0.0
    for state, theta_prime in random_states(samples, seed):
        frame = curvature_report(state, theta_prime)
        coord = oracle.curvatures_fd(state, theta_prime)
        max_dev_h = max(max_dev_h, abs(frame.H - coord.H))
        max_dev_k = max(max_dev_k, abs(frame.K - coord.K))

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
