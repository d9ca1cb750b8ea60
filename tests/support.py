"""Readers and checks that only the tests use: parse the CSV and OBJ files
sol3 writes, integrate a line start without snapping it, re-evaluate a
trajectory's stored theta', split verify's seeded draw into per-sample
states, the oracle's Christoffel symbols and sectional curvature as
stand-alone anchors, and the bracket scan that shoots every grid point at
the caller's settings."""
import math
from collections import namedtuple

import numpy as np

from sol3 import analysis, ode, oracle
from sol3.io import CSV_HEADER
from sol3.surface import CurveState
from sol3.verify import random_states

# One CSV row as `read_curve_csv` returns it: a field per column.
CurveRecord = namedtuple("CurveRecord", CSV_HEADER)


def read_curve_csv(path: str) -> list[CurveRecord]:
    with open(path, "r") as handle:
        header = handle.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        records = []
        for line in handle:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 7:
                raise ValueError(f"malformed CSV row {line!r}")
            records.append(CurveRecord(*(float(p) for p in parts)))
    return records


def read_obj(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse the v/f subset written by `write_mesh_obj`."""
    verts, faces = [], []
    with open(path, "r") as handle:
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p) - 1 for p in parts[1:4]])
    return np.array(verts), np.array(faces, dtype=int)


def integrate_unsnapped(ic: ode.InitialCondition, settings: ode.OdeSettings,
                        H=None) -> ode.Trajectory:
    """`integrate` with the stepper run on both sides even where the start
    lies on a constant-angle line, which `integrate` snaps to the exact line."""
    return ode._trajectory(ic, settings, H, settings.max_s, both_sides=True)


def reference_scan(H: float, settings: ode.OdeSettings):
    """`analysis._scan` as it was before its sign-only shots: every grid
    point shot at the caller's settings."""
    grid = analysis._SCAN_GRID if H > 0.0 else tuple(-y0 for y0 in analysis._SCAN_GRID)
    prev = None
    for y0 in grid:
        shot = analysis._shot(H, y0, settings)
        if shot is not None and prev is not None and prev[1][0] * shot[0] < 0.0:
            return (prev, (y0, shot)) if H > 0.0 else ((y0, shot), prev)
        prev = None if shot is None else (y0, shot)
    raise analysis.BracketError(f"no sign change of x(s1; y0) on the scan grid "
                                f"[{min(grid)}, {max(grid)}] for H = {H}")


def max_ode_residual(traj: ode.Trajectory) -> float:
    """Max |theta'_stored - theta'(state)| over all samples, re-evaluated; NaN if any is."""
    raw = ode._raw_rhs(traj.H_target)
    rows = zip(traj.x.tolist(), traj.y.tolist(), traj.theta.tolist(), traj.theta_prime.tolist())
    return float(np.max([abs(raw(x, y, th)[2] - tp) for x, y, th, tp in rows]))


def state_pairs(samples: int, seed: int) -> list[tuple[CurveState, float]]:
    """verify's seeded draw as per-sample (state, theta') pairs of Python floats."""
    states, theta_prime = random_states(samples, seed)
    rows = zip(states.x.tolist(), states.y.tolist(), states.theta.tolist(), theta_prime.tolist())
    return [(CurveState(0.0, x, y, theta), tp) for x, y, theta, tp in rows]


def coord_christoffel_fd(z: float) -> np.ndarray:
    """Christoffels recomputed from finite differences of the metric, against
    `oracle.coord_christoffel`."""

    def g_at(dz: float) -> np.ndarray:
        return np.diag([math.exp(2.0 * (z + dz)), math.exp(-2.0 * (z + dz)), 1.0])

    g = g_at(0.0)
    g_inv = np.linalg.inv(g)
    # dg[l, i, j] = d g_{ij} / d x^l ; only the z-derivative is nonzero.
    h = oracle.FD_STEP_FIRST
    dg = np.zeros((3, 3, 3))
    dg[2] = (g_at(h) - g_at(-h)) / (2.0 * h)
    gam = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                val = 0.0
                for m in range(3):
                    val += g_inv[k, m] * (dg[i, m, j] + dg[j, m, i] - dg[m, i, j])
                gam[k, i, j] = 0.5 * val
    return gam


def sectional_curvature_coord(z: float, u, v) -> float:
    """Sectional curvature of span(u, v) at height z through the oracle's
    numerical Riemann tensor (`oracle._sectional`)."""
    height = oracle._height(z)
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    u_g, v_g = u.dot(height.metric), v.dot(height.metric)
    return oracle._sectional(height, u.tolist(), v.tolist(), u,
                             float(u_g.dot(u)), float(u_g.dot(v)), float(v_g.dot(v)))
