"""Readers and checks that only the tests use: parse the CSV and OBJ files
sol3 writes, integrate a line start without snapping it, re-evaluate a
trajectory's stored theta', and split verify's seeded draw into per-sample
states."""
from collections import namedtuple

import numpy as np

from sol3 import ode
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
