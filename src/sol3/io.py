"""Persistence: curve CSV files, surface meshes, OBJ export.

All floats are serialized with `repr`, i.e. the shortest string that
round-trips exactly, so identical inputs produce byte-identical files and
files parse back to the exact binary values.  Writes go through a temp file
and an atomic rename; failed commands leave nothing behind.
"""
from __future__ import annotations

import math
import os
import secrets
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .ode import IntegrationError, Trajectory, circle_flat, explicit_solution
# `immersion` is not called here (surface_mesh inlines it, bit for bit) but
# stays part of this module's namespace: perfbench/layertrace.py wraps
# `io.immersion` to count per-vertex calls.
from .surface import CurveState, curvature_report, immersion, unit_normal  # noqa: F401

CSV_HEADER = "s,x,y,theta,theta_prime,H,K"
# One CSV row as `read_curve_csv` returns it: a field per column.
CurveRecord = namedtuple("CurveRecord", CSV_HEADER)
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class MeshGrid:
    """Sampling rectangle for the swept surface: finite increasing extents, counts >= 2."""

    s_min: float
    s_max: float
    t_min: float
    t_max: float
    n_s: int
    n_t: int

    def __post_init__(self):
        if self.n_s < 2 or self.n_t < 2:
            raise ValueError("mesh grid needs at least 2 samples per direction")
        if not all(map(math.isfinite, (self.s_min, self.s_max, self.t_min, self.t_max))):
            raise ValueError("mesh grid extents must be finite")
        if not (self.s_max > self.s_min and self.t_max > self.t_min):
            raise ValueError("mesh grid extents must be increasing")


def atomic_write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text, or an iterable of text chunks, to path atomically.

    The data goes to a same-directory temp file, which is renamed over path
    only once every chunk is written; on any failure, including one raised by
    the chunk iterable, the temp file is removed and path is left untouched.
    The temp file is created with mode 0o666 and the process umask applied,
    as `open` would create path itself.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            if isinstance(text, str):
                handle.write(text)
            else:
                handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trajectory_records(traj: Trajectory) -> np.ndarray:
    """The (n, 7) CSV table: one row per accepted step, curvatures in one
    array evaluation of the kernel (the bits of a per-sample evaluation)."""
    rep = curvature_report(CurveState(traj.s, traj.x, traj.y, traj.theta),
                           traj.theta_prime)
    return np.column_stack([traj.s, traj.x, traj.y, traj.theta, traj.theta_prime,
                            rep.H, rep.K])


def _chunks(line: str, rows: np.ndarray, shift: int = 0) -> Iterator[str]:
    """`line` %-formatted with each row plus `shift`, _CHUNK_ROWS rows to a chunk."""
    for i in range(0, len(rows), _CHUNK_ROWS):
        block = rows[i:i + _CHUNK_ROWS]
        if shift:  # per block, so rows is never copied whole (+ 0 would turn -0.0 to 0.0)
            block = block + shift
        yield (line * len(block)) % tuple(block.ravel().tolist())


def format_curve_csv(rows: np.ndarray | list[CurveRecord]) -> str:
    """CSV text of an (n, 7) table, or of a list of `CurveRecord`s."""
    table = np.asarray(rows, dtype=float).reshape(-1, 7)
    return "".join([CSV_HEADER + "\n", *_chunks("%r,%r,%r,%r,%r,%r,%r\n", table)])


def write_curve_csv(path: str, traj: Trajectory) -> None:
    """Write the trajectory's records as CSV.

    A non-finite value in any column raises IntegrationError and writes nothing.
    """
    table = trajectory_records(traj)
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise IntegrationError(f"curve sample at s = {float(table[i, 0])!r} is not finite",
                               float(table[i - 1, 0]) if i else math.nan)
    atomic_write_text(path, format_curve_csv(table))


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


def curve_from_kind(kind: str, x0: float = 0.0, y0: float = 0.0,
                    r: float = 1.0) -> Callable[[float], CurveState]:
    """Closed-form curve evaluators for mesh generation without integration."""
    if kind in ("I", "II", "III", "IV"):
        return lambda s: explicit_solution(kind, x0, y0, s)
    if kind == "circle":
        return lambda s: circle_flat(r, s)[0]
    raise ValueError(f"unknown explicit curve kind {kind!r}")


def surface_mesh(
    curve: Callable[[float], CurveState],
    grid: MeshGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex grid and triangle list of the swept surface over the grid.

    Vertices are psi(s_i, t_j) in row-major order (s slowest).  Quads are
    split into two triangles, wound so Euclidean face normals agree with the
    surface normal at the grid center.

    The vertex columns are the products e^{-t} x and e^{t} y of `immersion`,
    formed by broadcasting; the factors come from `math.exp` (not `np.exp`,
    which may differ in the last bit), so every vertex is bitwise the point
    `immersion(state, t)` returns.
    """
    svals = np.linspace(grid.s_min, grid.s_max, grid.n_s)
    tvals = np.linspace(grid.t_min, grid.t_max, grid.n_t)
    states = [curve(float(s)) for s in svals]
    tlist = tvals.tolist()
    vertices = np.empty((grid.n_s, grid.n_t, 3))
    vertices[:, :, 0] = (np.array([st.x for st in states])[:, None]
                         * np.array([math.exp(-t) for t in tlist]))
    vertices[:, :, 1] = (np.array([st.y for st in states])[:, None]
                         * np.array([math.exp(t) for t in tlist]))
    vertices[:, :, 2] = tvals
    vertices = vertices.reshape(-1, 3)

    # Quad (i, j) has corners a = i*n_t + j, b = a + n_t, c = b + 1, d = a + 1
    # and is split into the triangles (a, b, c) and (a, c, d).
    a = (np.arange(grid.n_s - 1)[:, None] * grid.n_t + np.arange(grid.n_t - 1)).ravel()
    b = a + grid.n_t
    faces_arr = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=1).reshape(-1, 3)

    if _center_alignment(states, svals, tvals, vertices, faces_arr, grid) < 0.0:
        faces_arr = faces_arr[:, ::-1]
    return vertices, faces_arr


def _center_alignment(states, svals, tvals, vertices, faces, grid) -> float:
    """Sign of (Euclidean face normal) . (surface normal in coordinates) at center."""
    ic, jc = (grid.n_s - 1) // 2, (grid.n_t - 1) // 2
    state, t = states[ic], float(tvals[jc])
    n_frame = unit_normal(state)
    z = t
    n_coords = np.array([n_frame.a1 * math.exp(-z), n_frame.a2 * math.exp(z), n_frame.a3])
    face = faces[2 * (ic * (grid.n_t - 1) + jc)]
    v0, v1, v2 = vertices[face[0]], vertices[face[1]], vertices[face[2]]
    return float(np.cross(v1 - v0, v2 - v0) @ n_coords)


def format_obj(vertices: np.ndarray, faces: np.ndarray) -> Iterator[str]:
    """OBJ text of the mesh as chunks of whole lines, to be joined or streamed.

    Vertices print as `repr` of each float and faces as 1-based indices.  The
    text is produced lazily, _CHUNK_ROWS rows at a time, so a large mesh
    is never held in memory as one string.
    """
    yield from _chunks("v %r %r %r\n", vertices)
    yield from _chunks("f %d %d %d\n", faces, shift=1)


def write_mesh_obj(path: str, vertices: np.ndarray, faces: np.ndarray) -> None:
    atomic_write_text(path, format_obj(vertices, faces))


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
