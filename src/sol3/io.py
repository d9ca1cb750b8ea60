"""Persistence: curve CSV files, surface meshes, OBJ export.

Every float is written as its `repr` text, i.e. the shortest string that
round-trips exactly, so identical inputs produce byte-identical files and
files parse back to the exact binary values.  The writers produce bytes in
whole-block passes: orjson prints zeros, |v| < 1e-9 and 1e-4 <= |v| < 1e16
as `repr` does; `repr` prints the rest ([1e-9, 1e-4), where orjson writes
`5e-7` or `0.00005` for `repr`'s `5e-07` and `5e-05`, |v| >= 1e16, inf and
NaN); tests hold both routes to `repr`'s bytes.  Writes go through a temp
file and an atomic rename; failed commands leave nothing behind.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np
import orjson

from .ode import IntegrationError, Trajectory, circle_flat, explicit_solution
# `immersion` is not called here (surface_mesh inlines it, bit for bit) but
# stays part of this module's namespace: perfbench/layertrace.py wraps
# `io.immersion` to count per-vertex calls.
from .surface import CurveState, curvature_report, immersion, unit_normal  # noqa: F401

CSV_HEADER = "s,x,y,theta,theta_prime,H,K"
_CHUNK_ROWS = 4096
_MAX_EXP_ARG = math.log(sys.float_info.max)  # e^t is finite for t up to this
_SLOT = -1e300  # orjson's b"-1e300"; every other |v| >= 1e16 is a slot, so no value prints it
_OBJ_BYTES = bytes.maketrans(b",n", b" v")  # commas to spaces; with b"ul" deleted, `null` to `v`


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
        if not all(map(math.isfinite, (self.s_min, self.s_max, self.t_min, self.t_max,
                                       self.s_max - self.s_min))):
            raise ValueError("mesh grid extents and their span must be finite")
        if not (self.s_max > self.s_min and self.t_max > self.t_min):
            raise ValueError("mesh grid extents must be increasing")
        if max(-self.t_min, self.t_max) > _MAX_EXP_ARG:
            raise ValueError(f"mesh grid |t| must not exceed {_MAX_EXP_ARG!r}")


def atomic_write_text(path: str, data: bytes | Iterable[bytes]) -> None:
    """Write bytes, or an iterable of bytes chunks, to path atomically.

    The name predates the bytes writers; it stays because the benchmark's
    layer tracer (perfbench/layertrace.py) binds it, as it binds `format_obj`
    and `format_curve_csv`.  The data goes to a same-directory temp file,
    which is renamed over path only once every chunk is written; on any
    failure, including one raised by the chunk iterable, the temp file is
    removed and path is left untouched.  The temp file is created with mode
    0o666 and the process umask applied, as `open` would create path itself.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines([data] if isinstance(data, bytes) else data)
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


def _float_lines(block: np.ndarray, obj: bool) -> bytes:
    """CSV lines, or OBJ `v` lines when obj, of a non-empty 2-d float block,
    each float as its `repr` text.

    One orjson call prints the block with an extra NaN column, whose `null`
    marks each line end.  `repr` prints the slots, the values whose orjson
    text differs: [1e-9, 1e-4), |v| >= 1e16, inf and NaN.
    """
    mag = np.abs(block)
    slots = ~((mag < 1e-9) | ((mag >= 1e-4) & (mag < 1e16)))  # NaN compares False: a slot
    flat = np.pad(np.where(slots, _SLOT, block), ((0, 0), (0, 1)), constant_values=math.nan)
    text = orjson.dumps(flat.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
    if obj:  # `,null,` -> `\nv `: a same-length replace, then one translate
        text = b"v " + text.replace(b",null", b"\nnull").translate(_OBJ_BYTES, b"ul")[1:-2]
    else:
        text = text[1:-6].replace(b",null,", b"\n") + b"\n"
    if slots.any():
        parts = text.split(b"-1e300")
        joined = [b""] * (2 * len(parts) - 1)
        joined[::2] = parts
        joined[1::2] = [repr(v).encode() for v in block[slots].tolist()]
        text = b"".join(joined)
    return text


def format_curve_csv(rows: np.ndarray) -> bytes:
    """CSV bytes of an (n, 7) table."""
    table = np.asarray(rows, dtype=float).reshape(-1, 7)
    return b"".join([CSV_HEADER.encode() + b"\n"]
                    + [_float_lines(table[i:i + _CHUNK_ROWS], obj=False)
                       for i in range(0, len(table), _CHUNK_ROWS)])


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


def curve_from_kind(kind: str, x0: float = 0.0, y0: float = 0.0,
                    r: float = 1.0) -> Callable[[float], CurveState]:
    """Closed-form curve evaluators for mesh generation without integration;
    one evaluation at s = 0 checks a circle's radius and a line's kind and
    start here, before any vertex is made."""
    curve = ((lambda s: circle_flat(r, s)[0]) if kind == "circle"
             else (lambda s: explicit_solution(kind, x0, y0, s)))
    curve(0.0)  # ValueError for a bad radius, an unknown kind or an off-diagonal start
    return curve


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
    `immersion(state, t)` returns.  A vertex that is not finite raises
    IntegrationError naming it.
    """
    svals = np.linspace(grid.s_min, grid.s_max, grid.n_s)
    tvals = np.linspace(grid.t_min, grid.t_max, grid.n_t)
    states = [curve(float(s)) for s in svals]
    tlist = tvals.tolist()
    vertices = np.empty((grid.n_s, grid.n_t, 3))
    with np.errstate(over="ignore"):
        vertices[:, :, 0] = (np.array([st.x for st in states])[:, None]
                             * np.array([math.exp(-t) for t in tlist]))
        vertices[:, :, 1] = (np.array([st.y for st in states])[:, None]
                             * np.array([math.exp(t) for t in tlist]))
    vertices[:, :, 2] = tvals
    vertices = vertices.reshape(-1, 3)
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        i, j = divmod(int(np.argmin(finite)), grid.n_t)
        raise IntegrationError(
            f"mesh vertex at s = {float(svals[i])!r}, t = {tlist[j]!r} is not finite",
            float(svals[i - 1]) if i else math.nan)

    # Quad (i, j) has corners a = i*n_t + j, b = a + n_t, c = b + 1, d = a + 1
    # and is split into the triangles (a, b, c) and (a, c, d).
    a = (np.arange(grid.n_s - 1)[:, None] * grid.n_t + np.arange(grid.n_t - 1)).ravel()
    b = a + grid.n_t
    faces_arr = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=1).reshape(-1, 3)

    if _center_alignment(states, tvals, vertices, faces_arr, grid) < 0.0:
        faces_arr = faces_arr[:, ::-1]
    return vertices, faces_arr


def _center_alignment(states, tvals, vertices, faces, grid) -> float:
    """Sign of (Euclidean face normal) . (surface normal in coordinates) at center, or nan."""
    ic, jc = (grid.n_s - 1) // 2, (grid.n_t - 1) // 2
    state, t = states[ic], float(tvals[jc])
    n_frame = unit_normal(state)
    n_coords = np.array([n_frame.a1 * math.exp(-t), n_frame.a2 * math.exp(t), n_frame.a3])
    face = faces[2 * (ic * (grid.n_t - 1) + jc)]
    v0, v1, v2 = vertices[face[0]], vertices[face[1]], vertices[face[2]]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.cross(v1 - v0, v2 - v0) @ n_coords)


def format_obj(vertices: np.ndarray, faces: np.ndarray) -> Iterator[bytes]:
    """OBJ bytes of the mesh as chunks of whole lines, to be joined or streamed.

    Vertices print as `repr` of each float and faces as 1-based indices, one
    orjson call per face chunk with an extra column of 0, which no 1-based
    index is, marking each line end.  The bytes are produced lazily,
    _CHUNK_ROWS rows at a time, so a large mesh is never held in memory whole.
    """
    vertices = np.asarray(vertices, np.float64)
    for i in range(0, len(vertices), _CHUNK_ROWS):
        yield _float_lines(vertices[i:i + _CHUNK_ROWS], obj=True)
    for i in range(0, len(faces), _CHUNK_ROWS):
        flat = np.pad(np.asarray(faces[i:i + _CHUNK_ROWS], np.int64) + 1, ((0, 0), (0, 1)))
        text = orjson.dumps(flat.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
        yield b"f " + text[1:-3].replace(b",0,", b"\nf ").translate(_OBJ_BYTES) + b"\n"


def write_mesh_obj(path: str, vertices: np.ndarray, faces: np.ndarray) -> None:
    atomic_write_text(path, format_obj(vertices, faces))
