"""CSV/OBJ round-trips, mesh invariants, CLI exit codes and determinism."""
import argparse
import concurrent.futures
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sol3 import (
    InitialCondition,
    OdeSettings,
    circle_flat,
    curvature_report,
    gauss_curvature,
    immersion,
    integrate,
    run_verification,
    unit_normal,
)
from sol3 import cli
from sol3.cli import main
from sol3.io import (
    _CHUNK_ROWS,
    CSV_HEADER,
    MeshGrid,
    atomic_write_text,
    curve_from_kind,
    format_curve_csv,
    format_obj,
    surface_mesh,
    trajectory_records,
    write_curve_csv,
    write_mesh_obj,
)
from support import read_curve_csv, read_obj

PI8 = math.pi / 8


@pytest.fixture()
def short_traj():
    return integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=2.0))


def test_csv_header_and_order(tmp_path, short_traj):
    path = str(tmp_path / "curve.csv")
    write_curve_csv(path, short_traj)
    with open(path) as fh:
        assert fh.readline().rstrip("\n") == CSV_HEADER
    records = read_curve_csv(path)
    ss = [r.s for r in records]
    assert ss == sorted(ss)
    assert len(records) == len(short_traj)


def test_csv_round_trip_identity(tmp_path, short_traj):
    path = str(tmp_path / "curve.csv")
    write_curve_csv(path, short_traj)
    text = open(path, "rb").read()
    records = read_curve_csv(path)
    assert format_curve_csv(records) == text


def test_csv_byte_determinism(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        path = str(tmp_path / name)
        traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=2.0))
        write_curve_csv(path, traj)
        paths.append(path)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_csv_curvature_columns_minimal_line(tmp_path):
    traj = integrate(InitialCondition(0, 0, 0.0), OdeSettings(max_s=3.0))
    _, _, y, theta, theta_prime, H, K = trajectory_records(traj).T
    assert (y == 0.0).all() and (theta == 0.0).all() and (theta_prime == 0.0).all()
    assert (H == 0.0).all() and (K == -1.0).all()


def test_csv_curvature_columns_cmc(tmp_path):
    traj = integrate(InitialCondition(0, 0.6425, 0.0), OdeSettings(max_s=3.0), H=1.0)
    H = trajectory_records(traj)[:, 5]
    assert (np.abs(H - 1.0) < 1e-8).all()


@pytest.mark.parametrize("ic, H", [((0.0, 0.0, PI8), None), ((0.0, 0.6425, 0.0), 1.0),
                                   ((0.0, 0.0, -math.pi / 4), None), ((-0.0, 0.0, 0.0), None)])
def test_csv_table_matches_per_sample_reference(ic, H):
    # The per-row loop the CSV writer used before it read whole columns.
    traj = integrate(InitialCondition(*ic), OdeSettings(max_s=2.0), H=H)
    lines = [CSV_HEADER]
    for state, tp in traj.samples:
        rep = curvature_report(state, tp)
        lines.append(",".join(map(repr, (state.s, state.x, state.y, state.theta, tp,
                                         rep.H, rep.K))))
    assert format_curve_csv(trajectory_records(traj)) == ("\n".join(lines) + "\n").encode()


def test_mesh_grid_validation():
    with pytest.raises(ValueError):
        MeshGrid(0, 1, 0, 1, 1, 5)
    with pytest.raises(ValueError):
        MeshGrid(1, 0, 0, 1, 5, 5)


def test_mesh_diagonal_graph_property():
    # Off the z-axis the diagonal surface satisfies y/x = e^{2t}.
    grid = MeshGrid(0.5, 1.5, -1.0, 1.0, 7, 9)
    vertices, faces = surface_mesh(curve_from_kind("III"), grid)
    tvals = np.linspace(grid.t_min, grid.t_max, grid.n_t)
    for i in range(grid.n_s):
        for j, t in enumerate(tvals):
            x, y, z = vertices[i * grid.n_t + j]
            assert z == pytest.approx(t, abs=1e-14)
            assert y / x == pytest.approx(math.exp(2 * t), rel=1e-12)


def test_mesh_x_parallel_rows_are_lines(tmp_path):
    grid = MeshGrid(-1.0, 1.0, -0.5, 0.5, 5, 6)
    vertices, _ = surface_mesh(curve_from_kind("I", x0=0.0, y0=1.0), grid)
    # at fixed t, varying s moves only the x coordinate
    for j in range(grid.n_t):
        col = vertices[[i * grid.n_t + j for i in range(grid.n_s)]]
        assert np.ptp(col[:, 1]) == 0.0
        assert np.ptp(col[:, 2]) == 0.0
        assert np.all(np.diff(col[:, 0]) > 0)


def test_curve_from_kind_checks_a_line_when_built():
    # `explicit_solution` refuses an off-diagonal start or an unknown kind
    # as the curve is built, before any vertex is evaluated.
    with pytest.raises(ValueError, match="kind III requires y0 == x0"):
        curve_from_kind("III", x0=1.0, y0=2.0)
    with pytest.raises(ValueError, match="kind IV requires y0 == -x0"):
        curve_from_kind("IV", x0=1.0, y0=1.0)
    with pytest.raises(ValueError, match="unknown line kind 'V'"):
        curve_from_kind("V")


@pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
def test_curve_from_kind_checks_a_circle_when_built(r):
    with pytest.raises(ValueError, match="circle radius must be positive and finite"):
        curve_from_kind("circle", r=r)


def test_mesh_flat_circle_curvature():
    grid = MeshGrid(0.0, 2 * math.pi, -0.5, 0.5, 25, 5)
    svals = np.linspace(grid.s_min, grid.s_max, grid.n_s)
    for s in svals:
        state, tp = circle_flat(1.0, float(s))
        assert abs(gauss_curvature(state, tp)) < 1e-10


def test_mesh_winding_aligns_with_normal(tmp_path):
    grid = MeshGrid(-1.0, 1.0, -1.0, 1.0, 9, 9)
    traj = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=1.0))
    vertices, faces = surface_mesh(traj.state_at, grid)
    ic, jc = (grid.n_s - 1) // 2, (grid.n_t - 1) // 2
    state = traj.state_at(float(np.linspace(grid.s_min, grid.s_max, grid.n_s)[ic]))
    t = float(np.linspace(grid.t_min, grid.t_max, grid.n_t)[jc])
    n = unit_normal(state)
    n_coords = np.array([n.a1 * math.exp(-t), n.a2 * math.exp(t), n.a3])
    face = faces[2 * (ic * (grid.n_t - 1) + jc)]
    v0, v1, v2 = vertices[face[0]], vertices[face[1]], vertices[face[2]]
    assert float(np.cross(v1 - v0, v2 - v0) @ n_coords) > 0.0


def test_obj_round_trip(tmp_path):
    grid = MeshGrid(-1.0, 1.0, -1.0, 1.0, 4, 5)
    vertices, faces = surface_mesh(curve_from_kind("circle", r=1.0), grid)
    path = str(tmp_path / "m.obj")
    write_mesh_obj(path, vertices, faces)
    rv, rf = read_obj(path)
    assert np.array_equal(rv, vertices)
    assert np.array_equal(rf, faces)
    assert rf.min() == 0 and rf.max() == len(vertices) - 1


def _reference_surface_mesh(curve, grid):
    """Per-vertex `immersion` loop and per-quad face loop: the scalar definition."""
    svals = np.linspace(grid.s_min, grid.s_max, grid.n_s)
    tvals = np.linspace(grid.t_min, grid.t_max, grid.n_t)
    states = [curve(float(s)) for s in svals]
    vertices = np.empty((grid.n_s * grid.n_t, 3))
    for i, state in enumerate(states):
        for j, t in enumerate(tvals):
            p = immersion(state, float(t))
            vertices[i * grid.n_t + j] = (p.x, p.y, p.z)
    faces = []
    for i in range(grid.n_s - 1):
        for j in range(grid.n_t - 1):
            a, d = i * grid.n_t + j, i * grid.n_t + j + 1
            b, c = a + grid.n_t, d + grid.n_t
            faces += [(a, b, c), (a, c, d)]
    return vertices, np.array(faces, dtype=int)


def _reference_obj_text(vertices, faces):
    lines = [f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n" for v in vertices]
    lines += [f"f {int(f[0]) + 1} {int(f[1]) + 1} {int(f[2]) + 1}\n" for f in faces]
    return "".join(lines)


_PI8_TRAJ = integrate(InitialCondition(0, 0, PI8), OdeSettings(max_s=3.0))


@pytest.mark.parametrize("curve, grid, flipped", [
    # the 2x2 grid is a single quad, and its winding is flipped
    (curve_from_kind("circle", r=1.0), MeshGrid(-1.0, 1.0, -1.0, 1.0, 2, 2), True),
    (curve_from_kind("circle", r=1.3), MeshGrid(0.0, 6.2, -1.1, 0.9, 41, 23), False),
    (curve_from_kind("III"), MeshGrid(-1.0, 1.0, -1.0, 1.0, 9, 9), False),
    (curve_from_kind("I", x0=0.0, y0=1.0), MeshGrid(-1.0, 1.0, -0.5, 0.5, 5, 6), False),
    (_PI8_TRAJ.state_at, MeshGrid(-3.0, 3.0, -1.0, 1.0, 17, 13), False),
    (_PI8_TRAJ.state_at, MeshGrid(-3.0, 3.0, 0.0, 2.0, 3, 2), False),
])
def test_mesh_matches_scalar_reference(curve, grid, flipped):
    vertices, faces = surface_mesh(curve, grid)
    ref_vertices, ref_faces = _reference_surface_mesh(curve, grid)
    if flipped:
        ref_faces = ref_faces[:, ::-1]
    assert vertices.tobytes() == ref_vertices.tobytes()
    assert faces.dtype == ref_faces.dtype
    assert np.array_equal(faces, ref_faces)
    assert b"".join(format_obj(vertices, faces)) == _reference_obj_text(vertices, faces).encode()


# z values on the boundaries between the text routes: both zeros and the least
# subnormal (orjson's), 1e-9's lower neighbour (orjson's, two-digit exponent),
# 1e-9, 9.5e-6, 1e-5 and 1e16 (repr's) and 1e16's lower neighbour (orjson's).
_Z_POOL = [0.0, -0.0, 5e-324, float(np.nextafter(1e-9, 0.0)), 1e-9, 9.5e-6, 1e16,
           9999999999999998.0, 1e-5]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 4095, 4096, 4097, 8193]), flip=st.booleans())
def test_format_obj_matches_reference_text(data, n, flip):
    xy = data.draw(hnp.arrays(np.float64, (n, 2),
                              elements=st.floats(allow_nan=False, allow_infinity=False)))
    z = data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from(_Z_POOL)))
    faces = data.draw(hnp.arrays(np.int64, st.tuples(st.integers(0, 5), st.just(3)),
                                 elements=st.integers(0, n - 1)))
    if flip:
        faces = faces[:, ::-1]
    vertices = np.column_stack([xy, z])
    text = b"".join(format_obj(vertices, faces))
    # Compared as lines, so a failure reports the first bad line, not a text diff.
    assert text.splitlines() == _reference_obj_text(vertices, faces).encode().splitlines()
    assert text.endswith(b"\n")


def _reference_csv(table):
    return (CSV_HEADER + "\n"
            + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())).encode()


def _assert_both_writers_print_repr(values):
    """CSV and OBJ bytes of the values against per-value `repr`: as 7-column
    table rows and as vertex rows, compared line by line."""
    table = values[:len(values) // 7 * 7].reshape(-1, 7)
    vertices = values[:len(values) // 3 * 3].reshape(-1, 3)
    faces = np.arange(3 * min(len(vertices), 5)).reshape(-1, 3) % max(len(vertices), 1)
    assert format_curve_csv(table).splitlines() == _reference_csv(table).splitlines()
    assert (b"".join(format_obj(vertices, faces)).splitlines()
            == _reference_obj_text(vertices, faces).encode().splitlines())


def _bit_patterns(exponents, rng):
    bits = rng.integers(0, 2**64, size=len(exponents), dtype=np.uint64)
    bits = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponents.astype(np.uint64) << 52)
    return bits.view(np.float64)


def test_writers_match_repr_on_random_bit_patterns():
    # Every exponent field (subnormals, inf and NaN included) in one third; the
    # exponents 2^-34 .. 2^54, where slots in [1e-9, 1e-4) meet orjson values,
    # in another; the last third holds one in five values in [1e-5, 1e-4) or
    # above 1e16, so slots fall at line starts and ends and next to each other.
    rng = np.random.default_rng(29)
    n = 70_000
    mixed = _bit_patterns(rng.integers(989, 1078, size=n), rng)
    slot = rng.random(n) < 0.2
    mixed[slot] = (rng.uniform(1e-5, 1e-4, size=slot.sum())
                   * rng.choice([1.0, -1.0, 1e21, -1e22], size=slot.sum()))
    values = np.concatenate([_bit_patterns(np.arange(n) % 2048, rng),
                             _bit_patterns(rng.integers(989, 1078, size=n), rng), mixed,
                             [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                              2.2250738585072014e-308, -1e300, 1e300]])
    _assert_both_writers_print_repr(values)


def test_writers_match_repr_at_the_routing_boundaries():
    values = np.array([v for b in (1e-9, 1e-5, 1e-4, 1e16) for sign in (1.0, -1.0)
                       for v in (sign * np.nextafter(b, 0.0), sign * b,
                                 sign * np.nextafter(b, math.inf))]
                      + [1e-6, 9.999999999999999e-07, 1e-7, 1e-8, -1e300, math.nan])
    _assert_both_writers_print_repr(np.concatenate([values, values[::-1]]))


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097])
def test_writers_match_repr_at_every_chunk_size(n):
    # Values drawn from slots (about 1e-5, 1e16, 3.5e-7 and inf) and orjson
    # values, so each kind falls at line starts, line ends and chunk edges.
    rng = np.random.default_rng(n)
    pool = np.array([1e-5, -1e16, 3.5e-7, -9.5e-6, 0.25, -0.0, 1e-12, math.inf])
    values = rng.choice(pool, size=21 * n) * rng.uniform(1.0, 1.5, size=21 * n)
    table, vertices = values[:7 * n].reshape(-1, 7), values[7 * n:10 * n].reshape(-1, 3)
    assert format_curve_csv(table) == _reference_csv(table)
    faces = np.arange(3 * n).reshape(-1, 3) % max(n, 1)
    assert b"".join(format_obj(vertices, faces)) == _reference_obj_text(vertices, faces).encode()


def test_csv_prints_repr_where_orjson_differs():
    row = [1e-05, 1e16, math.nan, math.inf, -math.inf, -0.0, 0.1]
    assert format_curve_csv(np.array([row])) == (
        f"{CSV_HEADER}\n1e-05,1e+16,nan,inf,-inf,-0.0,0.1\n".encode())


def test_format_obj_yields_bounded_chunks_of_whole_lines():
    # 5151 vertices and 10000 faces: 2 + 3 chunks, none longer than _CHUNK_ROWS lines.
    vertices, faces = surface_mesh(curve_from_kind("circle", r=1.0),
                                   MeshGrid(-3.0, 3.0, -1.0, 1.0, 101, 51))
    chunks = list(format_obj(vertices, faces))
    assert len(chunks) == 5
    for chunk in chunks:
        assert chunk.endswith(b"\n") and chunk.count(b"\n") <= _CHUNK_ROWS


@pytest.mark.parametrize("kind, digest", [
    ("circle", "02d7223778d460c92f2a16c51d39709cfd899b6dcbba1f7f321b0c9ac3ad3e4f"),
    ("III", "db8aee870a2f7b899327bfc1d129e60f09d32c15174b7f5826961f416f54d0f5"),
])
def test_cli_mesh_golden_digest(tmp_path, kind, digest):
    out = tmp_path / f"{kind}.obj"
    assert main(["mesh", "--kind", kind, "--grid=-1:1:-1:1:9:9", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Digests of integrated outputs, recorded before the float-state stepper
# replaced the numpy one; they prove the stepper writes the same bytes.  Like
# perfbench/baseline.json, they depend on the order in which the BLAS gemv
# kernel fuses multiply-adds (FMA) in the stage sums, so another BLAS build
# may legitimately give other digests.
@pytest.mark.parametrize("argv, digest", [
    (["integrate", "--theta0", str(PI8), "--max-s", "600", "--max-step", "0.5"],
     "6cac0bd018dd7cd550be680ab6c5c74d029757ecddaff6b3a9895560d221a8d3"),
    (["integrate", "--y0", "0.6425", "--H", "1", "--max-s", "5"],
     "6d88111f0dd3545fd96fdc63f048762153e285bad32d2891cf7e035b26d29882"),
    (["classify", "--x0", "1", "--y0", "2", "--theta0", str(math.pi / 3),
      "--max-s", "1000", "--max-step", "1.0"],
     "6a03767b5026723dea18e78d90544ba7e3e3f944d2a68681cc16f4090c8e3750"),
    (["shoot", "--H", "1", "--bracket", "0.125:0.75"],
     "e0c4c229c26c90fd47602790ccc48612766c4437735d619644e7692abeb62c73"),
    # Scanned brackets, on the grid and on its negation.
    (["shoot", "--H", "2"],
     "13ed3b89fcee09976344f9e3bef8b1cf3719a4eb6bbbea995ee6006f01e8ac88"),
    (["shoot", "--H", "-1"],
     "869298b1eab62120535c1980438dbba9d11d038fda4d0f714f270c158a5c3a2d"),
    # A slab (type B), a start that snaps to line I modulo 2 pi, and a horizon
    # too short for either end to settle.
    (["classify", "--theta0", str(PI8), "--max-s", "600", "--max-step", "0.5"],
     "24668ebe59eaf851dbc791514730fa2a9e42627e09473a4a37c18ced57392da5"),
    (["classify", "--x0", "1", "--y0", "2", "--theta0", str(2 * math.pi)],
     "ba1ce0f029e92282b2f236aab6c2f02deea45042dac964463b9c034032e04e7b"),
    (["classify", "--theta0", "0.3", "--max-s", "5"],
     "31e94da80ade49d99ee145e3b3fd68207a8401d39ff52fcfb98b1e86bb580580"),
])
def test_cli_integrated_golden_digest(tmp_path, argv, digest):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Meshes longer than one OBJ chunk (5151 vertices), recorded before the
# vertex text was formatted with one repr per distinct z.  The integrated
# curve's digest depends on the BLAS build, as the digests above do.
MULTI_CHUNK_GRID = "--grid=-3:3:-1:1:101:51"
CIRCLE_MESH_DIGEST = "a489cfbedf1df9e2b7786814bcd4ebba5d455e6d7430390adc702d17bbe89752"


@pytest.mark.parametrize("argv, digest", [
    (["--kind", "circle"], CIRCLE_MESH_DIGEST),
    (["--theta0", str(PI8)], "6643061c6c912a9939d127279e5f802835f6d5e283a1782f871d5ec04e19363d"),
])
def test_cli_multi_chunk_mesh_golden_digest(tmp_path, argv, digest):
    out = tmp_path / "m.obj"
    assert main(["mesh", *argv, MULTI_CHUNK_GRID, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_sweep_golden_digests(tmp_path):
    out, out_dir = tmp_path / "sweep.json", tmp_path / "curves"
    assert main(["sweep", "--x0", "1", "--y0", "2", "--theta0-range", "0.3:1.0:3",
                 "--max-s", "600", "--max-step", "0.5", "--workers", "1",
                 "--out", str(out), "--out-dir", str(out_dir)]) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest()
               for p in [out] + sorted(out_dir.iterdir())]
    assert digests == [
        "0d1dd18c77407d14aa758f300c212235ee4f98475746dbab077845ef769f2bec",
        "e5b4c4cb36e53f588c8ff08893113c39ca569f83d98eb19807a3bda92601d97a",
        "c7f9280d86817fc251add23dd023dff39358bb48afbc2a3c4c0b266d4e210a5f",
        "29d876698196e19202a561544721ec7f73e70b34823f5ba94ac4ec2509df6051",
    ]


@pytest.mark.parametrize("text", [b"a\nb\n", iter([b"a\n", b"b\n"])])
def test_atomic_write_follows_umask(tmp_path, text):
    path = tmp_path / "out.txt"
    old = os.umask(0o022)
    try:
        atomic_write_text(str(path), text)
    finally:
        os.umask(old)
    assert path.read_bytes() == b"a\nb\n"
    assert os.stat(path).st_mode & 0o777 == 0o644


def test_atomic_write_failing_chunks_leave_nothing(tmp_path, monkeypatch):
    def chunks():
        yield b"v 0.0 0.0 0.0\n"
        raise RuntimeError("chunk failed")

    path = tmp_path / "m.obj"
    with pytest.raises(RuntimeError):
        atomic_write_text(str(path), chunks())
    with pytest.raises(TypeError):  # a str chunk: only bytes are written
        atomic_write_text(str(path), iter([b"v 0.0 0.0 0.0\n", "f 1 1 1\n"]))
    assert os.listdir(tmp_path) == []

    def fail_rename(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail_rename)
    for data in (b"a\n", iter([b"a\n", b"b\n"])):
        with pytest.raises(OSError, match="rename failed"):
            atomic_write_text(str(path), data)
        assert os.listdir(tmp_path) == []


def test_cli_integrate_and_determinism(tmp_path):
    out1 = str(tmp_path / "c1.csv")
    out2 = str(tmp_path / "c2.csv")
    args = ["integrate", "--x0", "0", "--y0", "0", "--theta0", str(PI8),
            "--max-s", "2", "--out"]
    assert main(args + [out1]) == 0
    assert main(args + [out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    max_y = max(abs(r.y) for r in read_curve_csv(out1))
    assert 0.0 < max_y < 0.736872


def test_cli_integrate_reference_profile(tmp_path):
    out = str(tmp_path / "pi8.csv")
    assert main(["integrate", "--theta0", str(PI8), "--max-s", "600",
                 "--max-step", "0.5", "--out", out]) == 0
    max_y = max(abs(r.y) for r in read_curve_csv(out))
    assert max_y == pytest.approx(0.736872, abs=1e-3)


def test_cli_classify_json(tmp_path):
    out = str(tmp_path / "cls.json")
    assert main(["classify", "--x0", "1", "--y0", "2", "--theta0", str(math.pi / 3),
                 "--max-s", "1000", "--max-step", "1.0", "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["kind"] == "type-A"
    assert data["inflection_s"] == []
    assert {a["axis"] for a in data["asymptotes"]} == {"x", "y"}


def test_cli_shoot_success(tmp_path):
    out = str(tmp_path / "shoot.json")
    assert main(["shoot", "--H", "1", "--bracket", "0.125:0.75", "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["y0_star"] == pytest.approx(0.6425, abs=1e-2)
    assert abs(data["residual_x"]) < 1e-9
    assert abs(data["residual_y"]) < 1e-6
    assert data["iterations"] >= 1


def test_cli_shoot_negative_h_scans_the_negated_grid(tmp_path):
    # (x, y, theta) -> (x, -y, -theta) maps the H = 1 orbit onto the H = -1 one.
    out = str(tmp_path / "shoot.json")
    assert main(["shoot", "--H", "-1", "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["y0_star"] == pytest.approx(-0.6421767, abs=1e-6)
    assert data["s1"] == pytest.approx(3.9326203, abs=1e-6)
    assert abs(data["residual_x"]) < 1e-9 and abs(data["residual_y"]) < 1e-6


def test_cli_negative_values_need_the_equals_form(tmp_path):
    # argparse reads "-0.75:-0.125" and "-1e-3" after a space as option flags
    # (only plain negative numbers like "-1" pass), so such values take the
    # --option=VALUE form.  y0* is the reference H = 1 orbit's, reflected.
    out = tmp_path / "shoot.json"
    assert main(["shoot", "--H", "-1", "--bracket=-0.75:-0.125", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["y0_star"] == pytest.approx(-0.64217667565445699,
                                                                  abs=1e-9)
    out.unlink()
    for argv in (["--H", "-1", "--bracket", "-0.75:-0.125"], ["--H", "-1e-3"]):
        with pytest.raises(SystemExit) as exc:
            main(["shoot", *argv, "--out", str(out)])
        assert exc.value.code == 64
        assert os.listdir(tmp_path) == []
    curve = tmp_path / "curve.csv"
    assert main(["integrate", "--H=-1e-3", "--theta0", "0.3", "--max-s", "0.1",
                 "--out", str(curve)]) == 0
    assert read_curve_csv(str(curve))[-1].H == pytest.approx(-1e-3, abs=1e-9)


def _subcommands_taking(option: str) -> list[str]:
    """The subcommands of `cli.build_parser()` that take `option`, sorted."""
    subs = next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    return sorted(name for name, sub in subs.choices.items()
                  if any(option in action.option_strings for action in sub._actions))


# What each subcommand needs besides its settings: integrate starts on a
# line, which takes no step, and sweep writes a curve directory.  A new
# subcommand that takes --max-s runs with none, and must refuse all the same.
_FLOOR_ARGS = {"integrate": ["--theta0", "0"],
               "shoot": ["--H", "1", "--bracket", "0.125:0.75"],
               "sweep": ["--theta0-range", "0:0.5:2", "--out-dir", "curves"],
               "mesh": ["--grid=-1:1:-1:1:3:3"]}


@pytest.mark.parametrize("argv, setting", [
    (["integrate", "--theta0", "0.3", "--max-step", "1e-15"], "max_step"),
    (["shoot", "--H", "1", "--max-step", "1e-15"], "max_step"),
    (["integrate", "--theta0", "0.3", "--max-s", "5e-15"], "max_s"),
    *(([name, *_FLOOR_ARGS.get(name, []), "--max-s", "5e-15"], "max_s")
      for name in _subcommands_taking("--max-s")),
])
def test_cli_settings_below_the_step_floor_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                             argv, setting):
    # OdeSettings refuses the setting before anything is integrated or
    # written, on every subcommand that takes it; mesh, whose horizon is its
    # grid's s span, refuses any --max-s.
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out"]) == 64
    err = capsys.readouterr().err
    assert (f"{setting} = " in err and "smallest step 1e-14" in err
            or argv[0] == "mesh" and "--max-s not used" in err)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["integrate", "--theta0", "0.3", "--max-step", "0.001", "--max-s", "0.2"],
    ["mesh", "--theta0", "0.3", "--grid=-0.5:0.5:-1:1:2:2", "--max-step", "1e-3"],
    # theta0 = 0 snaps to a line, which needs no steps but as many samples:
    # refused all the same.
    ["integrate", "--theta0", "0", "--max-step", "0.001", "--max-s", "0.2"],
    ["classify", "--theta0", "0", "--max-step", "0.001", "--max-s", "0.2"],
    ["mesh", "--theta0", "0", "--grid=-0.5:0.5:-1:1:2:2", "--max-step", "1e-3"],
    ["sweep", "--theta0-range", "0:1:3", "--max-step", "0.001", "--max-s", "0.2",
     "--out-dir", "curves"],
])
def test_cli_horizon_beyond_the_step_budget_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                             argv):
    from sol3 import _rk

    monkeypatch.setattr(_rk, "MAX_STEPS", 100)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out"]) == 64
    err = capsys.readouterr().err
    assert "needs more than 100 steps of max_step = 0.001" in err and "max_s" in err
    assert os.listdir(tmp_path) == []


def test_cli_line_beyond_the_step_budget_writes_nothing(tmp_path, capsys):
    # Refused before any of the 2·10^7 line samples is made.
    out = tmp_path / "l.csv"
    assert main(["integrate", "--theta0", "0", "--max-step", "1e-7", "--max-s", "1",
                 "--out", str(out)]) == 64
    assert "needs more than 1000000 steps of max_step = 1e-07" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_shoot_bracket_failure(tmp_path):
    out = str(tmp_path / "fail.json")
    assert main(["shoot", "--H", "1", "--bracket", "2:3", "--out", out]) == 2
    data = json.loads(open(out).read())
    assert data["error"] == "bracket"


def test_cli_shoot_closure_failure(tmp_path, monkeypatch):
    # x(s1) is driven to zero as usual; a certificate bound that no orbit
    # meets makes the search raise ClosureError, reported as exit 3.
    from sol3 import analysis

    monkeypatch.setattr(analysis, "DEFAULT_CLOSURE_TOL", 0.0)
    out = tmp_path / "fail.json"
    assert main(["shoot", "--H", "1", "--bracket", "0.125:0.75", "--out", str(out)]) == 3
    data = json.loads(out.read_text())
    assert data["error"] == "closure"
    assert data["y0_star"] == pytest.approx(0.6421766756544570, abs=1e-9)
    assert data["s1"] == pytest.approx(3.9326, abs=1e-3)
    assert abs(data["residual_y"]) < 1e-6


@pytest.mark.parametrize("argv", [
    ["classify", "--theta0", "0.3", "--max-s", "5"],
    ["verify", "--samples", "5"],
])
def test_cli_report_without_out_goes_to_stdout(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("argv, message", [
    (["integrate", "--theta0", "0.1"], "sol3 integrate: --out PATH is required"),
    (["mesh", "--kind", "III", "--grid=-1:1:-1:1:3:3"], "sol3 mesh: --out PATH is required"),
    (["mesh", "--kind", "circle", "--H", "1", "--grid=-1:1:-1:1:3:3", "--out", "m.obj"],
     "sol3 mesh: --H not used with --kind circle"),
    (["sweep", "--theta0-range", "0:1:0", "--out", "s.json"], "sol3 sweep: COUNT must be >= 1"),
    (["sweep", "--theta0-range", "0:1:2", "--workers", "0", "--out", "s.json"],
     "sol3 sweep: --workers must be >= 1"),
    (["mesh", "--kind", "IV", "--x0", "1", "--y0", "2", "--grid=-1:1:-1:1:3:3",
      "--out", "m.obj"], "sol3 mesh: kind IV requires y0 == -x0"),
])
def test_cli_handler_usage_error_prints_one_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv, reason", [
    (["shoot", "--H", "1", "--bracket", "a:b"],
     "argument --bracket: could not convert string to float: 'a'"),
    (["shoot", "--H", "1", "--bracket", "0.5"], "argument --bracket: must be LO:HI"),
    (["sweep", "--theta0-range", "0:1:x"],
     "argument --theta0-range: invalid literal for int() with base 10: 'x'"),
    (["sweep", "--theta0-range", "0:1"], "argument --theta0-range: must be START:STOP:COUNT"),
    (["mesh", "--grid=-1:1:-1:1:3"], "argument --grid: must be sMIN:sMAX:tMIN:tMAX:NS:NT"),
    (["mesh", "--grid=-1:1:-1:1:3:3.5"],
     "argument --grid: invalid literal for int() with base 10: '3.5'"),
    (["mesh", "--grid=-1:1:-1:1:1:3"],
     "argument --grid: mesh grid needs at least 2 samples per direction"),
])
def test_cli_malformed_colon_value_names_its_reason(tmp_path, monkeypatch, capsys, argv,
                                                    reason):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", "out"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith(f"usage: sol3 {argv[0]} ")
    assert err.endswith(f"\nsol3 {argv[0]}: error: {reason}\n")
    assert "_fields" not in err and "_parse" not in err
    assert os.listdir(tmp_path) == []


def test_cli_shoot_usage_error():
    assert main(["shoot", "--H", "0"]) == 64


@pytest.mark.parametrize("bracket", ["0.75:0.125", "0.5:0.5", "nan:0.75", "0.125:inf"])
def test_cli_shoot_bad_bracket_is_usage_error(tmp_path, capsys, bracket):
    # The parser checks only the LO:HI form; closed_curve_search refuses the
    # values before any shot, and nothing is written.
    out = tmp_path / "shoot.json"
    assert main(["shoot", "--H", "1", "--bracket", bracket, "--out", str(out)]) == 64
    assert "must be finite with lo < hi" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("option", ["--max-s", "--max-step", "--tol", "--abs-tol", "--rel-tol"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_non_finite_settings_are_usage_errors(tmp_path, option, value):
    out = str(tmp_path / "c.csv")
    argv = ["integrate", "--theta0", "0.1", option, value, "--out", out]
    if option in ("--abs-tol", "--rel-tol"):
        # Retired, --tol replaced both: argparse refuses the option itself.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
    else:
        assert main(argv) == 64
    assert not os.path.exists(out)


def test_cli_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 64


def test_cli_integrate_requires_out():
    assert main(["integrate", "--theta0", "0.1"]) == 64


def test_cli_mesh_obj(tmp_path):
    out = str(tmp_path / "t3.obj")
    assert main(["mesh", "--kind", "III", "--grid=-1:1:-1:1:9:9", "--out", out]) == 0
    vertices, faces = read_obj(out)
    assert vertices.shape == (81, 3)
    assert faces.shape == (128, 3)
    mask = np.abs(vertices[:, 0]) > 1e-9
    ratio = vertices[mask, 1] / vertices[mask, 0]
    assert np.allclose(np.log(np.abs(ratio)), 2 * vertices[mask, 2], atol=1e-10)


def test_cli_mesh_degenerate_grid():
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--kind", "III", "--grid=-1:1:-1:1:1:9", "--out", "x.obj"])
    assert exc.value.code == 64


@pytest.mark.parametrize("argv", [
    ["sweep", "--theta0", "0.5", "--theta0-range", "0.3:1:2", "--max-s", "1"],
    ["sweep", "--theta0", "0.3:1:2", "--max-s", "1"],  # no abbreviation either
    ["mesh", "--kind", "circle", "--H", "1", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "circle", "--theta0", "5", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "III", "--max-s", "3", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "circle", "--tol", "1", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "III", "--tol", "1e-6", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "I", "--max-step", "0.1", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "circle", "--theta0", "0", "--grid=-1:1:-1:1:3:3"],  # even a default
    ["mesh", "--kind", "circle", "--x0", "5", "--y0", "2", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "circle", "--y0", "0", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "III", "--r", "5", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "I", "--r", "1", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--theta0", "0.3", "--r", "7", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--r", "1", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--theta0", "0.3", "--max-s", "1", "--grid=-3:3:-1:1:5:3"],  # grid sets it
])
def test_cli_refuses_ignored_flags(tmp_path, argv):
    out = tmp_path / "out"
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 64
    assert os.listdir(tmp_path) == []


@pytest.fixture()
def fresh_parser():
    """Drop the process's shared parser before and after the test."""
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_cli_builds_its_parser_once_per_process(tmp_path, monkeypatch, fresh_parser):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    assert main(["integrate", "--theta0", "0.3", "--max-s", "1",
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert main(["verify", "--samples", "1", "--out", str(tmp_path / "v.json")]) == 0
    assert main(["mesh", "--kind", "circle", "--grid=-1:1:-1:1:3:3",
                 "--out", str(tmp_path / "m.obj")]) == 0
    once = len(built)
    cli.build_parser.__wrapped__()
    assert len(built) == 2 * once == 2 * (1 + len(cli._HANDLERS))  # top level + commands


def test_cli_mesh_defaults_do_not_leak_between_calls(tmp_path):
    # cmd_mesh fills the defaults of the options a curve reads into its own
    # namespace; a later call must still see them as not given.
    assert main(["mesh", "--theta0", "0.3", "--grid=-1:1:-1:1:3:3",
                 "--out", str(tmp_path / "integrated.obj")]) == 0
    refused = tmp_path / "refused"
    refused.mkdir()
    assert main(["mesh", "--kind", "circle", "--theta0", "1", "--grid=-1:1:-1:1:3:3",
                 "--out", str(refused / "m.obj")]) == 64
    assert os.listdir(refused) == []
    out = tmp_path / "circle.obj"
    assert main(["mesh", "--kind", "circle", MULTI_CHUNK_GRID, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CIRCLE_MESH_DIGEST


def test_cli_usage_error_and_help_leave_the_shared_parser_as_built(tmp_path, capsys):
    argv = ["verify", "--samples", "2", "--seed", "3"]
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert main(argv + ["--out", str(first)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--samples", "two"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert main(argv + ["--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()

    fresh = cli.build_parser.__wrapped__()
    assert cli.build_parser().format_help() == fresh.format_help()
    for command in cli._HANDLERS:
        texts = []
        for parse in (main, fresh.parse_args):
            with pytest.raises(SystemExit):
                parse([command, "--out", ""])
            with pytest.raises(SystemExit):
                parse([command, "--help"])
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1]
        assert "usage: sol3 " + command in texts[0].err


def test_cli_mesh_integrated_defaults_unchanged(tmp_path):
    # Integrated meshes still use the common defaults when the options are absent.
    grid = "--grid=-2:2:-1:1:5:5"
    implicit, explicit = tmp_path / "implicit.obj", tmp_path / "explicit.obj"
    assert main(["mesh", "--theta0", "0.3", grid, "--out", str(implicit)]) == 0
    assert main(["mesh", "--theta0", "0.3", "--tol", "1e-10", "--max-step", "0.01", grid,
                 "--out", str(explicit)]) == 0
    assert implicit.read_bytes() == explicit.read_bytes()


def test_cli_mesh_kind_non_finite_start_is_usage_error(tmp_path):
    out = tmp_path / "m.obj"
    assert main(["mesh", "--kind", "III", "--x0", "inf", "--y0", "inf",
                 "--grid=-1:1:-1:1:3:3", "--out", str(out)]) == 64
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("r", ["inf", "nan", "0", "-1"])
def test_cli_mesh_circle_radius_must_be_finite_and_positive(tmp_path, r):
    out = tmp_path / "m.obj"
    assert main(["mesh", "--kind", "circle", "--r", r, "--grid=-1:1:-1:1:3:3",
                 "--out", str(out)]) == 64
    assert os.listdir(tmp_path) == []


def test_cli_integrate_step_budget_exits_1(tmp_path, monkeypatch, capsys):
    from sol3 import _rk

    monkeypatch.setattr(_rk, "MAX_STEPS", 100)
    out = tmp_path / "c.csv"
    assert main(["integrate", "--theta0", "0.3", "--max-s", "1", "--out", str(out)]) == 1
    assert "100 attempted steps" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,err", [
    (["--theta0", "0.3", "--tol", "1e-300", "--max-s", "1"],
     "generating-curve integration failed (last good s = 0.0)"),
    (["--theta0", "0.3", "--max-s", "1"],  # with a budget of 100 steps
     "generating-curve integration failed: horizon not reached in 100 attempted steps"
     " (last good s = 0.9910000000000007)"),
    (["--H=1e308", "--max-s", "1"],
     "generating-curve integration failed: a stage state is not finite (last good s = 0.0)"),
])
def test_cli_integration_failures_print_one_line(tmp_path, monkeypatch, capsys, argv, err):
    from sol3 import _rk

    monkeypatch.setattr(_rk, "MAX_STEPS", 100)
    assert main(["integrate", *argv, "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr() == ("", f"integration failed: {err}\n")
    assert os.listdir(tmp_path) == []


def test_cli_integrate_reaches_horizon_within_rounding(tmp_path):
    # The last forward step's t + h lands one ulp short of --max-s.
    out = tmp_path / "c.csv"
    max_s = 0.05758781706271127
    assert main(["integrate", "--theta0", "0.46115644479097556", "--max-s", repr(max_s),
                 "--max-step", "10", "--tol", "1e-6",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    for row in (rows[1], rows[-1]):
        assert abs(abs(float(row.split(",")[0])) - max_s) <= math.ulp(max_s)


@pytest.mark.parametrize("theta0", ["1e308", "-1048577"])
def test_cli_integrate_refuses_huge_launch_angle(tmp_path, capsys, theta0):
    assert main(["integrate", f"--theta0={theta0}", "--max-s", "1",
                 "--out", str(tmp_path / "c.csv")]) == 64
    assert "|theta0| must be at most 2**20 = 1048576" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_verify(tmp_path):
    out = str(tmp_path / "verify.json")
    assert main(["verify", "--samples", "25", "--seed", "11", "--out", out]) == 0
    data = json.loads(open(out).read())
    assert data["passed"] is True
    assert data["max_dev_H"] < 1e-6 and data["max_dev_K"] < 1e-6
    assert data["plane_H"] == 0.0 and data["plane_K"] == -1.0
    assert abs(data["circle_K"]) < 1e-10


def test_cli_sweep(tmp_path):
    out = str(tmp_path / "sweep.json")
    out_dir = str(tmp_path / "curves")
    assert main(["sweep", "--x0", "1", "--y0", "2", "--theta0-range", "0.3:1.0:3",
                 "--max-s", "600", "--max-step", "0.5", "--workers", "2",
                 "--out", out, "--out-dir", out_dir]) == 0
    data = json.loads(open(out).read())
    assert [c["theta0"] for c in data["curves"]] == pytest.approx([0.3, 0.65, 1.0])
    assert data["curves"][0]["kind"] == "type-B"
    assert data["curves"][2]["kind"] == "type-A"
    assert sorted(os.listdir(out_dir)) == ["curve_000.csv", "curve_001.csv", "curve_002.csv"]


def test_failed_integrate_leaves_no_file(tmp_path):
    # A missing output directory surfaces as a nonzero exit, never a partial file.
    target_dir = tmp_path / "sub"
    target = str(target_dir / "c.csv")
    assert main(["integrate", "--theta0", "0.1", "--max-s", "1", "--out", target]) == 1
    assert not os.path.exists(target)


def test_cli_integrate_non_finite_curvatures_exit_1(tmp_path, capsys):
    # The state stays finite but H and K overflow at x0 = 1e200.
    out = tmp_path / "big.csv"
    assert main(["integrate", "--x0", "1e200", "--max-s", "1", "--out", str(out)]) == 1
    assert "not finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("extents", [(-math.inf, 1, -1, 1), (0, math.nan, -1, 1),
                                     (0, 1, -1, math.inf)])
def test_mesh_grid_rejects_non_finite_extents(extents):
    with pytest.raises(ValueError, match="finite"):
        MeshGrid(*extents, 3, 3)


def test_cli_mesh_non_finite_grid_is_usage_error(tmp_path):
    out = tmp_path / "inf.obj"
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--kind", "circle", "--grid=-inf:1:-1:1:3:3", "--out", str(out)])
    assert exc.value.code == 64
    assert os.listdir(tmp_path) == []


TINY_TOLS = ["--tol", "1e-300"]


def test_cli_shoot_integration_failure_exits_1(tmp_path, capsys):
    out = tmp_path / "shoot.json"
    assert main(["shoot", "--H", "1", "--bracket", "0.125:0.75", "--out", str(out)]
                + TINY_TOLS) == 1
    assert "integration failed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_sweep_records_failed_curves(tmp_path):
    out, out_dir = tmp_path / "sweep.json", tmp_path / "curves"
    assert main(["sweep", "--theta0-range", "0.3:1.0:2", "--workers", "1",
                 "--out", str(out), "--out-dir", str(out_dir)] + TINY_TOLS) == 1
    curves = json.loads(out.read_text())["curves"]
    assert [c["theta0"] for c in curves] == [0.3, 1.0]
    assert all(set(c) == {"theta0", "error"} for c in curves)
    assert list(out_dir.iterdir()) == []


def test_cli_sweep_keeps_good_curves_beside_a_failed_one(tmp_path, monkeypatch):
    from sol3 import cli
    from sol3.ode import IntegrationError

    def integrate_or_fail(ic, settings, H=None):
        if 0.5 < ic.theta0 < 0.8:  # the middle curve, theta0 = 0.65
            raise IntegrationError("generating-curve integration failed", 0.0)
        return integrate(ic, settings, H=H)

    monkeypatch.setattr(cli, "integrate", integrate_or_fail)
    out, out_dir = tmp_path / "sweep.json", tmp_path / "curves"
    assert main(["sweep", "--x0", "1", "--y0", "2", "--theta0-range", "0.3:1.0:3",
                 "--max-s", "600", "--max-step", "0.5", "--workers", "1",
                 "--out", str(out), "--out-dir", str(out_dir)]) == 1
    curves = json.loads(out.read_text())["curves"]
    assert curves[1]["theta0"] == pytest.approx(0.65)
    assert curves[1]["error"] == "generating-curve integration failed (last good s = 0.0)"
    assert [c["kind"] for c in (curves[0], curves[2])] == ["type-B", "type-A"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["curve_000.csv", "curve_002.csv"]


# Recorded before the oracle was rewritten on Python floats.  Its metric inner
# products stay on the BLAS dot kernel, so, like the digests above, these
# depend on that kernel's multiply-add (FMA) order.
@pytest.mark.parametrize("seed, digest", [
    ("1", "292e9ea29533245fa34b235b27d1f784433d9e2d446febd047f8bf14af13e97f"),
    ("7", "3aff7125e0c4763e6a0573214ebac47513f9a4ee1b7a84d9214573748c8a599c"),
    ("2026", "bc326880943b852d2703c6200670c966ffda93bc7ce410b502fce26aa4b23dc0"),
])
def test_cli_verify_golden_digest(tmp_path, seed, digest):
    out = tmp_path / "verify.json"
    assert main(["verify", "--samples", "500", "--seed", seed, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_verify_disagreement_exits_1(tmp_path, monkeypatch):
    from sol3 import verify

    # No deviation is below a zero tolerance, so the routes "disagree".
    monkeypatch.setattr(verify, "DEFAULT_TOLERANCE", 0.0)
    out = tmp_path / "verify.json"
    assert main(["verify", "--samples", "5", "--seed", "3", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["passed"] is False
    assert data["tolerance"] == 0.0


def test_cli_verify_nan_deviation_fails(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from sol3 import oracle

    monkeypatch.setattr(oracle, "curvatures_fd",
                        lambda state, tp: SimpleNamespace(H=math.nan, K=math.nan))
    report = run_verification(5, 1)
    assert math.isnan(report["max_dev_H"]) and math.isnan(report["max_dev_K"])
    assert report["passed"] is False
    out = tmp_path / "verify.json"
    assert main(["verify", "--samples", "5", "--seed", "1", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert math.isnan(data["max_dev_H"]) and data["passed"] is False


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_verify_without_samples_is_usage_error(tmp_path, samples):
    out = tmp_path / "verify.json"
    assert main(["verify", "--samples", samples, "--out", str(out)]) == 64
    assert os.listdir(tmp_path) == []
    with pytest.raises(ValueError, match="samples"):
        run_verification(int(samples))


def test_cli_verify_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--samples", "5", "--seed", "-1", "--out", str(out)]) == 64
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr().err == "sol3 verify: seed must be non-negative\n"
    with pytest.raises(ValueError, match="seed"):
        run_verification(5, -1)


@pytest.mark.parametrize("argv", [
    ["integrate", "--theta0", "0.3", "--max-s", "1", "--out", ""],
    ["verify", "--samples", "5", "--out", ""],
    ["sweep", "--theta0-range", "0.3:1:2", "--max-s", "1", "--out-dir", ""],
    ["sweep", "--theta0-range", "0.3:1:2", "--max-s", "1", "--workers", "0"],
    ["sweep", "--theta0-range", "0.3:1:2", "--max-s", "1", "--workers", "-3"],
])
def test_cli_refuses_empty_paths_and_no_workers(tmp_path, monkeypatch, capsys, argv):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 64
    assert capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == ["work"] and os.listdir(work) == []


@pytest.mark.parametrize("count,cpus,expected", [(3, 8, 3), (3, 2, 2), (3, None, None)])
def test_cli_sweep_caps_workers(tmp_path, monkeypatch, count, cpus, expected):
    from sol3 import cli

    recorded = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--theta0-range", f"0.3:1.0:{count}", "--workers", "100000",
                 "--max-s", "1", "--out", str(out)]) == 0
    # With an unknown CPU count the sweep runs serially, without a pool.
    assert recorded == ([] if expected is None else [expected])
    assert len(json.loads(out.read_text())["curves"]) == count


def test_cli_import_leaves_out_multiprocessing_and_secrets():
    # A serial command should not pay for the process pool's or secrets'
    # imports (about 30 ms of start-up); the pool is imported by sweep alone.
    # The parser is built on the first main call, not at import, so a
    # process that only imports sol3.cli (or times its set-up) pays nothing.
    heavy = ("multiprocessing", "concurrent.futures.process", "secrets")
    code = (f"import sys, sol3.cli; print([m for m in {heavy!r} if m in sys.modules]); "
            "print(sol3.cli.build_parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n0\n"


def test_cli_mesh_non_finite_vertex_exits_1(tmp_path, capsys):
    # e^{3} * 1e308 overflows: no file, and the message names the vertex.
    out = tmp_path / "m.obj"
    assert main(["mesh", "--kind", "I", "--x0", "1e308", "--y0", "1e308",
                 "--grid=-1:1:-3:3:3:3", "--out", str(out)]) == 1
    assert "mesh vertex at s = -1.0, t = -3.0 is not finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("message, err", [
    ("", "out of memory"),
    ("Unable to allocate 8 TiB", "Unable to allocate 8 TiB"),  # numpy's allocation failure
])
def test_cli_out_of_memory_prints_one_line(tmp_path, monkeypatch, capsys, message, err):
    # Raised, not provoked: a real huge allocation could wake the OOM killer.
    def no_memory(curve, grid):
        raise MemoryError(message)

    monkeypatch.setattr(cli.io, "surface_mesh", no_memory)
    out = tmp_path / "m.obj"
    assert main(["mesh", "--kind", "circle", "--grid=-1:1:-1:1:2:3", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"sol3 mesh: {err}\n")
    assert os.listdir(tmp_path) == []


def test_mesh_winding_test_near_the_float_limit_is_silent(tmp_path):
    # Every vertex is finite, but the center cross product overflows.
    out = tmp_path / "m.obj"
    assert main(["mesh", "--kind", "circle", "--r", "1e308",
                 "--grid=-8e307:8e307:-0.5:0.5:3:3", "--out", str(out)]) == 0
    assert np.isfinite(read_obj(str(out))[0]).all()


@pytest.mark.parametrize("grid", ["--grid=-1e308:1e308:-1:1:3:3",
                                  "--grid=-1:1:-710:1:3:3", "--grid=-1:1:0:710:3:3"])
def test_cli_mesh_grid_beyond_float_range_is_usage_error(tmp_path, grid):
    # An s span that overflows, or e^{|t|} that does, cannot give finite vertices.
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--kind", "II", grid, "--out", str(tmp_path / "m.obj")])
    assert exc.value.code == 64
    assert os.listdir(tmp_path) == []


CURVE_COMMANDS = [["integrate", "--max-s", "1"], ["shoot", "--bracket", "0.125:0.75"],
                  ["shoot"], ["mesh", "--grid=-1:1:-1:1:3:3"]]


@pytest.mark.parametrize("H", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("argv", CURVE_COMMANDS)
def test_cli_non_finite_h_is_usage_error(tmp_path, capsys, argv, H):
    assert main(argv + [f"--H={H}", "--out", str(tmp_path / "out")]) == 64
    assert "H must be finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", CURVE_COMMANDS)
def test_cli_overflowing_h_exits_1(tmp_path, capsys, argv):
    # 2 H W^{3/2} overflows at the first stage; no math domain error leaks out.
    assert main(argv + ["--H=1e308", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "a stage state is not finite (last good s = 0.0)" in err
    assert os.listdir(tmp_path) == []


def test_cli_circle_radius_too_small_for_grid(tmp_path, capsys):
    assert main(["mesh", "--kind", "circle", "--r", "1e-320", "--grid=-1:1:-1:1:3:3",
                 "--out", str(tmp_path / "m.obj")]) == 64
    assert "radius 1e-320 is too small for arc length s = -1.0" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("option,value", [
    ("--tail-fraction", "5"), ("--tail-fraction", "-1"), ("--tail-fraction", "0"),
    ("--tail-fraction", "nan"), ("--settle-threshold", "-1"),
    ("--settle-threshold", "nan"), ("--settle-threshold", "inf"),
    ("--tail-fraction", "0.1"), ("--settle-threshold", "1e-4"),
])
def test_cli_meaningless_tail_settings_are_usage_errors(tmp_path, monkeypatch, capsys, option,
                                                        value):
    # The settle rule is fixed (analysis.TAIL_FRACTION and SETTLE_THRESHOLD), so
    # argparse refuses either retired option, at any value, before anything is
    # integrated or written.
    integrated = []
    monkeypatch.setattr(cli, "integrate", lambda *args, **kw: integrated.append(args))
    common = ["--max-s", "50", "--max-step", "0.5", option, value]
    for argv in (["classify", "--theta0", "0.3", *common, "--out", str(tmp_path / "c.json")],
                 ["sweep", "--theta0-range", "0.3:1.0:2", *common,
                  "--out", str(tmp_path / "s.json"), "--out-dir", str(tmp_path / "curves")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err
    assert integrated == [] and os.listdir(tmp_path) == []


# One run of each integrating command, --tol and --out aside.  Each sets a
# step cap loose enough that the tolerance, not the cap, picks the steps.
TOL_RUNS = {
    "integrate": ["--theta0", "0.3", "--max-s", "2", "--max-step", "0.5"],
    "classify": ["--x0", "1", "--y0", "2", "--theta0", "0.3", "--max-s", "600",
                 "--max-step", "0.5"],
    "shoot": ["--H", "1", "--bracket", "0.125:0.75"],
    "mesh": ["--theta0", "0.3", "--max-step", "0.5", "--grid=-2:2:-1:1:5:5"],
    "sweep": ["--x0", "1", "--y0", "2", "--theta0-range", "0.3:1.0:2", "--max-s", "600",
              "--max-step", "0.5"],
}


def _cli_tol_run(directory, command, *tol):
    """What `sol3 COMMAND` writes for its TOL_RUNS run, as comparable values."""
    directory.mkdir()
    out, curves = directory / "out", directory / "curves"
    extra = ["--out-dir", str(curves)] if command == "sweep" else []
    assert main([command, *TOL_RUNS[command], *tol, "--out", str(out), *extra]) == 0
    if command in ("integrate", "mesh"):
        return out.read_bytes()
    report = json.loads(out.read_text())
    if command == "shoot":
        return [report[name] for name in ("y0_star", "s1", "residual_x", "residual_y",
                                          "iterations")]
    if command == "sweep":
        return report["curves"], [path.read_bytes() for path in sorted(curves.iterdir())]
    return report


def _library_tol_run(directory, command, settings):
    """The library's run of the same command at `settings`, as _cli_tol_run returns it."""
    from sol3 import analysis

    directory.mkdir()
    out = directory / "out"
    if command == "shoot":
        result = analysis.closed_curve_search(1.0, (0.125, 0.75), settings)
        return [result.y0_star, result.s1, result.residual_x, result.residual_y,
                result.iterations]
    if command in ("integrate", "mesh"):
        traj = integrate(InitialCondition(0.0, 0.0, 0.3),
                         dataclasses.replace(settings, max_s=2.0, max_step=0.5))
        if command == "mesh":
            write_mesh_obj(str(out), *surface_mesh(traj.state_at, MeshGrid(-2, 2, -1, 1, 5, 5)))
        else:
            write_curve_csv(str(out), traj)
        return out.read_bytes()
    settings = dataclasses.replace(settings, max_s=600.0, max_step=0.5)
    entries, csvs = [], []
    for theta0 in (0.3, 1.0) if command == "sweep" else (0.3,):
        traj = integrate(InitialCondition(1.0, 2.0, theta0), settings)
        write_curve_csv(str(out), traj)
        csvs.append(out.read_bytes())
        entries.append(cli._classification_dict(analysis.classify_minimal(traj)))
        if command == "sweep":
            entries[-1]["theta0"] = theta0
    return (entries, csvs) if command == "sweep" else entries[0]


@pytest.mark.parametrize("command", sorted(TOL_RUNS))
def test_cli_tol_reaches_every_integrating_command(tmp_path, command):
    # --tol sets OdeSettings.tol: the command writes what the library gives at
    # that tolerance, and not what it writes at the default one.
    tight = _cli_tol_run(tmp_path / "tol", command, "--tol", "1e-7")
    assert tight == _library_tol_run(tmp_path / "library", command, OdeSettings(tol=1e-7))
    assert tight != _cli_tol_run(tmp_path / "default", command)


@pytest.mark.parametrize("option", ["--abs-tol", "--rel-tol"])
@pytest.mark.parametrize("command", sorted(TOL_RUNS))
def test_cli_retired_tolerance_options_are_refused(tmp_path, monkeypatch, capsys, command,
                                                   option):
    # --tol is the one tolerance, absolute and relative at once, so argparse
    # refuses the two options it replaced before anything is integrated or
    # written.
    from sol3 import ode

    integrated = []
    monkeypatch.setattr(ode, "solve_fixed_horizon", lambda *args, **kw: integrated.append(args))
    argv = [command, *TOL_RUNS[command], option, "1e-8", "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv += ["--out-dir", str(tmp_path / "curves")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert f"unrecognized arguments: {option} 1e-8" in capsys.readouterr().err
    assert integrated == [] and os.listdir(tmp_path) == []


FUZZ_VALUES = st.sampled_from(["0.0", "-0.0", "5e-324", "1e-320", "1e308", "-1e308", "inf",
                               "-inf", "nan", "0.5", "1.0", "-2.0"])
FUZZ_GRID = "--grid=-1:1:-1:1:3:3"
FUZZ_ARGV = st.one_of(
    st.builds(lambda kind, x0, y0: ["mesh", "--kind", kind, f"--x0={x0}", f"--y0={y0}",
                                    FUZZ_GRID],
              st.sampled_from(["I", "II", "III", "IV"]), FUZZ_VALUES, FUZZ_VALUES),
    st.builds(lambda r: ["mesh", "--kind", "circle", f"--r={r}", FUZZ_GRID], FUZZ_VALUES),
    st.builds(lambda H: ["integrate", f"--H={H}", "--max-s", "1"], FUZZ_VALUES),
    st.builds(lambda theta0: ["integrate", f"--theta0={theta0}", "--max-s", "1"], FUZZ_VALUES),
    # A bracket is always given: tiny |H| would otherwise scan to horizon 40.
    st.builds(lambda H: ["shoot", f"--H={H}", "--bracket", "0.125:0.75"], FUZZ_VALUES),
    st.builds(lambda x0, y0, theta0: ["classify", f"--x0={x0}", f"--y0={y0}",
                                      f"--theta0={theta0}", "--max-s", "2"],
              FUZZ_VALUES, FUZZ_VALUES, FUZZ_VALUES),
    # The test adds an --out-dir inside its temporary directory.
    st.builds(lambda max_s, max_step: ["sweep", "--theta0-range", "0:0.5:2",
                                       f"--max-s={max_s}", f"--max-step={max_step}"],
              FUZZ_VALUES, FUZZ_VALUES),
)
SUFFIX = {"mesh": ".obj", "integrate": ".csv", "shoot": ".json", "classify": ".json",
          "sweep": ".json"}


def _numbers(text: str) -> list[float]:
    numbers = []
    for token in re.split(r"[\s,:\[\]{}\"]+", text):
        with contextlib.suppress(ValueError):
            numbers.append(float(token))
    return numbers


@given(argv=FUZZ_ARGV)
@example(argv=["mesh", "--kind", "I", "--x0=1e308", "--y0=1e308", FUZZ_GRID])
@example(argv=["mesh", "--kind", "circle", "--r=1e-320", FUZZ_GRID])
@example(argv=["integrate", "--H=1e308", "--max-s", "1"])
@example(argv=["integrate", "--theta0=1e308", "--max-s", "1"])
@example(argv=["shoot", "--H=inf", "--bracket", "0.125:0.75"])
@example(argv=["classify", "--max-s", "2", "--theta0=nan"])
@example(argv=["sweep", "--theta0-range", "0:0.5:2", "--max-s=5e-15", "--max-step=0.5"])
@example(argv=["sweep", "--theta0-range", "0:0.5:2", "--max-s=1e308", "--max-step=1e308"])
@settings(derandomize=True, max_examples=140, deadline=None)
def test_cli_fuzz_numeric_arguments(argv):
    # Every run ends in a documented exit code, prints no traceback, leaves no
    # temp file, writes either finite numbers or (CSV/OBJ) no file at all,
    # and on a usage error (64) writes nothing at all.
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out" + SUFFIX[argv[0]])
        if argv[0] == "sweep":
            argv = argv + ["--out-dir", os.path.join(tmp, "curves")]
        err = StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(StringIO()):
            try:
                code = main(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
        assert code in {0, 1, 2, 3, 64}
        assert "Traceback" not in err.getvalue()
        assert "math domain error" not in err.getvalue()
        assert not [name for name in os.listdir(tmp) if name.endswith(".tmp")]
        if code == 64:
            assert os.listdir(tmp) == []
        if code == 0:
            with open(out) as handle:
                assert all(map(math.isfinite, _numbers(handle.read())))
        elif argv[0] in ("mesh", "integrate"):
            assert not os.path.exists(out)
