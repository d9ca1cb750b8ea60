"""CSV/OBJ round-trips, mesh invariants, CLI exit codes and determinism."""
import contextlib
import hashlib
import json
import math
import os
import re
import tempfile
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    CSV_HEADER,
    MeshGrid,
    atomic_write_text,
    curve_from_kind,
    format_curve_csv,
    format_obj,
    read_curve_csv,
    read_obj,
    surface_mesh,
    trajectory_records,
    write_curve_csv,
    write_mesh_obj,
)

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
    text = open(path).read()
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
    assert format_curve_csv(trajectory_records(traj)) == "\n".join(lines) + "\n"


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
    lines = [f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}" for v in vertices]
    lines += [f"f {int(f[0]) + 1} {int(f[1]) + 1} {int(f[2]) + 1}" for f in faces]
    return "\n".join(lines) + "\n"


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
    assert "".join(format_obj(vertices, faces)) == _reference_obj_text(vertices, faces)


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
])
def test_cli_integrated_golden_digest(tmp_path, argv, digest):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
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


@pytest.mark.parametrize("text",["a\nb\n", iter(["a\n", "b\n"])])
def test_atomic_write_follows_umask(tmp_path, text):
    path = tmp_path / "out.txt"
    old = os.umask(0o022)
    try:
        atomic_write_text(str(path), text)
    finally:
        os.umask(old)
    assert path.read_text() == "a\nb\n"
    assert os.stat(path).st_mode & 0o777 == 0o644


def test_atomic_write_failing_chunks_leave_nothing(tmp_path):
    def chunks():
        yield "v 0.0 0.0 0.0\n"
        raise RuntimeError("chunk failed")

    path = tmp_path / "m.obj"
    with pytest.raises(RuntimeError):
        atomic_write_text(str(path), chunks())
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


def test_cli_shoot_bracket_failure(tmp_path):
    out = str(tmp_path / "fail.json")
    assert main(["shoot", "--H", "1", "--bracket", "2:3", "--out", out]) == 2
    data = json.loads(open(out).read())
    assert data["error"] == "bracket"


def test_cli_shoot_usage_error():
    assert main(["shoot", "--H", "0"]) == 64


@pytest.mark.parametrize("bracket", ["0.75:0.125", "0.5:0.5", "nan:0.75", "0.125:inf"])
def test_cli_shoot_bad_bracket_is_usage_error(bracket):
    with pytest.raises(SystemExit) as exc:
        main(["shoot", "--H", "1", "--bracket", bracket])
    assert exc.value.code == 64


@pytest.mark.parametrize("option", ["--max-s", "--max-step", "--abs-tol", "--rel-tol"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_cli_non_finite_settings_are_usage_errors(tmp_path, option, value):
    out = str(tmp_path / "c.csv")
    assert main(["integrate", "--theta0", "0.1", option, value, "--out", out]) == 64
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
    ["mesh", "--kind", "circle", "--abs-tol", "1", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "circle", "--rel-tol", "1e-6", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "I", "--max-step", "0.1", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "circle", "--theta0", "0", "--grid=-1:1:-1:1:3:3"],  # even a default
    ["mesh", "--kind", "circle", "--x0", "5", "--y0", "2", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "circle", "--y0", "0", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "III", "--r", "5", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--kind", "I", "--r", "1", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--theta0", "0.3", "--r", "7", "--grid=-1:1:-1:1:3:3"],
    ["mesh", "--r", "1", "--grid=-1:1:-1:1:3:3"],
])
def test_cli_refuses_ignored_flags(tmp_path, argv):
    out = tmp_path / "out"
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 64
    assert os.listdir(tmp_path) == []


def test_cli_mesh_integrated_defaults_unchanged(tmp_path):
    # Integrated meshes still use the common defaults when the options are absent.
    grid = "--grid=-2:2:-1:1:5:5"
    implicit, explicit = tmp_path / "implicit.obj", tmp_path / "explicit.obj"
    assert main(["mesh", "--theta0", "0.3", grid, "--out", str(implicit)]) == 0
    assert main(["mesh", "--theta0", "0.3", "--max-s", "10", "--abs-tol", "1e-10",
                 "--rel-tol", "1e-10", "--max-step", "0.01", grid,
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
    assert main(["integrate", "--theta0", "0.3", "--max-s", "10", "--out", str(out)]) == 1
    assert "100 attempted steps" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_integrate_reaches_horizon_within_rounding(tmp_path):
    # The last forward step's t + h lands one ulp short of --max-s.
    out = tmp_path / "c.csv"
    max_s = 0.05758781706271127
    assert main(["integrate", "--theta0", "0.46115644479097556", "--max-s", repr(max_s),
                 "--max-step", "10", "--abs-tol", "1e-6", "--rel-tol", "1e-6",
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


TINY_TOLS = ["--abs-tol", "1e-300", "--rel-tol", "1e-300"]


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


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_verify_without_samples_is_usage_error(tmp_path, samples):
    out = tmp_path / "verify.json"
    assert main(["verify", "--samples", samples, "--out", str(out)]) == 64
    assert os.listdir(tmp_path) == []
    with pytest.raises(ValueError, match="samples"):
        run_verification(int(samples))


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--theta0-range", f"0.3:1.0:{count}", "--workers", "100000",
                 "--max-s", "1", "--out", str(out)]) == 0
    # With an unknown CPU count the sweep runs serially, without a pool.
    assert recorded == ([] if expected is None else [expected])
    assert len(json.loads(out.read_text())["curves"]) == count


def test_cli_mesh_non_finite_vertex_exits_1(tmp_path, capsys):
    # e^{3} * 1e308 overflows: no file, and the message names the vertex.
    out = tmp_path / "m.obj"
    assert main(["mesh", "--kind", "I", "--x0", "1e308", "--y0", "1e308",
                 "--grid=-1:1:-3:3:3:3", "--out", str(out)]) == 1
    assert "mesh vertex at s = -1.0, t = -3.0 is not finite" in capsys.readouterr().err
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
])
def test_cli_meaningless_tail_settings_are_usage_errors(tmp_path, monkeypatch, option, value):
    integrated = []
    monkeypatch.setattr(cli, "integrate", lambda *args, **kw: integrated.append(args))
    common = ["--max-s", "50", "--max-step", "0.5", option, value]
    assert main(["classify", "--theta0", "0.3", *common,
                 "--out", str(tmp_path / "c.json")]) == 64
    assert main(["sweep", "--theta0-range", "0.3:1.0:2", *common,
                 "--out", str(tmp_path / "s.json"),
                 "--out-dir", str(tmp_path / "curves")]) == 64
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
    st.builds(lambda tail, settle: ["classify", "--theta0", "0.3", "--max-s", "2",
                                    f"--tail-fraction={tail}", f"--settle-threshold={settle}"],
              FUZZ_VALUES, FUZZ_VALUES),
)
SUFFIX = {"mesh": ".obj", "integrate": ".csv", "shoot": ".json", "classify": ".json"}


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
@example(argv=["classify", "--theta0", "0.3", "--max-s", "2", "--tail-fraction=nan"])
@settings(derandomize=True, max_examples=100, deadline=None)
def test_cli_fuzz_numeric_arguments(argv):
    # Every run ends in a documented exit code, prints no traceback, leaves no
    # temp file, and writes either finite numbers or (CSV/OBJ) no file at all.
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out" + SUFFIX[argv[0]])
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
        if code == 0:
            with open(out) as handle:
                assert all(map(math.isfinite, _numbers(handle.read())))
        elif argv[0] in ("mesh", "integrate"):
            assert not os.path.exists(out)
