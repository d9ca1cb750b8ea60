"""The quick demos run as scripts and write the OBJ bytes they always wrote."""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Closed-form meshes only: their bytes depend on no BLAS kernel.
CLOSED_FORM_OBJ_DIGESTS = {
    "flat_circle.obj": "b090c3c580e03e88d008b5bd118eae976e74a7c6137e390ee10306fc9b1f2d79",
    "surface_I.obj": "2f1d32e25670326042a4e2ed0a40980c9b443041bd8b346da5c65349b5b5fe0e",
    "surface_II.obj": "a387ce55177fd0535388631a2904a72725dcb2875a014626f74e0c07d43b8046",
    "surface_III.obj": "9dc26e07fe9f50a06806aaf2a249c13372f11a488ec533c6471d95e163628fd0",
    "surface_IV.obj": "b6de34652366c34fc767f6f61da39a339c8be5a7c7d97738b9c07b7d67817d41",
}


def test_demos_run_and_write_their_meshes(tmp_path):
    # Each demo writes beside itself, so run copies to keep demos/out untouched.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in ("flat_circle_surface.py", "ruled_line_surfaces.py", "cmc_closed_orbit.py"):
        shutil.copy(ROOT / "demos" / name, tmp_path)
        run = subprocess.run([sys.executable, str(tmp_path / name)], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
    out = tmp_path / "out"
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in CLOSED_FORM_OBJ_DIGESTS}
    assert digests == CLOSED_FORM_OBJ_DIGESTS
    # An integrated curve: its bytes depend on BLAS FMA, so only its presence is checked.
    assert (out / "cmc_h1_closed.obj").stat().st_size > 0


# Recorded before the oracle contracted only its nonzero Christoffel and
# Riemann terms.  The deviations and oracle digits come through numpy's BLAS
# dot, whose multiply-add (FMA) order they depend on, so another BLAS build
# may legitimately print other last digits.
CURVATURE_VERIFICATION_STDOUT = """\
{
  "circle_K": 0.0,
  "max_dev_H": 8.572122567329643e-08,
  "max_dev_K": 5.7820057630664223e-08,
  "passed": true,
  "plane_H": 0.0,
  "plane_K": -1.0,
  "samples": 100,
  "seed": 42,
  "tolerance": 1e-06
}

per-state example (x, y, theta, theta') = (0.7, -0.3, 0.9, 0.4):
  frame : H = -0.534051131154  K = -0.554015541680
  oracle: H = -0.534051131162  K = -0.554015543541
  |dH| = 7.87e-12, |dK| = 1.86e-09
"""


def test_curvature_verification_demo_prints_what_it_always_printed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    shutil.copy(ROOT / "demos" / "curvature_verification.py", tmp_path)
    run = subprocess.run([sys.executable, str(tmp_path / "curvature_verification.py")],
                         env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == CURVATURE_VERIFICATION_STDOUT
