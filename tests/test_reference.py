"""Shooting results against high-precision reference orbits.

tests/reference/orbits.json holds y0* and s1 of the closed CMC generating
curves to at least 20 digits, computed by tests/reference/make_orbits.py with
mpmath's arbitrary-precision Taylor integrator.  The reference does not
depend on this package's integrator or on the BLAS build, so it bounds the
true error of `closed_curve_search`, not its drift from an earlier run.
"""
import json
from pathlib import Path

import pytest

from sol3 import OdeSettings, closed_curve_search

ORBITS = json.loads((Path(__file__).parent / "reference" / "orbits.json").read_text())["orbits"]

# The search stops at |x(s1)| < 1e-10, not on y0*: where dx(s1)/dy0 is small
# (about 0.084 at H = 3) that alone allows about 1e-9.
BOUND = 1e-9

# The scan grid stops short of H = 0.45 (ROADMAP item 7): a bracket for
# H > 0, negated for -H, and a horizon past s1.
SEARCH = {"0.45": ((4.0, 6.0), OdeSettings(max_s=60.0))}


def test_reference_covers_the_paper_orbits_to_20_digits():
    assert {"1", "2", "3"} <= {orbit["H"] for orbit in ORBITS}
    for orbit in ORBITS:
        for key in ("y0_star", "s1"):
            assert orbit["digits_" + key] >= 20, (orbit["H"], key)  # runs that agree
            assert len(orbit[key].replace(".", "").lstrip("-0")) >= 20, (orbit["H"], key)


@pytest.mark.parametrize("orbit", ORBITS, ids=lambda orbit: "H=" + orbit["H"])
def test_closed_curve_search_is_within_the_bound_of_the_reference(orbit):
    H = float(orbit["H"])
    bracket, settings = SEARCH.get(orbit["H"], (None, None))
    result = closed_curve_search(H, bracket, settings)
    assert abs(result.y0_star - float(orbit["y0_star"])) < BOUND
    assert abs(result.s1 - float(orbit["s1"])) < BOUND
    # The y-reflection maps the H orbit onto the -H one.
    mirrored = closed_curve_search(
        -H, None if bracket is None else (-bracket[1], -bracket[0]), settings)
    assert abs(mirrored.y0_star + float(orbit["y0_star"])) < BOUND
    assert abs(mirrored.s1 - float(orbit["s1"])) < BOUND
