"""High-precision reference values of the closed CMC generating curves.

For each H the orbit from (x, y, theta) = (0, y0, 0) of the generating-curve
system

    x' = cos(theta),  y' = sin(theta),
    theta' = (2 sin(theta) cos(theta) (y sin(theta) - x cos(theta))
              - 2 H W^(3/2)) / (1 + x^2 + y^2),  W = 1 + (x sin(theta) + y cos(theta))^2

closes at arc length s1, its first full turn theta(s1) = -2 pi.  The script
integrates it with mpmath's arbitrary-precision Taylor integrator (`odefun`)
and solves for y0* with a `findroot` secant.  The control is y at the
quarter turn s_q, where theta = -pi/2: the system has the two reversors
(x, y, theta) -> (-x, y, -theta) and (x, y, theta) -> (x, -y, pi - theta),
so an orbit with y(s_q) = 0 closes with s1 = 4 s_q.  The control is only a
shortcut: the full turn of the final y0* is integrated again, s1 is located
on it, and its closure residuals x(s1) and y(s1) - y0* and 4 s_q - s1 are
recorded as an independent certificate.
Each H is solved at two working precisions; the number of digits on which
they agree is recorded next to the value of the finer one.

It takes minutes per H, so the test suite never runs it: it only reads the
JSON this script writes (see tests/test_reference.py).  Run it with

    python tests/reference/make_orbits.py [--H 1 2 3]
"""
import argparse
import json
import os
import time

import mpmath
from mpmath import mp, mpf

# Starting points (y0*, s1) to about ten digits, from a double-precision search.
GUESSES = {
    "0.45": ("5.322126700", "31.12850"),
    "0.8": ("0.9642824054", "5.794863971"),
    "1": ("0.6421766757", "3.932620266"),
    "2": ("0.2639807061", "1.649572833"),
    "3": ("0.1706464526", "1.069667821"),
}
# The coarser run works at DPS decimal digits, the finer at EXTRA_DPS more.
DPS = 22
EXTRA_DPS = 8
JSON_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "orbits.json")


def orbit(H, y0):
    """The solution s -> [x, y, theta] from (0, y0, 0), as an mpmath odefun."""
    def rhs(s, u):
        x, y, theta = u
        sin_t, cos_t = mpmath.sin(theta), mpmath.cos(theta)
        A = x * sin_t + y * cos_t
        W = 1 + A * A
        num = 2 * sin_t * cos_t * (y * sin_t - x * cos_t) - 2 * H * W * mpmath.sqrt(W)
        return [cos_t, sin_t, num / (1 + x * x + y * y)]

    return mpmath.odefun(rhs, 0, [mpf(0), y0, mpf(0)])


def turn(u, angle, s_guess):
    """The arc length near s_guess where theta reaches `angle`."""
    return mpmath.findroot(lambda s: u(s)[2] - angle, s_guess)


def solve(H, y0_start, s1_start):
    """y0*, s1, the quarter-turn length and the closure residuals at mp.dps."""
    def control(y0):
        u = orbit(H, y0)
        return u(turn(u, -mp.pi / 2, s1_start / 4))[1]

    y0 = mpmath.findroot(control, (y0_start, y0_start * (1 + mpf(10) ** -7)),
                         solver="secant")
    u = orbit(H, y0)
    s_q = turn(u, -mp.pi / 2, s1_start / 4)
    s1 = turn(u, -2 * mp.pi, s1_start)
    x1, y1, _ = u(s1)
    return {"y0_star": y0, "s1": s1, "s_quarter": s_q,
            "residual_x": x1, "residual_y": y1 - y0}


def agreeing_digits(fine, coarse):
    if fine == coarse:
        return mp.dps
    return float(-mpmath.log10(abs(fine - coarse) / abs(fine)))


def reference(H_text):
    y0_guess, s1_guess = GUESSES[H_text]
    start = time.perf_counter()
    mp.dps = DPS
    coarse = solve(mpf(H_text), mpf(y0_guess), mpf(s1_guess))
    mp.dps = DPS + EXTRA_DPS
    fine = solve(mpf(H_text), coarse["y0_star"], coarse["s1"])
    seconds = time.perf_counter() - start
    return {
        "H": H_text,
        "y0_star": mpmath.nstr(fine["y0_star"], DPS, strip_zeros=False),
        "s1": mpmath.nstr(fine["s1"], DPS, strip_zeros=False),
        "digits_y0_star": round(agreeing_digits(fine["y0_star"], coarse["y0_star"]), 1),
        "digits_s1": round(agreeing_digits(fine["s1"], coarse["s1"]), 1),
        "residual_x": mpmath.nstr(fine["residual_x"], 3),
        "residual_y": mpmath.nstr(fine["residual_y"], 3),
        "quarter_turn_gap": mpmath.nstr(4 * fine["s_quarter"] - fine["s1"], 3),
        "dps": [DPS, DPS + EXTRA_DPS],
        "seconds": round(seconds, 1),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--H", nargs="+", default=list(GUESSES), choices=list(GUESSES))
    parser.add_argument("--out", default=JSON_PATH)
    args = parser.parse_args()
    try:
        with open(args.out) as handle:
            orbits = {o["H"]: o for o in json.load(handle)["orbits"]}
    except FileNotFoundError:
        orbits = {}
    for H_text in args.H:
        orbits[H_text] = reference(H_text)
        print(json.dumps(orbits[H_text]), flush=True)
        report = {"generator": "tests/reference/make_orbits.py",
                  "mpmath": mpmath.__version__,
                  "orbits": sorted(orbits.values(), key=lambda o: float(o["H"]))}
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":
    main()
