"""Independent coordinate-chart check of the frame-based curvature formulas.

Everything here deliberately avoids the left-invariant frame route used in
`surface`: derivatives of the swept patch are taken by central finite
differences in the coordinate chart, the ambient connection enters through
the coordinate Christoffel symbols of e^{2z}dx^2 + e^{-2z}dy^2 + dz^2, and
curvatures come out of a numerical shape operator.  Agreement between the
two routes is the strongest correctness evidence the library offers, so this
module must never import from `surface`.

First derivatives use step 1e-5; second-derivative stencils use 2e-4, where
truncation and round-off balance for double precision.

The metric, the Christoffel symbols and the numerical Riemann tensor depend
only on the height z, so they are built once per z and kept in a small memo
of tuples and read-only arrays (shared but immutable).  The memo keeps only
the nonzero Christoffel and Riemann entries (6 of 27 and 12 of 81), in the
dense summation order, and only those are contracted.  The stencil
evaluates the local curve once per arc-length offset and writes each
difference quotient as a straight-line float expression; its t column
(0, 1, 0, 0, 0) is exact, so it is written as literals.  One pass over the
Christoffel rows contracts all three second-form terms.  These sums and the
cross product run on Python floats; every metric inner product p.g.q stays
on numpy's BLAS dot, whose fused multiply-adds a plain float sum would not
reproduce bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 2e-4

# The stencil's offsets, (e^{-t}, e^{t}) at the nonzero ones, and its denominators.
_OFFSETS = (0.0, FD_STEP_FIRST, -FD_STEP_FIRST, FD_STEP_SECOND, -FD_STEP_SECOND)
_LIFT = tuple((math.exp(-t), math.exp(t)) for t in _OFFSETS[1:])
_TWO_H1 = 2.0 * FD_STEP_FIRST
_H2_SQ = FD_STEP_SECOND * FD_STEP_SECOND
_FOUR_H2_SQ = 4.0 * FD_STEP_SECOND * FD_STEP_SECOND


def coord_metric(point) -> np.ndarray:
    """Metric matrix diag(e^{2z}, e^{-2z}, 1) at a point (anything with .z)."""
    z = point.z if hasattr(point, "z") else point[2]
    return np.diag([math.exp(2.0 * z), math.exp(-2.0 * z), 1.0])


def coord_christoffel(z: float) -> np.ndarray:
    """Coordinate Christoffel symbols Gamma[k, i, j]; only z enters.

    Nonzero entries: Gamma^x_{xz} = Gamma^x_{zx} = 1,
    Gamma^y_{yz} = Gamma^y_{zy} = -1, Gamma^z_{xx} = -e^{2z},
    Gamma^z_{yy} = e^{-2z}.
    """
    gam = np.zeros((3, 3, 3))
    gam[0, 0, 2] = gam[0, 2, 0] = 1.0
    gam[1, 1, 2] = gam[1, 2, 1] = -1.0
    gam[2, 0, 0] = -math.exp(2.0 * z)
    gam[2, 1, 1] = math.exp(-2.0 * z)
    return gam


def _riemann_tensor(z: float) -> tuple:
    """R[l][i][j][k] = R^l_{ijk} at height z as nested tuples of floats.

    R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
              + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik},
    with dGamma/dz taken by central differences of step FD_STEP_FIRST.
    """
    h = FD_STEP_FIRST
    gam = coord_christoffel(z)
    dgam = np.zeros((3, 3, 3, 3))  # dgam[l, k, i, j] = d_l Gamma^k_{ij}
    dgam[2] = (coord_christoffel(z + h) - coord_christoffel(z - h)) / (2.0 * h)
    gam, dgam = gam.tolist(), dgam.tolist()

    def entry(l: int, i: int, j: int, k: int) -> float:
        r = dgam[i][l][j][k] - dgam[j][l][i][k]
        for m in range(3):
            r += gam[l][i][m] * gam[m][j][k] - gam[l][j][m] * gam[m][i][k]
        return r

    axis = range(3)
    return tuple(tuple(tuple(tuple(entry(l, i, j, k) for k in axis) for j in axis)
                       for i in axis) for l in axis)


class _Height(NamedTuple):
    """What the oracle needs at one height z, built once (see _height)."""

    metric: np.ndarray  # diag(e^{2z}, e^{-2z}, 1), read-only
    diag: tuple         # its diagonal as floats
    christoffel: tuple  # per k, the nonzero ((i, j), Gamma^k_{ij}) in (i, j) order
    riemann: tuple      # per l, the nonzero ((i, j, k), R^l_{ijk}) in (i, j, k) order


@functools.lru_cache(maxsize=16)
def _height(z: float) -> _Height:
    """The metric, Christoffel and Riemann terms at height z, memoised.

    Every sample of a swept patch sits at the same height.  Only nonzero
    entries are kept: with finite operands a zero entry only adds a signed
    zero to a sum that starts at +0.0, so the sparse sums keep every bit of
    the dense ones.  The memo holds tuples and a read-only array.
    """
    metric = coord_metric((0.0, 0.0, z))
    metric.flags.writeable = False
    gam = coord_christoffel(z).tolist()
    axis = range(3)
    christoffel = tuple(tuple(((i, j), gk[i][j]) for i in axis for j in axis if gk[i][j] != 0.0)
                        for gk in gam)
    riemann = tuple(tuple(((i, j, k), rl[i][j][k]) for i in axis for j in axis for k in axis
                          if rl[i][j][k] != 0.0)
                    for rl in _riemann_tensor(z))
    return _Height(metric, tuple(metric.diagonal().tolist()), christoffel, riemann)


def _sectional(height: _Height, u: list, v: list, u_vec: np.ndarray,
               E: float, F: float, G: float) -> float:
    """<R(u, v)v, u> / (|u|^2 |v|^2 - <u, v>^2), given the three inner products."""
    r_uvv = []
    for terms in height.riemann:
        acc = 0.0  # summed in (i, j, k) order
        for (i, j, k), r in terms:
            acc += r * u[i] * v[j] * v[k]
        r_uvv.append(acc)
    num = float(np.array(r_uvv).dot(height.metric).dot(u_vec))
    return num / (E * G - F ** 2)


def local_curve(state, theta_prime: float):
    """Closed-form arc-length curve matching (x, y, theta, theta') at ds = 0.

    A circular arc (straight line when theta' = 0): it is exactly arc-length
    parametrized and reproduces the full 2-jet of any solution through the
    state, which is all the fundamental forms can see.  Written with
    sin(p)/p and (1 - cos p)/p = 2 sin^2(p/2)/p so there is no catastrophic
    cancellation for small turning rates (a naive difference of sines would
    be amplified by 1/h^2 in the second-derivative stencils).
    """
    x0, y0, th0 = state.x, state.y, state.theta
    sin0, cos0 = math.sin(th0), math.cos(th0)

    def curve(ds: float) -> tuple[float, float]:
        phi = theta_prime * ds
        if phi == 0.0:
            straight, across = 1.0, 0.0
        else:
            straight = math.sin(phi) / phi
            half = math.sin(0.5 * phi)
            across = 2.0 * half * half / phi
        return (x0 + ds * (cos0 * straight - sin0 * across),
                y0 + ds * (sin0 * straight + cos0 * across))

    return curve


@dataclass(frozen=True)
class OracleReport:
    """Coordinate-route fundamental forms and curvatures at one state."""

    E: float
    F: float
    G: float
    e: float
    f: float
    g: float
    H: float
    K: float
    K_ext: float
    K_sec: float


def curvatures_fd(state, theta_prime: float) -> OracleReport:
    """Shape-operator curvatures via finite differences of the swept patch."""
    curve = local_curve(state, theta_prime)
    (x0, y0), (xa, ya), (xb, yb), (xc, yc), (xd, yd) = map(curve, _OFFSETS)
    # psi(ds, t) = (e^{-t} x(ds), e^{t} y(ds), t), and the lift at t = 0 is 1.
    (ma, pa), (mb, pb), (mc, pc), (md, pd) = _LIFT
    # (p - q) / 2h1, (p - 2b + q) / h2^2 and (pp - pm - mp + mm) / 4h2^2, term by
    # term.  The t column is exact: 2h1 / 2h1 = 1; the other t sums cancel to +0.
    psi_s = [(xa - xb) / _TWO_H1, (ya - yb) / _TWO_H1, 0.0]
    psi_t = [(ma * x0 - mb * x0) / _TWO_H1, (pa * y0 - pb * y0) / _TWO_H1, 1.0]
    psi_ss = [(xc - 2.0 * x0 + xd) / _H2_SQ, (yc - 2.0 * y0 + yd) / _H2_SQ, 0.0]
    psi_tt = [(mc * x0 - 2.0 * x0 + md * x0) / _H2_SQ,
              (pc * y0 - 2.0 * y0 + pd * y0) / _H2_SQ, 0.0]
    psi_st = [(mc * xc - md * xc - mc * xd + md * xd) / _FOUR_H2_SQ,
              (pc * yc - pd * yc - pc * yd + pd * yd) / _FOUR_H2_SQ, 0.0]
    height = _height(0.0)  # the base point psi(0, 0) sits at z = t = 0
    g_mat = height.metric
    # Inner products stay on the BLAS dot kernel: it fuses multiply-adds, so
    # a plain float sum would change the last bits.
    s_vec, t_vec = np.array(psi_s), np.array(psi_t)
    s_g, t_g = s_vec.dot(g_mat), t_vec.dot(g_mat)
    E = float(s_g.dot(s_vec))
    F = float(s_g.dot(t_vec))
    G = float(t_g.dot(t_vec))
    W = E * G - F * F

    # Metric cross product (unit ambient volume): lower with epsilon, raise
    # with g^{-1}, which is a division by the diagonal.
    (s0, s1, s2), (t0, t1, t2) = psi_s, psi_t
    n_cov = (s1 * t2 - s2 * t1, s2 * t0 - s0 * t2, s0 * t1 - s1 * t0)
    n = np.array([c / gk for c, gk in zip(n_cov, height.diag)])
    n /= math.sqrt(float(n.dot(g_mat).dot(n)))
    n_g = n.dot(g_mat)

    # The ambient covariant derivatives Gamma^k_ij u^i v^j + d2 psi^k of the
    # (s, s), (s, t) and (t, t) pairs, each summed in (i, j) order from +0.0.
    cov_e, cov_f, cov_g = [], [], []
    for terms, d_ss, d_st, d_tt in zip(height.christoffel, psi_ss, psi_st, psi_tt):
        acc_e = acc_f = acc_g = 0.0
        for (i, j), gkij in terms:
            acc_e += gkij * psi_s[i] * psi_s[j]
            acc_f += gkij * psi_s[i] * psi_t[j]
            acc_g += gkij * psi_t[i] * psi_t[j]
        cov_e.append(d_ss + acc_e)
        cov_f.append(d_st + acc_f)
        cov_g.append(d_tt + acc_g)
    e = float(n_g.dot(np.array(cov_e)))
    f = float(n_g.dot(np.array(cov_f)))
    g2 = float(n_g.dot(np.array(cov_g)))

    H = (e * G - 2.0 * f * F + g2 * E) / (2.0 * W)
    k_ext = (e * g2 - f * f) / W
    k_sec = _sectional(height, psi_s, psi_t, s_vec, E, F, G)
    return OracleReport(E=E, F=F, G=G, e=e, f=f, g=g2,
                        H=H, K=k_ext + k_sec, K_ext=k_ext, K_sec=k_sec)
