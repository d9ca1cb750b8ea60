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

The numerical Riemann tensor depends only on the height z, so it is built
once per z and kept in a small memo of nested tuples (shared but
immutable).  Stencils, the cross product and the Christoffel terms run on
Python floats; every metric inner product p.g.q stays on numpy's BLAS dot,
whose fused multiply-adds a plain float sum would not reproduce bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 2e-4


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


def coord_christoffel_fd(z: float) -> np.ndarray:
    """Christoffels recomputed from finite differences of the metric (test anchor)."""

    def g_at(dz: float) -> np.ndarray:
        return np.diag([math.exp(2.0 * (z + dz)), math.exp(-2.0 * (z + dz)), 1.0])

    g = g_at(0.0)
    g_inv = np.linalg.inv(g)
    # dg[l, i, j] = d g_{ij} / d x^l ; only the z-derivative is nonzero.
    dg = np.zeros((3, 3, 3))
    dg[2] = (g_at(FD_STEP_FIRST) - g_at(-FD_STEP_FIRST)) / (2.0 * FD_STEP_FIRST)
    gam = np.zeros((3, 3, 3))
    for k in range(3):
        for i in range(3):
            for j in range(3):
                val = 0.0
                for m in range(3):
                    val += g_inv[k, m] * (dg[i, m, j] + dg[j, m, i] - dg[m, i, j])
                gam[k, i, j] = 0.5 * val
    return gam


@functools.lru_cache(maxsize=16)
def _riemann_tensor(z: float) -> tuple:
    """R[l][i][j][k] = R^l_{ijk} at height z as nested tuples of floats.

    R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
              + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik},
    with dGamma/dz taken by central differences of step FD_STEP_FIRST.  Every
    sample of a swept patch sits at the same height, so the tensor is built
    once per z and memoised; tuples keep the memo immutable.
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


def riemann_apply(z: float, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """R(u, v)w in coordinates, with dGamma/dz taken by central differences."""
    u, v, w = (np.asarray(a, dtype=float).tolist() for a in (u, v, w))
    out = []
    for rl in _riemann_tensor(z):
        acc = 0.0  # summed in (i, j, k) order
        for rli, ui in zip(rl, u):
            for rlij, vj in zip(rli, v):
                for r, wk in zip(rlij, w):
                    acc += r * ui * vj * wk
        out.append(acc)
    return np.array(out)


def sectional_curvature_coord(z: float, u: np.ndarray, v: np.ndarray) -> float:
    """Sectional curvature of span(u, v) at height z, from the numerical Riemann tensor."""
    g = np.diag([math.exp(2.0 * z), math.exp(-2.0 * z), 1.0])
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    num = float(riemann_apply(z, u, v, v).dot(g).dot(u))
    uv = float(u.dot(g).dot(v))
    area2 = float(u.dot(g).dot(u)) * float(v.dot(g).dot(v)) - uv ** 2
    return num / area2


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
    h1, h2 = FD_STEP_FIRST, FD_STEP_SECOND
    curve = local_curve(state, theta_prime)

    def psi(ds: float, t: float) -> tuple[float, float, float]:
        cx, cy = curve(ds)
        return math.exp(-t) * cx, math.exp(t) * cy, t

    base = psi(0.0, 0.0)
    z = base[2]
    g_mat = coord_metric(base)
    g_diag = g_mat.diagonal().tolist()
    gam = coord_christoffel(z).tolist()

    def first(plus, minus, step):
        return [(p - q) / (2.0 * step) for p, q in zip(plus, minus)]

    def pure_second(plus, minus):
        return [(p - 2.0 * b + q) / (h2 * h2) for p, b, q in zip(plus, base, minus)]

    psi_s = first(psi(h1, 0.0), psi(-h1, 0.0), h1)
    psi_t = first(psi(0.0, h1), psi(0.0, -h1), h1)
    psi_ss = pure_second(psi(h2, 0.0), psi(-h2, 0.0))
    psi_tt = pure_second(psi(0.0, h2), psi(0.0, -h2))
    psi_st = [(a - b - c + d) / (4.0 * h2 * h2) for a, b, c, d in zip(
        psi(h2, h2), psi(h2, -h2), psi(-h2, h2), psi(-h2, -h2))]

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
    n = np.array([c / gk for c, gk in zip(n_cov, g_diag)])
    n /= math.sqrt(float(n.dot(g_mat).dot(n)))
    n_g = n.dot(g_mat)

    def second(u: list, v: list, second_partial: list) -> float:
        cov = []
        for gk, d2 in zip(gam, second_partial):
            acc = 0.0  # einsum("kij,i,j->k", gam, u, v), in (i, j) order
            for gki, ui in zip(gk, u):
                for gkij, vj in zip(gki, v):
                    acc += gkij * ui * vj
            cov.append(d2 + acc)
        return float(n_g.dot(np.array(cov)))

    e = second(psi_s, psi_s, psi_ss)
    f = second(psi_s, psi_t, psi_st)
    g2 = second(psi_t, psi_t, psi_tt)

    H = (e * G - 2.0 * f * F + g2 * E) / (2.0 * W)
    k_ext = (e * g2 - f * f) / W
    k_sec = sectional_curvature_coord(z, s_vec, t_vec)
    return OracleReport(E=E, F=F, G=G, e=e, f=f, g=g2,
                        H=H, K=k_ext + k_sec, K_ext=k_ext, K_sec=k_sec)
