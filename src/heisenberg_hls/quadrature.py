"""Singular-kernel quadrature for the fractional integral on H^1.

For cylindrically symmetric f the 3D integral

    I_lam(f)(u) = int f(v) |u^-1 v|^(-lam) dv

reduces to a 2D integral in (rho', t') against the angular average

    Kbar(rho, rho', tau) = (1/2pi) int_0^2pi
        [ (rho^2 + rho'^2 - 2 rho rho' cos phi)^2
          + (tau - 2 rho rho' sin phi)^2 ]^(-lam/4) dphi,

tau = t' - t.  Kbar has a closed form: with alpha = lam/4 and
D = ((rho - rho')(rho + rho'))^2 + tau^2,

    Kbar = D^(-alpha) 2F1(alpha, 1 - alpha; 1; -4 rho^2 rho'^2 / D),

evaluated with scipy's hyp2f1, except at lam = 2, where hyp2f1 loses
accuracy for large arguments and the same function is (2/pi) K(z), the
complete elliptic integral (ellipk).  The form has no cancellation near
the singular locus rho = rho', tau = 0, where D = 0 and Kbar = +inf.

Discretization is product integration: the operator is a tensor
A[i, i', k] (k indexes tau = t'-t on its lattice) so that

    (I_lam f)[i, j] = sum_{i', j'} A[i, i', j'-j+offset] f[i', j'].

Far from the singular locus the entries are nodal kernel values times
cell measure, a composite rule whose midpoint-style errors telescope.
Inside a connected zone around the locus (where the kernel's tau ridge is
narrower than the grid spacing) every cell is integrated exactly: the
diagonal band by adaptive 2x2 subdivision with Gauss-Legendre cells, the
off-diagonal ridge cells by a Gauss rule in rho' with a sinh-graded tau
rule centered on the ridge, and the cell containing the evaluation point
itself by a local polar rule whose radial substitution r = R s^(1/(Q-lam))
integrates the leading singular behaviour r^(Q-1-lam) exactly.

One row assembler turns a nodal kernel row into these weights for both
callers: the kernel table (one row per rho node, the evaluation point at
tau = 0 on the tau lattice) and point evaluation (`weights_row`, any
(rho0, t0)).  At a lattice node the two therefore give the same weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipk, hyp2f1

from .constants import HlsParams
from .grids import CylGridFunction, GridSpec, lp_norm, rho_cell_edges
from .group import GroupPoint, distance, homogeneous_dimension

_TWO_PI = 2.0 * math.pi

# cell refinement controls
RATIO_TOL = 2.0
DEPTH_MAX = 6
N_THETA = 14
N_S = 20


def riesz_kernel(u: GroupPoint, v: GroupPoint, lam: float) -> float:
    """Kernel |u^-1 v|^(-lam); returns +inf at u = v (signaled, not raised)."""
    Q = homogeneous_dimension(u.n)
    if not (0.0 < lam < Q):
        raise ValueError(f"lambda must lie in (0, Q) = (0, {Q}), got {lam}")
    d = distance(u, v)
    if d == 0.0:
        return math.inf
    return d ** (-lam)


def kbar_many(rho, rho2, tau, lam):
    """Angular-averaged kernel for flat arrays of (rho, rho', tau).

    With alpha = lam/4, b = 2 rho rho' and D = ((rho - rho')(rho + rho'))^2
    + tau^2, the integrand is |rho^2 + rho'^2 + i tau - b e^(i phi)|^(-2 alpha),
    whose circle mean a Pfaff transformation brings to

        Kbar = D^(-alpha) 2F1(alpha, 1 - alpha; 1; -b^2 / D),

    free of cancellation near the singular locus.  Exactly singular entries
    (D = 0: rho = rho' and tau = 0) come out as +inf.
    """
    rho = np.asarray(rho, dtype=float).ravel()
    rho2 = np.asarray(rho2, dtype=float).ravel()
    tau = np.asarray(tau, dtype=float).ravel()
    alpha = 0.25 * lam
    D = ((rho - rho2) * (rho + rho2)) ** 2 + tau * tau
    b = 2.0 * rho * rho2
    with np.errstate(divide="ignore", invalid="ignore"):
        z = -(b * b) / D
        if alpha == 0.5:
            # a - b = 0 is an integer: hyp2f1 loses accuracy as |z| grows
            # (1e-9 at |z| = 1e9, non-finite from about 1e14); 2F1(1/2, 1/2;
            # 1; z) is (2/pi) K(z), which ellipk evaluates to full precision
            F = (2.0 / math.pi) * ellipk(z)
        else:
            F = hyp2f1(alpha, 1.0 - alpha, 1.0, z)
        out = D ** (-alpha) * F
    return np.where(D == 0.0, math.inf, out)


def angular_average_kernel(rho: float, rho2: float, tau: float, lam: float) -> float:
    """Angular average of the kernel over the phi circle (n = 1 reduction).

    The exact singular point rho = rho', tau = 0 returns +inf.
    """
    if not (0.0 < lam < 4.0):
        raise ValueError(f"lambda must lie in (0, 4) for n = 1, got {lam}")
    if rho < 0.0 or rho2 < 0.0:
        raise ValueError("radii must be nonnegative")
    return float(kbar_many(rho, rho2, tau, lam)[0])


# ---------------------------------------------------------------------------
# cell integration helpers


@functools.cache
def _leggauss(k):
    """k-point Gauss-Legendre rule on [-1, 1], built once per k (read-only)."""
    x, w = np.polynomial.legendre.leggauss(k)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _leggauss01(k):
    """The k-point rule mapped to [0, 1], built once per k (read-only)."""
    x, w = _leggauss(k)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _center_cell_integral(lam, rho0, ra, rb, ta, tb, t_eval):
    """Integral of 2 pi rho' Kbar(rho0, rho', t'-t_eval) over the cell
    [ra, rb] x [ta, tb] that contains the singular point (rho0, t_eval).

    The kernel is approximately radial in the scaled local coordinates
    x = rho' - rho0, y = (t' - t_eval)/(2 rho0) only within a distance
    of order rho0 from the singularity, so the polar rule is applied on a
    small core rectangle around the point and the remainder of the cell is
    handed to the adaptive subdivision integrator.
    """
    # core half-widths, capped at the validity scale of the local expansion
    hx_lo = min(rho0 - ra, 0.3 * rho0)
    hx_hi = min(rb - rho0, 0.3 * rho0)
    hy_lo = min(t_eval - ta, 0.6 * rho0 * rho0)
    hy_hi = min(tb - t_eval, 0.6 * rho0 * rho0)
    core = (rho0 - hx_lo, rho0 + hx_hi, t_eval - hy_lo, t_eval + hy_hi)
    rest = []
    if core[0] > ra:
        rest.append((ra, core[0], ta, tb))
    if core[1] < rb:
        rest.append((core[1], rb, ta, tb))
    if core[2] > ta:
        rest.append((core[0], core[1], ta, core[2]))
    if core[3] < tb:
        rest.append((core[0], core[1], core[3], tb))
    total = float(_refine_cells(lam, rho0, rest, t_eval, depth_max=DEPTH_MAX + 2).sum())
    return total + _polar_core_integral(lam, rho0, *core, t_eval)


def _polar_core_integral(lam, rho0, ra, rb, ta, tb, t_eval):
    """Polar rule with exponent-matched radial substitution on a core
    rectangle containing (rho0, t_eval): corner decomposition in the scaled
    coordinates, r = R(theta) s^(1/(Q-lam))."""
    nu = 4.0 - lam
    sy = 2.0 * rho0
    xa, xb = ra - rho0, rb - rho0
    ya, yb = (ta - t_eval) / sy, (tb - t_eval) / sy
    sgl_s, sgl_w = _leggauss01(N_S)
    th_s, th_w = _leggauss01(N_THETA)

    rho_list, tau_list, wgt_list = [], [], []
    for sx_sign, X in ((1.0, xb), (-1.0, -xa)):
        for sy_sign, Y in ((1.0, yb), (-1.0, -ya)):
            if X <= 0.0 or Y <= 0.0:
                continue
            theta_d = math.atan2(Y, X)
            for t_lo, t_hi, r_of_theta in (
                (0.0, theta_d, lambda th: X / np.cos(th)),
                (theta_d, 0.5 * math.pi, lambda th: Y / np.sin(th)),
            ):
                width = t_hi - t_lo
                if width <= 0.0:
                    continue
                thetas = t_lo + width * th_s
                R = r_of_theta(thetas)
                # nodes: (theta, s) grid
                r = R[:, None] * sgl_s[None, :] ** (1.0 / nu)
                x = sx_sign * r * np.cos(thetas)[:, None]
                y = sy_sign * r * np.sin(thetas)[:, None]
                rho_p = rho0 + x
                s_jac = (R ** 2 / nu)[:, None] * sgl_s[None, :] ** (2.0 / nu - 1.0)
                full_w = (
                    (th_w * width)[:, None]
                    * sgl_w[None, :]
                    * s_jac
                    * (_TWO_PI * rho_p * sy)
                )
                rho_list.append(rho_p.ravel())
                tau_list.append((sy * y).ravel())
                wgt_list.append(full_w.ravel())
    if not rho_list:
        return 0.0
    rho_p = np.concatenate(rho_list)
    tau = np.concatenate(tau_list)
    wgt = np.concatenate(wgt_list)
    kb = kbar_many(np.full(rho_p.size, rho0), rho_p, tau, lam)
    return float(np.dot(wgt, kb))


_GLC_N = 4


def _gl_cell_values(lam, rho0, rects, t_eval):
    """Tensor Gauss-Legendre integral of 2 pi rho' Kbar over each rectangle."""
    gx, gw = _leggauss01(_GLC_N)
    ra, rb, ta, tb = rects.T
    rp = ra[:, None] + (rb - ra)[:, None] * gx[None, :]
    tp = ta[:, None] + (tb - ta)[:, None] * gx[None, :]
    # node mesh (cell, ir, it)
    R = np.repeat(rp[:, :, None], _GLC_N, axis=2)
    T = np.repeat(tp[:, None, :], _GLC_N, axis=1)
    kb = kbar_many(
        np.repeat(rho0, R.size), R.ravel(), T.ravel() - t_eval, lam
    ).reshape(R.shape)
    w2 = gw[:, None] * gw[None, :]
    area = (rb - ra) * (tb - ta)
    return area * np.einsum("cij,ij,cij->c", kb, w2, _TWO_PI * R)


def _refine_cells(lam, rho0, rects, t_eval, depth_max=DEPTH_MAX, ratio_tol=RATIO_TOL):
    """Adaptive 2x2 subdivision of cells [ra, rb] x [ta, tb] (absolute t').

    Returns the integral of 2 pi rho' Kbar(rho0, rho', t'-t_eval) per input
    cell.  A rectangle is accepted when its corner/center kernel ratio is
    below ratio_tol, then integrated with a tensor Gauss-Legendre rule;
    otherwise it is split into four.
    """
    n_in = len(rects)
    totals = np.zeros(n_in)
    if n_in == 0:
        return totals
    rects = np.asarray(rects, dtype=float)
    owner = np.arange(n_in)
    depth = 0
    while rects.size:
        ra, rb, ta, tb = rects.T
        rm = 0.5 * (ra + rb)
        tm = 0.5 * (ta + tb)
        # corner + center kernel values per rectangle
        rr = np.stack([ra, ra, rb, rb, rm], axis=1)
        tt = np.stack([ta, tb, ta, tb, tm], axis=1)
        kb = kbar_many(
            np.repeat(rho0, rr.size), rr.ravel(), tt.ravel() - t_eval, lam
        ).reshape(rr.shape)
        kmax = kb.max(axis=1)
        kmin = kb.min(axis=1)
        with np.errstate(invalid="ignore"):
            flat = (kmax <= ratio_tol * kmin) | (depth >= depth_max)
        flat |= ~np.isfinite(kmax) & (depth >= depth_max)
        done = np.flatnonzero(flat)
        if done.size:
            np.add.at(totals, owner[done], _gl_cell_values(lam, rho0, rects[done], t_eval))
        todo = np.flatnonzero(~flat)
        if todo.size == 0:
            break
        ra, rb, ta, tb = rects[todo].T
        rm = 0.5 * (ra + rb)
        tm = 0.5 * (ta + tb)
        children = np.concatenate(
            [
                np.stack([ra, rm, ta, tm], axis=1),
                np.stack([rm, rb, ta, tm], axis=1),
                np.stack([ra, rm, tm, tb], axis=1),
                np.stack([rm, rb, tm, tb], axis=1),
            ]
        )
        rects = children
        owner = np.concatenate([owner[todo]] * 4)
        depth += 1
    return totals


# ---------------------------------------------------------------------------
# kernel table on the tau lattice


@dataclass
class KernelTable:
    """Product-integration tensor for (I_lam f) on a fixed grid, n = 1.

    A[i, i', k] is the quadrature weight of node (i', j') in the evaluation
    of I_lam f at node (i, j), with k = j' - j + (n_t - 1).  spec is None for
    a table built from the nodes of a grid function without one.
    """

    spec: GridSpec | None
    lam: float
    A: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        n_rho, n_t = values.shape
        out = np.empty((n_rho, n_t))
        for i in range(n_rho):
            win = np.lib.stride_tricks.sliding_window_view(self.A[i], n_t, axis=-1)
            # win[i', s, j'] = A[i, i', s + j'];  out[i, j] = tmp[n_t-1-j]
            tmp = np.einsum("bsk,bk->s", win, values)
            out[i] = tmp[::-1]
        return out


def _nodal_kbar(rho, rho2, tau, lam):
    """kbar_many at grid nodes; the exactly singular entry (rho = rho',
    tau = 0) is set to 0, its cell being integrated by the center-cell rule."""
    exact = (rho == rho2) & (tau == 0.0)
    out = np.zeros(rho.size)
    idx = np.flatnonzero(~exact)
    out[idx] = kbar_many(rho[idx], rho2[idx], tau[idx], lam)
    return out


def _build_kbar_lattice(rho, tau, lam):
    """Nodal Kbar[i, i', k] on the tau lattice, exploiting the symmetries
    Kbar(rho, rho', tau) = Kbar(rho', rho, tau) = Kbar(rho, rho', -tau)."""
    nr = rho.size
    L = tau.size
    mid = (L - 1) // 2
    tau_half = tau[mid:]
    K = np.empty((nr, nr, L))
    iu, ju = np.triu_indices(nr)
    vals = _nodal_kbar(
        np.repeat(rho[iu], tau_half.size),
        np.repeat(rho[ju], tau_half.size),
        np.tile(tau_half, iu.size),
        lam,
    ).reshape(iu.size, tau_half.size)
    K[iu, ju, mid:] = vals
    K[ju, iu, mid:] = vals
    K[:, :, :mid] = K[:, :, mid + 1 :][:, :, ::-1]
    return K


def _exact_zone_mask(rho0, rho, drho, tau, dt):
    """Cells integrated exactly instead of nodally, per evaluation radius.

    The kernel is peaked along the ridge tau = 0 with width of order
    2 rho_bar |delta| (rho_bar = sqrt(rho0 rho') is the anisotropic
    scaling radius).  Nodal sampling puts a node exactly on the ridge, so
    every cell whose ridge width falls below a few grid spacings must be
    integrated exactly; no mass-based exemption applies, because the ridge
    peak value grows exactly as fast as the cell measure shrinks.  The
    zone is a simply connected neighbourhood of the ridge: outside it the
    composite nodal rule keeps its Euler-Maclaurin telescoping, which
    scattered per-cell corrections would destroy.

    The tau window carries a slack of 1e-9 dt: a cell exactly 3 dt from the
    evaluation point has tau = (k - j) dt on the table's lattice but t' - t
    for a point row, and the two round differently; without the slack the
    same cell could fall inside the zone for one and outside for the other.
    """
    delta = np.abs(rho - rho0)
    rho_bar = np.sqrt(rho0 * rho)
    width = 2.0 * rho_bar * delta
    in_delta = (width <= 3.0 * dt) | (delta <= 3.0 * drho)
    tau_win = 3.0 * np.maximum(dt, width) + 1e-9 * dt
    return in_delta[:, None] & (np.abs(tau)[None, :] <= tau_win[:, None])


_RIDGE_NRHO = 6
_RIDGE_NTAU = 32


def _ridge_cell_values(lam, rho0, rects, t_eval):
    """Integral of 2 pi rho' Kbar over cells crossed by the tau ridge.

    Gauss-Legendre in rho'; in tau the substitution tau = w sinh(xi)
    centered on the ridge clusters nodes into the peak, whose width w is
    known from the anisotropic scaling.  Valid when the kernel is smooth
    in rho' across the cell (off the diagonal band).
    """
    rects = np.asarray(rects, dtype=float)
    if rects.size == 0:
        return np.zeros(0)
    gx, gw = _leggauss01(_RIDGE_NRHO)
    hx, hw = _leggauss(_RIDGE_NTAU)
    ra, rb, ta, tb = rects.T
    rp = ra[:, None] + (rb - ra)[:, None] * gx[None, :]  # (c, ir)
    w = np.maximum(2.0 * np.sqrt(rho0 * rp) * np.abs(rp - rho0), 1e-10)
    xi_a = np.arcsinh((ta[:, None] - t_eval) / w)
    xi_b = np.arcsinh((tb[:, None] - t_eval) / w)
    half = 0.5 * (xi_b - xi_a)
    mid = 0.5 * (xi_b + xi_a)
    xi = mid[:, :, None] + half[:, :, None] * hx[None, None, :]  # (c, ir, it)
    tau = t_eval + w[:, :, None] * np.sinh(xi)
    dtau = w[:, :, None] * np.cosh(xi) * (half[:, :, None] * hw[None, None, :])
    R3 = np.broadcast_to(rp[:, :, None], tau.shape)
    kb = kbar_many(
        np.full(tau.size, rho0), R3.ravel(), (tau - t_eval).ravel(), lam
    ).reshape(tau.shape)
    inner = np.einsum("cit,cit->ci", kb, dtau)
    return np.einsum("ci,i,ci->c", inner, gw, _TWO_PI * rp) * (rb - ra)


def _row_weights(lam, rho0, t_eval, rho, t, dt, K):
    """Product-rule weights R[i', k] of the point (rho0, t_eval) against the
    cells centered on the nodes (rho[i'], t[k]), given the nodal kernel row
    K[i', k] = Kbar(rho0, rho[i'], t[k] - t_eval).

    Nodal value times cell measure outside the exact zone; inside it the
    polar rule for the cell(s) containing the point, adaptive subdivision
    on the diagonal band and the sinh rule on the ridge.
    """
    edges = rho_cell_edges(rho)
    drho = np.diff(edges)
    tau = t - t_eval
    tau_edges = np.concatenate([tau - 0.5 * dt, [tau[-1] + 0.5 * dt]])
    t_lo, t_hi = t - 0.5 * dt, t + 0.5 * dt
    R = K * (_TWO_PI * rho * drho)[:, None] * dt

    zone = _exact_zone_mask(rho0, rho, drho, tau, dt)
    contains_r = (edges[:-1] <= rho0) & (rho0 <= edges[1:])
    contains_t = (tau_edges[:-1] <= 0.0) & (0.0 <= tau_edges[1:])
    for a, k in np.argwhere(contains_r[:, None] & contains_t[None, :]):
        zone[a, k] = False
        R[a, k] = _center_cell_integral(
            lam, rho0, edges[a], edges[a + 1], t_lo[k], t_hi[k], t_eval
        )
    # the diagonal band, singular in rho' across a cell, is subdivided; off
    # it the kernel is smooth in rho' and peaked in tau: the ridge rule
    ridge = (np.abs(rho - rho0) > 3.0 * drho)[:, None]
    for integrate, sel in ((_refine_cells, zone & ~ridge), (_ridge_cell_values, zone & ridge)):
        a, k = np.nonzero(sel)
        if a.size:
            rects = np.column_stack([edges[a], edges[a + 1], t_lo[k], t_hi[k]])
            R[a, k] = integrate(lam, rho0, rects, t_eval)
    return R


def _table_weights(rho, dt, n_t, lam):
    """A[i, i', k] for the rho nodes and n_t uniform t nodes of spacing dt:
    row i is the product rule of the point (rho[i], 0) on the tau lattice
    (k - (n_t - 1)) dt, which by translation invariance in t serves every
    evaluation height."""
    tau = (np.arange(2 * n_t - 1) - (n_t - 1)) * dt
    A = _build_kbar_lattice(rho, tau, lam)
    for i in range(rho.size):
        A[i] = _row_weights(lam, rho[i], 0.0, rho, tau, dt, A[i])
    return A


def _check_deterministic(n: int, lam: float):
    Q = homogeneous_dimension(n)
    if not (0.0 < lam < Q):
        raise ValueError(f"lambda must lie in (0, Q) = (0, {Q}), got {lam}")
    if n != 1:
        raise ValueError("deterministic path requires n = 1; use the Monte Carlo path")


def build_kernel_table(spec: GridSpec, lam: float) -> KernelTable:
    _check_deterministic(spec.n, lam)
    A = _table_weights(spec.rho_nodes(), spec.dt, spec.n_t, lam)
    return KernelTable(spec=spec, lam=lam, A=A)


_TABLE_CACHE: dict = {}


def kernel_table(spec: GridSpec, lam: float) -> KernelTable:
    key = (spec, float(lam))
    if key not in _TABLE_CACHE:
        if len(_TABLE_CACHE) >= 8:
            _TABLE_CACHE.pop(next(iter(_TABLE_CACHE)))
        _TABLE_CACHE[key] = build_kernel_table(spec, lam)
    return _TABLE_CACHE[key]


def clear_table_cache():
    _TABLE_CACHE.clear()


def _uniform_dt(t: np.ndarray) -> float:
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-10, atol=0.0):
        raise ValueError("the deterministic operator requires a uniform t grid")
    return float(dt)


def _table_for(f: CylGridFunction, lam: float) -> KernelTable:
    if f.spec is not None:
        return kernel_table(f.spec, lam)
    _check_deterministic(f.n, lam)
    A = _table_weights(f.rho_nodes, _uniform_dt(f.t_nodes), f.t_nodes.size, lam)
    return KernelTable(spec=None, lam=lam, A=A)


# ---------------------------------------------------------------------------
# public operations


def fractional_integral_grid(f: CylGridFunction, lam: float) -> CylGridFunction:
    """I_lam f sampled on f's own grid (deterministic path, n = 1)."""
    table = _table_for(f, lam)
    return f.with_values(table.apply(f.values))


def weights_row(f: CylGridFunction, lam: float, rho0: float, t0: float) -> np.ndarray:
    """Quadrature weights R[i', j'] so that I_lam f(rho0, t0) = sum R * values."""
    _check_deterministic(f.n, lam)
    rho = f.rho_nodes
    t = f.t_nodes
    dt = _uniform_dt(t)
    n = rho.size * t.size
    K = _nodal_kbar(np.full(n, rho0), np.repeat(rho, t.size), np.tile(t - t0, rho.size), lam)
    return _row_weights(lam, rho0, t0, rho, t, dt, K.reshape(rho.size, t.size))


def fractional_integral(f: CylGridFunction, lam: float, u: GroupPoint) -> float:
    """I_lam(f)(u) by product-integration quadrature over f's grid."""
    if u.n != f.n:
        raise ValueError(f"dimension mismatch: grid n={f.n}, point n={u.n}")
    rho0 = float(np.sqrt(np.dot(u.z, u.z)))
    R = weights_row(f, lam, rho0, u.t)
    return float(np.sum(R * f.values))


def bilinear_energy(f: CylGridFunction, g: CylGridFunction, lam: float) -> float:
    """Bilinear HLS energy int int f(u) g(v) |u^-1 v|^(-lam) du dv.

    Computed as the symmetrized pairing (<g, I f> + <f, I g>)/2 so that the
    discrete form is exactly symmetric in (f, g).
    """
    if not f.same_grid(g):
        raise ValueError("f and g must live on the same grid")
    table = _table_for(f, lam)
    If = table.apply(f.values)
    Ig = table.apply(g.values)
    e1 = float(np.sum(f.weights * g.values * If))
    e2 = float(np.sum(f.weights * f.values * Ig))
    return 0.5 * (e1 + e2)


def hls_quotient(f: CylGridFunction, params: HlsParams) -> float:
    """Discrete |I_lam f|_q / |f|_p for the exponent tuple params."""
    params.validate()
    if not np.any(f.values != 0.0):
        raise ValueError("hls_quotient requires a nonzero function")
    If = fractional_integral_grid(f, params.lam)
    return lp_norm(If, params.q) / lp_norm(f, params.p)
