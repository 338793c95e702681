"""Singular-kernel quadrature for the fractional integral on H^1.

For cylindrically symmetric f the 3D integral

    I_lam(f)(u) = int f(v) |u^-1 v|^(-lam) dv

reduces to a 2D integral in (rho', t') against the angular average

    Kbar(rho, rho', tau) = (1/2pi) int_0^2pi
        [ (rho^2 + rho'^2 - 2 rho rho' cos phi)^2
          + (tau - 2 rho rho' sin phi)^2 ]^(-lam/4) dphi,

tau = t' - t.  Kbar has a closed form: with alpha = lam/4 and
D = (rho'^2 - rho^2)^2 + tau^2,

    Kbar = D^(-alpha) 2F1(alpha, 1 - alpha; 1; -4 rho^2 rho'^2 / D),

evaluated with scipy's hyp2f1, except at lam = 2, where hyp2f1 loses
accuracy for large arguments and the same function is (2/pi) K(z), the
complete elliptic integral (ellipk).  The form has no cancellation near
the singular locus rho = rho', tau = 0, where D = 0 and Kbar = +inf, as
long as D is formed from the offset rho' - rho (kbar_many takes it).

Discretization is product integration: the operator is a tensor
A[i, i', k] (k indexes tau = t'-t on its lattice) so that

    (I_lam f)[i, j] = sum_{i', j'} A[i, i', j'-j+offset] f[i', j'].

Far from the singular locus the entries are nodal kernel values times
cell measure, a composite rule whose midpoint-style errors telescope.
Inside a connected zone around the locus (where the kernel's tau ridge is
narrower than the grid spacing) every cell, the one(s) holding the
evaluation point included, is integrated by one graded tensor Gauss rule:
split at rho' = rho0 and tau = 0, with nodes clustered toward both on the
kernel's own scales, and the offset raised to the power Q - lam where the
tau integral leaves a |rho' - rho0|^(3 - lam) singularity.

One row function, `_row_weights(lam, rho0, tau, rho, dt)`, gives these
weights from the point's radius and its tau offsets alone, for both
callers: the kernel table (one row per rho node, tau on the lattice) and
point evaluation (`weights_row`, tau = t - t0).  At a lattice node the two
therefore give the same weights.  The nodal kernel is evaluated from the
smaller radius and |rho' - rho0|, so the table's entries for (rho, rho')
and (rho', rho) come from the same bits.  Kbar is even in tau and the tau
lattice exactly antisymmetric, so the table integrates each row on
tau >= 0 and mirrors it, bit for bit what the full lattice would give at
half the work.

The table's rows are independent, so they are built on a thread pool
sized by parallel.pool_size (one thread per CPU the process may use, at
most four); most of a row's time is the kernel's hyp2f1 / ellipk ufuncs,
which release the GIL.  Each row has its own buffers and writes only its
own slice of the table, and nothing is summed across rows, so the table
is bitwise the same at any thread count.  On 2 cores (one BLAS thread,
numpy 2.4.6) a 64x128 build at lam = 3 takes 0.48-0.58 s instead of
0.94-0.97 s, and the benchmark's cold 16x32 evaluations (quadrature-cold)
take 24% less time (round_cal medians 3.90 -> 2.94 over ten paired runs,
every pair faster).  Each thread holds one row's exact-zone temporaries, so the
traced peak of a cold 64x128 build rises from 15.7 MiB on one thread to
21.5 MiB on two.

The sum over j' is a correlation along t, so the table is applied in
Fourier space: the table keeps only the rfft of A along k, and an apply
costs one rfft of the values, one batched matmul over the frequencies and
one irfft instead of a loop over i.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ellipk, hyp2f1

from .constants import HlsParams, check_lambda
from .grids import CylGridFunction, GridSpec, lp_norm, rho_cell_edges
from .group import GroupPoint, distance, homogeneous_dimension
from .parallel import pool_size

_TWO_PI = 2.0 * math.pi


def riesz_kernel(u: GroupPoint, v: GroupPoint, lam: float) -> float:
    """Kernel |u^-1 v|^(-lam); returns +inf at u = v (signaled, not raised)."""
    check_lambda(lam, homogeneous_dimension(u.n))
    d = distance(u, v)
    if d == 0.0:
        return math.inf
    return d ** (-lam)


def kbar_many(rho, delta, tau, lam):
    """Angular-averaged kernel Kbar(rho, rho + delta, tau) for flat arrays of
    (rho, delta, tau), delta = rho' - rho.

    With alpha = lam/4, b = 2 rho rho' and D = (delta (2 rho + delta))^2
    + tau^2, the integrand is |rho^2 + rho'^2 + i tau - b e^(i phi)|^(-2 alpha),
    whose circle mean a Pfaff transformation brings to

        Kbar = D^(-alpha) 2F1(alpha, 1 - alpha; 1; -b^2 / D),

    free of cancellation near the singular locus: D is formed from the
    offset, which rho' would lose to rounding once it falls below one ulp of
    rho.  Exactly singular entries (D = 0: delta = 0 and tau = 0) come out
    as +inf, and so do entries whose D underflows to zero or to a subnormal
    number, whose lost bits would put D^(-alpha) off with no sign of it
    (by 5.6e-6 at rho = 1e-80, rho' = tau = 0, lam = 2).
    """
    rho = np.asarray(rho, dtype=float).ravel()
    delta = np.asarray(delta, dtype=float).ravel()
    tau = np.asarray(tau, dtype=float).ravel()
    alpha = 0.25 * lam
    D = (delta * (2.0 * rho + delta)) ** 2 + tau * tau
    b = 2.0 * rho * (rho + delta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = -(b * b) / D
        if alpha == 0.5:
            # a - b = 0 is an integer: hyp2f1 loses accuracy as |z| grows
            # (1e-9 at |z| = 1e9, non-finite from about 1e14); 2F1(1/2, 1/2;
            # 1; z) is (2/pi) K(z), which ellipk evaluates to full precision
            F = (2.0 / math.pi) * ellipk(z)
        else:
            F = hyp2f1(alpha, 1.0 - alpha, 1.0, z)
        out = D ** (-alpha) * F
    return np.where(D < np.finfo(float).tiny, math.inf, out)


def angular_average_kernel(rho: float, rho2: float, tau: float, lam: float) -> float:
    """Angular average of the kernel over the phi circle (n = 1 reduction).

    The exact singular point rho = rho', tau = 0 returns +inf, as do points
    so close to it that the kernel's D is not a normal float (kbar_many).
    """
    check_lambda(lam, 4)
    if rho < 0.0 or rho2 < 0.0:
        raise ValueError("radii must be nonnegative")
    return float(kbar_many(rho, rho2 - rho, tau, lam)[0])


# ---------------------------------------------------------------------------
# exact-zone cell rule

# nodes per sub-cell, in the offset delta = rho' - rho0 and, at each delta
# node, in tau: with 9 x 14 every exact-zone cell of the default grid at
# lam = 0.7, 2, 3 and 3.9 is within 3.2e-4 of its converged value, at about
# the cost of 8 x 16, which reaches 1e-3
CELL_N_DELTA = 9
CELL_N_TAU = 14


@functools.cache
def _leggauss(k):
    """k-point Gauss-Legendre rule on [-1, 1], built once per k (read-only)."""
    x, w = np.polynomial.legendre.leggauss(k)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _sinh_rule(lo, hi, scale, k):
    """k-point Gauss rule for int_lo^hi dx (0 <= lo < hi) with nodes graded
    toward x = 0 through x = scale sinh(xi); returns (x, dx), each of shape
    lo.shape + (k,)."""
    g, gw = _leggauss(k)
    xi_lo, xi_hi = np.arcsinh(lo / scale), np.arcsinh(hi / scale)
    half = 0.5 * (xi_hi - xi_lo)[..., None]
    xi = xi_lo[..., None] + half * (1.0 + g)
    sc = scale[..., None]
    return sc * np.sinh(xi), sc * np.cosh(xi) * half * gw


def _cell_integrals(lam, rho0, d_lo, d_hi, tau_lo, tau_hi):
    """Integral of 2 pi rho' Kbar(rho0, rho', tau) over each cell
    delta = rho' - rho0 in [d_lo, d_hi], tau in [tau_lo, tau_hi].

    The tau ridge of the kernel runs along |rho'^2 - rho0^2| = |tau|, at the
    offset ridge(tau) = sqrt(rho0^2 + |tau|) - rho0.  Each cell is split at
    delta = 0 and at tau = 0 where they lie inside it, so a sub-cell has one
    sign of delta and of tau (the kernel is even in tau), and a sub-cell
    touching tau = 0 also at +-ridge(e), where the ridge leaves it through
    its far tau edge e.  On a sub-cell with |delta| in [a, b] and |tau| in
    [c, e] a tensor Gauss rule is graded toward delta = 0 and, at each delta
    node, toward tau = 0:

    * in x = |delta|^nu by x = s^nu sinh(xi).  On a sub-cell touching
      tau = 0 the tau integral leaves a |delta|^(3 - lam) singularity, which
      nu = min(1, Q - lam) makes bounded, and s = 1e-9 (b - a) resolves it;
      elsewhere nu = 1 and s = ridge(c), where the ridge enters the sub-cell;
    * in tau by tau = w sinh(eta), w = |delta (2 rho0 + delta)|, the tau
      scale of D.

    The kernel takes the offset itself (kbar_many), so no node loses it to
    rounding in rho0 + delta.
    """

    def ridge(tau):
        return np.sqrt(rho0 * rho0 + tau) - rho0

    pieces = []
    for t_lo, t_hi in ((np.maximum(-tau_hi, 0.0), -tau_lo), (np.maximum(tau_lo, 0.0), tau_hi)):
        r = np.where(t_lo > 0.0, 0.0, ridge(np.abs(t_hi)))
        cuts = np.sort(np.clip([d_lo, -r, np.zeros_like(r), r, d_hi], d_lo, d_hi), axis=0)
        for d0, d1 in zip(cuts[:-1], cuts[1:]):
            idx = np.flatnonzero((d1 > d0) & (t_hi > t_lo))
            pieces.append([idx, d0[idx], d1[idx], t_lo[idx], t_hi[idx]])
    owner, lo, hi, c, e = np.concatenate(pieces, axis=1)
    sign = np.sign(lo + hi)
    a, b = np.minimum(np.abs(lo), np.abs(hi)), np.maximum(np.abs(lo), np.abs(hi))

    nu = np.where(c > 0.0, 1.0, min(1.0, 4.0 - lam))
    s = np.where(c > 0.0, ridge(c), 1e-9 * (b - a))
    x, dx = _sinh_rule(a ** nu, b ** nu, s ** nu, CELL_N_DELTA)
    ad = x ** (1.0 / nu[:, None])
    delta = sign[:, None] * ad
    wd = dx * ad / (nu[:, None] * x) * (_TWO_PI * (rho0 + delta))
    w = ad * (2.0 * rho0 + delta)
    tau, dtau = _sinh_rule(c[:, None], e[:, None], w, CELL_N_TAU)
    kb = kbar_many(rho0, np.broadcast_to(delta[..., None], tau.shape), tau, lam)
    sub = np.einsum("mdt,mdt,md->m", kb.reshape(tau.shape), dtau, wd)
    return np.bincount(owner.astype(int), sub, minlength=np.size(d_lo))


# ---------------------------------------------------------------------------
# kernel table on the tau lattice


@dataclass
class KernelTable:
    """Product-integration operator for (I_lam f) on a fixed grid, n = 1,
    built from a GridSpec (build_kernel_table, which defines its weights A)
    and cached per (spec, lam) (kernel_table).

    The sum over j' is a correlation along t, so apply multiplies in
    Fourier space.  The table keeps only A_hat, the rfft of A along k at
    the even length 2 n_t, frequency-major so that each frequency's
    (i, i') block is contiguous.
    """

    A_hat: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """I_lam f at every node, for the values of f on the table's grid:
        one rfft, one batched matmul over the frequencies, one irfft."""
        n_t = values.shape[1]
        nfft = 2 * (self.A_hat.shape[0] - 1)
        # with v_rev[m] = values[n_t - 1 - m], out[:, j] is the convolution
        # A * v_rev at lag K = 2 n_t - 2 - j; for those lags K - m stays in
        # [0, 2 n_t - 2], so a circular convolution of any length >= the
        # 2 n_t - 1 entries of A has no wrap-around there
        v_hat = np.fft.rfft(values[:, ::-1], nfft)
        conv = np.fft.irfft((self.A_hat @ v_hat.T[:, :, None])[:, :, 0].T, nfft)
        return conv[:, n_t - 1 : 2 * n_t - 1][:, ::-1]


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


def _row_weights(lam, rho0, tau, rho, dt):
    """Product-rule weights R[i', k] of the point (rho0, t) against the cells
    centered on the nodes (rho[i'], t + tau[k]).

    Nodal value Kbar(rho0, rho[i'], tau[k]) times cell measure outside the
    exact zone; inside it, the cell(s) holding the point included, the
    graded cell rule.  The nodal kernel is evaluated from the smaller radius
    and the offset's magnitude, so Kbar(rho0, rho') and Kbar(rho', rho0)
    come from the same bits.  A weight that is not finite (the kernel's D
    underflowed) raises ValueError.
    """
    edges = rho_cell_edges(rho)
    drho = np.diff(edges)
    zone = _exact_zone_mask(rho0, rho, drho, tau, dt)
    R = np.empty(zone.shape)
    a, k = np.nonzero(~zone)
    R[a, k] = (
        kbar_many(np.minimum(rho0, rho[a]), np.abs(rho[a] - rho0), tau[k], lam)
        * (_TWO_PI * rho * drho)[a]
        * dt
    )
    a, k = np.nonzero(zone)
    R[a, k] = _cell_integrals(
        lam, rho0, edges[a] - rho0, edges[a + 1] - rho0, tau[k] - 0.5 * dt, tau[k] + 0.5 * dt
    )
    if not np.all(np.isfinite(R)):
        raise ValueError(
            f"non-finite quadrature weights at lambda = {lam}, rho0 = {rho0:.3g}: "
            "kernel offsets underflow (lambda too close to Q, or rho_min too small)"
        )
    return R


def _check_deterministic(n: int, lam: float):
    check_lambda(lam, homogeneous_dimension(n))
    if n != 1:
        raise ValueError("deterministic path requires n = 1; use the Monte Carlo path")


def build_kernel_table(spec: GridSpec, lam: float) -> KernelTable:
    """The kernel table of the spec's grid.  Its weights are

        A[i, i', k] = the quadrature weight of node (i', j') in the
                      evaluation of I_lam f at node (i, j),

    with k = j' - j + (n_t - 1): row i is the product rule of the point
    (rho[i], 0) on the tau lattice (k - (n_t - 1)) dt, which by translation
    invariance in t serves every evaluation height.  The kernel is even in
    tau and the lattice exactly antisymmetric, so each row is assembled on
    tau >= 0 (the centre cell whole) and mirrored; the mirrored cells would
    give the same bits.  Each row goes straight into its rfft, so A itself
    is never held whole.  The rows are built on a thread pool, each into
    its own slice, so the table does not depend on the thread count; a
    row whose weights are not finite raises its ValueError, the first
    such row in row order."""
    _check_deterministic(spec.n, lam)
    rho, dt, n_t = spec.rho_nodes(), spec.dt, spec.n_t
    tau = np.arange(n_t) * dt
    A_hat = np.empty((n_t + 1, rho.size, rho.size), dtype=complex)

    def build_row(i):
        half = _row_weights(lam, rho[i], tau, rho, dt)
        row = np.concatenate([half[:, :0:-1], half], axis=1)
        A_hat[:, i, :] = np.fft.rfft(row, 2 * n_t).T

    # map hands the rows back in row order, so a failure raises the first
    # failing row's error, as the serial loop would, and cancels the rows
    # still queued
    with ThreadPoolExecutor(pool_size(rho.size)) as pool:
        for _ in pool.map(build_row, range(rho.size)):
            pass
    return KernelTable(A_hat)


@functools.lru_cache(maxsize=8)
def kernel_table(spec: GridSpec, lam: float) -> KernelTable:
    """build_kernel_table, cached for the 8 most recent (spec, lam)."""
    return build_kernel_table(spec, lam)


clear_table_cache = kernel_table.cache_clear


# ---------------------------------------------------------------------------
# public operations


def fractional_integral_grid(f: CylGridFunction, lam: float) -> CylGridFunction:
    """I_lam f sampled on f's own grid (deterministic path, n = 1)."""
    table = kernel_table(f.spec, lam)
    return f.with_values(table.apply(f.values))


def weights_row(f: CylGridFunction, lam: float, rho0: float, t0: float) -> np.ndarray:
    """Quadrature weights R[i', j'] so that I_lam f(rho0, t0) = sum R * values."""
    _check_deterministic(f.n, lam)
    return _row_weights(lam, rho0, f.t_nodes - t0, f.rho_nodes, f.spec.dt)


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
    discrete form is exactly symmetric in (f, g); for g is f the two
    pairings are one, and the table is applied once.
    """
    if not f.same_grid(g):
        raise ValueError("f and g must live on the same grid")
    table = kernel_table(f.spec, lam)
    If = table.apply(f.values)
    Ig = If if g is f else table.apply(g.values)
    e1 = float(np.sum(f.weights * g.values * If))
    e2 = float(np.sum(f.weights * f.values * Ig))
    return 0.5 * (e1 + e2)


def hls_quotient(f: CylGridFunction, params: HlsParams) -> float:
    """Discrete |I_lam f|_q / |f|_p for the exponent tuple params."""
    if not np.any(f.values != 0.0):
        raise ValueError("hls_quotient requires a nonzero function")
    If = fractional_integral_grid(f, params.lam)
    return lp_norm(If, params.q) / lp_norm(f, params.p)
