"""Singular-kernel quadrature for the fractional integral on H^1.

For cylindrically symmetric f the 3D integral

    I_lam(f)(u) = int f(v) |u^-1 v|^(-lam) dv

reduces to a 2D integral in (rho', t') against the angular average

    Kbar(rho, rho', tau) = (1/2pi) int_0^2pi
        [ (rho^2 + rho'^2 - 2 rho rho' cos phi)^2
          + (tau - 2 rho rho' sin phi)^2 ]^(-lam/4) dphi,

tau = t' - t.  Kbar has a closed form: with alpha = lam/4 and
D = (rho'^2 - rho^2)^2 + tau^2,

    Kbar = D^(-alpha) 2F1(alpha, 1 - alpha; 1; -4 rho^2 rho'^2 / D).

At lam = 2 the 2F1 is (2/pi) K(z), the complete elliptic integral, which
scipy's ellipk evaluates to full precision.  At any other lam a second
Pfaff step writes Kbar = (D + b^2)^(-alpha) F_alpha(s), b = 2 rho rho',
with F_alpha(s) = 2F1(alpha, alpha; 1; 1 - e^-s) smooth in s = log1p(b^2/D);
F_alpha is fitted once per lam by piecewise polynomials on s <= 40, so a
kernel point costs one log1p, one power and a few Horner steps instead of
a call of scipy's hyp2f1 (about 60 against 200 ns on a table's points);
the points beyond s = 40, under 1% of a table's, take the exact F_alpha
that gives the fit its nodes.
The form has no cancellation near the singular locus rho = rho', tau = 0,
where D = 0 and Kbar = +inf, as long as D is formed from the offset
rho' - rho (kbar_many takes it).

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
tau integral leaves a |rho' - rho0|^(3 - lam) singularity.  The rule takes
9 x 14 nodes per sub-cell on the zone cells the ridge |rho'^2 - rho0^2| =
|tau| crosses and 5 x 7 on the others (81% of the zone on the default
grid), whose integrand is smooth; that halves the kernel evaluations of a
table (3.43M -> 1.84M on 64x128).

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

The table's rows are built ROWS_PER_PASS = 4 at a time: one _row_weights
call takes four consecutive radii and makes one kernel call per rule
(nodal, crossed and uncrossed cells) for all four, so a 16x32 build makes
12 kbar_many calls instead of 48, at the same 160,014 points.  Every point
and cell sum is formed by the same operations as row by row, so the table
keeps its bits.  On 2 cores (one BLAS thread, numpy 2.4.6) a 16x32 build
takes 15.5 / 12.5 / 16 ms at lam = 0.7 / 2 / 3 in a process that has built
tables before, against 20 / 17 / 19 ms row by row; in a fresh process,
where a pass's larger arrays come from fresh mmaps, 19 / 16 / 19 ms against
22.5 / 22 / 23 ms, and a 64x128 build 0.19 / 0.16 / 0.19 s against
0.22 / 0.17 / 0.21 s (the kernel's fit for lam built beforehand; medians
of 5-7 processes).  A thread pool over the rows did not pay on the
benchmark's 16x32 tables: one row at a time, two threads took 32 / 25 /
30 ms against 29 / 23 / 28 ms on one.  A cold 64x128 build peaks at
15.0 MiB at lam = 2 and 18.3 MiB at lam = 0.7, 3 and 3.9 (10.4 and
11.5 MiB one row at a time), against its 8.06 MiB table; the transient,
one pass's cell-rule arrays, grows with n_rho n_t and the table with
n_rho^2 n_t (16 against 63 MiB on 127x255).

The sum over j' is a correlation along t, so the table is applied in
Fourier space: the table keeps only the rfft of A along k, and an apply
costs one rfft of the values, one batched matmul over the frequencies and
one irfft instead of a loop over i.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta, betainc, ellipk, hyp2f1

from .constants import HlsParams, check_lambda
from .grids import TINY, CylGridFunction, GridSpec, lp_norm, rho_cell_edges
from .group import GroupPoint, homogeneous_dimension

_TWO_PI = 2.0 * math.pi


# the Pfaff form's F_alpha(s) = 2F1(alpha, alpha; 1; 1 - e^-s) is fitted on
# s in [0, FIT_S_MAX] by one degree-FIT_DEGREE polynomial per panel of width
# 1 / FIT_PANELS_PER_UNIT, interpolating at the panel's Chebyshev nodes.
# F_alpha is analytic in the strip |Im s| < pi, whose edge lies 100 panel
# half-widths from the real axis, so the fit's error is below that of its
# nodes
FIT_S_MAX = 40.0
FIT_PANELS_PER_UNIT = 16
FIT_PANELS = round(FIT_S_MAX * FIT_PANELS_PER_UNIT)
FIT_DEGREE = 7
# hyp2f1 takes z < -1 through a transformation that divides by a Gamma
# function of 1 - 2 alpha, and near alpha = 1/2 it loses digits to the
# cancellation (3e-9 at lam = 2 + 1e-7).  Within ALPHA_BAND of 1/2 the values
# of F_alpha are interpolated in alpha from 13 Chebyshev-Lobatto alphas:
# 1/2 itself (ellipk) and others at least 0.0026 from it, where hyp2f1 keeps
# 14 digits
ALPHA_BAND = 0.01


def _pfaff_nodes(alpha, s):
    """F_alpha(s) = e^(alpha s) 2F1(alpha, 1 - alpha; 1; 1 - e^s) from
    hyp2f1, or from ellipk at alpha = 1/2."""
    z = -np.expm1(s)
    if alpha == 0.5:
        return np.exp(0.5 * s) * ((2.0 / math.pi) * ellipk(z))
    return np.exp(alpha * s) * hyp2f1(alpha, 1.0 - alpha, 1.0, z)


def _pfaff_exact(alpha, s):
    """F_alpha(s) at any alpha: _pfaff_nodes, and within ALPHA_BAND of 1/2,
    where hyp2f1 loses digits, its values interpolated in alpha.  The fit's
    nodes and the points beyond the fit both take it."""
    if abs(alpha - 0.5) < ALPHA_BAND:
        a = 0.5 + ALPHA_BAND * np.sin(np.arange(-6, 7) * (math.pi / 12))
        weights = [np.prod([(alpha - aj) / (ai - aj) for aj in a if aj != ai]) for ai in a]
        return sum(w * _pfaff_nodes(ai, s) for w, ai in zip(weights, a))
    return _pfaff_nodes(alpha, s)


@functools.lru_cache(maxsize=8)
def _pfaff_fit(alpha):
    """Coefficients c[k, m] of F_alpha(s) = sum_k c[k, m] x^k on panel m,
    s = (m + (1 + x) / 2) / FIT_PANELS_PER_UNIT with x in [-1, 1], read-only."""
    x = np.cos((np.arange(FIT_DEGREE + 1) + 0.5) * math.pi / (FIT_DEGREE + 1))
    s = (np.arange(FIT_PANELS)[:, None] + 0.5 * (1.0 + x)) / FIT_PANELS_PER_UNIT
    F = _pfaff_exact(alpha, s)
    coef = np.linalg.solve(np.vander(x, increasing=True), F.T)
    coef.flags.writeable = False
    return coef


def kbar_many(rho, delta, tau, lam):
    """Angular-averaged kernel Kbar(rho, rho + delta, tau) for arrays of
    (rho, delta, tau), delta = rho' - rho, that broadcast together, as a
    flat array in the order of their common shape.  Terms of rho and delta
    alone are formed at their own shape, so a cell rule that passes delta
    once per delta node forms them once per node, not once per tau node.

    With alpha = lam/4, b = 2 rho rho' and D = (delta (2 rho + delta))^2
    + tau^2, the integrand is |rho^2 + rho'^2 + i tau - b e^(i phi)|^(-2 alpha),
    whose circle mean a Pfaff transformation brings to

        Kbar = D^(-alpha) 2F1(alpha, 1 - alpha; 1; -b^2 / D),

    free of cancellation near the singular locus: D is formed from the
    offset, which rho' would lose to rounding once it falls below one ulp of
    rho.  At lam = 2 the 2F1 is (2/pi) K(-b^2 / D), taken from ellipk.  At
    any other lam a second Pfaff step gives

        Kbar = (D + b^2)^(-alpha) F_alpha(s),   s = log1p(b^2 / D),

    with F_alpha(s) = 2F1(alpha, alpha; 1; 1 - e^-s) >= 1 smooth in s, and
    F_alpha is read from a piecewise polynomial fitted once per lam
    (_pfaff_fit): a few gathers and FIT_DEGREE Horner steps per point
    instead of a hyp2f1 call.  Points beyond the fit (s > FIT_S_MAX, that
    is |z| > 2.4e17, or s not finite) take the fit's exact F_alpha
    (_pfaff_exact), interpolated in alpha near lam = 2 like the fit's nodes:
    within 5.7e-13 of mpmath at the band's edges up to s = 72.  Exactly
    singular entries (D = 0: delta = 0 and tau = 0) come out as +inf, and
    so do entries whose D underflows to zero or to a subnormal number,
    whose lost bits would put D^(-alpha) off with no sign of it (by 5.6e-6
    at rho = 1e-80, rho' = tau = 0, lam = 2).
    """
    rho, delta, tau = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (rho, delta, tau))
    alpha = 0.25 * lam
    D = (delta * (2.0 * rho + delta)) ** 2 + tau * tau
    b = 2.0 * rho * (rho + delta)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if alpha == 0.5:
            # a - b = 0 is an integer: hyp2f1 loses accuracy as |z| grows
            # (1e-9 at |z| = 1e9, non-finite from about 1e14); 2F1(1/2, 1/2;
            # 1; z) is (2/pi) K(z), which ellipk evaluates to full precision
            out = D ** (-alpha) * ((2.0 / math.pi) * ellipk(-(b * b) / D))
        else:
            bb = b * b
            s = np.log1p(bb / D)
            # nan and inf clip to the last panel; _pfaff_exact overwrites
            # them below
            u = np.fmin(s, FIT_S_MAX) * FIT_PANELS_PER_UNIT
            panel = np.minimum(u.astype(np.intp), FIT_PANELS - 1)
            x = 2.0 * (u - panel) - 1.0
            coef = _pfaff_fit(alpha)
            F = coef[FIT_DEGREE].take(panel)
            for c in coef[FIT_DEGREE - 1 :: -1]:
                F *= x
                F += c.take(panel)
            far = ~(s <= FIT_S_MAX)
            F[far] = _pfaff_exact(alpha, s[far])
            out = (D + bb) ** (-alpha) * F
    return np.where(D < TINY, math.inf, out).ravel()


# ---------------------------------------------------------------------------
# exact-zone cell rule

# nodes per sub-cell, in the offset delta = rho' - rho0 and, at each delta
# node, in tau.  Exact-zone cells the kernel ridge crosses take 9 x 14: every
# such cell of the default grid at lam = 0.7, 2, 3 and 3.9 is within 3.2e-4
# of its converged value, at about the cost of 8 x 16, which reaches 1e-3.
# The other exact-zone cells hold a smooth integrand and take 5 x 7: against
# a 24 x 32 rule they are within 6.0e-8 on 16x32 at lam = 0.7 ... 3.97, and
# within 2e-9 on 28x56 and 64x128 at lam <= 3 (9 x 14 gave 7e-12 there)
CELL_N_DELTA = 9
CELL_N_TAU = 14
FAR_N_DELTA = 5
FAR_N_TAU = 7


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


def _cell_integrals(
    lam, rho0, d_lo, d_hi, tau_lo, tau_hi, n_delta=CELL_N_DELTA, n_tau=CELL_N_TAU
):
    """Integral of 2 pi rho' Kbar(rho0, rho', tau) over each cell
    delta = rho' - rho0 in [d_lo, d_hi], tau in [tau_lo, tau_hi], with
    n_delta x n_tau nodes per sub-cell (9 x 14 by default; _row_weights
    passes 5 x 7 for the cells the ridge does not cross).  rho0 is one
    radius per cell, or one for all of them.

    The tau ridge of the kernel runs along |rho'^2 - rho0^2| = |tau|, at the
    offset ridge(tau) = sqrt(rho0^2 + |tau|) - rho0, formed as |tau| /
    (sqrt(rho0^2 + |tau|) + rho0), which does not round to 0 where |tau|
    is below one ulp of rho0^2.  Each cell is split at delta = 0 and at
    tau = 0 where they lie inside it, so a sub-cell has one sign of delta
    and of tau (the kernel is even in tau), and a sub-cell
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

    def ridge(rho0, tau):
        return tau / (np.sqrt(rho0 * rho0 + tau) + rho0)

    rho0 = np.broadcast_to(rho0, np.shape(d_lo))
    pieces = []
    for t_lo, t_hi in ((np.maximum(-tau_hi, 0.0), -tau_lo), (np.maximum(tau_lo, 0.0), tau_hi)):
        r = np.where(t_lo > 0.0, 0.0, ridge(rho0, np.abs(t_hi)))
        cuts = np.sort(np.clip([d_lo, -r, np.zeros_like(r), r, d_hi], d_lo, d_hi), axis=0)
        for d0, d1 in zip(cuts[:-1], cuts[1:]):
            idx = np.flatnonzero((d1 > d0) & (t_hi > t_lo))
            pieces.append([idx, rho0[idx], d0[idx], d1[idx], t_lo[idx], t_hi[idx]])
    owner, r0, lo, hi, c, e = np.concatenate(pieces, axis=1)
    sign = np.sign(lo + hi)
    a, b = np.minimum(np.abs(lo), np.abs(hi)), np.maximum(np.abs(lo), np.abs(hi))

    nu = np.where(c > 0.0, 1.0, min(1.0, 4.0 - lam))
    s = np.where(c > 0.0, ridge(r0, c), 1e-9 * (b - a))
    x, dx = _sinh_rule(a ** nu, b ** nu, s ** nu, n_delta)
    ad = x ** (1.0 / nu[:, None])
    delta = sign[:, None] * ad
    r0 = r0[:, None]
    wd = dx * ad / (nu[:, None] * x) * (_TWO_PI * (r0 + delta))
    w = ad * (2.0 * r0 + delta)
    tau, dtau = _sinh_rule(c[:, None], e[:, None], w, n_tau)
    kb = kbar_many(r0[..., None], delta[..., None], tau, lam)
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
    """Cells integrated exactly instead of nodally, per evaluation radius:
    shape np.shape(rho0) + (rho.size, tau.size).

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
    rho0 = np.asarray(rho0)[..., None]
    delta = np.abs(rho - rho0)
    rho_bar = np.sqrt(rho0 * rho)
    width = 2.0 * rho_bar * delta
    in_delta = (width <= 3.0 * dt) | (delta <= 3.0 * drho)
    tau_win = 3.0 * np.maximum(dt, width) + 1e-9 * dt
    return in_delta[..., None] & (np.abs(tau) <= tau_win[..., None])


def _ridge_crossed(rho0, edges, tau, dt):
    """Cells [edges[a], edges[a+1]] x [tau[k] -+ dt/2] that the kernel's
    ridge |rho'^2 - rho0^2| = |tau| meets, per evaluation radius: shape
    np.shape(rho0) + (edges.size - 1, tau.size).

    Interval arithmetic: the range of |rho'^2 - rho0^2| over the rho' cell
    (from 0 when rho0 lies in it) meets the range of |tau| over the tau cell
    (from 0 when tau = 0 lies in it).  The cell holding (rho0, 0) is always
    crossed.  The same 1e-9 dt slack as _exact_zone_mask counts a near touch
    as crossed, so a cell is classified alike whether its tau is k dt (a
    table row) or t' - t0 (a point row at a lattice node).
    """
    rho0 = np.asarray(rho0)[..., None]
    g = edges * edges - rho0 * rho0
    g_lo = np.maximum(np.maximum(g[..., :-1], -g[..., 1:]), 0.0)
    g_hi = np.maximum(g[..., 1:], -g[..., :-1]) + 1e-9 * dt
    t = np.abs(tau)
    t_lo, t_hi = np.maximum(t - 0.5 * dt, 0.0), t + 0.5 * dt + 1e-9 * dt
    return (g_lo[..., None] <= t_hi) & (t_lo <= g_hi[..., None])


def _row_weights(lam, rho0, tau, rho, dt):
    """Product-rule weights R[..., i', k] of the points (rho0, t) against the
    cells centered on the nodes (rho[i'], t + tau[k]), of shape
    np.shape(rho0) + (rho.size, tau.size): one row per evaluation radius,
    or a single 2-D row for a scalar rho0.

    Nodal value Kbar(rho0, rho[i'], tau[k]) times cell measure outside the
    exact zone; inside it, the cell(s) holding the point included, the
    graded cell rule, with 9 x 14 nodes per sub-cell on the cells the
    kernel's ridge crosses and 5 x 7 on the others (_ridge_crossed).  Each
    of the three rules takes one kernel call for all the radii.  The nodal
    kernel is evaluated from the smaller radius and the offset's magnitude,
    so Kbar(rho0, rho') and Kbar(rho', rho0) come from the same bits.  A
    weight that is not finite (the kernel's D underflowed) raises
    ValueError, naming the first such row.
    """
    rho0 = np.asarray(rho0, dtype=float)
    edges = rho_cell_edges(rho)
    drho = np.diff(edges)
    zone = _exact_zone_mask(rho0, rho, drho, tau, dt)
    crossed = _ridge_crossed(rho0, edges, tau, dt)
    radius = np.broadcast_to(rho0[..., None, None], zone.shape)
    R = np.empty(zone.shape)
    cells = np.nonzero(~zone)
    r0, a, k = radius[cells], cells[-2], cells[-1]
    R[cells] = (
        kbar_many(np.minimum(r0, rho[a]), np.abs(rho[a] - r0), tau[k], lam)
        * (_TWO_PI * rho * drho)[a]
        * dt
    )
    # offsets that underflow make the cell rule divide by zero; the
    # non-finite weights that follow raise below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for mask, nodes in (
            (zone & crossed, (CELL_N_DELTA, CELL_N_TAU)),
            (zone & ~crossed, (FAR_N_DELTA, FAR_N_TAU)),
        ):
            cells = np.nonzero(mask)
            r0, a, k = radius[cells], cells[-2], cells[-1]
            R[cells] = _cell_integrals(
                lam, r0, edges[a] - r0, edges[a + 1] - r0,
                tau[k] - 0.5 * dt, tau[k] + 0.5 * dt, *nodes,
            )
    finite = np.isfinite(R).all(axis=(-2, -1))
    if not np.all(finite):
        first = rho0[~finite][0]
        raise ValueError(
            f"non-finite quadrature weights at lambda = {lam}, rho0 = {first:.3g}: "
            "kernel offsets underflow (lambda too close to Q, or rho_min too small)"
        )
    return R


def _check_deterministic(n: int, lam: float):
    check_lambda(lam, homogeneous_dimension(n))
    if n != 1:
        raise ValueError("deterministic path requires n = 1; use the Monte Carlo path")


# table rows assembled per _row_weights call: each pass makes three kernel
# calls (nodal, crossed and uncrossed cells) whatever its number of rows
ROWS_PER_PASS = 4


def build_kernel_table(spec: GridSpec, lam: float) -> KernelTable:
    """The kernel table of the spec's grid.  Its weights are

        A[i, i', k] = the quadrature weight of node (i', j') in the
                      evaluation of I_lam f at node (i, j),

    with k = j' - j + (n_t - 1): row i is the product rule of the point
    (rho[i], 0) on the tau lattice (k - (n_t - 1)) dt, which by translation
    invariance in t serves every evaluation height.  The kernel is even in
    tau and the lattice exactly antisymmetric, so each row is assembled on
    tau >= 0 (the centre cell whole) and mirrored; the mirrored cells would
    give the same bits.  The rows are assembled ROWS_PER_PASS at a time, in
    row order, and each pass goes straight into its rfft, so A itself is
    never held whole; a row whose weights are not finite raises its
    ValueError before any later pass is built."""
    _check_deterministic(spec.n, lam)
    rho, dt, n_t = spec.rho_nodes(), spec.dt, spec.n_t
    tau = np.arange(n_t) * dt
    A_hat = np.empty((n_t + 1, rho.size, rho.size), dtype=complex)
    for i in range(0, rho.size, ROWS_PER_PASS):
        half = _row_weights(lam, rho[i : i + ROWS_PER_PASS], tau, rho, dt)
        rows = np.concatenate([half[..., :0:-1], half], axis=-1)
        A_hat[:, i : i + ROWS_PER_PASS, :] = np.fft.rfft(rows, 2 * n_t).transpose(2, 0, 1)
    return KernelTable(A_hat)


@functools.lru_cache(maxsize=8)
def kernel_table(spec: GridSpec, lam: float) -> KernelTable:
    """build_kernel_table, cached for the 8 most recent (spec, lam)."""
    return build_kernel_table(spec, lam)


def clear_table_cache():
    """Empty the kernel-table cache and the far-field constants cached per
    (spec, A) next to it (_far_field_constant)."""
    kernel_table.cache_clear()
    _far_field_constant.cache_clear()


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


def far_field(f: CylGridFunction, A: float) -> tuple[float, float]:
    """(M, C_out(A)): f's mass M = sum f W and C_out(A) = int |u|^(-A) du
    over H^1 outside the grid's cell hull, A > Q = 4.

    Where f decays fast, I_lam f(u) = M |u|^(-lam) (1 + O(|u|^-2)), so the
    grid's |I_lam f|_q^q misses M^q C_out(lam q) beyond the hull.  M is
    formed on every call; C_out depends on the grid and A alone and comes
    from _far_field_constant.
    """
    return float((f.weights * f.values).sum()), _far_field_constant(f.spec, A)


@functools.lru_cache(maxsize=16)
def _far_field_constant(spec: GridSpec, A: float) -> float:
    """C_out(A) of far_field on the grid of spec, computed once per (spec, A).

    With x = rho^2 and (x, t) = S (cos phi, sin phi), du = pi dx dt and

        C_out(A) = 2 pi int_0^(pi/2) S_b(phi)^(-m) / m dphi,   m = A/2 - 2,

    S_b = min(X / cos phi, T / sin phi) the hull's edge, X the outer rho
    cell edge squared and T = t_max + dt/2.  Split at the hull's corner
    c = atan2(T, X), the pieces are X^-m int_0^c cos^m and
    T^-m int_c^(pi/2) sin^m, incomplete beta functions:
    int_0^c cos^m = B(1/2, (m+1)/2) I(sin^2 c; 1/2, (m+1)/2) / 2, and the
    sine piece the same at cos^2 c.  At A <= Q the tail of I_lam f is not
    in L^q and no finite term exists: C_out is 0 there, and only a tuple
    off the HLS line (lam q = Q at p = q = 2, lam = 2) reaches it.
    """
    m = 0.5 * A - 2.0
    if m <= 0.0:
        return 0.0
    X = rho_cell_edges(spec.rho_nodes())[-1] ** 2
    T = spec.t_max + 0.5 * spec.dt
    b = 0.5 * (m + 1.0)
    edges = np.array([X, T])
    share = edges[::-1] ** 2 / (X * X + T * T)  # sin^2 c, cos^2 c
    side, top = 0.5 * beta(0.5, b) * betainc(0.5, b, share) * edges ** -m
    return _TWO_PI * float(side + top) / m


def quotient_and_integral(f: CylGridFunction, params: HlsParams) -> tuple[float, CylGridFunction]:
    """The discrete |I_lam f|_q / |f|_p for the exponent tuple params, and
    the I_lam f it is taken from: the grid quotient of hls_quotient and of
    extremal.maximize, which hands I_lam f to its next ascent step.  The
    q-th power of |I_lam f|_q is the grid sum plus the far-field term
    |M|^q C_out(lam q) (far_field)."""
    if not f.values.any():
        raise ValueError("the HLS quotient requires a nonzero function")
    q = params.q
    If = fractional_integral_grid(f, params.lam)
    mass, c_out = far_field(f, params.lam * q)
    power = float((If.weights * np.abs(If.values) ** q).sum()) + abs(mass) ** q * c_out
    return power ** (1.0 / q) / lp_norm(f, params.p), If


def hls_quotient(f: CylGridFunction, params: HlsParams) -> float:
    """Discrete |I_lam f|_q / |f|_p for the exponent tuple params."""
    return quotient_and_integral(f, params)[0]
