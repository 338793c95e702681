"""Maximization of the HLS quotient over cylindrically symmetric profiles.

The fixed-point ascent iterates the first-order condition of
sup |I_lam f|_q / |f|_p over the nonnegative cone,

    f  <-  normalize( ( I_lam( (I_lam f)^(q-1) ) )^(1/(p-1)) ),

interleaved with a concentration renormalization that pins the dilation
and vertical-translation gauge: the profile is rescaled so that the Levy
concentration of |f|^p at radius 1 equals 1/2, and recentered in t at the
ball-mass argmax.  The quotient is invariant under both operations in the
continuum, so the gauge fixing costs nothing while preventing mass from
drifting off the grid.  A damped safeguard makes the ascent monotone by
construction.  Its objective is the grid quotient of
`quadrature.quotient_and_integral`, the one `hls_quotient` returns.

The known diagonal maximizer (`constants.h_profile` at |z|^2 = rho^2)

    H(rho, t) = ((1 + rho^2)^2 + t^2)^(-(2Q-lam)/4)

serves as the golden target: the search started anywhere reasonable should
come back to it (up to dilation and translation) with quotient near the
sharp constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import HlsParams, check_lambda, gaussian, h_profile
from .grids import CylGridFunction, GridSpec, lp_norm, normalized, sample
from .group import homogeneous_dimension
from .quadrature import fractional_integral_grid, quotient_and_integral


def extremal_H(n: int, lam: float, spec: GridSpec) -> CylGridFunction:
    """The closed-form diagonal extremal sampled on the grid."""
    Q = homogeneous_dimension(n)
    check_lambda(lam, Q)
    if spec.n != n:
        raise ValueError("grid spec dimension does not match n")
    return sample(lambda R, T: h_profile(n, lam, R ** 2, T), spec)


def gaussian_profile(spec: GridSpec) -> CylGridFunction:
    """Default search initialization exp(-rho^2 - t^2), far from H."""
    return sample(lambda R, T: gaussian(R ** 2, T), spec)


PERTURB_AMPLITUDE = 0.3


def perturbed_H(n: int, lam: float, spec: GridSpec) -> CylGridFunction:
    """H times (1 + PERTURB_AMPLITUDE cos t), a positive start off the maximizer."""
    h = extremal_H(n, lam, spec)
    T = h.t_nodes[None, :]
    return h.with_values(h.values * (1.0 + PERTURB_AMPLITUDE * np.cos(T)))


@dataclass
class ConvergenceTrace:
    """Per-iteration diagnostics of the maximization run."""

    iterations: list = field(default_factory=list)
    quotients: list = field(default_factory=list)
    q1_concentration: list = field(default_factory=list)
    dilations: list = field(default_factory=list)
    t_shifts: list = field(default_factory=list)
    accepted: list = field(default_factory=list)
    stop_reason: str = ""  # "no_ascent", "stall" or "max_iter"

    def record(self, it, quotient, q1, d, a, ok):
        self.iterations.append(int(it))
        self.quotients.append(float(quotient))
        self.q1_concentration.append(float(q1))
        self.dilations.append(float(d))
        self.t_shifts.append(float(a))
        self.accepted.append(bool(ok))

    def rows(self):
        return zip(
            self.iterations,
            self.quotients,
            self.q1_concentration,
            self.dilations,
            self.t_shifts,
            self.accepted,
        )


@dataclass(frozen=True)
class IterationControls:
    """Stopping rules of `maximize`: an iteration cap max_iter (an integer
    >= 0) and a stall tolerance rtol >= 0, relative to the quotient."""

    max_iter: int = 500
    rtol: float = 1e-7

    def __post_init__(self):
        if not (self.max_iter >= 0 and float(self.max_iter).is_integer()):
            raise ValueError(f"max_iter must be an integer >= 0, got {self.max_iter}")
        if not self.rtol >= 0.0:
            raise ValueError(f"rtol must be >= 0, got {self.rtol}")
        object.__setattr__(self, "max_iter", int(self.max_iter))


STALL_WINDOW = 10  # iterations over which the quotient must gain rtol
THETA_MIN = 1e-4  # smallest damping weight tried before giving up on a step
Q1_TOL = 1e-3  # accepted |Q(1) - 1/2| in the dilation bisection
# relative gap below which two t-centers' ball masses count as tied: a
# t-symmetric profile on an even n_t has two centers at +-dt/2 whose masses
# are equal but for rounding, which must not decide the recentering
TIE_RTOL = 1e-12
# each walked by the gauge from its middle point d = 1; built once, at import
_DILATION_LATTICES = (
    tuple((2.0 ** np.arange(-26, 27)).tolist()),  # 2^k inside [1e-8, 1e8]
    tuple(np.geomspace(1e-4, 1e4, 81).tolist()),  # 10^(k/10), |k| <= 40
)


def euler_lagrange_step(
    f: CylGridFunction, params: HlsParams, If: CylGridFunction | None = None
) -> CylGridFunction:
    """One fixed-point ascent step, output normalized in L^p.

    Requires f >= 0 with unit L^p norm: the search lives on the nonnegative
    cone, where replacing f by |f| can only increase the quotient.  If is
    I_lam f when the caller already has it (maximize keeps it from the
    quotient of the accepted trial); it is computed from f otherwise.
    """
    if np.any(f.values < 0.0):
        raise ValueError("euler_lagrange_step requires a nonnegative profile")
    if abs(lp_norm(f, params.p) - 1.0) > 1e-10:
        raise ValueError("euler_lagrange_step requires unit L^p norm")
    if If is None:
        If = fractional_integral_grid(f, params.lam)
    g = fractional_integral_grid(If.with_values(If.values ** (params.q - 1.0)), params.lam)
    new_vals = np.clip(g.values, 0.0, None) ** (1.0 / (params.p - 1.0))
    out = f.with_values(new_vals)
    nrm = lp_norm(out, params.p)
    if nrm == 0.0:
        raise ValueError("ascent step collapsed to zero")
    out.values /= nrm
    return out


# ---------------------------------------------------------------------------
# concentration renormalization


# One entry per (grid, R): the library asks for R = 1 only, on the grid of
# the running search; a few more serve a concentration profile over R.
BALL_BAND_CACHE = 4


@functools.lru_cache(maxsize=BALL_BAND_CACHE)
def _ball_band(spec: GridSpec, R: float):
    """Overlap table of the balls {(z,t): |z|^4 + (t-a)^2 < R^4} centered
    on the t axis at the grid-aligned heights a, for the nodes of spec.

    Balls centered on the t axis are cylindrically symmetric, so a ball's
    mass is a windowed sum over t per rho row.  Boundary t-cells enter with
    their fractional overlap, which keeps the map d -> Q(1) continuous on
    coarse grids instead of jumping a whole cell at a time.  On the uniform
    t grid the overlap of cell j with the window around t_a depends only on
    the offset j - a, so one band of offsets per row gives every center.
    A row's band is a few cells wide (about 2 R^2 / dt), so the table keeps
    only the covered cells: (cells, shares), both of shape (n_t, L), where
    row a lists the flat indices i n_t + j of the cells (i, j) the ball
    centered at t[a] covers, rows with rho < R first to last and j
    ascending in each, and the covered shares; a row covering fewer than L
    cells is padded with share 0 at cell 0.  On 64x128 at R = 1 that is
    128 x 121 entries (248 KB), where the dense (n_t, n_t) blocks of the 41
    rows inside would take 5.4 MB.  Built once per (spec, R) and read-only.
    """
    rho, t = spec.rho_nodes(), spec.t_nodes()
    n_t = t.size
    k = int(np.count_nonzero(rho ** 4 < R ** 4))  # rho ascends: rows 0 .. k - 1
    h = np.sqrt(R ** 4 - rho[:k] ** 4)[:, None]
    dt = spec.dt
    # band[i, m] = |cell at offset m - (n_t - 1) cap [-h_i, h_i]| / dt
    offset = np.arange(1 - n_t, n_t) * dt
    lo = np.maximum(offset - 0.5 * dt, -h)
    hi = np.minimum(offset + 0.5 * dt, h)
    band = np.clip(hi - lo, 0.0, None) / dt
    i, m = np.nonzero(band)  # row by row, offsets ascending
    j = np.arange(n_t)[:, None] + (m - (n_t - 1))  # cell of each center and offset
    on = (j >= 0) & (j < n_t)
    cells = np.where(on, i * n_t + j, 0)
    shares = np.where(on, band[i, m], 0.0)
    cells.flags.writeable = shares.flags.writeable = False
    return cells, shares


def _band_masses(band, density: np.ndarray) -> np.ndarray:
    """Ball mass of density around every grid-aligned center, from _ball_band:
    the covered cells gathered per center and summed against their shares
    by one einsum, without BLAS."""
    cells, shares = band
    return np.einsum("al,al->a", shares, density.ravel()[cells])


def levy_concentration_grid(f: CylGridFunction, p: float, R: float = 1.0) -> float:
    """sup over grid-aligned t-axis centers of the |f|^p mass in B_R."""
    if not (R > 0.0 and math.isfinite(R)):
        raise ValueError(f"R must be positive and finite, got {R}")
    density = f.weights * np.abs(f.values) ** p
    return float(_band_masses(_ball_band(f.spec, R), density).max())


def _axis_stencil(nodes: np.ndarray, query: np.ndarray):
    """Linear interpolation along one axis: the left node index i of each
    query point, the weights (w0, w1) of nodes i and i + 1, clipped to hold
    the end values, and the unclipped w1, which leaves [0, 1] beyond the end
    nodes."""
    i = np.clip(np.searchsorted(nodes, query) - 1, 0, nodes.size - 2)
    w = (query - nodes[i]) / (nodes[i + 1] - nodes[i])
    w1 = np.clip(w, 0.0, 1.0)
    return i, 1.0 - w1, w1, w


# The probed d come from a fixed lattice (the walks' powers of 2 and ladder
# points, geometric means of lattice points): one round of the benchmark's
# four 28x56 searches asks for 157 distinct d (133 with a t-query on the
# lattice), and every later round repeats them.  An LRU cache smaller than
# a round's set would miss on every call, hence the headroom.
STENCIL_CACHE = 512


@functools.lru_cache(maxsize=STENCIL_CACHE)
def _stencil(spec: GridSpec, d: float, t_shift: float):
    """The two 1-D stencils of _resample on spec's nodes, read-only and
    built once per (spec, d, t_shift): (li, li1, r0, r1, ti, ti1, c0, c1,
    vanishes).

    Row i of the result mixes value rows li[i] and li1[i] = li[i] + 1 with
    weights r0[i, 0] and r1[i, 0]; column j mixes columns ti[j] and
    ti1[j] = ti[j] + 1 with c0[j] and c1[j].  Queries beyond the outer rho
    node and outside the t lattice get zero weights; vanishes says that
    every t-query is outside, so the resampled values are all zero.
    """
    rho, t = spec.rho_nodes(), spec.t_nodes()
    logr = np.log(rho)
    li, r0, r1, wl = _axis_stencil(logr, logr - math.log(d))
    beyond = wl > 1.0
    r0[beyond] = r1[beyond] = 0.0
    # d * d underflows to 0 for d below about 1e-162, and the query of a node
    # at t = t_shift would be 0 / 0; floored, it stays 0.  Queries and
    # weights that overflow lie off the lattice and get zero weights below
    with np.errstate(over="ignore"):
        tq = (t - t_shift) / max(d * d, np.finfo(float).tiny)
        ti, c0, c1, _ = _axis_stencil(t, tq)
    off = (tq < t[0]) | (tq > t[-1])
    c0[off] = c1[off] = 0.0
    li1, ti1 = li + 1, ti + 1
    for a in (li, li1, r0, r1, ti, ti1, c0, c1):
        a.flags.writeable = False
    return li, li1, r0[:, None], r1[:, None], ti, ti1, c0, c1, bool(np.all(off))


def _resample(
    values: np.ndarray, spec: GridSpec, d: float, t_shift: float = 0.0
) -> np.ndarray:
    """f(delta_{1/d}(z, t - t_shift)) at the nodes of spec, from f's values
    there, as a fresh array.

    Bilinear interpolation in (log rho, t); values beyond the outer edges
    are taken as zero, values inside the first rho node are held constant
    (profiles of interest are flat at the axis).  The query points form a
    tensor grid, so the interpolation is one 1-D stencil per axis from the
    _stencil cache, applied along rho and then along t: values[li] * r0 +
    values[li1] * r1, then the same per column, each product and sum formed
    in place in the array a take made.  No amplitude factor is applied.
    """
    li, li1, r0, r1, ti, ti1, c0, c1, _ = _stencil(spec, d, t_shift)
    rows = values.take(li, axis=0)
    rows *= r0
    part = values.take(li1, axis=0)
    part *= r1
    rows += part
    out = rows.take(ti, axis=1)
    out *= c0
    part = rows.take(ti1, axis=1)
    part *= c1
    out += part
    return out


def dilate_grid_function(f: CylGridFunction, d: float, p: float) -> CylGridFunction:
    """Resample u -> f(delta_{1/d} u) on f's own grid, at f's L^p norm.

    The resampling is bilinear (_resample).  The continuum dilate
    d^(-Q/p) f(delta_{1/d} u) has the norm of f; on the grid the resampled
    values are scaled to |f|_p exactly, which fixes that amplitude.
    """
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"dilation factor must be positive and finite, got {d}")
    out = f.with_values(_resample(f.values, f.spec, d))
    new_norm = lp_norm(out, p)
    if new_norm == 0.0:
        raise ValueError(f"dilation by d = {d} leaves no nonzero node on the grid")
    out.values *= lp_norm(f, p) / new_norm
    return out


def renormalize_concentration(
    f: CylGridFunction, params: HlsParams
) -> tuple[CylGridFunction, float, float]:
    """Gauge-fix f: recenter in t, then dilate until Q(1) = 1/2.

    Q(R) is the Levy concentration of |f|^p over t-axis centers.  The map
    d -> Q(1) of the dilated profile is monotone in the continuum (larger
    d spreads mass), so bisection applies, in the bracket that a walk from
    d = 1 in the direction Q(1) says finds on the powers of 2 of
    _DILATION_LATTICES or, where the discrete map wiggles past them on
    coarse grids, on the finer ladder.  The bisection stops once Q(1) is
    within Q1_TOL of 1/2 or the bracket has closed to adjacent doubles.
    No d is probed twice.

    The search works on f's own values, rolled if the recentering moves
    them.  Q(1) is a ratio of masses, so a probe at a trial d needs no
    norm: it resamples the values (_resample, stencils from the _stencil
    cache), forms the density weights * |.|^p in place and divides its
    largest unit-ball mass (_band_masses over the cached _ball_band) by
    its total.  With no recentering the d = 1 probe reuses the
    recentering's masses: at d = 1 the resample is the identity bit for
    bit.  Returns (profile, d, a), the profile being the values resampled
    at d divided by their L^p norm, the one norm taken: unit L^p norm
    whatever the norm of f.
    """
    p = params.p
    values, spec, t = f.values, f.spec, f.t_nodes
    band = _ball_band(spec, 1.0)

    # grid-aligned t-recentering: roll is exact, no interpolation
    density = f.weights * np.abs(values) ** p
    if not np.any(density):
        raise ValueError("cannot gauge-fix the zero function")
    masses = _band_masses(band, density)
    best = np.flatnonzero(masses >= masses.max() * (1.0 - TIE_RTOL))
    center_idx = best[np.argmin(np.abs(t[best]))]
    mid_idx = int(np.argmin(np.abs(t)))
    shift_nodes = center_idx - mid_idx
    a = float(t[center_idx] - t[mid_idx])
    if shift_nodes != 0:
        rolled = np.zeros_like(values)
        if shift_nodes > 0:
            rolled[:, : -shift_nodes or None] = values[:, shift_nodes:]
        else:
            rolled[:, -shift_nodes :] = values[:, :shift_nodes]
        values = rolled

    def q1_from(density: np.ndarray, masses: np.ndarray) -> float:
        total = float(np.sum(density))
        return float(masses.max()) / total if total > 0.0 else 0.0

    q1_at = {1.0: q1_from(density, masses)} if shift_nodes == 0 else {}

    def q1_of(d: float) -> float:
        if d not in q1_at:
            if _stencil(spec, d, 0.0)[-1]:
                q1_at[d] = 0.0  # every t-query is off the lattice: the dilate vanishes
            else:
                density = _resample(values, spec, d)
                np.abs(density, out=density)
                density **= p
                density *= f.weights
                q1_at[d] = q1_from(density, _band_masses(band, density))
        return q1_at[d]

    target = 0.5
    up = q1_of(1.0) > target  # larger d spreads mass

    def walk(path):
        """The first step along path (from d = 1) at which Q(1) reaches 1/2,
        as (d_lo, d_hi) with Q(d_lo) >= 1/2 >= Q(d_hi); None if none does."""
        for d_prev, d in zip(path[:1] + path, path):
            q = q1_of(d)
            if q <= target if up else q >= target:
                return (d_prev, d) if up else (d, d_prev)
        return None

    for lattice in _DILATION_LATTICES:
        mid = len(lattice) // 2
        path = lattice[mid:] if up else lattice[mid::-1]
        bracket = walk(path)
        if bracket is not None:
            break
    else:  # path is the fine walk's, d = 1 included
        d = min(path, key=lambda d: abs(q1_of(d) - target))
        if abs(q1_of(d) - target) > 0.25:
            raise ValueError(
                f"vanishing-type failure: no dilation reaches Q(1) = 1/2 (nearest {q1_of(d):.4g}"
                f" at d = {d:.4g}; grid dt = {spec.dt:.4g} against the unit ball's |t| < 1)"
            )
        bracket = (d, d)
    d_lo, d_hi = bracket
    while d_lo != d_hi:
        d_mid = math.sqrt(d_lo * d_hi)
        if d_mid == d_lo or d_mid == d_hi:
            break  # adjacent doubles: every later midpoint repeats an end
        q_mid = q1_of(d_mid)
        if abs(q_mid - target) <= Q1_TOL:
            d_lo = d_hi = d_mid
            break
        if q_mid > target:
            d_lo = d_mid
        else:
            d_hi = d_mid
    d = math.sqrt(d_lo * d_hi)
    return normalized(f.with_values(_resample(values, spec, d)), p), d, a


def maximize(
    params: HlsParams,
    init: CylGridFunction,
    opts: IterationControls = IterationControls(),
) -> tuple[CylGridFunction, float, ConvergenceTrace]:
    """Safeguarded fixed-point maximization of the HLS quotient.

    Accepts a step only if the quotient does not decrease; otherwise damps
    toward the previous iterate with theta halved until acceptance or
    theta < THETA_MIN.  Stops at the first iteration that accepts no trial
    (the next one would repeat it exactly), when the quotient improves by
    less than rtol over STALL_WINDOW iterations, or at max_iter;
    trace.stop_reason says which ("no_ascent", "stall", "max_iter").

    The quotient of each trial, and I_lam of the trial it is taken from,
    come from quadrature.quotient_and_integral, so they are hls_quotient's
    bits; the I_lam f of the accepted trial (or of the start) is handed to
    the next ascent step, so the kernel table is applied once per trial and
    once more per step.
    The start and each damped mixture go to renormalize_concentration as
    they are; it returns them at the unit L^p norm the ascent step needs.
    """
    if np.any(init.values < 0.0):
        raise ValueError("initialization must be nonnegative")

    p = params.p
    f, d_used, a_used = renormalize_concentration(init, params)
    quotient, If = quotient_and_integral(f, params)
    trace = ConvergenceTrace(stop_reason="max_iter")
    trace.record(0, quotient, levy_concentration_grid(f, p), d_used, a_used, True)

    for it in range(1, opts.max_iter + 1):
        proposal = euler_lagrange_step(f, params, If)
        theta = 1.0
        accepted = False
        while theta >= THETA_MIN:
            mix = f.with_values((1.0 - theta) * f.values + theta * proposal.values)
            mix, d_used, a_used = renormalize_concentration(mix, params)
            mix_q, mix_If = quotient_and_integral(mix, params)
            if mix_q >= quotient:
                f, quotient, If, accepted = mix, mix_q, mix_If, True
                break
            theta *= 0.5
        trace.record(
            it, quotient, levy_concentration_grid(f, p), d_used, a_used, accepted
        )
        if not accepted:
            trace.stop_reason = "no_ascent"
            break
        qs = trace.quotients
        gain = qs[-1] - qs[-1 - STALL_WINDOW] if len(qs) > STALL_WINDOW else math.inf
        if gain < opts.rtol * max(quotient, 1.0):
            trace.stop_reason = "stall"
            break
    return f, quotient, trace


def align(
    f: CylGridFunction, g: CylGridFunction, p: float
) -> tuple[float, float, float]:
    """Best (dilation, t-shift) matching g to f modulo the symmetry group.

    Coarse log-spaced grid search over d and grid-spaced search over a,
    then three rounds of local refinement, each a scan of every (d, a) of
    its grid in order; inputs are compared after unit L^p normalization,
    so the residual is scale invariant.  g is moved by _resample, on the
    cached stencils the gauge fix uses.  Returns (d, a, rel_error).
    """
    fhat = normalized(f, p)
    ghat = normalized(g, p)

    def scan(best, ds, shifts):
        """best, improved by the first lowest residual over ds x shifts."""
        for d in ds:
            for a in shifts:
                d, a = float(d), float(a)
                moved = ghat.with_values(_resample(ghat.values, ghat.spec, d, a))
                moved.values /= lp_norm(moved, p)
                r = lp_norm(fhat.with_values(fhat.values - moved.values), p)
                if r < best[2]:
                    best = (d, a, r)
        return best

    dt = f.spec.dt
    d_grid = np.geomspace(0.25, 4.0, 25)
    best = scan((1.0, 0.0, math.inf), [1.0], [0.0])  # the identity first
    best = scan(best, d_grid, np.arange(-8, 9) * dt)
    d_span, a_span = math.sqrt(d_grid[1] / d_grid[0]), dt
    for _ in range(3):
        d_around = best[0] * np.geomspace(1.0 / d_span, d_span, 9)
        best = scan(best, d_around, best[1] + np.linspace(-a_span, a_span, 9))
        d_span = d_span ** 0.4
        a_span *= 0.3
    return best
