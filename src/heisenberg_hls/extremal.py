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
construction.

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
from .quadrature import fractional_integral_grid, hls_quotient


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
        for k in range(len(self.iterations)):
            yield (
                self.iterations[k],
                self.quotients[k],
                self.q1_concentration[k],
                self.dilations[k],
                self.t_shifts[k],
                self.accepted[k],
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


def euler_lagrange_step(f: CylGridFunction, params: HlsParams) -> CylGridFunction:
    """One fixed-point ascent step, output normalized in L^p.

    Requires f >= 0 with unit L^p norm: the search lives on the nonnegative
    cone, where replacing f by |f| can only increase the quotient.
    """
    if np.any(f.values < 0.0):
        raise ValueError("euler_lagrange_step requires a nonnegative profile")
    if abs(lp_norm(f, params.p) - 1.0) > 1e-10:
        raise ValueError("euler_lagrange_step requires unit L^p norm")
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


@functools.lru_cache(maxsize=16)
def _ball_band(spec: GridSpec, R: float):
    """Overlap table of the balls {(z,t): |z|^4 + (t-a)^2 < R^4} centered on
    the t axis at the grid-aligned heights a, for the nodes of spec.

    Balls centered on the t axis are cylindrically symmetric, so a ball's
    mass is a windowed sum over t per rho row.  Boundary t-cells enter with
    their fractional overlap, which keeps the map d -> Q(1) continuous on
    coarse grids instead of jumping a whole cell at a time.  On the uniform
    t grid the overlap of cell j with the window around t_a depends only on
    j - a, so one banded table per row serves every center.  Returns
    (inside, windows): the rows with rho < R, and windows[i, s, j], the
    share of t-cell j in row inside[i] covered by the ball centered at
    t[n_t - 1 - s].  Built once per (spec, R) and read-only.
    """
    rho, t = spec.rho_nodes(), spec.t_nodes()
    inside = rho ** 4 < R ** 4
    h = np.sqrt(R ** 4 - rho[inside] ** 4)[:, None]
    dt = t[1] - t[0]
    # band[i, m] = |cell at offset k = m - (n_t - 1) cap [-h_i, h_i]| / dt
    offset = np.arange(1 - t.size, t.size) * dt
    lo = np.maximum(offset - 0.5 * dt, -h)
    hi = np.minimum(offset + 0.5 * dt, h)
    band = np.clip(hi - lo, 0.0, None) / dt
    inside.flags.writeable = band.flags.writeable = False
    return inside, np.lib.stride_tricks.sliding_window_view(band, t.size, axis=1)


def _band_masses(band, density: np.ndarray) -> np.ndarray:
    """Ball mass of density around every grid-aligned center, from _ball_band."""
    inside, windows = band
    return np.einsum("isj,ij->s", windows, density[inside])[::-1]


def levy_concentration_grid(f: CylGridFunction, p: float, R: float = 1.0) -> float:
    """sup over grid-aligned t-axis centers of the |f|^p mass in B_R."""
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


# The probed d come from a fixed lattice (the walk's powers of 2, geometric
# means of lattice points, the 81-point ladder): one round of the
# benchmark's four 28x56 searches asks for 230 distinct d (175 with a
# t-query on the lattice), and every later round repeats them.  An LRU
# cache smaller than a round's set would miss on every call, hence the
# headroom.
STENCIL_CACHE = 512


@functools.lru_cache(maxsize=STENCIL_CACHE)
def _stencil(spec: GridSpec, d: float, t_shift: float):
    """The two 1-D stencils of _resample on spec's nodes, built once per
    (spec, d, t_shift) and read-only: (li, r0, r1, ti, c0, c1, vanishes).

    Row i of the result mixes value rows li[i] and li[i] + 1 with weights
    r0[i, 0] and r1[i, 0]; column j mixes columns ti[j] and ti[j] + 1 with
    c0[j] and c1[j].  Queries beyond the outer rho node and outside the t
    lattice get zero weights; vanishes says that every t-query is outside,
    so the resampled values are all zero.
    """
    rho, t = spec.rho_nodes(), spec.t_nodes()
    logr = np.log(rho)
    li, r0, r1, wl = _axis_stencil(logr, logr - math.log(d))
    beyond = wl > 1.0
    r0[beyond] = r1[beyond] = 0.0
    tq = (t - t_shift) / (d * d)
    ti, c0, c1, _ = _axis_stencil(t, tq)
    off = (tq < t[0]) | (tq > t[-1])
    c0[off] = c1[off] = 0.0
    for a in (li, r0, r1, ti, c0, c1):
        a.flags.writeable = False
    return li, r0[:, None], r1[:, None], ti, c0, c1, bool(np.all(off))


def _resample(
    values: np.ndarray, spec: GridSpec, d: float, t_shift: float = 0.0
) -> np.ndarray:
    """f(delta_{1/d}(z, t - t_shift)) at the nodes of spec, from f's values
    there.

    Bilinear interpolation in (log rho, t); values beyond the outer edges
    are taken as zero, values inside the first rho node are held constant
    (profiles of interest are flat at the axis).  The query points form a
    tensor grid, so the interpolation is one 1-D stencil per axis, applied
    along rho and then along t; the stencils come from the _stencil cache.
    No amplitude factor is applied.
    """
    li, r0, r1, ti, c0, c1, _ = _stencil(spec, d, t_shift)
    rows = values[li] * r0 + values[li + 1] * r1
    return rows[:, ti] * c0 + rows[:, ti + 1] * c1


def dilate_grid_function(f: CylGridFunction, d: float, p: float) -> CylGridFunction:
    """Resample u -> d^(-Q/p) f(delta_{1/d} u) on f's own grid.

    The resampling is bilinear (_resample).  The L^p norm is restored
    exactly afterwards, matching the exact invariance of the continuum
    transform.
    """
    if d <= 0.0:
        raise ValueError("dilation factor must be positive")
    old_norm = lp_norm(f, p)
    vals = _resample(f.values, f.spec, d)
    out = f.with_values(vals * d ** (-f.Q / p))
    new_norm = lp_norm(out, p)
    if new_norm > 0.0 and old_norm > 0.0:
        out.values *= old_norm / new_norm
    return out


def renormalize_concentration(
    f: CylGridFunction, params: HlsParams
) -> tuple[CylGridFunction, float, float]:
    """Gauge-fix f: recenter in t, then dilate until Q(1) = 1/2.

    Q(R) is the Levy concentration of |f|^p over t-axis centers.  The map
    d -> Q(1) of the dilated profile is monotone in the continuum (larger
    d spreads mass), so bisection applies; on grids too coarse to resolve
    the unit ball the discrete map can wiggle, and a log-ladder scan then
    locates the crossing nearest d = 1 first.  The bisection stops once
    Q(1) is within Q1_TOL of 1/2 or the bracket has closed to adjacent
    doubles.  Returns (profile, d, a) with the L^p norm preserved exactly.

    Each probe of Q(1) at a trial d resamples the values (_resample) and
    divides the largest unit-ball mass by the total mass: the factor
    d^(-Q/p) and the norm restore of dilate_grid_function cancel in that
    ratio.  The stencils of a probe and the ball overlap table come from
    caches keyed by the grid (_stencil per d, _ball_band per R), so a
    probe builds neither.  No d is probed twice, and only the final d
    builds a grid function.  When the recentering shifted nothing, the
    d = 1 probe is the recentering's own masses: at d = 1 every stencil
    weight is 0 or 1, so that resample would return the values bit for bit.
    """
    p = params.p
    norm = lp_norm(f, p)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero function")
    work = f.with_values(f.values / norm)
    spec, t = work.spec, work.t_nodes
    band = _ball_band(spec, 1.0)

    # grid-aligned t-recentering: roll is exact, no interpolation
    density = work.weights * np.abs(work.values) ** p
    masses = _band_masses(band, density)
    best = np.flatnonzero(masses >= masses.max() * (1.0 - TIE_RTOL))
    center_idx = best[np.argmin(np.abs(t[best]))]
    mid_idx = int(np.argmin(np.abs(t)))
    shift_nodes = center_idx - mid_idx
    a = float(t[center_idx] - t[mid_idx])
    if shift_nodes != 0:
        rolled = np.zeros_like(work.values)
        if shift_nodes > 0:
            rolled[:, : -shift_nodes or None] = work.values[:, shift_nodes:]
        else:
            rolled[:, -shift_nodes :] = work.values[:, :shift_nodes]
        work = work.with_values(rolled)
        renorm = lp_norm(work, p)
        if renorm == 0.0:
            raise ValueError("vanishing-type failure: mass lost under recentering")
        work.values /= renorm

    def q1_from(density: np.ndarray, masses: np.ndarray) -> float:
        total = float(np.sum(density))
        return float(masses.max()) / total if total > 0.0 else 0.0

    q1_at = {1.0: q1_from(density, masses)} if shift_nodes == 0 else {}

    def q1_of(d: float) -> float:
        if d not in q1_at:
            if _stencil(spec, d, 0.0)[-1]:
                q1_at[d] = 0.0  # every t-query is off the lattice: the dilate vanishes
            else:
                density = work.weights * np.abs(_resample(work.values, spec, d)) ** p
                q1_at[d] = q1_from(density, _band_masses(band, density))
        return q1_at[d]

    # walk from d = 1 by factors of 2 in the direction Q(1) says (larger d
    # spreads mass) until Q(1) reaches 1/2; the last two steps bracket it
    target = 0.5
    d = d_prev = 1.0
    q = q1_of(d)
    up = q > target
    bracketed = True
    while q > target if up else q < target:
        d_prev, d = d, d * (2.0 if up else 0.5)
        if not 1e-8 <= d <= 1e8:
            bracketed = False
            break
        q = q1_of(d)
    d_lo, d_hi = (d_prev, d) if up else (d, d_prev)
    if not bracketed:
        # on coarse grids d -> Q(1) need not be monotone (mass resampled
        # between nodes); scan a log ladder for the crossing nearest d = 1
        ladder = np.geomspace(1e-4, 1e4, 81)
        qs = np.array([q1_of(float(d)) for d in ladder])
        sign = np.sign(qs - target)
        crossings = np.flatnonzero(sign[:-1] * sign[1:] <= 0.0)
        if crossings.size:
            j = crossings[np.argmin(np.abs(np.log(ladder[crossings])))]
            d_lo, d_hi = float(ladder[j]), float(ladder[j + 1])
            if qs[j] < target:
                d_lo, d_hi = d_hi, d_lo  # orient: Q(d_lo) >= target
        else:
            best = int(np.argmin(np.abs(qs - target)))
            if abs(qs[best] - target) > 0.25:
                raise ValueError(
                    "vanishing-type failure: no dilation reaches Q(1) = 1/2"
                )
            d_lo = d_hi = float(ladder[best])
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
    out = dilate_grid_function(work, d, p)
    out.values *= norm / lp_norm(out, p)
    return out, d, a


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
    """
    if not np.any(init.values != 0.0):
        raise ValueError("initialization must be nonzero")
    if np.any(init.values < 0.0):
        raise ValueError("initialization must be nonnegative")

    p = params.p
    f = normalized(init, p)
    f, d_used, a_used = renormalize_concentration(f, params)
    quotient = hls_quotient(f, params)
    trace = ConvergenceTrace(stop_reason="max_iter")
    trace.record(0, quotient, levy_concentration_grid(f, p), d_used, a_used, True)

    for it in range(1, opts.max_iter + 1):
        proposal = euler_lagrange_step(f, params)
        theta = 1.0
        accepted = False
        while theta >= THETA_MIN:
            mix = f.with_values((1.0 - theta) * f.values + theta * proposal.values)
            mix.values /= lp_norm(mix, p)
            mix, d_used, a_used = renormalize_concentration(mix, params)
            mix_q = hls_quotient(mix, params)
            if mix_q >= quotient:
                f, quotient, accepted = mix, mix_q, True
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
    then three rounds of local refinement; inputs are compared after unit
    L^p normalization, so the residual is scale invariant.  Returns
    (d, a, rel_error).
    """
    fhat = normalized(f, p)
    ghat = normalized(g, p)

    def residual(d, a):
        moved = ghat.with_values(_resample(ghat.values, ghat.spec, d, a))
        moved.values /= lp_norm(moved, p)
        return lp_norm(fhat.with_values(fhat.values - moved.values), p)

    dt = float(f.t_nodes[1] - f.t_nodes[0])
    best = (1.0, 0.0, residual(1.0, 0.0))
    d_grid = np.geomspace(0.25, 4.0, 25)
    a_grid = np.arange(-8, 9) * dt
    for d in d_grid:
        for a in a_grid:
            r = residual(d, a)
            if r < best[2]:
                best = (float(d), float(a), r)
    d_span, a_span = math.sqrt(d_grid[1] / d_grid[0]), dt
    for _ in range(3):
        d0, a0, _ = best
        for d in d0 * np.geomspace(1.0 / d_span, d_span, 9):
            for a in a0 + np.linspace(-a_span, a_span, 9):
                r = residual(float(d), float(a))
                if r < best[2]:
                    best = (float(d), float(a), r)
        d_span = d_span ** 0.4
        a_span *= 0.3
    return best
