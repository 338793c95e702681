"""Maximization of the HLS quotient over cylindrically symmetric profiles.

The fixed-point ascent iterates the first-order condition of
sup |I_lam f|_q / |f|_p over the nonnegative cone,

    f  <-  normalize( ( I_lam( (I_lam f)^(q-1) ) )^(1/(p-1)) ),

interleaved with a concentration renormalization that pins the dilation
and vertical-translation gauge by two moments of the density |f|^p: the
profile is recentered so that its mean t lies within half a t cell of 0,
and dilated so that its mean log Koranyi radius is 0.  The quotient is
invariant under both operations in the continuum, so the gauge fixing
costs nothing while preventing mass from drifting off the grid.  A
damped safeguard makes the ascent monotone by construction.  Its
objective is the grid quotient of `quadrature.quotient_and_integral`,
the one `hls_quotient` returns, far-field term included.  On the grid
the gauge is not idempotent, so the trace records, for each accepted
profile, the two moments a second renormalization would set to zero.
`levy_concentration_grid` gives the Levy concentration Q(R), the
normalization of the paper's existence proof, which the search no longer
reads.

The known diagonal maximizer (`constants.h_profile` at |z|^2 = rho^2)

    H(rho, t) = ((1 + rho^2)^2 + t^2)^(-(2Q-lam)/4)

serves as the golden target: the search started anywhere reasonable should
come back to it (up to dilation and translation) with quotient near the
sharp constant.  Above the diagonal the search runs at the dual exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import HlsParams, check_lambda, diagonal_params, gaussian, h_profile
from .grids import (
    TINY, CylGridFunction, GridSpec, _grid_arrays, lp_norm, normalized, peak_scaled, sample
)
from .group import homogeneous_dimension
from .quadrature import far_field, fractional_integral_grid, quotient_and_integral


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
    """Per-iteration diagnostics of the maximization run.  t_means and
    log_radii are the gauge moments (_gauge_moments) of each record's
    accepted profile: the residual a second renormalization would remove,
    which dilates by exactly exp(-log_radius)."""

    iterations: list = field(default_factory=list)
    quotients: list = field(default_factory=list)
    t_means: list = field(default_factory=list)
    log_radii: list = field(default_factory=list)
    dilations: list = field(default_factory=list)
    t_shifts: list = field(default_factory=list)
    accepted: list = field(default_factory=list)
    stop_reason: str = ""  # "no_ascent", "stall" or "max_iter"

    def record(self, it, quotient, moments, d, a, ok):
        self.iterations.append(int(it))
        self.quotients.append(float(quotient))
        self.t_means.append(moments[0])
        self.log_radii.append(moments[1])
        self.dilations.append(float(d))
        self.t_shifts.append(float(a))
        self.accepted.append(bool(ok))

    def rows(self):
        return zip(
            self.iterations, self.quotients, self.t_means, self.log_radii,
            self.dilations, self.t_shifts, self.accepted,
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


def euler_lagrange_step(
    f: CylGridFunction, params: HlsParams, If: CylGridFunction | None = None
) -> CylGridFunction:
    """One fixed-point ascent step, output normalized in L^p.

    The gradient of |I_lam f|_q^q / q is I_lam((I_lam f)^(q-1)) plus the
    far-field term's M^(q-1) C_out(lam q) (quadrature.far_field), the same
    at every node.  Requires f >= 0 with unit L^p norm: the search lives on
    the nonnegative cone, where replacing f by |f| can only increase the
    quotient.  If is
    I_lam f when the caller already has it (maximize keeps it from the
    quotient of the accepted trial); it is computed from f otherwise.
    """
    if (f.values < 0.0).any():
        raise ValueError("euler_lagrange_step requires a nonnegative profile")
    if abs(lp_norm(f, params.p) - 1.0) > 1e-10:
        raise ValueError("euler_lagrange_step requires unit L^p norm")
    if If is None:
        If = fractional_integral_grid(f, params.lam)
    q = params.q
    g = fractional_integral_grid(If.with_values(If.values ** (q - 1.0)), params.lam)
    mass, c_out = far_field(f, params.lam * q)
    g.values += mass ** (q - 1.0) * c_out
    new_vals = np.maximum(g.values, 0.0) ** (1.0 / (params.p - 1.0))
    out = f.with_values(new_vals)
    nrm = lp_norm(out, params.p)
    if nrm == 0.0:
        raise ValueError("ascent step collapsed to zero")
    out.values /= nrm
    return out


# ---------------------------------------------------------------------------
# concentration renormalization


def levy_concentration_grid(f: CylGridFunction, p: float, R: float = 1.0) -> float:
    """sup over grid-aligned t-axis centers of the |f|^p mass in B_R.

    Balls centered on the t axis are cylindrically symmetric, so a ball's
    mass is a windowed sum over t per rho row inside it; boundary t cells
    enter with their covered share.  The share of cell j in the ball around
    t[a] depends only on j - a, so one band of offsets per row, read as
    sliding windows, gives every center.
    """
    if not (R > 0.0 and math.isfinite(R)):
        raise ValueError(f"R must be positive and finite, got {R}")
    rho, t, dt = f.rho_nodes, f.t_nodes, f.spec.dt
    inside = rho ** 4 < R ** 4
    h = np.sqrt(R ** 4 - rho[inside] ** 4)[:, None]
    offset = np.arange(1 - t.size, t.size) * dt
    lo = np.maximum(offset - 0.5 * dt, -h)
    hi = np.minimum(offset + 0.5 * dt, h)
    band = np.maximum(hi - lo, 0.0) / dt  # share of the cell at each offset
    windows = np.lib.stride_tricks.sliding_window_view(band, t.size, axis=1)
    density = f.weights[inside] * np.abs(f.values[inside]) ** p
    return float(np.einsum("isj,ij->s", windows, density).max())


def _axis_stencil(nodes: np.ndarray, query: np.ndarray):
    """Linear interpolation along one axis: the left node index i of each
    query point, the weights (w0, w1) of nodes i and i + 1, clipped to hold
    the end values, and the unclipped w1, which leaves [0, 1] beyond the end
    nodes."""
    i = np.minimum(np.maximum(nodes.searchsorted(query) - 1, 0), nodes.size - 2)
    w = (query - nodes[i]) / (nodes[i + 1] - nodes[i])
    w1 = np.minimum(np.maximum(w, 0.0), 1.0)
    return i, 1.0 - w1, w1, w


def _resample(
    values: np.ndarray, spec: GridSpec, d: float, t_shift: float = 0.0
) -> np.ndarray:
    """f(delta_{1/d}(z, t - t_shift)) at the nodes of spec, from f's values
    there, as a fresh array.

    Bilinear interpolation in (log rho, t); values beyond the outer edges
    are taken as zero, values inside the first rho node are held constant
    (profiles of interest are flat at the axis).  The query points form a
    tensor grid, so the interpolation is one 1-D stencil per axis, applied
    along rho and then along t.  No amplitude factor is applied.
    """
    rho, t, _ = _grid_arrays(spec)
    logr = np.log(rho)
    li, r0, r1, wl = _axis_stencil(logr, logr - math.log(d))
    beyond = wl > 1.0
    r0[beyond] = r1[beyond] = 0.0
    # d * d underflows to 0 for d below about 1e-162, and the query of a node
    # at t = t_shift would be 0 / 0; floored, it stays 0.  Queries and
    # weights that overflow lie off the lattice and get zero weights below
    with np.errstate(over="ignore"):
        tq = (t - t_shift) / max(d * d, TINY)
        ti, c0, c1, _ = _axis_stencil(t, tq)
    off = (tq < t[0]) | (tq > t[-1])
    c0[off] = c1[off] = 0.0
    rows = values[li] * r0[:, None] + values[li + 1] * r1[:, None]
    return rows[:, ti] * c0 + rows[:, ti + 1] * c1


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


def _density_moment(f: CylGridFunction, p: float) -> tuple[np.ndarray, float]:
    """The density |f|^p W of f at unit mass, formed from peak_scaled's
    values, and its t-mean <t>."""
    density = f.weights * np.abs(peak_scaled(f, p).values) ** p
    density /= density.sum()
    return density, float(density.sum(axis=0) @ f.t_nodes)


def _gauge_moments(f: CylGridFunction, p: float) -> tuple[float, float]:
    """The two moments the gauge sets of f's density (_density_moment): its
    t-mean c and its mean log Koranyi distance <log |u - c|> from the
    center, |u - c| = (rho^4 + (t - c)^2)^(1/4)."""
    density, c = _density_moment(f, p)
    radius4 = f.rho_nodes[:, None] ** 4 + (f.t_nodes - c) ** 2
    return c, 0.25 * float((density * np.log(radius4)).sum())


def renormalize_concentration(
    f: CylGridFunction, params: HlsParams
) -> tuple[CylGridFunction, float, float]:
    """Gauge-fix f by the moments of its density |f|^p W: center it in t
    and dilate it to mean log-radius 0.

    With the moments (c, m) of _gauge_moments, c = <t> and
    m = <log |u - c|>, the dilation is d = exp(-m): under the continuum
    dilation by d the mean log-radius shifts by exactly log d, so the
    dilate's is 0.  Its t-mean is d^2 c, which a translation by a whole
    number of t nodes, a = dt round(d^2 c / dt), brings within dt/2 of 0;
    an already centered profile is not translated at all.  Returns
    (profile, d, a), the profile being f(z / d, (t + a) / d^2) by one
    _resample, divided by its L^p norm (normalized): unit L^p norm whatever
    the norm of f.  A grid too coarse for the gauge, one whose resample is
    all zeros, is a ValueError that names d.

    On the grid the gauge is not idempotent: the resample moves the
    moments, so the returned profile's m is not 0, and renormalizing it
    again dilates by exp(-m) once more (0.984-0.992 at the ends of the
    28x56 searches).  maximize's trace records that residual (c, m) of
    every accepted profile, the log_radius column of the --trace CSV.
    """
    p, spec = params.p, f.spec
    c, m = _gauge_moments(f, p)
    d = math.exp(-m)
    a = spec.dt * round(d * d * c / spec.dt)
    values = _resample(f.values, spec, d, -a)
    if not values.any():
        raise ValueError(
            f"the moment gauge's dilation by d = {d} leaves no nonzero node on the grid"
        )
    return normalized(f.with_values(values), p), d, a


def searched_params(params: HlsParams) -> HlsParams:
    """The tuple maximize ascends at: params up to the diagonal
    p_d = 2Q/(2Q - lam), and above it the dual tuple at p* = params.r < p_d,
    whose maximizer the grid can hold; the kernel is symmetric, so
    C(r, s) = C(s, r)."""
    if params.p > diagonal_params(params.n, params.lam).p:
        return HlsParams(params.n, params.lam, params.r)
    return params


def maximize(
    params: HlsParams,
    init: CylGridFunction,
    opts: IterationControls = IterationControls(),
) -> tuple[CylGridFunction, float, ConvergenceTrace]:
    """Safeguarded fixed-point maximization of the HLS quotient (_ascend)
    at searched_params(params).  Above the diagonal that is the search at
    p* bit for bit: the dual problem's maximizer, at unit L^(p*) norm, and
    its quotient, the estimate of C(r, s) = C(s, r)."""
    return _ascend(searched_params(params), init, opts)


def _ascend(
    params: HlsParams, init: CylGridFunction, opts: IterationControls
) -> tuple[CylGridFunction, float, ConvergenceTrace]:
    """The ascent of maximize at params as given.

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
    if (init.values < 0.0).any():
        raise ValueError("initialization must be nonnegative")

    p = params.p
    f, d_used, a_used = renormalize_concentration(init, params)
    quotient, If = quotient_and_integral(f, params)
    trace = ConvergenceTrace(stop_reason="max_iter")
    trace.record(0, quotient, _gauge_moments(f, p), d_used, a_used, True)

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
        trace.record(it, quotient, _gauge_moments(f, p), d_used, a_used, accepted)
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

    g is moved by _resample, as in the gauge fix: dilated by d and shifted
    in t by a.  The shift follows from d by the density t-means of
    _density_moment, a = c_f - d^2 c_g, which puts the moved g's t-mean on
    f's, so only d is searched: d = 1, then 25 log-spaced d in [0.25, 4],
    then three rounds of 9 around the best so far, 53 resamples in all,
    each round scanned in order and the first lowest residual kept.  Inputs
    are compared after unit L^p normalization, so the residual is scale
    invariant.  Returns (d, a, rel_error).
    """
    fhat = normalized(f, p)
    ghat = normalized(g, p)
    c_f = _density_moment(fhat, p)[1]
    c_g = _density_moment(ghat, p)[1]

    def scan(best, ds):
        """best, improved by the first lowest residual over ds."""
        for d in ds:
            d = float(d)
            a = c_f - d * d * c_g
            moved = ghat.with_values(_resample(ghat.values, ghat.spec, d, a))
            moved.values /= lp_norm(moved, p)
            r = lp_norm(fhat.with_values(fhat.values - moved.values), p)
            if r < best[2]:
                best = (d, a, r)
        return best

    d_grid = np.geomspace(0.25, 4.0, 25)
    best = scan((1.0, 0.0, math.inf), [1.0, *d_grid])
    d_span = math.sqrt(d_grid[1] / d_grid[0])
    for _ in range(3):
        best = scan(best, best[0] * np.geomspace(1.0 / d_span, d_span, 9))
        d_span = d_span ** 0.4
    return best
