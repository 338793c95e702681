"""Importance-sampled Monte Carlo for the bilinear HLS energy.

Works for any n on the Heisenberg group and, through the flat geometry,
on R^N; this is the evaluation path for dimensions the deterministic
quadrature does not cover.

Estimator: with v = u w (group translate),

    E[f, g] = E_{u ~ p_u, w ~ p_w} [ f(u) g(u w) |w|^(-lam) / (p_u(u) p_w(w)) ].

The w proposal is an equal mixture of a broad heavy-tailed component and a
near-diagonal component whose radial density is proportional to
r^(Q-1-lam) on (0, R0]; the latter cancels the kernel singularity exactly,
which keeps the estimator variance bounded for all lam in (0, Q).

Sampling uses the polar structure of homogeneous balls: a point with a
radial law r and a direction drawn from the unit sphere's cone measure is
delta_r(direction).  The cone measure is sampled exactly from Gaussians
(``Geometry.sphere``) and radial laws by inversion, so no sampler rejects
at any n.  Each proposal also returns the radii it drew; they give the
kernel and both densities, so no norm is recomputed.

The samples are split into ``workers`` streams spawned from the seed by
SeedSequence, and each stream into chunks of at most CHUNK samples; each
chunk draws from an SFC64 generator seeded by its own SeedSequence child
of its stream.  A chunk is drawn and evaluated component-major, (dim, m)
arrays with one contiguous row per coordinate: the sphere's normals are
drawn in that shape and scaled in place, and the dilations and the group
product are row operations.  A chunk returns only its (sum, sum of
squares).

The chunks run on a thread pool of one thread per CPU the process may
use, at most MAX_THREADS and at most one per chunk.  Their work is numpy
code, whose ufuncs release the GIL.  Their partial sums are added in chunk
order, so the result depends on (seed, workers, samples) alone: bitwise
the same at any thread count.  No partial sum goes through BLAS, whose own
threads could reorder it.  Working memory is O(threads * CHUNK * dim)
whatever the sample count.
Threads that each run whole chunks scale about 1.8x on 2 cores
(H at n = 1, 2, 3 and the R^3 extremal, 2.5 * 10^5 samples each;
numpy 2.4.6), while one thread drawing chunk k + 1 as another evaluated
chunk k gained nothing (0.442 s against 0.438 s for the same four calls).
Drawing the sphere's normals component-major from SFC64 took those four
calls from 213 to 166 ms (median of 20 alternating rounds in one process)
against (m, 3n + 1) blocks read through their transpose from PCG64; the
component-major sphere alone gave 182 ms, SFC64 alone 201 ms.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .group import ball_volume as heis_ball_volume
from .group import check_n, norm_coords
from .constants import check_lambda, gaussian, h_profile, unit_sphere_area

# proposal shapes: the near-diagonal w component lives on (0, R0], both
# Pareto components decay with tail exponent ALPHA, and the u proposal's
# uniform core has radius U_SCALE
R0 = 1.0
ALPHA = 1.5
U_SCALE = 2.0
# samples drawn and evaluated at once per chunk: working memory is
# O(threads * CHUNK * dim); the chunk boundaries and the generator calls'
# shapes follow CHUNK, so changing it changes the draws
CHUNK = 2 ** 15
# the most threads of the pool, whatever the host: each thread holds one
# chunk (about 6 MiB at n = 3), so the pool's working memory stays bounded
# on a host of any size
MAX_THREADS = 4


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Geometry:
    """Ambient geometry: Heisenberg H^n or Euclidean R^N.  ``norm`` and
    ``uniform_ball`` use (m, dim) rows, the other methods (dim, m) arrays."""

    kind: str  # "heisenberg" | "euclidean"
    n: int  # complex dimension for heisenberg, N for euclidean

    def __post_init__(self):
        if self.kind not in ("heisenberg", "euclidean"):
            raise ValueError(f"unknown geometry {self.kind!r}")
        object.__setattr__(self, "n", check_n(self.n, "n" if self.kind == "heisenberg" else "N"))

    @property
    def dim(self) -> int:
        return 2 * self.n + 1 if self.kind == "heisenberg" else self.n

    @property
    def Q(self) -> float:
        return float(2 * self.n + 2 if self.kind == "heisenberg" else self.n)

    def ball_volume(self) -> float:
        if self.kind == "heisenberg":
            return heis_ball_volume(self.n)
        return unit_sphere_area(self.n) / self.n

    def norm(self, pts: np.ndarray) -> np.ndarray:
        if self.kind == "heisenberg":
            return norm_coords(pts, self.n)
        return np.sqrt(np.einsum("ij,ij->i", pts, pts))

    def shift(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Group product u w, written into w."""
        if self.kind == "heisenberg":
            n = self.n
            twist = np.einsum("jm,jm->m", u[n : 2 * n], w[:n])
            twist -= np.einsum("jm,jm->m", u[:n], w[n : 2 * n])
            w[2 * n] += 2.0 * twist
        w += u
        return w

    def dilate(self, r: float | np.ndarray, pts: np.ndarray) -> np.ndarray:
        """delta_r(pts), in place."""
        if self.kind == "heisenberg":
            pts[: 2 * self.n] *= r
            pts[2 * self.n] *= r * r
        else:
            pts *= r
        return pts

    def sphere(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m exact samples of the unit sphere's cone measure, the direction
        law of a uniform ball point; every column has norm 1.

        Drawn component-major: a (dim, m) block of normals, one contiguous
        row per coordinate, is scaled into the output in place."""
        out = rng.standard_normal((self.dim, m))
        if self.kind == "euclidean":
            out /= np.sqrt(np.einsum("jm,jm->m", out, out))
            return out
        # in (|z|^2, t) = (cos a, sin a) the cone measure has density
        # proportional to (1 - s^2)^(n/2 - 1) in s = sin a, the law of the
        # last coordinate of a uniform direction (h, h0) / |(h, h0)| in
        # R^(n+1): h0 is the t row's normal, |h|^2 ~ chi^2_n comes from a
        # second (n, m) block
        n = self.n
        z, h0 = out[: 2 * n], out[2 * n]
        h = rng.standard_normal((n, m))
        hsq = np.einsum("jm,jm->m", h, h)
        h_len = np.sqrt(hsq + h0 * h0)
        z *= np.sqrt(np.sqrt(hsq) / h_len / np.einsum("jm,jm->m", z, z))
        h0 /= h_len
        return out

    def uniform_ball(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m uniform samples in the unit ball: radius U^(1/Q), cone direction."""
        dirs = self.sphere(rng, m)
        return np.ascontiguousarray(self.dilate(rng.random(m) ** (1.0 / self.Q), dirs).T)


@dataclass(frozen=True)
class ParetoBall:
    """Density c * max(|x|, r0)^-(alpha+Q): uniform core, Pareto tail.
    ``sample`` returns (dim, m) points and the radii it drew, their norms."""

    geom: Geometry
    r0: float
    alpha: float

    def sample(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        # cone direction, radius by inversion: the core holds mass
        # alpha / (alpha + Q) with radius r0 U^(1/Q), the tail r0 U^(-1/alpha);
        # U = 1 - random() lies in (0, 1], so the tail radius is finite
        dirs = self.geom.sphere(rng, m)
        core = rng.random(m) < self.alpha / (self.alpha + self.geom.Q)
        u = 1.0 - rng.random(m)
        r = self.r0 * u ** np.where(core, 1.0 / self.geom.Q, -1.0 / self.alpha)
        return self.geom.dilate(r, dirs), r

    def pdf(self, r: np.ndarray) -> np.ndarray:
        """Density at points of norm r."""
        Q = self.geom.Q
        c = self.r0 ** self.alpha * self.alpha / (self.geom.ball_volume() * (self.alpha + Q))
        return c * np.maximum(r, self.r0) ** (-(self.alpha + Q))


@dataclass(frozen=True)
class SingularMatched:
    """Radial density proportional to r^(Q-1-lam) on (0, r0], cone direction;
    the pointwise density is then proportional to |w|^(-lam).  ``sample``
    returns (dim, m) points and the radii it drew, their norms."""

    geom: Geometry
    r0: float
    lam: float

    def sample(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        # radius r0 U^(1/(Q-lam)) with U in (0, 1], never the origin
        dirs = self.geom.sphere(rng, m)
        r = self.r0 * (1.0 - rng.random(m)) ** (1.0 / (self.geom.Q - self.lam))
        return self.geom.dilate(r, dirs), r

    def pdf(self, r: np.ndarray) -> np.ndarray:
        """Density at points of norm r."""
        Q = self.geom.Q
        c = (Q - self.lam) / (Q * self.geom.ball_volume() * self.r0 ** (Q - self.lam))
        with np.errstate(divide="ignore"):
            val = c * r ** (-self.lam)
        return np.where(r <= self.r0, val, 0.0)


def mc_bilinear_energy(
    f, g, lam: float, n: int, samples: int, seed: int,
    workers: int = 1, geometry: str = "heisenberg",
) -> tuple[float, float]:
    """Monte Carlo estimate of the bilinear energy; returns (estimate, stderr).

    f and g are vectorized callables on coordinate arrays of shape
    (m, dim): (x, y, t) rows for the Heisenberg geometry, plain x rows for
    the Euclidean one (transposed views of the component-major chunks).
    Chunks are evaluated on several threads, so f and g may be called from
    several threads at once and must not share mutable state between calls.
    """
    for name, count in (("samples", samples), ("workers", workers)):
        if not float(count).is_integer():
            raise ValueError(f"{name} must be an integer, got {count}")
    samples, workers = int(samples), int(workers)
    if samples < 1000:
        raise ValueError("samples must be at least 10^3")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > samples:
        raise ValueError(f"workers ({workers}) must not exceed samples ({samples})")
    geom = Geometry(geometry, n)
    check_lambda(lam, geom.Q)

    u_prop = ParetoBall(geom, U_SCALE, ALPHA)
    w_broad = ParetoBall(geom, R0, ALPHA)
    w_near = SingularMatched(geom, R0, lam)

    def chunk_sums(seq: np.random.SeedSequence, m: int) -> tuple[float, float]:
        rng = np.random.Generator(np.random.SFC64(seq))
        u, r_u = u_prop.sample(rng, m)
        # w from the equal mixture: a Binomial(m, 1/2) count of near draws,
        # then the broad ones, in one array; u is i.i.d. and independent of
        # w, so the pairs have the law of i.i.d. labels
        m_near = int(rng.binomial(m, 0.5))
        w, r_w = np.empty((geom.dim, m)), np.empty(m)
        w[:, :m_near], r_w[:m_near] = w_near.sample(rng, m_near)
        w[:, m_near:], r_w[m_near:] = w_broad.sample(rng, m - m_near)
        # the drawn radii give the kernel and both radial densities
        p_w = 0.5 * w_near.pdf(r_w) + 0.5 * w_broad.pdf(r_w)
        vals = f(u.T) * g(geom.shift(u, w).T) * r_w ** (-lam) / (u_prop.pdf(r_u) * p_w)
        # einsum, not np.dot: BLAS may split a long dot product over its
        # own threads, and so change its bits with the CPU set
        return float(vals.sum()), float(np.einsum("i,i->", vals, vals))

    streams = np.random.SeedSequence(seed).spawn(workers)
    counts = [samples // workers + (i < samples % workers) for i in range(workers)]
    # the seed and size of every chunk, in chunk order: one child of its
    # stream per chunk
    seeds, sizes = [], []
    for stream, count in zip(streams, counts):
        seeds += stream.spawn(-(-count // CHUNK))
        sizes += [min(CHUNK, count - start) for start in range(0, count, CHUNK)]
    threads = min(_cpu_count(), MAX_THREADS, len(sizes))

    # added left to right (sum() of floats compensates on newer Pythons,
    # which would change the bits with the interpreter)
    total = total_sq = 0.0
    with ThreadPoolExecutor(threads) as pool:
        for part_sum, part_sq in pool.map(chunk_sums, seeds, sizes):
            total += part_sum
            total_sq += part_sq

    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(var / samples)


def _zsq_t(pts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(|z|^2, t) of (x, y, t) coordinate rows."""
    return np.einsum("ij,ij->i", pts[:, : 2 * n], pts[:, : 2 * n]), pts[:, 2 * n]


def heisenberg_extremal_callable(n: int, lam: float):
    """The closed-form diagonal extremal profile as a coordinate callable."""
    return lambda pts: h_profile(n, lam, *_zsq_t(pts, n))


def gaussian_callable(n: int):
    """The Gaussian exp(-|z|^2 - t^2) as a coordinate callable."""
    return lambda pts: gaussian(*_zsq_t(pts, n))


def euclidean_extremal_callable(N: int, lam: float):
    """The Euclidean diagonal extremal (1 + |x|^2)^(-(2N-lam)/2)."""
    expo = (2 * N - lam) / 2.0
    return lambda pts: (1.0 + np.einsum("ij,ij->i", pts, pts)) ** (-expo)


def ball_indicator_callable(n: int):
    """Indicator of the unit ball of H^n as a coordinate callable."""
    return lambda pts: (norm_coords(pts, n) < 1.0).astype(float)
