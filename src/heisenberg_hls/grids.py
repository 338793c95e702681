"""Cylindrically symmetric grid functions on H^n.

A function f(|z|, t) is sampled on a tensor grid: rho nodes on a geometric
progression (resolves both the origin and the tail) and uniform symmetric
t nodes.  The quadrature weight of node (i, j) is the measure of its cell,

    W[i, j] = omega_{2n-1} * rho_i^(2n-1) * drho_i * dt,

with omega_{2n-1} = 2 pi^n / (n-1)! the area of the unit sphere in R^(2n).
rho cell edges sit at the geometric means of consecutive nodes, so composite
quadrature is uniform in log(rho); t cells have constant width dt.

A `GridSpec` fixes the grid.  A `CylGridFunction` is a spec plus its
values: nodes and weights are built once per spec and shared, read-only,
by every function on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .group import check_n, homogeneous_dimension
from .constants import unit_sphere_area

# the smallest normal float, and its log, built once rather than per call
TINY = np.finfo(float).tiny
LOG_TINY = math.log(TINY)


@dataclass(frozen=True)
class GridSpec:
    """Parameters of a (rho, t) tensor grid; hashable so nodes and weights
    can be cached per spec and kernel tables per (spec, lambda)."""

    n: int = 1
    n_rho: int = 64
    rho_min: float = 1e-3
    rho_max: float = 50.0
    n_t: int = 128
    t_max: float = 50.0

    def __post_init__(self):
        object.__setattr__(self, "n", check_n(self.n))
        for name in ("rho_min", "rho_max", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 < self.rho_min < self.rho_max):
            raise ValueError("need 0 < rho_min < rho_max")
        for name in ("n_rho", "n_t"):
            count = getattr(self, name)
            if not (count >= 4 and float(count).is_integer()):
                raise ValueError(f"{name} must be an integer >= 4, got {count}")
            object.__setattr__(self, name, int(count))
        if not self.t_max > 0.0:
            raise ValueError("t_max must be positive")
        # the kernel forms D + b^2 = (rho^2 + rho'^2)^2 + tau^2 with rho, rho'
        # up to the outer rho cell edge e and |tau| up to 2 t_max + dt, and the
        # profiles (1 + rho^2)^2 + t^2 stay below it; each of 4 e^4 and
        # (2 t_max + dt)^2 must lie a factor exp(1) below the largest float, so
        # their sum is finite
        big = math.log(np.finfo(float).max) - 1.0
        log_rho = math.log(self.rho_max)
        log_edge = log_rho + (log_rho - math.log(self.rho_min)) / (2 * (self.n_rho - 1))
        if math.log(4.0) + 4.0 * log_edge > big:
            raise ValueError(
                f"rho_max = {self.rho_max:g} is too large: the outer rho cell edge "
                f"10^{log_edge / math.log(10.0):.1f} overflows the kernel's b^2 = 4 rho^2 rho'^2"
            )
        if 2.0 * math.log(2.0 * self.t_max + self.dt) > big:
            raise ValueError(
                f"t_max = {self.t_max:g} is too large: the kernel's tau^2 overflows "
                f"at |tau| = 2 t_max + dt"
            )

    def rho_nodes(self) -> np.ndarray:
        return np.geomspace(self.rho_min, self.rho_max, self.n_rho)

    def t_nodes(self) -> np.ndarray:
        return np.linspace(-self.t_max, self.t_max, self.n_t)

    @property
    def dt(self) -> float:
        return 2.0 * self.t_max / (self.n_t - 1)

    def refined(self) -> "GridSpec":
        """Spec with both grid spacings halved (geometric midpoints in rho,
        arithmetic midpoints in t)."""
        return replace(self, n_rho=2 * self.n_rho - 1, n_t=2 * self.n_t - 1)


def rho_cell_edges(rho: np.ndarray) -> np.ndarray:
    """Cell edges: geometric means between nodes, geometrically extrapolated
    at both ends.  len(edges) = len(rho) + 1."""
    inner = np.sqrt(rho[:-1] * rho[1:])
    lo = rho[0] * math.sqrt(rho[0] / rho[1])
    hi = rho[-1] * math.sqrt(rho[-1] / rho[-2])
    return np.concatenate([[lo], inner, [hi]])


def build_weights(spec: GridSpec) -> np.ndarray:
    rho = spec.rho_nodes()
    edges = rho_cell_edges(rho)
    drho = np.diff(edges)
    radial = unit_sphere_area(2 * spec.n) * rho ** (2 * spec.n - 1) * drho
    return np.outer(radial, np.full(spec.n_t, spec.dt))


@functools.lru_cache(maxsize=16)
def _grid_arrays(spec: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho nodes, t nodes, weights) of spec, built once and read-only, so
    every grid function on spec shares them."""
    arrays = spec.rho_nodes(), spec.t_nodes(), build_weights(spec)
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass
class CylGridFunction:
    """Samples of a cylindrically symmetric function on the grid of spec.

    values[i, j] = f(rho_nodes[i], t_nodes[j]); weights carry the full
    cylindrical measure so that sums against weights approximate integrals
    over H^n.  Nodes and weights come from spec and are shared, read-only,
    by every function on it.
    """

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self._rho, self._t, self._w = _grid_arrays(self.spec)
        self.values = np.asarray(self.values, dtype=float)
        shape = (self.spec.n_rho, self.spec.n_t)
        if self.values.shape != shape:
            raise ValueError(f"values must have shape {shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def Q(self) -> int:
        return homogeneous_dimension(self.spec.n)

    @property
    def rho_nodes(self) -> np.ndarray:
        return self._rho

    @property
    def t_nodes(self) -> np.ndarray:
        return self._t

    @property
    def weights(self) -> np.ndarray:
        return self._w

    def same_grid(self, other: "CylGridFunction") -> bool:
        return self.spec == other.spec

    def with_values(self, values: np.ndarray) -> "CylGridFunction":
        return CylGridFunction(self.spec, values)


def empty_grid_function(spec: GridSpec) -> CylGridFunction:
    return CylGridFunction(spec, np.zeros((spec.n_rho, spec.n_t)))


def sample(func, spec: GridSpec) -> CylGridFunction:
    """Sample func(rho, t) (vectorized over meshgrids) on the grid."""
    g = empty_grid_function(spec)
    R, T = np.meshgrid(g.rho_nodes, g.t_nodes, indexing="ij")
    g.values[:] = func(R, T)
    return g


def lp_norm(f: CylGridFunction, p: float) -> float:
    """Discrete L^p norm (sum of weights * |values|^p)^(1/p)."""
    if not p >= 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    total = float((f.weights * np.abs(f.values) ** p).sum())
    return total ** (1.0 / p)


def peak_scaled(f: CylGridFunction, p: float) -> CylGridFunction:
    """f divided by its largest |value| when that value's p-th power
    underflows, which would leave sums of |f|^p with no digits; f itself
    otherwise."""
    peak = float(np.abs(f.values).max())
    if peak == 0.0:
        raise ValueError("cannot normalize the zero function")
    if p * math.log(peak) < LOG_TINY:
        return f.with_values(f.values / peak)
    return f


def normalized(f: CylGridFunction, p: float) -> CylGridFunction:
    """peak_scaled(f, p) divided by its L^p norm."""
    f = peak_scaled(f, p)
    return f.with_values(f.values / lp_norm(f, p))


def ball_indicator(spec: GridSpec) -> CylGridFunction:
    """Indicator of the unit ball {rho^4 + t^2 < 1}, antialiased.

    Each node value carries the exact ball mass of its cell divided by the
    node's quadrature weight, so the discrete L^1 mass matches
    |B_1| to quadrature accuracy rather than stair-step accuracy.
    Values may exceed 1 by the small factor separating the trapezoid-in-log
    weights from exact cell measures (about dlog^2/8).
    """
    g = empty_grid_function(spec)
    rho = g.rho_nodes
    t = g.t_nodes
    edges = rho_cell_edges(rho)
    dt = spec.dt
    t_lo = t - 0.5 * dt
    t_hi = t + 0.5 * dt
    # 8-point Gauss-Legendre in rho inside each cell
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    two_n_minus_1 = 2 * spec.n - 1
    for i in range(rho.size):
        a, b = edges[i], edges[i + 1]
        rr = 0.5 * (b - a) * gl_x + 0.5 * (a + b)
        ww = 0.5 * (b - a) * gl_w
        h2 = 1.0 - rr ** 4
        h = np.sqrt(np.clip(h2, 0.0, None))  # t half-width of the ball at rho=rr
        # overlap length of [t_lo_j, t_hi_j] with [-h, h], per GL node
        lo = np.maximum(t_lo[None, :], -h[:, None])
        hi = np.minimum(t_hi[None, :], h[:, None])
        overlap = np.clip(hi - lo, 0.0, None)
        cell_mass = unit_sphere_area(2 * spec.n) * np.einsum(
            "g,g,gj->j", ww, rr ** two_n_minus_1, overlap
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            g.values[i, :] = np.where(g.weights[i, :] > 0, cell_mass / g.weights[i, :], 0.0)
    return g
