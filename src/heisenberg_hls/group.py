"""Heisenberg group arithmetic.

The group H^n is C^n x R with product

    (z, t) (z', t') = (z + z', t + t' + 2 Im(z . conj(z')))

where z . conj(z') = sum_j z_j conj(z'_j).  Points are stored with flat real
coordinates (x_1..x_n, y_1..y_n, t), so the twist term reads

    Im(z . conj(z')) = sum_j (y_j x'_j - x_j y'_j).

Dilations are delta_d(z, t) = (d z, d^2 t), the homogeneous norm is
|(z, t)| = (|z|^4 + t^2)^(1/4), and the homogeneous dimension is Q = 2n + 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


def homogeneous_dimension(n: int) -> int:
    return 2 * n + 2


def check_n(n, label: str = "n") -> int:
    """n as an int; ValueError unless it is a positive integer (label names
    it in the message, N for a Euclidean dimension)."""
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError(f"{label} must be a positive integer, got {n}")
    return int(n)


@dataclass(frozen=True)
class GroupPoint:
    """A point of H^n: 2n horizontal coordinates (x parts then y parts) and t."""

    n: int
    z: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "n", check_n(self.n))
        z = np.asarray(self.z, dtype=float)
        if z.shape != (2 * self.n,):
            raise ValueError(f"z must have shape ({2 * self.n},), got {z.shape}")
        if not (np.all(np.isfinite(z)) and math.isfinite(self.t)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", float(self.t))

    @property
    def x(self) -> np.ndarray:
        return self.z[: self.n]

    @property
    def y(self) -> np.ndarray:
        return self.z[self.n :]

    def coords(self) -> np.ndarray:
        """Flat coordinate vector (x, y, t) of length 2n + 1."""
        return np.concatenate([self.z, [self.t]])


def identity(n: int) -> GroupPoint:
    return GroupPoint(n, np.zeros(2 * n), 0.0)


def _check_same_n(u: GroupPoint, v: GroupPoint):
    if u.n != v.n:
        raise ValueError(f"dimension mismatch: n={u.n} vs n={v.n}")


def multiply(u: GroupPoint, v: GroupPoint) -> GroupPoint:
    """Group product u v = (z + z', t + t' + 2 Im(z . conj(z')))."""
    _check_same_n(u, v)
    twist = float(np.dot(u.y, v.x) - np.dot(u.x, v.y))
    return GroupPoint(u.n, u.z + v.z, u.t + v.t + 2.0 * twist)


def inverse(u: GroupPoint) -> GroupPoint:
    """Group inverse u^-1 = (-z, -t)."""
    return GroupPoint(u.n, -u.z, -u.t)


def dilate(d: float, u: GroupPoint) -> GroupPoint:
    """Anisotropic dilation delta_d(z, t) = (d z, d^2 t), d > 0."""
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"dilation factor must be positive and finite, got {d}")
    return GroupPoint(u.n, d * u.z, d * d * u.t)


def norm(u: GroupPoint) -> float:
    """Homogeneous norm (|z|^4 + t^2)^(1/4)."""
    zsq = float(np.dot(u.z, u.z))
    return (zsq * zsq + u.t * u.t) ** 0.25


def distance(u: GroupPoint, v: GroupPoint) -> float:
    """Left-invariant metric d(u, v) = |u^-1 v|."""
    _check_same_n(u, v)
    return norm(multiply(inverse(u), v))


def ball_volume(n: int) -> float:
    """Volume of the unit ball {|u| < 1} in H^n.

    With Q = 2n + 2:

        |B_1| = 2 pi^((Q-2)/2) Gamma(1/2) Gamma((Q+2)/4)
                / ((Q-2) Gamma((Q-2)/2) Gamma((Q+4)/4))

    Evaluated in log space; the radius-R ball has volume R^Q |B_1|.
    """
    Q = homogeneous_dimension(check_n(n))
    lg = (
        math.log(2.0)
        + 0.5 * (Q - 2) * math.log(math.pi)
        + float(gammaln(0.5))
        + float(gammaln((Q + 2) / 4.0))
        - math.log(Q - 2.0)
        - float(gammaln((Q - 2) / 2.0))
        - float(gammaln((Q + 4) / 4.0))
    )
    return math.exp(lg)


# Array-level versions used by the Monte Carlo and concentration modules.
# Points are rows (x_1..x_n, y_1..y_n, t) of an (m, 2n+1) array.


def norm_coords(pts: np.ndarray, n: int) -> np.ndarray:
    pts = np.atleast_2d(pts)
    zsq = np.einsum("ij,ij->i", pts[:, : 2 * n], pts[:, : 2 * n])
    return (zsq * zsq + pts[:, 2 * n] ** 2) ** 0.25


def multiply_coords(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Row-wise group product of coordinate arrays (broadcasting rows)."""
    u = np.atleast_2d(u)
    v = np.atleast_2d(v)
    u, v = np.broadcast_arrays(u, v)
    out = u + v
    twist = np.einsum("ij,ij->i", u[:, n : 2 * n], v[:, :n]) - np.einsum(
        "ij,ij->i", u[:, :n], v[:, n : 2 * n]
    )
    out[:, 2 * n] = u[:, 2 * n] + v[:, 2 * n] + 2.0 * twist
    return out

