"""Concentration-compactness diagnostics on H^n.

Given a sequence of normalized mass distributions rho_j, exactly one of
three behaviours survives along a subsequence: vanishing (the Levy
concentration Q_j(R) = sup_u mass(B_R(u)) tends to 0 for every R),
compactness up to translations (all mass eventually inside a fixed ball
around moving centers), or dichotomy (mass splits k / 1-k into pieces
whose separation grows).  The classifier here estimates the limiting
concentration profile over a probe radius grid and reports a verdict with
its diagnostics; it is an asymptotic statement read off finite data, so
the thresholds are explicitly heuristic.

The strict-subadditivity gap 1 - k^(q/p) - (1-k)^(q/p), positive for
0 < k < 1 whenever q > p, is the mechanism that rules dichotomy out for
maximizing sequences of the HLS quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import CylGridFunction
from .group import GroupPoint, check_n, multiply_coords
from .montecarlo import Geometry

# probe radii of the concentration profile; read-only because every
# TrichotomyVerdict hands it out as profile_R
R_GRID = np.geomspace(0.5, 6.0, 12)
R_GRID.flags.writeable = False
# atoms per side of the square blocks the ball-mass kernel forms at a time
BLOCK = 128


@dataclass
class DiscreteMeasure:
    """Nonnegative mass on H^n as a weighted point cloud.

    points has shape (m, 2n+1) with rows (x_1..x_n, y_1..y_n, t).
    """

    n: int
    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.n = check_n(self.n)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.masses = np.asarray(self.masses, dtype=float).ravel()
        if self.points.shape != (self.masses.size, 2 * self.n + 1):
            raise ValueError(
                f"points must have shape (m, {2 * self.n + 1}) matching masses"
            )
        if np.any(self.masses < 0.0):
            raise ValueError("masses must be nonnegative")
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.masses))):
            raise ValueError("points and masses must be finite")

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def normalized(self) -> "DiscreteMeasure":
        tot = self.total_mass
        if tot <= 0.0:
            raise ValueError("cannot normalize a zero measure")
        return DiscreteMeasure(self.n, self.points, self.masses / tot)

    def translated(self, u: GroupPoint) -> "DiscreteMeasure":
        """Left translation: atoms move to u * atom."""
        if u.n != self.n:
            raise ValueError("dimension mismatch")
        moved = multiply_coords(u.coords()[None, :], self.points, self.n)
        return DiscreteMeasure(self.n, moved, self.masses.copy())


def _factors(points: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row factors A, B, each (2, m, 2n+2), of the atoms (x, y, t) in points:
    A[0]_a . B[0]_b = |z_b - z_a|^2 and
    A[1]_a . B[1]_b = t_b - t_a + 2 sum_j (x_a,j y_b,j - y_a,j x_b,j)."""
    z, t = points[:, : 2 * n], points[:, 2 * n :]
    one, zsq = np.ones_like(t), np.sum(z * z, axis=1, keepdims=True)
    A = np.stack([np.hstack([zsq, one, z]), np.hstack([one, -t, 2.0 * z[:, :n], -2.0 * z[:, n:]])])
    B = np.stack([np.hstack([one, zsq, -2.0 * z]), np.hstack([t, one, z[:, n:], z[:, :n]])])
    return A, B


def _d4(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Fourth powers of the distances |a^-1 b| (symmetric, |u^-1 v| = |v^-1 u|)
    between the atoms a with row factors A and the atoms b with column
    factors B, as an (A rows, B rows) block: the sum of the squares of the
    two factor products."""
    P = A @ B.transpose(0, 2, 1)
    P *= P
    return P[0] + P[1]


def _ball_masses(mu: DiscreteMeasure, R_grid: np.ndarray) -> np.ndarray:
    """masses[k, i] = mu(B_R(atom_i)) for the open ball of radius R_grid[k].

    Each pair of atoms is compared once, d^4 against R^4: the atoms are cut
    into blocks of BLOCK, only blocks on or above the diagonal are formed,
    and an off-diagonal block adds to the balls of both its row atoms and
    its column atoms.  Memory is O(len(R_grid) BLOCK^2) besides the result."""
    R4 = np.asarray(R_grid, dtype=float)[:, None, None] ** 4
    A, B = _factors(mu.points, mu.n)
    w = mu.masses
    m = w.size
    out = np.zeros((R4.shape[0], m))
    for a in range(0, m, BLOCK):
        rows = slice(a, a + BLOCK)
        for b in range(a, m, BLOCK):
            cols = slice(b, b + BLOCK)
            inside = (_d4(A[:, rows], B[:, cols]) < R4).astype(float)
            out[:, rows] += inside @ w[cols]
            if b != a:
                out[:, cols] += w[rows] @ inside
    return out


def _profile(mu: DiscreteMeasure, R_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q(R) over the radius grid with atom probes, plus the argmax probe
    index per radius."""
    masses = _ball_masses(mu, R_grid)
    return masses.max(axis=1), np.argmax(masses, axis=1)


def _inside(mu: DiscreteMeasure, center: np.ndarray, R: float) -> np.ndarray:
    """inside[j]: atom j of mu lies in the open ball B_R(center)."""
    A = _factors(center[None, :], mu.n)[0]
    B = _factors(mu.points, mu.n)[1]
    return _d4(A, B)[0] < R ** 4


def levy_concentration(mu: DiscreteMeasure, R: float) -> float:
    """Q(R): max over the atom locations of the mass inside the open ball B_R
    around them; a lower bound of the true supremum, exact when a
    maximizing center is an atom.
    """
    if not R > 0.0:
        raise ValueError("R must be positive")
    return float(_profile(mu, np.array([R]))[0][0])


def dichotomy_split(
    mu: DiscreteMeasure, center: GroupPoint, R: float
) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Restriction of mu to B_R(center) and to its complement; the parts
    partition mu exactly."""
    if not R > 0.0:
        raise ValueError("R must be positive")
    if center.n != mu.n:
        raise ValueError("dimension mismatch")
    inside = _inside(mu, center.coords(), R)
    part1 = DiscreteMeasure(mu.n, mu.points, np.where(inside, mu.masses, 0.0))
    part2 = DiscreteMeasure(mu.n, mu.points, np.where(inside, 0.0, mu.masses))
    return part1, part2


@dataclass
class TrichotomyVerdict:
    kind: str  # "vanishing" | "compactness" | "dichotomy"
    profile_R: np.ndarray
    profile_Q: np.ndarray
    centers: list | None = None
    k: float | None = None
    split: tuple | None = None
    diagnostics: dict = field(default_factory=dict)


def classify_trichotomy(seq: list[DiscreteMeasure], eps: float = 0.05) -> TrichotomyVerdict:
    """Classify a normalized measure sequence as vanishing, compactness, or
    dichotomy.

    The limiting concentration profile Q(R) is estimated by averaging the
    per-index profiles over the last third of the sequence (Cesaro style,
    damping pre-asymptotic transients), and its value at the largest probe
    radius plays the role of the limit k.  Verdicts, for 0 < eps < 1/2:
    vanishing if k < eps, compactness if k > 1 - eps (sup centers are
    returned), else dichotomy.  All measures must live on the same H^n.
    For a dichotomy the tracked center is the densest cluster (the ball-mass
    argmax at the smallest probe radius) and the reported k is the mass it
    captures at the mid-grid radius; which side of the split k names is a
    convention.
    """
    if len(seq) < 3:
        raise ValueError("need a sequence of at least 3 measures")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    if len({mu.n for mu in seq}) > 1:
        raise ValueError("measures must all live on the same H^n")
    for mu in seq:
        if abs(mu.total_mass - 1.0) > 1e-9:
            raise ValueError("measures must be normalized to total mass 1")

    tail_start = max(len(seq) - max(len(seq) // 3, 2), 0)
    tail = seq[tail_start:]
    prof_arg = [_profile(mu, R_GRID) for mu in tail]
    profiles = np.array([pa[0] for pa in prof_arg])
    Q_hat = profiles.mean(axis=0)
    k_sup = float(Q_hat[-1])

    if k_sup < eps:
        return TrichotomyVerdict(
            kind="vanishing",
            profile_R=R_GRID,
            profile_Q=Q_hat,
            diagnostics={"k_sup": k_sup, "tail_start": tail_start},
        )

    if k_sup > 1.0 - eps:
        # smallest radius that already captures 1 - eps
        r_idx = int(np.argmax(Q_hat > 1.0 - eps))
        R0 = float(R_GRID[r_idx])
        # the tail's profiles already hold the argmax at R0
        head_idx = [_profile(mu, np.array([R0]))[1][0] for mu in seq[:tail_start]]
        tail_idx = [arg[r_idx] for _, arg in prof_arg]
        centers = []
        for mu, i in zip(seq, head_idx + tail_idx):
            pt = mu.points[i]
            centers.append(GroupPoint(mu.n, pt[: 2 * mu.n], float(pt[2 * mu.n])))
        return TrichotomyVerdict(
            kind="compactness",
            profile_R=R_GRID,
            profile_Q=Q_hat,
            centers=centers,
            diagnostics={"k_sup": k_sup, "R0": R0, "tail_start": tail_start},
        )

    # dichotomy: track the densest cluster, read k at the mid radius
    R_track = float(R_GRID[0])
    R_mid = float(R_GRID[len(R_GRID) // 2])
    k_vals = []
    tracked = []
    for mu, (_, arg) in zip(tail, prof_arg):
        c = mu.points[arg[0]]
        tracked.append(c)
        k_vals.append(float(mu.masses[_inside(mu, c, R_mid)].sum()))
    k_hat = float(np.mean(k_vals))
    last = seq[-1]
    c = tracked[-1]
    center_pt = GroupPoint(last.n, c[: 2 * last.n], float(c[2 * last.n]))
    split = dichotomy_split(last, center_pt, R_mid)
    return TrichotomyVerdict(
        kind="dichotomy",
        profile_R=R_GRID,
        profile_Q=Q_hat,
        k=k_hat,
        split=split,
        centers=[center_pt],
        diagnostics={
            "k_sup": k_sup,
            "R_track": R_track,
            "R_split": R_mid,
            "tail_start": tail_start,
        },
    )


def brezis_lieb_defect(f_j: CylGridFunction, f: CylGridFunction, p: float) -> float:
    """Integral of | |f_j|^p - |f - f_j|^p - |f|^p | over the grid.

    Zero exactly when f_j = f and when f_j - f has support disjoint from f;
    tends to zero for bounded sequences converging almost everywhere.
    """
    if not p > 0.0:
        raise ValueError("p must be positive")
    if not f_j.same_grid(f):
        raise ValueError("f_j and f must live on the same grid")
    integrand = np.abs(
        np.abs(f_j.values) ** p
        - np.abs(f.values - f_j.values) ** p
        - np.abs(f.values) ** p
    )
    return float(np.sum(f_j.weights * integrand))


def strict_subadditivity_gap(k: float, p: float, q: float) -> float:
    """1 - k^(q/p) - (1-k)^(q/p); strictly positive on 0 < k < 1 when q > p."""
    if not (0.0 <= k <= 1.0):
        raise ValueError("k must lie in [0, 1]")
    if not (q > p > 0.0):
        raise ValueError("need q > p > 0")
    e = q / p
    return 1.0 - k ** e - (1.0 - k) ** e


# ---------------------------------------------------------------------------
# synthetic generator families with analytically known verdicts


def spread_family(
    length: int, seed: int, n: int = 1, n_atoms: int = 256
) -> list[DiscreteMeasure]:
    """Mass-preserving dilation spread: atoms at delta_{3 j}(points).

    Q(R) decays like (R / (3 j))^Q down to the single-atom floor
    1/n_atoms, so by the tail of a length-10 sequence the mass in any
    probe-sized ball is negligible."""
    base = Geometry("heisenberg", n).uniform_ball(np.random.default_rng(seed), n_atoms)
    masses = np.full(n_atoms, 1.0 / n_atoms)
    out = []
    for j in range(1, length + 1):
        d = 3.0 * j
        pts = base.copy()
        pts[:, : 2 * n] *= d
        pts[:, 2 * n] *= d * d
        out.append(DiscreteMeasure(n, pts, masses.copy()))
    return out


def translate_family(
    length: int, seed: int, n: int = 1, n_atoms: int = 256
) -> list[DiscreteMeasure]:
    """A fixed cloud left-translated by wandering centers (x = 4 j,
    t = j / 2); compactness."""
    base = Geometry("heisenberg", n).uniform_ball(np.random.default_rng(seed), n_atoms)
    masses = np.full(n_atoms, 1.0 / n_atoms)
    mu0 = DiscreteMeasure(n, base, masses)
    out = []
    for j in range(1, length + 1):
        z = np.zeros(2 * n)
        z[0] = 4.0 * j
        u = GroupPoint(n, z, 0.5 * j)
        out.append(mu0.translated(u))
    return out


def split_family(
    length: int,
    seed: int,
    k: float = 0.3,
    n: int = 1,
    n_atoms: int = 256,
) -> list[DiscreteMeasure]:
    """Two clusters, masses k and 1-k, separating linearly in j; dichotomy.

    The mass-k cluster is tight (radius 0.4) and sits at the origin; the
    other is wide (radius 2.5) and escapes along x (centre 6 (j + 2)), so
    the densest cluster, the one the classifier tracks, carries exactly the
    labeled k.
    """
    if not (0.0 < k < 1.0):
        raise ValueError("k must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    m1 = n_atoms // 2
    m2 = n_atoms - m1
    geom = Geometry("heisenberg", n)
    tight = geom.dilate(0.4, geom.uniform_ball(rng, m1).T).T
    wide = geom.dilate(2.5, geom.uniform_ball(rng, m2).T).T
    out = []
    for j in range(1, length + 1):
        moved = wide.copy()
        moved[:, 0] += 6.0 * (j + 2)
        pts = np.vstack([tight, moved])
        masses = np.concatenate(
            [np.full(m1, k / m1), np.full(m2, (1.0 - k) / m2)]
        )
        out.append(DiscreteMeasure(n, pts, masses))
    return out


GENERATORS = {
    "spread": spread_family,
    "translate": translate_family,
    "split": split_family,
}
