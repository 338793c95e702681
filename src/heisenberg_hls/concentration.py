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

import bisect
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
        if self.masses.size == 0:
            raise ValueError("a measure needs at least one atom, got an empty cloud")
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

    def translated(self, u: GroupPoint) -> "DiscreteMeasure":
        """Left translation: atoms move to u * atom."""
        if u.n != self.n:
            raise ValueError("dimension mismatch")
        moved = multiply_coords(u.coords()[None, :], self.points, self.n)
        return DiscreteMeasure(self.n, moved, self.masses.copy())


def _factors(points: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors A, shape (2, m, 2n+2), and B, shape (2, 2n+2, m), of the atoms
    (x, y, t) in points: (A[0] @ B[0])[a, b] = |z_b - z_a|^2 and
    (A[1] @ B[1])[a, b] = t_b - t_a + 2 sum_j (x_a,j y_b,j - y_a,j x_b,j)."""
    z, t = points[:, : 2 * n], points[:, 2 * n :]
    one, zsq = np.ones_like(t), np.sum(z * z, axis=1, keepdims=True)
    A = np.stack([np.hstack([zsq, one, z]), np.hstack([one, -t, 2.0 * z[:, :n], -2.0 * z[:, n:]])])
    B = np.stack([np.hstack([one, zsq, -2.0 * z]), np.hstack([t, one, z[:, n:], z[:, :n]])])
    return A, np.ascontiguousarray(B.transpose(0, 2, 1))


def _d4(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Fourth powers of the distances |a^-1 b| (symmetric, |u^-1 v| = |v^-1 u|)
    between the atoms a with row factors A and the atoms b with column
    factors B, as an (A rows, B columns) block: the sum of the squares of
    the two factor products."""
    P = A @ B
    P *= P
    P[0] += P[1]
    return P[0]


def _ball_masses(mu: DiscreteMeasure, R_grid: np.ndarray) -> np.ndarray:
    """masses[k, i] = mu(B_R(atom_i)) for the open ball of radius R_grid[k].

    Each pair of atoms is compared at most once, d^4 against R^4: the atoms
    are sorted by their first coordinate x (stable) and cut into blocks of
    BLOCK, only blocks on or above the diagonal are formed, and an
    off-diagonal block adds to the balls of both its row atoms and its
    column atoms.  Since d(a, b) >= |x_b - x_a|, a row block stops at the
    first column block whose smallest x lies more than the largest radius
    beyond the row block's largest x; the margin of 1e-9 relative keeps
    every pair the Gram form could round into a ball while |z| stays below
    about 10^3 times the largest radius.  The smallest and largest d^4 of a
    formed block cut the ascending radii into a window: the radii below it
    hold no pair of the block and are skipped, the radii above it hold
    every pair and share the gemv of one all-ones slab, and only the radii
    inside it are compared.  Every ball gets the same additions as with
    every radius of every sorted block compared, so the masses are bitwise
    those of that plain kernel; they are scattered back to the caller's
    atom order.  Memory is O(len(R_grid) BLOCK^2) besides the result."""
    R = np.asarray(R_grid, dtype=float)
    if not np.all(np.diff(R, prepend=0.0) >= 0.0):
        raise ValueError("R_grid must be nonnegative and ascending")
    R4 = R[:, None, None] ** 4
    bounds = R4.ravel().tolist()
    K = len(bounds)
    reach = R.max(initial=-np.inf) * (1.0 + 1e-9)
    order = np.argsort(mu.points[:, 0], kind="stable")
    x = mu.points[order, 0]
    A, B = _factors(mu.points[order], mu.n)
    w = mu.masses[order]
    m = w.size
    out = np.zeros((K, m))
    slabs = np.empty(K * BLOCK * BLOCK)
    for a in range(0, m, BLOCK):
        rows = slice(a, a + BLOCK)
        x_last = x[rows][-1]
        for b in range(a, m, BLOCK):
            if x[b] - x_last > reach:
                break
            cols = slice(b, b + BLOCK)
            d4 = _d4(A[:, rows], B[:, :, cols])
            # the radii below k0 hold no pair of the block, the radii from k1
            # on hold every pair; with one radius left its compare costs what
            # the max would
            k0 = bisect.bisect_right(bounds, d4.min())
            if k0 == K:
                continue
            k1 = bisect.bisect_right(bounds, d4.max(), k0) if k0 < K - 1 else K
            full = k1 < K
            inside = slabs[: (k1 - k0 + full) * d4.size].reshape(-1, *d4.shape)
            np.less(d4, R4[k0:k1], out=inside[: k1 - k0], casting="unsafe")
            if full:
                inside[-1] = 1.0
            row_sums = inside @ w[cols]
            out[k0 : k1 + 1, rows] += row_sums
            if full:
                out[k1 + 1 :, rows] += row_sums[-1]
            if b != a:
                col_sums = w[rows] @ inside
                out[k0 : k1 + 1, cols] += col_sums
                if full:
                    out[k1 + 1 :, cols] += col_sums[-1]
    out[:, order] = out.copy()
    return out


def _first_full_ball(mu: DiscreteMeasure, R: float) -> int | None:
    """The first of mu's first BLOCK atoms whose open ball B_R holds every
    atom, or None; candidates drop out block by block, in the caller's order."""
    A, B = _factors(mu.points, mu.n)
    rows = np.arange(min(BLOCK, mu.masses.size))
    for b in range(0, mu.masses.size, BLOCK):
        rows = rows[_d4(A[:, rows], B[:, :, b : b + BLOCK]).max(axis=1) < R ** 4]
        if rows.size == 0:
            return None
    return int(rows[0])


def levy_concentration(mu: DiscreteMeasure, R: float) -> float:
    """Q(R): max over the atom locations of the mass inside the open ball B_R
    around them; a lower bound of the true supremum, exact when a
    maximizing center is an atom.
    """
    if not R > 0.0:
        raise ValueError("R must be positive")
    return float(_ball_masses(mu, [R]).max())


def dichotomy_split(
    mu: DiscreteMeasure, center: GroupPoint, R: float
) -> tuple[DiscreteMeasure, DiscreteMeasure]:
    """Restriction of mu to B_R(center) and to its complement; the parts
    partition mu exactly."""
    if not R > 0.0:
        raise ValueError("R must be positive")
    if center.n != mu.n:
        raise ValueError("dimension mismatch")
    A = _factors(center.coords()[None, :], mu.n)[0]
    inside = _d4(A, _factors(mu.points, mu.n)[1])[0] < R ** 4
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

    Each measure of the tail, the last third of the sequence, gets one
    table of its ball masses, one row per probe radius and one column per
    atom (_ball_masses), and the whole verdict is read from these tables.
    The limiting concentration profile Q(R) is the mean over the tail of
    the tables' row maxima (Cesaro style, damping pre-asymptotic
    transients), and its value at the largest probe radius plays the role
    of the limit k.  Verdicts, for 0 < eps < 1/2: vanishing if k < eps,
    compactness if k > 1 - eps (sup centers are returned), else dichotomy.
    All measures must live on the same H^n.
    A compactness center is the first atom whose ball B_R0 holds every atom
    (looked for among the first BLOCK atoms), else the ball-mass argmax at
    R0, the smallest probe radius at which the profile exceeds 1 - eps: a
    tail measure's is read from its table, a head measure's from a
    one-radius sweep.  For a dichotomy the tracked center is the densest
    cluster (the argmax of the smallest radius's row) and the reported k is
    the tail mean of the mass its ball holds at the mid-grid radius, read
    from the same tables; which side of the split k names is a convention.
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
    tables = [_ball_masses(mu, R_GRID) for mu in seq[tail_start:]]
    Q_hat = np.mean([table.max(axis=1) for table in tables], axis=0)
    k_sup = float(Q_hat[-1])
    verdict = TrichotomyVerdict("vanishing", R_GRID, Q_hat, diagnostics={"k_sup": k_sup})

    def atom(mu, i):
        pt = mu.points[i]
        return GroupPoint(mu.n, pt[: 2 * mu.n], float(pt[2 * mu.n]))

    if k_sup > 1.0 - eps:
        # smallest radius that already captures 1 - eps
        r_idx = int(np.argmax(Q_hat > 1.0 - eps))
        R0 = float(R_GRID[r_idx])
        verdict.kind, verdict.centers = "compactness", []
        for j, mu in enumerate(seq):
            # a ball that holds every atom holds the most mass a ball can;
            # without one, a tail measure's table holds the argmax at R0
            i = _first_full_ball(mu, R0)
            if i is None and j < tail_start:
                i = np.argmax(_ball_masses(mu, R_GRID[r_idx : r_idx + 1])[0])
            elif i is None:
                i = np.argmax(tables[j - tail_start][r_idx])
            verdict.centers.append(atom(mu, i))
        verdict.diagnostics["R0"] = R0
    elif k_sup >= eps:
        # dichotomy: track the densest cluster, read k at the mid radius
        mid = len(R_GRID) // 2
        R_mid = float(R_GRID[mid])
        k_hat = np.mean([table[mid, np.argmax(table[0])] for table in tables])
        center = atom(seq[-1], np.argmax(tables[-1][0]))
        verdict.kind, verdict.k, verdict.centers = "dichotomy", float(k_hat), [center]
        verdict.split = dichotomy_split(seq[-1], center, R_mid)
        verdict.diagnostics.update(R_track=float(R_GRID[0]), R_split=R_mid)
    verdict.diagnostics["tail_start"] = tail_start
    return verdict


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


def _check_atoms(n_atoms: int, least: int) -> None:
    if n_atoms < least:
        raise ValueError(f"n_atoms must be at least {least}, got {n_atoms}")


def spread_family(
    length: int, seed: int, n: int = 1, n_atoms: int = 256
) -> list[DiscreteMeasure]:
    """Mass-preserving dilation spread: atoms at delta_{3 j}(points).

    Q(R) decays like (R / (3 j))^Q down to the single-atom floor
    1/n_atoms, so by the tail of a length-10 sequence the mass in any
    probe-sized ball is negligible."""
    _check_atoms(n_atoms, 1)
    geom = Geometry("heisenberg", n)
    base = geom.uniform_ball(np.random.default_rng(seed), n_atoms)
    masses = np.full(n_atoms, 1.0 / n_atoms)
    return [
        DiscreteMeasure(n, geom.dilate(3.0 * j, base.copy().T).T, masses.copy())
        for j in range(1, length + 1)
    ]


def translate_family(
    length: int, seed: int, n: int = 1, n_atoms: int = 256
) -> list[DiscreteMeasure]:
    """A fixed cloud left-translated by wandering centers (x = 4 j,
    t = j / 2); compactness."""
    _check_atoms(n_atoms, 1)
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
    labeled k; each cluster needs an atom, so n_atoms >= 2.
    """
    if not (0.0 < k < 1.0):
        raise ValueError("k must lie in (0, 1)")
    _check_atoms(n_atoms, 2)
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
