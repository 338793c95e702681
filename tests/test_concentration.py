import math
import tracemalloc

import numpy as np
import pytest

from heisenberg_hls import concentration
from heisenberg_hls.concentration import (
    BLOCK,
    GENERATORS,
    R_GRID,
    DiscreteMeasure,
    _ball_masses,
    _d4,
    _factors,
    _first_full_ball,
    brezis_lieb_defect,
    classify_trichotomy,
    dichotomy_split,
    levy_concentration,
    split_family,
    spread_family,
    strict_subadditivity_gap,
    translate_family,
)
from heisenberg_hls.grids import GridSpec, sample
from heisenberg_hls.group import GroupPoint, distance, norm
from heisenberg_hls.montecarlo import Geometry


def point_mass(coords, mass=1.0):
    return DiscreteMeasure(1, np.array([coords]), np.array([mass]))


class TestLevyConcentration:
    def test_unit_mass_at_origin(self):
        mu = point_mass([0.0, 0.0, 0.0])
        for R in (0.1, 1.0, 10.0):
            assert levy_concentration(mu, R) == 1.0

    def test_two_atoms_at_distance(self):
        pts = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        mu = DiscreteMeasure(1, pts, np.array([0.5, 0.5]))
        assert levy_concentration(mu, 4.0) == 0.5
        assert levy_concentration(mu, 11.0) == 1.0

    def test_monotone_in_R(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((40, 3)) * 2.0
        masses = rng.uniform(0.0, 1.0, 40)
        mu = DiscreteMeasure(1, pts, masses)
        vals = [levy_concentration(mu, R) for R in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= mu.total_mass + 1e-12

    def test_requires_positive_R(self):
        with pytest.raises(ValueError):
            levy_concentration(point_mass([0, 0, 0]), 0.0)


def boundary_measure(n, seed):
    """Random atoms with non-uniform masses, 2 BLOCK + 37 of them so the last
    block is ragged, plus integer atoms at exactly distance 2 from each
    other (one pair through the twist term), where d^4 = R^4 = 16 exactly."""
    rng = np.random.default_rng(seed)
    m = 2 * BLOCK + 37
    pts = rng.standard_normal((m, 2 * n + 1)) * 1.5
    pts[:, 2 * n] *= 2.0
    exact = np.zeros((3, 2 * n + 1))
    exact[0, 0] = 1.0  # (x1, y1, t) = (1, 0, 0)
    exact[1, 0], exact[1, n], exact[1, 2 * n] = 1.0, 2.0, -4.0  # (1, 2, -4)
    exact[2, 2 * n] = 4.0  # (0, 0, 4): distance 2 from the origin atom below
    exact = np.vstack([exact, np.zeros(2 * n + 1)])
    pts = np.vstack([pts, exact])
    masses = rng.uniform(0.1, 1.0, pts.shape[0])
    return DiscreteMeasure(n, pts, masses)


def as_points(mu):
    n = mu.n
    return [GroupPoint(n, p[: 2 * n], p[2 * n]) for p in mu.points]


def direct_ball_masses(mu, R_grid):
    """masses[k, i] by a double loop over group.distance, strict d < R."""
    atoms = as_points(mu)
    D = np.array([[distance(u, v) for v in atoms] for u in atoms])
    return np.array([[mu.masses[D[i] < R].sum() for i in range(len(atoms))] for R in R_grid]), D


def reference_d4(a, b, n):
    """d^4 between the rows of a and of b from coordinate differences, the
    twist as two small matmuls: the kernel the Gram form replaced."""
    zsq = np.zeros((a.shape[0], b.shape[0]))
    for j in range(2 * n):
        d = b[None, :, j] - a[:, j, None]
        zsq += d * d
    t = b[None, :, 2 * n] - a[:, 2 * n, None]
    t += (2.0 * a[:, :n]) @ b[:, n : 2 * n].T
    t -= (2.0 * a[:, n : 2 * n]) @ b[:, :n].T
    return zsq * zsq + t * t


def gram_d4(a, b, n):
    """d^4 between the rows of a and of b as _ball_masses forms it."""
    return _d4(_factors(a, n)[0], _factors(b, n)[1])


def x_order(mu):
    """The atom order of _ball_masses: stable by the first coordinate x."""
    return np.argsort(mu.points[:, 0], kind="stable")


def reference_ball_masses(mu, R_grid, d4=reference_d4):
    """_ball_masses with every radius compared in every block of the x-sorted
    atoms, in the same blocks and summation order, with d4 (reference_d4 by
    default), scattered back to the atom order of mu."""
    R4 = np.asarray(R_grid, dtype=float)[:, None, None] ** 4
    order = x_order(mu)
    pts, w, m = mu.points[order], mu.masses[order], mu.masses.size
    out = np.zeros((R4.shape[0], m))
    for a in range(0, m, BLOCK):
        rows = slice(a, a + BLOCK)
        for b in range(a, m, BLOCK):
            cols = slice(b, b + BLOCK)
            inside = (d4(pts[rows], pts[cols], mu.n) < R4).astype(float)
            out[:, rows] += inside @ w[cols]
            if b != a:
                out[:, cols] += w[rows] @ inside
    masses = np.empty_like(out)
    masses[:, order] = out
    return masses


class TestGramDistances:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("shift", [0.0, 40.0, 1e3])
    def test_matches_coordinate_differences(self, n, shift):
        rng = np.random.default_rng(n)
        pts = rng.standard_normal((300, 2 * n + 1)) * 2.0
        z = rng.standard_normal(2 * n)
        u = GroupPoint(n, shift * z / np.linalg.norm(z), shift * rng.standard_normal())
        pts = DiscreteMeasure(n, pts, np.ones(300)).translated(u).points
        a, b = pts[:120], pts[120:]
        got = _d4(_factors(a, n)[0], _factors(b, n)[1])
        want = reference_d4(a, b, n)
        # every term of both factor products is O(S_a + S_b), S = 1 + |z|^2 + |t|
        S = 1.0 + np.sum(pts[:, : 2 * n] ** 2, axis=1) + np.abs(pts[:, 2 * n])
        assert np.all(np.abs(got - want) <= 1e-14 * np.add.outer(S[:120], S[120:]) ** 2)

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_ball_masses_equal_reference_at_benchmark_size(self, family):
        for seed in range(3):
            seq = GENERATORS[family](10, seed, n_atoms=2048)
            for mu in (seq[0], seq[-1]):
                want = reference_ball_masses(mu, R_GRID)
                np.testing.assert_array_equal(_ball_masses(mu, R_GRID), want)
                np.testing.assert_array_equal(
                    _ball_masses(mu, R_GRID).argmax(axis=1), np.argmax(want, axis=1)
                )


class TestBallMassKernel:
    R_TEST = np.array([0.5, 1.0, 2.0, 3.0, 4.5])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_profile_matches_double_loop(self, n):
        mu = boundary_measure(n, seed=10 + n)
        ref, D = direct_ball_masses(mu, self.R_TEST)
        assert np.count_nonzero(D == 2.0) >= 4  # both exact pairs, both orders
        masses = _ball_masses(mu, self.R_TEST)
        np.testing.assert_allclose(masses, ref, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(masses.argmax(axis=1), np.argmax(ref, axis=1))
        np.testing.assert_allclose(masses.max(axis=1), ref.max(axis=1), rtol=0, atol=1e-12)
        for R, want in zip(self.R_TEST, ref.max(axis=1)):
            assert levy_concentration(mu, R) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_levy_concentration_matches_double_loop(self, n):
        # single-center ball masses (dichotomy_split) at off-atom probes and
        # at the atoms with exact distance-2 pairs, and their max over the
        # atoms (levy_concentration), against brute-force distances
        mu = boundary_measure(n, seed=20 + n)
        rng = np.random.default_rng(n)
        centers = np.vstack([rng.standard_normal((BLOCK + 22, 2 * n + 1)), mu.points[-4:]])
        atoms = as_points(mu)
        probes = [GroupPoint(n, c[: 2 * n], c[2 * n]) for c in centers]
        D = np.array([[distance(c, a) for a in atoms] for c in probes])
        _, D_atoms = direct_ball_masses(mu, [])
        for R in (1.0, 2.0):
            for c, row in zip(probes, D):
                inside = dichotomy_split(mu, c, R)[0].total_mass
                assert inside == pytest.approx(float(mu.masses[row < R].sum()), abs=1e-12)
            want = max(float(mu.masses[row < R].sum()) for row in D_atoms)
            assert levy_concentration(mu, R) == pytest.approx(want, abs=1e-12)

    def test_profile_memory_stays_blocked(self):
        # an m x m distance matrix at 2048 atoms is 32 MB on its own
        mu = translate_family(3, 0, n_atoms=2048)[-1]
        tracemalloc.start()
        try:
            _ball_masses(mu, R_GRID)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


def assert_equals_reference(mu, R_grid, d4=reference_d4):
    want = reference_ball_masses(mu, R_grid, d4)
    np.testing.assert_array_equal(_ball_masses(mu, R_grid), want)
    np.testing.assert_array_equal(_ball_masses(mu, R_grid).argmax(axis=1), np.argmax(want, axis=1))


def block_d4(mu, i, j):
    """d^4 of block pair (i, j) of _ball_masses, on the x-sorted atoms."""
    A, B = _factors(mu.points[x_order(mu)], mu.n)
    return _d4(A[:, i * BLOCK : (i + 1) * BLOCK], B[:, :, j * BLOCK : (j + 1) * BLOCK])


def count_blocks(monkeypatch):
    """A list that grows by one for each block _ball_masses forms (each call
    of _d4 with more than one row; dichotomy_split calls it with one)."""
    calls, d4 = [], concentration._d4

    def counting(A, B):
        if A.shape[1] > 1:
            calls.append((A.shape[1], B.shape[2]))
        return d4(A, B)

    monkeypatch.setattr(concentration, "_d4", counting)
    return calls


def two_clusters(axis, gap, m=4 * BLOCK, seed=0):
    """Two unit Koranyi-ball clusters on H^1 of m // 2 and m - m // 2 atoms,
    the second moved by gap along coordinate axis, with random masses."""
    rng = np.random.default_rng(seed)
    geom = Geometry("heisenberg", 1)
    near, far = geom.uniform_ball(rng, m // 2), geom.uniform_ball(rng, m - m // 2)
    far[:, axis] += gap
    return DiscreteMeasure(1, np.vstack([near, far]), rng.uniform(0.1, 1.0, m))


class TestRadiusWindow:
    """Blocks whose d^4 skip radii, fill them or meet them exactly give the
    masses of the kernel that compares every radius, bit for bit."""

    def test_far_clusters_skip_whole_blocks(self, monkeypatch):
        # the far cluster sits 3 along x, within reach of the largest radius,
        # so every block pair is formed, and 100 along t, so the pairs across
        # the clusters lie outside every ball
        rng = np.random.default_rng(0)
        geom = Geometry("heisenberg", 1)
        near, far = geom.uniform_ball(rng, 2 * BLOCK), geom.uniform_ball(rng, 2 * BLOCK)
        far[:, 0] += 3.0
        far[:, 2] += 100.0
        mu = DiscreteMeasure(1, np.vstack([near, far]), rng.uniform(0.1, 1.0, 4 * BLOCK))
        assert block_d4(mu, 0, 2).min() > R_GRID[-1] ** 4
        calls = count_blocks(monkeypatch)
        assert_equals_reference(mu, R_GRID)
        assert len(calls) == 2 * 10  # the masses and their argmax, one table each

    def test_tight_cluster_fills_every_radius(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.05, 0.05, (3 * BLOCK + 5, 3))
        mu = DiscreteMeasure(1, pts, rng.uniform(0.1, 1.0, pts.shape[0]))
        assert max(block_d4(mu, i, j).max() for i in range(4) for j in range(i, 4)) < R_GRID[0] ** 4
        assert_equals_reference(mu, R_GRID)

    def test_window_edges_at_exact_radius(self):
        # block 0 at (1, 0, 0); block 1 at distance 2 (d^4 = 16, twice
        # through the twist term) and beyond, block 2 at distance 2 and
        # within: the smallest d^4 of block pair (0, 1) and the largest of
        # (0, 2) equal R^4 = 16 at R = 2, where the open ball excludes them.
        # Blocks 0 and 1 sit at x = 1 and block 2 at x >= 1, so the stable
        # sort by x keeps the three blocks as they are
        rng = np.random.default_rng(2)
        at_two = [[1.0, 0.0, 4.0], [1.0, 2.0, -4.0], [1.0, -2.0, 4.0]]
        beyond = [[1.0, 0.0, 8.0], [1.0, 3.0, 0.0]]
        within = [[1.0, 0.0, 1.0], [2.0, 0.0, 0.0]]
        pts = np.vstack([
            np.resize([1.0, 0.0, 0.0], (BLOCK, 3)),
            np.resize(at_two + beyond, (BLOCK, 3)),
            np.resize(at_two + [[3.0, 0.0, 0.0]] + within, (BLOCK, 3)),
        ])
        mu = DiscreteMeasure(1, pts, rng.uniform(0.1, 1.0, pts.shape[0]))
        assert block_d4(mu, 0, 0).max() == 0.0
        assert block_d4(mu, 0, 1).min() == 16.0
        assert block_d4(mu, 0, 2).max() == 16.0
        for R_grid in ([1.0, 2.0, 3.0], [2.0], [0.5, 2.0], [2.0, 2.0, 4.0]):
            assert_equals_reference(mu, R_grid)

    @pytest.mark.parametrize("family", sorted(GENERATORS))
    def test_one_radius_grid(self, family):
        mu = GENERATORS[family](10, 3, n_atoms=600)[-1]
        for R in R_GRID:
            assert_equals_reference(mu, [R])

    def test_grid_node_measure(self):
        # atoms ring by ring at the nodes of a cylindrical grid, massed by a
        # profile on it: the measures a search's maximizing sequence gives.
        # Its symmetric pairs put some d^4 within rounding of an R^4, where
        # the Gram form and coordinate differences can disagree, so the
        # reference compares every radius with the kernel's own d^4
        rho = np.linspace(0.2, 3.0, 10)
        t = np.linspace(-4.0, 4.0, 21)
        pts, masses = [], []
        for r in rho:
            phi = np.linspace(0.0, 2.0 * np.pi, int(4 * r) + 4, endpoint=False)
            for tk in t:
                pts.extend([r * np.cos(p), r * np.sin(p), tk] for p in phi)
                masses.extend([r * np.exp(-r * r - abs(tk)) / phi.size] * phi.size)
        masses = np.array(masses)
        mu = DiscreteMeasure(1, np.array(pts), masses / masses.sum())
        assert 1800 <= masses.size <= 2200
        assert_equals_reference(mu, R_GRID, gram_d4)

    @pytest.mark.parametrize("R_grid", [[2.0, 1.0], [0.5, 3.0, 2.0], [-1.0, 1.0], [1.0, np.nan]])
    def test_rejects_radii_not_ascending(self, R_grid):
        with pytest.raises(ValueError, match="ascending"):
            _ball_masses(translate_family(3, 0, n_atoms=40)[-1], np.array(R_grid))


class TestXSortedBlocks:
    """The atoms are sorted by x and a row block stops at the first column
    block out of the largest radius's reach along x; the masses stay those
    of the mirror that forms every sorted block, in the caller's order."""

    @pytest.mark.parametrize("family", ["spread", "translate"])
    def test_atom_order_invariance_bitwise(self, family):
        rng = np.random.default_rng(7)
        for mu in GENERATORS[family](10, 8, n_atoms=2048)[::9]:
            assert np.all(mu.masses == 2.0 ** -11)
            perm = rng.permutation(mu.masses.size)
            nu = DiscreteMeasure(1, mu.points[perm], mu.masses[perm])
            want = _ball_masses(mu, R_GRID)[:, perm]
            np.testing.assert_array_equal(_ball_masses(nu, R_GRID), want)

    def test_atom_order_invariance_non_uniform_masses(self):
        # x on a 0.1 lattice, so ties in x fall into blocks by atom order
        rng = np.random.default_rng(8)
        pts = Geometry("heisenberg", 1).uniform_ball(rng, 1500) * 3.0
        pts[:, 0] = np.round(pts[:, 0], 1)
        masses = rng.uniform(0.1, 1.0, 1500)
        mu = DiscreteMeasure(1, pts, masses / masses.sum())
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(1500)
            nu = DiscreteMeasure(1, pts[perm], mu.masses[perm])
            np.testing.assert_allclose(
                _ball_masses(nu, R_GRID), _ball_masses(mu, R_GRID)[:, perm], rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_spread_forms_fewer_than_half_the_blocks(self, monkeypatch, seed):
        mu = spread_family(10, seed, n_atoms=2048)[-1]
        calls = count_blocks(monkeypatch)
        _ball_masses(mu, R_GRID)
        assert len(calls) < 68  # of the 16 * 17 / 2 = 136 on or above the diagonal

    def test_clusters_apart_along_x_form_no_block_between(self, monkeypatch):
        mu = two_clusters(0, 100.0)
        calls = count_blocks(monkeypatch)
        assert_equals_reference(mu, R_GRID)
        # 3 block pairs within each 2-block cluster, none of the 4 across
        assert len(calls) == 2 * 6

    @pytest.mark.parametrize("axis", [1, 2], ids=["y", "t"])
    def test_clusters_apart_along_y_or_t_match_reference(self, monkeypatch, axis):
        mu = two_clusters(axis, 100.0)
        calls = count_blocks(monkeypatch)
        assert_equals_reference(mu, R_GRID)
        # the clusters overlap in x, so each sorted block holds atoms of both,
        # pairs out of every ball among them, and every block is formed
        # (twice: the masses and their argmax, one table each)
        assert block_d4(mu, 0, 1).max() > R_GRID[-1] ** 4
        assert len(calls) == 2 * 10

    def test_empty_radius_grid(self, monkeypatch):
        mu = two_clusters(0, 100.0, m=300)
        calls = count_blocks(monkeypatch)
        assert _ball_masses(mu, np.array([])).shape == (0, 300)
        assert calls == []

    def test_grid_ending_in_inf_skips_no_block(self, monkeypatch):
        mu = two_clusters(0, 100.0)
        calls = count_blocks(monkeypatch)
        R_grid = [0.5, 2.0, np.inf]
        got = _ball_masses(mu, R_grid)
        assert len(calls) == 10
        np.testing.assert_array_equal(got, reference_ball_masses(mu, R_grid, gram_d4))
        # every ball of radius inf holds every atom.  Its mass adds the
        # (positive) masses as one dot of at most BLOCK terms per column
        # block, then the m / BLOCK block sums, so it lies within
        # (BLOCK + m / BLOCK - 2) u of the exact sum, u = 2^-53, whatever
        # order BLAS adds in; math.fsum gives the exact sum correctly rounded
        # (half an ulp).  A skipped block would take about 70 off.
        total = math.fsum(mu.masses)
        bound = (BLOCK + mu.masses.size // BLOCK - 2) * 2.0 ** -53 * total + 0.5 * np.spacing(total)
        assert np.max(np.abs(got[-1] - total)) <= bound

    @pytest.mark.parametrize("gap, blocks", [(0.0, 10), (3.0, 10), (6.0 + 1e-6, 9), (100.0, 8)])
    def test_ragged_last_block(self, monkeypatch, gap, blocks):
        # 3 BLOCK + 37 atoms, 210 near and 211 far: block 1 straddles both
        # clusters and the ragged block 3 holds the 37 atoms of largest x.
        # At gap 6 + 1e-6 only the pair (0, 3) is out of reach, at gap 100
        # (0, 2) as well
        mu = two_clusters(0, gap, m=3 * BLOCK + 37, seed=3)
        calls = count_blocks(monkeypatch)
        got = _ball_masses(mu, R_GRID)
        np.testing.assert_array_equal(got, reference_ball_masses(mu, R_GRID, gram_d4))
        assert calls[-1] == (37, 37)
        assert len(calls) == blocks

    @pytest.mark.parametrize("n", [2, 3])
    def test_higher_dimensions(self, monkeypatch, n):
        # the x of boundary_measure stretched 8-fold: 297 atoms, x spread 12
        base = boundary_measure(n, seed=30 + n)
        pts = base.points.copy()
        pts[:, 0] *= 8.0
        mu = DiscreteMeasure(n, pts, base.masses)
        calls = count_blocks(monkeypatch)
        assert_equals_reference(mu, R_GRID, gram_d4)
        assert len(calls) < 2 * 6  # 3 blocks, 6 pairs

    def test_one_atom(self):
        mu = point_mass([3.0, -1.0, 2.0], mass=0.25)
        got = _ball_masses(mu, [0.0, 1e-9, 2.0, np.inf])
        np.testing.assert_array_equal(got, [[0.0], [0.25], [0.25], [0.25]])
        assert levy_concentration(mu, 1e-9) == 0.25


class TestDichotomySplit:
    def test_all_mass_inside(self):
        mu = point_mass([0.0, 0.0, 0.0])
        p1, p2 = dichotomy_split(mu, GroupPoint(1, np.zeros(2), 0.0), 1.0)
        assert p1.total_mass == 1.0 and p2.total_mass == 0.0

    def test_partition_exact(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((60, 3)) * 3.0
        masses = rng.uniform(0.0, 1.0, 60)
        mu = DiscreteMeasure(1, pts, masses)
        c = GroupPoint(1, np.array([0.5, -0.2]), 0.3)
        p1, p2 = dichotomy_split(mu, c, 2.0)
        assert p1.total_mass + p2.total_mass == pytest.approx(mu.total_mass, rel=1e-14)
        assert np.allclose(p1.masses + p2.masses, mu.masses)

    def test_supports_respect_ball(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((60, 3)) * 3.0
        mu = DiscreteMeasure(1, pts, np.ones(60))
        c = GroupPoint(1, np.zeros(2), 0.0)
        R = 1.5
        p1, p2 = dichotomy_split(mu, c, R)
        for pt, m in zip(p1.points, p1.masses):
            if m > 0:
                assert distance(c, GroupPoint(1, pt[:2], pt[2])) < R
        for pt, m in zip(p2.points, p2.masses):
            if m > 0:
                assert distance(c, GroupPoint(1, pt[:2], pt[2])) >= R


class TestClassifier:
    def test_spread_is_vanishing(self):
        v = classify_trichotomy(spread_family(10, 0))
        assert v.kind == "vanishing"
        assert v.diagnostics["k_sup"] < 0.05

    def test_translate_is_compactness(self):
        v = classify_trichotomy(translate_family(10, 0))
        assert v.kind == "compactness"
        assert v.centers is not None and len(v.centers) == 10

    def test_translate_centers_recovered(self):
        fam = translate_family(8, 3)
        v = classify_trichotomy(fam)
        # recovered center must sit inside the translated cloud (radius 1)
        for j, c in enumerate(v.centers, start=1):
            z = np.zeros(2)
            z[0] = 4.0 * j
            true_u = GroupPoint(1, z, 0.5 * j)
            assert distance(true_u, c) <= 1.0 + 1e-9

    def test_translate_centers_capture_levy_concentration(self):
        fam = translate_family(10, 0)
        v = classify_trichotomy(fam)
        R0 = v.diagnostics["R0"]
        for mu, c in zip(fam, v.centers):
            best = levy_concentration(mu, R0)
            assert dichotomy_split(mu, c, R0)[0].total_mass == pytest.approx(best, rel=1e-12)

    def test_split_is_dichotomy_with_k(self):
        v = classify_trichotomy(split_family(10, 0, k=0.3))
        assert v.kind == "dichotomy"
        assert v.k == pytest.approx(0.3, abs=0.05)
        p1, p2 = v.split
        assert p1.total_mass + p2.total_mass == pytest.approx(1.0, rel=1e-12)

    def test_twenty_seeded_instances(self):
        for seed in range(20):
            assert classify_trichotomy(spread_family(10, seed)).kind == "vanishing"
            assert classify_trichotomy(translate_family(10, seed)).kind == "compactness"
            v = classify_trichotomy(split_family(10, seed, k=0.3))
            assert v.kind == "dichotomy" and abs(v.k - 0.3) <= 0.05

    def test_benchmark_size_families(self):
        # the atom count of the trichotomy benchmark workload
        v = classify_trichotomy(spread_family(10, 7, n_atoms=2048))
        assert v.kind == "vanishing" and v.diagnostics["k_sup"] <= 0.05
        v = classify_trichotomy(translate_family(10, 7, n_atoms=2048))
        assert v.kind == "compactness" and abs(v.diagnostics["k_sup"] - 1.0) <= 0.05
        v = classify_trichotomy(split_family(10, 7, k=0.3, n_atoms=2048))
        assert v.kind == "dichotomy" and abs(v.k - 0.3) <= 0.05

    def test_translation_invariance_of_verdicts(self):
        u = GroupPoint(1, np.array([7.0, -2.0]), 11.0)
        for fam_fn in (spread_family, translate_family):
            fam = fam_fn(9, 4)
            v0 = classify_trichotomy(fam)
            v1 = classify_trichotomy([mu.translated(u) for mu in fam])
            assert v0.kind == v1.kind
        fam = split_family(9, 4, k=0.3)
        v0 = classify_trichotomy(fam)
        v1 = classify_trichotomy([mu.translated(u) for mu in fam])
        assert v0.kind == v1.kind == "dichotomy"
        assert v1.k == pytest.approx(v0.k, abs=1e-9)

    def test_rejects_unnormalized(self):
        mu = point_mass([0, 0, 0], mass=2.0)
        with pytest.raises(ValueError):
            classify_trichotomy([mu, mu, mu])

    def test_rejects_short_sequences(self):
        mu = point_mass([0, 0, 0])
        with pytest.raises(ValueError):
            classify_trichotomy([mu, mu])

    @pytest.mark.parametrize("eps", [0.0, -0.1, 0.5, 0.7, math.nan, math.inf])
    def test_rejects_eps_outside_open_half_interval(self, eps):
        # a compact family: k_sup = 1, so no eps may read it as a dichotomy
        with pytest.raises(ValueError, match="eps"):
            classify_trichotomy(translate_family(10, 0), eps=eps)

    def test_rejects_mixed_dimensions(self):
        mu1 = point_mass([0, 0, 0])
        mu2 = DiscreteMeasure(2, np.zeros((1, 5)), np.array([1.0]))
        with pytest.raises(ValueError, match="same H\\^n"):
            classify_trichotomy([mu1, mu1, mu2])

    def test_dichotomy_k_against_other_fraction(self):
        v = classify_trichotomy(split_family(10, 1, k=0.7))
        assert v.kind == "dichotomy"
        assert v.k == pytest.approx(0.7, abs=0.05)

    @pytest.mark.parametrize("n, seed", [(1, 0), (1, 5), (2, 3)])
    def test_dichotomy_k_read_from_the_profile_tables(self, n, seed):
        # k is the tail mean of the mid-radius ball mass at each tail
        # measure's densest atom (the argmax of the smallest radius's row),
        # read from the same tables as the profile, bit for bit
        fam = split_family(10, seed, k=0.3, n=n)
        v = classify_trichotomy(fam)
        assert v.kind == "dichotomy"
        tables = [_ball_masses(mu, R_GRID) for mu in fam[v.diagnostics["tail_start"] :]]
        mid = len(R_GRID) // 2
        assert v.k == np.mean([table[mid, np.argmax(table[0])] for table in tables])
        np.testing.assert_array_equal(v.profile_Q, np.mean([t.max(axis=1) for t in tables], axis=0))


def atom_index(mu, c):
    """Index of the atom of mu at the group point c."""
    (i,) = np.flatnonzero(np.all(mu.points == c.coords(), axis=1))
    return i


def with_far_light_atom(mu):
    """mu plus one atom of mass 1e-3, 30 along x from its last atom (outside
    every ball at R0 around the rest), renormalized."""
    pts = np.vstack([mu.points, mu.points[-1] + np.eye(2 * mu.n + 1)[0] * 30.0])
    w = np.append(mu.masses, 1e-3)
    return DiscreteMeasure(mu.n, pts, w / w.sum())


def assert_first_full_balls(fam):
    """Each compactness center of fam is, by reference_d4, an atom whose open
    ball B_R0 holds every atom, and no earlier atom's ball does."""
    v = classify_trichotomy(fam)
    assert v.kind == "compactness"
    R4 = v.diagnostics["R0"] ** 4
    idx = []
    for mu, c in zip(fam, v.centers):
        i = atom_index(mu, c)
        d4 = reference_d4(mu.points[: i + 1], mu.points, mu.n).max(axis=1)
        assert d4[i] < R4 and np.all(d4[:i] >= R4)
        idx.append(i)
    return idx


class TestCompactnessCenters:
    def test_first_full_ball_small(self):
        pts = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        mu = DiscreteMeasure(1, pts, np.array([0.5, 0.5]))
        assert _first_full_ball(point_mass([1.0, 2.0, 3.0]), 0.1) == 0
        assert _first_full_ball(mu, 4.0) is None
        assert _first_full_ball(mu, 11.0) == 0

    def test_sweep_path_takes_ball_mass_argmax(self):
        # at n = 2 no ball B_R0 around an atom holds the whole cloud, and a
        # far, light atom leaves every ball short: each center is then the
        # atom the one-radius sweep picks, head and tail alike
        far = [with_far_light_atom(mu) for mu in translate_family(10, 0, n_atoms=2048)]
        for fam in (translate_family(10, 0, n=2), far):
            v = classify_trichotomy(fam)
            assert v.kind == "compactness"
            R0 = v.diagnostics["R0"]
            for mu, c in zip(fam, v.centers):
                assert _first_full_ball(mu, R0) is None
                i = _ball_masses(mu, [R0])[0].argmax()
                np.testing.assert_array_equal(c.coords(), mu.points[i])

    @pytest.mark.parametrize("seed", range(10))
    def test_center_is_first_full_ball(self, seed):
        assert_first_full_balls(translate_family(10, seed, n_atoms=2048))

    def test_tie_rule_with_unequal_masses(self):
        # every full ball holds mass 1 up to rounding; with these masses the
        # ball-mass argmax is atom 511, whose sum comes out 1 ulp above that
        # of atom 38, the first atom whose ball holds every atom
        w = np.random.default_rng(27).uniform(0.1, 1.0, 2048)
        fam = [
            DiscreteMeasure(1, mu.points, w / w.sum())
            for mu in translate_family(10, 27, n_atoms=2048)
        ]
        assert assert_first_full_balls(fam) == [38] * 10

    def test_pairs_formed(self, monkeypatch):
        # atom pairs whose d^4 each 2048-atom classification forms (seed 0);
        # one-radius sweeps for the seven head centers would take translate
        # to 21,938,176
        pairs, d4 = [0], concentration._d4

        def counting(A, B):
            pairs[0] += A.shape[1] * B.shape[2]
            return d4(A, B)

        monkeypatch.setattr(concentration, "_d4", counting)
        formed = {}
        for name, kw in (("spread", {}), ("translate", {}), ("split", {"k": 0.3})):
            pairs[0] = 0
            classify_trichotomy(GENERATORS[name](10, 0, n_atoms=2048, **kw))
            formed[name] = pairs[0]
        assert formed["translate"] <= 7.0e6
        assert (formed["spread"], formed["split"]) == (2_736_128, 3_540_992)


class TestGeneratorInputs:
    # an empty cloud has no masses 1 / n_atoms, and a one-atom split family
    # leaves its tight cluster empty
    @pytest.mark.parametrize(
        "family, n_atoms",
        [(spread_family, 0), (translate_family, 0), (split_family, 0), (split_family, 1)],
        ids=["spread-0", "translate-0", "split-0", "split-1"],
    )
    def test_too_few_atoms_rejected(self, family, n_atoms):
        with pytest.raises(ValueError, match="n_atoms"):
            family(3, 0, n_atoms=n_atoms)

    @pytest.mark.parametrize(
        "family, n_atoms",
        [(spread_family, 1), (translate_family, 1), (split_family, 2)],
        ids=["spread-1", "translate-1", "split-2"],
    )
    def test_fewest_atoms_accepted(self, family, n_atoms):
        for mu in family(3, 0, n_atoms=n_atoms):
            assert mu.points.shape[0] == n_atoms
            assert mu.total_mass == pytest.approx(1.0, rel=1e-12)


class TestBrezisLiebDefect:
    SPEC = GridSpec(n=1, n_rho=24, rho_min=1e-2, rho_max=20.0, n_t=48, t_max=20.0)

    def bump(self, center, width=1.0):
        return sample(
            lambda R, T: np.exp(-(R ** 2) / width - ((T - center) / width) ** 2), self.SPEC
        )

    def test_equal_functions_zero(self):
        f = self.bump(0.0)
        assert brezis_lieb_defect(f, f, 4.0 / 3.0) == 0.0

    def test_disjoint_supports_zero(self):
        f = self.bump(0.0)
        g = self.bump(10.0)
        fs = f.with_values(np.where(f.values > 1e-6, f.values, 0.0))
        gs = g.with_values(np.where(g.values > 1e-6, g.values, 0.0))
        assert np.all(fs.values * gs.values == 0.0)  # genuinely disjoint
        fj = fs.with_values(fs.values + gs.values)
        assert brezis_lieb_defect(fj, fs, 4.0 / 3.0) == 0.0

    def test_escaping_bump_defect_decays(self):
        f = self.bump(0.0)
        fs = f.with_values(np.where(f.values > 1e-6, f.values, 0.0))
        defects = []
        for D in (0.0, 2.0, 5.0, 10.0, 16.0):
            b = self.bump(D)
            bs = b.with_values(np.where(b.values > 1e-6, b.values, 0.0))
            fj = fs.with_values(fs.values + bs.values)
            defects.append(brezis_lieb_defect(fj, fs, 4.0 / 3.0))
        assert defects[-1] < 1e-3 * defects[0]
        assert all(b <= a + 1e-12 for a, b in zip(defects[1:], defects[2:]))

    def test_p1_nonneg_dominating_case(self):
        # p = 1 with f_j >= f >= 0 pointwise: integrand vanishes identically
        f = self.bump(0.0)
        fj = f.with_values(f.values * 1.7)
        assert brezis_lieb_defect(fj, f, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_grid_mismatch_rejected(self):
        f = self.bump(0.0)
        other = sample(lambda R, T: R * 0.0, GridSpec(n_rho=16, n_t=16))
        with pytest.raises(ValueError):
            brezis_lieb_defect(f, other, 2.0)


class TestStrictSubadditivityGap:
    def test_boundary_values(self):
        assert strict_subadditivity_gap(0.0, 1.0, 2.0) == 0.0
        assert strict_subadditivity_gap(1.0, 1.0, 2.0) == 0.0

    def test_half_with_ratio_two(self):
        assert strict_subadditivity_gap(0.5, 1.0, 2.0) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("ratio", [1.5, 2.0, 3.0])
    def test_positive_on_open_interval(self, ratio):
        ks = np.linspace(0.0, 1.0, 1002)[1:-1]
        gaps = np.array([strict_subadditivity_gap(float(k), 1.0, ratio) for k in ks])
        assert np.all(gaps > 0.0)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            strict_subadditivity_gap(0.5, 2.0, 2.0)
        with pytest.raises(ValueError):
            strict_subadditivity_gap(1.5, 1.0, 2.0)


class TestDiscreteMeasure:
    def test_translated_preserves_masses_and_distances(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((30, 3))
        mu = DiscreteMeasure(1, pts, np.ones(30) / 30)
        u = GroupPoint(1, np.array([2.0, 1.0]), -3.0)
        nu = mu.translated(u)
        assert nu.total_mass == pytest.approx(1.0)
        # left translation preserves pairwise distances
        a = GroupPoint(1, pts[0, :2], pts[0, 2])
        b = GroupPoint(1, pts[1, :2], pts[1, 2])
        a2 = GroupPoint(1, nu.points[0, :2], nu.points[0, 2])
        b2 = GroupPoint(1, nu.points[1, :2], nu.points[1, 2])
        assert distance(a2, b2) == pytest.approx(distance(a, b), rel=1e-10)

    @pytest.mark.parametrize(
        "points, masses", [(np.zeros((0, 3)), []), ([], []), (np.zeros((0, 3)), np.zeros((0, 1)))]
    )
    def test_empty_cloud_rejected(self, points, masses):
        with pytest.raises(ValueError, match="at least one atom"):
            DiscreteMeasure(1, points, masses)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(1, np.zeros((1, 3)), np.array([-0.1]))

    @pytest.mark.parametrize("n", [0, 1.5, -1])
    def test_n_must_be_positive_integer(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            DiscreteMeasure(n, np.zeros((2, 1)), [0.5, 0.5])
