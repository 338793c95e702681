import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.special import beta

from heisenberg_hls.constants import lieb_diagonal_constant
from heisenberg_hls.montecarlo import (
    CHUNK,
    Geometry,
    ParetoBall,
    SingularMatched,
    ball_indicator_callable,
    euclidean_extremal_callable,
    heisenberg_extremal_callable,
    mc_bilinear_energy,
)


class TestGeometry:
    def test_heisenberg_dims(self):
        g = Geometry("heisenberg", 2)
        assert g.dim == 5 and g.Q == 6

    def test_euclidean_ball_volume(self):
        g = Geometry("euclidean", 3)
        assert g.ball_volume() == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_heisenberg_ball_volume(self):
        g = Geometry("heisenberg", 1)
        assert g.ball_volume() == pytest.approx(math.pi ** 2 / 2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "kind,n", [("heisenberg", 1), ("heisenberg", 2), ("heisenberg", 3), ("heisenberg", 5), ("euclidean", 3)]
    )
    def test_uniform_ball_inside(self, kind, n):
        g = Geometry(kind, n)
        m = 400_000
        pts = g.uniform_ball(np.random.default_rng(n), m)
        assert pts.shape == (m, g.dim)
        assert np.all(g.norm(pts) < 1.0)
        if kind == "heisenberg":
            zsq = np.einsum("ij,ij->i", pts[:, : 2 * n], pts[:, : 2 * n])
            moments = [
                (pts[:, 2 * n] ** 2, 1.0 / (n + 3)),
                (zsq, (n + 1) / (n + 2) * beta((n + 1) / 2, 0.5) / beta(n / 2, 0.5)),
            ]
        else:
            moments = [(np.einsum("ij,ij->i", pts, pts), n / (n + 2))]
        for x, exact in moments:
            assert abs(x.mean() - exact) < 4.0 * x.std() / math.sqrt(m)

    @pytest.mark.parametrize("kind,n", [("heisenberg", 1), ("heisenberg", 4), ("euclidean", 3)])
    def test_sphere_rows_have_norm_one(self, kind, n):
        g = Geometry(kind, n)
        pts = g.sphere(np.random.default_rng(0), 20_000)
        assert pts.shape == (20_000, g.dim)
        assert np.max(np.abs(g.norm(pts) - 1.0)) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Geometry("hyperbolic", 2)


class TestProposals:
    def test_pareto_expectation_matches_quadrature(self):
        geom = Geometry("euclidean", 3)
        prop = ParetoBall(geom, 1.0, 1.5)
        rng = np.random.default_rng(1)
        pts = prop.sample(rng, 400_000)
        est = np.exp(-np.einsum("ij,ij->i", pts, pts)).mean()
        c = 1.5 / (geom.ball_volume() * (1.5 + 3.0))
        ref, _ = integrate.quad(
            lambda r: 4 * math.pi * r * r * math.exp(-r * r) * c * max(r, 1.0) ** (-4.5),
            0.0,
            30.0,
        )
        assert est == pytest.approx(ref, rel=5e-3)

    def test_singular_matched_radial_law(self):
        geom = Geometry("heisenberg", 1)
        lam = 2.0
        prop = SingularMatched(geom, 1.0, lam)
        rng = np.random.default_rng(2)
        pts = prop.sample(rng, 200_000)
        r = geom.norm(pts)
        assert np.all(r <= 1.0)
        # radial cdf r^(Q-lam) = r^2
        for q in (0.3, 0.6, 0.9):
            assert np.quantile(r, q) == pytest.approx(q ** (1.0 / 2.0), rel=2e-2)

    def test_pdf_normalization_pareto(self):
        geom = Geometry("heisenberg", 1)
        prop = ParetoBall(geom, 1.3, 2.0)
        # radial integral of the pdf: uses polar measure Q|B1| r^(Q-1)
        Q, vol = geom.Q, geom.ball_volume()
        total, _ = integrate.quad(
            lambda r: Q * vol * r ** (Q - 1) * prop.pdf(np.array([r]))[0]
            if r > 0
            else 0.0,
            0.0,
            400.0,
            limit=300,
        )
        assert total == pytest.approx(1.0, rel=1e-3)


class TestMcBilinearEnergy:
    def test_zero_functions(self):
        zero = lambda pts: np.zeros(pts.shape[0])
        est, se = mc_bilinear_energy(zero, zero, 2.0, n=1, samples=2000, seed=0)
        assert est == 0.0 and se == 0.0

    def test_reproducible_bitwise(self):
        H = heisenberg_extremal_callable(1, 2.0)
        a = mc_bilinear_energy(H, H, 2.0, n=1, samples=50_000, seed=5, workers=3)
        b = mc_bilinear_energy(H, H, 2.0, n=1, samples=50_000, seed=5, workers=3)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reproducible_across_a_chunk_boundary(self, workers):
        H = heisenberg_extremal_callable(1, 2.0)
        a = mc_bilinear_energy(H, H, 2.0, n=1, samples=CHUNK + 1, seed=9, workers=workers)
        b = mc_bilinear_energy(H, H, 2.0, n=1, samples=CHUNK + 1, seed=9, workers=workers)
        assert a == b and a[1] > 0

    def test_working_memory_is_bounded_by_the_chunk(self):
        H = heisenberg_extremal_callable(3, 2.0)
        tracemalloc.start()
        try:
            mc_bilinear_energy(H, H, 2.0, n=3, samples=1_000_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_worker_split_changes_stream_but_not_statistics(self):
        H = heisenberg_extremal_callable(1, 2.0)
        e1, s1 = mc_bilinear_energy(H, H, 2.0, n=1, samples=400_000, seed=5, workers=1)
        e2, s2 = mc_bilinear_energy(H, H, 2.0, n=1, samples=400_000, seed=5, workers=4)
        assert e1 != e2
        assert abs(e1 - e2) < 3.0 * math.hypot(s1, s2)

    def test_heisenberg_extremal_matches_closed_form(self):
        # E[H,H] = pi^3/2 for n = 1, lambda = 2
        H = heisenberg_extremal_callable(1, 2.0)
        est, se = mc_bilinear_energy(H, H, 2.0, n=1, samples=1_500_000, seed=3, workers=2)
        assert abs(est - math.pi ** 3 / 2.0) < 3.0 * se
        assert se < 0.02 * est

    def test_agrees_with_deterministic_quadrature(self):
        from heisenberg_hls.grids import GridSpec, sample
        from heisenberg_hls.quadrature import bilinear_energy

        spec = GridSpec(n=1, n_rho=48, rho_min=1e-3, rho_max=40.0, n_t=96, t_max=40.0)
        f = sample(lambda R, T: ((1 + R ** 2) ** 2 + T ** 2) ** (-1.5), spec)
        det = bilinear_energy(f, f, 2.0)
        H = heisenberg_extremal_callable(1, 2.0)
        est, se = mc_bilinear_energy(H, H, 2.0, n=1, samples=1_500_000, seed=11, workers=2)
        assert abs(est - det) < 3.0 * se

    def test_euclidean_extremal_selects_standard_variant(self):
        f = euclidean_extremal_callable(3, 2.0)
        est, se = mc_bilinear_energy(
            f, f, 2.0, n=3, samples=1_000_000, seed=7, workers=2, geometry="euclidean"
        )
        norm_sq = (math.pi ** 2 / 4.0) ** (4.0 / 3.0)
        quotient = est / norm_sq
        std = lieb_diagonal_constant(3, 2.0, "standard")
        pap = lieb_diagonal_constant(3, 2.0, "paper")
        assert abs(quotient - std) < 5.0 * se / norm_sq + 0.05
        assert abs(quotient - std) < abs(quotient - pap)

    def test_ball_indicator_energy(self):
        # int_B1 int_B1 |u^-1 v|^-lam: finite, positive, seed-stable scale
        chi = ball_indicator_callable(1)
        est, se = mc_bilinear_energy(chi, chi, 2.0, n=1, samples=400_000, seed=1)
        assert est > 0 and se < 0.05 * est

    def test_sample_floor(self):
        H = heisenberg_extremal_callable(1, 2.0)
        with pytest.raises(ValueError):
            mc_bilinear_energy(H, H, 2.0, n=1, samples=100, seed=0)

    def test_more_workers_than_samples_rejected(self):
        H = heisenberg_extremal_callable(1, 2.0)
        with pytest.raises(ValueError, match="workers"):
            mc_bilinear_energy(H, H, 2.0, n=1, samples=2000, seed=0, workers=2001)

    def test_lambda_validation(self):
        H = heisenberg_extremal_callable(1, 2.0)
        with pytest.raises(ValueError):
            mc_bilinear_energy(H, H, 4.5, n=1, samples=2000, seed=0)
