import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import beta

from heisenberg_hls import montecarlo
from heisenberg_hls.constants import lieb_diagonal_constant
from heisenberg_hls.group import norm_coords
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

    @pytest.mark.parametrize(
        "kind,n,first,last",
        [
            (
                "heisenberg",
                2,
                [0.4597157349303867, -0.23187579986444645, 0.006674221706506614, -0.32049245749914057, -0.6199302939669117],
                [-0.8023135595589603, -0.25279050435063016, 0.2563062236331537, -0.07940182991728242, 0.5603288584951939],
            ),
            (
                "euclidean",
                3,
                [0.5281944907331392, -0.2664157667809362, 0.00766840651178091],
                [-0.8971456058196828, -0.28266989566495415, 0.28660116675969344],
            ),
        ],
    )
    def test_uniform_ball_keeps_recorded_draws(self, kind, n, first, last):
        # rows 0 and 999 of 1000 at seed 3, recorded from the component-major
        # sphere; the generator families place their atoms with this draw
        pts = Geometry(kind, n).uniform_ball(np.random.default_rng(3), 1000)
        assert pts.flags.c_contiguous
        np.testing.assert_allclose(pts[[0, 999]], [first, last], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "kind,n",
        [("heisenberg", 1), ("heisenberg", 2), ("heisenberg", 3), ("heisenberg", 4), ("heisenberg", 5), ("euclidean", 3)],
    )
    def test_sphere_rows_have_norm_one(self, kind, n):
        g = Geometry(kind, n)
        pts = g.sphere(np.random.default_rng(0), 20_000).T
        assert pts.shape == (20_000, g.dim)
        assert np.max(np.abs(g.norm(pts) - 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "kind,n", [("heisenberg", 1), ("heisenberg", 2), ("heisenberg", 3), ("heisenberg", 5), ("euclidean", 3)]
    )
    def test_sphere_law(self, kind, n):
        # the cone measure's law at a fixed seed: on H^n, (1 + t)/2 ~
        # Beta(n/2, n/2) (the last coordinate of a uniform direction in
        # R^(n+1)), |z|^2 = sqrt(1 - t^2), and z/|z| is a uniform direction
        # on S^(2n-1), whose first coordinate x1 has (1 + x1)/2 ~
        # Beta(n - 1/2, n - 1/2); on R^N each coordinate has (1 + x)/2 ~
        # Beta((N-1)/2, (N-1)/2)
        g = Geometry(kind, n)
        m = 20_000
        pts = g.sphere(np.random.default_rng(100 + n), m)
        if kind == "heisenberg":
            t, zsq = pts[2 * n], np.einsum("jm,jm->m", pts[: 2 * n], pts[: 2 * n])
            # a rounding of t by one ulp moves sqrt(1 - t^2) by about
            # 1.1e-16 / |z|^2, so the gap is weighed by |z|^2
            assert np.all(zsq > 0.0)
            assert np.max(np.abs(zsq - np.sqrt((1.0 - t) * (1.0 + t))) * zsq) < 1e-15
            laws = [((1.0 + t) / 2.0, n / 2.0), ((1.0 + pts[0] / np.sqrt(zsq)) / 2.0, n - 0.5)]
        else:
            laws = [((1.0 + x) / 2.0, (n - 1) / 2.0) for x in (pts[0], pts[-1])]
        for x, a in laws:
            assert stats.kstest(x, stats.beta(a, a).cdf).pvalue > 1e-3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Geometry("hyperbolic", 2)


class TestProposals:
    def test_pareto_expectation_matches_quadrature(self):
        geom = Geometry("euclidean", 3)
        prop = ParetoBall(geom, 1.0, 1.5)
        rng = np.random.default_rng(1)
        pts = prop.sample(rng, 400_000)[0].T
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
        pts = prop.sample(rng, 200_000)[0].T
        r = geom.norm(pts)
        assert np.all(r <= 1.0)
        # radial cdf r^(Q-lam) = r^2
        for q in (0.3, 0.6, 0.9):
            assert np.quantile(r, q) == pytest.approx(q ** (1.0 / 2.0), rel=2e-2)

    @pytest.mark.parametrize(
        "kind,n", [("heisenberg", 1), ("heisenberg", 2), ("heisenberg", 3), ("heisenberg", 5), ("euclidean", 3)]
    )
    def test_returned_radii_are_the_norms(self, kind, n):
        geom = Geometry(kind, n)
        if kind == "heisenberg":
            norm = lambda pts: norm_coords(pts, n)
        else:
            norm = lambda pts: np.linalg.norm(pts, axis=1)
        rng = np.random.default_rng(10 + n)
        m = 100_000
        for prop in (
            ParetoBall(geom, 1.0, 1.5),
            ParetoBall(geom, 2.0, 1.5),
            SingularMatched(geom, 1.0, 2.0),
            SingularMatched(geom, 1.0, geom.Q - 0.5),
        ):
            pts, r = prop.sample(rng, m)
            assert pts.shape == (geom.dim, m) and r.shape == (m,)
            np.testing.assert_allclose(norm(pts.T), r, rtol=1e-14, atol=0.0)
            if isinstance(prop, ParetoBall):
                # Pareto-tail radii far above r0 are in the sample
                assert r.max() > 100.0 * prop.r0
            else:
                assert np.all(prop.pdf(r) > 0.0)

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
    # (geometry, n, lam, workers, estimate, stderr) of f = the extremal, g
    # below, 140,000 samples, seed 17 + n, as recorded from the chunked
    # implementation with one SeedSequence child per chunk, an SFC64
    # generator per chunk and the component-major sphere; other draws move
    # an estimate by about 1e-2 relative, so a match shows the same stream
    RECORDED = [
        ("heisenberg", 1, 2.0, 1, 42.352373630816274, 0.8596825878929228),
        ("heisenberg", 1, 2.0, 3, 42.330060951034554, 0.8648995705958082),
        ("heisenberg", 2, 3.0, 1, 60.940936475990924, 4.04928651419243),
        ("heisenberg", 2, 3.0, 3, 56.52217085220344, 3.1662357285642875),
        ("heisenberg", 3, 2.0, 1, 65.57682296693939, 8.698716296145443),
        ("heisenberg", 3, 2.0, 3, 59.37560950759473, 9.280827000871792),
        ("heisenberg", 5, 5.0, 1, 15.456807518920815, 8.155306710440186),
        ("heisenberg", 5, 5.0, 3, 7.26576473047955, 1.6593116279929108),
        ("euclidean", 3, 2.0, 1, 54.86731950023417, 0.49966195081714887),
        ("euclidean", 3, 2.0, 3, 55.1137170948668, 0.4988694038296902),
    ]

    @staticmethod
    def _recorded_pair(geometry, n, lam):
        if geometry == "heisenberg":
            f = heisenberg_extremal_callable(n, lam)
        else:
            f = euclidean_extremal_callable(n, lam)
        # g is asymmetric in t, so the sign of the group product's twist shows
        g = lambda pts: np.exp(-0.5 * np.einsum("ij,ij->i", pts, pts) - 0.3 * pts[:, -1])
        return f, g

    @pytest.mark.parametrize(
        "geometry,n,lam,workers,est,se", RECORDED, ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}" for c in RECORDED]
    )
    def test_matches_recorded_stream(self, geometry, n, lam, workers, est, se):
        f, g = self._recorded_pair(geometry, n, lam)
        got = mc_bilinear_energy(
            f, g, lam, n=n, samples=140_000, seed=17 + n, workers=workers, geometry=geometry
        )
        np.testing.assert_allclose(got, (est, se), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_result_independent_of_thread_count(self, monkeypatch, workers):
        # 3 * CHUNK + 17 samples: four or more chunks, so up to four threads
        # share the work; the partial sums are reduced in chunk order.  A
        # short switch interval makes the threads interleave as often as
        # they can.
        f, g = self._recorded_pair("heisenberg", 2, 3.0)
        results, threads = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 4):
                monkeypatch.setattr(montecarlo, "_cpu_count", lambda cpus=cpus: cpus)
                seen = set()

                def f_seen(pts):
                    seen.add(threading.get_ident())
                    return f(pts)

                results.append(
                    mc_bilinear_energy(f_seen, g, 3.0, n=2, samples=3 * CHUNK + 17, seed=4, workers=workers)
                )
                threads.append(len(seen))
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[1] == results[2]
        # submitted together, the chunks start a thread each up to the pool size
        assert threads[0] == 1 and 1 < threads[1] <= 2 and 1 < threads[2] <= 4

    def test_callable_error_reaches_the_caller(self):
        def broken(pts):
            raise RuntimeError("broken callable")

        with pytest.raises(RuntimeError, match="broken callable"):
            mc_bilinear_energy(broken, broken, 2.0, n=1, samples=3 * CHUNK, seed=0)

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

    def test_working_memory_on_many_cpus(self, monkeypatch):
        # one chunk in flight per thread, and at most MAX_THREADS threads: the
        # bound above must also hold on a 64-CPU host
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 64)
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

    @pytest.mark.parametrize(
        "counts",
        [{"samples": 2000.5}, {"samples": math.inf}, {"samples": math.nan}, {"workers": 1.5}],
        ids=str,
    )
    def test_non_integer_counts_rejected(self, counts):
        H = heisenberg_extremal_callable(1, 2.0)
        name = next(iter(counts))
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            mc_bilinear_energy(H, H, 2.0, n=1, seed=0, **{"samples": 2000, **counts})

    def test_integral_float_counts_match_integers(self):
        H = heisenberg_extremal_callable(1, 2.0)
        got = mc_bilinear_energy(H, H, 2.0, n=1, samples=2000.0, seed=0, workers=2.0)
        assert got == mc_bilinear_energy(H, H, 2.0, n=1, samples=2000, seed=0, workers=2)
