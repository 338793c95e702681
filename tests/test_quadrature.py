import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from heisenberg_hls import parallel, quadrature
from heisenberg_hls.constants import diagonal_params, frank_lieb_constant
from heisenberg_hls.extremal import extremal_H
from heisenberg_hls.grids import (
    GridSpec,
    ball_indicator,
    lp_norm,
    rho_cell_edges,
    sample,
)
from heisenberg_hls.group import GroupPoint, dilate, from_polar, identity
from heisenberg_hls.quadrature import (
    KernelTable,
    angular_average_kernel,
    bilinear_energy,
    build_kernel_table,
    fractional_integral,
    fractional_integral_grid,
    hls_quotient,
    kbar_many,
    kernel_table,
    riesz_kernel,
    weights_row,
)

# small grid reused across tests; table build is the expensive part
SMALL = GridSpec(n=1, n_rho=28, rho_min=5e-3, rho_max=25.0, n_t=56, t_max=25.0)
# the coarse grid of the benchmark's cold quadrature workload
COLD = GridSpec(n=1, n_rho=16, rho_min=0.02, rho_max=20.0, n_t=32, t_max=20.0)


def H_profile(spec, lam=2.0):
    expo = (2 * 4 - lam) / 4.0
    return sample(lambda R, T: ((1 + R ** 2) ** 2 + T ** 2) ** (-expo), spec)


class TestRieszKernel:
    def test_unit_distance(self):
        u = identity(1)
        v = from_polar(1, 1.0, 0.0)
        assert riesz_kernel(u, v, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_singular_sentinel(self):
        u = from_polar(1, 0.7, 0.3)
        assert riesz_kernel(u, u, 2.0) == math.inf

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = GroupPoint(1, rng.standard_normal(2), rng.standard_normal())
            v = GroupPoint(1, rng.standard_normal(2), rng.standard_normal())
            d = rng.uniform(0.2, 4.0)
            lam = rng.uniform(0.3, 3.7)
            k1 = riesz_kernel(dilate(d, u), dilate(d, v), lam)
            assert k1 == pytest.approx(d ** (-lam) * riesz_kernel(u, v, lam), rel=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = GroupPoint(1, rng.standard_normal(2), rng.standard_normal())
            v = GroupPoint(1, rng.standard_normal(2), rng.standard_normal())
            assert riesz_kernel(u, v, 1.3) == pytest.approx(riesz_kernel(v, u, 1.3), rel=1e-12)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            riesz_kernel(identity(1), from_polar(1, 1.0, 0.0), 4.5)


class TestAngularAverage:
    def test_axis_case_closed_form(self):
        # rho' = 0: no angular dependence
        val = angular_average_kernel(1.5, 0.0, 0.3, 2.0)
        assert val == pytest.approx(((1.5 ** 2) ** 2 + 0.3 ** 2) ** (-0.5), rel=1e-12)

    def test_tau_sign_symmetry(self):
        a = angular_average_kernel(1.0, 1.4, 0.7, 2.5)
        b = angular_average_kernel(1.0, 1.4, -0.7, 2.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_frozen_reference_values(self):
        # frozen from a 2*10^6-node trapezoid evaluation
        assert angular_average_kernel(1.0, 2.0, 0.0, 2.0) == pytest.approx(
            0.25404984002426473, rel=1e-10
        )
        assert angular_average_kernel(1.0, 1.05, 0.1, 2.0) == pytest.approx(
            1.2332787495617306, rel=1e-10
        )

    def test_singular_point_sentinel(self):
        assert angular_average_kernel(1.0, 1.0, 0.0, 2.0) == math.inf

    def test_near_singular_matches_asymptotic(self):
        # leading behavior B_lam d^(2-lam) / (4 pi rho rho') for lam > 2
        from heisenberg_hls.constants import log_gamma

        lam, rho, d = 3.0, 1.3, 1e-5
        B = math.sqrt(math.pi) * math.exp(log_gamma(lam / 4 - 0.5) - log_gamma(lam / 4))
        asym = B * d ** (2 - lam) / (4 * math.pi * rho * rho)
        val = angular_average_kernel(rho, rho + d, 0.0, lam)
        assert val == pytest.approx(asym, rel=2e-3)

    def test_rho_swap_symmetric(self):
        a = kbar_many([0.8], [1.7 - 0.8], [0.4], 1.5)[0]
        b = kbar_many([1.7], [0.8 - 1.7], [0.4], 1.5)[0]
        assert a == pytest.approx(b, rel=1e-11)

    @pytest.mark.parametrize("lam", [0.3, 0.7, 2.0, 3.0, 3.9])
    def test_matches_direct_quadrature(self, lam):
        # the closed form against the defining phi integral, split at the
        # peak phi* = arg(rho^2 + rho'^2 + i tau) of the integrand
        for rho, rho2, tau in ((1.0, 1.3, 0.4), (0.5, 2.0, -1.0), (1.0, 1.05, 0.1), (2.0, 0.7, 3.0)):
            rr = rho * rho2

            def integrand(phi):
                P = (rho - rho2) ** 2 + 4.0 * rr * math.sin(0.5 * phi) ** 2
                V = tau - 2.0 * rr * math.sin(phi)
                return (P * P + V * V) ** (-0.25 * lam)

            peak = math.atan2(tau, rho * rho + rho2 * rho2)
            val, _ = quad(
                integrand, peak - math.pi, peak + math.pi, points=[peak],
                epsabs=0.0, epsrel=1e-13, limit=200,
            )
            ref = val / (2.0 * math.pi)
            assert kbar_many(rho, rho2 - rho, tau, lam)[0] == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize(
        "lam, rel", [(0.3, 1e-12), (0.7, 1e-12), (2.0, 1e-12), (3.0, 1e-12), (3.9, 1e-12),
                     (2.0 - 1e-7, 1e-9), (2.0 + 1e-7, 1e-9)]
    )
    def test_near_singular_matches_mpmath(self, lam, rel):
        # z = -4 rho^2 rho'^2 / D from -1e3 to -1e30: the closed form has no
        # cancellation there; near lam = 2 the hypergeometric series' a - b
        # is close to an integer, which costs hyp2f1 a few digits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for rho in (0.3, 1.0, 7.0):
            for e in range(3, 31, 3):
                D = (2.0 * rho * rho) ** 2 / 10.0 ** e
                tau = 0.6 * math.sqrt(D)
                rho2 = math.sqrt(rho * rho + 0.8 * math.sqrt(D))
                a = mpmath.mpf(lam) / 4
                r, r2, t = mpmath.mpf(rho), mpmath.mpf(rho2), mpmath.mpf(tau)
                Dm = ((r - r2) * (r + r2)) ** 2 + t * t
                ref = Dm ** (-a) * mpmath.hyp2f1(a, 1 - a, 1, -((2 * r * r2) ** 2) / Dm)
                assert kbar_many(rho, rho2 - rho, tau, lam)[0] == pytest.approx(float(ref), rel=rel)

    def test_subnormal_D_is_inf(self):
        # at rho = 1e-80, rho' = tau = 0 the kernel's D = rho^4 = 1e-320 is
        # subnormal, and D^(-1/2) would be 1.0000056e160; at 1e-70 D is normal
        assert angular_average_kernel(1e-80, 0.0, 0.0, 2.0) == math.inf
        assert angular_average_kernel(1e-150, 0.0, 0.0, 2.0) == math.inf
        assert angular_average_kernel(1e-70, 0.0, 0.0, 2.0) == pytest.approx(1e140, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.3, 2.0, 3.0, 3.9])
    def test_finite_off_the_singular_locus(self, lam):
        rng = np.random.default_rng(5)
        vals = np.array([0.0, 1e-6, 1e-3, 0.3, 1.0, 1.0 + 1e-12, 7.0, 1e3])
        rho, rho2, tau = (a.ravel() for a in np.meshgrid(vals, vals, np.concatenate([vals, -vals])))
        rho = np.concatenate([rho, rng.uniform(0.0, 30.0, 2000)])
        rho2 = np.concatenate([rho2, rng.uniform(0.0, 30.0, 2000)])
        tau = np.concatenate([tau, rng.uniform(-30.0, 30.0, 2000)])
        out = kbar_many(rho, rho2 - rho, tau, lam)
        singular = (rho == rho2) & (tau == 0.0)
        assert np.all(out[singular] == math.inf)
        assert np.all(np.isfinite(out[~singular]) & (out[~singular] > 0.0))


class TestFractionalIntegral:
    def test_zero_function(self):
        spec = SMALL
        f = sample(lambda R, T: 0.0 * R, spec)
        assert fractional_integral(f, 2.0, identity(1)) == 0.0

    def test_linearity(self):
        spec = SMALL
        f = sample(lambda R, T: np.exp(-(R ** 2) - T ** 2), spec)
        g = sample(lambda R, T: 1.0 / (1.0 + R ** 4 + T ** 2), spec)
        u = from_polar(1, 0.9, 0.4)
        a1 = fractional_integral(f, 2.0, u)
        a2 = fractional_integral(g, 2.0, u)
        combo = f.with_values(2.0 * f.values - 3.0 * g.values)
        assert fractional_integral(combo, 2.0, u) == pytest.approx(2 * a1 - 3 * a2, rel=1e-10)

    def test_ball_oracle_at_origin(self):
        # I_2(chi_B1)(0) = Q |B1| / (Q - lambda) = pi^2
        spec = GridSpec(n=1, n_rho=96, rho_min=1e-3, rho_max=2.0, n_t=257, t_max=2.0)
        chi = ball_indicator(spec)
        val = fractional_integral(chi, 2.0, identity(1))
        assert val == pytest.approx(math.pi ** 2, rel=1e-2)

    def test_grid_evaluation_matches_point_evaluation(self):
        spec = SMALL
        f = H_profile(spec)
        If = fractional_integral_grid(f, 2.0)
        i, j = 14, 28
        u = from_polar(1, float(f.rho_nodes[i]), float(f.t_nodes[j]))
        val = fractional_integral(f, 2.0, u)
        assert val == pytest.approx(If.values[i, j], rel=1e-6)

    def test_exact_identity_at_extremal(self):
        # I_2 H = 2 pi H^(1/3) for n = 1, lambda = 2
        spec = SMALL
        f = H_profile(spec)
        If = fractional_integral_grid(f, 2.0)
        ref = 2 * math.pi * ((1 + f.rho_nodes[:, None] ** 2) ** 2 + f.t_nodes[None, :] ** 2) ** (-0.5)
        core = (f.rho_nodes[:, None] < 4.0) & (np.abs(f.t_nodes[None, :]) < 4.0)
        rel = np.abs(If.values - ref) / ref
        assert rel[core].max() < 0.05

    def test_rejects_n2(self):
        spec = GridSpec(n=2, n_rho=8, n_t=8)
        f = sample(lambda R, T: np.exp(-R - T ** 2), spec)
        with pytest.raises(ValueError):
            fractional_integral_grid(f, 2.0)

    def test_rejects_bad_lambda(self):
        f = H_profile(SMALL)
        with pytest.raises(ValueError):
            fractional_integral(f, 5.0, identity(1))


class TestBilinearEnergy:
    def test_zero(self):
        f = sample(lambda R, T: 0.0 * R, SMALL)
        g = H_profile(SMALL)
        assert bilinear_energy(f, g, 2.0) == 0.0

    def test_exact_symmetry(self):
        spec = SMALL
        f = sample(lambda R, T: np.exp(-(R ** 2) - (T - 1.0) ** 2), spec)
        g = sample(lambda R, T: 1.0 / (1.0 + (R ** 2 + T ** 2) ** 2), spec)
        assert bilinear_energy(f, g, 2.0) == bilinear_energy(g, f, 2.0)

    def test_grid_mismatch_rejected(self):
        f = H_profile(SMALL)
        g = H_profile(GridSpec(n=1, n_rho=16, rho_min=5e-3, rho_max=25.0, n_t=56, t_max=25.0))
        with pytest.raises(ValueError):
            bilinear_energy(f, g, 2.0)

    def test_self_energy_applies_the_table_once(self, monkeypatch):
        calls = []
        apply = quadrature.KernelTable.apply

        def counted(table, values):
            calls.append(values)
            return apply(table, values)

        monkeypatch.setattr(quadrature.KernelTable, "apply", counted)
        f = H_profile(SMALL)
        e = bilinear_energy(f, f, 2.0)
        assert len(calls) == 1
        # an equal copy is not f, so it takes both pairings: the same bits
        assert e == bilinear_energy(f, f.with_values(f.values.copy()), 2.0)
        assert len(calls) == 3

    def test_extremal_energy_close_to_sharp(self):
        # E[H, H] -> C |H|_r^2 with C = 4; coarse grid gives a few percent
        f = H_profile(SMALL)
        e = bilinear_energy(f, f, 2.0)
        nrm = lp_norm(f, 4.0 / 3.0)
        assert e / nrm ** 2 == pytest.approx(4.0, rel=0.05)


class TestHlsQuotient:
    def test_scale_invariance(self):
        params = diagonal_params(1, 2.0)
        f = H_profile(SMALL)
        q1 = hls_quotient(f, params)
        q2 = hls_quotient(f.with_values(0.037 * f.values), params)
        assert q2 == pytest.approx(q1, rel=1e-12)

    def test_extremal_attains_sharp_constant(self):
        params = diagonal_params(1, 2.0)
        f = H_profile(SMALL)
        assert hls_quotient(f, params) == pytest.approx(4.0, rel=0.05)

    def test_zero_rejected(self):
        params = diagonal_params(1, 2.0)
        f = sample(lambda R, T: 0.0 * R, SMALL)
        with pytest.raises(ValueError):
            hls_quotient(f, params)

    def test_suboptimal_profile_below_sharp(self):
        params = diagonal_params(1, 2.0)
        g = sample(lambda R, T: np.exp(-(R ** 2) - T ** 2), SMALL)
        q = hls_quotient(g, params)
        assert q < 4.0

    def test_dilation_invariance(self):
        from heisenberg_hls.extremal import dilate_grid_function

        params = diagonal_params(1, 2.0)
        f = H_profile(SMALL)
        fd = dilate_grid_function(f, 1.5, params.p)
        q1 = hls_quotient(f, params)
        q2 = hls_quotient(fd, params)
        assert q2 == pytest.approx(q1, rel=2e-2)

    @pytest.mark.parametrize("lam", [3.85, 3.9, 3.95])
    def test_extremal_quotient_near_lambda_4(self, lam):
        # as lam -> Q the mass of the cell around the evaluation point moves
        # to offsets rho' - rho0 below one ulp of rho0; the cell rule and the
        # kernel reach them through the offset itself
        q = hls_quotient(extremal_H(1, lam, COLD), diagonal_params(1, lam))
        assert q == pytest.approx(frank_lieb_constant(1, lam), rel=1e-2)

    def test_lambda_3_97_still_evaluates(self):
        q = hls_quotient(extremal_H(1, 3.97, COLD), diagonal_params(1, 3.97))
        assert q == pytest.approx(frank_lieb_constant(1, 3.97), rel=1e-2)


class TestNonFiniteWeights:
    # at lam = 3.99 the cell rule's offsets |delta| = x^(1/(4 - lam)) are so
    # small that D underflows and the kernel is inf; at rho_min = 1e-100 the
    # nodal D underflows the same way.  Both must name lambda, not yield nan.
    def test_lambda_near_Q_point_raises(self):
        f = extremal_H(1, 3.99, COLD)
        with pytest.raises(ValueError, match=r"lambda = 3\.99, rho0 = 0\.317"):
            fractional_integral(f, 3.99, GroupPoint(1, np.array([0.317, 0.0]), 0.968))

    # the table's rows run on a thread pool; whatever the thread count, the
    # build raises the error of the first failing row in row order, the one
    # a serial loop over the rows meets first
    @staticmethod
    def first_row_error(spec, lam):
        rho, tau = spec.rho_nodes(), np.arange(spec.n_t) * spec.dt
        for r in rho:
            try:
                quadrature._row_weights(lam, r, tau, rho, spec.dt)
            except ValueError as err:
                return str(err)
        raise AssertionError("no row fails")

    def assert_table_raises(self, monkeypatch, spec, lam, match):
        expected = self.first_row_error(spec, lam)
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "cpu_count", lambda cpus=cpus: cpus)
            with pytest.raises(ValueError, match=match) as err:
                build_kernel_table(spec, lam)
            assert str(err.value) == expected, cpus

    def test_lambda_near_Q_table_raises(self, monkeypatch):
        self.assert_table_raises(monkeypatch, COLD, 3.99, "lambda = 3.99.*lambda too close to Q")

    def test_tiny_rho_min_table_raises(self, monkeypatch):
        spec = GridSpec(n=1, n_rho=16, rho_min=1e-100, rho_max=20.0, n_t=32, t_max=20.0)
        self.assert_table_raises(monkeypatch, spec, 2.0, "lambda = 2.0.*rho_min too small")

    def test_failed_table_cancels_queued_rows(self, monkeypatch):
        # row 0 fails at once and every other row takes 50 ms: once row 0's
        # error is out, the rows still queued must not start
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        row_weights, rho0 = quadrature._row_weights, COLD.rho_nodes()[0]
        started = []

        def slow_rows(lam, r, *args):
            started.append(r)
            if r == rho0:
                raise ValueError("row 0 fails")
            time.sleep(0.05)
            return row_weights(lam, r, *args)

        monkeypatch.setattr(quadrature, "_row_weights", slow_rows)
        with pytest.raises(ValueError, match="row 0 fails"):
            build_kernel_table(COLD, 2.0)
        assert len(started) <= 4 < COLD.n_rho


def _cell_reference(lam, rho0, d_lo, d_hi, tau_lo, tau_hi):
    """Nested adaptive quad of 2 pi rho' Kbar(rho0, rho', tau) over the cell
    rho' - rho0 in [d_lo, d_hi], tau in [tau_lo, tau_hi], split at
    rho' = rho0 and tau = 0.  The inner integral runs in eta, tau =
    w sinh(eta) with w = |rho'^2 - rho0^2|, so that quad sees the kernel's
    tau ridge at any offset.  The kernel is the closed form, one point at a
    time (hyp2f1 is accurate here for lam != 2 or rho0 = 0)."""
    alpha = 0.25 * lam

    def pieces(lo, hi):
        return [(a, b) for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)) if b > a]

    def inner(d):
        w = abs(d * (2.0 * rho0 + d))
        bb = (2.0 * rho0 * (rho0 + d)) ** 2

        def g(eta):
            D = w * w * math.cosh(eta) ** 2
            return D ** -alpha * hyp2f1(alpha, 1.0 - alpha, 1.0, -bb / D) * w * math.cosh(eta)

        tot = sum(
            quad(g, math.asinh(a / w), math.asinh(b / w), epsabs=0.0, epsrel=1e-10, limit=200)[0]
            for a, b in pieces(tau_lo, tau_hi)
        )
        return 2.0 * math.pi * (rho0 + d) * tot

    return sum(
        quad(inner, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0] for a, b in pieces(d_lo, d_hi)
    )


def correlate_by_windows(A, values):
    """KernelTable.apply as a direct sum: one sliding-window correlation
    along t per evaluation radius."""
    n_rho, n_t = values.shape
    out = np.empty((n_rho, n_t))
    for i in range(n_rho):
        win = np.lib.stride_tricks.sliding_window_view(A[i], n_t, axis=-1)
        # win[i', s, j'] = A[i, i', s + j'];  out[i, j] = tmp[n_t-1-j]
        out[i] = np.einsum("bsk,bk->s", win, values)[::-1]
    return out


@pytest.mark.parametrize(
    "spec, lam",
    [
        (SMALL, 2.0),
        (GridSpec(n=1, n_rho=9, rho_min=1e-2, rho_max=10.0, n_t=7, t_max=3.0), 3.0),
        (GridSpec(), 2.0),
    ],
    ids=["28x56", "9x7", "64x128"],
)
def test_apply_matches_window_correlation(spec, lam):
    table = kernel_table(spec, lam)
    A = full_lattice_weights(spec, lam)
    n_rho, n_tau = A.shape[1:]
    values = np.random.default_rng(n_rho).random((n_rho, (n_tau + 1) // 2))
    np.testing.assert_allclose(
        table.apply(values), correlate_by_windows(A, values), rtol=1e-13, atol=0.0
    )


def test_kernel_table_cache():
    # lam = 2 and 2.0 hash equal, so they share one table; clearing the
    # cache forces a rebuild, from the same bits
    spec = GridSpec(n=1, n_rho=9, rho_min=1e-2, rho_max=10.0, n_t=7, t_max=3.0)
    table = kernel_table(spec, 2)
    assert kernel_table(spec, 2.0) is table
    quadrature.clear_table_cache()
    rebuilt = kernel_table(spec, 2.0)
    assert rebuilt is not table
    assert np.array_equal(rebuilt.A_hat, table.A_hat)


def test_table_keeps_one_copy():
    # the table is its Fourier transform alone: once built, nothing else of
    # its size is held (the real-space weights are never held whole)
    assert [f.name for f in dataclasses.fields(KernelTable)] == ["A_hat"]
    tracemalloc.start()
    try:
        table = build_kernel_table(GridSpec(), 2.0)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current <= 1.05 * table.A_hat.nbytes


def full_lattice_weights(spec, lam):
    """The kernel table assembled row by row over the whole tau lattice,
    without the tau mirror: the reference for build_kernel_table."""
    rho, dt, n_t = spec.rho_nodes(), spec.dt, spec.n_t
    tau = (np.arange(2 * n_t - 1) - (n_t - 1)) * dt
    return np.stack([quadrature._row_weights(lam, r, tau, rho, dt) for r in rho])


class TestTableMirror:
    # the table integrates tau >= 0 and mirrors; the kernel is even in tau and
    # the lattice (k - (n_t - 1)) dt exactly antisymmetric, so every mirrored
    # cell would be integrated from the same bits
    @pytest.mark.parametrize("lam", [0.7, 2.0, 3.0, 3.9])
    @pytest.mark.parametrize(
        "spec",
        [
            COLD,
            SMALL,
            GridSpec(n=1, n_rho=9, rho_min=1e-2, rho_max=10.0, n_t=7, t_max=3.0),
            GridSpec(n=1, n_rho=16, rho_min=0.02, rho_max=20.0, n_t=33, t_max=20.0),
        ],
        ids=["16x32", "28x56", "9x7", "16x33"],
    )
    def test_table_equals_full_lattice_bitwise(self, monkeypatch, spec, lam):
        # the table keeps only the rfft of A, frequency-major; the mirrored
        # rows must enter it bit for bit as the full lattice's rows would, on
        # any number of row threads.  A short switch interval makes the
        # threads interleave as often as they can.
        A = full_lattice_weights(spec, lam)
        A_hat = np.fft.rfft(A, 2 * spec.n_t).transpose(2, 0, 1)
        assert np.array_equal(A, A[:, :, ::-1])
        row_weights = quadrature._row_weights
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 4):
                monkeypatch.setattr(parallel, "cpu_count", lambda cpus=cpus: cpus)
                seen = set()

                def row_seen(*args):
                    seen.add(threading.get_ident())
                    return row_weights(*args)

                monkeypatch.setattr(quadrature, "_row_weights", row_seen)
                assert np.array_equal(build_kernel_table(spec, lam).A_hat, A_hat), cpus
                assert (len(seen) == 1) if cpus == 1 else (1 < len(seen) <= cpus)
        finally:
            sys.setswitchinterval(interval)

    def test_mirror_halves_kernel_evaluations(self, monkeypatch):
        # a work count, not a time: the cell rule and the nodal rows look
        # kbar_many up at call time, so the wrapper sees every point.  The
        # table's rows call it from several threads, where a shared += could
        # lose counts; list.append does not
        sizes = []
        kbar = quadrature.kbar_many

        def counting(rho, delta, tau, lam):
            out = kbar(rho, delta, tau, lam)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(quadrature, "kbar_many", counting)
        build_kernel_table(COLD, 2.0)
        mirrored = sum(sizes)
        sizes.clear()
        full_lattice_weights(COLD, 2.0)
        assert mirrored <= 0.6 * sum(sizes)


class TestWeightsRow:
    @pytest.mark.parametrize("lam", [0.7, 2.0, 3.0])
    def test_row_matches_table_at_nodes(self, lam):
        # at a lattice node the point row and the table row are one product
        # rule; cells exactly 3 dt away sit on the exact-zone edge, where the
        # table's tau (k - j) dt and the row's t' - t0 round differently
        # (the table's rows: TestTableMirror checks that it transforms them)
        spec = COLD
        f = H_profile(spec, lam)
        A = full_lattice_weights(spec, lam)
        n_t = spec.n_t
        for i, rho0 in enumerate(f.rho_nodes):
            for j in (0, n_t // 2, n_t - 4):
                row = weights_row(f, lam, float(rho0), float(f.t_nodes[j]))
                window = A[i, :, n_t - 1 - j : 2 * n_t - 1 - j]
                np.testing.assert_allclose(row, window, rtol=1e-12, atol=0.0)
        assert np.all(weights_row(f, lam, 1.0, 0.0) >= 0.0)

    def test_tail_control_energy(self):
        # truncating H beyond |u| = T on a fixed grid changes E[H,H] by less
        # than the analytic tail bound from the decay H <= |u|^(-(2Q-lam))
        from heisenberg_hls.group import ball_volume

        big = GridSpec(n=1, n_rho=48, rho_min=5e-3, rho_max=40.0, n_t=96, t_max=40.0)
        f = H_profile(big)
        T = 20.0
        R, Tm = np.meshgrid(f.rho_nodes, f.t_nodes, indexing="ij")
        inside = (R ** 4 + Tm ** 2) < T ** 4
        f_in = f.with_values(np.where(inside, f.values, 0.0))
        Eb = bilinear_energy(f, f, 2.0)
        Es = bilinear_energy(f_in, f_in, 2.0)
        nrm = lp_norm(f, 4.0 / 3.0)
        # |H chi_{|u|>T}|_r <= (|B1| T^-Q)^(1/r) via the pointwise bound
        tail_norm = (ball_volume(1) * T ** (-4.0)) ** (3.0 / 4.0)
        bound = 4.0 * (2.0 * nrm * tail_norm + tail_norm ** 2) * 1.2  # grid-error slack
        assert 0.0 < Eb - Es < bound

    @pytest.mark.parametrize(
        "lam, rho0, t_off, cells",
        [
            # the centre cell and its neighbours near the axis, on a t-node
            # and a quarter cell off the t-lattice
            (3.0, 0.02, 0.0, [(0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)]),
            (3.0, 0.02, 0.25, [(0, -1), (0, 0), (0, 1), (1, 0)]),
            # the outermost row, whose zone spans many wide cells
            (0.7, 20.0, 0.0, [(15, 0), (15, 2), (14, 0), (14, 3), (14, 9)]),
            # a point on the axis
            (2.0, 0.0, 0.0, [(0, 0), (0, 1), (1, 0)]),
        ],
    )
    def test_zone_cells_match_nested_quad(self, lam, rho0, t_off, cells):
        # weights_row entries of exact-zone cells are cell integrals; (a, k)
        # counts the rho cell and the t cell from the middle t node
        spec = COLD
        f = H_profile(spec, lam)
        rho, t, dt = f.rho_nodes, f.t_nodes, spec.dt
        edges = rho_cell_edges(rho)
        j = spec.n_t // 2
        t0 = float(t[j]) + t_off * dt
        R = weights_row(f, lam, rho0, t0)
        for a, k in cells:
            tau = t[j + k] - t0
            ref = _cell_reference(
                lam, rho0, edges[a] - rho0, edges[a + 1] - rho0, tau - 0.5 * dt, tau + 0.5 * dt
            )
            assert R[a, j + k] == pytest.approx(ref, rel=1e-2), (a, k)
