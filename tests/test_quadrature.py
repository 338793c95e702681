import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from heisenberg_hls import quadrature
from heisenberg_hls.constants import HlsParams, diagonal_params, frank_lieb_constant, h_quotient
from heisenberg_hls.extremal import extremal_H
from heisenberg_hls.grids import (
    GridSpec,
    ball_indicator,
    lp_norm,
    rho_cell_edges,
    sample,
)
from heisenberg_hls.group import GroupPoint, identity
from heisenberg_hls.quadrature import (
    KernelTable,
    bilinear_energy,
    build_kernel_table,
    far_field,
    fractional_integral,
    fractional_integral_grid,
    hls_quotient,
    kbar_many,
    kernel_table,
    weights_row,
)

# small grid reused across tests; table build is the expensive part
SMALL = GridSpec(n=1, n_rho=28, rho_min=5e-3, rho_max=25.0, n_t=56, t_max=25.0)
# the coarse grid of the benchmark's cold quadrature workload
COLD = GridSpec(n=1, n_rho=16, rho_min=0.02, rho_max=20.0, n_t=32, t_max=20.0)


def H_profile(spec, lam=2.0):
    expo = (2 * 4 - lam) / 4.0
    return sample(lambda R, T: ((1 + R ** 2) ** 2 + T ** 2) ** (-expo), spec)


class TestAngularAverage:
    def test_axis_case_closed_form(self):
        # rho' = 0: no angular dependence
        val = kbar_many(1.5, -1.5, 0.3, 2.0)[0]
        assert val == pytest.approx(((1.5 ** 2) ** 2 + 0.3 ** 2) ** (-0.5), rel=1e-12)

    def test_tau_sign_symmetry(self):
        a = kbar_many(1.0, 1.4 - 1.0, 0.7, 2.5)[0]
        b = kbar_many(1.0, 1.4 - 1.0, -0.7, 2.5)[0]
        assert a == pytest.approx(b, rel=1e-12)

    def test_frozen_reference_values(self):
        # frozen from a 2*10^6-node trapezoid evaluation
        assert kbar_many(1.0, 2.0 - 1.0, 0.0, 2.0)[0] == pytest.approx(
            0.25404984002426473, rel=1e-10
        )
        assert kbar_many(1.0, 1.05 - 1.0, 0.1, 2.0)[0] == pytest.approx(
            1.2332787495617306, rel=1e-10
        )

    def test_singular_point_sentinel(self):
        assert kbar_many(1.0, 0.0, 0.0, 2.0)[0] == math.inf

    def test_near_singular_matches_asymptotic(self):
        # leading behavior B_lam d^(2-lam) / (4 pi rho rho') for lam > 2
        from heisenberg_hls.constants import log_gamma

        lam, rho, d = 3.0, 1.3, 1e-5
        B = math.sqrt(math.pi) * math.exp(log_gamma(lam / 4 - 0.5) - log_gamma(lam / 4))
        asym = B * d ** (2 - lam) / (4 * math.pi * rho * rho)
        val = kbar_many(rho, d, 0.0, lam)[0]
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
                     (2.0 - 1e-7, 1e-13), (2.0 + 1e-7, 1e-13)]
    )
    def test_near_singular_matches_mpmath(self, lam, rel):
        # z = -4 rho^2 rho'^2 / D from -1e3 to -1e30 (s up to 69): the closed
        # form has no cancellation there; near lam = 2 the hypergeometric
        # series' a - b is close to an integer, which would cost hyp2f1 a few
        # digits, but the kernel interpolates F_alpha in alpha beyond the fit
        # as well
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
        assert kbar_many(1e-80, -1e-80, 0.0, 2.0)[0] == math.inf
        assert kbar_many(1e-150, -1e-150, 0.0, 2.0)[0] == math.inf
        assert kbar_many(1e-70, -1e-70, 0.0, 2.0)[0] == pytest.approx(1e140, rel=1e-12)

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
        u = GroupPoint(1, [0.9, 0.0], 0.4)
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
        u = GroupPoint(1, [f.rho_nodes[i], 0.0], f.t_nodes[j])
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
        for quotient in (hls_quotient, quadrature.quotient_and_integral):
            with pytest.raises(ValueError, match="requires a nonzero function"):
                quotient(f, params)

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

    @pytest.mark.parametrize("p", [1.02, 1.05, 1.15])
    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
    def test_far_field_term_meets_closed_form(self, lam, p):
        # off the diagonal |I_lam H|_q^q keeps a large share beyond the box
        # (without the far-field term the grid quotient was up to 69% low, at
        # lam = 3, p = 1.02); with it H's quotient on 28x56 lies within 0.5%
        # of the closed form (worst +0.44%, lam = 1, p = 1.05)
        q = hls_quotient(extremal_H(1, lam, SMALL), HlsParams(1, lam, p))
        assert q == pytest.approx(h_quotient(1, lam, p), rel=5e-3)

    @pytest.mark.parametrize("A", [4.2, 4.5, 6.0, 8.0, 50.0])
    def test_far_field_constant_matches_quad(self, A):
        # C_out(A) = 2 pi int_0^(pi/2) S_b^(2 - A/2) / (A/2 - 2) over the
        # hull's edge S_b = min(X / cos, T / sin), by quad in two pieces
        # split at the corner; far_field takes them as incomplete beta
        # functions
        f = H_profile(SMALL)
        mass, c_out = far_field(f, A)
        X = rho_cell_edges(f.rho_nodes)[-1] ** 2
        T = SMALL.t_max + 0.5 * SMALL.dt
        c, e = math.atan2(T, X), 2.0 - 0.5 * A
        side = quad(lambda phi: (X / math.cos(phi)) ** e, 0.0, c, epsabs=0.0, epsrel=1e-13)[0]
        top = quad(lambda phi: (T / math.sin(phi)) ** e, c, 0.5 * math.pi, epsabs=0.0, epsrel=1e-13)[0]
        assert c_out == pytest.approx(2.0 * math.pi * (side + top) / -e, rel=1e-12)
        assert mass == float(np.sum(f.weights * f.values))

    def test_lambda_3_97_still_evaluates(self):
        q = hls_quotient(extremal_H(1, 3.97, COLD), diagonal_params(1, 3.97))
        assert q == pytest.approx(frank_lieb_constant(1, 3.97), rel=1e-2)


def points_at_s(s, rho):
    """(rho, delta, tau) with log1p(b^2 / D) close to each s: the offset and
    tau each carry part of D, as near the kernel's singular locus."""
    ratio = np.expm1(s)
    D0 = (2.0 * rho * rho) ** 2 / ratio
    w = 0.6 * np.sqrt(D0)
    delta = w / (np.sqrt(rho * rho + w) + rho)
    b = 2.0 * rho * (rho + delta)
    tau = np.sqrt(b * b / ratio - (delta * (2.0 * rho + delta)) ** 2)
    return np.full_like(s, rho), delta, tau


class TestPfaffFit:
    # away from lam = 2, kbar_many reads F_alpha(s) = 2F1(alpha, alpha; 1;
    # 1 - e^-s) from a piecewise polynomial on s <= FIT_S_MAX and takes the
    # exact F_alpha the fit interpolates beyond it.  Near lam = 2 that is
    # interpolated in alpha, whose error grows with s towards the band's
    # edges (5.7e-13 at lam = 1.97, s = 72), hence their tolerance
    @pytest.mark.parametrize(
        "lam, rel",
        [(0.3, 1e-13), (0.7, 1e-13), (1.5, 1e-13), (1.97, 1e-12), (2.0 - 1e-7, 1e-13),
         (2.0 - 1e-9, 1e-13), (2.0 + 1e-9, 1e-13), (2.0 + 1e-7, 1e-13), (2.03, 1e-12),
         (2.5, 1e-13), (3.0, 1e-13), (3.9, 1e-13), (3.97, 1e-13)],
    )
    def test_matches_mpmath_across_the_fit(self, lam, rel):
        # s from 0 to 70: inside panels, on and next to the panel edges, and
        # on both sides of FIT_S_MAX; s = 0 is the axis rho' = 0
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        n = quadrature.FIT_PANELS_PER_UNIT
        edges = np.arange(0, 70 * n + 1, 11) / n
        s = np.concatenate([
            np.linspace(1e-3, 70.0, 101),
            edges[1:], edges[1:] * (1 + 1e-15), edges[1:] * (1 - 1e-15),
            quadrature.FIT_S_MAX + np.array([-1e-9, -1e-13, 0.0, 1e-13, 1e-9, 1e-3]),
        ])
        a = mpmath.mpf(lam) / 4
        for rho in (0.3, 1.0, 7.0):
            r, d, t = points_at_s(s, rho)
            r, d, t = np.append(r, rho), np.append(d, -rho), np.append(t, 0.5)
            got = kbar_many(r, d, t, lam)
            for k in range(r.size):
                rm, dm, tm = mpmath.mpf(r[k]), mpmath.mpf(d[k]), mpmath.mpf(t[k])
                Dm = (dm * (2 * rm + dm)) ** 2 + tm * tm
                bm = 2 * rm * (rm + dm)
                ref = Dm ** (-a) * mpmath.hyp2f1(a, 1 - a, 1, -(bm * bm) / Dm)
                assert got[k] == pytest.approx(float(ref), rel=rel), (rho, k)

    def test_table_sends_few_points_to_hyp2f1(self, monkeypatch):
        # points beyond the fit (s > FIT_S_MAX or not finite) and the fit's
        # own nodes are the only hyp2f1 arguments of a table at lam != 2
        sizes = count_kernel_points(monkeypatch)
        calls = []

        def counting(a, b, c, z):
            calls.append(np.size(z))
            return hyp2f1(a, b, c, z)

        monkeypatch.setattr(quadrature, "hyp2f1", counting)
        quadrature._pfaff_fit.cache_clear()
        build_kernel_table(COLD, 3.0)
        nodes = quadrature.FIT_PANELS * (quadrature.FIT_DEGREE + 1)
        assert sum(calls) < 0.01 * sum(sizes) + nodes


class TestNonFiniteWeights:
    # at lam = 3.99 the cell rule's offsets |delta| = x^(1/(4 - lam)) are so
    # small that D underflows and the kernel is inf; at rho_min = 1e-100 the
    # nodal D underflows the same way.  Both must name lambda, not yield nan.
    def test_lambda_near_Q_point_raises(self):
        f = extremal_H(1, 3.99, COLD)
        with pytest.raises(ValueError, match=r"lambda = 3\.99, rho0 = 0\.317"):
            fractional_integral(f, 3.99, GroupPoint(1, np.array([0.317, 0.0]), 0.968))

    # the build raises the error of the first failing row in row order
    @staticmethod
    def first_row_error(spec, lam):
        rho, tau = spec.rho_nodes(), np.arange(spec.n_t) * spec.dt
        for r in rho:
            try:
                quadrature._row_weights(lam, r, tau, rho, spec.dt)
            except ValueError as err:
                return str(err)
        raise AssertionError("no row fails")

    def assert_table_raises(self, spec, lam, match):
        expected = self.first_row_error(spec, lam)
        with pytest.raises(ValueError, match=match) as err:
            build_kernel_table(spec, lam)
        assert str(err.value) == expected

    def test_lambda_near_Q_table_raises(self):
        self.assert_table_raises(COLD, 3.99, "lambda = 3.99.*lambda too close to Q")

    def test_tiny_rho_min_table_raises(self):
        # from about 1e-150 the cell rule's own scales underflow too; the
        # suite turns RuntimeWarnings into errors, so none may come ahead of
        # the ValueError
        for rho_min in (1e-100, 1e-150, 1e-300):
            spec = GridSpec(n=1, n_rho=16, rho_min=rho_min, rho_max=20.0, n_t=32, t_max=20.0)
            self.assert_table_raises(spec, 2.0, "lambda = 2.0.*rho_min too small")

    @pytest.mark.parametrize("lam", [2.0, 3.0])
    def test_huge_rho_max_table_finite(self, lam):
        # at rho0 = 1e10 the ridge offset sqrt(rho0^2 + tau) - rho0 would
        # round to 0 for tau below about one ulp of rho0^2, and give the cell
        # rule a zero scale; the table must come out finite instead
        spec = GridSpec(n=1, n_rho=8, rho_max=1e10, n_t=8)
        assert np.all(np.isfinite(build_kernel_table(spec, lam).A_hat))


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
    # its size is held (the real-space weights are never held whole).  The
    # even kernel's spectrum is real: one float per frequency and (i, i')
    assert [f.name for f in dataclasses.fields(KernelTable)] == ["A_hat"]
    spec = GridSpec()
    tracemalloc.start()
    try:
        table = build_kernel_table(spec, 2.0)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.A_hat.dtype == np.float64
    assert table.A_hat.shape == (spec.n_t + 1, spec.n_rho, spec.n_rho)
    assert current <= 1.05 * table.A_hat.nbytes


def test_apply_forms_no_table_sized_temporary():
    # the real table multiplies the values' spectrum as (re, im) pairs; a
    # matmul of the table with the complex spectrum would cast the whole
    # table to complex, 2.06x its bytes per apply
    spec = GridSpec()
    table = kernel_table(spec, 2.0)
    values = np.random.default_rng(0).random((spec.n_rho, spec.n_t))
    table.apply(values)
    tracemalloc.start()
    try:
        table.apply(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * table.A_hat.nbytes


def test_table_build_peak_memory():
    # a pass assembles ROWS_PER_PASS rows at once, and its cell-rule arrays
    # are the build's transient: 6.6-7.6 MiB on 64x128 next to the 4.03 MiB
    # table.  The transient grows with n_rho n_t and the table with
    # n_rho^2 n_t (16 against 32 MiB on 127x255), so the bound holds on
    # finer grids too
    tracemalloc.start()
    try:
        table = build_kernel_table(GridSpec(), 0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * table.A_hat.nbytes


def full_lattice_weights(spec, lam):
    """The kernel table assembled row by row over the whole tau lattice,
    without the tau mirror: the reference for build_kernel_table."""
    rho, dt, n_t = spec.rho_nodes(), spec.dt, spec.n_t
    tau = (np.arange(2 * n_t - 1) - (n_t - 1)) * dt
    return np.stack([quadrature._row_weights(lam, r, tau, rho, dt) for r in rho])


class TestTableMirror:
    # the table integrates tau >= 0 and transforms its even extension; the
    # kernel is even in tau and the lattice (k - (n_t - 1)) dt exactly
    # antisymmetric, so every mirrored cell would be integrated from the
    # same bits
    @pytest.mark.parametrize("lam", [0.7, 2.0, 3.0, 3.9])
    @pytest.mark.parametrize(
        "spec",
        [
            COLD,
            SMALL,
            GridSpec(n=1, n_rho=9, rho_min=1e-2, rho_max=10.0, n_t=7, t_max=3.0),
            GridSpec(n=1, n_rho=16, rho_min=0.02, rho_max=20.0, n_t=33, t_max=20.0),
            GridSpec(),
        ],
        ids=["16x32", "28x56", "9x7", "16x33", "64x128"],
    )
    def test_table_equals_full_lattice_bitwise(self, spec, lam):
        # the table keeps only the real spectrum of A's even extension,
        # frequency-major; the half rows must enter it bit for bit as the
        # full lattice's tau >= 0 halves would
        A = full_lattice_weights(spec, lam)
        n_t = spec.n_t
        A_hat = np.fft.hfft(A[..., n_t - 1 :], 2 * n_t)[..., : n_t + 1].transpose(2, 0, 1)
        assert np.array_equal(A, A[:, :, ::-1])
        assert np.array_equal(build_kernel_table(spec, lam).A_hat, A_hat)

    def test_passes_share_kernel_calls(self, monkeypatch):
        # 16 rows in passes of ROWS_PER_PASS = 4 make three kernel calls a
        # pass (nodal, crossed and uncrossed cells) instead of three a row,
        # at the same 160,014 points
        sizes = count_kernel_points(monkeypatch)
        build_kernel_table(COLD, 2.0)
        assert len(sizes) == 12
        assert sum(sizes) == 160_014

    def test_mirror_halves_kernel_evaluations(self, monkeypatch):
        sizes = count_kernel_points(monkeypatch)
        build_kernel_table(COLD, 2.0)
        mirrored = sum(sizes)
        sizes.clear()
        full_lattice_weights(COLD, 2.0)
        assert mirrored <= 0.6 * sum(sizes)

    @pytest.mark.parametrize(
        "spec, most", [(COLD, 170_000), (GridSpec(), 1_900_000)], ids=["16x32", "64x128"]
    )
    def test_uncrossed_cells_take_the_small_rule(self, monkeypatch, spec, most):
        # grading every exact-zone cell with 9 x 14 made 352,024 kernel
        # evaluations on 16x32 and 3,433,731 on 64x128; the uncrossed cells'
        # 5 x 7 rule leaves 160,014 and 1,840,412
        sizes = count_kernel_points(monkeypatch)
        build_kernel_table(spec, 2.0)
        assert sum(sizes) <= most


def count_kernel_points(monkeypatch):
    """A list that receives the number of points of every kbar_many call.

    A work count, not a time: the cell rule and the nodal rows look
    kbar_many up at call time, so the wrapper sees every point."""
    sizes = []
    kbar = quadrature.kbar_many

    def counting(rho, delta, tau, lam):
        out = kbar(rho, delta, tau, lam)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(quadrature, "kbar_many", counting)
    return sizes


def zone_cells(spec, rho0, tau):
    """(edges, zone, crossed) of the point row (rho0, tau) on spec's grid."""
    rho, dt = spec.rho_nodes(), spec.dt
    edges = rho_cell_edges(rho)
    zone = quadrature._exact_zone_mask(rho0, rho, np.diff(edges), tau, dt)
    return edges, zone, quadrature._ridge_crossed(rho0, edges, tau, dt)


def cell_rule(lam, rho0, edges, tau, dt, cells, n_delta, n_tau, chunk=256):
    """_cell_integrals with n_delta x n_tau nodes on the (a, k) cells, in
    chunks of `chunk` cells so that a fine rule stays small in memory."""
    a, k = np.nonzero(cells)
    return np.concatenate(
        [
            quadrature._cell_integrals(
                lam, rho0, edges[a[s]] - rho0, edges[a[s] + 1] - rho0,
                tau[k[s]] - 0.5 * dt, tau[k[s]] + 0.5 * dt, n_delta, n_tau,
            )
            for s in (slice(i, i + chunk) for i in range(0, max(a.size, 1), chunk))
        ]
    )


TEST_GRIDS = [COLD, SMALL, GridSpec()]
TEST_GRID_IDS = ["16x32", "28x56", "64x128"]


class TestFarCells:
    # exact-zone cells the kernel ridge |rho'^2 - rho0^2| = |tau| crosses take
    # the 9 x 14 cell rule, the others 5 x 7
    @pytest.mark.parametrize("lam", [0.7, 2.0, 3.0, 3.9, 3.97])
    @pytest.mark.parametrize("spec", [COLD, SMALL], ids=["16x32", "28x56"])
    def test_uncrossed_cells_match_a_fine_rule(self, spec, lam):
        # each uncrossed zone cell of every table row lies within 1e-7 of a
        # 24 x 32 rule on the same cell; each crossed cell is bit for bit the
        # 9 x 14 rule applied to the crossed cells alone
        rho, dt = spec.rho_nodes(), spec.dt
        tau = np.arange(spec.n_t) * dt
        worst = 0.0
        for rho0 in rho:
            R = quadrature._row_weights(lam, rho0, tau, rho, dt)
            edges, zone, crossed = zone_cells(spec, rho0, tau)
            near = cell_rule(lam, rho0, edges, tau, dt, zone & crossed, 9, 14)
            assert np.array_equal(R[zone & crossed], near), rho0
            far = zone & ~crossed
            fine = cell_rule(lam, rho0, edges, tau, dt, far, 24, 32)
            worst = max(worst, np.max(np.abs(R[far] / fine - 1.0), initial=0.0))
        assert worst <= 1e-7

    @pytest.mark.parametrize("spec", TEST_GRIDS, ids=TEST_GRID_IDS)
    def test_table_and_point_rows_classify_alike(self, spec):
        # at a lattice node the point row's tau = t' - t0 and the table's
        # tau = (k - j) dt round differently; every cell still gets one rule
        rho, t, dt, n_t = spec.rho_nodes(), spec.t_nodes(), spec.dt, spec.n_t
        lattice = (np.arange(2 * n_t - 1) - (n_t - 1)) * dt
        for rho0 in rho:
            _, zone, crossed = zone_cells(spec, rho0, lattice)
            for j in range(n_t):
                window = slice(n_t - 1 - j, 2 * n_t - 1 - j)
                _, zone_j, crossed_j = zone_cells(spec, rho0, t - t[j])
                assert np.array_equal(zone_j, zone[:, window]), (rho0, j)
                assert np.array_equal(crossed_j, crossed[:, window]), (rho0, j)

    def test_near_touch_counts_as_crossed(self):
        # the rho' cell [1, sqrt(1.25)] spans |rho'^2 - 1| in [0, 0.25], and
        # the tau cell of tau = 0.5 starts at 0.25: they touch.  A tau off
        # by rounding still touches; one off by 1e-6 dt leaves a gap
        edges, dt = np.array([1.0, math.sqrt(1.25), 2.0]), 0.5
        for shift, crossed in ((-1e-12, True), (0.0, True), (1e-12, True), (1e-6, False)):
            tau = np.array([0.5 + shift * dt])
            assert quadrature._ridge_crossed(1.0, edges, tau, dt)[0, 0] == crossed, shift

    @pytest.mark.parametrize("spec", TEST_GRIDS, ids=TEST_GRID_IDS)
    def test_ridge_cells_are_crossed(self, spec):
        # sample the ridge densely, in rho' and in tau, from every rho node,
        # the axis and points between nodes: every cell a sample falls in is
        # crossed, and so is the cell holding (rho0, 0)
        rho, dt, n_t = spec.rho_nodes(), spec.dt, spec.n_t
        tau = (np.arange(2 * n_t - 1) - (n_t - 1)) * dt
        between = np.sqrt(rho[:-1] * rho[1:])
        for rho0 in np.concatenate([[0.0], rho, between]):
            edges, _, crossed = zone_cells(spec, rho0, tau)
            r = np.concatenate([
                np.geomspace(edges[0], edges[-1], 20_001),
                np.sqrt(rho0 ** 2 + np.linspace(0.0, tau[-1] + 0.5 * dt, 20_001)),
                np.sqrt(np.maximum(rho0 ** 2 - np.linspace(0.0, tau[-1], 20_001), 0.0)),
            ])
            ridge = np.abs(r * r - rho0 * rho0)
            r, s = np.concatenate([r, r]), np.concatenate([ridge, -ridge])
            a = np.searchsorted(edges, r, side="right") - 1
            k = np.floor((s - tau[0]) / dt + 0.5).astype(int)
            keep = (0 <= a) & (a < rho.size) & (0 <= k) & (k < tau.size)
            assert keep.sum() > 20_000
            assert np.all(crossed[a[keep], k[keep]]), rho0
            if edges[0] <= rho0 < edges[-1]:
                holder = np.searchsorted(edges, rho0, side="right") - 1
                assert crossed[holder, n_t - 1], rho0


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
