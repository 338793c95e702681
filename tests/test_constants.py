import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from heisenberg_hls.constants import (
    DEFAULT_LIEB_VARIANT,
    HlsParams,
    derive_conjugates,
    diagonal_params,
    frank_lieb_constant,
    h_quotient,
    lieb_diagonal_constant,
    lieb_loss_upper_bound,
    log_gamma,
    theorem2_upper_bound,
    unit_sphere_area,
)


class TestLogGamma:
    def test_integer_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-15)

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_recurrence(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(0.5, 40.0, 200):
            assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), rel=1e-12)

    def test_against_math_lgamma(self):
        # independent C library implementation
        for x in np.geomspace(0.5, 50.0, 100):
            assert log_gamma(float(x)) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


def test_unit_sphere_area():
    # 2 points, the circle, the 2-sphere, and omega_3 = 2 pi^2
    for N, area in ((1, 2.0), (2, 2.0 * math.pi), (3, 4.0 * math.pi), (4, 2.0 * math.pi ** 2)):
        assert unit_sphere_area(N) == pytest.approx(area, rel=1e-15)


class TestDeriveConjugates:
    def test_reference_tuple(self):
        p = derive_conjugates(1, 2.0, 4.0 / 3.0)
        assert p.Q == 4
        assert p.q == pytest.approx(4.0, rel=1e-13)
        assert p.r == pytest.approx(4.0 / 3.0, rel=1e-13)
        assert p.s == pytest.approx(4.0 / 3.0, rel=1e-13)
        assert 3 / 4 + 3 / 4 + 2 / 4 == pytest.approx(2.0)

    def test_boundary_p_rejected(self):
        # p = Q/(Q-lambda) makes q infinite
        with pytest.raises(ValueError):
            derive_conjugates(1, 2.0, 2.0)
        with pytest.raises(ValueError):
            derive_conjugates(1, 2.0, 1.0)
        with pytest.raises(ValueError):
            derive_conjugates(1, 2.0, 2.5)

    def test_lambda_range_rejected(self):
        with pytest.raises(ValueError):
            derive_conjugates(1, 0.0, 1.5)
        with pytest.raises(ValueError):
            derive_conjugates(1, 4.0, 1.5)

    def test_bilinear_identity_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            Q = 2 * n + 2
            lam = rng.uniform(0.05, 0.95) * Q
            p_max = Q / (Q - lam)
            p = 1.0 + rng.uniform(0.05, 0.95) * (p_max - 1.0)
            tup = derive_conjugates(n, lam, p)
            assert 1.0 / tup.r + 1.0 / tup.s + lam / Q == pytest.approx(2.0, abs=1e-13)
            assert tup.r == pytest.approx(tup.q / (tup.q - 1.0), rel=1e-13)
            assert tup.q > tup.p

    def test_diagonal_params(self):
        tup = diagonal_params(1, 2.0)
        assert tup.p == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert tup.q == pytest.approx(4.0, rel=1e-14)
        assert abs(tup.r - tup.s) <= 1e-12


class TestHlsParams:
    def test_stores_only_n_lambda_p(self):
        assert [f.name for f in dataclasses.fields(HlsParams)] == ["n", "lam", "p"]

    @pytest.mark.parametrize(
        "tup, q, r, s",
        [
            (derive_conjugates(1, 2.0, 1.6), 8.0, 1.1428571428571428, 1.6),
            (derive_conjugates(1, 2.0, 1.15), 2.7058823529411757, 1.5862068965517244, 1.15),
            (diagonal_params(2, 3.0), 4.0, 1.3333333333333333, 1.3333333333333333),
            (diagonal_params(1, 0.7), 11.428571428571411, 1.0958904109589043, 1.095890410958904),
        ],
    )
    def test_derived_exponents_pinned(self, tup, q, r, s):
        # the values of the seven-field tuple these replace, bit for bit
        assert (tup.q, tup.r, tup.s) == (q, r, s)

    def test_normalizes_types(self):
        tup = HlsParams(1.0, 2, 1.6)
        assert type(tup.n) is int and type(tup.lam) is float and tup.Q == 4

    @pytest.mark.parametrize(
        "n, lam, p, match",
        [
            (0, 2.0, 1.6, "n must be"),
            (1.5, 2.0, 1.6, "n must be"),
            (1, 0.0, 1.6, "lambda must lie"),
            (1, 4.0, 1.6, "lambda must lie"),
            (1, 2.0, 1.0, "p must lie"),
            (1, 2.0, 2.0, "p must lie"),
        ],
    )
    def test_rejects_at_construction(self, n, lam, p, match):
        with pytest.raises(ValueError, match=match):
            HlsParams(n, lam, p)


class TestFrankLiebConstant:
    def test_exact_value_n1_lam2(self):
        assert frank_lieb_constant(1, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_n2_lam4(self):
        # 2 (pi^3/4)^(2/3), frozen from a log-gamma evaluation
        assert frank_lieb_constant(2, 4.0) == pytest.approx(7.833510204399608, rel=1e-12)
        assert frank_lieb_constant(2, 4.0) == pytest.approx(2 * (math.pi ** 3 / 4) ** (2 / 3), rel=1e-12)

    def test_n1_lam1(self):
        expect = (math.pi ** 2) ** 0.25 * math.exp(log_gamma(1.5) - 2 * log_gamma(1.75))
        assert frank_lieb_constant(1, 1.0) == pytest.approx(expect, rel=1e-12)
        assert frank_lieb_constant(1, 1.0) == pytest.approx(1.8596437689832916, rel=1e-12)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            frank_lieb_constant(1, 4.0)
        with pytest.raises(ValueError):
            frank_lieb_constant(1, -0.5)


class TestTheorem2UpperBound:
    def test_reference_value(self):
        val = theorem2_upper_bound(1, 2.0, 4.0 / 3.0, 4.0 / 3.0)
        assert val == pytest.approx(9.0 * math.pi / 4.0, rel=1e-12)
        assert val > frank_lieb_constant(1, 2.0)

    def test_symmetry_in_rs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam = rng.uniform(0.3, 3.7)
            r = rng.uniform(1.05, 5.0)
            s_inv = 2.0 - lam / 4.0 - 1.0 / r
            if not (0.0 < s_inv < 1.0):
                continue
            s = 1.0 / s_inv
            assert theorem2_upper_bound(1, lam, r, s) == pytest.approx(
                theorem2_upper_bound(1, lam, s, r), rel=1e-13
            )

    def test_divergence_toward_lambda_Q(self):
        def diag_value(lam):
            r = 8.0 / (8.0 - lam)
            return theorem2_upper_bound(1, lam, r, r)

        assert diag_value(3.999) > diag_value(3.9) > diag_value(3.0)
        assert diag_value(3.9999) > 1e3

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            theorem2_upper_bound(1, 2.0, 4.0 / 3.0, 1.5)  # bilinear relation violated


class TestHQuotient:
    @staticmethod
    def _cayley_integral(n, A):
        # int over H^n of ((1 + |z|^2)^2 + t^2)^(-A/2): t = (1 + |z|^2) u
        # leaves (1 + |z|^2)^(1-A) times an integral over u, then |z| polar
        quad = lambda fn, a: integrate.quad(fn, a, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        t_part = 2.0 * quad(lambda u: (1.0 + u * u) ** (-A / 2.0), 0.0)
        z_part = quad(lambda rho: rho ** (2 * n - 1) * (1.0 + rho * rho) ** (1.0 - A), 0.0)
        return t_part * unit_sphere_area(2 * n) * z_part

    @pytest.mark.parametrize("n,lam,p", [(1, 2.0, 1.3), (1, 2.0, 1.85), (2, 3.0, 1.4)])
    def test_matches_numerical_integrals(self, n, lam, p):
        # I_lam H = C_FL |H|_r^(2-r) |1+s|^(-lam/2) and H = |1+s|^(-(2Q-lam)/2)
        prm = derive_conjugates(n, lam, p)
        Q, q = prm.Q, prm.q
        r = 2.0 * Q / (2.0 * Q - lam)
        c = frank_lieb_constant(n, lam) * self._cayley_integral(n, Q) ** ((2.0 - r) / r)
        norm_I = c * self._cayley_integral(n, lam * q / 2.0) ** (1.0 / q)
        norm_H = self._cayley_integral(n, (2.0 * Q - lam) * p / 2.0) ** (1.0 / p)
        assert h_quotient(n, lam, p) == pytest.approx(norm_I / norm_H, rel=1e-8)

    @pytest.mark.parametrize("n,lam", [(1, 0.7), (1, 2.0), (2, 2.0), (2, 5.0), (3, 3.0)])
    def test_equals_frank_lieb_on_the_diagonal(self, n, lam):
        p = diagonal_params(n, lam).p
        assert h_quotient(n, lam, p) == pytest.approx(frank_lieb_constant(n, lam), rel=1e-13)

    @pytest.mark.parametrize("p", [1.3, 1.6])
    def test_default_grid_quotient_of_H_is_close(self, p):
        from heisenberg_hls.extremal import extremal_H
        from heisenberg_hls.grids import GridSpec
        from heisenberg_hls.quadrature import hls_quotient

        got = hls_quotient(extremal_H(1, 2.0, GridSpec()), derive_conjugates(1, 2.0, p))
        assert got == pytest.approx(h_quotient(1, 2.0, p), rel=1e-2)

    def test_below_theorem2_bound_off_the_diagonal(self):
        # H is admissible, so Q_H(p) <= C(r, s) <= the Theorem-2 bound
        for p in (1.05, 1.15, 1.3, 1.6, 1.85):
            prm = derive_conjugates(1, 2.0, p)
            assert h_quotient(1, 2.0, p) < theorem2_upper_bound(1, 2.0, prm.r, prm.s)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            h_quotient(1, 2.0, 2.0)  # p = Q / (Q - lam): q infinite


class TestLiebDiagonalConstant:
    def test_variants_coincide_at_N2(self):
        v1 = lieb_diagonal_constant(2, 1.0, "standard")
        v2 = lieb_diagonal_constant(2, 1.0, "paper")
        assert v1 == pytest.approx(v2, rel=1e-14)
        assert v1 == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)

    def test_N3_lam2_standard(self):
        expect = math.pi ** 1.5 * math.exp(-(1.0 / 3.0) * (log_gamma(1.5) - log_gamma(3.0)))
        val = lieb_diagonal_constant(3, 2.0, "standard")
        assert val == pytest.approx(expect, rel=1e-12)
        assert val == pytest.approx(7.303872119375107, rel=1e-12)

    def test_variant_gap_at_N3(self):
        std = lieb_diagonal_constant(3, 2.0, "standard")
        pap = lieb_diagonal_constant(3, 2.0, "paper")
        assert std / pap == pytest.approx(math.pi ** (1.0 / 3.0), rel=1e-12)

    def test_default_variant(self):
        assert DEFAULT_LIEB_VARIANT == "standard"
        assert lieb_diagonal_constant(3, 2.0) == lieb_diagonal_constant(3, 2.0, "standard")

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            lieb_diagonal_constant(3, 3.0)
        with pytest.raises(ValueError):
            lieb_diagonal_constant(3, 1.0, "bogus")


class TestLiebLossUpperBound:
    def test_reference_value(self):
        val = lieb_loss_upper_bound(2, 1.0, 4.0 / 3.0, 4.0 / 3.0)
        assert val == pytest.approx(2.25 * math.sqrt(2.0 * math.pi), rel=1e-12)
        assert val > lieb_diagonal_constant(2, 1.0)

    def test_symmetry(self):
        # admissible off-diagonal pair: 1/r + 1/s = 2 - lam/N
        lam, N, r = 1.5, 3, 1.6
        s = 1.0 / (2.0 - lam / N - 1.0 / r)
        assert lieb_loss_upper_bound(N, lam, r, s) == pytest.approx(
            lieb_loss_upper_bound(N, lam, s, r), rel=1e-13
        )


class TestDominance:
    def test_heisenberg_sweep(self):
        for n in (1, 2, 3):
            Q = 2 * n + 2
            for lam in np.linspace(Q / 51, 50 * Q / 51, 50):
                r = 2.0 * Q / (2.0 * Q - lam)
                assert theorem2_upper_bound(n, lam, r, r) > frank_lieb_constant(n, lam)

    def test_euclidean_sweep_selected_variant(self):
        for N in (1, 2, 3):
            for lam in np.linspace(N / 51, 50 * N / 51, 50):
                r = 2.0 * N / (2.0 * N - lam)
                assert lieb_loss_upper_bound(N, lam, r, r) > lieb_diagonal_constant(
                    N, lam, DEFAULT_LIEB_VARIANT
                )
