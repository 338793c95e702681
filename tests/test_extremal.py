import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import beta, betainc

from heisenberg_hls.constants import (
    HlsParams,
    derive_conjugates,
    diagonal_params,
    h_quotient,
    theorem2_upper_bound,
)
from heisenberg_hls import extremal, grids
from heisenberg_hls.extremal import (
    ConvergenceTrace,
    IterationControls,
    _ascend,
    align,
    dilate_grid_function,
    euler_lagrange_step,
    extremal_H,
    gaussian_profile,
    levy_concentration_grid,
    maximize,
    perturbed_H,
    renormalize_concentration,
    searched_params,
)
from heisenberg_hls.grids import CylGridFunction, GridSpec, lp_norm, normalized, rho_cell_edges, sample
from heisenberg_hls.montecarlo import gaussian_callable, heisenberg_extremal_callable
from heisenberg_hls import quadrature
from heisenberg_hls.quadrature import far_field, hls_quotient

SMALL = GridSpec(n=1, n_rho=28, rho_min=5e-3, rho_max=25.0, n_t=56, t_max=25.0)
PARAMS = diagonal_params(1, 2.0)


def unit_H(spec=SMALL):
    return normalized(extremal_H(1, 2.0, spec), PARAMS.p)


class TestExtremalH:
    def test_value_at_origin(self):
        h = extremal_H(1, 2.0, GridSpec(n_rho=8, rho_min=1e-6, rho_max=1.0, n_t=9, t_max=1.0))
        # closest node to the origin carries a value near H(0,0) = 1
        assert h.values[0, 4] == pytest.approx(1.0, rel=1e-6)

    def test_value_at_rho1(self):
        # H(1, 0) = ((1+1)^2 + 0)^(-3/2) = 1/8 for n = 1, lambda = 2
        expo = (2 * 4 - 2.0) / 4.0
        assert ((1 + 1.0 ** 2) ** 2 + 0.0) ** (-expo) == pytest.approx(0.125, rel=1e-14)

    def test_decay_exponent(self):
        # H ~ |u|^-(2Q-lam) along the rho axis; (1+rho^2)/rho^2 -> 1 slowly,
        # so only a few percent agreement is expected at rho = 10..100
        h = extremal_H(1, 2.0, GridSpec(n_rho=32, rho_min=10.0, rho_max=100.0, n_t=16, t_max=1.0))
        rho = h.rho_nodes
        ratio = h.values[-1, 8] / h.values[0, 8]
        assert ratio == pytest.approx((rho[0] / rho[-1]) ** 6, rel=5e-2)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            extremal_H(1, 4.5, SMALL)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("lam", [0.7, 2.0, 3.0])
    def test_grid_and_point_forms_agree_bitwise(self, n, lam):
        """extremal_H and gaussian_profile equal, bit for bit, the point
        callables of montecarlo at the grid nodes (rho, 0, ..., 0, t)."""
        spec = GridSpec(n=n, n_rho=12, rho_min=1e-2, rho_max=20.0, n_t=14, t_max=20.0)
        R, T = np.meshgrid(spec.rho_nodes(), spec.t_nodes(), indexing="ij")
        pts = np.zeros((R.size, 2 * n + 1))
        pts[:, 0], pts[:, 2 * n] = R.ravel(), T.ravel()
        h = extremal_H(n, lam, spec).values
        assert np.array_equal(h.ravel(), heisenberg_extremal_callable(n, lam)(pts))
        g = gaussian_profile(spec).values
        assert np.array_equal(g.ravel(), gaussian_callable(n)(pts))


class TestEulerLagrangeStep:
    def test_output_unit_norm(self):
        f = normalized(gaussian_profile(SMALL), PARAMS.p)
        out = euler_lagrange_step(f, PARAMS)
        assert lp_norm(out, PARAMS.p) == pytest.approx(1.0, rel=1e-12)
        assert np.all(out.values >= 0.0)

    def test_H_is_near_fixed_point(self):
        f = unit_H()
        out = euler_lagrange_step(f, PARAMS)
        res = lp_norm(f.with_values(f.values - out.values), PARAMS.p)
        assert res < 0.05

    def test_fixed_point_residual_shrinks_under_refinement(self):
        specs = [SMALL, SMALL.refined()]
        residuals = []
        for spec in specs:
            f = unit_H(spec)
            out = euler_lagrange_step(f, PARAMS)
            residuals.append(lp_norm(f.with_values(f.values - out.values), PARAMS.p))
        assert residuals[1] < residuals[0]

    def test_rejects_negative_values(self):
        f = unit_H()
        for i, j, value in ((0, 0, -1e-3), (3, 7, -1e-300)):
            g = f.with_values(f.values.copy())
            g.values[i, j] = value
            with pytest.raises(ValueError, match="requires a nonnegative profile"):
                euler_lagrange_step(g, PARAMS)

    def test_rejects_unnormalized(self):
        f = unit_H()
        for scale in (2.0, 0.5, 1.0 + 1e-9):
            with pytest.raises(ValueError, match="requires unit L\\^p norm"):
                euler_lagrange_step(f.with_values(scale * f.values), PARAMS)

    def test_degenerate_p2_q2_is_power_iteration(self):
        # with p = q = 2 the step is one power iteration on I o I
        from heisenberg_hls.quadrature import fractional_integral_grid

        # p = 2 is outside (1, Q/(Q - lam)) = (1, 2), so HlsParams rejects
        # it; the step reads only lam, p and q
        params = SimpleNamespace(lam=2.0, p=2.0, q=2.0)
        f = normalized(gaussian_profile(SMALL), 2.0)
        out = euler_lagrange_step(f, params)
        ref = fractional_integral_grid(fractional_integral_grid(f, 2.0), 2.0)
        ref_vals = ref.values / lp_norm(ref, 2.0)
        assert np.allclose(out.values, ref_vals, rtol=1e-10, atol=1e-14)


def loop_ball_masses(density, g, R):
    """Per-row overlap loop: one (n_t x n_t) coverage matrix per rho row."""
    rho = g.rho_nodes
    t = g.t_nodes
    out = np.zeros(t.size)
    dt = t[1] - t[0]
    cell_lo = t - 0.5 * dt
    cell_hi = t + 0.5 * dt
    for i in np.flatnonzero(rho ** 4 < R ** 4):
        h = math.sqrt(R ** 4 - rho[i] ** 4)
        # coverage[a, j] = |[t_j - dt/2, t_j + dt/2] cap [t_a - h, t_a + h]| / dt
        lo = np.maximum(cell_lo[None, :], (t - h)[:, None])
        hi = np.minimum(cell_hi[None, :], (t + h)[:, None])
        coverage = np.clip(hi - lo, 0.0, None) / dt
        out += coverage @ density[i]
    return out


@pytest.mark.parametrize("R", [-1.0, 0.0, math.inf, math.nan])
def test_levy_concentration_grid_rejects_bad_radius(R):
    # only R^4 enters the balls, so R = -1 would pass for R = 1
    with pytest.raises(ValueError, match=f"R must be positive and finite, got {R}"):
        levy_concentration_grid(unit_H(), PARAMS.p, R)


@pytest.mark.parametrize(
    "spec",
    [SMALL, GridSpec(), GridSpec(n=1, n_rho=9, rho_min=1e-2, rho_max=10.0, n_t=7, t_max=3.0)],
    ids=["28x56", "default", "9x7"],
)
@pytest.mark.parametrize("R", [0.05, 1.0, 7.0, 40.0])
def test_axis_ball_masses_match_overlap_loop(spec, R):
    # R = 7 and 40 give window half-widths beyond the t range
    rng = np.random.default_rng(spec.n_rho * spec.n_t)
    g = CylGridFunction(spec, rng.random((spec.n_rho, spec.n_t)))
    density = g.weights * g.values ** PARAMS.p
    ref = np.max(loop_ball_masses(density, g, R))
    assert ref > 0.0
    assert levy_concentration_grid(g, PARAMS.p, R) == pytest.approx(ref, rel=1e-12, abs=0.0)


def gauge_moments(f, p):
    """<t> and <log |u - <t>|> of f's density |f|^p W, |u| the Koranyi
    norm (rho^4 + t^2)^(1/4): the two moments the gauge fix sets."""
    density = f.weights * np.abs(f.values) ** p
    density /= np.sum(density)
    c = float(density.sum(axis=0) @ f.t_nodes)
    radius4 = f.rho_nodes[:, None] ** 4 + (f.t_nodes - c) ** 2
    return c, 0.25 * float(np.sum(density * np.log(radius4)))


GAUGE_STARTS = {
    "H": lambda spec: extremal_H(1, 2.0, spec),
    "gauss": gaussian_profile,
    "hperturb": lambda spec: perturbed_H(1, 2.0, spec),
}
GAUGE_SPECS = [SMALL, GridSpec()]  # 28x56 and 64x128


class TestRenormalizeConcentration:
    def test_target_concentration_reached(self):
        # the gauge's target: <t> within half a t cell of 0 and mean
        # log-radius near 0 (the resample shifts it by a few percent, see
        # test_fixed_point_when_already_normalized), at unit L^p norm
        for spec in GAUGE_SPECS:
            for start in GAUGE_STARTS.values():
                out, d, a = renormalize_concentration(start(spec), PARAMS)
                c, log_radius = gauge_moments(out, PARAMS.p)
                assert abs(c) <= 0.5 * spec.dt
                assert abs(log_radius) <= 0.03
                assert lp_norm(out, PARAMS.p) == pytest.approx(1.0, rel=1e-12)

    def test_fixed_point_when_already_normalized(self):
        # in the continuum a second renormalization is the identity; on the
        # grid the first one's bilinear resample leaves d within 0.03 of 1
        # (0.977-0.997 on 28x56, 0.987-0.995 on 64x128)
        for spec in GAUGE_SPECS:
            for start in GAUGE_STARTS.values():
                once, d1, a1 = renormalize_concentration(start(spec), PARAMS)
                twice, d2, a2 = renormalize_concentration(once, PARAMS)
                assert d2 == pytest.approx(1.0, abs=3e-2)
                assert a2 == 0.0

    def test_dilate_moves_d_by_its_factor(self):
        # the mean log-radius of a 1.6-dilate is larger by log 1.6 in the
        # continuum, so its d is the start's over 1.6; on the grid within 2%
        # (worst 1.35%, the Gaussian on 28x56)
        for spec in GAUGE_SPECS:
            for start in GAUGE_STARTS.values():
                f = start(spec)
                _, d, _ = renormalize_concentration(f, PARAMS)
                _, d_dilated, _ = renormalize_concentration(
                    dilate_grid_function(f, 1.6, PARAMS.p), PARAMS
                )
                assert 1.6 * d_dilated == pytest.approx(d, rel=2e-2)

    def test_concentrated_profile_spread_out(self):
        # mass packed well inside B_1 has Q(1) = 1; renormalization must
        # dilate with d > 1 to spread it out (odd n_t puts a node at t = 0).
        # The spike is narrower in t than dt = 0.52, so the grid holds it as
        # a t = 0 column whose radius reads as rho alone: the first
        # renormalization overshoots (mean log-radius -3.43 -> +1.16), and a
        # second brings it to -0.055
        spec = GridSpec(n=1, n_rho=48, rho_min=1e-4, rho_max=25.0, n_t=97, t_max=25.0)
        f = sample(lambda R, T: np.exp(-((R / 0.05) ** 2) - (T / 0.05) ** 2), spec)
        f = normalized(f, PARAMS.p)
        assert levy_concentration_grid(f, PARAMS.p) > 0.99
        out, d, a = renormalize_concentration(f, PARAMS)
        assert d > 1.0
        out, _, _ = renormalize_concentration(out, PARAMS)
        assert abs(gauge_moments(out, PARAMS.p)[1]) <= 0.06

    def test_t_recentering(self):
        spec = SMALL
        f = sample(lambda R, T: ((1 + R ** 2) ** 2 + (T - 5.0) ** 2) ** (-1.5), spec)
        f = normalized(f, PARAMS.p)
        # the dilate's t-mean is d^2 times the bump's, 5 but for the box's
        # asymmetric cut, and a moves it by whole t nodes to within dt / 2
        out, d, a = renormalize_concentration(f, PARAMS)
        assert a == pytest.approx(5.0 * d * d, abs=spec.dt)
        assert abs(gauge_moments(out, PARAMS.p)[0]) <= 0.5 * spec.dt

    def test_norm_preserved_exactly(self):
        # the moments are ratios of masses: the input's scale moves neither
        # d nor a
        f = gaussian_profile(SMALL)
        _, d, a = renormalize_concentration(f, PARAMS)
        for scale in (1e-3, 1.0, 1e3):
            out, d_s, a_s = renormalize_concentration(f.with_values(scale * f.values), PARAMS)
            assert lp_norm(out, PARAMS.p) == pytest.approx(1.0, rel=1e-12)
            assert (d_s, a_s) == (d, a)

    def test_one_norm_per_call(self, monkeypatch):
        # the returned profile is divided by its L^p norm, and no other
        # norm is taken, with a t-recentering (the second profile) or without
        calls = []
        counted = lambda f, p: calls.append(p) or lp_norm(f, p)  # noqa: E731
        monkeypatch.setattr(extremal, "lp_norm", counted)
        monkeypatch.setattr(grids, "lp_norm", counted)
        bump = sample(lambda R, T: np.exp(-(R ** 2) - (T - 5.0) ** 2), SMALL)
        for f in (gaussian_profile(SMALL), bump):
            calls.clear()
            _, _, a = renormalize_concentration(f, PARAMS)
            assert calls == [PARAMS.p]
        assert a != 0.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="zero function"):
            renormalize_concentration(sample(lambda R, T: 0.0 * R, SMALL), PARAMS)

    def test_grid_too_coarse_for_the_gauge(self):
        # on the 8x8 default-bounds grid the dilate of the Gaussian queries
        # its nearest t nodes beyond t_max: the error names d, not a zero f
        f = gaussian_profile(GridSpec(n=1, n_rho=8, n_t=8))
        with pytest.raises(ValueError, match=r"dilation by d = 0\.37\d* leaves no nonzero node"):
            renormalize_concentration(f, PARAMS)

    def test_probe_whose_density_underflows(self):
        # the density is the gauge's one probe of f.  At 1e-300 times the
        # Gaussian the p-th powers underflow to 0 at p = 1.05 and would
        # leave the moments 0 / 0; divided by the peak first, as normalized
        # does, they keep their digits and give the unscaled profile's gauge
        spec = GridSpec(n=1, n_rho=24, n_t=48)
        params = HlsParams(1, 2.0, 1.05)
        f = gaussian_profile(spec)
        _, d, a = renormalize_concentration(f, params)
        out, d_tiny, a_tiny = renormalize_concentration(f.with_values(1e-300 * f.values), params)
        assert d_tiny == pytest.approx(d, rel=1e-12) and a_tiny == a
        assert lp_norm(out, params.p) == pytest.approx(1.0, rel=1e-12)


class TestDilateGridFunction:
    def test_norm_restored(self):
        f = unit_H()
        g = dilate_grid_function(f, 2.3, PARAMS.p)
        assert lp_norm(g, PARAMS.p) == pytest.approx(1.0, rel=1e-12)

    def test_identity_factor(self):
        f = unit_H()
        g = dilate_grid_function(f, 1.0, PARAMS.p)
        assert np.allclose(g.values, f.values, rtol=1e-10)

    @pytest.mark.parametrize("d", [0.0, -1.5, math.inf, math.nan])
    def test_rejects_bad_factor(self, d):
        with pytest.raises(ValueError, match=f"must be positive and finite, got {d}"):
            dilate_grid_function(unit_H(), d, PARAMS.p)

    def test_huge_factor_keeps_the_norm(self):
        # at d = 1e300 every node reads f near (rho_min, 0), and no
        # amplitude factor underflows to the zero function
        g = dilate_grid_function(unit_H(), 1e300, PARAMS.p)
        assert lp_norm(g, PARAMS.p) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_a_dilate_with_no_nonzero_node(self):
        # at d = 1e-5 every rho query lies beyond rho_max and every t query
        # off the lattice
        with pytest.raises(ValueError, match="no nonzero node"):
            dilate_grid_function(unit_H(), 1e-5, PARAMS.p)

    @pytest.mark.parametrize("d", [1e-170, 1e-300])
    @pytest.mark.parametrize("n_t", [56, 57])
    def test_underflowing_factor_leaves_no_nonzero_node(self, n_t, d):
        # d * d underflows to 0; on 28x57 the node at t = 0 still queries
        # t = 0, not 0 / 0, so the dilate is rejected for what it is
        spec = GridSpec(n=1, n_rho=28, rho_min=5e-3, rho_max=25.0, n_t=n_t, t_max=25.0)
        with pytest.raises(ValueError, match="no nonzero node"):
            dilate_grid_function(gaussian_profile(spec), d, 4.0 / 3.0)

    def test_dilation_matches_analytic(self):
        # fine t grid keeps the bilinear resampling error below the tolerance
        spec = GridSpec(n=1, n_rho=64, rho_min=1e-3, rho_max=30.0, n_t=257, t_max=30.0)
        f = normalized(extremal_H(1, 2.0, spec), PARAMS.p)
        d = 1.5
        g = dilate_grid_function(f, d, PARAMS.p)
        expo = 1.5
        ref = ((1.0 + (f.rho_nodes[:, None] / d) ** 2) ** 2 + (f.t_nodes[None, :] / d ** 2) ** 2) ** (-expo)
        ref *= d ** (-4.0 / PARAMS.p)
        ref /= lp_norm(f.with_values(ref), PARAMS.p)
        # compare in L^p, the metric the search uses; sup-norm at the t peak
        # is dominated by bilinear interpolation curvature
        diff = lp_norm(g.with_values(g.values - ref), PARAMS.p)
        assert diff < 2e-2


class TestMaximize:
    def test_from_H_converges_immediately(self):
        f0 = extremal_H(1, 2.0, SMALL)
        f, q, trace = maximize(PARAMS, f0, IterationControls(max_iter=40))
        assert q == pytest.approx(hls_quotient(f, PARAMS), rel=1e-12)
        assert q == pytest.approx(4.0, rel=0.05)

    def test_perturbed_H_recovers_sharp_constant(self):
        f0 = perturbed_H(1, 2.0, SMALL)
        f, q, trace = maximize(PARAMS, f0, IterationControls(max_iter=60))
        assert q == pytest.approx(4.0, rel=0.05)
        d, a, rel = align(f, extremal_H(1, 2.0, SMALL), PARAMS.p)
        assert rel < 0.05

    def test_trace_nondecreasing(self):
        f0 = gaussian_profile(SMALL)
        f, q, trace = maximize(PARAMS, f0, IterationControls(max_iter=40))
        qs = trace.quotients
        assert all(b >= a for a, b in zip(qs, qs[1:]))
        assert all(np.isfinite(qs))

    def test_stop_no_ascent(self):
        # the 5th iteration accepts no damped trial; a 6th would repeat it
        _, _, trace = maximize(PARAMS, gaussian_profile(SMALL))
        assert trace.stop_reason == "no_ascent"
        assert trace.iterations[-1] == 5
        assert all(trace.accepted[:-1]) and not trace.accepted[-1]

    def test_stop_max_iter(self):
        _, _, trace = maximize(PARAMS, gaussian_profile(SMALL), IterationControls(max_iter=2))
        assert trace.stop_reason == "max_iter"
        assert trace.iterations == [0, 1, 2]

    @pytest.mark.parametrize(
        "controls",
        [{"max_iter": -5}, {"max_iter": 2.5}, {"max_iter": math.inf},
         {"rtol": -1.0}, {"rtol": math.nan}],
        ids=str,
    )
    def test_bad_controls_rejected(self, controls):
        with pytest.raises(ValueError):
            IterationControls(**controls)

    def test_zero_max_iter_keeps_the_start(self):
        _, _, trace = maximize(PARAMS, gaussian_profile(SMALL), IterationControls(max_iter=0))
        assert (trace.iterations, trace.stop_reason) == ([0], "max_iter")

    def test_row_0_records_the_start_gauge(self):
        # the start is renormalized too; row 0 holds the (d, a) applied to it
        start = gaussian_profile(SMALL)
        _, d, a = renormalize_concentration(normalized(start, PARAMS.p), PARAMS)
        _, _, trace = maximize(PARAMS, start, IterationControls(max_iter=0))
        assert (trace.dilations[0], trace.t_shifts[0]) == (d, a)
        assert d != 1.0

    def test_stop_stall(self):
        # p = 1.85, searched at p* = 1.0423: every step ascends, the gains
        # halving from 2.6e-7 at iteration 9 to 2.5e-10, so the gain over the
        # window falls below rtol = 1e-7 (relative) at iteration 18
        _, _, trace = maximize(search_params(1.85), gaussian_profile(SMALL))
        assert trace.stop_reason == "stall"
        assert trace.iterations[-1] == 18
        assert all(trace.accepted)

    def test_rejects_zero_init(self):
        f0 = SMALL and sample(lambda R, T: 0.0 * R, SMALL)
        with pytest.raises(ValueError):
            maximize(PARAMS, f0)

    def test_rejects_negative_init(self):
        f0 = sample(lambda R, T: np.cos(T), SMALL)
        with pytest.raises(ValueError):
            maximize(PARAMS, f0)

    def test_quotient_never_exceeds_sharp_plus_grid_error(self):
        f0 = perturbed_H(1, 2.0, SMALL)
        _, q, trace = maximize(PARAMS, f0, IterationControls(max_iter=60))
        assert max(trace.quotients) <= 4.0 * 1.05

    def test_no_mass_escape_after_renormalization(self):
        # the gauge-fixed maximizer keeps its mass in bounded balls: the
        # concentration profile climbs toward 1 (0.445 at R = 1), the
        # maximizer meets the moment target, and after the start every
        # renormalization is a small correction (d = 0.965-0.984)
        f0 = gaussian_profile(SMALL)
        f, _, trace = maximize(PARAMS, f0, IterationControls(max_iter=40))
        profile = [levy_concentration_grid(f, PARAMS.p, R) for R in (1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a for a, b in zip(profile, profile[1:]))
        assert profile[-1] > 0.9
        c, log_radius = gauge_moments(f, PARAMS.p)
        assert abs(c) <= 0.5 * SMALL.dt and abs(log_radius) <= 0.03
        assert all(abs(d - 1.0) < 0.05 for d in trace.dilations[1:])


@pytest.mark.parametrize("p", [1.15, 1.6, 1.85])
def test_off_diagonal_search(p):
    # existence holds for every admissible (r, s), not only r = s
    # The duality bound L = max(Q_H(p), Q_H(p*)) holds on the grid once
    # the quotient carries the far-field term (0.6-0.9% above it on 28x56)
    params = derive_conjugates(1, 2.0, p)
    start = gaussian_profile(SMALL)
    _, q, trace = maximize(params, start)
    assert all(b >= a for a, b in zip(trace.quotients, trace.quotients[1:]))
    assert hls_quotient(normalized(start, p), params) <= q
    assert q <= theorem2_upper_bound(1, 2.0, params.r, params.s)
    assert q >= max(h_quotient(1, 2.0, p), h_quotient(1, 2.0, params.r))
    _, q_dilated, _ = maximize(params, dilate_grid_function(start, 1.6, p))
    assert q_dilated == pytest.approx(q, rel=1e-3)


@pytest.mark.parametrize(
    "p, q_found, n_records, stop",
    [
        (4.0 / 3.0, 3.99678720488203, 6, "no_ascent"),
        (1.15, 4.58217675430106, 8, "no_ascent"),
        (1.6, 4.64995067009205, 8, "no_ascent"),
        (1.85, 7.60858222800096, 19, "stall"),
    ],
)
def test_search_results_pinned(p, q_found, n_records, stop):
    # the four searches of the benchmark's search workload, the last two
    # run at their duals p* = 1.1429 and 1.0423; a change to the search
    # that moves these numbers has to show it here
    params = PARAMS if p == 4.0 / 3.0 else derive_conjugates(1, 2.0, p)
    _, q, trace = maximize(params, gaussian_profile(SMALL))
    assert q == pytest.approx(q_found, rel=1e-10)
    assert len(trace.iterations) == n_records
    assert trace.stop_reason == stop


@pytest.mark.parametrize(
    "p, d_regauge",
    [(4.0 / 3.0, 0.983794), (1.15, 0.988243), (1.6, 0.988403), (1.85, 0.991823)],
)
def test_trace_records_the_regauge_residual(p, d_regauge):
    # the gauge is not idempotent on the grid: the last trace row holds the
    # final profile's own gauge moments, so renormalizing it again dilates
    # it by exactly exp(-log_radius), and its t-mean is within dt/2 of 0
    params = search_params(p)
    f, _, trace = maximize(params, gaussian_profile(SMALL))
    _, d, a = renormalize_concentration(f, searched_params(params))
    assert math.exp(-trace.log_radii[-1]) == d
    assert d == pytest.approx(d_regauge, abs=1e-6)
    assert abs(trace.t_means[-1]) <= 0.5 * SMALL.dt
    assert a == 0.0
    c, log_radius = gauge_moments(f, searched_params(params).p)
    assert trace.t_means[-1] == pytest.approx(c, rel=1e-12, abs=1e-12)
    assert trace.log_radii[-1] == pytest.approx(log_radius, rel=1e-12)


def search_bits(result):
    """A search result as comparable bits: profile bytes, quotient, trace
    rows and stop reason."""
    f, q, trace = result
    return f.values.tobytes(), q, list(trace.rows()), trace.stop_reason


# n = 1 puts the diagonal at p_d = 8/7, 4/3 and 8/5 for lam = 1, 2 and 3
@pytest.mark.parametrize("lam, p", [(1.0, 1.25), (2.0, 1.85), (3.0, 2.5)])
def test_search_above_the_diagonal_is_the_dual_search(lam, p):
    # C(r, s) = C(s, r): maximize at p > p_d returns the search at the dual
    # exponent p* = r bit for bit
    params = derive_conjugates(1, lam, p)
    dual = HlsParams(1, lam, params.r)
    assert dual.p < diagonal_params(1, lam).p < p
    assert searched_params(params) == dual
    assert search_bits(maximize(params, gaussian_profile(SMALL))) == search_bits(
        maximize(dual, gaussian_profile(SMALL))
    )


@pytest.mark.parametrize("p", [1.05, 1.15, 4.0 / 3.0])
def test_search_up_to_the_diagonal_is_not_folded(p):
    # at p <= p_d (the diagonal included) maximize is the ascent at p
    params = search_params(p)
    assert searched_params(params) is params
    assert search_bits(maximize(params, gaussian_profile(SMALL))) == search_bits(
        _ascend(params, gaussian_profile(SMALL), IterationControls())
    )


@pytest.mark.parametrize("p", [1.6, 1.85])
def test_folded_search_ends_at_or_above_the_unfolded(p):
    params = derive_conjugates(1, 2.0, p)
    _, q, _ = maximize(params, gaussian_profile(SMALL))
    _, q_unfolded, _ = _ascend(params, gaussian_profile(SMALL), IterationControls())
    assert q >= q_unfolded


def reference_resample(values, rho, t, d, t_shift=0.0):
    """_resample with its stencils rebuilt on every call."""
    def axis(nodes, query):
        i = np.clip(np.searchsorted(nodes, query) - 1, 0, nodes.size - 2)
        w = (query - nodes[i]) / (nodes[i + 1] - nodes[i])
        w1 = np.clip(w, 0.0, 1.0)
        return i, 1.0 - w1, w1, w

    logr = np.log(rho)
    li, r0, r1, wl = axis(logr, logr - math.log(d))
    r0[wl > 1.0] = r1[wl > 1.0] = 0.0
    tq = (t - t_shift) / (d * d)
    ti, c0, c1, _ = axis(t, tq)
    off = (tq < t[0]) | (tq > t[-1])
    c0[off] = c1[off] = 0.0
    rows = values[li] * r0[:, None] + values[li + 1] * r1[:, None]
    return rows[:, ti] * c0 + rows[:, ti + 1] * c1


def reference_renormalize(f, params):
    """renormalize_concentration written out from its rule: the density
    |f / peak|^p W, its t-mean c, the mean of log |u - c| =
    log(hypot(rho^2, t - c)) / 2, d = exp(-mean), the translation
    a = dt round(d^2 c / dt), and f(z / d, (t + a) / d^2) by
    reference_resample divided by its L^p norm."""
    p = params.p
    values, rho, t = f.values, f.rho_nodes, f.t_nodes
    density = f.weights * np.abs(values / np.max(np.abs(values))) ** p
    mass = np.sum(density)
    c = np.sum(density * t) / mass
    d = math.exp(-np.sum(density * np.log(np.hypot(rho[:, None] ** 2, t - c))) / (2.0 * mass))
    a = f.spec.dt * round(d * d * c / f.spec.dt)
    out = f.with_values(reference_resample(values, rho, t, d, -a))
    out.values /= lp_norm(out, p)
    return out, d, a


def assert_same_renormalization(got, want):
    # the two sum in different orders: d agrees to rounding, and the
    # profiles to the rounding that d's last bits carry through the stencils
    assert got[1] == pytest.approx(want[1], rel=1e-12)
    assert got[2] == want[2]
    np.testing.assert_allclose(got[0].values, want[0].values, rtol=1e-9, atol=1e-12 * np.max(want[0].values))


def search_params(p):
    return PARAMS if p == 4.0 / 3.0 else derive_conjugates(1, 2.0, p)


SEARCH_P = [4.0 / 3.0, 1.15, 1.6, 1.85]


class TestCachedProbes:
    """The gauge against reference_renormalize, its rule written out with
    the stencils rebuilt per call, on every renormalization of the searches
    and on random profiles."""

    @pytest.mark.parametrize("p", SEARCH_P)
    def test_search_renormalizations_match_reference(self, p, monkeypatch):
        self.check_renormalizations(monkeypatch, maximize, search_params(p))

    def test_unfolded_p185_renormalizations_match_reference(self, monkeypatch):
        # the ascent maximize folds away at p = 1.85, whose iterates spread
        # further toward the box
        self.check_renormalizations(monkeypatch, _ascend, search_params(1.85))

    @staticmethod
    def check_renormalizations(monkeypatch, search, params):
        """Every renormalization of search(params, Gaussian start) agrees
        with reference_renormalize."""
        seen = []
        renormalize = extremal.renormalize_concentration

        def checked(f, params):
            out = renormalize(f, params)
            assert_same_renormalization(out, reference_renormalize(f, params))
            seen.append(out[1])
            return out

        monkeypatch.setattr(extremal, "renormalize_concentration", checked)
        search(params, gaussian_profile(SMALL), IterationControls())
        assert len(seen) >= 4

    @pytest.mark.parametrize(
        "spec",
        [SMALL, GridSpec(n=1, n_rho=64, rho_min=1e-3, rho_max=50.0, n_t=127, t_max=50.0)],
        ids=["28x56", "64x127"],
    )
    @pytest.mark.parametrize("p", [4.0 / 3.0, 1.85])
    def test_random_profiles_match_reference(self, spec, p):
        # bumps of random width and height, off the axis and off t = 0 or
        # on them, times nonnegative noise; some need a t-translation
        params = search_params(p)
        rng = np.random.default_rng(spec.n_t + int(100 * p))
        R, T = np.meshgrid(spec.rho_nodes(), spec.t_nodes(), indexing="ij")
        shifts = 0
        for k in range(25):
            width = 10.0 ** rng.uniform(-1.5, 1.0)
            t0 = 0.0 if k % 3 == 0 else rng.uniform(-5.0, 5.0)
            bump = np.exp(-((R / width) ** 2) - ((T - t0) / width) ** 2)
            f = CylGridFunction(spec, bump * rng.random(R.shape))
            got = renormalize_concentration(f, params)
            assert_same_renormalization(got, reference_renormalize(f, params))
            shifts += got[2] != 0.0
        assert 0 < shifts < 25


def two_beta_far_field_constant(spec, A):
    """C_out(A) of quadrature.far_field written out: the hull's side and top
    pieces as two incomplete beta functions, with X the outer rho cell edge
    squared and T = t_max + dt/2, 0 at A <= Q = 4."""
    m = 0.5 * A - 2.0
    if m <= 0.0:
        return 0.0
    X = rho_cell_edges(spec.rho_nodes())[-1] ** 2
    T = spec.t_max + 0.5 * spec.dt
    b = 0.5 * (m + 1.0)
    hull = X * X + T * T
    side = 0.5 * beta(0.5, b) * betainc(0.5, b, T * T / hull) * X ** -m
    top = 0.5 * beta(0.5, b) * betainc(0.5, b, X * X / hull) * T ** -m
    return 2.0 * math.pi * float(side + top) / m


def test_far_field_constant_once_per_grid_and_exponent(monkeypatch):
    # C_out(lam q) depends on the grid and lam q alone; the four searches of
    # the benchmark's round score 80 trials and take 37 ascent steps, and
    # compute it once per distinct (spec, lam q), from an empty cache
    calls = []
    incomplete = quadrature.betainc

    def counted(*args):
        calls.append(args)
        return incomplete(*args)

    monkeypatch.setattr(quadrature, "betainc", counted)
    quadrature._far_field_constant.cache_clear()
    for p in SEARCH_P:
        maximize(search_params(p), gaussian_profile(SMALL))
    exponents = {2.0 * searched_params(search_params(p)).q for p in SEARCH_P}
    assert len(calls) == len(exponents) == 4
    # bit for bit the formula, and far_field hands it out from the cache
    # (no further betainc call) next to a mass formed on every call
    f = gaussian_profile(SMALL)
    for A in exponents:
        c_out = two_beta_far_field_constant(SMALL, A)
        assert quadrature._far_field_constant(SMALL, A) == c_out
        assert far_field(f, A) == (float(np.sum(f.weights * f.values)), c_out)
    assert len(calls) == 4
    # the constant follows the whole spec, t_max included, and is 0 at A <= Q
    taller = dataclasses.replace(SMALL, t_max=2.0 * SMALL.t_max)
    assert quadrature._far_field_constant(taller, 8.0) != quadrature._far_field_constant(SMALL, 8.0)
    assert quadrature._far_field_constant(taller, 8.0) == two_beta_far_field_constant(taller, 8.0)
    assert quadrature._far_field_constant(SMALL, 4.0) == quadrature._far_field_constant(SMALL, 3.0) == 0.0
    # clear_table_cache empties it with the kernel tables
    quadrature.clear_table_cache()
    assert quadrature._far_field_constant.cache_info().currsize == 0


def test_every_trial_quotient_is_hls_quotient(monkeypatch):
    # every trial of the p = 1.6 search (the start and each damped mixture,
    # as renormalize_concentration returns it), accepted or not, is scored
    # by hls_quotient's bits at the searched tuple p* = 1.1429, and the
    # trace's quotients are those of the accepted trials
    trials, scored = [], []
    renormalize, quotient = extremal.renormalize_concentration, extremal.quotient_and_integral

    def recording_renormalize(f, params):
        out = renormalize(f, params)
        trials.append(out[0])
        return out

    def recording_quotient(f, params):
        out = quotient(f, params)
        scored.append((f, out[0]))
        return out

    monkeypatch.setattr(extremal, "renormalize_concentration", recording_renormalize)
    monkeypatch.setattr(extremal, "quotient_and_integral", recording_quotient)
    _, q, trace = maximize(search_params(1.6), gaussian_profile(SMALL))
    params = searched_params(search_params(1.6))
    assert len(trials) == len(scored) > len(trace.iterations)
    assert all(f is trial for (f, _), trial in zip(scored, trials))
    quotients = [hls_quotient(f, params) for f in trials]
    assert [q_f for _, q_f in scored] == quotients
    assert set(trace.quotients) <= set(quotients) and q == max(quotients)


def test_search_round_kernel_applies(monkeypatch):
    # the four searches of the benchmark's round, p = 1.6 and 1.85 at their
    # duals: 80 trials (the four starts included) apply the table once
    # each, and 37 ascent steps once more, taking I_lam f from the quotient
    # of the accepted trial (or the start) instead of applying the table to
    # the same values again
    calls = []
    apply = quadrature.KernelTable.apply

    def counted(table, values):
        calls.append(values.shape)
        return apply(table, values)

    monkeypatch.setattr(quadrature.KernelTable, "apply", counted)
    for p in SEARCH_P:
        maximize(search_params(p), gaussian_profile(SMALL))
    assert len(calls) == 117


class TestAlign:
    @pytest.mark.parametrize(
        "spec",
        [SMALL, GridSpec(n=1, n_rho=32, rho_min=1e-3, rho_max=30.0, n_t=64, t_max=30.0)],
        ids=["28x56", "32x64"],
    )
    def test_bits_of_uncached_reference_resample(self, spec, monkeypatch):
        # every residual has the bits of the uncached reference resample
        f, g = normalized(extremal_H(1, 2.0, spec), PARAMS.p), gaussian_profile(spec)
        got = align(f, g, PARAMS.p)
        rho, t = spec.rho_nodes(), spec.t_nodes()
        monkeypatch.setattr(
            extremal, "_resample", lambda v, s, d, a=0.0: reference_resample(v, rho, t, d, a)
        )
        assert got == align(f, g, PARAMS.p)

    def test_self_alignment(self):
        f = unit_H()
        d, a, rel = align(f, f, PARAMS.p)
        assert d == pytest.approx(1.0, abs=1e-6)
        assert a == pytest.approx(0.0, abs=1e-9)
        assert rel < 1e-9

    def test_recovers_synthetic_dilation(self):
        spec = GridSpec(n=1, n_rho=64, rho_min=1e-3, rho_max=30.0, n_t=128, t_max=30.0)
        g = perturbed_H(1, 2.0, spec)
        gd = dilate_grid_function(g, 1.25, PARAMS.p)
        d, a, rel = align(gd, g, PARAMS.p)
        assert d == pytest.approx(1.25, rel=0.01)

    @pytest.mark.parametrize("d, cells", [(1.3, 12), (0.8, -10)])
    def test_shift_beyond_eight_cells(self, d, cells):
        # the shift comes from the density t-means, so no window of shifts
        # bounds it, however many t cells it spans
        g = gaussian_profile(SMALL)
        f = g.with_values(extremal._resample(g.values, SMALL, d, cells * SMALL.dt))
        d_fit, a_fit, rel = align(f, g, 4.0 / 3.0)
        assert a_fit == pytest.approx(cells * SMALL.dt, abs=0.01 * SMALL.dt)
        assert d_fit == pytest.approx(d, rel=0.01)
        assert rel < 0.01

    @pytest.mark.parametrize("spec", [SMALL, GridSpec()], ids=["28x56", "64x128"])
    def test_dilate_narrower_than_dt(self, spec):
        # the half-dilate of the Gaussian is narrower in t than dt on both
        # grids; the dilation is scanned, so it is still found
        g = gaussian_profile(spec)
        d, a, rel = align(dilate_grid_function(g, 0.5, PARAMS.p), g, PARAMS.p)
        assert d == pytest.approx(0.5, abs=1e-6)
        assert rel < 1e-10

    def test_resamples_per_call(self, monkeypatch):
        # d = 1, 25 scanned dilations and three refinement rounds of 9
        calls = []
        resample = extremal._resample
        monkeypatch.setattr(extremal, "_resample", lambda *a: calls.append(a) or resample(*a))
        align(unit_H(), gaussian_profile(SMALL), PARAMS.p)
        assert len(calls) == 1 + 25 + 3 * 9

    def test_residual_scale_invariant(self):
        f = unit_H()
        g = gaussian_profile(SMALL)
        r1 = align(f, g, PARAMS.p)[2]
        r2 = align(f.with_values(5.0 * f.values), g.with_values(0.2 * g.values), PARAMS.p)[2]
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_rejects_zero(self):
        f = unit_H()
        z = f.with_values(0.0 * f.values)
        with pytest.raises(ValueError):
            align(f, z, PARAMS.p)


def test_trace_rows_roundtrip():
    tr = ConvergenceTrace()
    tr.record(0, 1.0, (0.25, -0.5), 1.0, 0.0, True)
    tr.record(1, 1.5, (0.0, 0.5), 1.1, 0.2, False)
    rows = list(tr.rows())
    assert rows[0] == (0, 1.0, 0.25, -0.5, 1.0, 0.0, True)
    assert rows[1][6] is False
