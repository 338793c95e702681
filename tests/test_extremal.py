import math
from types import SimpleNamespace

import numpy as np
import pytest

from heisenberg_hls.constants import (
    derive_conjugates,
    diagonal_params,
    theorem2_upper_bound,
)
from heisenberg_hls import extremal
from heisenberg_hls.extremal import (
    ConvergenceTrace,
    IterationControls,
    _ball_band,
    _band_masses,
    align,
    dilate_grid_function,
    euler_lagrange_step,
    extremal_H,
    gaussian_profile,
    levy_concentration_grid,
    maximize,
    perturbed_H,
    renormalize_concentration,
)
from heisenberg_hls.grids import GridSpec, lp_norm, normalized, sample
from heisenberg_hls.montecarlo import gaussian_callable, heisenberg_extremal_callable
from heisenberg_hls.quadrature import hls_quotient

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
        g = f.with_values(f.values.copy())
        g.values[0, 0] = -1e-3
        with pytest.raises(ValueError):
            euler_lagrange_step(g, PARAMS)

    def test_rejects_unnormalized(self):
        f = unit_H()
        with pytest.raises(ValueError):
            euler_lagrange_step(f.with_values(2.0 * f.values), PARAMS)

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


@pytest.mark.parametrize(
    "spec",
    [SMALL, GridSpec(), GridSpec(n=1, n_rho=9, rho_min=1e-2, rho_max=10.0, n_t=7, t_max=3.0)],
    ids=["28x56", "default", "9x7"],
)
@pytest.mark.parametrize("R", [0.05, 1.0, 7.0, 40.0])
def test_axis_ball_masses_match_overlap_loop(spec, R):
    # R = 7 and 40 give window half-widths beyond the t range
    g = sample(lambda R_, T: 0.0 * R_, spec)
    density = np.random.default_rng(spec.n_rho * spec.n_t).random(g.values.shape)
    ref = loop_ball_masses(density, g, R)
    assert np.any(ref > 0.0)
    masses = _band_masses(_ball_band(g.rho_nodes, g.t_nodes, R), density)
    np.testing.assert_allclose(masses, ref, rtol=1e-12, atol=0.0)


class TestRenormalizeConcentration:
    def test_target_concentration_reached(self):
        f = unit_H()
        out, d, a = renormalize_concentration(f, PARAMS)
        assert abs(levy_concentration_grid(out, PARAMS.p) - 0.5) <= 1.1e-3
        assert lp_norm(out, PARAMS.p) == pytest.approx(1.0, rel=1e-12)

    def test_fixed_point_when_already_normalized(self):
        f = unit_H()
        once, d1, a1 = renormalize_concentration(f, PARAMS)
        twice, d2, a2 = renormalize_concentration(once, PARAMS)
        assert d2 == pytest.approx(1.0, abs=2e-2)
        assert a2 == 0.0

    def test_concentrated_profile_spread_out(self):
        # mass packed well inside B_1 has Q(1) = 1; renormalization must
        # dilate with d > 1 to spread it out (odd n_t puts a node at t = 0)
        spec = GridSpec(n=1, n_rho=48, rho_min=1e-4, rho_max=25.0, n_t=97, t_max=25.0)
        f = sample(lambda R, T: np.exp(-((R / 0.05) ** 2) - (T / 0.05) ** 2), spec)
        f = normalized(f, PARAMS.p)
        assert levy_concentration_grid(f, PARAMS.p) > 0.99
        out, d, a = renormalize_concentration(f, PARAMS)
        assert d > 1.0
        assert abs(levy_concentration_grid(out, PARAMS.p) - 0.5) <= 1.1e-3

    def test_t_recentering(self):
        spec = SMALL
        f = sample(lambda R, T: ((1 + R ** 2) ** 2 + (T - 5.0) ** 2) ** (-1.5), spec)
        f = normalized(f, PARAMS.p)
        out, d, a = renormalize_concentration(f, PARAMS)
        assert a == pytest.approx(5.0, abs=2 * spec.dt)

    def test_norm_preserved_exactly(self):
        f = normalized(gaussian_profile(SMALL), PARAMS.p)
        out, _, _ = renormalize_concentration(f, PARAMS)
        assert lp_norm(out, PARAMS.p) == pytest.approx(1.0, rel=1e-12)


class TestDilateGridFunction:
    def test_norm_restored(self):
        f = unit_H()
        g = dilate_grid_function(f, 2.3, PARAMS.p)
        assert lp_norm(g, PARAMS.p) == pytest.approx(1.0, rel=1e-12)

    def test_identity_factor(self):
        f = unit_H()
        g = dilate_grid_function(f, 1.0, PARAMS.p)
        assert np.allclose(g.values, f.values, rtol=1e-10)

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
        # the 6th iteration accepts no damped trial; a 7th would repeat it
        _, _, trace = maximize(PARAMS, gaussian_profile(SMALL))
        assert trace.stop_reason == "no_ascent"
        assert trace.iterations[-1] == 6
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
        # every step ascends, the gains halving from 0.127 to 2e-6, so the
        # gain over the window falls below rtol = 1 at iteration 10
        params = derive_conjugates(1, 2.0, 1.6)
        _, _, trace = maximize(params, perturbed_H(1, 2.0, SMALL), IterationControls(rtol=1.0))
        assert trace.stop_reason == "stall"
        assert trace.iterations[-1] == 10
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
        # concentration profile climbs from 1/2 at R = 1 toward 1
        f0 = gaussian_profile(SMALL)
        f, _, trace = maximize(PARAMS, f0, IterationControls(max_iter=40))
        profile = [levy_concentration_grid(f, PARAMS.p, R) for R in (1.0, 2.0, 4.0, 8.0)]
        assert abs(profile[0] - 0.5) < 0.05
        assert all(b >= a for a, b in zip(profile, profile[1:]))
        assert profile[-1] > 0.9
        assert all(abs(q1 - 0.5) < 0.05 for q1 in trace.q1_concentration[1:])


@pytest.mark.parametrize("p", [1.15, 1.6, 1.85])
def test_off_diagonal_search(p):
    # existence holds for every admissible (r, s), not only r = s
    params = derive_conjugates(1, 2.0, p)
    start = gaussian_profile(SMALL)
    _, q, trace = maximize(params, start)
    assert all(b >= a for a, b in zip(trace.quotients, trace.quotients[1:]))
    assert hls_quotient(normalized(start, p), params) <= q
    assert q <= theorem2_upper_bound(1, 2.0, params.r, params.s)
    _, q_dilated, _ = maximize(params, dilate_grid_function(start, 1.6, p))
    assert q_dilated == pytest.approx(q, rel=1e-3)


@pytest.mark.parametrize(
    "p, q_found, n_records",
    [
        (4.0 / 3.0, 3.99117391018437, 7),
        (1.15, 4.49127313570518, 5),
        (1.6, 4.49772818467991, 8),
        (1.85, 5.80913900970627, 4),
    ],
)
def test_search_results_pinned(p, q_found, n_records):
    # the four searches of the benchmark's search workload; a change to the
    # search that moves these numbers has to show it here
    params = PARAMS if p == 4.0 / 3.0 else derive_conjugates(1, 2.0, p)
    _, q, trace = maximize(params, gaussian_profile(SMALL))
    assert q == pytest.approx(q_found, rel=1e-10)
    assert len(trace.iterations) == n_records
    assert trace.stop_reason == "no_ascent"


@pytest.fixture(scope="module")
def probes_at_p185():
    """The trial d of every Q(1) probe, and the d returned, of each
    renormalization in the p = 1.85 search (a _resample call is one probe,
    less the final dilation at the returned d)."""
    calls = []
    runs = []
    resample, renormalize = extremal._resample, extremal.renormalize_concentration

    def recording_resample(values, rho, t, d):
        calls.append(d)
        return resample(values, rho, t, d)

    def recording_renormalize(f, params):
        before = len(calls)
        out = renormalize(f, params)
        runs.append((calls[before:-1], out[1]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extremal, "_resample", recording_resample)
        mp.setattr(extremal, "renormalize_concentration", recording_renormalize)
        maximize(derive_conjugates(1, 2.0, 1.85), gaussian_profile(SMALL))
    return runs


def test_bisection_stops_at_adjacent_doubles(probes_at_p185):
    # at p = 1.85 three renormalizations fall back to the 81-point ladder and
    # return d = 0.2335; their bisections close to adjacent doubles without
    # meeting Q1_TOL and must stop there instead of re-probing one point
    assert max(len(ds) for ds, _ in probes_at_p185) <= 170
    assert sum(d == pytest.approx(0.2335, abs=5e-5) for _, d in probes_at_p185) == 3


def test_no_renormalization_probes_a_dilation_twice(probes_at_p185):
    # the walk reuses the d = 1 probe and the ladder its own Q(1) values
    assert any(len(ds) > 81 for ds, _ in probes_at_p185)  # a ladder fallback is among them
    for ds, _ in probes_at_p185:
        assert len(set(ds)) == len(ds)


class TestAlign:
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
    tr.record(0, 1.0, 0.5, 1.0, 0.0, True)
    tr.record(1, 1.5, 0.5, 1.1, 0.2, False)
    rows = list(tr.rows())
    assert rows[0] == (0, 1.0, 0.5, 1.0, 0.0, True)
    assert rows[1][5] is False
