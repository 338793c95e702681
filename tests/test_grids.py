import dataclasses
import math

import numpy as np
import pytest

from heisenberg_hls.grids import (
    CylGridFunction,
    GridSpec,
    ball_indicator,
    build_weights,
    empty_grid_function,
    lp_norm,
    normalized,
    rho_cell_edges,
    sample,
)
from heisenberg_hls import extremal
from heisenberg_hls.constants import unit_sphere_area
from heisenberg_hls.extremal import gaussian_profile
from heisenberg_hls.group import ball_volume


def test_sphere_area_values():
    # omega_{2n-1}, the sphere factor of the grid weights on H^n
    assert unit_sphere_area(2 * 1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert unit_sphere_area(2 * 2) == pytest.approx(2 * math.pi ** 2, rel=1e-14)


def test_default_spec_shape():
    spec = GridSpec()
    assert spec.n_rho == 64 and spec.n_t == 128
    rho = spec.rho_nodes()
    assert rho[0] == pytest.approx(1e-3) and rho[-1] == pytest.approx(50.0)
    t = spec.t_nodes()
    assert t[0] == -50.0 and t[-1] == 50.0


def test_refined_halves_spacings():
    spec = GridSpec()
    fine = spec.refined()
    assert fine.dt == pytest.approx(spec.dt / 2)
    r0, r1 = spec.rho_nodes(), fine.rho_nodes()
    # log spacing halves, original nodes are preserved
    assert np.log(r1[1] / r1[0]) == pytest.approx(0.5 * np.log(r0[1] / r0[0]), rel=1e-12)
    assert np.allclose(r1[::2], r0, rtol=1e-12)


def test_edges_bracket_nodes():
    rho = GridSpec().rho_nodes()
    edges = rho_cell_edges(rho)
    assert edges.size == rho.size + 1
    assert np.all(edges[:-1] < rho) and np.all(rho < edges[1:])


def test_weights_total_measure():
    spec = GridSpec(n=1, n_rho=48, rho_min=0.01, rho_max=10.0, n_t=64, t_max=10.0)
    W = build_weights(spec)
    # total weight approximates the cylinder measure pi*(R^2-r^2)*T_len;
    # the trapezoid-in-log-rho convention differs from the exact cell
    # measure by a factor cosh(dlog/2) ~ 1 + dlog^2/8
    edges = rho_cell_edges(spec.rho_nodes())
    target = math.pi * (edges[-1] ** 2 - edges[0] ** 2) * (spec.n_t * spec.dt)
    assert W.sum() == pytest.approx(target, rel=5e-3)


class TestLpNorm:
    def test_zero(self):
        f = empty_grid_function(GridSpec(n_rho=16, n_t=16))
        assert lp_norm(f, 2.0) == 0.0

    def test_homogeneity(self):
        spec = GridSpec(n_rho=16, n_t=16)
        f = sample(lambda R, T: np.exp(-R - T ** 2), spec)
        for p in (1.0, 4.0 / 3.0, 2.0, 4.0):
            assert lp_norm(f.with_values(-2.5 * f.values), p) == pytest.approx(
                2.5 * lp_norm(f, p), rel=1e-13
            )

    def test_gaussian_profile_value(self):
        # int exp(-p rho^2 - p t^2) 2 pi rho drho dt = (pi/p) sqrt(pi/p)
        spec = GridSpec(n_rho=128, rho_min=1e-4, rho_max=12.0, n_t=257, t_max=12.0)
        f = sample(lambda R, T: np.exp(-(R ** 2) - T ** 2), spec)
        p = 2.0
        exact = (math.pi / p) * math.sqrt(math.pi / p)
        # the trapezoid-in-log weights carry a systematic dlog^2/24 factor
        assert lp_norm(f, p) ** p == pytest.approx(exact, rel=1e-3)

    def test_rejects_p_below_one(self):
        f = empty_grid_function(GridSpec(n_rho=16, n_t=16))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    def test_normalized(self):
        spec = GridSpec(n_rho=16, n_t=16)
        f = sample(lambda R, T: 1.0 + 0.0 * R, spec)
        g = normalized(f, 3.0)
        assert lp_norm(g, 3.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("p", [1.02, 1.0423, 1.05, 1.85])
    def test_normalized_when_the_p_th_powers_underflow(self, p):
        # the Gaussian start of `maximize --grid-rho 24 --grid-t 48`, resampled
        # at the first gauge's d: its nodes nearest t = 0 query t = 26.5, so
        # it peaks at 6.3e-308 and its |f|^p underflows to subnormals
        spec = GridSpec(n_rho=24, n_t=48)
        start = gaussian_profile(spec)
        f = start.with_values(extremal._resample(start.values, spec, 0.19988548118735117))
        assert 0.0 < f.values.max() < 1e-307
        assert lp_norm(normalized(f, p), p) == pytest.approx(1.0, abs=1e-12)

    def test_normalized_divides_by_the_norm_alone(self):
        # a profile whose p-th powers do not underflow keeps the bits of the
        # one division by its norm
        spec = GridSpec(n_rho=24, n_t=48)
        f = gaussian_profile(spec).with_values(1e-100 * gaussian_profile(spec).values)
        for p in (1.05, 4.0 / 3.0, 1.85):
            assert np.array_equal(normalized(f, p).values, f.values / lp_norm(f, p))


class TestBallIndicator:
    def test_mass_matches_closed_form(self):
        spec = GridSpec(n=1, n_rho=96, rho_min=1e-3, rho_max=2.0, n_t=257, t_max=2.0)
        f = ball_indicator(spec)
        assert lp_norm(f, 1.0) == pytest.approx(ball_volume(1), rel=1e-3)

    def test_values_in_unit_interval(self):
        spec = GridSpec(n_rho=48, rho_min=1e-3, rho_max=2.0, n_t=96, t_max=2.0)
        f = ball_indicator(spec)
        # coverage values can top 1 by the weight-convention factor
        assert np.all(f.values >= -1e-12) and np.all(f.values <= 1.01)


class TestValidation:
    def test_rejects_bad_shapes(self):
        # in construction and in with_values, which the search calls on
        # every trial
        spec = GridSpec(n_rho=8, n_t=9)
        g = empty_grid_function(spec)
        for shape in ((3, 3), (9, 8), (8, 10), (72,)):
            with pytest.raises(ValueError, match="values must have shape"):
                CylGridFunction(spec, np.zeros(shape))
            with pytest.raises(ValueError, match="values must have shape"):
                g.with_values(np.zeros(shape))

    def test_rejects_nonfinite_values(self):
        spec = GridSpec(n_rho=8, n_t=8)
        g = empty_grid_function(spec)
        for bad in (np.nan, np.inf, -np.inf):
            vals = g.values.copy()
            vals[5, 2] = bad
            with pytest.raises(ValueError, match="values must be finite"):
                CylGridFunction(spec, vals)
            with pytest.raises(ValueError, match="values must be finite"):
                g.with_values(vals)

    @pytest.mark.parametrize("field", ["rho_min", "rho_max", "t_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_spec_rejects_nonfinite_bounds(self, field, value):
        # an infinite box would otherwise fail later, as non-finite weights
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GridSpec(**{field: value})

    @pytest.mark.parametrize(
        "field, value, n_rho",
        [("rho_max", 1e78, 8), ("rho_max", 1e72, 8), ("rho_max", 1e77, 64), ("rho_max", 1e300, 64),
         ("t_max", 1e154, 8), ("t_max", 1e300, 128)],
    )
    def test_spec_rejects_bounds_that_overflow_the_kernel(self, field, value, n_rho):
        # the kernel's b^2 = 4 rho^2 rho'^2 at the outer rho cell edge, or its
        # tau^2 at |tau| = 2 t_max + dt, would overflow; the error names the
        # field instead of a later "kernel offsets underflow"
        with pytest.raises(ValueError, match=f"^{field} = .* is too large"):
            GridSpec(**{field: value, "n_rho": n_rho, "n_t": 8})

    @pytest.mark.parametrize("field, value", [("rho_max", 1e70), ("t_max", 1e153)])
    def test_spec_accepts_bounds_below_the_overflow(self, field, value):
        # 8 rho nodes from 1e-3 put the outer edge of rho_max = 1e70 at
        # 10^75.2, where 4 e^4 is about 3e301
        spec = GridSpec(**{field: value, "n_rho": 8, "n_t": 8})
        assert getattr(spec, field) == value

    @pytest.mark.parametrize("field", ["n_rho", "n_t"])
    @pytest.mark.parametrize("value", [32.5, math.inf, math.nan])
    def test_spec_rejects_non_integer_node_counts(self, field, value):
        # a fractional count would otherwise fail later, building the nodes
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            GridSpec(**{field: value})

    def test_spec_takes_integral_node_counts_as_int(self):
        # like n, an integral float is the integer it equals
        spec = GridSpec(n_rho=64.0, n_t=32.0)
        assert spec == GridSpec(n_rho=64, n_t=32)
        assert type(spec.n_rho) is type(spec.n_t) is int
        assert empty_grid_function(spec).values.shape == (64, 32)

    def test_fields_are_spec_and_values(self):
        assert [f.name for f in dataclasses.fields(CylGridFunction)] == ["spec", "values"]

    def test_functions_on_one_spec_share_read_only_grid(self):
        spec = GridSpec(n_rho=8, n_t=8)
        a = empty_grid_function(spec)
        b = sample(lambda R, T: R + T, GridSpec(n_rho=8, n_t=8))
        for name in ("rho_nodes", "t_nodes", "weights"):
            arr = getattr(a, name)
            assert getattr(b, name) is arr and getattr(a.with_values(b.values), name) is arr
            with pytest.raises(ValueError):
                arr[0] = 1.0
        np.testing.assert_array_equal(a.weights, build_weights(spec))
        assert (a.n, a.Q) == (1, 4)

    def test_same_grid(self):
        a = empty_grid_function(GridSpec(n_rho=8, n_t=8))
        b = empty_grid_function(GridSpec(n_rho=8, n_t=8))
        c = empty_grid_function(GridSpec(n_rho=8, n_t=16))
        assert a.same_grid(b) and not a.same_grid(c)
