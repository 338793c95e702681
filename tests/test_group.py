import math

import numpy as np
import pytest

from heisenberg_hls.constants import (
    HlsParams,
    frank_lieb_constant,
    lieb_diagonal_constant,
    lieb_loss_upper_bound,
    theorem2_upper_bound,
)
from heisenberg_hls.grids import GridSpec
from heisenberg_hls.group import (
    GroupPoint,
    ball_volume,
    check_n,
    dilate,
    distance,
    identity,
    inverse,
    multiply,
    multiply_coords,
    norm,
    norm_coords,
)
from heisenberg_hls.montecarlo import Geometry

RTOL = 1e-12


def gp(x, y, t):
    return GroupPoint(1, np.array([x, y], dtype=float), t)


def rand_point(rng, n=1, scale=3.0):
    return GroupPoint(n, scale * rng.standard_normal(2 * n), scale * rng.standard_normal())


class TestMultiply:
    def test_identity_element(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rand_point(rng)
            e = identity(1)
            v = multiply(u, e)
            assert np.allclose(v.z, u.z, rtol=RTOL) and math.isclose(v.t, u.t, rel_tol=RTOL, abs_tol=1e-300)

    def test_hand_computed_twist(self):
        # u = (1+0i, 0), v = (0+1i, 0): product z = 1+1i, t = -2
        u = gp(1.0, 0.0, 0.0)
        v = gp(0.0, 1.0, 0.0)
        w = multiply(u, v)
        assert np.allclose(w.z, [1.0, 1.0], rtol=RTOL)
        assert math.isclose(w.t, -2.0, rel_tol=RTOL)

    def test_inverse_cancels(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            u = rand_point(rng)
            w = multiply(u, inverse(u))
            assert np.max(np.abs(w.z)) < 1e-12 and abs(w.t) < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u, v, w = (rand_point(rng) for _ in range(3))
            a = multiply(multiply(u, v), w)
            b = multiply(u, multiply(v, w))
            scale = max(1.0, abs(a.t))
            assert np.allclose(a.z, b.z, rtol=RTOL, atol=1e-12)
            assert abs(a.t - b.t) <= RTOL * scale

    def test_dimension_mismatch_rejected(self):
        u = rand_point(np.random.default_rng(3), n=1)
        v = rand_point(np.random.default_rng(4), n=2)
        with pytest.raises(ValueError):
            multiply(u, v)

    def test_n2_twist_sums_over_coordinates(self):
        # z = (1, i), z' = (i, 1): Im(z . conj(z')) = Im(-i) + Im(i) = -1 + 1 = 0
        u = GroupPoint(2, np.array([1.0, 0.0, 0.0, 1.0]), 0.0)
        v = GroupPoint(2, np.array([0.0, 1.0, 1.0, 0.0]), 0.0)
        assert multiply(u, v).t == pytest.approx(0.0, abs=1e-15)


class TestInverse:
    def test_identity_fixed(self):
        e = identity(1)
        w = inverse(e)
        assert np.all(w.z == 0) and w.t == 0

    def test_formula(self):
        u = gp(1.0, 1.0, 3.0)
        w = inverse(u)
        assert np.allclose(w.z, [-1.0, -1.0]) and w.t == -3.0

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rand_point(rng)
            w = inverse(inverse(u))
            assert np.allclose(w.z, u.z) and w.t == u.t


class TestDilate:
    def test_unit_factor(self):
        u = gp(0.3, -0.7, 2.0)
        w = dilate(1.0, u)
        assert np.allclose(w.z, u.z) and w.t == u.t

    def test_formula(self):
        u = gp(1.0, 0.0, 1.0)
        w = dilate(2.0, u)
        assert np.allclose(w.z, [2.0, 0.0]) and w.t == pytest.approx(4.0, rel=RTOL)

    def test_group_property(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = rand_point(rng)
            a, b = rng.uniform(0.1, 5.0, 2)
            w1 = dilate(a, dilate(b, u))
            w2 = dilate(a * b, u)
            assert np.allclose(w1.z, w2.z, rtol=RTOL)
            assert math.isclose(w1.t, w2.t, rel_tol=1e-11, abs_tol=1e-300)

    def test_homogeneity_of_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = rand_point(rng)
            d = rng.uniform(0.01, 100.0)
            assert norm(dilate(d, u)) == pytest.approx(d * norm(u), rel=1e-11)

    @pytest.mark.parametrize("d", [0.0, -1.0, math.inf])
    def test_bad_factor_rejected(self, d):
        with pytest.raises(ValueError):
            dilate(d, identity(1))


class TestNorm:
    def test_identity_zero(self):
        assert norm(identity(1)) == 0.0

    def test_unit_values(self):
        assert norm(gp(1.0, 0.0, 0.0)) == pytest.approx(1.0, rel=RTOL)
        assert norm(gp(0.0, 0.0, 1.0)) == pytest.approx(1.0, rel=RTOL)

    def test_mixed_value(self):
        assert norm(gp(1.0, 0.0, 1.0)) == pytest.approx(2.0 ** 0.25, rel=RTOL)

    def test_zero_only_at_identity(self):
        assert norm(gp(1e-8, 0.0, 0.0)) > 0.0


class TestDistance:
    def test_self_distance_zero(self):
        u = gp(0.5, 1.5, -2.0)
        assert distance(u, u) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            u, v = rand_point(rng), rand_point(rng)
            assert distance(u, v) == pytest.approx(distance(v, u), rel=1e-12)

    def test_left_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u, v, w = (rand_point(rng) for _ in range(3))
            d1 = distance(u, v)
            d2 = distance(multiply(w, u), multiply(w, v))
            assert d2 == pytest.approx(d1, rel=1e-10)

    def test_triangle_inequality_bulk(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((3 * 10_000, 3)) * 2.0
        pts[:, 2] *= 4.0
        u, v, w = pts[0::3], pts[1::3], pts[2::3]
        failures = 0
        for a, b, c in zip(u, v, w):
            pa = GroupPoint(1, a[:2], a[2])
            pb = GroupPoint(1, b[:2], b[2])
            pc = GroupPoint(1, c[:2], c[2])
            if distance(pa, pc) > distance(pa, pb) + distance(pb, pc) + 1e-12:
                failures += 1
        assert failures == 0


class TestBallVolume:
    def test_n1_closed_form(self):
        assert ball_volume(1) == pytest.approx(math.pi ** 2 / 2, rel=1e-12)

    def test_n2_closed_form(self):
        assert ball_volume(2) == pytest.approx(2 * math.pi ** 2 / 3, rel=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(42)
        m = 2_000_000
        x = rng.uniform(-1.0, 1.0, size=(m, 3))
        inside = ((x[:, 0] ** 2 + x[:, 1] ** 2) ** 2 + x[:, 2] ** 2) < 1.0
        est = 8.0 * inside.mean()
        se = 8.0 * inside.std(ddof=1) / math.sqrt(m)
        assert abs(est - ball_volume(1)) < 3.0 * se

    def test_dilation_scaling(self):
        # measure of a radius-R ball is R^Q times the unit ball volume
        rng = np.random.default_rng(43)
        R, Q = 1.7, 4
        m = 500_000
        x = rng.uniform(-R, R, size=(m, 2))
        t = rng.uniform(-R * R, R * R, size=m)
        inside = ((x ** 2).sum(axis=1) ** 2 + t ** 2) < R ** 4
        box = (2 * R) ** 2 * (2 * R * R)
        est = box * inside.mean()
        se = box * inside.std(ddof=1) / math.sqrt(m)
        assert abs(est - R ** Q * ball_volume(1)) < 4.0 * se

    def test_haar_invariance_of_translated_ball(self):
        # volume of w . B_1(0) = B_1(w) equals the untranslated volume
        rng = np.random.default_rng(44)
        w = GroupPoint(1, np.array([1.3, -0.4]), 0.9)
        m = 1_000_000
        zw = math.hypot(w.z[0], w.z[1])
        t_half = 1.0 + 2.0 * zw
        x = np.empty((m, 3))
        x[:, 0] = rng.uniform(w.z[0] - 1, w.z[0] + 1, m)
        x[:, 1] = rng.uniform(w.z[1] - 1, w.z[1] + 1, m)
        x[:, 2] = rng.uniform(w.t - t_half, w.t + t_half, m)
        d = norm_coords(multiply_coords(-w.coords(), x, 1), 1)
        inside = d < 1.0
        box = 2.0 * 2.0 * (2.0 * t_half)
        est = box * inside.mean()
        se = box * inside.std(ddof=1) / math.sqrt(m)
        assert abs(est - ball_volume(1)) < 3.0 * se

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ball_volume(0)


class TestCoordHelpers:
    def test_norm_coords_matches_scalar(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((100, 3))
        vals = norm_coords(pts, 1)
        for row, v in zip(pts, vals):
            assert v == pytest.approx(norm(GroupPoint(1, row[:2], row[2])), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_array_products_match_multiply(self, n):
        # multiply_coords (rows) and the Monte Carlo product Geometry.shift
        # (columns, in place) against the scalar group law; H, the Gaussian
        # and the ball are invariant under (z, t) -> (conj z, t), so no
        # energy would show a flipped twist sign
        rng = np.random.default_rng(n)
        u = 3.0 * rng.standard_normal((50, 2 * n + 1))
        v = 3.0 * rng.standard_normal((50, 2 * n + 1))
        expected = np.array([
            multiply(GroupPoint(n, a[:-1], a[-1]), GroupPoint(n, b[:-1], b[-1])).coords()
            for a, b in zip(u, v)
        ])
        np.testing.assert_allclose(multiply_coords(u, v, n), expected, rtol=1e-12, atol=0.0)
        cols = Geometry("heisenberg", n).shift(u.T.copy(), v.T.copy())
        np.testing.assert_allclose(cols.T, expected, rtol=1e-12, atol=0.0)


# every place that takes a dimension n (or a Euclidean N) rejects a value that
# is not a positive integer, instead of building an object around it
DIMENSION_TAKERS = {
    "GroupPoint": lambda n: GroupPoint(n, np.zeros(3), 0.0),
    "ball_volume": ball_volume,
    "HlsParams": lambda n: HlsParams(n, 2.0, 1.2),
    "frank_lieb_constant": lambda n: frank_lieb_constant(n, 2.0),
    "theorem2_upper_bound": lambda n: theorem2_upper_bound(n, 2.0, 1.5, 1.5),
    "lieb_diagonal_constant": lambda N: lieb_diagonal_constant(N, 0.5),
    "lieb_loss_upper_bound": lambda N: lieb_loss_upper_bound(N, 0.5, 1.5, 1.5),
    "GridSpec": lambda n: GridSpec(n=n),
    "Geometry[heisenberg]": lambda n: Geometry("heisenberg", n),
    "Geometry[euclidean]": lambda N: Geometry("euclidean", N),
}


@pytest.mark.parametrize("bad", [1.5, 0])
@pytest.mark.parametrize("name", list(DIMENSION_TAKERS))
def test_dimension_must_be_a_positive_integer(name, bad):
    label = "N" if name.startswith("lieb") or name == "Geometry[euclidean]" else "n"
    with pytest.raises(ValueError, match=rf"^{label} must be a positive integer, got {bad}$"):
        DIMENSION_TAKERS[name](bad)


def test_integral_float_dimension_is_stored_as_int():
    assert check_n(2.0) == 2 and type(check_n(2.0)) is int
    assert GridSpec(n=2.0).n == 2 and Geometry("heisenberg", 2.0).dim == 5
