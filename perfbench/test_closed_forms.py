"""Checks of the benchmark's closed-form references against direct numerical
integration (scipy quad) and against the generator families' construction.

Run with:  python3 -m pytest -q perfbench/test_closed_forms.py
"""

import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import closed_forms as cf  # noqa: E402
from heisenberg_hls.concentration import split_family  # noqa: E402
from heisenberg_hls.constants import lieb_diagonal_constant  # noqa: E402


def sphere_area(dim):
    """Area of the unit sphere in R^dim."""
    return 2.0 * math.exp(0.5 * dim * math.log(math.pi) - gammaln(dim / 2.0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_h_norm_power_matches_quad(n):
    Q = 2 * n + 2

    def inner(rho):
        a = (1.0 + rho * rho) ** 2
        val, _ = integrate.quad(lambda t: (a + t * t) ** (-Q / 2.0), -np.inf, np.inf)
        return sphere_area(2 * n) * rho ** (2 * n - 1) * val

    numeric, _ = integrate.quad(inner, 0.0, np.inf, epsabs=0.0, epsrel=1e-9, limit=200)
    assert abs(cf.h_norm_r_power(n) / numeric - 1.0) < 1e-6


@pytest.mark.parametrize("lam", [0.7, 2.0, 3.0])
def test_energy_is_proportionality_times_norm_power(lam):
    # int H * (c H^(r-1)) = c ||H||_r^r must equal C_FL ||H||_r^2
    assert cf.h_proportionality(1, lam) * cf.h_norm_r_power(1) == pytest.approx(
        cf.h_energy(1, lam), rel=1e-13
    )


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("lam, tol", [(0.7, 1e-4), (2.0, 1e-9), (3.0, 1e-9)])
def test_proportionality_at_the_origin(lam, tol):
    """I_lam H(0) = int H(v) |v|^(-lam) dv equals c H(0)^(r-1) = c at n = 1.

    With dv = 2 pi rho drho dt, t = rho^2 tan(theta) removes the point
    singularity: |v|^(-lam) = rho^(-lam) cos(theta)^(lam/2).  For weak
    singularities quad resolves the peak near theta = pi/2 (width rho^2)
    only to about 1e-5, hence the looser tolerance at lam = 0.7.
    """
    expo = (8.0 - lam) / 4.0

    def inner(rho):
        a = (1.0 + rho * rho) ** 2
        r4 = rho ** 4
        val, _ = integrate.quad(
            lambda th: (a * math.cos(th) ** 2 + r4 * math.sin(th) ** 2) ** (-expo)
            * math.cos(th) ** (2.0 * expo + lam / 2.0 - 2.0),
            0.0,
            0.5 * math.pi,
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        return 4.0 * math.pi * rho ** (3.0 - lam) * val

    numeric = sum(
        integrate.quad(inner, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]
        for lo, hi in ((0.0, 1.0), (1.0, np.inf))
    )
    assert abs(cf.h_proportionality(1, lam) / numeric - 1.0) < tol


def test_euclidean_pair_at_n3_lambda2():
    numeric, _ = integrate.quad(
        lambda x: 4.0 * math.pi * x * x * (1.0 + x * x) ** -3.0, 0.0, np.inf
    )
    assert cf.euclidean_norm_r_power(3) == pytest.approx(math.pi ** 2 / 4.0, rel=1e-12)
    assert cf.euclidean_norm_r_power(3) == pytest.approx(numeric, rel=1e-8)
    expected = lieb_diagonal_constant(3, 2.0, "standard") * (math.pi ** 2 / 4.0) ** (4.0 / 3.0)
    assert cf.euclidean_energy(3, 2.0) == pytest.approx(expected, rel=1e-13)


def test_h_value_is_the_extremal():
    assert cf.h_value(1, 2.0, 0.0, 0.0) == 1.0
    assert cf.h_value(1, 2.0, 1.0, 0.0) == pytest.approx(4.0 ** -1.5)


def test_family_verdicts_by_construction():
    assert cf.family_verdict("spread") == ("vanishing", 0.0)
    assert cf.family_verdict("translate") == ("compactness", 1.0)
    assert cf.family_verdict("split", 0.3) == ("dichotomy", 0.3)
    with pytest.raises(ValueError):
        cf.family_verdict("split")
    with pytest.raises(ValueError):
        cf.family_verdict("drift")
    # the tight cluster of a split measure carries exactly the labeled k
    for mu in split_family(4, seed=0, k=0.3, n_atoms=64):
        assert mu.masses[:32].sum() == pytest.approx(0.3, abs=1e-12)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-12)
