"""Closed-form references the benchmark checks the program against.

Nothing here calls the quadrature, search, Monte Carlo or classifier code
under test.  The sharp constants come from ``heisenberg_hls.constants``,
which holds microsecond closed forms and is itself pinned by golden values
in the test suite; everything else is derived here from first principles.

With Q = 2n + 2 and r = 2Q/(2Q - lam), the diagonal extremal

    H(z, t) = ((1 + |z|^2)^2 + t^2)^(-(2Q - lam)/4)

satisfies H^r = ((1 + |z|^2)^2 + t^2)^(-Q/2), so ||H||_r^r does not depend
on lam: integrating t first gives (1 + |z|^2)^(1-Q) sqrt(pi)
Gamma((Q-1)/2)/Gamma(Q/2), and the z integral is the Beta integral
pi^n Gamma(n+1)/Gamma(Q-1).  H maximizes the bilinear form, so
E[H, H] = C_FL ||H||_r^2 and, from the Euler-Lagrange equation,
I_lam H = C_FL ||H||_r^(2-r) H^(r-1) with r - 1 = lam/(2Q - lam).
"""

from __future__ import annotations

import math

from scipy.special import gammaln

from heisenberg_hls.constants import frank_lieb_constant, lieb_diagonal_constant


def _q(n: int) -> int:
    return 2 * n + 2


def diagonal_r(n: int, lam: float) -> float:
    """The diagonal exponent r = s = 2Q/(2Q - lam)."""
    Q = _q(n)
    return 2.0 * Q / (2.0 * Q - lam)


def h_norm_r_power(n: int) -> float:
    """||H||_r^r = sqrt(pi) Gamma((Q-1)/2)/Gamma(Q/2) * pi^n Gamma(n+1)/Gamma(Q-1)."""
    Q = _q(n)
    log_t = 0.5 * math.log(math.pi) + gammaln((Q - 1) / 2.0) - gammaln(Q / 2.0)
    log_z = n * math.log(math.pi) + gammaln(n + 1.0) - gammaln(Q - 1.0)
    return math.exp(log_t + log_z)


def h_norm_r(n: int, lam: float) -> float:
    """||H||_r for the diagonal exponent r of lam."""
    return h_norm_r_power(n) ** (1.0 / diagonal_r(n, lam))


def h_energy(n: int, lam: float) -> float:
    """E[H, H] = C_FL ||H||_r^2."""
    return frank_lieb_constant(n, lam) * h_norm_r(n, lam) ** 2


def h_proportionality(n: int, lam: float) -> float:
    """c in I_lam H = c H^(lam/(2Q - lam)), namely C_FL ||H||_r^(2-r)."""
    r = diagonal_r(n, lam)
    return frank_lieb_constant(n, lam) * h_norm_r(n, lam) ** (2.0 - r)


def h_value(n: int, lam: float, rho: float, t: float) -> float:
    """H at a point with |z| = rho."""
    Q = _q(n)
    return ((1.0 + rho * rho) ** 2 + t * t) ** (-(2.0 * Q - lam) / 4.0)


def euclidean_norm_r_power(N: int) -> float:
    """||F||_r^r for F = (1 + |x|^2)^(-(2N-lam)/2) on R^N, r = 2N/(2N-lam):
    F^r = (1 + |x|^2)^(-N), whose integral is pi^(N/2) Gamma(N/2)/Gamma(N)."""
    return math.exp(0.5 * N * math.log(math.pi) + gammaln(N / 2.0) - gammaln(float(N)))


def euclidean_energy(N: int, lam: float) -> float:
    """E[F, F] = C_Lieb ||F||_r^2 for the Euclidean diagonal extremal.

    At N = 3, lam = 2 this is lieb_diagonal_constant(3, 2) (pi^2/4)^(4/3).
    """
    r = 2.0 * N / (2.0 * N - lam)
    return lieb_diagonal_constant(N, lam, "standard") * euclidean_norm_r_power(N) ** (2.0 / r)


def family_verdict(family: str, k: float | None = None) -> tuple[str, float]:
    """Verdict and limiting concentration k each generator family has by
    construction: a spread sequence loses all mass from every fixed ball,
    a translated cloud keeps all of it, and a split keeps the tight
    cluster's labeled mass k."""
    if family == "spread":
        return "vanishing", 0.0
    if family == "translate":
        return "compactness", 1.0
    if family == "split":
        if k is None or not (0.0 < k < 1.0):
            raise ValueError("the split family needs its mass k in (0, 1)")
        return "dichotomy", float(k)
    raise ValueError(f"unknown generator family {family!r}")
