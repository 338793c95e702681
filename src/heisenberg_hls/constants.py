"""Sharp constants and admissible exponent tuples for the HLS inequality.

Two families of closed forms are implemented, all as Gamma-ratios evaluated
in log space:

* Heisenberg group H^n (homogeneous dimension Q = 2n + 2): the diagonal
  sharp constant `frank_lieb_constant`, the volume-based upper bound
  `theorem2_upper_bound` valid for all admissible (r, s), and the quotient
  `h_quotient` of the diagonal maximizer H at any admissible p, a lower
  bound on the sharp constant there.
* Euclidean R^N reference: the diagonal sharp constant
  `lieb_diagonal_constant` and the upper bound `lieb_loss_upper_bound`.

Both upper bounds are one volume bound.  The named profiles `h_profile`
and `gaussian` take (|z|^2, t), so grids and coordinate rows share them.

Exponents: the operator form sup_{|f|_p=1} |I_lam f|_q is governed by

    1/q = 1/p - (Q - lam)/Q,      1 < p < Q/(Q - lam),

and translates to the bilinear form on L^r x L^s through r = q/(q-1),
s = p, which gives 1/r + 1/s + lam/Q = 2 identically.  `HlsParams` stores
only (n, lam, p) and derives Q, q, r and s from them where they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

from .group import ball_volume, check_n, homogeneous_dimension

#: Margin of the admissible p range and tolerance of the bilinear relation
#: 1/r + 1/s + lam/Q = 2.  Inputs violating them are rejected, never projected.
ADMISSIBILITY_TOL = 1e-12

#: Lieb diagonal constant variant shipped as default.  The printed form uses
#: pi^(lam/N); the standard form uses pi^(lam/2).  The Monte Carlo quotient
#: with the known Euclidean extremal (see tests) selects "standard".
DEFAULT_LIEB_VARIANT = "standard"


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(gammaln(x))


def unit_sphere_area(N: int) -> float:
    """Area omega_{N-1} = 2 pi^(N/2) / Gamma(N/2) of the unit sphere in R^N."""
    return 2.0 * math.exp(0.5 * N * math.log(math.pi) - log_gamma(N / 2.0))


def h_profile(n: int, lam: float, zsq, t):
    """The diagonal maximizer H = ((1 + |z|^2)^2 + t^2)^(-(2Q-lam)/4) of
    Frank and Lieb, at |z|^2 = zsq and t (arrays or scalars)."""
    Q = homogeneous_dimension(n)
    return ((1.0 + zsq) ** 2 + t ** 2) ** (-(2.0 * Q - lam) / 4.0)


def gaussian(zsq, t):
    """The Gaussian exp(-|z|^2 - t^2) at |z|^2 = zsq and t."""
    return np.exp(-zsq - t ** 2)


def check_lambda(lam: float, Q: float, label: str = "Q"):
    """Raise ValueError unless 0 < lam < Q (label names Q in the message)."""
    if not (0.0 < lam < Q):
        raise ValueError(f"lambda must lie in (0, {label}) = (0, {Q}), got {lam}")


@dataclass(frozen=True)
class HlsParams:
    """Exponent tuple of the Heisenberg HLS problem, fixed by (n, lam, p).

    Q = 2n + 2, q (1/q = 1/p - (Q - lam)/Q), r = q/(q - 1) and s = p are
    derived on access.  Construction rejects n that is not a positive
    integer, lam outside (0, Q) and p outside (1, Q/(Q - lam)), where q
    would be nonpositive or infinite; inputs are never projected.
    """

    n: int
    lam: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "n", check_n(self.n))
        Q = self.Q
        check_lambda(self.lam, Q)
        p_max = Q / (Q - self.lam)
        if not (1.0 + ADMISSIBILITY_TOL < self.p < p_max - ADMISSIBILITY_TOL):
            raise ValueError(f"p must lie in (1, Q/(Q-lambda)) = (1, {p_max}), got {self.p}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "p", float(self.p))

    @property
    def Q(self) -> int:
        return homogeneous_dimension(self.n)

    @property
    def q(self) -> float:
        Q = self.Q
        return 1.0 / (1.0 / self.p - (Q - self.lam) / Q)

    @property
    def r(self) -> float:
        q = self.q
        return q / (q - 1.0)

    @property
    def s(self) -> float:
        return self.p


def derive_conjugates(n: int, lam: float, p: float) -> HlsParams:
    """The exponent tuple of (n, lambda, p); see HlsParams."""
    return HlsParams(n, lam, p)


def diagonal_params(n: int, lam: float) -> HlsParams:
    """Exponents of the diagonal case r = s = 2Q/(2Q-lambda), where the sharp
    constant and extremal profile are known in closed form."""
    Q = homogeneous_dimension(check_n(n))
    check_lambda(lam, Q)  # before p is formed, which divides by zero at lam = 2Q
    return HlsParams(n, lam, 2.0 * Q / (2.0 * Q - lam))


def frank_lieb_constant(n: int, lam: float) -> float:
    """Sharp constant of the diagonal Heisenberg HLS inequality.

        (pi^(n+1) / (2^(n-1) n!))^(lam/Q) * n! * Gamma((Q-lam)/2)
                                          / Gamma((2Q-lam)/4)^2

    in the bilinear normalization with r = s = 2Q/(2Q-lam).
    """
    n = check_n(n)
    Q = homogeneous_dimension(n)
    check_lambda(lam, Q)
    log_vol_factor = (n + 1) * math.log(math.pi) - (n - 1) * math.log(2.0) - log_gamma(n + 1.0)
    lg = (
        (lam / Q) * log_vol_factor
        + log_gamma(n + 1.0)
        + log_gamma((Q - lam) / 2.0)
        - 2.0 * log_gamma((2.0 * Q - lam) / 4.0)
    )
    return math.exp(lg)


def _log_cayley_integral(n: int, A: float) -> float:
    """ln of the integral over H^n of |1 + s|^(-A), s = |z|^2 - it, A > n + 1:

        int ((1 + |z|^2)^2 + t^2)^(-A/2) dz dt
            = omega_{2n-1} / 2 * B(1/2, (A - 1)/2) * B(n, A - 1 - n)

    (t first, then |z| in polar form; omega_{2n-1} = `unit_sphere_area`(2n)).
    """
    return math.log(0.5 * unit_sphere_area(2 * n)) + betaln(0.5, (A - 1.0) / 2.0) + betaln(n, A - 1.0 - n)


def h_quotient(n: int, lam: float, p: float) -> float:
    """|I_lam H|_q / |H|_p for the diagonal maximizer H = |1 + s|^(-(2Q-lam)/2)
    at the exponent tuple of (n, lam, p); a lower bound on the sharp
    constant there, equal to `frank_lieb_constant` on the diagonal.

    I_lam H = c |1 + s|^(-lam/2) with c = C_FL |H|_r^(2-r) at the diagonal r,
    so both norms are integrals of powers of |1 + s| (`_log_cayley_integral`
    with A = lam q / 2, (2Q - lam) p / 2 and, for |H|_r^r, Q).
    """
    params = HlsParams(n, lam, p)
    n, Q, q = params.n, params.Q, params.q
    r = diagonal_params(n, lam).r
    log_c = math.log(frank_lieb_constant(n, lam)) + (2.0 - r) / r * _log_cayley_integral(n, Q)
    return math.exp(
        log_c
        + _log_cayley_integral(n, lam * q / 2.0) / q
        - _log_cayley_integral(n, (2.0 * Q - lam) * p / 2.0) / p
    )


def _volume_bound(dim_label: str, D: float, ball: float, lam: float, r: float, s: float) -> float:
    """theorem2_upper_bound's form in (homogeneous) dimension D, for a unit
    ball of volume `ball`; dim_label names D in error messages."""
    check_lambda(lam, D, dim_label)
    if not (1.0 < r < math.inf and 1.0 < s < math.inf):
        raise ValueError("r and s must lie in (1, infinity)")
    bilinear = 1.0 / r + 1.0 / s + lam / D
    if abs(bilinear - 2.0) > ADMISSIBILITY_TOL:
        raise ValueError(f"bilinear condition 1/r+1/s+lambda/{dim_label} = 2 violated: {bilinear}")
    a = lam / D
    pref = D * ball ** a / (r * s * (D - lam))
    return pref * ((a / (1.0 - 1.0 / r)) ** a + (a / (1.0 - 1.0 / s)) ** a)


def theorem2_upper_bound(n: int, lam: float, r: float, s: float) -> float:
    """Upper bound for the Heisenberg HLS constant at general (r, s), with
    |B_1| the volume of the unit ball of H^n:

        Q |B_1|^(lam/Q) / (r s (Q-lam)) *
            [ ((lam/Q)/(1-1/r))^(lam/Q) + ((lam/Q)/(1-1/s))^(lam/Q) ]

    Not sharp; diverges as lam -> Q.
    """
    n = check_n(n)
    return _volume_bound("Q", homogeneous_dimension(n), ball_volume(n), lam, r, s)


def lieb_diagonal_constant(N: int, lam: float, variant: str = DEFAULT_LIEB_VARIANT) -> float:
    """Sharp constant of the diagonal Euclidean HLS inequality on R^N,
    r = s = 2N/(2N-lam):

        pi^e * Gamma(N/2 - lam/2) / Gamma(N - lam/2)
             * (Gamma(N/2) / Gamma(N))^((lam-N)/N)

    where e = lam/2 for variant "standard" and e = lam/N for variant
    "paper".  The variants coincide at N = 2; the Monte Carlo oracle with
    the known extremal (1 + |x|^2)^(-(2N-lam)/2) selects "standard".
    """
    N = check_n(N, "N")
    check_lambda(lam, N, "N")
    if variant == "standard":
        e = lam / 2.0
    elif variant == "paper":
        e = lam / N
    else:
        raise ValueError(f"variant must be 'standard' or 'paper', got {variant!r}")
    lg = (
        e * math.log(math.pi)
        + log_gamma(N / 2.0 - lam / 2.0)
        - log_gamma(N - lam / 2.0)
        + ((lam - N) / N) * (log_gamma(N / 2.0) - log_gamma(float(N)))
    )
    return math.exp(lg)


def lieb_loss_upper_bound(N: int, lam: float, r: float, s: float) -> float:
    """Upper bound for the Euclidean HLS constant at general (r, s): the
    volume bound of `theorem2_upper_bound` with Q = N and |B_1| = omega_{N-1}/N
    the volume of the unit ball of R^N (omega_{N-1} = `unit_sphere_area`).
    """
    N = check_n(N, "N")
    return _volume_bound("N", float(N), unit_sphere_area(N) / N, lam, r, s)
