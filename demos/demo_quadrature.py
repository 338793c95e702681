"""Singular-kernel quadrature walkthrough (n = 1).

Builds the product-integration operator on a half-resolution grid, checks
the bilinear energy of the known extremal profile against its closed form,
evaluates the fractional integral of the unit-ball indicator at the origin
against the polar-coordinate identity, and cross-checks the deterministic
energy with the importance-sampled Monte Carlo estimator.

Runtime is a couple of seconds; the default 64x128 grid used by the
acceptance suite builds its table in about a second and lands within 0.3%.
"""

import math
import time

from heisenberg_hls import (
    GridSpec,
    ball_indicator,
    bilinear_energy,
    extremal_H,
    fractional_integral,
    hls_quotient,
    identity,
    lp_norm,
    mc_bilinear_energy,
)
from heisenberg_hls.constants import diagonal_params
from heisenberg_hls.montecarlo import heisenberg_extremal_callable

lam = 2.0
params = diagonal_params(1, lam)
print(f"diagonal exponents at lambda={lam}: p={params.p:.4f}, q={params.q:.4f}")

spec = GridSpec(n_rho=32, n_t=64)
print(f"\n== energy of the extremal profile on a {spec.n_rho}x{spec.n_t} grid ==")
t0 = time.time()
H = extremal_H(1, lam, spec)
E = bilinear_energy(H, H, lam)
nrm = lp_norm(H, params.r)
print(f"E[H,H]              = {E:.6f}   (continuum pi^3/2 = {math.pi**3/2:.6f};")
print("                       the gap is t-grid aliasing of H itself, which")
print("                       cancels in the quotient below)")
print(f"E / |H|_r^2         = {E/nrm**2:.6f}   (sharp constant 4)")
print(f"HLS quotient of H   = {hls_quotient(H, params):.6f}")
print(f"({time.time()-t0:.0f}s including the kernel table build)")

print("\n== fractional integral of the unit-ball indicator at the origin ==")
oracle_spec = GridSpec(n_rho=96, rho_min=1e-3, rho_max=2.0, n_t=257, t_max=2.0)
chi = ball_indicator(oracle_spec)
val = fractional_integral(chi, lam, identity(1))
print(f"I_2(chi_B1)(0) = {val:.6f}   (identity Q|B1|/(Q-lambda) = pi^2 = {math.pi**2:.6f})")

print("\n== Monte Carlo estimate of the continuum energy ==")
Hc = heisenberg_extremal_callable(1, lam)
est, se = mc_bilinear_energy(Hc, Hc, lam, n=1, samples=1_000_000, seed=0, workers=2)
z = (est - math.pi ** 3 / 2) / se
print(f"MC estimate = {est:.5f} +- {se:.5f}  (pi^3/2 = {math.pi**3/2:.5f}, z = {z:+.2f})")
