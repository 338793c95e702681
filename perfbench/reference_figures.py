"""Reference figures that take minutes, measured once rather than in every
benchmark run (about five minutes in all on one core).

    python3 perfbench/reference_figures.py

Prints one line per figure: the kernel-table build on the default grid and
on its refinement at lam = 2 with the quotient error against C_FL, the
build on the 28x56 search grid at lam = 3.5, and mc_bilinear_energy of H
at n = 5, lam = 2 with 10^6 samples against the closed form.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import closed_forms as cf  # noqa: E402
from heisenberg_hls import montecarlo, quadrature  # noqa: E402
from heisenberg_hls.constants import diagonal_params, frank_lieb_constant  # noqa: E402
from heisenberg_hls.extremal import extremal_H  # noqa: E402
from heisenberg_hls.grids import GridSpec  # noqa: E402


def table_build(spec: GridSpec, lam: float) -> str:
    t = time.perf_counter()
    quadrature.kernel_table(spec, lam)  # cached, so the quotient reuses it
    secs = time.perf_counter() - t
    H = extremal_H(1, lam, spec)
    q = quadrature.hls_quotient(H, diagonal_params(1, lam))
    C = frank_lieb_constant(1, lam)
    return f"{secs:.1f} s, q(H) rel dev {abs(q - C) / C:.2e}"


def main() -> int:
    default = GridSpec()
    search = GridSpec(n=1, n_rho=28, rho_min=5e-3, rho_max=25.0, n_t=56, t_max=25.0)
    print(f"build_kernel_table 64x128 lam=2: {table_build(default, 2.0)}", flush=True)
    print(f"build_kernel_table 127x255 lam=2: {table_build(default.refined(), 2.0)}", flush=True)
    print(f"build_kernel_table 28x56 lam=3.5: {table_build(search, 3.5)}", flush=True)
    f = montecarlo.heisenberg_extremal_callable(5, 2.0)
    exact = cf.h_energy(5, 2.0)
    t = time.perf_counter()
    est, se = montecarlo.mc_bilinear_energy(f, f, 2.0, n=5, samples=1_000_000, seed=0, workers=1)
    secs = time.perf_counter() - t
    print(
        f"mc_bilinear_energy n=5 lam=2 10^6 samples: {secs:.1f} s, rel stderr {se / est:.2%}, "
        f"z {(est - exact) / se:+.1f}",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
