"""One benchmark workload in one process.

Started by run.py as

    python3 perfbench/workloads.py --workload W --seed N --seconds S
        --trace 0|1 --t0 T [--setup-only]

where T is the parent's time.monotonic() just before the process was
started, so setup_s covers interpreter start, imports, input generation
and (for ``search``) the kernel-table build.  After set-up the process
runs whole rounds of the workload's operations until ``--seconds`` have
passed (and at least the workload's minimum number of rounds ran), checks
every output against the closed forms in closed_forms.py, and prints one
JSON object as its last line.  With --trace 1 it records spans around the
program's public functions (spans.py) during the rounds and derives the
per-layer metrics from them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from heisenberg_hls import concentration, extremal, grids, montecarlo, quadrature  # noqa: E402
from heisenberg_hls.constants import (  # noqa: E402
    derive_conjugates,
    diagonal_params,
    frank_lieb_constant,
    theorem2_upper_bound,
)
from heisenberg_hls.grids import GridSpec  # noqa: E402
from heisenberg_hls.group import GroupPoint  # noqa: E402
from heisenberg_hls.extremal import extremal_H  # noqa: E402

import closed_forms as cf  # noqa: E402
from spans import SpanIndex, Tracer  # noqa: E402


# Per-layer metrics (name, unit, better) printed by a traced run.
PER_LAYER = [
    ("quadrature.build_kernel_table.s", "s", "lower"),
    ("quadrature.kbar_many.s", "s", "lower"),
    ("quadrature.kbar_many.points", "count", "lower"),
    ("quadrature.kbar_many.calls", "count", "lower"),
    ("quadrature.weights_row.s", "s", "lower"),
    ("quadrature.KernelTable.apply.calls", "count", "lower"),
    ("quadrature.KernelTable.apply.s", "s", "lower"),
    ("quadrature.hls_quotient.calls", "count", "lower"),
    ("quadrature.quotient_rel_dev", "ratio", "lower"),
    ("quadrature.pointwise_rel_dev", "ratio", "lower"),
    ("extremal.maximize.iterations", "count", "lower"),
    ("extremal.maximize.accepted", "count", "higher"),
    ("extremal.maximize.accepted_share", "ratio", "higher"),
    ("extremal.renormalize_concentration.calls", "count", "lower"),
    ("extremal.renormalize_concentration.s", "s", "lower"),
    ("extremal.dilate_grid_function.calls", "count", "lower"),
    ("extremal.dilate_grid_function.s", "s", "lower"),
    ("extremal.levy_concentration_grid.calls", "count", "lower"),
    ("extremal.levy_concentration_grid.s", "s", "lower"),
    ("extremal.euler_lagrange_step.s", "s", "lower"),
    ("extremal.search_rel_dev", "ratio", "lower"),
    ("grids.lp_norm.calls", "count", "lower"),
    ("grids.lp_norm.s", "s", "lower"),
    ("montecarlo.mc_bilinear_energy.s", "s", "lower"),
    ("montecarlo.uniform_ball.s", "s", "lower"),
    ("montecarlo.uniform_ball.points", "count", "lower"),
    ("montecarlo.uniform_ball.candidates", "count", "lower"),
    ("montecarlo.uniform_ball.acceptance", "ratio", "higher"),
    ("montecarlo.samples_per_s", "1/s", "higher"),
    ("montecarlo.samples_per_s.H1", "1/s", "higher"),
    ("montecarlo.samples_per_s.H2", "1/s", "higher"),
    ("montecarlo.samples_per_s.H3", "1/s", "higher"),
    ("montecarlo.samples_per_s.E3", "1/s", "higher"),
    ("montecarlo.rel_stderr", "ratio", "lower"),
    ("montecarlo.rel_stderr.H1", "ratio", "lower"),
    ("montecarlo.rel_stderr.H2", "ratio", "lower"),
    ("montecarlo.rel_stderr.H3", "ratio", "lower"),
    ("montecarlo.rel_stderr.E3", "ratio", "lower"),
    ("group.multiply_coords.points.montecarlo", "count", "lower"),
    ("group.multiply_coords.s.montecarlo", "s", "lower"),
    ("group.multiply_coords.points.concentration", "count", "lower"),
    ("group.multiply_coords.s.concentration", "s", "lower"),
    ("group.norm_coords.points.montecarlo", "count", "lower"),
    ("group.norm_coords.s.montecarlo", "s", "lower"),
    ("group.norm_coords.points.concentration", "count", "lower"),
    ("group.norm_coords.s.concentration", "s", "lower"),
    ("concentration.classify_trichotomy.s.spread", "s", "lower"),
    ("concentration.classify_trichotomy.s.translate", "s", "lower"),
    ("concentration.classify_trichotomy.s.split", "s", "lower"),
    ("concentration.distances", "count", "lower"),
]


class CalibratedClock:
    """Round timer that also samples the machine's speed.

    The host's cores are shared, and its speed drifts by 15-30% over tens
    of seconds, which moves every wall time alike.  At operation boundaries
    at least CAL_EVERY seconds apart the clock runs a fixed kernel (numpy
    passes over 400,000 doubles and an interpreter loop) and records its
    duration; the run's median kernel time is the unit in which round
    times are reported.  Kernel time is left out of the round times.
    """

    CAL_EVERY = 1.0

    def __init__(self):
        self.x = np.linspace(0.0, 1.0, 400_000)
        self.kernel()
        self.samples = [self.kernel()]
        self.start = time.perf_counter()
        self.raw = 0.0

    def kernel(self) -> float:
        t = time.perf_counter()
        for _ in range(10):
            np.sqrt(self.x * self.x + 1.0) ** 0.3
        acc = 0
        for i in range(100_000):
            acc += i * i
        return time.perf_counter() - t

    def tick(self, force: bool = False):
        """Close the current stretch if it is long enough (or if forced)."""
        stretch = time.perf_counter() - self.start
        if not force and stretch < self.CAL_EVERY:
            return
        self.raw += stretch
        self.samples.append(self.kernel())
        self.start = time.perf_counter()

    def end_round(self) -> float:
        """Wall time of the round just finished, kernel runs excluded."""
        self.tick(force=True)
        raw, self.raw = self.raw, 0.0
        return raw


class Workload:
    """Set-up happens in __init__; ``run_round`` performs one round of
    operations through ``op`` (main() sets ``clock`` first); ``finish``
    returns (checks, accuracy) where checks is a list of (name, ok, detail)
    and accuracy holds the workload's per-layer accuracy figures."""

    min_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.clock = None
        self.attempted = 0
        self.failed = 0

    def op(self, label: str, fn, *args, **kwargs):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            with self.tracer.span("bench.op", label):
                return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.clock.tick()


class QuadratureCold(Workload):
    """Cold n = 1 evaluation: kernel tables built from an empty cache."""

    LAMS = (0.7, 2.0, 3.0)
    Q = 4
    QUOTIENT_TOL = 0.02  # q(H) and E[H,H]/||H||_r^2 against C_FL
    NODE_TOL = 1e-3  # fractional_integral at a node against the table
    INNER_TOL = 0.05  # I H / (c H^(r-1)) - 1 at inner lattice nodes
    OFF_NODE_TOL = 0.25  # the same ratio between t-nodes

    def __init__(self, seed):
        super().__init__(seed)
        self.spec = GridSpec(n=1, n_rho=16, rho_min=0.02, rho_max=20.0, n_t=32, t_max=20.0)
        rho, t, dt = self.spec.rho_nodes(), self.spec.t_nodes(), self.spec.dt
        j = self.spec.n_t // 2
        i_mid = int(np.argmin(np.abs(rho - 0.5)))
        i_in = int(np.argmin(np.abs(rho - 0.3)))
        i_out = int(np.argmin(np.abs(rho - 1.0)))
        self.node = (i_mid, j)
        # (rho0, t0): rho nodes, t0 half and a quarter of a cell off the t lattice
        self.off_nodes = [
            (rho[i_in], t[j] + 0.5 * dt),
            (rho[i_in], t[j] + 0.25 * dt),
            (rho[i_out], t[j] + 0.5 * dt),
        ]
        R, T = np.meshgrid(rho, t, indexing="ij")
        self.inner = (R <= 2.0) & (np.abs(T) <= 2.0)
        self.cases = []
        for lam in self.LAMS:
            diag = diagonal_params(1, lam)
            p_max = self.Q / (self.Q - lam)
            off = derive_conjugates(1, lam, 0.5 * (diag.p + p_max))
            self.cases.append((lam, extremal_H(1, lam, self.spec), diag, off))
        self.outputs = []

    def run_round(self, k):
        quadrature.clear_table_cache()
        for lam, H, diag, off in self.cases:
            out = {"lam": lam}
            out["q_diag"] = self.op("quotient", quadrature.hls_quotient, H, diag)
            out["energy"] = self.op("energy", quadrature.bilinear_energy, H, H, lam)
            out["q_off"] = self.op("quotient", quadrature.hls_quotient, H, off)
            grid = self.op("grid", quadrature.fractional_integral_grid, H, lam)
            out["grid"] = None if grid is None else grid.values
            i, j = self.node
            u = GroupPoint(1, np.array([H.rho_nodes[i], 0.0]), H.t_nodes[j])
            out["node"] = self.op("point", quadrature.fractional_integral, H, lam, u)
            out["off"] = [
                self.op(
                    "point",
                    quadrature.fractional_integral,
                    H,
                    lam,
                    GroupPoint(1, np.array([rho0, 0.0]), t0),
                )
                for rho0, t0 in self.off_nodes
            ]
            self.outputs.append(out)

    def finish(self):
        checks = []
        q_dev = 0.0
        pt_dev = 0.0
        cases = {c[0]: c for c in self.cases}
        for out in self.outputs:
            lam = out["lam"]
            _, H, diag, off = cases[lam]
            C = frank_lieb_constant(1, lam)
            c = cf.h_proportionality(1, lam)
            expo = lam / (2 * self.Q - lam)
            tag = f"lam={lam}"
            if out["q_diag"] is not None:
                dev = abs(out["q_diag"] - C) / C
                q_dev = max(q_dev, dev)
                checks.append((f"{tag} q(H) vs C_FL", dev <= self.QUOTIENT_TOL, dev))
            if out["energy"] is not None:
                norm_sq = float(np.sum(H.weights * H.values ** diag.r)) ** (2.0 / diag.r)
                dev = abs(out["energy"] / norm_sq - C) / C
                checks.append((f"{tag} E[H,H]/|H|_r^2 vs C_FL", dev <= self.QUOTIENT_TOL, dev))
            if out["q_off"] is not None:
                bound = theorem2_upper_bound(1, lam, off.r, off.s)
                checks.append((f"{tag} off-diagonal q(H) <= Theorem 2", out["q_off"] <= bound, out["q_off"] / bound))
            grid = out["grid"]
            if grid is not None:
                ratio = grid[self.inner] / (c * H.values[self.inner] ** expo)
                dev = float(np.max(np.abs(ratio - 1.0)))
                checks.append((f"{tag} inner-node I H / c H^(r-1)", dev <= self.INNER_TOL, dev))
                if out["node"] is not None:
                    dev = abs(out["node"] / grid[self.node] - 1.0)
                    checks.append((f"{tag} point at node vs table", dev <= self.NODE_TOL, dev))
            for (rho0, t0), val in zip(self.off_nodes, out["off"]):
                if val is None:
                    continue
                dev = abs(val / (c * cf.h_value(1, lam, rho0, t0) ** expo) - 1.0)
                pt_dev = max(pt_dev, dev)
                checks.append((f"{tag} off-node ({rho0:.3f}, {t0:.3f})", dev <= self.OFF_NODE_TOL, dev))
        return checks, {"quadrature.quotient_rel_dev": q_dev, "quadrature.pointwise_rel_dev": pt_dev}


class Search(Workload):
    """maximize from the Gaussian start at lam = 2, on and off the diagonal,
    with the kernel table built during set-up."""

    LAM = 2.0
    P_OFF = (1.15, 1.6, 1.85)
    DIAG_TOL = 0.02

    def __init__(self, seed):
        super().__init__(seed)
        self.spec = GridSpec(n=1, n_rho=28, rho_min=5e-3, rho_max=25.0, n_t=56, t_max=25.0)
        quadrature.kernel_table(self.spec, self.LAM)
        self.start = extremal.gaussian_profile(self.spec)
        self.params = [diagonal_params(1, self.LAM)] + [
            derive_conjugates(1, self.LAM, p) for p in self.P_OFF
        ]
        self.start_q = [
            quadrature.hls_quotient(
                self.start.with_values(self.start.values / grids.lp_norm(self.start, prm.p)), prm
            )
            for prm in self.params
        ]
        self.outputs = []

    def run_round(self, k):
        for idx, prm in enumerate(self.params):
            res = self.op("search", extremal.maximize, prm, self.start)
            if res is not None:
                self.outputs.append((idx, res[1], list(res[2].quotients)))

    def finish(self):
        checks = []
        C = frank_lieb_constant(1, self.LAM)
        diag_dev = 0.0
        for idx, q, trace in self.outputs:
            prm = self.params[idx]
            tag = f"p={prm.p:.4f}"
            mono = all(b >= a for a, b in zip(trace, trace[1:]))
            checks.append((f"{tag} trace nondecreasing", mono, len(trace)))
            checks.append((f"{tag} found >= start", q >= self.start_q[idx], q - self.start_q[idx]))
            if idx == 0:
                diag_dev = abs(q - C) / C
                checks.append((f"{tag} diagonal q vs C_FL", diag_dev <= self.DIAG_TOL, diag_dev))
            else:
                bound = theorem2_upper_bound(1, self.LAM, prm.r, prm.s)
                checks.append((f"{tag} q <= Theorem 2", q <= bound, q / bound))
        return checks, {"extremal.search_rel_dev": diag_dev}


class McEnergy(Workload):
    """mc_bilinear_energy on the extremal pair: H at n = 1, 2, 3 and the
    Euclidean extremal at N = 3, one independent seed per call."""

    LAM = 2.0
    SAMPLES = 250_000
    CASES = (("H1", "heisenberg", 1), ("H2", "heisenberg", 2), ("H3", "heisenberg", 3), ("E3", "euclidean", 3))
    Z_TOL = 7.0
    min_rounds = 10

    def __init__(self, seed):
        super().__init__(seed)
        self.inputs = []
        for name, geom, n in self.CASES:
            if geom == "heisenberg":
                f = montecarlo.heisenberg_extremal_callable(n, self.LAM)
                exact = cf.h_energy(n, self.LAM)
            else:
                f = montecarlo.euclidean_extremal_callable(n, self.LAM)
                exact = cf.euclidean_energy(n, self.LAM)
            self.inputs.append((name, geom, n, f, exact))
        self.outputs = {name: [] for name, *_ in self.CASES}

    def call_seed(self, k, case):
        return int(np.random.SeedSequence([self.seed, k, case]).generate_state(1)[0])

    def run_round(self, k):
        for case, (name, geom, n, f, _) in enumerate(self.inputs):
            res = self.op(
                name,
                montecarlo.mc_bilinear_energy,
                f,
                f,
                self.LAM,
                n=n,
                samples=self.SAMPLES,
                seed=self.call_seed(k, case),
                workers=1,
                geometry=geom,
            )
            if res is not None:
                self.outputs[name].append(res)

    def finish(self):
        checks = []
        acc = {}
        S = self.SAMPLES
        for name, geom, n, f, exact in self.inputs:
            runs = np.array(self.outputs[name], dtype=float).reshape(-1, 2)
            if runs.shape[0] < 2:
                continue
            est, se = runs[:, 0], runs[:, 1]
            # pool every sample of the run: mean and the program's own
            # stderr formula applied to the pooled draws
            mean = float(est.mean())
            second = float(np.mean(S * se ** 2 + est ** 2))
            pooled_se = math.sqrt(max(second - mean * mean, 0.0) / (S * est.size))
            z = (mean - exact) / pooled_se
            checks.append((f"{name} pooled estimate within {self.Z_TOL} stderr", abs(z) <= self.Z_TOL, z))
            acc[f"montecarlo.rel_stderr.{name}"] = float(est.std(ddof=1) / est.mean())
        heis = [v for k, v in acc.items() if not k.endswith("E3")]
        acc["montecarlo.rel_stderr"] = max(heis) if heis else 0.0
        return checks, acc


class Trichotomy(Workload):
    """classify_trichotomy on the three generator families, 2048 atoms,
    length 10, fresh seeds every round."""

    FAMILIES = ("spread", "translate", "split")
    ATOMS = 2048
    LENGTH = 10
    K_TOL = 0.05

    def __init__(self, seed):
        super().__init__(seed)
        self.outputs = []

    def run_round(self, k):
        rng = np.random.default_rng([self.seed, k])
        fam_seed = int(rng.integers(2 ** 31))
        k_split = float(rng.uniform(0.2, 0.4))
        for family in self.FAMILIES:
            gen = concentration.GENERATORS[family]
            kw = {"k": k_split} if family == "split" else {}
            seq = gen(self.LENGTH, fam_seed, n_atoms=self.ATOMS, **kw)
            v = self.op(family, concentration.classify_trichotomy, seq)
            if v is not None:
                k_hat = v.k if v.kind == "dichotomy" else v.diagnostics["k_sup"]
                self.outputs.append((family, k_split, v.kind, k_hat))

    def finish(self):
        checks = []
        for family, k_split, kind, k_hat in self.outputs:
            want_kind, want_k = cf.family_verdict(family, k_split if family == "split" else None)
            checks.append((f"{family} verdict", kind == want_kind, kind))
            checks.append((f"{family} |k_hat - k|", abs(k_hat - want_k) <= self.K_TOL, k_hat - want_k))
        return checks, {}


WORKLOADS = {
    "quadrature-cold": QuadratureCold,
    "search": Search,
    "mc-energy": McEnergy,
    "trichotomy": Trichotomy,
}


def layer_metrics(spans, accuracy: dict) -> dict:
    """Per-layer metrics from the recorded spans plus the accuracy figures."""
    ix = SpanIndex(spans)
    val = dict(accuracy)
    for name in (
        "quadrature.build_kernel_table",
        "quadrature.kbar_many",
        "quadrature.weights_row",
        "quadrature.KernelTable.apply",
        "extremal.renormalize_concentration",
        "extremal.dilate_grid_function",
        "extremal.levy_concentration_grid",
        "extremal.euler_lagrange_step",
        "grids.lp_norm",
        "montecarlo.mc_bilinear_energy",
    ):
        val[f"{name}.s"] = ix.seconds(name)
        val[f"{name}.calls"] = ix.calls(name)
    val["quadrature.kbar_many.points"] = ix.count("quadrature.kbar_many")
    val["quadrature.hls_quotient.calls"] = ix.calls("quadrature.hls_quotient")

    its = ix.count("extremal.maximize")
    acc = ix.extra("extremal.maximize")
    val["extremal.maximize.iterations"] = its
    val["extremal.maximize.accepted"] = acc
    val["extremal.maximize.accepted_share"] = acc / its if its else 0.0

    ball = "montecarlo.Geometry.uniform_ball"
    in_ball = lambda i: spans[i][3] >= 0 and spans[spans[i][3]][0] == ball  # noqa: E731
    val["montecarlo.uniform_ball.s"] = ix.seconds(ball)
    val["montecarlo.uniform_ball.points"] = ix.count(ball)
    cand = ix.count("montecarlo.Geometry.norm", in_ball)
    val["montecarlo.uniform_ball.candidates"] = cand
    val["montecarlo.uniform_ball.acceptance"] = ix.count(ball) / cand if cand else 0.0

    mc = "montecarlo.mc_bilinear_energy"
    total_s = 0.0
    total_n = 0
    for case, *_ in McEnergy.CASES:
        sel = lambda i, case=case: ix.label(i) == case  # noqa: E731
        secs = ix.seconds(mc, sel)
        n = ix.calls(mc, sel) * McEnergy.SAMPLES
        val[f"montecarlo.samples_per_s.{case}"] = n / secs if secs else 0.0
        total_s += secs
        total_n += n
    val["montecarlo.samples_per_s"] = total_n / total_s if total_s else 0.0

    for fn in ("multiply_coords", "norm_coords"):
        name = f"group.{fn}"
        for mod in ("montecarlo", "concentration"):
            sel = lambda i, mod=mod: ix.caller_module(i) == mod  # noqa: E731
            val[f"{name}.points.{mod}"] = ix.count(name, sel)
            val[f"{name}.s.{mod}"] = ix.seconds(name, sel)
    val["concentration.distances"] = val["group.norm_coords.points.concentration"]
    for family in Trichotomy.FAMILIES:
        sel = lambda i, family=family: ix.label(i) == family  # noqa: E731
        val[f"concentration.classify_trichotomy.s.{family}"] = ix.seconds(
            "concentration.classify_trichotomy", sel
        )
    return {
        name: {"value": float(val.get(name, 0.0)), "unit": unit} for name, unit, _ in PER_LAYER
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
    round_s = []
    clock = workload.clock = CalibratedClock()
    start = time.perf_counter()
    try:
        k = 0
        while True:
            workload.run_round(k)
            round_s.append(clock.end_round())
            k += 1
            if time.perf_counter() - start >= args.seconds and k >= workload.min_rounds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    checks, accuracy = workload.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad = [c for c in checks if not c[1]]
    for name, _, detail in bad:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not bad and bool(checks),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "round_s": round_s,
        "kernel_s": clock.samples,
        "round_cal": statistics.median(round_s) / statistics.median(clock.samples),
        "checks": [[n, bool(ok), float(d) if isinstance(d, (int, float)) else str(d)] for n, ok, d in checks],
        "accuracy": accuracy,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, accuracy)
        tracer.write(stem + "-spans.json")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
