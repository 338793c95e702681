"""Command-line surface: constants, evaluate, maximize, classify.

Every command validates its parameters before any computation starts and
writes output files only after the computation finishes, so a validation
failure never leaves partial files.  Exit codes: 0 success, 2 validation
failure, 3 I/O failure.  JSON output carries a schema_version field and is
emitted with sorted keys; CSV floats use 17 significant digits with a '.'
decimal separator regardless of locale.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import constants as sc
from .concentration import GENERATORS, DiscreteMeasure, classify_trichotomy
from .extremal import (
    IterationControls,
    align,
    extremal_H,
    gaussian_profile,
    maximize,
    perturbed_H,
)
from .grids import GridSpec, ball_indicator, lp_norm, sample
from .group import ball_volume
from .quadrature import bilinear_energy, hls_quotient

SCHEMA_VERSION = 1

EXIT_VALIDATION = 2
EXIT_IO = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fail(code: int, message: str):
    print(message, file=sys.stderr)
    raise SystemExit(code)


def _emit_json(payload: dict, out: str | None):
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    if out is None:
        print(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _fail(EXIT_IO, f"cannot write {out}: {exc}")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: str, header: list[str], rows):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(
                    ",".join(
                        _fmt(v) if isinstance(v, float) else str(v) for v in row
                    )
                    + "\n"
                )
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {path}: {exc}")


def _load_config_file(path: str) -> dict:
    """Key-value config: one `key = value` pair per line, '#' comments."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    _fail(EXIT_VALIDATION, f"{path}:{line_no}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                out[key.replace("-", "_")] = val
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read config {path}: {exc}")
    return out


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; a --config file supplies the command's defaults.

    Config keys are the long option names without the leading dashes
    (e.g. `lambda = 2.0`, `grid-rho = 64`).  The file values become the
    subcommand's defaults and argv is parsed again, so flags in any form
    win and argparse converts the values with each option's type.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = commands.choices[args.command]
    by_key = {}
    for action in sub._actions:
        for opt in action.option_strings:
            by_key[opt.lstrip("-").replace("-", "_")] = action
        by_key.setdefault(action.dest, action)
    defaults = {}
    for key, raw in _load_config_file(args.config).items():
        action = by_key.get(key)
        if action is None or action.dest in ("config", "help"):
            continue
        if isinstance(action.default, bool):
            raw = raw.lower() in ("1", "true", "yes")
        elif action.nargs in ("*", "+"):
            raw = raw.split()
        defaults[action.dest] = raw
    sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _grid_spec(args) -> GridSpec:
    try:
        return GridSpec(
            n=args.n,
            n_rho=args.grid_rho,
            rho_min=args.rho_min,
            rho_max=args.rho_max,
            n_t=args.grid_t,
            t_max=args.t_max,
        )
    except ValueError as exc:
        _fail(EXIT_VALIDATION, f"invalid grid: {exc}")


def _check_lambda(lam: float, n: int):
    Q = 2 * n + 2
    if not (0.0 < lam < Q):
        _fail(EXIT_VALIDATION, "lambda out of (0,Q)")


def _resolve_params(args):
    """Exponent tuple from --p, from --r/--s via the duality identification
    (s = p, r = conjugate of q), or the diagonal default."""
    if args.r is not None or args.s is not None:
        if args.r is None or args.s is None:
            _fail(EXIT_VALIDATION, "provide both --r and --s or neither")
        try:
            params = sc.derive_conjugates(args.n, args.lam, args.s)
        except ValueError as exc:
            _fail(EXIT_VALIDATION, f"inadmissible (r, s): {exc}")
        if abs(params.r - args.r) > 1e-9 * max(1.0, args.r):
            _fail(
                EXIT_VALIDATION,
                f"(r, s) violates the bilinear relation: expected r = {params.r}",
            )
        return params
    if args.p is not None:
        try:
            return sc.derive_conjugates(args.n, args.lam, args.p)
        except ValueError as exc:
            _fail(EXIT_VALIDATION, f"inadmissible p: {exc}")
    return sc.diagonal_params(args.n, args.lam)


# ---------------------------------------------------------------------------
# constants


def cmd_constants(args) -> int:
    _check_lambda(args.lam, args.n)
    n, lam = args.n, args.lam
    Q = 2 * n + 2
    if args.r is not None or args.s is not None:
        if args.r is None or args.s is None:
            _fail(EXIT_VALIDATION, "provide both --r and --s or neither")
        r, s = args.r, args.s
    else:
        r = s = 2.0 * Q / (2.0 * Q - lam)
    N = args.N if args.N is not None else 2 * n + 1

    records = [
        {"name": "ball_volume", "params": {"n": n}, "value": ball_volume(n)},
        {
            "name": "frank_lieb_constant",
            "params": {"n": n, "lambda": lam},
            "value": sc.frank_lieb_constant(n, lam),
        },
    ]
    try:
        records.append(
            {
                "name": "theorem2_upper_bound",
                "params": {"n": n, "lambda": lam, "r": r, "s": s},
                "value": sc.theorem2_upper_bound(n, lam, r, s),
            }
        )
    except ValueError as exc:
        _fail(EXIT_VALIDATION, f"inadmissible (r, s): {exc}")
    dominance = [
        {
            "name": "theorem2_vs_frank_lieb_diagonal",
            "upper": sc.theorem2_upper_bound(
                n, lam, 2 * Q / (2 * Q - lam), 2 * Q / (2 * Q - lam)
            ),
            "sharp": sc.frank_lieb_constant(n, lam),
        }
    ]
    if 0.0 < lam < N:
        rN = 2.0 * N / (2.0 * N - lam)
        for variant in ("standard", "paper"):
            records.append(
                {
                    "name": f"lieb_diagonal_constant[{variant}]",
                    "params": {"N": N, "lambda": lam},
                    "value": sc.lieb_diagonal_constant(N, lam, variant),
                }
            )
        records.append(
            {
                "name": "lieb_loss_upper_bound",
                "params": {"N": N, "lambda": lam, "r": rN, "s": rN},
                "value": sc.lieb_loss_upper_bound(N, lam, rN, rN),
            }
        )
        dominance.append(
            {
                "name": "lieb_loss_vs_diagonal",
                "upper": sc.lieb_loss_upper_bound(N, lam, rN, rN),
                "sharp": sc.lieb_diagonal_constant(N, lam, sc.DEFAULT_LIEB_VARIANT),
            }
        )
    for item in dominance:
        item["dominates"] = bool(item["upper"] > item["sharp"])
    _emit_json(
        {
            "command": "constants",
            "default_lieb_variant": sc.DEFAULT_LIEB_VARIANT,
            "records": records,
            "dominance": dominance,
        },
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _preset_function(name: str, spec: GridSpec, lam: float):
    if name == "H":
        return extremal_H(spec.n, lam, spec)
    if name == "ball":
        return ball_indicator(spec)
    if name == "gauss":
        return gaussian_profile(spec)
    if name == "zero":
        from .grids import empty_grid_function

        return empty_grid_function(spec)
    _fail(EXIT_VALIDATION, f"unknown preset {name!r} (H, ball, gauss, zero, or --input)")


def _preset_callable(name: str, n: int, lam: float):
    from .montecarlo import (
        ball_indicator_callable,
        heisenberg_extremal_callable,
    )

    if name == "H":
        return heisenberg_extremal_callable(n, lam)
    if name == "ball":
        return ball_indicator_callable(n)
    if name == "gauss":

        def gauss(pts):
            zsq = np.einsum("ij,ij->i", pts[:, : 2 * n], pts[:, : 2 * n])
            return np.exp(-zsq - pts[:, 2 * n] ** 2)

        return gauss
    _fail(EXIT_VALIDATION, f"preset {name!r} has no Monte Carlo form (H, ball, gauss)")


def _load_grid_file(path: str, spec_n: int):
    try:
        data = np.load(path)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read input file {path}: {exc}")
    except ValueError as exc:
        _fail(EXIT_IO, f"malformed grid file {path}: {exc}")
    for key in ("rho_nodes", "t_nodes", "values"):
        if key not in data:
            _fail(EXIT_IO, f"grid file {path} missing array {key!r}")
    from .grids import CylGridFunction, build_weights

    rho = data["rho_nodes"]
    t = data["t_nodes"]
    if rho.ndim != 1 or t.ndim != 1 or min(rho.size, t.size) < 4:
        _fail(
            EXIT_VALIDATION,
            f"grid file {path}: rho_nodes and t_nodes must be 1-D with 4 or more nodes",
        )
    spec = GridSpec(
        n=spec_n,
        n_rho=rho.size,
        rho_min=float(rho[0]),
        rho_max=float(rho[-1]),
        n_t=t.size,
        t_max=float(t[-1]),
    )
    # weights and kernel table come from the spec, so its nodes must be the file's
    for key, nodes in (("rho_nodes", spec.rho_nodes()), ("t_nodes", spec.t_nodes())):
        dev = float(np.max(np.abs(data[key] - nodes))) / float(np.max(np.abs(nodes)))
        if not dev <= 1e-12:
            _fail(
                EXIT_VALIDATION,
                f"grid file {path}: {key} differ from the grid nodes by {dev:.3g} "
                "(relative); rho_nodes must be geomspace(rho_min, rho_max, n_rho) "
                "and t_nodes linspace(-t_max, t_max, n_t)",
            )
    return CylGridFunction(spec_n, rho, t, data["values"], build_weights(spec), spec)


def cmd_evaluate(args) -> int:
    _check_lambda(args.lam, args.n)
    if args.mc:
        # Monte Carlo path: the only deterministic-free route for n >= 2
        from .montecarlo import mc_bilinear_energy

        if args.input:
            _fail(EXIT_VALIDATION, "--mc works with presets, not --input")
        func = _preset_callable(args.preset, args.n, args.lam)
        est, se = mc_bilinear_energy(
            func, func, args.lam, n=args.n, samples=args.samples,
            seed=args.seed, workers=args.workers,
        )
        _emit_json(
            {
                "command": "evaluate",
                "preset": args.preset,
                "mode": "monte-carlo",
                "params": {"n": args.n, "lambda": args.lam, "samples": args.samples,
                           "seed": args.seed, "workers": args.workers},
                "result": {"energy": est, "stderr": se},
            },
            args.out,
        )
        return 0
    if args.n != 1:
        _fail(EXIT_VALIDATION, "deterministic evaluation requires --n 1; use --mc for n >= 2")
    spec = _grid_spec(args)
    params = _resolve_params(args)

    def evaluate_on(spec_level):
        if args.input:
            f = _load_grid_file(args.input, args.n)
        else:
            f = _preset_function(args.preset, spec_level, args.lam)
        if not np.any(f.values != 0.0):
            _fail(EXIT_VALIDATION, "input function is identically zero")
        energy = bilinear_energy(f, f, args.lam)
        out = {
            "norm_p": lp_norm(f, params.p),
            "norm_r": lp_norm(f, params.r),
            "energy": energy,
            "quotient": hls_quotient(f, params),
        }
        out["energy_over_norm_r_sq"] = energy / out["norm_r"] ** 2
        return out

    result = evaluate_on(spec)
    payload = {
        "command": "evaluate",
        "preset": args.preset if not args.input else None,
        "input": args.input,
        "params": {
            "n": args.n,
            "lambda": args.lam,
            "p": params.p,
            "q": params.q,
            "r": params.r,
            "s": params.s,
        },
        "result": result,
    }
    if args.refine > 0:
        if args.input:
            _fail(EXIT_VALIDATION, "--refine works with presets, not --input")
        ladder = [{"level": 0, "n_rho": spec.n_rho, "n_t": spec.n_t, **result}]
        level_spec = spec
        for level in range(1, args.refine + 1):
            level_spec = level_spec.refined()
            ladder.append(
                {
                    "level": level,
                    "n_rho": level_spec.n_rho,
                    "n_t": level_spec.n_t,
                    **evaluate_on(level_spec),
                }
            )
        reference = None
        if args.preset == "H" and args.p is None:
            reference = sc.frank_lieb_constant(args.n, args.lam)
            for row in ladder:
                row["quotient_error"] = abs(row["quotient"] - reference)
        payload["refinement_reference"] = reference
        if args.ladder_out:
            header = list(ladder[0].keys())
            _write_csv(args.ladder_out, header, ([row[k] for k in header] for row in ladder))
            payload["ladder_csv"] = args.ladder_out
        else:
            payload["ladder"] = ladder
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# maximize


def cmd_maximize(args) -> int:
    _check_lambda(args.lam, args.n)
    if args.n != 1:
        _fail(EXIT_VALIDATION, "the search requires --n 1 (deterministic quadrature)")
    spec = _grid_spec(args)
    params = _resolve_params(args)
    if args.init == "H":
        f0 = extremal_H(args.n, args.lam, spec)
    elif args.init == "hperturb":
        f0 = perturbed_H(args.n, args.lam, spec)
    elif args.init == "gauss":
        f0 = gaussian_profile(spec)
    else:
        _fail(EXIT_VALIDATION, f"unknown init {args.init!r} (H, hperturb, gauss)")
    opts = IterationControls(max_iter=args.max_iter, rtol=args.rtol)
    f_star, quotient, trace = maximize(params, f0, opts)

    h_ref = extremal_H(args.n, args.lam, spec)
    d_fit, a_fit, rel_err = align(f_star, h_ref, params.p)
    summary = {
        "command": "maximize",
        "params": {
            "n": args.n,
            "lambda": args.lam,
            "p": params.p,
            "q": params.q,
            "init": args.init,
            "max_iter": args.max_iter,
            "seed": args.seed,
        },
        "quotient": quotient,
        "sharp_constant_diagonal": sc.frank_lieb_constant(args.n, args.lam),
        "iterations": len(trace.iterations) - 1,
        "stop_reason": trace.stop_reason,
        "converged": trace.stop_reason != "max_iter",
        "alignment": {"dilation": d_fit, "t_shift": a_fit, "rel_error": rel_err},
    }
    if args.trace:
        _write_csv(
            args.trace,
            ["iter", "quotient", "q1_concentration", "dilation", "t_shift", "accepted"],
            (
                (it, q, q1, d, a, int(ok))
                for (it, q, q1, d, a, ok) in trace.rows()
            ),
        )
        summary["trace_csv"] = args.trace
    _emit_json(summary, args.out)
    return 0


# ---------------------------------------------------------------------------
# classify


def _load_measure_file(path: str) -> DiscreteMeasure:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read measure file {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(EXIT_IO, f"malformed measure file {path}: {exc}")
    try:
        return DiscreteMeasure(
            int(data["n"]), np.asarray(data["points"], dtype=float), np.asarray(data["masses"], dtype=float)
        )
    except (KeyError, TypeError, ValueError) as exc:
        _fail(EXIT_IO, f"malformed measure file {path}: {exc}")


def cmd_classify(args) -> int:
    if args.inputs:
        seq = [_load_measure_file(p) for p in args.inputs]
    else:
        if args.generator not in GENERATORS:
            _fail(
                EXIT_VALIDATION,
                f"unknown generator {args.generator!r} (choose from {sorted(GENERATORS)})",
            )
        if args.length < 3:
            _fail(EXIT_VALIDATION, "sequence length must be >= 3")
        gen = GENERATORS[args.generator]
        if args.generator == "split":
            if not (0.0 < args.k < 1.0):
                _fail(EXIT_VALIDATION, "split mass fraction k must lie in (0,1)")
            seq = gen(args.length, args.seed, k=args.k)
        else:
            seq = gen(args.length, args.seed)
    try:
        verdict = classify_trichotomy(seq, eps=args.eps)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    payload = {
        "command": "classify",
        "generator": None if args.inputs else args.generator,
        "length": len(seq),
        "seed": None if args.inputs else args.seed,
        "verdict": {
            "kind": verdict.kind,
            "k": verdict.k,
            "centers": [c.coords().tolist() for c in verdict.centers] if verdict.centers else None,
        },
        "profile": {
            "R": verdict.profile_R.tolist(),
            "Q": verdict.profile_Q.tolist(),
        },
        "diagnostics": verdict.diagnostics,
    }
    _emit_json(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenberg-hls",
        description="Sharp HLS constants, singular quadrature, extremal search, "
        "and concentration-compactness diagnostics on the Heisenberg group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=True):
        p.add_argument("--n", type=int, default=1, help="complex dimension of H^n")
        p.add_argument("--lambda", dest="lam", type=float, default=2.0, help="kernel exponent")
        p.add_argument("--p", type=float, default=None, help="operator exponent p (default: diagonal)")
        p.add_argument("--r", type=float, default=None, help="bilinear exponent r")
        p.add_argument("--s", type=float, default=None, help="bilinear exponent s")
        p.add_argument("--seed", type=int, default=0, help="seed for stochastic paths")
        p.add_argument("--workers", type=int, default=1, help="worker stream count")
        p.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo sample count")
        p.add_argument("--out", type=str, default=None, help="JSON output path (default stdout)")
        p.add_argument("--config", type=str, default=None, help="key=value config file; flags override")
        if grid:
            p.add_argument("--grid-rho", dest="grid_rho", type=int, default=64)
            p.add_argument("--grid-t", dest="grid_t", type=int, default=128)
            p.add_argument("--rho-min", dest="rho_min", type=float, default=1e-3)
            p.add_argument("--rho-max", dest="rho_max", type=float, default=50.0)
            p.add_argument("--t-max", dest="t_max", type=float, default=50.0)

    p_const = sub.add_parser("constants", help="closed-form constants and dominance checks")
    common(p_const, grid=False)
    p_const.add_argument("--N", type=int, default=None, help="Euclidean dimension (default 2n+1)")
    p_const.set_defaults(func=cmd_constants)

    p_eval = sub.add_parser("evaluate", help="energies, norms, and the HLS quotient")
    common(p_eval)
    p_eval.add_argument("--preset", type=str, default="H", help="H | ball | gauss | zero")
    p_eval.add_argument("--input", type=str, default=None, help="npz grid file (rho_nodes, t_nodes, values)")
    p_eval.add_argument("--refine", type=int, default=0, help="extra grid refinement levels")
    p_eval.add_argument("--ladder-out", dest="ladder_out", type=str, default=None, help="CSV path for the refinement ladder")
    p_eval.add_argument("--mc", action="store_true", help="Monte Carlo energy estimate (any n)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_max = sub.add_parser("maximize", help="extremal search for the HLS quotient")
    common(p_max)
    p_max.add_argument("--init", type=str, default="gauss", help="H | hperturb | gauss (default: Gaussian profile, far from the maximizer)")
    p_max.add_argument("--max-iter", dest="max_iter", type=int, default=500)
    p_max.add_argument("--rtol", type=float, default=1e-7)
    p_max.add_argument("--trace", type=str, default=None, help="CSV path for the convergence trace")
    p_max.set_defaults(func=cmd_maximize)

    p_cls = sub.add_parser("classify", help="trichotomy classification of measure sequences")
    common(p_cls, grid=False)
    p_cls.add_argument("--generator", type=str, default="spread", help="spread | translate | split")
    p_cls.add_argument("--length", type=int, default=10, help="sequence length")
    p_cls.add_argument("--k", type=float, default=0.3, help="split mass fraction")
    p_cls.add_argument("--eps", type=float, default=0.05, help="classifier threshold")
    p_cls.add_argument("--inputs", nargs="*", default=None, help="measure JSON files instead of a generator")
    p_cls.set_defaults(func=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse_args(parser, argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ValueError as exc:
        _fail(EXIT_VALIDATION, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
