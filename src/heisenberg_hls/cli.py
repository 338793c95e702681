"""Command-line surface: constants, evaluate, maximize, classify.

Each subcommand declares only the flags it reads, one per setting: the
exponents come from `--p` alone (s = p, and r follows from
1/r + 1/s + lambda/Q = 2).  Every setting given is either used or
rejected: an unknown flag or config key, and a flag of the mode not taken
(`evaluate` with or without `--mc`, `evaluate --input` with `--preset` or
a grid flag, `classify` with or without `--inputs`), exit 2.  Defaults
live in the library (`GridSpec`, `IterationControls`, the generator
families) except the Monte Carlo ones (`MC_DEFAULTS`) and the generator
choice, length and seed of `classify` (`CLASSIFY_DEFAULTS`).  The library
also owns every rule it enforces, such as the n = 1 limit of the
deterministic path; its ValueError exits 2.

Every command checks its flags before any computation starts and writes
output files only after the computation finishes, so a validation failure
never leaves partial files.  Exit codes: 0 success, 2 validation
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
    searched_params,
)
from .grids import CylGridFunction, GridSpec, ball_indicator, lp_norm
from .group import ball_volume, check_n
from .montecarlo import (
    ball_indicator_callable,
    gaussian_callable,
    heisenberg_extremal_callable,
    mc_bilinear_energy,
)
from .quadrature import bilinear_energy, hls_quotient

SCHEMA_VERSION = 1

EXIT_VALIDATION = 2
EXIT_IO = 3

# grid flag (dest) -> GridSpec field; GridSpec holds the defaults
GRID_FLAGS = {"grid_rho": "n_rho", "grid_t": "n_t", "rho_min": "rho_min",
              "rho_max": "rho_max", "t_max": "t_max"}
MC_DEFAULTS = {"samples": 1_000_000, "seed": 0}
CLASSIFY_DEFAULTS = {"generator": "spread", "length": 10, "seed": 0}

# evaluate --preset and maximize --init name -> (grid builder (spec, lam),
# point builder (n, lam) for evaluate --mc, None for the --init-only hperturb)
PROFILES = {
    "H": (lambda spec, lam: extremal_H(spec.n, lam, spec), heisenberg_extremal_callable),
    "ball": (lambda spec, lam: ball_indicator(spec), lambda n, lam: ball_indicator_callable(n)),
    "gauss": (lambda spec, lam: gaussian_profile(spec), lambda n, lam: gaussian_callable(n)),
    "hperturb": (lambda spec, lam: perturbed_H(spec.n, lam, spec), None),
}


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


def _config_flags(path: str) -> list[str]:
    """A config file's `key = value` lines ('#' comments) as flags.

    A key is a long option name without its dashes (`lambda = 2`,
    `grid-rho = 64`) and becomes `--key` followed by the value split on
    whitespace (`inputs = a.json b.json`); `true` / `false` give or drop a
    bare switch (`mc = true`).
    """
    flags = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    _fail(EXIT_VALIDATION, f"{path}:{line_no}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                key = key.replace("_", "-")
                if key in ("config", "help"):
                    _fail(EXIT_VALIDATION, f"{path}:{line_no}: {key!r} is not a config key")
                if val.lower() in ("true", "false"):
                    flags += [f"--{key}"] if val.lower() == "true" else []
                else:
                    flags += [f"--{key}", *val.split()]
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read config {path}: {exc}")
    return flags


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; a --config file's lines are flags placed before argv's own.

    argparse parses once more with them, so explicit flags win, each value
    gets its option's type, and an unknown key exits 2 like an unknown flag.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])


def _given(args, dests) -> dict:
    """The flags among dests (dest names) that were given, by dest."""
    return {d: getattr(args, d) for d in dests if getattr(args, d) is not None}


def _reject_given(args, dests, reason: str):
    """Exit 2 if any flag among dests was given; reason says why it does
    not apply."""
    given = _given(args, dests)
    if given:
        flags = " ".join("--" + d.replace("_", "-") for d in given)
        _fail(EXIT_VALIDATION, f"{flags}: {reason}")


def _grid_spec(args) -> GridSpec:
    given = _given(args, GRID_FLAGS)
    return GridSpec(n=args.n, **{GRID_FLAGS[d]: v for d, v in given.items()})


def _resolve_params(args):
    """Exponent tuple from --p (s = p, r from the bilinear relation), or the
    diagonal default."""
    if args.p is None:
        return sc.diagonal_params(args.n, args.lam)
    return sc.HlsParams(args.n, args.lam, args.p)


# ---------------------------------------------------------------------------
# constants


def cmd_constants(args) -> int:
    n, lam = args.n, args.lam
    params = _resolve_params(args)
    diagonal = sc.diagonal_params(n, lam)
    if args.N is None:
        N = 2 * n + 1
    else:
        # a given N is used, so it must be a dimension the Lieb records exist at
        N = check_n(args.N, "N")
        sc.check_lambda(lam, N, "N")

    sharp = sc.frank_lieb_constant(n, lam)
    upper = sc.theorem2_upper_bound(n, lam, params.r, params.s)
    # the dominance check is on the diagonal, where the sharp constant is known
    upper_diagonal = sc.theorem2_upper_bound(n, lam, diagonal.r, diagonal.s)
    records = [
        {"name": "ball_volume", "params": {"n": n}, "value": ball_volume(n)},
        {"name": "frank_lieb_constant", "params": {"n": n, "lambda": lam}, "value": sharp},
        {
            "name": "theorem2_upper_bound",
            "params": {"n": n, "lambda": lam, "r": params.r, "s": params.s},
            "value": upper,
        },
        {
            "name": "h_quotient",
            "params": {"n": n, "lambda": lam, "p": params.p, "q": params.q},
            "value": sc.h_quotient(n, lam, params.p),
        },
    ]
    dominance = [("theorem2_vs_frank_lieb_diagonal", upper_diagonal, sharp)]
    if 0.0 < lam < N:
        rN = 2.0 * N / (2.0 * N - lam)
        lieb = {v: sc.lieb_diagonal_constant(N, lam, v) for v in ("standard", "paper")}
        loss = sc.lieb_loss_upper_bound(N, lam, rN, rN)
        records += [
            {"name": f"lieb_diagonal_constant[{v}]", "params": {"N": N, "lambda": lam}, "value": c}
            for v, c in lieb.items()
        ]
        records.append(
            {
                "name": "lieb_loss_upper_bound",
                "params": {"N": N, "lambda": lam, "r": rN, "s": rN},
                "value": loss,
            }
        )
        dominance.append(("lieb_loss_vs_diagonal", loss, lieb[sc.DEFAULT_LIEB_VARIANT]))
    _emit_json(
        {
            "command": "constants",
            "default_lieb_variant": sc.DEFAULT_LIEB_VARIANT,
            "records": records,
            "dominance": [
                {"name": name, "upper": up, "sharp": sh, "dominates": bool(up > sh)}
                for name, up, sh in dominance
            ],
        },
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate


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
    # the values are read onto the spec's grid, so its nodes must be the file's
    for key, nodes in (("rho_nodes", spec.rho_nodes()), ("t_nodes", spec.t_nodes())):
        dev = float(np.max(np.abs(data[key] - nodes))) / float(np.max(np.abs(nodes)))
        if not dev <= 1e-12:
            _fail(
                EXIT_VALIDATION,
                f"grid file {path}: {key} differ from the grid nodes by {dev:.3g} "
                "(relative); rho_nodes must be geomspace(rho_min, rho_max, n_rho) "
                "and t_nodes linspace(-t_max, t_max, n_t)",
            )
    return CylGridFunction(spec, data["values"])


def cmd_evaluate(args) -> int:
    refine = args.refine or 0
    if args.mc:
        grid_path = ("p", "input", *GRID_FLAGS, "refine", "ladder_out")
        _reject_given(args, grid_path, "not used by --mc")
    else:
        _reject_given(args, MC_DEFAULTS, "used only with --mc")
    if args.input:
        _reject_given(args, ("preset", *GRID_FLAGS), "--input gives the profile and its grid")
    elif args.preset is None:
        args.preset = "H"
    if refine < 0:
        _fail(EXIT_VALIDATION, "--refine must be >= 0")
    if args.ladder_out is not None and refine < 1:
        _fail(EXIT_VALIDATION, "--ladder-out needs --refine 1 or more")
    if args.input and refine > 0:
        _fail(EXIT_VALIDATION, "--refine works with presets, not --input")
    if args.mc:
        # Monte Carlo path: the only deterministic-free route for n >= 2
        mc = {**MC_DEFAULTS, **_given(args, MC_DEFAULTS)}
        func = PROFILES[args.preset][1](args.n, args.lam)
        est, se = mc_bilinear_energy(func, func, args.lam, n=args.n, **mc)
        _emit_json(
            {
                "command": "evaluate",
                "preset": args.preset,
                "mode": "monte-carlo",
                "params": {"n": args.n, "lambda": args.lam, **mc},
                "result": {"energy": est, "stderr": se},
            },
            args.out,
        )
        return 0
    params = _resolve_params(args)
    specs = [_grid_spec(args)]
    for _ in range(refine):
        specs.append(specs[-1].refined())
    # preset H has the closed-form quotient as its reference at every p
    reference = sc.h_quotient(args.n, args.lam, params.p) if args.preset == "H" else None
    ladder = []
    for level, spec in enumerate(specs):
        if args.input:
            f = _load_grid_file(args.input, args.n)
        else:
            f = PROFILES[args.preset][0](spec, args.lam)
        if not np.any(f.values != 0.0):
            _fail(EXIT_VALIDATION, "input function is identically zero")
        energy = bilinear_energy(f, f, args.lam)
        row = {
            "level": level,
            "n_rho": spec.n_rho,
            "n_t": spec.n_t,
            "norm_p": lp_norm(f, params.p),
            "norm_r": lp_norm(f, params.r),
            "energy": energy,
            "quotient": hls_quotient(f, params),
        }
        row["energy_over_norm_r_sq"] = energy / row["norm_r"] ** 2
        if reference is not None:
            row["quotient_error"] = abs(row["quotient"] - reference)
        ladder.append(row)
    result = {k: v for k, v in ladder[0].items() if k not in ("level", "n_rho", "n_t")}
    if reference is not None:
        result["h_quotient"] = reference
    payload = {
        "command": "evaluate",
        "preset": args.preset,
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
    if refine > 0:
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
    params = _resolve_params(args)
    spec = _grid_spec(args)
    opts = IterationControls(**_given(args, ("max_iter", "rtol")))
    f0 = PROFILES[args.init][0](spec, args.lam)
    f_star, quotient, trace = maximize(params, f0, opts)
    searched = searched_params(params)  # f_star has unit norm at its p

    h_ref = extremal_H(args.n, args.lam, spec)
    d_fit, a_fit, rel_err = align(f_star, h_ref, searched.p)
    summary = {
        "command": "maximize",
        "params": {
            "n": args.n,
            "lambda": args.lam,
            "p": params.p,
            "q": params.q,
            "init": args.init,
            "max_iter": opts.max_iter,
        },
        "quotient": quotient,
        "sharp_constant_diagonal": sc.frank_lieb_constant(args.n, args.lam),
        "iterations": len(trace.iterations) - 1,
        "stop_reason": trace.stop_reason,
        "converged": trace.stop_reason != "max_iter",
        "alignment": {"dilation": d_fit, "t_shift": a_fit, "rel_error": rel_err},
        # the returned profile's gauge moments: a re-gauge dilates by exp(-log_radius)
        "gauge_residual": {"t_mean": trace.t_means[-1], "log_radius": trace.log_radii[-1]},
    }
    if searched is not params:  # above the diagonal: the dual search
        summary["params"].update(searched_p=searched.p, searched_q=searched.q)
    if args.trace:
        _write_csv(
            args.trace,
            ["iter", "quotient", "t_mean", "log_radius", "dilation", "t_shift", "accepted"],
            ((*row[:-1], int(row[-1])) for row in trace.rows()),
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
    # what numpy cannot turn into arrays (a ragged points list) is malformed;
    # DiscreteMeasure's own checks are validation failures
    try:
        points = np.asarray(data["points"], dtype=float)
        fields = data["n"], points, np.asarray(data["masses"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        _fail(EXIT_IO, f"malformed measure file {path}: {exc}")
    try:
        return DiscreteMeasure(*fields)
    except TypeError as exc:
        _fail(EXIT_IO, f"malformed measure file {path}: {exc}")
    except ValueError as exc:
        _fail(EXIT_VALIDATION, f"measure file {path}: {exc}")


def cmd_classify(args) -> int:
    if args.inputs is not None:
        _reject_given(args, ("n", *CLASSIFY_DEFAULTS, "k"), "not used with --inputs")
        gen = dict.fromkeys(CLASSIFY_DEFAULTS)
        seq = [_load_measure_file(p) for p in args.inputs]
    else:
        gen = {**CLASSIFY_DEFAULTS, **_given(args, CLASSIFY_DEFAULTS)}
        if gen["generator"] != "split":
            _reject_given(args, ("k",), "applies to --generator split only")
        seq = GENERATORS[gen["generator"]](gen["length"], gen["seed"], **_given(args, ("n", "k")))
    verdict = classify_trichotomy(seq, **_given(args, ("eps",)))
    payload = {
        "command": "classify",
        "generator": gen["generator"],
        "length": len(seq),
        "seed": gen["seed"],
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

    def command(name, func, help, exponents=True, grid=True):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--out", help="JSON output path (default stdout)")
        p.add_argument("--config", help="key = value config file; flags override")
        if exponents:
            p.add_argument("--n", type=int, default=1, help="complex dimension of H^n")
            p.add_argument("--lambda", dest="lam", type=float, default=2.0, help="kernel exponent")
            p.add_argument("--p", type=float, help="operator exponent p = s (default: diagonal)")
        if grid:  # defaults: GridSpec
            p.add_argument("--grid-rho", type=int)
            p.add_argument("--grid-t", type=int)
            p.add_argument("--rho-min", type=float)
            p.add_argument("--rho-max", type=float)
            p.add_argument("--t-max", type=float)
        return p

    p_const = command("constants", cmd_constants, "closed-form constants and dominance checks", grid=False)
    p_const.add_argument("--N", type=int, help="Euclidean dimension (default 2n+1)")

    p_eval = command("evaluate", cmd_evaluate, "energies, norms, and the HLS quotient")
    p_eval.add_argument("--preset", choices=("H", "ball", "gauss"), help="default H; not with --input")
    p_eval.add_argument("--input", help="npz grid file (rho_nodes, t_nodes, values)")
    p_eval.add_argument("--refine", type=int, help="extra grid refinement levels")
    p_eval.add_argument("--ladder-out", help="CSV path for the refinement ladder")
    p_eval.add_argument("--mc", action="store_true", help="Monte Carlo energy estimate (any n)")
    p_eval.add_argument("--samples", type=int, help="Monte Carlo sample count (default 10^6)")
    p_eval.add_argument("--seed", type=int, help="Monte Carlo seed (default 0)")

    p_max = command("maximize", cmd_maximize, "extremal search for the HLS quotient")
    p_max.add_argument("--init", choices=("H", "hperturb", "gauss"), default="gauss",
                       help="start (default: Gaussian profile, far from the maximizer)")
    p_max.add_argument("--max-iter", type=int, help="iteration cap (default: IterationControls)")
    p_max.add_argument("--rtol", type=float, help="stall tolerance (default: IterationControls)")
    p_max.add_argument("--trace", help="CSV path for the convergence trace")

    p_cls = command("classify", cmd_classify, "trichotomy classification of measure sequences",
                    exponents=False, grid=False)
    p_cls.add_argument("--n", type=int, help="complex dimension of generated measures (default 1)")
    p_cls.add_argument("--seed", type=int, help="generator seed (default 0)")
    p_cls.add_argument("--generator", choices=sorted(GENERATORS), help="default spread")
    p_cls.add_argument("--length", type=int, help="sequence length (default 10)")
    p_cls.add_argument("--k", type=float, help="split mass fraction (default 0.3)")
    p_cls.add_argument("--eps", type=float, help="classifier threshold (default 0.05)")
    p_cls.add_argument("--inputs", nargs="*", help="measure JSON files instead of a generator")
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
