import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heisenberg_hls import cli, extremal, grids, montecarlo, quadrature
from heisenberg_hls.constants import derive_conjugates, h_quotient, theorem2_upper_bound

PKG = [sys.executable, "-m", "heisenberg_hls"]

# Subprocesses import the package from this checkout's src/ by absolute
# path, so they work from any cwd whether or not the package is installed.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"),
]))}

SMALL_GRID = [
    "--grid-rho", "24", "--grid-t", "48",
    "--rho-min", "5e-3", "--rho-max", "25", "--t-max", "25",
]


def run_cli(*args, check=True, cwd=None):
    proc = subprocess.run(
        PKG + list(args), capture_output=True, text=True, cwd=cwd, env=ENV
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


class TestConstantsCommand:
    def test_reference_values(self):
        proc = run_cli("constants", "--n", "1", "--lambda", "2")
        doc = json.loads(proc.stdout)
        assert doc["schema_version"] == 1
        values = {rec["name"]: rec["value"] for rec in doc["records"]}
        assert values["frank_lieb_constant"] == pytest.approx(4.0, rel=1e-12)
        assert values["ball_volume"] == pytest.approx(math.pi ** 2 / 2, rel=1e-12)
        assert values["theorem2_upper_bound"] == pytest.approx(9 * math.pi / 4, rel=1e-12)
        assert all(item["dominates"] for item in doc["dominance"])

    def test_h_quotient_reported_at_the_exponents(self):
        # the diagonal default and an off-diagonal --p, below the Theorem-2 bound
        for extra, p in (([], 4.0 / 3.0), (["--p", "1.6"], 1.6)):
            doc = json.loads(run_cli("constants", "--n", "1", "--lambda", "2", *extra).stdout)
            recs = {r["name"]: r for r in doc["records"]}
            assert recs["h_quotient"]["params"]["p"] == pytest.approx(p, rel=1e-15)
            assert recs["h_quotient"]["value"] == h_quotient(1, 2.0, p)
            assert recs["h_quotient"]["value"] < recs["theorem2_upper_bound"]["value"]

    def test_lambda_validation_exit_2(self):
        proc = run_cli("constants", "--n", "1", "--lambda", "5", check=False)
        assert proc.returncode == 2
        assert "lambda must lie in (0, Q)" in proc.stderr

    @pytest.mark.parametrize(
        "N, lam, message",
        [("0", "2", "N must be a positive integer, got 0"),
         ("-3", "2", "N must be a positive integer, got -3"),
         ("2", "3", "lambda must lie in (0, N) = (0, 2), got 3.0")],
    )
    def test_given_N_validated_exit_2(self, N, lam, message):
        # a given N that has no Lieb records is rejected, not dropped
        proc = run_cli("constants", "--n", "1", "--lambda", lam, "--N", N, check=False)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == message + "\n"

    def test_default_N_below_lambda_omits_lieb(self):
        # N = 2n + 1 = 3 <= lambda < Q = 4: the default N has no Lieb records
        doc = json.loads(run_cli("constants", "--n", "1", "--lambda", "3.5").stdout)
        assert not any(rec["name"].startswith("lieb") for rec in doc["records"])
        assert [item["name"] for item in doc["dominance"]] == ["theorem2_vs_frank_lieb_diagonal"]

    def test_json_roundtrip(self):
        proc = run_cli("constants", "--n", "2", "--lambda", "1.3")
        doc = json.loads(proc.stdout)
        assert json.loads(json.dumps(doc)) == doc

    def test_out_file(self, tmp_path):
        out = tmp_path / "c.json"
        run_cli("constants", "--n", "1", "--lambda", "2", "--out", str(out))
        doc = json.loads(out.read_text())
        assert doc["command"] == "constants"

    def test_both_variants_reported(self):
        proc = run_cli("constants", "--n", "1", "--lambda", "2", "--N", "3")
        doc = json.loads(proc.stdout)
        names = {rec["name"] for rec in doc["records"]}
        assert "lieb_diagonal_constant[standard]" in names
        assert "lieb_diagonal_constant[paper]" in names
        assert doc["default_lieb_variant"] == "standard"

    @pytest.mark.parametrize("extra", [[], ["--N", "5"]])
    def test_dominance_entries_are_the_record_values(self, tmp_path, extra):
        out = tmp_path / "c.json"
        assert cli.main(["constants", "--n", "1", "--lambda", "2", *extra, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        values = {rec["name"]: rec["value"] for rec in doc["records"]}
        lieb = f"lieb_diagonal_constant[{doc['default_lieb_variant']}]"
        expected = {
            "theorem2_vs_frank_lieb_diagonal": ("theorem2_upper_bound", "frank_lieb_constant"),
            "lieb_loss_vs_diagonal": ("lieb_loss_upper_bound", lieb),
        }
        assert [item["name"] for item in doc["dominance"]] == list(expected)
        for item in doc["dominance"]:
            upper, sharp = expected[item["name"]]
            assert item["upper"] == values[upper]
            assert item["sharp"] == values[sharp]


class TestEvaluateCommand:
    def test_extremal_preset_quotient(self):
        proc = run_cli("evaluate", "--n", "1", "--lambda", "2", "--preset", "H", *SMALL_GRID)
        doc = json.loads(proc.stdout)
        assert doc["result"]["quotient"] == pytest.approx(4.0, rel=0.05)
        assert doc["result"]["energy_over_norm_r_sq"] == pytest.approx(4.0, rel=0.05)

    def test_zero_input_rejected(self, tmp_path):
        path = tmp_path / "zero.npz"
        rho = np.geomspace(5e-3, 25.0, 24)
        t = np.linspace(-25.0, 25.0, 48)
        np.savez(path, rho_nodes=rho, t_nodes=t, values=np.zeros((24, 48)))
        proc = run_cli(
            "evaluate", "--n", "1", "--lambda", "2", "--input", str(path), check=False
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "rho, t, message",
        [
            (np.linspace(5e-3, 25.0, 24), np.linspace(-25.0, 25.0, 48), "rho_nodes differ"),
            (np.geomspace(5e-3, 25.0, 24), np.linspace(0.0, 5.0, 48), "t_nodes differ"),
            (np.zeros(0), np.linspace(-25.0, 25.0, 48), "4 or more nodes"),
        ],
        ids=["linear-rho", "t-0-to-5", "empty-rho"],
    )
    def test_input_nodes_off_the_grid_rejected(self, tmp_path, rho, t, message):
        # weights and kernel table are built from the grid the endpoints
        # define, so other nodes would be silently reinterpreted
        path = tmp_path / "f.npz"
        values = np.exp(-(rho[:, None] ** 2) - t[None, :] ** 2)
        np.savez(path, rho_nodes=rho, t_nodes=t, values=values)
        proc = run_cli(
            "evaluate", "--n", "1", "--lambda", "2", "--input", str(path), check=False
        )
        assert proc.returncode == 2
        assert message in proc.stderr

    def test_unreadable_input_exit_3(self):
        proc = run_cli(
            "evaluate", "--n", "1", "--lambda", "2", "--input", "/nonexistent/f.npz",
            check=False,
        )
        assert proc.returncode == 3

    def test_non_finite_weights_name_lambda(self, tmp_path):
        out = tmp_path / "never.json"
        proc = run_cli(
            "evaluate", "--lambda", "3.99", "--grid-rho", "16", "--grid-t", "32",
            "--rho-min", "0.02", "--rho-max", "20", "--t-max", "20", "--out", str(out),
            check=False,
        )
        assert proc.returncode == 2
        assert "non-finite quadrature weights at lambda = 3.99" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    def test_no_partial_output_on_validation_failure(self, tmp_path):
        out = tmp_path / "never.json"
        proc = run_cli(
            "evaluate", "--n", "1", "--lambda", "7", "--out", str(out), check=False
        )
        assert proc.returncode == 2
        assert not out.exists()

    def test_deterministic_path_needs_n_1(self, tmp_path):
        out = tmp_path / "never.json"
        proc = run_cli("evaluate", "--n", "2", "--out", str(out), check=False)
        assert proc.returncode == 2
        assert "deterministic path requires n = 1" in proc.stderr
        assert not out.exists()

    def test_mc_mode_general_n(self):
        proc = run_cli(
            "evaluate", "--n", "2", "--lambda", "3", "--mc", "--preset", "H",
            "--samples", "50000", "--seed", "1",
        )
        doc = json.loads(proc.stdout)
        assert doc["mode"] == "monte-carlo"
        assert doc["result"]["energy"] > 0
        assert doc["result"]["stderr"] > 0

    def test_mc_bits_are_the_single_stream_estimate(self, tmp_path):
        out = tmp_path / "e.json"
        argv = ["evaluate", "--mc", "--n", "2", "--lambda", "3", "--samples", "2000", "--seed", "0"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        func = montecarlo.heisenberg_extremal_callable(2, 3.0)
        est, se = montecarlo.mc_bilinear_energy(func, func, 3.0, n=2, samples=2000, seed=0, workers=1)
        result = json.loads(out.read_text())["result"]
        assert (result["energy"], result["stderr"]) == (est, se)

    def test_input_with_refine_rejected_before_evaluation(self, tmp_path, monkeypatch):
        def never(*_args):
            raise AssertionError("evaluated before the flags were checked")

        monkeypatch.setattr(cli, "bilinear_energy", never)
        f = extremal.extremal_H(1, 2.0, grids.GridSpec(n_rho=8, n_t=8))
        path = tmp_path / "f.npz"
        np.savez(path, rho_nodes=f.rho_nodes, t_nodes=f.t_nodes, values=f.values)
        assert exits_2(["evaluate", "--input", str(path), "--refine", "1"], tmp_path / "never.json")

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["evaluate", "--rho-max", "inf", "--grid-rho", "8", "--grid-t", "8"], "rho_max"),
            (["evaluate", "--t-max", "inf"], "t_max"),
            (["maximize", "--rho-max", "inf"], "rho_max"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_infinite_grid_bound_named(self, tmp_path, argv, field):
        out = tmp_path / "never.json"
        proc = run_cli(*argv, "--out", str(out), check=False)
        assert proc.returncode == 2
        assert f"{field} must be finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag, field", [("--rho-max", "rho_max"), ("--t-max", "t_max")])
    def test_overflowing_grid_bound_named(self, tmp_path, flag, field):
        # 4 rho^2 rho'^2 at the outer rho cell edge (10^83.8), or tau^2 at
        # 2 t_max + dt, overflows: one error line naming the field, no warning
        out = tmp_path / "never.json"
        proc = run_cli(
            "evaluate", "--n", "1", "--lambda", "3", "--grid-rho", "8", "--grid-t", "8",
            flag, "1e78" if field == "rho_max" else "1e160", "--out", str(out), check=False,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"{field} = ") and "is too large" in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_nonconvergence_reports_false_exit_zero(self, tmp_path):
        out = tmp_path / "s.json"
        proc = run_cli(
            "maximize", "--n", "1", "--lambda", "2", "--init", "gauss",
            "--max-iter", "2", "--out", str(out), *SMALL_GRID,
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is False

    def test_refinement_ladder(self, tmp_path):
        # half-default grid: coarser grids can sit where the signed error
        # changes sign, which would make the ladder non-monotone
        csv_path = tmp_path / "ladder.csv"
        proc = run_cli(
            "evaluate", "--n", "1", "--lambda", "2", "--preset", "H",
            "--refine", "1", "--ladder-out", str(csv_path),
            "--grid-rho", "32", "--grid-t", "64",
        )
        doc = json.loads(proc.stdout)
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert "quotient_error" in header
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        errs = [float(r["quotient_error"]) for r in rows]
        assert len(errs) == 2
        assert errs[1] < errs[0]  # refinement reduces the error
        # row 0 is the JSON result, bit for bit, quotient_error included
        row0 = {k: float(v) for k, v in rows[0].items() if k not in ("level", "n_rho", "n_t")}
        assert row0 == {k: v for k, v in doc["result"].items() if k != "h_quotient"}

    def test_refinement_reference_off_the_diagonal(self, tmp_path):
        # preset H has the closed-form quotient as its reference at every p
        out = tmp_path / "e.json"
        argv = ["evaluate", "--n", "1", "--lambda", "2", "--p", "1.6", "--refine", "1"]
        assert cli.main([*argv, "--grid-rho", "32", "--grid-t", "64", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        reference = h_quotient(1, 2.0, 1.6)
        assert doc["refinement_reference"] == reference
        assert len(doc["ladder"]) == 2
        for row in doc["ladder"]:
            assert row["quotient_error"] == abs(row["quotient"] - reference)

    def test_quotient_error_without_refine(self, tmp_path):
        # at p = 1.05 a large share of |I H|^q lies beyond the box, which
        # the far-field term restores (the grid sum alone was 25.6% low);
        # the result itself must say how far the grid value is from the
        # exact one
        out = tmp_path / "e.json"
        argv = ["evaluate", "--n", "1", "--lambda", "2", "--p", "1.05", *SMALL_GRID]
        assert cli.main([*argv, "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["h_quotient"] == h_quotient(1, 2.0, 1.05)
        assert result["quotient_error"] == abs(result["quotient"] - result["h_quotient"])
        assert 0.0 < result["quotient_error"] < 0.01 * result["h_quotient"]

    def test_no_reference_without_preset_H(self, tmp_path):
        # with --input there is no preset, and the profile is the file's
        path = tmp_path / "f.npz"
        rho = np.geomspace(5e-3, 25.0, 24)
        t = np.linspace(-25.0, 25.0, 48)
        np.savez(path, rho_nodes=rho, t_nodes=t, values=np.exp(-np.add.outer(rho ** 2, t ** 2)))
        for source in (["--preset", "gauss", *SMALL_GRID], ["--input", str(path)]):
            out = tmp_path / "e.json"
            argv = ["evaluate", "--n", "1", "--lambda", "2", *source]
            assert cli.main([*argv, "--out", str(out)]) == 0
            result = json.loads(out.read_text())["result"]
            assert "h_quotient" not in result and "quotient_error" not in result

    def test_two_table_applies_per_grid_level(self, monkeypatch, tmp_path):
        # one for the energy of f with itself, one for the quotient
        calls = []
        apply = quadrature.KernelTable.apply

        def counted(table, values):
            calls.append(values.shape)
            return apply(table, values)

        monkeypatch.setattr(quadrature.KernelTable, "apply", counted)
        argv = ["evaluate", "--n", "1", "--lambda", "2", *SMALL_GRID, "--out", str(tmp_path / "e.json")]
        assert cli.main(argv) == 0
        assert len(calls) == 2
        assert cli.main([*argv, "--refine", "1"]) == 0
        assert len(calls) == 2 + 4


class TestMaximizeCommand:
    def test_summary_and_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        out = tmp_path / "summary.json"
        run_cli(
            "maximize", "--n", "1", "--lambda", "2", "--init", "hperturb",
            "--max-iter", "40", "--trace", str(trace), "--out", str(out), *SMALL_GRID,
        )
        doc = json.loads(out.read_text())
        assert doc["quotient"] == pytest.approx(4.0, rel=0.05)
        assert doc["converged"] is True
        assert doc["stop_reason"] == "stall"
        # the 24x48 grid is deliberately coarse; the tight 5% alignment
        # criterion is exercised at the default grid in the acceptance suite
        assert doc["alignment"]["rel_error"] < 0.2
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,quotient,t_mean,log_radius,dilation,t_shift,accepted"
        quotients = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a for a, b in zip(quotients, quotients[1:]))

    def test_deterministic_outputs(self, tmp_path):
        # byte-identical outputs require an identical config, including the
        # output paths recorded in the summary: run in two separate cwds
        args = [
            "maximize", "--n", "1", "--lambda", "2", "--init", "gauss",
            "--max-iter", "12", *SMALL_GRID,
            "--trace", "trace.csv", "--out", "summary.json",
        ]
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        d1.mkdir(), d2.mkdir()
        for d in (d1, d2):
            proc = run_cli(*args, check=False, cwd=d)
            assert proc.returncode == 0, proc.stderr
        assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()

    @pytest.mark.parametrize(
        "argv", [["--max-iter", "-5"], ["--rtol", "-1"], ["--rtol", "nan"]], ids=" ".join
    )
    def test_bad_search_controls_exit_2(self, tmp_path, argv):
        assert exits_2(["maximize", *SMALL_GRID, *argv], tmp_path / "never.json")

    def test_coarse_t_spacing_searches(self, tmp_path):
        # on 24x32 with t_max 50 (dt = 3.23) the t cells are wider than the
        # unit ball; the moment gauge needs no ball and searches on: 19
        # iterations to a stall at 3.87337, a finite quotient and exit 0
        out = tmp_path / "coarse.json"
        proc = run_cli(
            "maximize", "--grid-rho", "24", "--grid-t", "32", "--out", str(out), check=False,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert math.isfinite(doc["quotient"]) and doc["quotient"] > 0.0
        assert doc["stop_reason"] == "stall"

    def test_search_above_the_diagonal_runs_at_the_dual(self, tmp_path):
        # p = 1.85 at lambda = 2 is searched at its dual p* = r: the summary
        # names both tuples and prints p*'s quotient, alignment and trace
        docs, traces = {}, {}
        for p in ("1.85", "1.0422535211267605"):
            proc = run_cli(
                "maximize", "--p", p, *SMALL_GRID, "--trace", str(tmp_path / f"{p}.csv")
            )
            docs[p], traces[p] = json.loads(proc.stdout), (tmp_path / f"{p}.csv").read_bytes()
        folded, dual = docs["1.85"], docs["1.0422535211267605"]
        assert folded["quotient"] == dual["quotient"]
        assert folded["alignment"] == dual["alignment"]
        assert traces["1.85"] == traces["1.0422535211267605"]
        assert (folded["params"]["p"], folded["params"]["searched_p"]) == (1.85, dual["params"]["p"])
        assert folded["params"]["searched_q"] == dual["params"]["q"]
        assert "searched_p" not in dual["params"] and "searched_q" not in dual["params"]

    def test_grid_too_coarse_for_the_gauge_names_the_dilation(self, tmp_path):
        # on 8x8 the moment gauge dilates the Gaussian start by d = 0.373; its
        # nearest t nodes (+-7.14) then query t = 51.3 beyond t_max = 50, so
        # the resample holds no nonzero node: one error line naming d
        out = tmp_path / "never.json"
        proc = run_cli("maximize", "--grid-rho", "8", "--grid-t", "8", "--out", str(out), check=False)
        assert proc.returncode == 2
        assert proc.stderr.startswith("the moment gauge's dilation by d = 0.37")
        assert "leaves no nonzero node on the grid" in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_search_needs_n_1(self, tmp_path):
        out = tmp_path / "never.json"
        proc = run_cli("maximize", "--n", "2", "--out", str(out), check=False)
        assert proc.returncode == 2
        assert "deterministic path requires n = 1" in proc.stderr
        assert not out.exists()


class TestClassifyCommand:
    def test_spread_vanishing(self):
        proc = run_cli("classify", "--generator", "spread", "--length", "10", "--seed", "0")
        doc = json.loads(proc.stdout)
        assert doc["verdict"]["kind"] == "vanishing"

    def test_translate_compactness(self):
        proc = run_cli("classify", "--generator", "translate", "--length", "10", "--seed", "1")
        doc = json.loads(proc.stdout)
        assert doc["verdict"]["kind"] == "compactness"
        assert doc["verdict"]["centers"]

    def test_split_dichotomy_k(self):
        proc = run_cli(
            "classify", "--generator", "split", "--length", "10", "--k", "0.3", "--seed", "2"
        )
        doc = json.loads(proc.stdout)
        assert doc["verdict"]["kind"] == "dichotomy"
        assert 0.25 <= doc["verdict"]["k"] <= 0.35
        assert len(doc["profile"]["R"]) == len(doc["profile"]["Q"])

    def test_measure_files(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = []
        for j in range(1, 4):
            pts = rng.standard_normal((50, 3)).tolist()
            doc = {"n": 1, "points": pts, "masses": [1.0 / 50] * 50}
            p = tmp_path / f"m{j}.json"
            p.write_text(json.dumps(doc))
            paths.append(str(p))
        proc = run_cli("classify", "--inputs", *paths)
        doc = json.loads(proc.stdout)
        assert doc["verdict"]["kind"] == "compactness"
        # the same list from a config file, whitespace separated
        cfg = tmp_path / "run.cfg"
        cfg.write_text("inputs = " + " ".join(paths) + "\n")
        proc = run_cli("classify", "--config", str(cfg))
        assert json.loads(proc.stdout) == doc

    def test_malformed_measure_file_exit_3(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        proc = run_cli("classify", "--inputs", str(p), check=False)
        assert proc.returncode == 3

    def test_ragged_points_exit_3(self, tmp_path):
        # a points list numpy cannot turn into an array is malformed
        p = tmp_path / "m.json"
        ragged = [[0.0, 0.0, 0.0], [1.0, 2.0]]
        p.write_text(json.dumps({"n": 1, "points": ragged, "masses": [0.5, 0.5]}))
        proc = run_cli("classify", "--inputs", str(p), str(p), str(p), check=False)
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"malformed measure file {p}")

    def test_negative_mass_in_measure_file_exit_2(self, tmp_path, capsys):
        # arrays that fail DiscreteMeasure's own checks are validation failures
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": 1, "points": [[0.0, 0.0, 0.0]], "masses": [-1.0]}))
        assert exits_2(["classify", "--inputs", str(p)], tmp_path / "never.json")
        assert "masses must be nonnegative" in capsys.readouterr().err

    def test_non_integer_n_in_measure_file_exit_2(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": 1.5, "points": [[0.0, 0.0, 0.0]], "masses": [1.0]}))
        assert exits_2(["classify", "--inputs", str(p)], tmp_path / "never.json")

    def test_empty_measure_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"n": 1, "points": [], "masses": []}))
        assert exits_2(["classify", "--inputs", str(p)], tmp_path / "never.json")
        assert "at least one atom" in capsys.readouterr().err

    def test_bad_generator_exit_2(self):
        proc = run_cli("classify", "--generator", "oscillate", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("eps", ["0", "-0.1", "0.5", "nan"])
    def test_eps_outside_open_half_interval_exit_2(self, tmp_path, eps):
        argv = ["classify", "--generator", "translate", "--length", "3", "--eps", eps]
        assert exits_2(argv, tmp_path / "never.json")


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 5.0\nn = 1\n")
        # config alone: lambda 5 -> validation failure
        proc = run_cli("constants", "--config", str(cfg), check=False)
        assert proc.returncode == 2
        # flag overrides the file value
        for flag in (["--lambda", "2"], ["--lambda=2"]):
            proc = run_cli("constants", "--config", str(cfg), *flag)
            doc = json.loads(proc.stdout)
            values = {rec["name"]: rec["value"] for rec in doc["records"]}
            assert values["frank_lieb_constant"] == pytest.approx(4.0, rel=1e-12)
        # in-process calls: the flag wins whatever sys.argv holds
        from heisenberg_hls.cli import main

        out = tmp_path / "c.json"
        assert main(["constants", "--config", str(cfg), "--lambda=2", "--out", str(out)]) == 0
        values = {rec["name"]: rec["value"] for rec in json.loads(out.read_text())["records"]}
        assert values["frank_lieb_constant"] == pytest.approx(4.0, rel=1e-12)
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2

    def test_missing_config_exit_3(self):
        proc = run_cli("constants", "--config", "/nope.cfg", check=False)
        assert proc.returncode == 3

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lamda = 3\n")
        out = tmp_path / "c.json"
        proc = run_cli("constants", "--config", str(cfg), "--out", str(out), check=False)
        assert proc.returncode == 2
        assert "--lamda" in proc.stderr
        assert not out.exists()

    def test_switch_key(self, tmp_path):
        # `mc = true` is the bare switch --mc, `mc = false` drops it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mc = true\nn = 2\nsamples = 2000\nlambda = 3\n")
        out = tmp_path / "e.json"
        assert cli.main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "monte-carlo"
        assert doc["params"] == {"n": 2, "lambda": 3.0, "samples": 2000, "seed": 0}
        cfg.write_text("mc = false\nsamples = 2000\n")
        assert exits_2(["evaluate", "--config", str(cfg)], tmp_path / "never.json")


def exits_2(argv, out):
    """argv (with --out out appended) exits 2 and writes nothing."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(out)])
    return exc.value.code == 2 and not out.exists()


class TestEverySettingIsRead:
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--seed", "1"],
            ["constants", "--workers", "2"],
            ["constants", "--samples", "5000"],
            ["maximize", "--seed", "1"],
            ["maximize", "--workers", "2"],
            ["maximize", "--samples", "5000"],
            ["classify", "--lambda", "2"],
            ["classify", "--p", "1.6"],
            ["classify", "--r", "1.2"],
            ["classify", "--s", "2"],
            ["classify", "--workers", "2"],
            ["classify", "--samples", "5000"],
            # r follows from s = p, and the MC draws from --samples and --seed
            ["constants", "--r", "1.2"],
            ["constants", "--s", "1.6"],
            ["evaluate", "--r", "1.1428571428571428"],
            ["evaluate", "--s", "1.6"],
            ["evaluate", "--mc", "--workers", "2"],
            ["maximize", "--r", "1.1428571428571428"],
            ["maximize", "--s", "1.6"],
            ["evaluate", "--preset", "zero"],
            ["evaluate", "--mc", "--preset", "zero"],
        ],
        ids=" ".join,
    )
    def test_removed_flag_exit_2(self, tmp_path, argv):
        assert exits_2(argv, tmp_path / "never.json")

    @pytest.mark.parametrize(
        "command, line",
        [
            ("constants", "r = 1.2"),
            ("constants", "s = 1.6"),
            ("evaluate", "r = 1.1428571428571428"),
            ("evaluate", "s = 1.6"),
            ("evaluate", "workers = 2"),
            ("maximize", "s = 1.6"),
        ],
        ids=" ".join,
    )
    def test_removed_config_key_exit_2(self, tmp_path, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert exits_2([command, "--config", str(cfg)], tmp_path / "never.json")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mc", "--p", "1.6"],
            ["--mc", "--r", "1.1428571428571428", "--s", "1.6"],
            ["--mc", "--grid-rho", "24"],
            ["--mc", "--t-max", "25"],
            ["--mc", "--refine", "1"],
            ["--mc", "--ladder-out", "l.csv"],
            ["--mc", "--input", "f.npz"],
            ["--samples", "5000"],
            ["--seed", "1"],
            ["--workers", "2"],
            ["--ladder-out", "l.csv"],
            ["--refine", "0", "--ladder-out", "l.csv"],
            ["--refine", "-1"],
            ["--p", "1.6", "--r", "1.1428571428571428", "--s", "1.6"],
            # the file gives the profile and its grid: exit 2 before the
            # absent f.npz is opened, which would exit 3
            ["--input", "f.npz", "--preset", "gauss"],
            ["--input", "f.npz", "--preset", "H"],
            ["--input", "f.npz", "--grid-rho", "99"],
            ["--input", "f.npz", "--t-max", "25"],
        ],
        ids=" ".join,
    )
    def test_evaluate_mode_flags_exit_2(self, tmp_path, argv):
        assert exits_2(["evaluate", "--n", "1", "--lambda", "2", *argv], tmp_path / "never.json")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--inputs", "m.json", "--n", "1"],
            ["--inputs", "m.json", "--generator", "split"],
            ["--inputs", "m.json", "--length", "5"],
            ["--inputs", "m.json", "--k", "0.3"],
            ["--inputs", "m.json", "--seed", "1"],
            ["--k", "0.3"],
            ["--generator", "translate", "--k", "0.3"],
        ],
        ids=" ".join,
    )
    def test_classify_mode_flags_exit_2(self, tmp_path, argv):
        assert exits_2(["classify", *argv], tmp_path / "never.json")

    def test_constants_p_is_honoured(self):
        proc = run_cli("constants", "--n", "1", "--lambda", "2", "--p", "1.6")
        doc = json.loads(proc.stdout)
        rec = next(r for r in doc["records"] if r["name"] == "theorem2_upper_bound")
        params = derive_conjugates(1, 2.0, 1.6)
        assert (rec["params"]["r"], rec["params"]["s"]) == (params.r, params.s)
        assert rec["value"] == theorem2_upper_bound(1, 2.0, params.r, params.s)
        assert rec["value"] == pytest.approx(7.66498, abs=1e-5)

    def test_classify_n_is_honoured(self, tmp_path):
        out = tmp_path / "c.json"
        argv = ["classify", "--n", "2", "--generator", "translate", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"]["kind"] == "compactness"
        assert {len(c) for c in doc["verdict"]["centers"]} == {5}


def test_profile_names_build_the_library_profiles():
    """Each --preset and --init name builds its library profile, on the
    grid and, where it has one, as a point callable."""
    parser = cli.build_parser()
    for command, flag, names in (
        ("evaluate", "--preset", ("H", "ball", "gauss")),
        ("maximize", "--init", ("H", "hperturb", "gauss")),
    ):
        for name in names:
            assert name in cli.PROFILES
            parser.parse_args([command, flag, name])
    spec = grids.GridSpec(n=2, n_rho=8, n_t=10)
    grid = {
        "H": extremal.extremal_H(2, 3.0, spec),
        "ball": grids.ball_indicator(spec),
        "gauss": extremal.gaussian_profile(spec),
        "hperturb": extremal.perturbed_H(2, 3.0, spec),
    }
    pts = np.random.default_rng(0).standard_normal((50, 5))
    point = {
        "H": montecarlo.heisenberg_extremal_callable(2, 3.0)(pts),
        "ball": montecarlo.ball_indicator_callable(2)(pts),
        "gauss": np.exp(-np.sum(pts * pts, axis=1)),
    }
    for name, (grid_form, point_form) in cli.PROFILES.items():
        assert np.array_equal(grid_form(spec, 3.0).values, grid[name].values), name
        if name in point:
            np.testing.assert_allclose(point_form(2, 3.0)(pts), point[name], rtol=1e-13, err_msg=name)
        else:
            assert point_form is None, name


def test_readme_command_lines_parse():
    """Every `heisenberg-hls ...` line of README's Command line block parses
    with the real parser, so the documented flags cannot drift from it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("heisenberg-hls ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.func is getattr(cli, f"cmd_{args.command}")


def test_readme_flag_table_matches_the_parser():
    """The flags of README's Command line table, with --out, --config and,
    where the row names them, the grid flags, are each subcommand's options."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    grid_flags = re.search(r"The grid flags are `([^`]*)`", section).group(1).split()
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(name for name, _ in rows) == sorted(subparsers.choices)
    for name, cell in rows:
        listed = {"--out", "--config", *" ".join(re.findall(r"`([^`]*)`", cell)).split()}
        if "the grid flags" in cell:
            listed.update(grid_flags)
        options = {opt for a in subparsers.choices[name]._actions for opt in a.option_strings}
        assert listed == options - {"-h", "--help"}, name
