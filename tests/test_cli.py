import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sysmean
from sysmean import (
    EstimatorSpec,
    FamilyParams,
    SystematicDesign,
    compute_moments,
    derived_constants,
    load_population,
)
from sysmean import cli
from sysmean.cli import build_parser, main
from sysmean.datasets import file_sha256
from sysmean.theory import classical_mse


@pytest.fixture
def pop_csv(tmp_path):
    path = tmp_path / "pop.csv"
    code = main(["synthesize", "--units", "240", "--rho", "0.9", "--seed", "28",
                 "--out", str(path)])
    assert code == 0
    return path


def run_sysmean(*argv: str, stdin: bytes = b"") -> subprocess.CompletedProcess:
    """Run this sysmean's CLI in a child process whose stdin and stdout are pipes."""
    path = [str(Path(sysmean.__file__).parents[1])]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    return subprocess.run(
        [sys.executable, "-m", "sysmean.cli", *argv],
        input=stdin, capture_output=True, timeout=30,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin and /dev/stdout")
class TestPipes:
    def test_params_reads_a_pipe_as_its_file(self, pop_csv, tmp_path):
        by_path = run_sysmean("params", str(pop_csv), "--n", "12")
        piped = run_sysmean(
            "params", "/dev/stdin", "--n", "12", "--manifest", str(tmp_path / "m.json"),
            stdin=pop_csv.read_bytes(),
        )
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout == by_path.stdout
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["input"]["sha256"] == file_sha256(pop_csv)

    def test_a_pipe_that_is_not_utf8_exits_2(self):
        piped = run_sysmean("params", "/dev/stdin", "--n", "2", stdin=b"y,x\n1,2\n\xff,3\n")
        assert piped.returncode == 2
        assert b"input is not UTF-8 text" in piped.stderr

    def test_params_reads_and_writes_pipes(self, pop_csv):
        by_path = run_sysmean("params", str(pop_csv), "--n", "12")
        piped = run_sysmean(
            "params", "/dev/stdin", "--n", "12", "--out", "/dev/stdout",
            stdin=pop_csv.read_bytes(),
        )
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout == by_path.stdout
        assert json.loads(piped.stderr)["input"]["sha256"] == file_sha256(pop_csv)

    def test_synthesize_writes_a_pipe_and_hashes_what_it_wrote(self, tmp_path):
        manifest_path = tmp_path / "m.json"
        written = run_sysmean(
            "synthesize", "--units", "24", "--seed", "1", "--out", "/dev/stdout",
            "--manifest", str(manifest_path),
        )
        assert written.returncode == 0, written.stderr
        manifest = json.loads(manifest_path.read_text())
        assert manifest["parameters"]["output_sha256"] == hashlib.sha256(written.stdout).hexdigest()
        main(["synthesize", "--units", "24", "--seed", "1", "--out", str(tmp_path / "pop.csv")])
        assert written.stdout == (tmp_path / "pop.csv").read_bytes()


class TestSynthesize:
    def test_writes_csv_and_manifest(self, pop_csv):
        pop = load_population(pop_csv)
        assert pop.N == 240
        manifest = json.loads((pop_csv.parent / "pop.csv.manifest.json").read_text())
        assert manifest["command"] == "synthesize"
        assert manifest["parameters"]["output_sha256"] == file_sha256(pop_csv)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synthesize", "--units", "50", "--seed", "4", "--out", str(a)])
        main(["synthesize", "--units", "50", "--seed", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestParams:
    def test_reports_population_parameters(self, pop_csv, capsys):
        code = main(["params", str(pop_csv), "--n", "12", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["N"] == 240
        assert payload["k"] == 20
        assert 0.8 < payload["rho"] < 1.0
        assert payload["s2_y2"] == "unset"

    def test_s2y2_factor(self, pop_csv, capsys):
        main(["params", str(pop_csv), "--n", "12", "--s2y2-factor", "0.75",
              "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["s2_y2"] == pytest.approx(0.75 * payload["s2_y"], rel=1e-12)

    def test_sort_by_changes_intraclass(self, pop_csv, capsys):
        main(["params", str(pop_csv), "--n", "12", "--format", "json"])
        unsorted_payload = json.loads(capsys.readouterr().out)
        main(["params", str(pop_csv), "--n", "12", "--sort-by", "x", "--format", "json"])
        sorted_payload = json.loads(capsys.readouterr().out)
        assert sorted_payload["rho_x"] != unsorted_payload["rho_x"]
        assert sorted_payload["arrangement"] == "sorted by x"

    def test_non_divisor_sample_size_suggests_candidates(self, pop_csv, capsys):
        code = main(["params", str(pop_csv), "--n", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert "nearest valid sample sizes" in captured.err

    def test_full_enumeration_allowed(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        main(["synthesize", "--units", "8", "--seed", "1", "--out", str(path)])
        capsys.readouterr()
        code = main(["params", str(path), "--n", "8", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["k"] == 1

    def test_checksum_gate(self, pop_csv, capsys):
        good = file_sha256(pop_csv)
        assert main(["params", str(pop_csv), "--n", "12", "--expect-sha256", good]) == 0
        capsys.readouterr()
        assert main(["params", str(pop_csv), "--n", "12", "--expect-sha256", "0" * 64]) == 2
        assert "checksum mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("rewrite", ["append", "replace"])
    def test_an_input_rewritten_between_hash_and_parse_is_refused(
        self, pop_csv, tmp_path, capsys, monkeypatch, rewrite
    ):
        # The hash read and the parse read must see the same file: a blank row
        # appended parses the same but hashes differently, and a file put in
        # its place by rename has the same bytes but another inode.
        good = file_sha256(pop_csv)

        def hash_then_rewrite(path):
            digest = file_sha256(path)
            if rewrite == "append":
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write("\n")
            else:
                copy = tmp_path / "copy.csv"
                shutil.copyfile(path, copy)
                os.replace(copy, path)
            return digest

        monkeypatch.setattr("sysmean.cli.file_sha256", hash_then_rewrite)
        argv = ["params", str(pop_csv), "--n", "12", "--expect-sha256", good]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"input {str(pop_csv)!r} changed while it was read" in captured.err
        assert captured.out == ""
        monkeypatch.setattr("sysmean.cli.file_sha256", file_sha256)
        assert main(argv) == (0 if rewrite == "replace" else 2)

    @pytest.mark.parametrize("scale, message", [
        (1e202, "the mean square of y overflows"),
        (1e-198, "the mean square of y underflows to 0"),
    ])
    def test_an_unrepresentable_mean_square_is_usage_error(self, tmp_path, capsys, scale,
                                                           message):
        path = tmp_path / "scaled.csv"
        rows = [f"{scale * (1.0 + i / 1000.0)!r},{1.0 + i}" for i in range(240)]
        path.write_text("y,x\n" + "\n".join(rows) + "\n")
        code = main(["params", str(path), "--n", "12"])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err and "Warning" not in captured.err

    def test_missing_column_is_usage_error(self, pop_csv, capsys):
        code = main(["params", str(pop_csv), "--n", "12", "--y-col", "volume"])
        assert code == 2
        assert "volume" in capsys.readouterr().err


FOREST_MOMENTS = [
    "--pop-size", "176", "--n", "16",
    "--mean-y", "282.6136", "--mean-x", "6.9943",
    "--s2-y", "24114.67", "--s2-x", "8.76",
    "--rho", "0.8710", "--rho-w", "0.8710", "--s2-y2", "18086.0025",
]
EXPLICIT_MOMENT_OPTIONS = [
    "--pop-size", "--mean-y", "--mean-x", "--s2-y", "--s2-x", "--rho",
    "--rho-w", "--rho-y", "--rho-x", "--s2-y2",
]


class TestTheoryTable:
    def test_explicit_moments_table(self, capsys):
        code = main(["theory-table", *FOREST_MOMENTS, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["rows"]) == 16
        first = payload["rows"][0]
        assert first["w2"] == 0.1 and first["ell"] == 2.0
        assert first["pre"] == pytest.approx(407.48836439078315, rel=1e-12)

    def test_rows_ordered_w2_major(self, capsys):
        main(["theory-table", *FOREST_MOMENTS, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        keys = [(row["w2"], row["ell"]) for row in payload["rows"]]
        assert keys == sorted(keys)

    def test_csv_round_trips_json_values(self, capsys):
        main(["theory-table", *FOREST_MOMENTS, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        main(["theory-table", *FOREST_MOMENTS, "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "w2,ell,var_hh_mean,mse_family_min,pre"
        for row, line in zip(payload["rows"], lines[1:]):
            cells = [float(tok) for tok in line.split(",")]
            assert cells == [row["w2"], row["ell"], row["var_hh_mean"],
                             row["mse_family_min"], row["pre"]]

    def test_human_table_prints_pre_to_two_decimals(self, capsys):
        main(["theory-table", *FOREST_MOMENTS])
        out = capsys.readouterr().out
        assert "407.49" in out  # full-precision 407.488... rounded to 2 decimals

    def test_table_columns_widen_to_their_widest_cell(self, capsys):
        main(["theory-table", *FOREST_MOMENTS, "--ell-grid", "2,1e9"])
        lines = capsys.readouterr().out.splitlines()[1:]
        # every column is right-aligned, so each cell ends where its heading ends
        ends = [{match.end() for match in re.finditer(r"\S+", line)} for line in lines]
        assert all(row == ends[1] for row in ends[1:])
        assert ends[1] <= ends[0]

    @pytest.mark.parametrize("grid, printed", [
        ("0.1,0.2,0.3", ["0.10", "0.20", "0.30"]),
        ("0,0.001,0.999", ["0.000", "0.001", "0.999"]),
        ("0.25,0.25", ["0.25", "0.25"]),
        ("1e-20,2e-20", ["0.00000000000000000001", "0.00000000000000000002"]),
    ])
    def test_table_axis_tells_every_grid_value_apart(self, capsys, grid, printed):
        main(["theory-table", *FOREST_MOMENTS, "--w2-grid", grid, "--ell-grid", "2"])
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == printed

    def test_w2_zero_rows_do_not_depend_on_ell(self, capsys):
        main(["theory-table", *FOREST_MOMENTS, "--w2-grid", "0",
              "--ell-grid", "2,3,4", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        pres = {row["pre"] for row in payload["rows"]}
        assert len(pres) == 1

    def test_uncorrelated_auxiliary_gives_pre_100(self, capsys):
        args = list(FOREST_MOMENTS)
        args[args.index("--rho") + 1] = "0.0"
        main(["theory-table", *args, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        for row in payload["rows"]:
            assert row["pre"] == pytest.approx(100.0, abs=1e-9)

    def test_file_route_uses_computed_moments(self, pop_csv, capsys):
        code = main(["theory-table", str(pop_csv), "--n", "12", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["N"] == 240
        assert all(row["pre"] >= 100.0 - 1e-9 for row in payload["rows"])

    def test_file_and_moments_conflict(self, pop_csv, capsys):
        code = main(["theory-table", str(pop_csv), *FOREST_MOMENTS])
        assert code == 2

    @pytest.mark.parametrize("options, message", [
        (["--s2-y2", "3", "--rho-y", "0.5"],
         "--rho-y, --s2-y2 apply only to explicit moments, not to an input file"),
        (["--rho-w", "0.5"], "--rho-w applies only to explicit moments"),
        (["--rho-x", "0.5", "--mean-y", "3"], "--mean-y, --rho-x apply only to explicit moments"),
        *(([option, "1"], f"{option} applies only to explicit moments, not to an input file")
          for option in EXPLICIT_MOMENT_OPTIONS),
    ])
    def test_moment_options_with_a_file_are_usage_errors(self, pop_csv, capsys, options,
                                                          message):
        code = main(["theory-table", str(pop_csv), "--n", "12", *options, "--manifest", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_rho_w_sets_both_intraclass_correlations(self, tmp_path, capsys):
        without_rho_w = FOREST_MOMENTS[:-4] + FOREST_MOMENTS[-2:]
        manifest = tmp_path / "run.json"
        main(["theory-table", *FOREST_MOMENTS, "--manifest", str(manifest)])
        by_rho_w = capsys.readouterr().out
        main(["theory-table", *without_rho_w, "--rho-y", "0.8710", "--rho-x", "0.8710"])
        assert capsys.readouterr().out == by_rho_w
        recorded = json.loads(manifest.read_text())
        # The parameters are the options as given; the moments are as resolved.
        assert recorded["parameters"]["rho_w"] == 0.871
        assert recorded["parameters"]["rho_y"] is None
        assert recorded["parameters"]["moments"]["rho_y"] == 0.871

    @pytest.mark.parametrize("options, message", [
        (["--rho-w", "0.5", "--rho-x", "0.5"], "--rho-w conflicts with --rho-y/--rho-x"),
        (["--rho-y", "0.5"], "provide --rho-w, or both --rho-y and --rho-x"),
        (["--rho-w", "0.5", "--s2-y2", "1", "--s2y2-factor", "0.5"],
         "--s2-y2 conflicts with --s2y2-factor"),
    ])
    def test_conflicting_moment_options_are_usage_errors(self, capsys, options, message):
        argv = ["theory-table", "--pop-size", "176", "--n", "16", "--mean-y", "1",
                "--mean-x", "1", "--s2-y", "1", "--s2-x", "1", "--rho", "0.5", *options]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"sysmean: error: {message}\n"

    def test_the_explicit_moments_group_offers_its_options(self):
        parser = build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        table = commands.choices["theory-table"]
        (group,) = (g for g in table._action_groups if g.title.startswith("explicit moments"))
        offered = [s for action in group._group_actions for s in action.option_strings]
        assert sorted(offered) == sorted(EXPLICIT_MOMENT_OPTIONS)

    @pytest.mark.parametrize("options, message", [
        (["--expect-sha256", "deadbeef"], "--expect-sha256 applies only to an input file"),
        (["--sort-by", "x"], "--sort-by applies only to an input file"),
    ])
    def test_file_options_with_explicit_moments_are_usage_errors(self, capsys, options,
                                                                  message):
        code = main(["theory-table", *FOREST_MOMENTS, *options, "--manifest", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("options, message", [
        # var and min MSE overflow to inf, PRE to nan
        (["--ell-grid", "2,1e308"], "a value overflows"),
        # var and min MSE stay finite, PRE overflows to inf
        (["--s2-y", "1e308"], "a value overflows"),
        (["--g", "1e-310"], "the optimum alpha"),
        # g*lambda underflows to 0; the parent raised ZeroDivisionError
        (["--b", "1e300", "--g", "1e-30"], "the optimum alpha"),
    ])
    def test_a_value_that_overflows_is_usage_error(self, capsys, options, message):
        code = main(["theory-table", *FOREST_MOMENTS, *options, "--manifest", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err and "overflows" in captured.err

    @pytest.mark.parametrize("means", [
        ["--mean-y", "1e200", "--mean-x", "1"],  # mean_y squared
        ["--mean-y", "1e200", "--mean-x", "1e-200"],  # C_x squared
        ["--mean-y", "1e-200", "--mean-x", "1"],  # C_y squared
    ])
    def test_a_square_that_overflows_is_usage_error(self, capsys, means):
        # float ** raises OverflowError where * gives inf
        code = main(["theory-table", "--pop-size", "176", "--n", "16", *means,
                     "--s2-y", "1", "--s2-x", "1", "--rho", "0.5", "--rho-w", "0.1",
                     "--s2-y2", "1", "--manifest", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "a value overflows" in captured.err

    def test_incomplete_moments_rejected(self, capsys):
        code = main(["theory-table", "--n", "16", "--pop-size", "176"])
        assert code == 2

    @pytest.mark.parametrize("n, message", [
        ("15", "n=15 does not divide N=176; nearest valid sample sizes"),
        ("0", "sample size n must be >= 2"),
    ])
    def test_explicit_moments_sample_size_checked_by_design(self, capsys, n, message):
        args = list(FOREST_MOMENTS)
        args[args.index("--n") + 1] = n
        code = main(["theory-table", *args])
        assert code == 2
        assert message in capsys.readouterr().err


class TestSimulate:
    def test_exhaustive_full_response_passes_exactly(self, pop_csv, capsys):
        code = main([
            "simulate", str(pop_csv), "--n", "12", "--w2", "0", "--ell", "1",
            "--estimators", "hh", "--exhaustive", "--replicates", "20",
            "--seed", "5", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["all_pass"] is True
        (comparison,) = payload["comparisons"]
        assert comparison["verdict"] == "PASS"
        assert abs(comparison["z_score"]) < 1e-6

    def test_family_beats_adjusted_mean_on_correlated_population(self, pop_csv, capsys):
        code = main([
            "simulate", str(pop_csv), "--n", "12", "--w2", "0", "--ell", "1",
            "--estimators", "hh,family",
            "--replicates", "4000", "--seed", "17", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        by_label = {r["label"]: r for r in payload["results"]}
        assert by_label["family"]["empirical_mse"] < by_label["hh"]["empirical_mse"]

    def test_byte_identical_reports_for_same_seed(self, pop_csv, tmp_path):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["simulate", str(pop_csv), "--n", "12", "--w2", "0.25", "--ell", "2",
                "--replicates", "300", "--seed", "42"]
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_zero_tolerance_fails_with_exit_code_one(self, pop_csv, capsys):
        code = main([
            "simulate", str(pop_csv), "--n", "12", "--w2", "0.25", "--ell", "2",
            "--replicates", "300", "--seed", "42", "--tolerance-sigma", "0",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_explicit_alpha_policy(self, pop_csv, capsys):
        code = main([
            "simulate", str(pop_csv), "--n", "12", "--w2", "0", "--ell", "1",
            "--estimators", "family", "--alpha", "0.0",
            "--replicates", "200", "--seed", "9", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["alpha"] == 0.0

    def test_alpha_alone_sets_an_explicit_alpha(self, pop_csv, capsys):
        args = ["simulate", str(pop_csv), "--n", "12", "--estimators", "family",
                "--replicates", "50", "--seed", "9", "--format", "json"]
        main([*args, "--alpha", "0.5"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 0.5
        assert payload["comparisons"][0]["target"] == "first-order MSE(family)"
        main(args)
        assert json.loads(capsys.readouterr().out)["comparisons"][0]["target"] == (
            "min MSE(family)"
        )
        assert main([*args, "--alpha-policy", "explicit", "--alpha", "0.5"]) == 2

    def test_alpha_without_family_is_usage_error(self, pop_csv, capsys):
        code = main(["simulate", str(pop_csv), "--n", "12", "--replicates", "10",
                     "--estimators", "hh", "--alpha", "0.5", "--manifest", "-",
                     "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--alpha applies only to the family estimator" in captured.err

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--a", "2"], "--a applies"),
            (["--b", "5"], "--b applies"),
            (["--g", "0.5"], "--g applies"),
            (["--g", "0.5", "--alpha", "0.2", "--a", "3"], "--alpha, --a, --g apply"),
            # An a that FamilyParams would refuse is still refused as given to no family.
            (["--a", "0"], "--a applies"),
        ],
    )
    def test_family_options_without_family_are_usage_errors(
        self, pop_csv, capsys, options, message
    ):
        code = main(["simulate", str(pop_csv), "--n", "12", "--replicates", "10",
                     "--estimators", "hh,ratio,product", *options, "--manifest", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{message} only to the family estimator" in captured.err

    def test_family_options_given_to_the_family_are_recorded(self, pop_csv, tmp_path):
        manifest_path = tmp_path / "sim.json"
        code = main(["simulate", str(pop_csv), "--n", "12", "--replicates", "10",
                     "--estimators", "hh,family", "--b", "5", "--g", "0.5",
                     "--manifest", str(manifest_path)])
        parameters = json.loads(manifest_path.read_text())["parameters"]
        assert code in (0, 1)
        assert (parameters["a"], parameters["b"], parameters["g"]) == (1.0, 5.0, 0.5)

    def test_mistyped_estimator_is_named(self, pop_csv, capsys):
        # "familyx" contains "family", but it is no estimator kind: no alpha is resolved.
        code = main(["simulate", str(pop_csv), "--n", "12", "--replicates", "10",
                     "--estimators", "familyx", "--g", "0"])
        assert code == 2
        assert "unknown estimator kind 'familyx'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, params",
        [("hh", None), ("ratio", FamilyParams(1.0, 1.0)), ("product", FamilyParams(1.0, -1.0))],
    )
    def test_each_preset_name_maps_to_its_params(self, pop_csv, kind, params):
        # --a, --b and --g are given to no family here, so the presets alone decide.
        args = build_parser().parse_args(
            ["simulate", str(pop_csv), "--n", "12", "--estimators", kind]
        )
        pop = load_population(pop_csv)
        design = SystematicDesign(pop.N, 12)
        [row] = cli._estimators(args, compute_moments(pop, design), design, 0.0)
        assert row["spec"] == EstimatorSpec(kind, params)

    @pytest.mark.parametrize("w2", ["-0.1", "1.5", "1e308", "-1e308"])
    def test_out_of_range_w2_is_usage_error(self, pop_csv, capsys, w2):
        code = main(["simulate", str(pop_csv), "--n", "12", "--w2", w2,
                     "--replicates", "10"])
        assert code == 2
        assert "non-response rate w2" in capsys.readouterr().err

    def test_ratio_and_product_targets_ignore_the_family_options(self, pop_csv, capsys):
        # the presets have a = 1, b = 0, so lambda = 1 whatever --a and --b say
        code = main([
            "simulate", str(pop_csv), "--n", "12", "--w2", "0", "--ell", "1",
            "--estimators", "ratio,product,family", "--a", "2", "--b", "5",
            "--replicates", "200", "--seed", "9", "--format", "json",
        ])
        assert code in (0, 1)
        targets = {c["label"]: c["theory_value"] for c in
                   json.loads(capsys.readouterr().out)["comparisons"]}
        pop = load_population(pop_csv)
        design = SystematicDesign(pop.N, 12)
        m = compute_moments(pop, design)
        c = derived_constants(m, 12, pop.N)
        for kind in ("ratio", "product"):
            assert targets[kind] == pytest.approx(
                classical_mse(kind, m, 12, 0.0, 1.0, c), rel=1e-14
            )

    def test_bernoulli_mode_runs(self, pop_csv, capsys):
        code = main([
            "simulate", str(pop_csv), "--n", "12", "--w2", "0.25", "--ell", "2",
            "--stratum-mode", "bernoulli", "--estimators", "hh",
            "--replicates", "2000", "--seed", "3", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)  # stochastic verdict, but it must run and report
        assert payload["results"][0]["n_used"] == 2000

    def test_replicates_beyond_one_word_spawn_keys_is_usage_error(
        self, pop_csv, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran the replicates")

        monkeypatch.setattr("sysmean.cli.run_simulation", refuse)
        tracemalloc.start()
        try:
            code = main(["simulate", str(pop_csv), "--n", "12", "--replicates", "4294967296"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "replicates must be <= 4294967295" in capsys.readouterr().err
        assert peak < 2**22  # ingest takes about 0.2 MB; a byte per replicate would be 4 GB

    def test_theory_domain_error_exits_before_any_replicate(self, pop_csv, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran the replicates")

        # round(0.999 * 240) = 240 puts every unit in the stratum: the theory rate is 1.
        monkeypatch.setattr("sysmean.cli.run_simulation", refuse)
        code = main(["simulate", str(pop_csv), "--n", "12", "--w2", "0.999", "--ell", "2",
                     "--replicates", "20000"])
        assert code == 2
        assert (
            "non-response rate w2=0.999 puts all 240 of 240 units in the non-response "
            "stratum; at least one unit must respond"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize("options, message", [
        (["--estimators", "hh,family", "--alpha", "1e200"],
         "first-order MSE(family) is inf: the first-order theory overflows"),
        (["--w2", "0.2", "--ell", "1e308"],
         "var(hh mean) is inf: the first-order theory overflows"),
        (["--g", "1e-310"], "the optimum alpha rho_star*K/(g*lambda) overflows"),
    ])
    def test_theory_overflow_exits_before_any_replicate(
        self, pop_csv, capsys, monkeypatch, options, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate ran the replicates")

        monkeypatch.setattr("sysmean.cli.run_simulation", refuse)
        code = main(["simulate", str(pop_csv), "--n", "12", "--replicates", "50", *options])
        assert code == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("g", ["20000", "-20000"])
    def test_a_family_power_that_overflows_fails_its_starts(self, tmp_path, capsys, g):
        pop = tmp_path / "pop.csv"
        main(["synthesize", "--units", "240", "--seed", "28", "--out", str(pop)])
        code = main(["simulate", str(pop), "--n", "12", "--replicates", "50",
                     "--estimators", "family", "--alpha", "0.9", "--g", g,
                     "--format", "json"])
        assert code == 1
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert 0 < result["n_failed"] < 50 and not result["valid"]
        # The table writes the huge mean and bias in e notation, not as long integers.
        main(["simulate", str(pop), "--n", "12", "--replicates", "50",
              "--estimators", "family", "--alpha", "0.9", "--g", g, "--out", str(tmp_path / "t")])
        report = (tmp_path / "t").read_text()
        assert re.search(r"^family +\d\.\d{6}e\+\d{3} ", report, re.MULTILINE)
        assert max(map(len, report.splitlines())) < 100


class TestManifestAndRerun:
    def test_manifest_written_next_to_output(self, pop_csv, tmp_path):
        out = tmp_path / "table.txt"
        main(["theory-table", str(pop_csv), "--n", "12", "--out", str(out)])
        manifest = json.loads((tmp_path / "table.txt.manifest.json").read_text())
        assert manifest["command"] == "theory-table"
        assert manifest["input"]["sha256"] == file_sha256(pop_csv)
        assert manifest["parameters"]["n"] == 12
        assert "created_utc" in manifest

    def test_manifest_beside_a_device_out_goes_to_stderr(self, pop_csv, tmp_path, capsys):
        # A link to the null device stands for any --out that is not a regular file.
        out = tmp_path / "null"
        out.symlink_to(os.devnull)
        capsys.readouterr()
        assert main(["params", str(pop_csv), "--n", "12", "--out", str(out)]) == 0
        assert not (tmp_path / "null.manifest.json").exists()
        assert json.loads(capsys.readouterr().err)["command"] == "params"

    @pytest.mark.parametrize(
        "argv",
        [["params", "{pop}", "--n", "12"], ["synthesize", "--units", "24", "--seed", "1"]],
        ids=["params", "synthesize"],
    )
    def test_manifest_naming_the_out_file_exits_2(self, pop_csv, tmp_path, capsys, argv):
        out = tmp_path / "report.txt"
        same = os.path.join(str(tmp_path), ".", "report.txt")
        argv = [arg.format(pop=pop_csv) for arg in argv]
        assert main([*argv, "--out", str(out), "--manifest", same]) == 2
        assert "names the --out file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--out", "--manifest"])
    @pytest.mark.parametrize(
        "argv",
        [["params", "--n", "12"], ["theory-table", "--n", "12"],
         ["simulate", "--n", "12", "--replicates", "10"]],
        ids=["params", "theory-table", "simulate"],
    )
    def test_an_output_naming_the_input_exits_2(
        self, pop_csv, capsys, monkeypatch, argv, option
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the run read its input")

        monkeypatch.setattr(cli, "load_population", refuse)
        sha = file_sha256(pop_csv)
        same = os.path.join(str(pop_csv.parent), ".", pop_csv.name)
        assert main([argv[0], str(pop_csv), *argv[1:], option, same]) == 2
        assert f"{option} {same!r} names the input file" in capsys.readouterr().err
        assert file_sha256(pop_csv) == sha

    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    @pytest.mark.parametrize("option", ["--out", "--manifest"])
    @pytest.mark.parametrize(
        "argv",
        [["params", "{pop}", "--n", "12"],
         ["simulate", "{pop}", "--n", "12", "--replicates", "10"],
         ["synthesize", "--units", "24", "--seed", "1"]],
        ids=["params", "simulate", "synthesize"],
    )
    def test_an_output_that_cannot_be_written_exits_2_before_any_work(
        self, pop_csv, tmp_path, capsys, monkeypatch, argv, option, target
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started its work")

        monkeypatch.setattr(cli, "load_population", refuse)
        monkeypatch.setattr(cli, "synthetic_linear_population", refuse)
        unwritable = tmp_path / "nodir" / "file" if target == "missing_directory" else tmp_path
        targets = {"--out": str(tmp_path / "report.txt"), option: str(unwritable)}
        before = sorted(tmp_path.iterdir())
        argv = [arg.format(pop=pop_csv) for arg in argv]
        assert main([*argv, *(token for item in targets.items() for token in item)]) == 2
        assert f"sysmean: error: {option} {str(unwritable)!r}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_rerun_reproduces_output_byte_identically(self, pop_csv, tmp_path):
        out = tmp_path / "table.csv"
        main(["theory-table", str(pop_csv), "--n", "12", "--format", "csv",
              "--out", str(out)])
        original = out.read_bytes()
        saved = tmp_path / "table.orig.csv"
        shutil.copy(out, saved)
        out.unlink()
        code = main(["rerun", str(tmp_path / "table.csv.manifest.json")])
        assert code == 0
        assert out.read_bytes() == original == saved.read_bytes()

    def test_rerun_rejects_manifest_without_argv(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["rerun", str(bad)]) == 2

    def test_rerun_refuses_nested_rerun(self, tmp_path, capsys):
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps({"argv": ["rerun", str(nested)]}))
        assert main(["rerun", str(nested)]) == 2
        assert "rerun" in capsys.readouterr().err

    def test_rerun_verifies_recorded_input_checksum(self, pop_csv, tmp_path, capsys):
        out = tmp_path / "params.txt"
        assert main(["params", str(pop_csv), "--n", "12", "--out", str(out)]) == 0
        with open(pop_csv, "a", encoding="utf-8") as handle:
            handle.write("1.0,2.0\n" * 12)
        capsys.readouterr()
        assert main(["rerun", str(tmp_path / "params.txt.manifest.json")]) == 2
        assert "checksum mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("{not json", "not valid JSON"),
            ('["params", "pop.csv"]', "not a run manifest"),
            ('{"argv": ["params", "pop.csv", "--n", "12"], "input": "x"}',
             "not a run manifest"),
        ],
    )
    def test_rerun_malformed_manifest_is_usage_error(self, tmp_path, capsys, content, reason):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        assert main(["rerun", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "sysmean: error:" in err
        assert reason in err

    def test_manifest_records_every_parsed_option(self, pop_csv, tmp_path):
        sim_manifest = tmp_path / "sim.json"
        main(["simulate", str(pop_csv), "--n", "12", "--replicates", "20",
              "--estimators", "hh", "--manifest", str(sim_manifest)])
        parameters = json.loads(sim_manifest.read_text())["parameters"]
        assert parameters["y_col"] == "y"
        assert parameters["x_col"] == "x"
        assert parameters["expect_sha256"] is None
        assert parameters["n"] == 12
        assert parameters["alpha"] is None
        # Family options not given are recorded at their defaults.
        assert (parameters["a"], parameters["b"], parameters["g"]) == (1.0, 0.0, 1.0)

        table_manifest = tmp_path / "table.json"
        main(["theory-table", str(pop_csv), "--n", "12", "--sort-by", "x",
              "--s2y2-factor", "0.5", "--manifest", str(table_manifest)])
        parameters = json.loads(table_manifest.read_text())["parameters"]
        assert parameters["sort_by"] == "x"
        assert parameters["s2y2_factor"] == 0.5
        assert (parameters["a"], parameters["b"], parameters["g"]) == (1.0, 0.0, 1.0)
        assert parameters["N"] == 240
        assert parameters["moments"]["s2_y2"] == 0.5 * parameters["moments"]["s2_y"]

    def test_theory_table_manifest_records_the_cvs(self, pop_csv, tmp_path):
        manifest_path = tmp_path / "table.json"
        main(["theory-table", str(pop_csv), "--n", "12", "--manifest", str(manifest_path)])
        moments = json.loads(manifest_path.read_text())["parameters"]["moments"]
        assert sorted(moments) == [
            "cv_x", "cv_y", "mean_x", "mean_y", "rho", "rho_x", "rho_y", "s2_x", "s2_y", "s2_y2"
        ]
        assert moments["cv_y"] == math.sqrt(moments["s2_y"]) / abs(moments["mean_y"])
        assert moments["cv_x"] == math.sqrt(moments["s2_x"]) / abs(moments["mean_x"])

    @pytest.mark.parametrize(
        "argv, laps",
        [
            (["params", "{pop}", "--n", "12"], ["ingest_s", "moments_s", "render_s"]),
            (["theory-table", "{pop}", "--n", "12"],
             ["ingest_s", "moments_s", "render_s", "theory_s"]),
            (["theory-table", *FOREST_MOMENTS], ["moments_s", "render_s", "theory_s"]),
            (["simulate", "{pop}", "--n", "12", "--replicates", "50"],
             ["compare_s", "ingest_s", "moments_s", "render_s", "simulate_s"]),
        ],
        ids=["params", "theory-table-file", "theory-table-moments", "simulate"],
    )
    def test_manifest_records_timings(self, pop_csv, tmp_path, capsys, argv, laps):
        manifest_path = tmp_path / "run.json"
        argv = [str(pop_csv) if token == "{pop}" else token for token in argv]
        assert main([*argv, "--manifest", str(manifest_path)]) in (0, 1)
        manifest = json.loads(manifest_path.read_text())
        timings = manifest["timings"]
        assert sorted(timings) == laps
        simulate = argv[0] == "simulate"
        rates = [manifest["replicates_per_s"]] if simulate else []
        for value in [*timings.values(), *rates]:
            assert isinstance(value, float) and math.isfinite(value) and value >= 0
        if simulate:
            assert manifest["replicates_per_s"] > 0
        else:
            assert "replicates_per_s" not in manifest
        # The report carries no timing: it is the same bytes without the manifest.
        report = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == report

    def test_manifest_to_stdout(self, pop_csv, capsys):
        code = main(["params", str(pop_csv), "--n", "12", "--format", "json",
                     "--manifest", "-"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count('"N": 240') == 1  # report payload
        assert '"command": "params"' in out


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_argument(self):
        assert main(["params"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "sysmean" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "{pop}", "--n", "12", "--w2", "nan"], "argument --w2"),
            (["simulate", "{pop}", "--n", "12", "--w2", "inf"], "argument --w2"),
            (["simulate", "{pop}", "--n", "12", "--w2", "0.25", "--ell", "nan"],
             "argument --ell"),
            (["theory-table", "{pop}", "--n", "12", "--ell-grid", "nan"],
             "argument --ell-grid"),
            (["theory-table", "{pop}", "--n", "12", "--w2-grid", "0.1,-inf"],
             "argument --w2-grid"),
            (["params", "{pop}", "--n", "12", "--s2y2-factor", "nan"],
             "argument --s2y2-factor"),
            (["simulate", "{pop}", "--n", "12", "--tolerance-sigma", "-1"],
             "sysmean: error: --tolerance-sigma"),
            (["simulate", "{pop}", "--n", "12", "--seed", "-1"], "argument --seed"),
            (["simulate", "{pop}", "--n", "12", "--seed", "1.5"], "argument --seed"),
            (["synthesize", "--units", "20", "--seed", "-3", "--out", "{out}"],
             "argument --seed"),
            (["synthesize", "--units", "20", "--slope", "0", "--out", "{out}"],
             "sysmean: error: slope must be nonzero"),
            (["synthesize", "--units", "20", "--rho", "-0.5", "--out", "{out}"],
             "sysmean: error: target correlation magnitude must be in (0, 1]"),
            # rho_target**2 underflows to 0, so 1/rho_target**2 divides by zero
            (["synthesize", "--units", "10", "--rho", "1e-200", "--out", "{out}"],
             "sysmean: error: the standard deviation of the noise overflows"),
            (["synthesize", "--units", "10", "--x-low", "-1e308", "--x-high", "1e308",
              "--out", "{out}"],
             "sysmean: error: x_high - x_low overflows"),
            (["synthesize", "--units", "10", "--slope", "1e308", "--out", "{out}"],
             "sysmean: error: the standard deviation of slope * x overflows"),
            (["synthesize", "--units", "10", "--x-low", "-1e308", "--x-high", "1e307",
              "--out", "{out}"],
             "sysmean: error: the standard deviation of x overflows"),
            (["synthesize", "--units", "10", "--x-low", "1e160", "--x-high", "1.00000000001e160",
              "--slope", "1e150", "--out", "{out}"],
             "sysmean: error: y = intercept + slope * x + noise overflows"),
            # Past 2**60 - 1 units a float64 column has more bytes than numpy can index.
            *(
                (["synthesize", "--units", str(units), "--out", "{out}"],
                 f"sysmean: error: {units} units are more than a float64 column can hold")
                for units in (2**60, 2**62, 2**63 - 1, 10**20)
            ),
        ],
    )
    def test_non_finite_and_negative_numbers(self, pop_csv, tmp_path, capsys, argv, message):
        out = tmp_path / "synth.csv"
        paths = {"{pop}": str(pop_csv), "{out}": str(out)}
        code = main([paths.get(tok, tok) for tok in argv])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, target, message",
        [
            (["simulate", "{pop}", "--n", "12", "--replicates", "4294967295"],
             "run_simulation",
             "Unable to allocate 32.0 GiB for an array with shape (4294967295,) "
             "and data type float64"),
            (["synthesize", "--units", "100000000000000", "--out", "{out}"],
             "synthetic_linear_population", ""),
        ],
        ids=["simulate", "synthesize"],
    )
    def test_running_out_of_memory_is_usage_error(
        self, pop_csv, tmp_path, capsys, monkeypatch, argv, target, message
    ):
        # The function that would allocate raises instead; nothing large is allocated.
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, target, out_of_memory)
        out = tmp_path / "synth.csv"
        paths = {"{pop}": str(pop_csv), "{out}": str(out)}
        assert main([paths.get(tok, tok) for tok in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"sysmean: error: {message or 'MemoryError'}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, dest, value",
        [
            (["simulate", "pop.csv", "--n", "12", "--b", "-1e300"], "b", -1e300),
            (["theory-table", "--n", "12", "--a", "-2E+3"], "a", -2000.0),
            (["theory-table", "--n", "12", "--rho", "-1e-1"], "rho", -0.1),
            (["synthesize", "--units", "9", "--out", "o", "--slope", "-.5e1"], "slope", -5.0),
        ],
    )
    def test_negative_numbers_in_exponent_notation_are_values(self, argv, dest, value):
        assert getattr(build_parser().parse_args(argv), dest) == value

    def test_negative_exponent_option_runs(self, pop_csv, capsys):
        argv = ["simulate", str(pop_csv), "--n", "12", "--estimators", "ratio,family",
                "--alpha", "0", "--a", "1", "--b", "-1e300", "--replicates", "10",
                "--format", "json"]
        assert main(argv) in (0, 1)
        assert json.loads(capsys.readouterr().out)["results"][0]["label"] == "ratio"

    @pytest.mark.parametrize("rho_w, code", [("2", 2), ("1", 0)])
    def test_intraclass_correlation_above_one_is_usage_error(self, capsys, rho_w, code):
        argv = ["theory-table", "--pop-size", "176", "--n", "16", "--mean-y", "1",
                "--mean-x", "1", "--s2-y", "1", "--s2-x", "1", "--rho", "0.5",
                "--rho-w", rho_w, "--s2-y2", "1"]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert "sysmean: error: intraclass correlations must not exceed 1" in captured.err
        else:
            assert "PRE" in captured.out

    @pytest.mark.parametrize("negative", ["--s2-y", "--s2-x"])
    def test_negative_mean_square_is_usage_error(self, capsys, negative):
        options = {"--s2-y": "1", "--s2-x": "1", negative: "-1"}
        argv = ["theory-table", "--pop-size", "176", "--n", "16", "--mean-y", "1",
                "--mean-x", "1", *[tok for item in options.items() for tok in item],
                "--rho", "0.5", "--rho-w", "0.1", "--s2-y2", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "sysmean: error: mean squares must be nonnegative\n"

    def test_one_replicate_is_usage_error(self, pop_csv, capsys):
        assert main(["simulate", str(pop_csv), "--n", "12", "--replicates", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the Monte Carlo standard error needs two replicates" in captured.err

    def test_non_utf8_input_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "pop.csv"
        path.write_bytes(b"y,x\n1,2\n\xff,4\n3,5\n7,8\n")
        assert main(["params", str(path), "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sysmean: error: input is not UTF-8 text: invalid start byte 0xff" in captured.err

    @pytest.mark.parametrize("rows, where", [
        (["y,x,note", "1,2,{}", "3,1_0,b"], "row 1"),
        (["y,x,note", '1,2,"{}"', "3,1_0,b"], "row 1"),
        (["y,x,{}", "1,2,c", "3,4,b"], "header"),
    ])
    def test_a_cell_past_the_csv_field_limit_is_usage_error(self, tmp_path, capsys, rows,
                                                            where):
        path = tmp_path / "big.csv"
        path.write_text("\n".join(rows).format("a" * 200_000) + "\n", encoding="utf-8")
        assert main(["params", str(path), "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sysmean: error: {where}: field larger than field limit")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("x_low", ["5", "6"])
    def test_synthesize_empty_x_range_is_usage_error(self, tmp_path, capsys, x_low):
        out = tmp_path / "pop.csv"
        argv = ["synthesize", "--units", "10", "--x-low", x_low, "--x-high", "5",
                "--out", str(out)]
        assert main(argv) == 2
        assert "sysmean: error: x_low must be below x_high" in capsys.readouterr().err
        assert not out.exists()


class TestParser:
    def test_main_builds_its_parser_once_per_process(self, monkeypatch, capsys):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        argv = ["theory-table", *FOREST_MOMENTS, "--format", "csv"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert built == [1]

    def test_build_parser_returns_a_new_parser_on_every_call(self):
        assert build_parser() is not build_parser()
