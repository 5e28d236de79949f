import contextlib
import dataclasses
import importlib.util
import itertools
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sysmean.montecarlo
from conftest import random_population
from reference import enumerate_samples, replicate_moments
from sysmean import (
    ConfigurationError,
    DomainError,
    EstimatorSpec,
    FamilyParams,
    FinitePopulation,
    NonResponseModel,
    SimulationConfig,
    SingularityError,
    StratumMode,
    SystematicDesign,
    compare_to_theory,
    compute_moments,
    derived_constants,
    family_estimate,
    nonresponse_design,
    optimum_alpha,
    population_fingerprint,
    run_simulation,
    stratum_mean_square,
    var_mean_y,
)
from sysmean.cli import main
from sysmean.datasets import synthetic_linear_population
from sysmean.design import apply_nonresponse, draw_sample, follow_up_size
from sysmean.estimators import PRESETS, aux_mean, hh_mean, product_estimate, ratio_estimate
from sysmean.montecarlo import (
    MAX_REPLICATES,
    SEED_BLOCK,
    EstimatorResult,
    SimulationReport,
    _exact_errors,
    _floyd,
    _Kernel,
    _lemire,
    _result,
    _start_factors,
    _start_table,
    _StartSums,
    _stream_words,
    _StreamSeed,
    design_rng,
    replicate_rng,
)

NO_NR = NonResponseModel(w2=0.0, ell=1.0)


def hh_only(replicates, seed, exhaustive=False, nr=NO_NR):
    return SimulationConfig(
        replicates=replicates,
        master_seed=seed,
        estimators=(EstimatorSpec("hh"),),
        nr=nr,
        exhaustive_start=exhaustive,
    )


class TestExhaustiveMode:
    def test_full_response_reproduces_design_variance(self):
        pop = synthetic_linear_population(60, rho_target=0.85, seed=11)
        design = SystematicDesign(N=60, n=6)
        report = run_simulation(pop, design, hh_only(10, seed=1, exhaustive=True))
        result = report.by_label("hh")
        [(enum_var, _)] = _exact_errors(_start_table(pop, design, NO_NR), [EstimatorSpec("hh")])
        assert result.empirical_mse == pytest.approx(enum_var, rel=1e-12)
        assert result.empirical_bias == pytest.approx(0.0, abs=1e-12 * abs(report.true_mean_y))
        # the intraclass representation of the same variance is exact
        m = compute_moments(pop, design)
        assert var_mean_y(m, 6, 60) == pytest.approx(enum_var, rel=1e-9)

    def test_cycles_through_all_starts(self):
        pop = synthetic_linear_population(24, seed=3)
        design = SystematicDesign(N=24, n=4)
        report = run_simulation(pop, design, hh_only(12, seed=5, exhaustive=True))
        assert report.by_label("hh").n_used == 12


class TestDegenerateCases:
    def test_degenerate_population_has_zero_mse(self):
        # constant y alone zeroes the adjusted mean's error; the auxiliary
        # bracket must also be constant for ratio/product/family, so the
        # fully degenerate population is the case where every estimator
        # has empirical MSE exactly 0
        pop = FinitePopulation(y=(5.0,) * 12, x=(3.0,) * 12)
        design = SystematicDesign(N=12, n=3)
        specs = (
            EstimatorSpec("hh"),
            EstimatorSpec("ratio", PRESETS["ratio"]),
            EstimatorSpec("product", PRESETS["product"]),
            EstimatorSpec("family", FamilyParams(alpha=0.5, g=1.0)),
        )
        cfg = SimulationConfig(replicates=50, master_seed=2, estimators=specs, nr=NO_NR)
        report = run_simulation(pop, design, cfg)
        for result in report.results:
            assert result.empirical_mse == pytest.approx(0.0, abs=1e-20)


class TestZeroStandardError:
    """At k = 1 with every non-respondent followed up, each replicate is the
    census: every estimator's squared error is one value, its MC SE exactly
    0, and compare_to_theory passes the round-off gap to the exact MSE."""

    def test_sim_k1_reports_zero_standard_errors_and_passes(self, tmp_path):
        pop, out = tmp_path / "pop.csv", tmp_path / "report.json"
        assert main(["synthesize", "--units", "240", "--seed", "28", "--out", str(pop)]) == 0
        argv = ["simulate", str(pop), "--n", "240", "--replicates", "50", "--seed", "17"]
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [result["mc_se_mse"] for result in report["results"]] == [0.0] * 3
        assert [comparison["verdict"] for comparison in report["comparisons"]] == ["PASS"] * 3

    def test_run_simulation_at_k1_reports_zero_standard_errors(self):
        pop = synthetic_linear_population(240, seed=28)
        design = SystematicDesign(240, 240)
        nr = NonResponseModel(w2=0.25, ell=1.0, stratum=frozenset(range(1, 61)))
        specs = (
            EstimatorSpec("hh"),
            EstimatorSpec("ratio", PRESETS["ratio"]),
            EstimatorSpec("product", PRESETS["product"]),
            EstimatorSpec("family", FamilyParams(alpha=0.5, g=1.5)),
        )
        report = run_simulation(pop, design, SimulationConfig(3000, 5, specs, nr))
        exact = _exact_errors(_start_table(pop, design, nr), specs)
        targets = [(spec.label, mse) for spec, (mse, _) in zip(specs, exact)]
        assert [result.mc_se_mse for result in report.results] == [0.0] * 4
        assert [c.verdict for c in compare_to_theory(report, targets)] == ["PASS"] * 4

    @pytest.mark.parametrize("replicates", [50, 3000])
    def test_an_estimator_left_with_one_start_reports_a_zero_standard_error(self, replicates):
        # Sample (1,3) has mean x = 0, so the ratio estimator fails there and
        # keeps the replicates of sample (2,4) alone, every one the same.
        pop = FinitePopulation(y=(4.1, 6.3, 8.7, 2.9), x=(1.1, 2.3, -1.1, 3.7))
        design = SystematicDesign(N=4, n=2)
        specs = (EstimatorSpec("ratio", PRESETS["ratio"]),)
        cfg = SimulationConfig(replicates, 0, specs, NO_NR, exhaustive_start=True)
        report = run_simulation(pop, design, cfg)
        [(mse, _)] = _exact_errors(_start_table(pop, design, NO_NR), specs)
        ratio = report.by_label("ratio")
        assert (ratio.n_used, ratio.mc_se_mse) == (replicates // 2, 0.0)
        assert compare_to_theory(report, [("ratio", mse)])[0].verdict == "PASS"

    def test_two_samples_symmetric_about_the_mean_give_a_zero_standard_error(self, tmp_path):
        # k = 2 without non-response: the two sample means lie symmetric about
        # Ybar, so hh's squared error is one value; before the floor its MC SE
        # was round-off and its z against the exact variance was -42.
        pop, out = tmp_path / "pop.csv", tmp_path / "report.json"
        assert main(["synthesize", "--units", "24", "--seed", "1", "--out", str(pop)]) == 0
        argv = ["simulate", str(pop), "--n", "12", "--estimators", "hh", "--format", "json"]
        assert main([*argv, "--out", str(out)]) == 0
        [result] = json.loads(out.read_text())["results"]
        assert (result["mc_se_mse"], result["n_used"]) == (0.0, 2000)

    def test_squared_errors_equal_to_round_off_give_a_zero_standard_error(self):
        # k = 1 with two non-respondents and one followed up: the two ybar*
        # lie symmetric about Ybar, so every squared error is one value in
        # exact arithmetic, though the per-start sums differ from it by
        # round-off (an SE of 2.07e-11 at MSE 1.72e-3 before the floor).
        pop, design, cfg = simulation_case(
            pop_seed=1136426859, n=18, k=1, w2=0.1, ell=1.5, bernoulli=False,
            exhaustive=False, replicates=28, seed=4338958979649247376,
        )
        report = run_simulation(pop, design, cfg)
        exact = _exact_errors(_start_table(pop, design, cfg.nr), cfg.estimators)
        targets = [(spec.label, mse) for spec, (mse, _) in zip(cfg.estimators, exact)]
        assert [result.mc_se_mse for result in report.results] == [0.0] * 5
        assert report.by_label("hh").empirical_mse == pytest.approx(1.7177729473e-3, rel=1e-9)
        assert [c.verdict for c in compare_to_theory(report, targets)] == ["PASS"] * 5


class TestNonresponseDesign:
    """`nonresponse_design` is simulate's non-response model and theory inputs."""

    @pytest.fixture
    def pop(self):
        return synthetic_linear_population(240, seed=28)

    def moments(self, pop, **changes):
        return dataclasses.replace(compute_moments(pop, SystematicDesign(240, 12)), **changes)

    def test_fixed_stratum_is_drawn_from_the_design_stream(self, pop):
        m = self.moments(pop)
        nr, w2, theory = nonresponse_design(pop, m, 0.2501, 2.0, 7)
        chosen = design_rng(7).choice(240, 60, replace=False)
        assert nr == NonResponseModel(0.2501, 2.0, stratum=frozenset(int(u) + 1 for u in chosen))
        assert w2 == 60 / 240
        assert theory == dataclasses.replace(m, s2_y2=stratum_mean_square(pop, nr.stratum))

    def test_bernoulli_takes_w2_and_the_population_mean_square(self, pop):
        m = self.moments(pop)
        nr, w2, theory = nonresponse_design(
            pop, m, 0.2501, 2.0, 7, StratumMode.BERNOULLI_PER_REPLICATE
        )
        assert nr == NonResponseModel(0.2501, 2.0, StratumMode.BERNOULLI_PER_REPLICATE)
        assert (w2, theory) == (0.2501, dataclasses.replace(m, s2_y2=m.s2_y))

    @pytest.mark.parametrize("w2, ell, s2_y2", [(0.0, 2.0, None), (0.25, 1.0, None),
                                                (0.25, 2.0, 3.5)])
    def test_leaves_a_set_or_unneeded_stratum_mean_square(self, pop, w2, ell, s2_y2):
        for mode in StratumMode:
            m = self.moments(pop, s2_y2=s2_y2)
            assert nonresponse_design(pop, m, w2, ell, 7, mode)[2] == m

    def test_a_stratum_of_every_unit_is_refused(self, pop):
        with pytest.raises(ConfigurationError, match=(
            r"non-response rate w2=0\.999 puts all 240 of 240 units in the non-response "
            "stratum; at least one unit must respond"
        )):
            nonresponse_design(pop, self.moments(pop), 0.999, 2.0, 7)

    @pytest.mark.parametrize("w2, ell", [(1.0, 2.0), (0.25, 0.5), (math.nan, 2.0)])
    def test_rates_are_checked_by_the_model(self, pop, w2, ell):
        with pytest.raises(DomainError) as refused:
            nonresponse_design(pop, self.moments(pop), w2, ell, 7)
        with pytest.raises(DomainError) as model:
            NonResponseModel(w2, ell, StratumMode.BERNOULLI_PER_REPLICATE)
        assert str(refused.value) == str(model.value)

    @pytest.mark.parametrize("mode", ["fixed", "bernoulli"])
    def test_simulate_reports_the_library_runs_mses(self, pop, tmp_path, capsys, mode):
        path = tmp_path / "pop.csv"
        assert main(["synthesize", "--units", "240", "--seed", "28", "--out", str(path)]) == 0
        capsys.readouterr()
        main(["simulate", str(path), "--n", "12", "--w2", "0.25", "--ell", "2",
              "--stratum-mode", mode, "--estimators", "hh,ratio", "--replicates", "500",
              "--seed", "7", "--format", "json"])
        reported = [row["empirical_mse"] for row in json.loads(capsys.readouterr().out)["results"]]
        nr, _, _ = nonresponse_design(pop, self.moments(pop), 0.25, 2.0, 7, StratumMode(mode))
        specs = (EstimatorSpec("hh"), EstimatorSpec("ratio", PRESETS["ratio"]))
        report = run_simulation(pop, SystematicDesign(240, 12), SimulationConfig(500, 7, specs, nr))
        assert [result.empirical_mse for result in report.results] == reported


class TestDeterminism:
    def test_identical_config_gives_identical_report(self):
        pop = synthetic_linear_population(60, seed=7)
        design = SystematicDesign(N=60, n=5)
        stratum = frozenset(range(1, 16))
        nr = NonResponseModel(w2=0.25, ell=2.0, stratum=stratum)
        specs = (
            EstimatorSpec("hh"),
            EstimatorSpec("family", FamilyParams(alpha=0.9)),
        )
        cfg = SimulationConfig(replicates=400, master_seed=99, estimators=specs, nr=nr)
        assert run_simulation(pop, design, cfg) == run_simulation(pop, design, cfg)

    def test_different_seed_changes_report(self):
        pop = synthetic_linear_population(60, seed=7)
        design = SystematicDesign(N=60, n=5)
        a = run_simulation(pop, design, hh_only(200, seed=1))
        b = run_simulation(pop, design, hh_only(200, seed=2))
        assert a.by_label("hh").empirical_mse != b.by_label("hh").empirical_mse


class TestFailureHandling:
    def test_singular_sample_counted_not_dropped(self):
        # sample (1,3) has mean x = 0, so the ratio estimator fails there
        pop = FinitePopulation(y=(4.0, 6.0, 8.0, 2.0), x=(1.0, 2.0, -1.0, 3.0))
        design = SystematicDesign(N=4, n=2)
        specs = (EstimatorSpec("hh"), EstimatorSpec("ratio", PRESETS["ratio"]))
        cfg = SimulationConfig(
            replicates=2, master_seed=0, estimators=specs, nr=NO_NR, exhaustive_start=True
        )
        report = run_simulation(pop, design, cfg)
        ratio = report.by_label("ratio")
        assert ratio.n_failed == 1
        assert ratio.n_used == 1
        assert not ratio.valid  # 50% failure rate exceeds the 1% threshold
        assert report.by_label("hh").valid

    def test_product_member_of_the_family_survives_a_zero_denominator(self):
        # on the sample (1,3) xbar = 0 zeroes the family denominator, but the
        # g = -1 member is ybar*·xbar/Xbar and needs only Xbar != 0
        pop = FinitePopulation(y=(4.0, 6.0, 8.0, 2.0), x=(1.0, 2.0, -1.0, 3.0))
        design = SystematicDesign(N=4, n=2)
        specs = (
            EstimatorSpec("product", PRESETS["product"]),
            EstimatorSpec("family", FamilyParams(alpha=1.0, g=-1.0)),
        )
        cfg = SimulationConfig(
            replicates=2, master_seed=0, estimators=specs, nr=NO_NR, exhaustive_start=True
        )
        report = run_simulation(pop, design, cfg)
        family = report.by_label("family")
        assert family.n_failed == 0
        assert family == dataclasses.replace(report.by_label("product"), label="family")
        by_hand = [product_estimate(6.0, 0.0, 1.25), product_estimate(4.0, 2.5, 1.25)]
        assert family.empirical_mean == sum(by_hand) / 2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                replicates=10,
                master_seed=0,
                estimators=(EstimatorSpec("a"), EstimatorSpec("a", PRESETS["ratio"])),
                nr=NO_NR,
            )

    def test_negative_master_seed_rejected(self):
        hh_only(10, seed=0)
        with pytest.raises(ConfigurationError, match="master_seed must be >= 0, got -1"):
            hh_only(10, seed=-1)

    def test_one_replicate_rejected(self):
        hh_only(2, seed=0)
        with pytest.raises(ConfigurationError, match="needs two replicates"):
            hh_only(1, seed=0)

    @pytest.mark.parametrize(
        "params, shown",
        [("hh", "'hh'"), ((1.0, 1.0), r"\(1\.0, 1\.0\)"), ({"alpha": 1.0}, "{'alpha': 1.0}")],
    )
    def test_params_other_than_family_params_rejected(self, params, shown):
        # a preset's name, or FamilyParams' fields unwrapped, in place of the parameters
        # fails here, not in the replicate loop
        with pytest.raises(ConfigurationError, match=f"needs FamilyParams or None, got {shown}"):
            EstimatorSpec("hh", params)


class TestMonotonicityProbe:
    def test_mse_does_not_decrease_with_more_nonresponse(self):
        pop = synthetic_linear_population(240, rho_target=0.9, seed=28)
        design = SystematicDesign(N=240, n=12)
        rng = np.random.default_rng(4)
        stratum = frozenset(int(u) + 1 for u in rng.choice(240, size=60, replace=False))
        replicates = 20_000

        def mse_for(nr):
            report = run_simulation(pop, design, hh_only(replicates, seed=314, nr=nr))
            result = report.by_label("hh")
            return result.empirical_mse, result.mc_se_mse

        base, base_se = mse_for(NO_NR)
        mid, mid_se = mse_for(NonResponseModel(w2=0.25, ell=2.0, stratum=stratum))
        high, high_se = mse_for(NonResponseModel(w2=0.25, ell=3.5, stratum=stratum))
        assert base <= mid + 3 * math.hypot(base_se, mid_se)
        assert mid <= high + 3 * math.hypot(mid_se, high_se)

    def test_optimum_family_member_not_worse_than_adjusted_mean(self):
        pop = synthetic_linear_population(240, rho_target=0.9, seed=28)
        design = SystematicDesign(N=240, n=12)
        m = compute_moments(pop, design)
        assert abs(m.rho) >= 0.5
        c = derived_constants(m, 12, 240)
        alpha = optimum_alpha(c, 1.0)
        specs = (
            EstimatorSpec("hh"),
            EstimatorSpec("family", FamilyParams(alpha=alpha)),
        )
        cfg = SimulationConfig(replicates=20_000, master_seed=8, estimators=specs, nr=NO_NR)
        report = run_simulation(pop, design, cfg)
        hh = report.by_label("hh")
        family = report.by_label("family")
        noise = 3 * math.hypot(hh.mc_se_mse, family.mc_se_mse)
        assert family.empirical_mse <= hh.empirical_mse + noise


class TestCompareToTheory:
    @staticmethod
    def report_with(mse, se):
        result = EstimatorResult(
            label="hh",
            n_used=100,
            n_failed=0,
            empirical_mean=10.0,
            empirical_bias=0.0,
            empirical_mse=mse,
            mc_se_mse=se,
            valid=True,
        )
        return SimulationReport(
            results=(result,),
            replicates=100,
            master_seed=0,
            population_sha256="0" * 64,
            true_mean_y=10.0,
        )

    def test_exact_agreement_passes_with_zero_z(self):
        report = self.report_with(mse=4.0, se=0.5)
        (comparison,) = compare_to_theory(report, [("hh", 4.0)])
        assert comparison.verdict == "PASS"
        assert comparison.z_score == 0.0
        assert comparison.rel_gap == 0.0

    def test_gap_beyond_tolerance_fails(self):
        report = self.report_with(mse=4.0 + 3.5 * 0.5, se=0.5)
        (comparison,) = compare_to_theory(report, [("hh", 4.0)], tolerance_sigma=3.0)
        assert comparison.verdict == "FAIL"
        assert comparison.z_score == pytest.approx(3.5)

    def test_zero_standard_error_with_gap_is_infinite_z(self):
        report = self.report_with(mse=4.1, se=0.0)
        (comparison,) = compare_to_theory(report, [("hh", 4.0)])
        assert comparison.verdict == "FAIL"
        assert math.isinf(comparison.z_score)

    @pytest.mark.parametrize("gap, expected", [(0.1, math.inf), (-0.1, -math.inf), (0.0, 0.0)])
    def test_infinite_z_and_rel_gap_keep_the_sign_of_the_gap(self, gap, expected):
        # z with a zero standard error, and rel_gap against a zero target
        (z,) = compare_to_theory(self.report_with(mse=4.0 + gap, se=0.0), [("hh", 4.0)])
        (rel,) = compare_to_theory(self.report_with(mse=gap, se=0.5), [("hh", 0.0)])
        assert z.z_score == expected
        assert rel.rel_gap == expected

    def test_zero_standard_error_with_roundoff_gap_passes(self):
        # a census (k = 1): the empirical MSE and the theory are both
        # round-off, far below 8*eps*Ybar^2 = 1.8e-13 with Ybar = 10
        (comparison,) = compare_to_theory(self.report_with(mse=3.2e-27, se=0.0),
                                          [("hh", 7.3e-16)])
        assert comparison.verdict == "PASS"
        assert comparison.z_score == 0.0

    @pytest.mark.parametrize("gap", [1e-12, -1e-12])
    def test_zero_standard_error_with_gap_beyond_roundoff_fails(self, gap):
        (comparison,) = compare_to_theory(self.report_with(mse=4.0 + gap, se=0.0),
                                          [("hh", 4.0)])
        assert comparison.verdict == "FAIL"
        assert comparison.z_score == math.copysign(math.inf, gap)

    def test_roundoff_rule_leaves_nonzero_standard_error_alone(self):
        (comparison,) = compare_to_theory(self.report_with(mse=1e-15, se=1e-17),
                                          [("hh", 0.0)])
        assert comparison.verdict == "FAIL"
        assert comparison.z_score == pytest.approx(100.0)

    @pytest.mark.parametrize("theory", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("se", [0.0, 0.5])
    def test_non_finite_theory_never_passes(self, theory, se):
        # with a zero standard error, the round-off allowance scales with |theory|
        (comparison,) = compare_to_theory(self.report_with(mse=4.0, se=se), [("hh", theory)])
        assert comparison.verdict == "FAIL"

    def test_a_true_mean_whose_square_overflows_still_compares(self):
        # the round-off allowance 8*eps*max(Ybar^2, |theory|) is inf, not an OverflowError
        report = dataclasses.replace(self.report_with(mse=4.0, se=0.0), true_mean_y=1e200)
        (comparison,) = compare_to_theory(report, [("hh", 5.0)])
        assert comparison.verdict == "PASS"
        assert comparison.z_score == 0.0

    def test_missing_label_rejected(self):
        report = self.report_with(mse=4.0, se=0.5)
        with pytest.raises(ConfigurationError):
            compare_to_theory(report, [("nope", 4.0)])

    def test_exhaustive_full_response_agrees_with_representation(self):
        # with no non-response the only gap between the enumerated variance
        # and the intraclass representation is float roundoff
        pop = synthetic_linear_population(60, rho_target=0.85, seed=11)
        design = SystematicDesign(N=60, n=6)
        report = run_simulation(pop, design, hh_only(10, seed=1, exhaustive=True))
        m = compute_moments(pop, design)
        (comparison,) = compare_to_theory(report, [("hh", var_mean_y(m, 6, 60))])
        assert comparison.verdict == "PASS"
        assert abs(comparison.rel_gap) <= 1e-9


class TestReportInvariants:
    def test_bias_is_mean_minus_truth_and_mse_nonnegative(self):
        pop = synthetic_linear_population(60, seed=13)
        design = SystematicDesign(N=60, n=5)
        report = run_simulation(pop, design, hh_only(500, seed=21))
        result = report.by_label("hh")
        assert result.empirical_bias == pytest.approx(
            result.empirical_mean - report.true_mean_y, rel=1e-12, abs=1e-12
        )
        assert result.empirical_mse >= 0
        assert result.n_used + result.n_failed == report.replicates

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        replicates=st.integers(2, 3000),
        k=st.integers(1, 30),
        failure_rate=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    )
    def test_moments_from_start_sums_match_numpy_mean_and_std(
        self, seed, replicates, k, failure_rate
    ):
        rng = np.random.default_rng(seed)
        true_mean_y = rng.normal() * 100
        starts = rng.integers(0, k, replicates)
        ybar_star = rng.normal(true_mean_y, 10 ** rng.uniform(-3, 3), replicates)
        h, bad = rng.uniform(0.5, 2.0, k), rng.random(k) < failure_rate
        sums = _StartSums(k)
        for lo in range(0, replicates, SEED_BLOCK):
            sums.add(starts[lo : lo + SEED_BLOCK], ybar_star[lo : lo + SEED_BLOCK])
        result = _result("hh", h, bad, sums, true_mean_y)
        used = ~bad[starts]
        assert (result.n_used, result.n_failed) == (used.sum(), (~used).sum())
        assert_moments_close(result, (h[starts] * ybar_star)[used], true_mean_y)


def assert_moments_close(result, values, true_mean_y):
    """`result`'s moments against `replicate_moments` over the estimates
    `values`: the mean and bias within 1e-12 of the estimates' mean size, the
    MSE and MC SE within 1e-12 relative or within their round-off.

    The per-replicate path rounds every e = h·ybar*, which moves its squared
    error by up to 2·eps·|e|·|e − Ybar|, the MSE by as much and the SE by that
    over sqrt(n − 1); the per-start sums take h·ybar* unrounded.  They form
    Σ(e² − mse)² from power sums, to within about 64·eps·n·max(e − Ybar)⁴,
    and the SE is the square root of that sum.  Where every estimate is one
    value, a nonzero reference SE is the round-off of its mean alone."""
    mean, mse, se = replicate_moments(values, true_mean_y)
    if not len(values):
        assert all(map(math.isnan, (result.empirical_mean, result.empirical_mse, result.mc_se_mse)))
        return
    scale = 1e-12 * np.abs(values).mean()
    assert result.empirical_mean == pytest.approx(mean, rel=0, abs=scale)
    assert result.empirical_bias == pytest.approx(mean - true_mean_y, rel=0, abs=scale)
    eps, errors = np.finfo(float).eps, np.abs(values - true_mean_y)
    rounding = 4 * eps * np.max(np.abs(values) * errors)
    assert result.empirical_mse == pytest.approx(mse, rel=1e-12, abs=rounding)
    sums = math.sqrt(64 * eps) * np.max(errors) ** 2
    roundoff = (rounding + sums) / math.sqrt(max(len(values) - 1, 1))
    if len(set(values.tolist())) == 1:
        assert 0.0 <= result.mc_se_mse <= roundoff
    else:
        assert result.mc_se_mse == pytest.approx(se, rel=1e-12, abs=roundoff)


def simulation_peak_bytes(pop, design, cfg):
    tracemalloc.start()
    try:
        run_simulation(pop, design, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_peak_does_not_grow_with_the_replicate_count(self):
        # The per-start sums take O(k) and a seed block's buffers O(SEED_BLOCK);
        # no array grows with the replicates, whatever the estimators.
        pop = synthetic_linear_population(240, seed=3)
        design = SystematicDesign(240, 12)
        specs = (
            EstimatorSpec("hh"),
            EstimatorSpec("ratio", PRESETS["ratio"]),
            EstimatorSpec("product", PRESETS["product"]),
            # base < 0, a DomainError, on samples with xbar above Xbar + 1/6
            EstimatorSpec("failing", FamilyParams(alpha=3.0, g=0.5, b=-(pop.x.mean() + 0.5))),
        )
        small, large = (
            simulation_peak_bytes(pop, design, SimulationConfig(reps, 7, specs, NO_NR))
            for reps in (2**13, 2**17)
        )
        assert large - small <= 64 * 1024
        failing = run_simulation(pop, design, SimulationConfig(2**13, 7, specs, NO_NR)).results[-1]
        assert 0 < failing.n_failed < 2**13

    @pytest.mark.parametrize("bernoulli, kib", [(False, 339), (True, 336)])
    def test_replicate_blocks_peak_no_higher_than_one_replicate_at_a_time(self, bernoulli, kib):
        # The kib are the peaks of the loop that drew one replicate at a time.
        # The blocks, their seeding hashed in place, peak at 182 KiB fixed and
        # 177 KiB Bernoulli (numpy 2.4.6) with the per-replicate arrays.
        pop = synthetic_linear_population(240, seed=3)
        if bernoulli:
            nr = NonResponseModel(w2=0.25, ell=2.0, mode=StratumMode.BERNOULLI_PER_REPLICATE)
        else:
            stratum = np.random.default_rng(1).choice(240, 60, replace=False)
            nr = NonResponseModel(w2=0.25, ell=2.0, stratum=frozenset(int(u) + 1 for u in stratum))
        cfg = SimulationConfig(1000, 7, (EstimatorSpec("hh"),), nr)
        tracemalloc.start()
        try:
            _Kernel(pop, SystematicDesign(240, 12), cfg).start_sums()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= kib * 1024

    def test_seeding_a_block_hashes_in_place(self):
        # 1,000 rows of seed words take 31 KiB; hashed in place, they need at
        # most a (rows, 8) copy of them and its shift besides (158 KiB measured).
        _stream_words(7, 0, 1000)
        tracemalloc.start()
        try:
            _stream_words(7, 0, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * 1024


# Each estimator by its own public definition, not by the family preset; a label
# not listed here is a family member.
REFERENCE_ESTIMATORS = {
    "hh": lambda spec, ybar_star, xbar, pop_mean_x: ybar_star,
    "ratio": lambda spec, *means: ratio_estimate(*means),
    "product": lambda spec, *means: product_estimate(*means),
    "family": lambda spec, *means: family_estimate(*means, spec.params),
}


def per_unit_stream(pop, design, cfg, rng_for=None):
    """Every replicate realized unit by unit along the per-unit reference path,
    replicate rep drawing from `rng_for(rep)`, by default `replicate_rng`: the
    0-based starts, the ybar*s, and each estimator's estimates by its public
    definition, with a mask of those that fail."""
    samples = enumerate_samples(design)
    pop_mean_x = float(pop.x.mean())
    starts, ybar_stars = np.empty(cfg.replicates, dtype=np.intp), np.empty(cfg.replicates)
    shape = (len(cfg.estimators), cfg.replicates)
    estimates, failed = np.full(shape, np.nan), np.ones(shape, dtype=bool)
    for rep in range(cfg.replicates):
        rng = rng_for(rep) if rng_for else replicate_rng(cfg.master_seed, rep)
        if cfg.exhaustive_start:
            start = rep % design.k + 1
        else:
            start = draw_sample(design, rng)
        realization = apply_nonresponse(samples[start - 1], pop, cfg.nr, rng)
        ybar_star, xbar = hh_mean(realization), aux_mean(realization)
        starts[rep], ybar_stars[rep] = start - 1, ybar_star
        for j, spec in enumerate(cfg.estimators):
            reference = REFERENCE_ESTIMATORS.get(spec.label, REFERENCE_ESTIMATORS["family"])
            with contextlib.suppress(SingularityError, DomainError):
                estimates[j, rep] = reference(spec, ybar_star, xbar, pop_mean_x)
                failed[j, rep] = False
    return starts, ybar_stars, estimates, failed


def per_unit_report(pop, design, cfg, rng_for=None):
    """The report along the per-unit reference path: the starts and ybar*s of
    `per_unit_stream` added to the per-start sums a seed block at a time."""
    starts, ybar_stars, _, _ = per_unit_stream(pop, design, cfg, rng_for)
    table = _start_table(pop, design, cfg.nr)
    sums = _StartSums(design.k)
    for lo in range(0, cfg.replicates, SEED_BLOCK):
        sums.add(starts[lo : lo + SEED_BLOCK], ybar_stars[lo : lo + SEED_BLOCK])
    drawn = np.unique(starts).tolist()
    return SimulationReport(
        results=tuple(
            _result(spec.label, *_start_factors(spec, table, drawn), sums, table.mean_y)
            for spec in cfg.estimators
        ),
        replicates=cfg.replicates,
        master_seed=cfg.master_seed,
        population_sha256=population_fingerprint(pop),
        true_mean_y=table.mean_y,
    )


def kernel_stream(pop, design, cfg):
    """Each replicate's 0-based start and ybar* from `_Kernel.block`, over the
    blocks a call draws."""
    kernel = _Kernel(pop, design, cfg)
    starts, ybar_stars = [], []
    for first in range(0, cfg.replicates, SEED_BLOCK):
        seeds = _stream_words(cfg.master_seed, first, min(first + SEED_BLOCK, cfg.replicates))
        for lo in range(0, len(seeds), kernel.rows):
            ybar_star, start = kernel.block(seeds[lo : lo + kernel.rows], first + lo)
            starts.append(start)
            ybar_stars.append(ybar_star)
    return np.concatenate(starts), np.concatenate(ybar_stars)


def simulation_case(pop_seed, n, k, w2, ell, bernoulli, exhaustive, replicates, seed):
    rng = np.random.default_rng(pop_seed)
    pop = random_population(rng, n * k)
    if bernoulli:
        nr = NonResponseModel(w2=w2, ell=ell, mode=StratumMode.BERNOULLI_PER_REPLICATE)
    else:
        size = round(w2 * (n * k))  # the package's order: w2 * N
        stratum = frozenset(int(u) + 1 for u in rng.choice(n * k, size=size, replace=False))
        nr = NonResponseModel(w2=w2, ell=ell, stratum=stratum)
    pop_mean_x = float(pop.x.mean())
    specs = (
        EstimatorSpec("hh"),
        EstimatorSpec("ratio", PRESETS["ratio"]),
        EstimatorSpec("product", PRESETS["product"]),
        EstimatorSpec("family", FamilyParams(alpha=0.8, g=1.5, b=2.0)),
        # base < 0, a DomainError, on samples with xbar above Xbar + 1/6
        EstimatorSpec("failing", FamilyParams(alpha=3.0, g=0.5, b=-(pop_mean_x + 0.5))),
    )
    cfg = SimulationConfig(
        replicates=replicates,
        master_seed=seed,
        estimators=specs,
        nr=nr,
        exhaustive_start=exhaustive,
    )
    return pop, SystematicDesign(N=n * k, n=n), cfg


def simulation_cases(test):
    """Run `test` over random `simulation_case` arguments and the listed examples."""
    examples = [
        dict(pop_seed=1, n=20, k=1, w2=0.5, ell=1.5, bernoulli=False, exhaustive=False,
             replicates=30, seed=3),
        dict(pop_seed=2, n=24, k=4, w2=0.0, ell=2.0, bernoulli=False, exhaustive=True,
             replicates=12, seed=4),
        dict(pop_seed=3, n=24, k=4, w2=0.5, ell=1.0, bernoulli=True, exhaustive=False,
             replicates=30, seed=5),
        dict(pop_seed=4, n=24, k=3, w2=0.5, ell=1e9, bernoulli=False, exhaustive=False,
             replicates=30, seed=6),
        dict(pop_seed=5, n=24, k=3, w2=0.5, ell=1.6, bernoulli=True, exhaustive=True,
             replicates=30, seed=7),
        dict(pop_seed=6, n=12, k=1, w2=0.0, ell=2.0, bernoulli=False, exhaustive=False,
             replicates=40, seed=8),
        # w2 * n * k and w2 * N round to different stratum sizes here.
        dict(pop_seed=0, n=23, k=5, w2=0.8999999999999999, ell=2.0, bernoulli=False,
             exhaustive=False, replicates=10, seed=1),
        dict(pop_seed=0, n=9, k=5, w2=0.3, ell=2.0, bernoulli=False, exhaustive=False,
             replicates=10, seed=1),
    ]
    for case in examples:
        test = example(**case)(test)
    return settings(max_examples=300, deadline=None)(given(
        pop_seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 24),
        k=st.integers(1, 6),
        w2=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.8]) | st.floats(0.0, 0.9),
        ell=st.sampled_from([1.0, 1.5, 2.0, 3.0, 1e9]) | st.floats(1.0, 10.0),
        bernoulli=st.booleans(),
        exhaustive=st.booleans(),
        replicates=st.integers(2, 40),
        seed=st.integers(0, 2**63),
    )(test))


class TestPerStartTableKernel:
    """run_simulation against the per-unit path: the kernel's replicates and
    estimates bit for bit, the moments against the per-replicate aggregation."""

    @simulation_cases
    def test_reports_match_the_per_unit_path(self, **case):
        pop, design, cfg = simulation_case(**case)
        expected = per_unit_report(pop, design, cfg)
        assert repr(run_simulation(pop, design, cfg)) == repr(expected)

    @simulation_cases
    def test_kernel_replicates_and_estimates_are_the_per_unit_ones(self, **case):
        pop, design, cfg = simulation_case(**case)
        starts, ybar_stars, estimates, failed = per_unit_stream(pop, design, cfg)
        kernel_starts, kernel_ybar_stars = kernel_stream(pop, design, cfg)
        assert kernel_starts.tolist() == starts.tolist()
        assert kernel_ybar_stars.tobytes() == ybar_stars.tobytes()
        table = _start_table(pop, design, cfg.nr)
        for j, spec in enumerate(cfg.estimators):
            h, bad = _start_factors(spec, table, range(design.k))
            assert failed[j].tolist() == bad[starts].tolist()
            used = ~failed[j]
            assert estimates[j][used].tobytes() == (h[starts] * ybar_stars)[used].tobytes()

    @simulation_cases
    def test_moments_match_the_per_replicate_aggregation(self, **case):
        pop, design, cfg = simulation_case(**case)
        _, _, estimates, failed = per_unit_stream(pop, design, cfg)
        report = run_simulation(pop, design, cfg)
        for j, result in enumerate(report.results):
            assert (result.n_used, result.n_failed) == ((~failed[j]).sum(), failed[j].sum())
            assert_moments_close(result, estimates[j][~failed[j]], report.true_mean_y)

    def test_failing_family_spec_fails_on_some_replicates(self):
        pop, design, cfg = simulation_case(
            pop_seed=1, n=4, k=6, w2=0.25, ell=2.0, bernoulli=False, exhaustive=True,
            replicates=12, seed=3,
        )
        failing = run_simulation(pop, design, cfg).by_label("failing")
        assert 0 < failing.n_failed < cfg.replicates

    def test_per_unit_path_is_not_called(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_simulation called the per-unit path or built a Generator")

        cases = [
            simulation_case(
                pop_seed=9, n=12, k=5, w2=0.25, ell=2.0, bernoulli=bernoulli,
                exhaustive=False, replicates=50, seed=11,
            )
            for bernoulli in (False, True)
        ]
        for name in ("apply_nonresponse", "hh_mean", "aux_mean", "draw_sample"):
            monkeypatch.setattr(sysmean.montecarlo, name, refuse)
        # Follow-ups below _CHOICE_MIN draws are read off the raw words.
        monkeypatch.setattr(np.random, "Generator", refuse)
        for pop, design, cfg in cases:
            report = run_simulation(pop, design, cfg)
            assert report.by_label("hh").n_used == 50

    @pytest.mark.parametrize(
        "k, replicates, exhaustive", [(6, 40, True), (40, 5, True), (6, 40, False)]
    )
    def test_estimators_evaluated_once_per_drawn_start(
        self, monkeypatch, k, replicates, exhaustive
    ):
        calls = []

        def counting(*args):
            calls.append(args)
            return family_estimate(*args)

        monkeypatch.setattr(sysmean.montecarlo, "family_estimate", counting)
        pop, design, cfg = simulation_case(
            pop_seed=9, n=4, k=k, w2=0.25, ell=2.0, bernoulli=False,
            exhaustive=exhaustive, replicates=replicates, seed=11,
        )
        run_simulation(pop, design, cfg)
        with_params = sum(spec.params is not None for spec in cfg.estimators)
        assert with_params == 4
        assert 0 < len(calls) <= with_params * min(k, replicates)
        if exhaustive:
            assert len(calls) == with_params * min(k, replicates)


def enumerated_errors(pop, design, nr, specs):
    """Each spec's design MSE and bias by brute force: every start, in Bernoulli
    mode every non-respondent mask weighted by w2^j·(1 − w2)^(n − j), and every
    one of the C(n2, h2) follow-ups, each estimate by the spec's reference
    estimator.  A start where the estimator fails is left out; (nan, nan) if
    it fails at every start."""
    n, mean_x, mean_y = design.n, float(pop.x.mean()), float(pop.y.mean())

    def masks(units):
        """Each non-respondent mask of a sample, with its probability."""
        if nr.mode is StratumMode.FIXED_STRATUM:
            return [([u in (nr.stratum or ()) for u in units], 1.0)]
        return [
            (bits, nr.w2 ** sum(bits) * (1 - nr.w2) ** (n - sum(bits)))
            for bits in itertools.product((False, True), repeat=n)
        ]

    errors = []
    for spec in specs:
        reference = REFERENCE_ESTIMATORS.get(spec.label, REFERENCE_ESTIMATORS["family"])
        means, squares = [], []
        for units in enumerate_samples(design):
            y = [pop.y.item(u - 1) for u in units]
            xbar = math.fsum(pop.x.item(u - 1) for u in units) / n
            try:
                reference(spec, 1.0, xbar, mean_x)
            except (SingularityError, DomainError):
                continue
            mean = square = 0.0
            for missing, weight in masks(units):
                respondents = [v for v, m in zip(y, missing) if not m]
                nonrespondents = [v for v, m in zip(y, missing) if m]
                n2 = len(nonrespondents)
                h2 = follow_up_size(n2, nr.ell)
                follow_ups = list(itertools.combinations(nonrespondents, h2))
                for follow_up in follow_ups:
                    t2 = n2 * math.fsum(follow_up) / h2 if n2 else 0.0
                    estimate = reference(spec, (math.fsum(respondents) + t2) / n, xbar, mean_x)
                    mean += weight / len(follow_ups) * estimate
                    square += weight / len(follow_ups) * (estimate - mean_y) ** 2
            means.append(mean)
            squares.append(square)
        if means:
            mse, mean = math.fsum(squares) / len(squares), math.fsum(means) / len(means)
            errors.append((mse, mean - mean_y))
        else:
            errors.append((math.nan, math.nan))
    return errors


def perfbench_inputs():
    """perfbench/inputs.py, the benchmark's own populations and exact hh MSEs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations there
    spec.loader.exec_module(module)
    return module


class TestExactDesignErrors:
    """`_exact_errors`, the exact design MSE and bias over the per-start table,
    against brute-force enumeration and the benchmark's independent oracles."""

    @settings(max_examples=60, deadline=None)
    @given(
        pop_seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        k=st.integers(1, 4),
        w2=st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 0.9),
        ell=st.sampled_from([1.0, 1.5, 2.0, 3.0]) | st.floats(1.0, 5.0),
        bernoulli=st.booleans(),
    )
    @example(pop_seed=1, n=4, k=6, w2=0.25, ell=2.0, bernoulli=False)
    @example(pop_seed=1, n=5, k=4, w2=0.5, ell=2.0, bernoulli=True)
    def test_equals_brute_force_enumeration(self, pop_seed, n, k, w2, ell, bernoulli):
        pop, design, cfg = simulation_case(
            pop_seed, n, k, w2, ell, bernoulli, exhaustive=False, replicates=2, seed=1
        )
        got = _exact_errors(_start_table(pop, design, cfg.nr), cfg.estimators)
        expected = enumerated_errors(pop, design, cfg.nr, cfg.estimators)
        scale = abs(float(pop.y.mean()))
        for (mse, bias), (mse_ref, bias_ref) in zip(got, expected):
            assert mse == pytest.approx(mse_ref, rel=1e-12, nan_ok=True)
            assert bias == pytest.approx(bias_ref, rel=1e-12, abs=1e-12 * scale, nan_ok=True)

    def test_a_start_where_h_fails_is_left_out(self):
        # The failing member is undefined at some starts of this case, not all.
        pop, design, cfg = simulation_case(
            pop_seed=1, n=4, k=6, w2=0.25, ell=2.0, bernoulli=False, exhaustive=False,
            replicates=2, seed=1,
        )
        failing = cfg.estimators[-1]
        assert 0 < run_simulation(pop, design, dataclasses.replace(
            cfg, estimators=(failing,), replicates=12, exhaustive_start=True
        )).results[0].n_failed < 12
        [(mse, bias)] = _exact_errors(_start_table(pop, design, cfg.nr), [failing])
        [(mse_ref, bias_ref)] = enumerated_errors(pop, design, cfg.nr, [failing])
        assert math.isfinite(mse)
        assert mse == pytest.approx(mse_ref, rel=1e-12)
        assert bias == pytest.approx(bias_ref, rel=1e-12)

    @pytest.mark.parametrize("bernoulli", [False, True])
    def test_nan_when_h_fails_at_every_start(self, bernoulli):
        pop, design, cfg = simulation_case(
            pop_seed=2, n=4, k=5, w2=0.25, ell=2.0, bernoulli=bernoulli, exhaustive=False,
            replicates=2, seed=1,
        )
        # a·Xbar + b = 0, so the g = -1 member is singular on every sample.
        never = EstimatorSpec("never", FamilyParams(1.0, -1.0, b=-float(pop.x.mean())))
        [(mse, bias)] = _exact_errors(_start_table(pop, design, cfg.nr), [never])
        assert math.isnan(mse) and math.isnan(bias)
        assert all(map(math.isnan, enumerated_errors(pop, design, cfg.nr, [never])[0]))

    def test_full_response_hh_is_the_variance_of_the_sample_means(self, rng):
        design = SystematicDesign(N=20, n=4)
        values = rng.normal(3.0, 2.0, 20)
        pop = FinitePopulation(y=values, x=rng.uniform(1.0, 2.0, 20))
        means = [np.mean([values[u - 1] for u in s]) for s in enumerate_samples(design)]
        expected = np.mean((np.array(means) - values.mean()) ** 2)
        [(mse, bias)] = _exact_errors(_start_table(pop, design, NO_NR), [EstimatorSpec("hh")])
        assert mse == pytest.approx(expected, rel=1e-14)
        assert bias == pytest.approx(0.0, abs=1e-14 * abs(values.mean()))

    @pytest.mark.parametrize("size", ["SMALL", "LARGE"])
    def test_hh_is_the_benchmark_oracle(self, tmp_path, size):
        # The sim_n12 and reports_large populations (benchmark seed 1), with
        # the stratum of the first sim_n12 call (master seed 1000).
        inputs = perfbench_inputs()
        bench = inputs.write_population(tmp_path, getattr(inputs, size), 1)
        pop, design = FinitePopulation(y=bench.y, x=bench.x), SystematicDesign(bench.N, bench.n)
        units = inputs.fixed_stratum(bench.N, 0.25, 1000)
        cases = [
            (NonResponseModel(0.25, 2.0, stratum=frozenset(int(u) + 1 for u in units)),
             inputs.exact_hh_mse_fixed(bench, units, 2.0)),
            (NonResponseModel(0.25, 2.0, mode=StratumMode.BERNOULLI_PER_REPLICATE),
             inputs.exact_hh_mse_bernoulli(bench, 0.25, 2.0)),
        ]
        for nr, expected in cases:
            [(mse, _)] = _exact_errors(_start_table(pop, design, nr), [EstimatorSpec("hh")])
            assert mse == pytest.approx(expected, rel=1e-12)

    def test_readme_simulate_example_agrees_with_the_oracle(self, tmp_path):
        # README's first simulate example exits 1 against first-order theory;
        # against the exact MSE its z-scores are +1.38, -1.31 and -0.95.
        pop_csv, out = tmp_path / "pop.csv", tmp_path / "report.json"
        assert main(["synthesize", "--units", "240", "--rho", "0.9", "--seed", "28",
                     "--out", str(pop_csv)]) == 0
        assert main(["simulate", str(pop_csv), "--n", "12", "--w2", "0.25", "--ell", "2",
                     "--replicates", "20000", "--seed", "7", "--format", "json",
                     "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        stratum = frozenset(int(u) + 1 for u in design_rng(7).choice(240, 60, replace=False))
        specs = [
            EstimatorSpec("hh"),
            EstimatorSpec("ratio", PRESETS["ratio"]),
            EstimatorSpec("family", FamilyParams(report["alpha"])),
        ]
        pop = synthetic_linear_population(240, rho_target=0.9, seed=28)
        nr = NonResponseModel(0.25, 2.0, stratum=stratum)
        table = _start_table(pop, SystematicDesign(240, 12), nr)
        z = {
            result["label"]: (result["empirical_mse"] - mse) / result["mc_se_mse"]
            for result, (mse, _) in zip(report["results"], _exact_errors(table, specs))
        }
        assert [round(z[label], 2) for label in ("hh", "ratio", "family")] == [1.38, -1.31, -0.95]


# Master seeds of 1, 2, 4 and 5 or more 32-bit words.
SEEDS = [0, 1, 28, 20250811, 2**32 - 1, 2**32, 2**128 - 1, 2**128, 2**128 + 1, 10**50]
INDICES = [0, 1, SEED_BLOCK - 1, SEED_BLOCK, SEED_BLOCK + 1]


def assert_same_stream(words, master_seed, rep):
    batched = np.random.Generator(np.random.PCG64(_StreamSeed(words)))
    reference = replicate_rng(master_seed, rep)
    assert batched.bit_generator.state == reference.bit_generator.state
    assert batched.random(3).tolist() == reference.random(3).tolist()
    assert batched.integers(1, 21, size=4).tolist() == reference.integers(1, 21, size=4).tolist()
    draws = [rng.choice(7, 3, replace=False).tolist() for rng in (batched, reference)]
    assert draws[0] == draws[1]


class TestBlockSeeding:
    """The streams seeded a block at a time are replicate_rng's streams, bit for bit."""

    @pytest.mark.parametrize("master_seed", SEEDS)
    @pytest.mark.parametrize("rep", INDICES)
    def test_block_row_is_the_reference_stream(self, master_seed, rep):
        first = rep // SEED_BLOCK * SEED_BLOCK
        words = _stream_words(master_seed, first, first + SEED_BLOCK)[rep - first]
        spawned = np.random.SeedSequence(master_seed, spawn_key=(rep + 1,))
        assert words.tolist() == spawned.generate_state(4, np.uint64).tolist()
        assert_same_stream(words, master_seed, rep)

    @settings(max_examples=200, deadline=None)
    @given(master_seed=st.integers(0, 2**192 - 1), rep=st.integers(0, 2**20 - 1))
    def test_any_seed_and_index(self, master_seed, rep):
        assert_same_stream(_stream_words(master_seed, rep, rep + 1)[0], master_seed, rep)

    def test_last_spawn_key_is_one_word(self):
        rep = MAX_REPLICATES - 1
        assert_same_stream(_stream_words(7, rep, rep + 1)[0], 7, rep)

    @pytest.mark.parametrize("bernoulli", [False, True])
    def test_reports_match_the_per_unit_path_across_a_block(self, bernoulli):
        pop, design, cfg = simulation_case(
            pop_seed=8, n=6, k=5, w2=0.5, ell=2.0, bernoulli=bernoulli, exhaustive=False,
            replicates=SEED_BLOCK + 3, seed=2**40 + 9,
        )
        assert repr(run_simulation(pop, design, cfg)) == repr(per_unit_report(pop, design, cfg))

    def test_replicate_count_is_bounded_by_one_word_spawn_keys(self):
        hh_only(MAX_REPLICATES, seed=1)
        with pytest.raises(ConfigurationError, match="replicates must be <= 4294967295"):
            hh_only(MAX_REPLICATES + 1, seed=1)


# Lemire's rule rejects a leftover below 2**32 mod span, a quarter of all
# half-words at span REJECTING + 1.
REJECTING = 3 * 2**30 - 1

MASK32 = np.uint64(2**32 - 1)


def stream_words(master_seed, rep, count):
    """A Generator on replicate rep's stream and `count` raw words of that stream."""
    seed = _stream_words(master_seed, rep, rep + 1)[0]
    rng = np.random.Generator(np.random.PCG64(_StreamSeed(seed)))
    return rng, np.random.PCG64(_StreamSeed(seed)).random_raw(count)


def half_words(words):
    """Each word's low half, then its high half: the order a Generator takes them in."""
    return np.stack((words & MASK32, words >> np.uint64(32)), axis=-1).reshape(-1)


def lemire_draws(halves, spans):
    """Successive bounded draws over `spans` on a run of half-words, each at the
    next half-word that `_lemire` does not flag at its span."""
    draws, place = [], 0
    for span in spans:
        values, rejected = _lemire(halves[place:], np.uint64(span))
        accepted = np.flatnonzero(~rejected)[0]
        draws.append(int(values[accepted]))
        place += accepted + 1
    return draws


def kernel_for(n, k, w2=0.25, bernoulli=False):
    """The kernel of a call on a random population of n·k units, L = 2."""
    pop, design, cfg = simulation_case(
        pop_seed=1, n=n, k=k, w2=w2, ell=2.0, bernoulli=bernoulli, exhaustive=False,
        replicates=2, seed=1,
    )
    return _Kernel(pop, design, cfg)


def reads_a_rejected_half_word(kernel, rep, words):
    """Whether a Generator rejects a half-word of replicate rep's raw `words` at
    a draw the kernel makes from them: the start or a follow-up step."""

    def rejected(half, span):
        return half * span % 2**32 < 2**32 % span

    words = [int(word) for word in words]
    halves = [word >> shift & 0xFFFFFFFF for word in words[kernel.follow_up_at :] for shift in (0, 32)]
    start = rep % kernel.k
    if kernel.start_draw:
        if rejected(words[0] & 0xFFFFFFFF, kernel.k):
            return True
        start = (words[0] & 0xFFFFFFFF) * kernel.k >> 32
        halves.insert(0, words[0] >> 32)
    if kernel.fixed:
        n2 = int(kernel.table.stratum.n2[start])
    else:
        n2 = sum(word < kernel.below for word in words[kernel.start_draw : kernel.follow_up_at])
    h2 = int(kernel.table.h2_of[n2])
    return h2 < n2 and any(rejected(halves[s], n2 - h2 + s + 1) for s in range(h2))


# The cases of the block draws on zeroed half-words: n, k, w2, L, --exhaustive,
# whether the start half-word is zeroed and how many follow-up words are.
CRAFTED = [
    (6, 5, 0.5, 2.0, False, True, 0),  # start half-words in the rejection zone
    (8, 5, 0.5, 1.5, False, False, 1),  # follow-up half-words there
    (8, 5, 0.5, 1.5, False, False, 8),  # every follow-up word there
    (8, 5, 0.5, 1.5, True, True, 8),  # --exhaustive
    (8, 1, 0.5, 1.5, False, True, 8),  # k = 1
    (8, 5, 0.0, 1.5, False, True, 8),  # w2 = 0
    (8, 5, 0.5, 1.0, False, True, 8),  # L = 1
]


class TestRawDraws:
    """Each rule the block kernel reads off raw words against numpy's Generator on the same stream."""

    @pytest.mark.parametrize("rep", range(3))
    @pytest.mark.parametrize("r", [1, 19, REJECTING, 2**31, 2**32 - 1])
    def test_bounded_draws_are_integers(self, rep, r):
        # At one span, the draws are `_lemire`'s values where it flags no rejection.
        rng, words = stream_words(7, rep, 16)
        values, rejected = _lemire(half_words(words), np.uint64(r + 1))
        accepted = values[~rejected].tolist()
        assert accepted == rng.integers(0, r + 1, size=len(accepted)).tolist()
        assert len(accepted) >= 8

    def test_bounded_draw_of_zero_takes_no_half_word(self):
        # With k = 1 the kernel draws no start, and its follow-up begins at the
        # first word's low half, where a Generator goes on after integers(0, 1).
        kernel = kernel_for(n=12, k=1)
        rng, words = stream_words(7, 0, 8)
        assert not kernel.start_draw and rng.integers(0, 1) == 0
        halves = kernel._follow_up_halves(words[None, :], 16)[0]
        assert lemire_draws(halves, [REJECTING + 1] * 6) == rng.integers(
            0, REJECTING + 1, size=6
        ).tolist()

    @pytest.mark.parametrize("rep", range(4))
    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize(
        "rs",
        [range(100, 141), range(5000, 4960, -1), range(1, 5),
         range(REJECTING, REJECTING + 40), range(2**31 + 40, 2**31, -1)],
    )
    def test_bounded_draws_over_changing_ranges_are_integers(self, rep, pending, rs):
        # A pending draw leaves the first word's high half for the next one.
        rng, words = stream_words(11, rep, 64)
        spans = [6] * pending + [r + 1 for r in rs] + [REJECTING + 1]
        assert lemire_draws(half_words(words), spans) == [int(rng.integers(0, s)) for s in spans]

    @pytest.mark.parametrize("rep", range(4))
    @pytest.mark.parametrize("p", [0.0, 2**-60, 0.25, 0.5, 1 - 2**-53, "least", "above least"])
    def test_below_is_random_below_p(self, rep, p):
        if p in ("least", "above least"):
            # The least of the 12 doubles, which is not below itself, or the
            # next double after it, which only it is below.
            least = stream_words(3, rep, 0)[0].random(13)[1:].min()
            p = least if p == "least" else np.nextafter(least, 1.0)
        kernel = kernel_for(n=12, k=10, w2=p, bernoulli=True)
        rng, words = stream_words(3, rep, kernel.count)
        starts, miss, _, redo = kernel._raw_draws(words[None, :], rep)
        assert not redo[0]
        assert starts[0] == rng.integers(0, 10)
        assert miss[0].tolist() == (rng.random(12) < p).tolist()

    @pytest.mark.parametrize("p", [2**-60, 0.1, 0.25, 1 / 3, 1 - 2**-53])
    def test_below_at_the_words_around_its_threshold(self, p):
        k = math.ceil(p * 2**53)
        words = [(k << 11) + d for d in (-2049, -2048, -1, 0, 1, 2047, 2048)]
        words = [w for w in words if 0 <= w < 2**64]
        expected = [(w >> 11) * 2.0**-53 < p for w in words]
        # A kernel without a start draw reads its mask off the first words.
        kernel = kernel_for(n=len(words), k=1, w2=p, bernoulli=True)
        row = np.zeros((1, kernel.count), dtype=np.uint64)
        row[0, : len(words)] = words
        assert kernel._raw_draws(row, 0)[1][0].tolist() == expected
        assert True in expected and False in expected

    @pytest.mark.parametrize("rep", range(4))
    @pytest.mark.parametrize("before", ["start", "mask", "nothing"])
    @pytest.mark.parametrize(
        "n2, h2",
        [(2, 1), (7, 6), (20, 15), (30, 16), (40, 39), (300, 150), (10001, 200),
         (10050, 201)],
    )
    def test_sample_is_sorted_choice(self, rep, before, n2, h2):
        kernel = kernel_for(
            **{"start": dict(n=12, k=5), "mask": dict(n=12, k=1, bernoulli=True),
               "nothing": dict(n=12, k=1)}[before]
        )
        rng, words = stream_words(2**40 + 9, rep, kernel.follow_up_at + h2)
        if before == "start":
            assert _lemire(words[:1] & MASK32, np.uint64(5))[0][0] == rng.integers(0, 5)
        elif before == "mask":
            assert (words[:12] < kernel.below).tolist() == (rng.random(12) < 0.25).tolist()
        halves = kernel._follow_up_halves(words[None, :], h2)
        taken, rejected = _floyd(halves, np.array([n2]), np.array([h2]), n2)
        assert not rejected[0]
        chosen = np.flatnonzero(taken[0])
        assert chosen.tolist() == np.sort(rng.choice(n2, h2, replace=False)).tolist()

    @pytest.mark.parametrize("bernoulli", [False, True])
    @pytest.mark.parametrize("n, k, w2, ell, exhaustive, zero_start, zero_words", CRAFTED)
    def test_block_draws_on_crafted_words(
        self, bernoulli, n, k, w2, ell, exhaustive, zero_start, zero_words
    ):
        # On every other row, the start word's low half is zeroed if zero_start,
        # and its high half and the first zero_words follow-up words if
        # zero_words.  A zero half-word is rejected at every span but a power of two.
        pop, design, cfg = simulation_case(
            pop_seed=4, n=n, k=k, w2=w2, ell=ell, bernoulli=bernoulli, exhaustive=exhaustive,
            replicates=60, seed=2**40 + 5,
        )
        kernel = _Kernel(pop, design, cfg)
        words = np.array([
            np.random.PCG64(_StreamSeed(seed)).random_raw(kernel.count)
            for seed in _stream_words(cfg.master_seed, 0, cfg.replicates)
        ])
        crafted = words[1::2]
        if zero_start:
            crafted[:, 0] &= ~MASK32
        if zero_words:
            crafted[:, 0] &= MASK32
            crafted[:, kernel.follow_up_at : kernel.follow_up_at + zero_words] = 0
        expected = [reads_a_rejected_half_word(kernel, rep, row) for rep, row in enumerate(words)]
        assert kernel._raw_draws(words, 0)[3].tolist() == expected
        assert 0 < sum(expected) <= len(crafted)

    @pytest.mark.parametrize("bernoulli", [False, True])
    @pytest.mark.parametrize("n, k, w2, ell, exhaustive", dict.fromkeys(c[:5] for c in CRAFTED))
    def test_flagged_rows_are_drawn_again_by_a_generator(
        self, monkeypatch, bernoulli, n, k, w2, ell, exhaustive
    ):
        pop, design, cfg = simulation_case(
            pop_seed=4, n=n, k=k, w2=w2, ell=ell, bernoulli=bernoulli, exhaustive=exhaustive,
            replicates=60, seed=2**40 + 5,
        )
        lemire, draw_row, redrawn = sysmean.montecarlo._lemire, _Kernel._draw_row, []

        # Every other row is flagged, and its draws read off the words are wrong.
        def every_other_row(halves, span):
            values, rejected = lemire(halves, span)
            values[::2], rejected[::2] = 0, True
            return values, rejected

        def counted(self, seed, rep, *args):
            redrawn.append(rep)
            draw_row(self, seed, rep, *args)

        monkeypatch.setattr(sysmean.montecarlo, "_lemire", every_other_row)
        monkeypatch.setattr(_Kernel, "_draw_row", counted)
        assert repr(run_simulation(pop, design, cfg)) == repr(per_unit_report(pop, design, cfg))
        assert 0 < len(redrawn) < cfg.replicates

    @pytest.mark.parametrize("bernoulli", [False, True])
    def test_raw_words_and_a_generator_give_one_report(self, monkeypatch, bernoulli):
        pop, design, cfg = simulation_case(
            pop_seed=8, n=60, k=4, w2=0.5, ell=1.5, bernoulli=bernoulli,
            exhaustive=False, replicates=80, seed=2**40 + 3,
        )
        reports = []
        # Every follow-up through a Generator, then every one off the raw words.
        for choice_min in (1, 200):
            monkeypatch.setattr(sysmean.montecarlo, "_CHOICE_MIN", choice_min)
            reports.append(repr(run_simulation(pop, design, cfg)))
        assert reports[0] == reports[1]
