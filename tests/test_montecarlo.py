import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sysmean.montecarlo
from conftest import random_population
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
    apply_nonresponse,
    aux_mean,
    compare_to_theory,
    compute_moments,
    derived_constants,
    draw_sample,
    enumerate_samples,
    enumerated_design_variance,
    family_estimate,
    hh_mean,
    optimum_alpha,
    product_estimate,
    ratio_estimate,
    run_simulation,
    var_mean_y,
)
from sysmean.datasets import synthetic_linear_population
from sysmean.montecarlo import (
    MAX_REPLICATES,
    SEED_BLOCK,
    EstimatorResult,
    SimulationReport,
    _report,
    _stream_words,
    _StreamSeed,
    replicate_rng,
)

NO_NR = NonResponseModel(w2=0.0, ell=1.0)


def hh_only(replicates, seed, exhaustive=False, nr=NO_NR):
    return SimulationConfig(
        replicates=replicates,
        master_seed=seed,
        estimators=(EstimatorSpec("hh", "hh"),),
        nr=nr,
        exhaustive_start=exhaustive,
    )


class TestExhaustiveMode:
    def test_full_response_reproduces_design_variance(self):
        pop = synthetic_linear_population(60, rho_target=0.85, seed=11)
        design = SystematicDesign(N=60, n=6)
        report = run_simulation(pop, design, hh_only(10, seed=1, exhaustive=True))
        result = report.by_label("hh")
        enum_var = enumerated_design_variance(pop.y, design)
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
            EstimatorSpec("hh", "hh"),
            EstimatorSpec("ratio", "ratio"),
            EstimatorSpec("product", "product"),
            EstimatorSpec("family", "family", FamilyParams(alpha=0.5, g=1.0)),
        )
        cfg = SimulationConfig(replicates=50, master_seed=2, estimators=specs, nr=NO_NR)
        report = run_simulation(pop, design, cfg)
        for result in report.results:
            assert result.empirical_mse == pytest.approx(0.0, abs=1e-20)


class TestDeterminism:
    def test_identical_config_gives_identical_report(self):
        pop = synthetic_linear_population(60, seed=7)
        design = SystematicDesign(N=60, n=5)
        stratum = frozenset(range(1, 16))
        nr = NonResponseModel(w2=0.25, ell=2.0, stratum=stratum)
        specs = (
            EstimatorSpec("hh", "hh"),
            EstimatorSpec("family", "family", FamilyParams(alpha=0.9)),
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
        specs = (EstimatorSpec("hh", "hh"), EstimatorSpec("ratio", "ratio"))
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
            EstimatorSpec("product", "product"),
            EstimatorSpec("family", "family", FamilyParams(alpha=1.0, g=-1.0)),
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

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("hh", FamilyParams(alpha=0.0)),
            ("ratio", FamilyParams(alpha=1.0, g=-1.0)),
            ("product", FamilyParams(alpha=1.0, g=1.0)),
            ("ratio", FamilyParams(alpha=1.0, g=1.0, b=2.0)),
        ],
    )
    def test_preset_kind_rejects_other_params(self, kind, params):
        with pytest.raises(ConfigurationError, match="preset"):
            EstimatorSpec(kind, kind, params)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("hh", None),
            ("ratio", FamilyParams(alpha=1.0, g=1.0)),
            ("product", FamilyParams(alpha=1.0, g=-1.0)),
        ],
    )
    def test_preset_kind_fills_in_its_params(self, kind, params):
        assert EstimatorSpec(kind, kind).params == params
        assert EstimatorSpec(kind, kind, params) == EstimatorSpec(kind, kind)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(
                replicates=10,
                master_seed=0,
                estimators=(EstimatorSpec("a", "hh"), EstimatorSpec("a", "ratio")),
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

    def test_family_kind_requires_params(self):
        with pytest.raises(ConfigurationError):
            EstimatorSpec("family", "family")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            EstimatorSpec("x", "median")


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
            EstimatorSpec("hh", "hh"),
            EstimatorSpec("family", "family", FamilyParams(alpha=alpha)),
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


def simulation_peak_bytes(pop, design, cfg):
    tracemalloc.start()
    try:
        run_simulation(pop, design, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_replicate_arrays_take_under_85_bytes_per_replicate(self):
        # ybar*, the start and three estimates and failure flags take 43 bytes of
        # every replicate; the rest is aggregation temporaries.
        pop = synthetic_linear_population(240, seed=3)
        design = SystematicDesign(240, 12)
        specs = (
            EstimatorSpec("hh", "hh"),
            EstimatorSpec("ratio", "ratio"),
            EstimatorSpec("family", "family", FamilyParams(0.5)),
        )
        small, large = (
            simulation_peak_bytes(pop, design, SimulationConfig(reps, 7, specs, NO_NR))
            for reps in (8192, 24576)
        )
        assert (large - small) / (24576 - 8192) < 85


# Each estimator kind by its own public definition, not by the family preset.
REFERENCE_ESTIMATORS = {
    "hh": lambda spec, ybar_star, xbar, pop_mean_x: ybar_star,
    "ratio": lambda spec, *means: ratio_estimate(*means),
    "product": lambda spec, *means: product_estimate(*means),
    "family": lambda spec, *means: family_estimate(*means, spec.params),
}


def per_unit_report(pop, design, cfg):
    """The report along the per-unit reference path: every replicate realized
    unit by unit, and every estimator evaluated on it."""
    samples = enumerate_samples(design)
    pop_mean_x = float(pop.x.mean())
    shape = (len(cfg.estimators), cfg.replicates)
    estimates, failed = np.full(shape, np.nan), np.zeros(shape, dtype=bool)
    for rep in range(cfg.replicates):
        rng = replicate_rng(cfg.master_seed, rep)
        if cfg.exhaustive_start:
            start = rep % design.k + 1
        else:
            start = draw_sample(design, rng)
        realization = apply_nonresponse(samples[start - 1], pop, cfg.nr, rng)
        ybar_star, xbar = hh_mean(realization), aux_mean(realization)
        for j, spec in enumerate(cfg.estimators):
            try:
                estimates[j, rep] = REFERENCE_ESTIMATORS[spec.kind](
                    spec, ybar_star, xbar, pop_mean_x
                )
            except (SingularityError, DomainError):
                failed[j, rep] = True
    return _report(pop, cfg, estimates, failed)


def simulation_case(pop_seed, n, k, w2, ell, bernoulli, exhaustive, replicates, seed):
    rng = np.random.default_rng(pop_seed)
    pop = random_population(rng, n * k)
    if bernoulli:
        nr = NonResponseModel(w2=w2, ell=ell, mode=StratumMode.BERNOULLI_PER_REPLICATE)
    else:
        size = round(w2 * n * k)
        stratum = frozenset(int(u) + 1 for u in rng.choice(n * k, size=size, replace=False))
        nr = NonResponseModel(w2=w2, ell=ell, stratum=stratum)
    pop_mean_x = float(pop.x.mean())
    specs = (
        EstimatorSpec("hh", "hh"),
        EstimatorSpec("ratio", "ratio"),
        EstimatorSpec("product", "product"),
        EstimatorSpec("family", "family", FamilyParams(alpha=0.8, g=1.5, b=2.0)),
        # base < 0, a DomainError, on samples with xbar above Xbar + 1/6
        EstimatorSpec(
            "failing", "family", FamilyParams(alpha=3.0, g=0.5, b=-(pop_mean_x + 0.5))
        ),
    )
    cfg = SimulationConfig(
        replicates=replicates,
        master_seed=seed,
        estimators=specs,
        nr=nr,
        exhaustive_start=exhaustive,
    )
    return pop, SystematicDesign(N=n * k, n=n), cfg


class TestPerStartTableKernel:
    """run_simulation against the per-unit path and the per-replicate estimators
    it replaces, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        pop_seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 24),
        k=st.integers(1, 6),
        w2=st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.8]) | st.floats(0.0, 0.9),
        ell=st.sampled_from([1.0, 1.5, 2.0, 3.0, 1e9]) | st.floats(1.0, 10.0),
        bernoulli=st.booleans(),
        exhaustive=st.booleans(),
        replicates=st.integers(2, 40),
        seed=st.integers(0, 2**63),
    )
    @example(pop_seed=1, n=20, k=1, w2=0.5, ell=1.5, bernoulli=False, exhaustive=False,
             replicates=30, seed=3)
    @example(pop_seed=2, n=24, k=4, w2=0.0, ell=2.0, bernoulli=False, exhaustive=True,
             replicates=12, seed=4)
    @example(pop_seed=3, n=24, k=4, w2=0.5, ell=1.0, bernoulli=True, exhaustive=False,
             replicates=30, seed=5)
    @example(pop_seed=4, n=24, k=3, w2=0.5, ell=1e9, bernoulli=False, exhaustive=False,
             replicates=30, seed=6)
    @example(pop_seed=5, n=24, k=3, w2=0.5, ell=1.6, bernoulli=True, exhaustive=True,
             replicates=30, seed=7)
    def test_reports_match_the_per_unit_path(self, **case):
        pop, design, cfg = simulation_case(**case)
        expected = per_unit_report(pop, design, cfg)
        assert repr(run_simulation(pop, design, cfg)) == repr(expected)

    def test_failing_family_spec_fails_on_some_replicates(self):
        pop, design, cfg = simulation_case(
            pop_seed=1, n=4, k=6, w2=0.25, ell=2.0, bernoulli=False, exhaustive=True,
            replicates=12, seed=3,
        )
        failing = run_simulation(pop, design, cfg).by_label("failing")
        assert 0 < failing.n_failed < cfg.replicates

    def test_per_unit_path_is_not_called(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_simulation called the per-unit path")

        for name in ("apply_nonresponse", "hh_mean", "aux_mean"):
            monkeypatch.setattr(sysmean.montecarlo, name, refuse)
        for bernoulli in (False, True):
            pop, design, cfg = simulation_case(
                pop_seed=9, n=12, k=5, w2=0.25, ell=2.0, bernoulli=bernoulli,
                exhaustive=False, replicates=50, seed=11,
            )
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
