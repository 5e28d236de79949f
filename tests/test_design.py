import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysmean import (
    DesignError,
    DomainError,
    EstimatorSpec,
    NonResponseModel,
    PopulationMoments,
    SimulationConfig,
    StratumMode,
    SystematicDesign,
    compute_moments,
    intraclass_correlation,
    nonresponse_term,
    run_simulation,
    stratum_mean_square,
)
from sysmean.design import (
    SampleRealization,
    apply_nonresponse,
    draw_sample,
    follow_up_draws,
    follow_up_size,
    follow_up_sizes,
    nearest_valid_sample_sizes,
    valid_sample_sizes,
)
from conftest import random_population
from reference import enumerate_samples


class TestSystematicDesign:
    def test_requires_exact_factorization(self):
        with pytest.raises(DesignError):
            SystematicDesign(N=10, n=3)

    def test_non_divisor_gives_nearest_divisor_hint(self):
        with pytest.raises(
            DesignError, match=r"n=3 does not divide N=10; nearest valid sample sizes: \[2, 5, 10\]"
        ):
            SystematicDesign(N=10, n=3)

    def test_requires_minimum_sample_size(self):
        with pytest.raises(DesignError):
            SystematicDesign(N=4, n=1)

    def test_from_population_size(self):
        design = SystematicDesign(176, 16)
        assert design.k == 11

    def test_from_population_size_suggests_alternatives(self):
        with pytest.raises(DesignError, match="nearest valid sample sizes"):
            SystematicDesign(176, 15)

    def test_nearest_suggestions_are_divisors(self):
        for candidate in nearest_valid_sample_sizes(176, 15):
            assert 176 % candidate == 0

    @pytest.mark.parametrize("n", [2, 7, 15, 100])
    def test_nearest_suggestions_match_brute_force(self, n):
        for N in range(-2, 3001):
            divisors = [d for d in range(2, N + 1) if N % d == 0]
            expected = sorted(divisors, key=lambda c: (abs(c - n), c))[:5]
            assert nearest_valid_sample_sizes(N, n) == expected

    def test_huge_population_size_is_answered_at_once(self):
        with pytest.raises(DesignError, match=r"nearest valid sample sizes: \[8, 5, 4, 10, 2\]"):
            SystematicDesign(10**12, 7)


class TestEnumerateSamples:
    def test_small_design(self):
        assert enumerate_samples(SystematicDesign(N=6, n=3)) == [
            (1, 3, 5),
            (2, 4, 6),
        ]

    def test_two_by_two(self):
        assert enumerate_samples(SystematicDesign(N=4, n=2)) == [(1, 3), (2, 4)]

    def test_forest_survey_shape(self):
        samples = enumerate_samples(SystematicDesign(N=176, n=16))
        assert len(samples) == 11
        assert all(len(s) == 16 for s in samples)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12), k=st.integers(1, 12))
    def test_samples_partition_population(self, n, k):
        design = SystematicDesign(N=n * k, n=n)
        samples = enumerate_samples(design)
        flat = [u for s in samples for u in s]
        assert sorted(flat) == list(range(1, n * k + 1))


def refusal(call) -> tuple[type, str]:
    """The class and text of the error `call()` raises."""
    with pytest.raises(Exception) as refused:
        call()
    return type(refused.value), str(refused.value)


class TestSamples:
    @pytest.mark.parametrize("N, sizes", [
        *((N, valid_sample_sizes(N)) for N in range(2, 61)),  # k = 1 included
        (24000, [12, 1200]),
    ])
    def test_rows_are_the_reference_samples(self, N, sizes):
        units = np.arange(1, N + 1)
        for n in sizes:
            design = SystematicDesign(N, n)
            samples = design.samples(units)
            assert samples.shape == (design.k, n)
            assert np.shares_memory(samples, units)
            assert [tuple(row) for row in samples.tolist()] == enumerate_samples(design)

    @pytest.mark.parametrize("shape", [(23,), (25,), (4, 6), (24, 1)])
    def test_values_of_another_shape_are_refused(self, shape):
        message = f"expected 24 values for design N=24, got {shape}"
        with pytest.raises(DesignError, match=f"^{re.escape(message)}$"):
            SystematicDesign(N=24, n=4).samples(np.zeros(shape))

    def test_a_population_one_unit_short_is_refused_one_way(self):
        design = SystematicDesign(N=24, n=4)
        pop = random_population(np.random.default_rng(5), 23)
        cfg = SimulationConfig(
            replicates=2, master_seed=1, estimators=(EstimatorSpec("hh"),),
            nr=NonResponseModel(w2=0.0, ell=1.0),
        )
        refusals = {
            refusal(lambda: compute_moments(pop, design)),
            refusal(lambda: intraclass_correlation(pop.y, design)),
            refusal(lambda: run_simulation(pop, design, cfg)),
        }
        assert refusals == {(DesignError, "expected 24 values for design N=24, got (23,)")}


class TestDrawSample:
    def test_single_candidate(self):
        design = SystematicDesign(N=8, n=8)
        assert draw_sample(design, np.random.default_rng(0)) == 1

    def test_deterministic_given_seed(self):
        design = SystematicDesign(N=176, n=16)
        a = [draw_sample(design, np.random.default_rng(99)) for _ in range(5)]
        b = [draw_sample(design, np.random.default_rng(99)) for _ in range(5)]
        assert a == b

    def test_uniform_over_candidates(self):
        design = SystematicDesign(N=176, n=16)
        rng = np.random.default_rng(2024)
        draws = 100_000
        counts = np.zeros(11)
        for _ in range(draws):
            counts[draw_sample(design, rng) - 1] += 1
        p = 1.0 / 11.0
        bound = 3.0 * math.sqrt(p * (1 - p) / draws)
        assert np.all(np.abs(counts / draws - p) <= bound)


def simulate(nr, N):
    """Run a 2-replicate hh simulation of `nr` on a random population of N units, n = 2."""
    pop = random_population(np.random.default_rng(3), N)
    cfg = SimulationConfig(
        replicates=2, master_seed=1, estimators=(EstimatorSpec("hh"),), nr=nr
    )
    return run_simulation(pop, SystematicDesign(N=N, n=2), cfg)


class TestNonResponseModel:
    def test_rate_range(self):
        with pytest.raises(DomainError):
            NonResponseModel(w2=1.0, ell=2.0)

    def test_ratio_range(self):
        with pytest.raises(DomainError):
            NonResponseModel(w2=0.1, ell=0.5, stratum=frozenset({1}))

    def test_fixed_mode_requires_stratum(self):
        with pytest.raises(DesignError):
            NonResponseModel(w2=0.25, ell=2.0, mode=StratumMode.FIXED_STRATUM)

    def test_stratum_size_checked_against_population(self):
        nr = NonResponseModel(w2=0.25, ell=2.0, stratum=frozenset({1, 2, 3}))
        simulate(nr, 12)  # round(0.25 * 12) = 3
        with pytest.raises(DesignError):
            simulate(nr, 20)

    def test_stratum_indices_checked(self):
        nr = NonResponseModel(w2=0.25, ell=2.0, stratum=frozenset({1, 99, 3}))
        with pytest.raises(DesignError):
            simulate(nr, 12)

    @pytest.mark.parametrize("stratum", [{0, 1, 2}, {-1, 2, 3}])
    def test_stratum_indices_below_one_checked(self, stratum):
        nr = NonResponseModel(w2=0.25, ell=2.0, stratum=frozenset(stratum))
        with pytest.raises(DesignError, match=r"outside 1\.\.N"):
            simulate(nr, 12)

    def test_fractional_unit_ids_refused(self):
        # Truncated, they would read as the units {1, 2, 3}.
        nr = NonResponseModel(w2=0.25, ell=2.0, stratum=frozenset({1.5, 2.5, 3.5}))
        with pytest.raises(DesignError, match=r"stratum unit id 1\.5 is not an integer"):
            simulate(nr, 12)

    @pytest.mark.parametrize("stratum, message", [
        ({1, 99, 3}, "stratum contains unit indices outside 1..N"),
        ({1.5, 2.5, 3.5}, "stratum unit id 1.5 is not an integer"),
    ])
    def test_a_bad_stratum_id_is_refused_one_way(self, stratum, message):
        nr = NonResponseModel(w2=0.25, ell=2.0, stratum=frozenset(stratum))
        pop = random_population(np.random.default_rng(3), 12)
        refusals = {refusal(lambda: simulate(nr, 12)),
                    refusal(lambda: stratum_mean_square(pop, stratum))}
        assert refusals == {(DesignError, message)}

    def test_bernoulli_mode_refuses_a_stratum(self):
        # Bernoulli mode draws its non-respondents, so a stratum there is an error.
        with pytest.raises(DesignError, match="applies only to FIXED_STRATUM"):
            NonResponseModel(
                w2=0.25, ell=2.0, mode=StratumMode.BERNOULLI_PER_REPLICATE,
                stratum=frozenset({25}),
            )


class TestFollowUpSize:
    def test_no_nonrespondents(self):
        assert follow_up_size(0, 2.0) == 0

    def test_full_followup_when_ell_is_one(self):
        assert follow_up_size(7, 1.0) == 7

    def test_rounding(self):
        assert follow_up_size(4, 2.0) == 2
        assert follow_up_size(1, 3.0) == 1  # max(1, round(1/3))

    # 2.5 and 1.5 are halves: round and np.rint both round them to even.
    @pytest.mark.parametrize("ell", [1.0, 4 / 3, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 7.3, 1e9])
    def test_table_is_the_size_of_each_count(self, ell):
        for n in (*range(41), 1200):
            assert follow_up_sizes(n, ell).tolist() == [
                follow_up_size(j, ell) for j in range(n + 1)
            ]

    def test_halves_round_to_even(self):
        # 5/2 and 9/2 round down to 2 and 4, 7/2 up to 4, and 3/1.5 is 2.
        assert [follow_up_size(j, 2.0) for j in (5, 7, 9)] == [2, 4, 4]
        assert follow_up_sizes(12, 2.0)[[5, 7, 9]].tolist() == [2, 4, 4]
        assert follow_up_size(3, 1.5) == follow_up_sizes(3, 1.5)[3] == 2

    @pytest.mark.parametrize("ell", [1.0, 1.5, 2.0, 3.0, 1e9])
    def test_draws_are_the_size_below_the_count_else_none(self, ell):
        n2 = np.arange(60)
        h2 = follow_up_sizes(59, ell)
        assert (h2 <= n2).all()
        assert follow_up_draws(n2, h2).tolist() == [h if h < j else 0 for j, h in zip(n2, h2)]
        assert [int(follow_up_draws(j, follow_up_size(j, ell))) for j in range(60)] == (
            follow_up_draws(n2, h2).tolist()
        )


class TestRateCheck:
    """`NonResponseModel` and `nonresponse_term` refuse (w2, ell) by one rule."""

    MOMENTS = PopulationMoments(10.0, 5.0, 4.0, 1.0, 0.5, 0.1, 0.1, s2_y2=3.0)

    @pytest.mark.parametrize("w2, ell", [
        (-0.1, 2.0), (1.0, 2.0), (1.5, 0.5), (math.nan, 2.0), (math.inf, 2.0),
        (0.2, 0.999), (0.2, math.nan), (0.0, -math.inf), (-0.0, 0.0),
    ])
    def test_the_model_and_the_theory_refuse_with_one_message(self, w2, ell):
        with pytest.raises(DomainError) as model:
            NonResponseModel(w2, ell, StratumMode.BERNOULLI_PER_REPLICATE)
        with pytest.raises(DomainError) as theory:
            nonresponse_term(self.MOMENTS, 12, w2, ell)
        assert str(model.value) == str(theory.value)
        assert str(model.value).startswith(("non-response rate w2", "sub-sampling ratio ell"))

    @pytest.mark.parametrize("w2, ell", [(0.0, 1.0), (-0.0, 1.0), (0.999, 1e308), (0.5, math.inf)])
    def test_the_model_and_the_theory_accept_the_same_edges(self, w2, ell):
        NonResponseModel(w2, ell, StratumMode.BERNOULLI_PER_REPLICATE)
        assert nonresponse_term(self.MOMENTS, 12, w2, ell) >= 0


class TestApplyNonresponse:
    def test_no_nonresponse(self, rng):
        pop = random_population(rng, 12)
        nr = NonResponseModel(w2=0.0, ell=1.0)
        real = apply_nonresponse((1, 4, 7, 10), pop, nr, rng)
        assert real.respondents == frozenset({1, 4, 7, 10})
        assert real.nonrespondents == frozenset()
        assert real.subsample == frozenset()
        assert len(real.y_observed) == 4
        assert real.sample_index == 1

    def test_full_followup(self, rng):
        pop = random_population(rng, 12)
        nr = NonResponseModel(
            w2=0.25, ell=1.0, stratum=frozenset({4, 7, 10}), mode=StratumMode.FIXED_STRATUM
        )
        real = apply_nonresponse((1, 4, 7, 10), pop, nr, rng)
        assert real.nonrespondents == frozenset({4, 7, 10})
        assert real.subsample == frozenset({4, 7, 10})

    def test_fixed_stratum_subsampling(self, rng):
        pop = random_population(rng, 64)
        units = tuple(range(1, 64, 4))  # 16 units
        stratum = frozenset({1, 9, 17, 25})
        nr = NonResponseModel(w2=0.0625, ell=2.0, stratum=stratum)
        real = apply_nonresponse(units, pop, nr, rng)
        assert len(real.nonrespondents) == 4
        assert len(real.subsample) == 2
        assert real.subsample <= real.nonrespondents
        assert len(real.y_observed) == 12 + 2

    def test_counts_partition(self, rng):
        pop = random_population(rng, 20)
        nr = NonResponseModel(w2=0.3, ell=2.0, mode=StratumMode.BERNOULLI_PER_REPLICATE)
        real = apply_nonresponse((2, 6, 10, 14, 18), pop, nr, rng)
        assert len(real.respondents) + len(real.nonrespondents) == 5
        n1, h2 = len(real.respondents), len(real.subsample)
        assert len(real.y_observed) == n1 + h2
        assert len(real.x_observed) == 5

    def test_observed_values_are_python_floats(self, rng):
        pop = random_population(rng, 20)
        nr = NonResponseModel(w2=0.3, ell=2.0, mode=StratumMode.BERNOULLI_PER_REPLICATE)
        real = apply_nonresponse((2, 6, 10, 14, 18), pop, nr, rng)
        observed = list(real.y_observed.values()) + list(real.x_observed)
        assert all(type(v) is float for v in observed)
        assert list(real.x_observed) == [pop.x[u - 1] for u in (2, 6, 10, 14, 18)]

    def test_bernoulli_rate_converges(self):
        pop = random_population(np.random.default_rng(5), 20)
        nr = NonResponseModel(w2=0.3, ell=2.0, mode=StratumMode.BERNOULLI_PER_REPLICATE)
        rng = np.random.default_rng(77)
        units = (1, 5, 9, 13, 17)
        draws = 20_000
        total = sum(
            len(apply_nonresponse(units, pop, nr, rng).nonrespondents) for _ in range(draws)
        )
        rate = total / (draws * len(units))
        bound = 3.0 * math.sqrt(0.3 * 0.7 / (draws * len(units)))
        assert abs(rate - 0.3) <= bound

    def test_deterministic_given_seed(self):
        pop = random_population(np.random.default_rng(5), 20)
        nr = NonResponseModel(w2=0.4, ell=2.0, mode=StratumMode.BERNOULLI_PER_REPLICATE)
        real_a = apply_nonresponse((1, 5, 9, 13, 17), pop, nr, np.random.default_rng(3))
        real_b = apply_nonresponse((1, 5, 9, 13, 17), pop, nr, np.random.default_rng(3))
        assert real_a == real_b


class TestSampleRealizationInvariants:
    def test_subsample_must_come_from_nonrespondents(self):
        with pytest.raises(DomainError):
            SampleRealization(
                sample_index=1,
                units=(1, 2),
                respondents=frozenset({1}),
                nonrespondents=frozenset({2}),
                subsample=frozenset({1}),
                y_observed={1: 1.0},
                x_observed=(1.0, 2.0),
            )

    def test_nonrespondents_need_followup(self):
        with pytest.raises(DomainError):
            SampleRealization(
                sample_index=1,
                units=(1, 2),
                respondents=frozenset({1}),
                nonrespondents=frozenset({2}),
                subsample=frozenset(),
                y_observed={1: 1.0},
                x_observed=(1.0, 2.0),
            )
