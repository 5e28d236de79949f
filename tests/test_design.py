import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysmean import (
    DesignError,
    DomainError,
    EstimatorSpec,
    NonResponseModel,
    SimulationConfig,
    StratumMode,
    SystematicDesign,
    run_simulation,
)
from sysmean.design import (
    SampleRealization,
    apply_nonresponse,
    draw_sample,
    follow_up_size,
    follow_up_sizes,
    nearest_valid_sample_sizes,
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
    @pytest.mark.parametrize("ell", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3, 1e9])
    def test_table_is_the_size_of_each_count(self, ell):
        assert follow_up_sizes(1200, ell).tolist() == [
            follow_up_size(j, ell) for j in range(1201)
        ]


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
