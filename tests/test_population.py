import dataclasses
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysmean import (
    ConfigurationError,
    DegenerateInputError,
    DesignError,
    DomainError,
    FinitePopulation,
    ParseError,
    PopulationMoments,
    SystematicDesign,
    compute_moments,
    intraclass_correlation,
    load_population,
    population_fingerprint,
    sorted_by_auxiliary,
    stratum_mean_square,
)
from conftest import brute_force_intraclass, random_population


class TestFinitePopulation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            FinitePopulation(y=(1.0, 2.0), x=(1.0,))

    def test_rejects_single_unit(self):
        with pytest.raises(DomainError):
            FinitePopulation(y=(1.0,), x=(1.0,))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            FinitePopulation(y=(1.0, math.nan), x=(1.0, 2.0))

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(DomainError, match="one-dimensional"):
            FinitePopulation(y=[[1.0, 2.0], [3.0, 4.0]], x=[[1.0, 2.0], [3.0, 4.0]])

    def test_values_are_read_only(self):
        pop = FinitePopulation(y=(1.0, 2.0), x=(3.0, 4.0))
        with pytest.raises(ValueError):
            pop.y[0] = 5.0
        with pytest.raises(ValueError):
            pop.x[1] = 5.0
        assert pop.y.dtype == np.float64 and pop.x.dtype == np.float64

    def test_copies_its_input(self):
        y = np.array([1.0, 2.0, 3.0])
        x = np.array([4.0, 5.0, 6.0])
        pop = FinitePopulation(y=y, x=x)
        fingerprint = population_fingerprint(pop)
        y[0] = 100.0
        x[:] = 0.0
        assert pop.y.tolist() == [1.0, 2.0, 3.0]
        assert pop.x.tolist() == [4.0, 5.0, 6.0]
        assert population_fingerprint(pop) == fingerprint

    def test_fingerprint_tracks_content_and_order(self):
        a = FinitePopulation(y=(1.0, 2.0), x=(3.0, 4.0))
        b = FinitePopulation(y=(2.0, 1.0), x=(4.0, 3.0))
        assert population_fingerprint(a) == population_fingerprint(a)
        assert population_fingerprint(a) != population_fingerprint(b)


class TestLoadPopulation:
    def test_four_row_file_preserves_order(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("vol,len\n10,1\n20,2\n30,3\n40,4\n")
        pop = load_population(path, y_column="vol", x_column="len")
        assert pop.N == 4
        assert pop.y.tolist() == [10.0, 20.0, 30.0, 40.0]
        assert pop.x.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_tab_delimited(self, tmp_path):
        path = tmp_path / "pop.tsv"
        path.write_text("y\tx\n1.5\t2.5\n3.5\t4.5\n")
        pop = load_population(path)
        assert pop.y.tolist() == [1.5, 3.5]

    def test_accepts_text_handle(self):
        pop = load_population(io.StringIO("y,x\n1,2\n3,4\n"))
        assert pop.N == 2

    def test_missing_column_is_configuration_error(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x\n1,2\n3,4\n")
        with pytest.raises(ConfigurationError, match="vol"):
            load_population(path, y_column="vol", x_column="x")

    def test_non_numeric_cell_cites_row_and_column(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x\n1,2\n3,4\nNA,6\n7,8\n")
        with pytest.raises(ParseError, match="row 3.*'y'"):
            load_population(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x\n1,2\ninf,4\n")
        with pytest.raises(ParseError, match="row 2"):
            load_population(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 2"):
            load_population(path)

    def test_single_data_row_is_domain_error(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x\n1,2\n")
        with pytest.raises(DomainError):
            load_population(path)

    def test_utf8_bom_header(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x\n1,2\n3,4\n")
        pop = load_population(path)
        assert pop.y.tolist() == [1.0, 3.0]
        assert pop.x.tolist() == [2.0, 4.0]

    @pytest.mark.parametrize("header", ["y,x,y", "x,y,x", "y,y,x,x"])
    def test_repeated_study_or_auxiliary_column_rejected(self, tmp_path, header):
        path = tmp_path / "pop.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + ",".join(["1"] * width) + "\n"
                        + ",".join(["2"] * width) + "\n")
        with pytest.raises(ConfigurationError, match="appears 2 times"):
            load_population(path)

    def test_other_repeated_names_allowed(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("y,x,,,note,note\n1,2,,,a,b\n3,4,,,c,d\n")
        pop = load_population(path)
        assert pop.y.tolist() == [1.0, 3.0]


class TestSortedByAuxiliary:
    def test_sorts_ascending_by_x(self):
        pop = FinitePopulation(y=(10.0, 20.0, 30.0), x=(3.0, 1.0, 2.0))
        out = sorted_by_auxiliary(pop)
        assert out.x.tolist() == [1.0, 2.0, 3.0]
        assert out.y.tolist() == [20.0, 30.0, 10.0]

    def test_sort_is_stable(self):
        pop = FinitePopulation(y=(1.0, 2.0, 3.0), x=(5.0, 5.0, 1.0))
        out = sorted_by_auxiliary(pop)
        assert out.y.tolist() == [3.0, 1.0, 2.0]

    def test_rejects_unknown_key(self):
        pop = FinitePopulation(y=(1.0, 2.0), x=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            sorted_by_auxiliary(pop, by="z")


class TestIntraclassCorrelation:
    def test_perfect_within_sample_homogeneity(self):
        design = SystematicDesign(N=4, n=2)
        assert intraclass_correlation([1.0, 2.0, 1.0, 2.0], design) == pytest.approx(1.0)

    def test_hand_checked_negative_case(self):
        # samples {1,3} and {2,4}: cross-product sum -3.0, denominator 5.0
        design = SystematicDesign(N=4, n=2)
        value = intraclass_correlation([1.0, 2.0, 3.0, 4.0], design)
        assert value == pytest.approx(-0.6, abs=1e-15)

    def test_matches_brute_force_on_random_populations(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(2, 8))
            values = rng.normal(10.0, 4.0, n * k)
            design = SystematicDesign(N=n * k, n=n)
            expected = brute_force_intraclass(values, n, k)
            assert intraclass_correlation(values, design) == pytest.approx(
                expected, abs=1e-12, rel=1e-12
            )

    def test_lower_bound_holds(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(2, 10))
            design = SystematicDesign(N=n * k, n=n)
            value = intraclass_correlation(rng.normal(size=n * k), design)
            assert (n - 1) * value >= -1.0 - 1e-9
            assert value <= 1.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        k=st.integers(2, 6),
        shift=st.floats(-1e3, 1e3),
        scale=st.floats(-50, 50).filter(lambda s: abs(s) > 1e-2),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_affine_invariance(self, n, k, shift, scale, seed):
        values = np.random.default_rng(seed).normal(0.0, 1.0, n * k)
        design = SystematicDesign(N=n * k, n=n)
        base = intraclass_correlation(values, design)
        transformed = intraclass_correlation(scale * values + shift, design)
        assert transformed == pytest.approx(base, abs=1e-9, rel=1e-9)

    def test_block_permutation_invariance(self, rng):
        n, k = 5, 7
        values = rng.normal(0.0, 3.0, n * k)
        design = SystematicDesign(N=n * k, n=n)
        base = intraclass_correlation(values, design)
        perm = rng.permutation(k)
        permuted = np.empty_like(values)
        for new_i, old_i in enumerate(perm):
            for j in range(n):
                permuted[new_i + j * k] = values[old_i + j * k]
        assert intraclass_correlation(permuted, design) == pytest.approx(base, rel=1e-12)

    def test_degenerate_values_rejected(self):
        design = SystematicDesign(N=4, n=2)
        with pytest.raises(DegenerateInputError):
            intraclass_correlation([3.0, 3.0, 3.0, 3.0], design)

    def test_wrong_length_rejected(self):
        design = SystematicDesign(N=4, n=2)
        with pytest.raises(DesignError):
            intraclass_correlation([1.0, 2.0, 3.0], design)


class TestComputeMoments:
    def test_matches_numpy_oracles(self, rng):
        pop = random_population(rng, 24)
        design = SystematicDesign(N=24, n=4)
        m = compute_moments(pop, design)
        y = np.array(pop.y)
        x = np.array(pop.x)
        assert m.mean_y == pytest.approx(y.mean(), rel=1e-14)
        assert m.s2_y == pytest.approx(y.var(ddof=1), rel=1e-14)
        assert m.s2_x == pytest.approx(x.var(ddof=1), rel=1e-14)
        assert m.rho == pytest.approx(np.corrcoef(y, x)[0, 1], rel=1e-12)
        assert m.cv_y == pytest.approx(math.sqrt(m.s2_y) / abs(m.mean_y), rel=1e-14)
        assert m.rho_y == pytest.approx(brute_force_intraclass(pop.y, 4, 6), rel=1e-12)
        assert m.rho_x == pytest.approx(brute_force_intraclass(pop.x, 4, 6), rel=1e-12)
        assert m.s2_y2 is None

    @pytest.mark.parametrize("N, n", [(24, 4), (240, 12), (24000, 1200)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    def test_mean_squares_keep_the_bits_of_var(self, rng, N, n, scale):
        pop = random_population(rng, N)
        pop = FinitePopulation(y=pop.y * scale, x=pop.x / scale)
        m = compute_moments(pop, SystematicDesign(N=N, n=n))
        assert (m.s2_y, m.s2_x) == (pop.y.var(ddof=1), pop.x.var(ddof=1))
        assert m.rho == pytest.approx(np.corrcoef(pop.y, pop.x)[0, 1], rel=1e-12)

    def test_identical_variables_have_unit_correlation(self):
        values = (1.0, 5.0, 2.0, 8.0, 3.0, 9.0)
        pop = FinitePopulation(y=values, x=values)
        m = compute_moments(pop, SystematicDesign(N=6, n=3))
        assert m.rho == pytest.approx(1.0, abs=1e-12)

    def test_stratum_mean_square(self, rng):
        pop = random_population(rng, 12)
        design = SystematicDesign(N=12, n=3)
        stratum = {2, 5, 7, 11}
        m = dataclasses.replace(
            compute_moments(pop, design), s2_y2=stratum_mean_square(pop, stratum)
        )
        values = np.array([pop.y[u - 1] for u in sorted(stratum)])
        assert m.s2_y2 == pytest.approx(values.var(ddof=1), rel=1e-14)

    def test_fractional_unit_ids_refused(self, rng):
        # Truncated, they would read as the units 1-3.
        pop = random_population(rng, 12)
        with pytest.raises(DesignError, match=r"stratum unit id 1\.5 is not an integer"):
            stratum_mean_square(pop, [1.5, 2.7, 3.9])

    def test_small_stratum_flagged(self, rng):
        pop = random_population(rng, 12)
        with pytest.raises(DomainError, match="at least 2"):
            stratum_mean_square(pop, {3})

    def test_zero_mean_rejected(self):
        pop = FinitePopulation(y=(-1.0, 1.0, -2.0, 2.0), x=(1.0, 2.0, 3.0, 4.0))
        with pytest.raises(DegenerateInputError):
            compute_moments(pop, SystematicDesign(N=4, n=2))

    @pytest.mark.parametrize("column", ["y", "x"])
    @pytest.mark.parametrize("scale, how", [(1e202, "overflows"), (1e-198, "underflows to 0")])
    def test_an_unrepresentable_mean_square_is_named(self, rng, column, scale, how):
        pop = random_population(rng, 240)
        columns = {"y": pop.y, "x": pop.x, column: scale * (1.0 + pop.x / 10.0)}  # distinct
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^the mean square of {column} {how};"):
                compute_moments(FinitePopulation(**columns), SystematicDesign(N=240, n=12))

    @pytest.mark.parametrize("column", ["y", "x"])
    def test_an_intraclass_correlation_that_overflows_is_named(self, column):
        # Finite mean squares, but each sample sums 12 equal values near 1e153.
        unit = np.arange(1, 241)
        columns = {"y": 10.0 + unit, "x": 20.0 + unit / 10.0,
                   column: 5e152 * ((unit % 20) - 9.5) / 5}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                DomainError, match=f"^the intraclass correlation of {column} overflows;"
            ):
                compute_moments(FinitePopulation(**columns), SystematicDesign(N=240, n=12))

    @pytest.mark.parametrize("column", ["y", "x"])
    @pytest.mark.parametrize("value", [0.1, 1e202, 1e-198])
    def test_a_column_of_equal_values_is_constant(self, rng, column, value):
        pop = random_population(rng, 240)
        columns = {"y": pop.y, "x": pop.x, column: np.full(240, value)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="constant variable"):
                compute_moments(FinitePopulation(**columns), SystematicDesign(N=240, n=12))

    def test_design_size_mismatch(self, rng):
        pop = random_population(rng, 12)
        with pytest.raises(DesignError):
            compute_moments(pop, SystematicDesign(N=10, n=2))

    def test_concatenated_population_consistency(self, rng):
        # doubling the population (same n, k -> 2k) must agree with a fresh
        # brute-force recomputation on the concatenated data
        n, k = 4, 5
        pop = random_population(rng, n * k)
        double = FinitePopulation(
            y=np.concatenate([pop.y, pop.y]), x=np.concatenate([pop.x, pop.x])
        )
        design2 = SystematicDesign(N=2 * n * k, n=n)
        m2 = compute_moments(double, design2)
        y2 = np.array(double.y)
        assert m2.mean_y == pytest.approx(np.mean(pop.y), rel=1e-12)
        assert m2.s2_y == pytest.approx(y2.var(ddof=1), rel=1e-12)
        assert m2.rho == pytest.approx(np.corrcoef(double.y, double.x)[0, 1], rel=1e-9)
        assert m2.rho_y == pytest.approx(
            brute_force_intraclass(double.y, n, 2 * k), rel=1e-9, abs=1e-9
        )


class TestPopulationMoments:
    def test_from_parameters_derives_cvs(self):
        m = PopulationMoments(
            mean_y=10.0, mean_x=5.0, s2_y=4.0, s2_x=1.0, rho=0.5, rho_y=0.1, rho_x=0.2
        )
        assert m.cv_y == pytest.approx(0.2)
        assert m.cv_x == pytest.approx(0.2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["mean_y", "mean_x", "s2_y", "s2_x", "rho", "rho_y", "rho_x", "s2_y2"]
    )
    def test_non_finite_field_rejected(self, field, value):
        params = dict(
            mean_y=10.0, mean_x=5.0, s2_y=4.0, s2_x=1.0, rho=0.5, rho_y=0.1, rho_x=0.2,
            s2_y2=2.0,
        )
        PopulationMoments(**params)
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            PopulationMoments(**{**params, field: value})

    def test_correlation_range_enforced(self):
        with pytest.raises(DomainError):
            PopulationMoments(
                mean_y=10.0, mean_x=5.0, s2_y=4.0, s2_x=1.0, rho=1.5, rho_y=0.1, rho_x=0.2
            )
