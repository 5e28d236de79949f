import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysmean import (
    DegenerateInputError,
    DerivedConstants,
    DomainError,
    FamilyParams,
    PopulationMoments,
    classical_bias,
    classical_mse,
    derived_constants,
    family_bias,
    family_mse,
    family_mse_min,
    fpc,
    intraclass_from_pre,
    nonresponse_term,
    optimum_alpha,
    pre_optimum,
    var_mean_x,
    var_mean_y,
)
from sysmean.theory import pre_grid

# Forest-strip study parameters (176 strips of timber volume vs. length),
# with both intraclass correlations at the published working value.
FOREST_N, FOREST_SAMPLE = 176, 16
FOREST = PopulationMoments(
    mean_y=282.6136,
    mean_x=6.9943,
    s2_y=24114.67,
    s2_x=8.76,
    rho=0.8710,
    rho_y=0.8710,
    rho_x=0.8710,
    s2_y2=18086.0025,  # = 0.75 * s2_y
)


from conftest import random_moments


class TestDerivedConstants:
    def test_equal_intraclass_gives_unit_rho_star(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        assert c.rho_star == 1.0

    def test_unit_lambda_for_default_parameterization(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N, FamilyParams(alpha=0.5))
        assert c.lam == 1.0

    def test_k_constant_frozen_value(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        assert c.big_k == pytest.approx(1.1309879099378466, rel=1e-12)
        # matches the published working value up to its print precision
        assert c.big_k == pytest.approx(1.1308, abs=5e-4)

    def test_design_factor(self):
        assert fpc(16, 176) == pytest.approx(175 / 2816, rel=1e-15)

    def test_invalid_clustering_factor_rejected(self):
        m = dataclasses.replace(FOREST, rho_x=-0.2)  # 1 + 15*(-0.2) = -2
        with pytest.raises(DomainError):
            derived_constants(m, FOREST_SAMPLE, FOREST_N)


class TestNonresponseTerm:
    def test_vanishes_without_nonresponse(self):
        assert nonresponse_term(FOREST, 16, 0.0, 3.0) == 0.0
        assert nonresponse_term(FOREST, 16, 0.3, 1.0) == 0.0

    def test_requires_stratum_mean_square(self):
        m = dataclasses.replace(FOREST, s2_y2=None)
        with pytest.raises(DomainError, match="s2_y2"):
            nonresponse_term(m, 16, 0.1, 2.0)

    def test_rejects_invalid_rates(self):
        with pytest.raises(DomainError):
            nonresponse_term(FOREST, 16, -0.1, 2.0)
        with pytest.raises(DomainError):
            nonresponse_term(FOREST, 16, 0.1, 0.9)


class TestVariances:
    def test_adjusted_mean_variance_frozen_value(self):
        # 21077.857... between-sample part plus 113.0375 follow-up part
        value = var_mean_y(FOREST, FOREST_SAMPLE, FOREST_N, 0.1, 2.0)
        assert value == pytest.approx(21190.8947142223, rel=1e-10)
        assert var_mean_y(FOREST, FOREST_SAMPLE, FOREST_N) == pytest.approx(
            21077.8571985973, rel=1e-10
        )

    def test_no_clustering_reduces_to_design_factor_form(self):
        m = dataclasses.replace(FOREST, rho_y=0.0)
        assert var_mean_y(m, FOREST_SAMPLE, FOREST_N) == pytest.approx(
            fpc(FOREST_SAMPLE, FOREST_N) * FOREST.s2_y, rel=1e-14
        )

    def test_auxiliary_variance_frozen_value(self):
        assert var_mean_x(FOREST, FOREST_SAMPLE, FOREST_N) == pytest.approx(
            7.656834161931817, rel=1e-12
        )

    def test_full_enumeration_does_not_vanish(self):
        m = dataclasses.replace(FOREST, rho_y=0.0, rho_x=0.0)
        value = var_mean_x(m, 176, 176)
        assert value == pytest.approx(175 / 176**2 * 8.76, rel=1e-12)
        assert value > 0


class TestClassicalBias:
    def test_zero_when_k_rho_star_is_one(self):
        c = DerivedConstants(rho_star=1.0, big_k=1.0, lam=1.0, f=fpc(16, 176))
        assert classical_bias("ratio", FOREST, FOREST_SAMPLE, c) == 0.0

    def test_product_bias_zero_without_correlation(self):
        m = dataclasses.replace(FOREST, rho=0.0)
        c = derived_constants(m, FOREST_SAMPLE, FOREST_N)
        assert classical_bias("product", m, FOREST_SAMPLE, c) == 0.0

    def test_forest_ratio_bias_is_negative(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        value = classical_bias("ratio", FOREST, FOREST_SAMPLE, c)
        assert value < 0
        assert value == pytest.approx(-5.794086817872425, rel=1e-9)

    def test_unknown_kind_rejected(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        with pytest.raises(DomainError):
            classical_bias("regression", FOREST, FOREST_SAMPLE, c)


class TestFamilySpecializations:
    """The classical formulas must be exact specializations of the family."""

    def test_mse_specializations_random_draws(self, rng):
        ratio_params = FamilyParams(alpha=1.0, g=1.0)
        product_params = FamilyParams(alpha=1.0, g=-1.0)
        for _ in range(1000):
            m, n, N = random_moments(rng)
            w2 = float(rng.uniform(0, 0.45))
            ell = float(rng.uniform(1, 4))
            c = derived_constants(m, n, N, ratio_params)
            for kind, params in (("ratio", ratio_params), ("product", product_params)):
                classical = classical_mse(kind, m, n, w2, ell, c)
                family = family_mse(params, m, n, w2, ell, c)
                # bit for bit: str() tells the sign of a zero too
                assert family == classical and str(family) == str(classical)

    def test_bias_specializations_random_draws(self, rng):
        ratio_params = FamilyParams(alpha=1.0, g=1.0)
        product_params = FamilyParams(alpha=1.0, g=-1.0)
        for _ in range(1000):
            m, n, N = random_moments(rng)
            c = derived_constants(m, n, N, ratio_params)
            for kind, params in (("ratio", ratio_params), ("product", product_params)):
                classical = classical_bias(kind, m, n, c)
                family = family_bias(params, m, n, c)
                assert family == classical and str(family) == str(classical)

    def test_alpha_zero_bias_vanishes(self, rng):
        for _ in range(50):
            m, n, N = random_moments(rng)
            c = derived_constants(m, n, N, FamilyParams(alpha=0.0, g=2.5))
            assert family_bias(FamilyParams(alpha=0.0, g=2.5), m, n, c) == 0.0

    def test_bias_at_optimum_alpha_closed_form(self, rng):
        # substituting the optimum alpha leaves bias = prefactor * K^2 * rho*^2 * (1-g)/(2g)
        for _ in range(200):
            m, n, N = random_moments(rng)
            g = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
            p = FamilyParams(alpha=0.0, g=g, a=float(rng.uniform(0.5, 2.0)), b=float(rng.uniform(-0.2, 0.2)))
            c = derived_constants(m, n, N, p)
            alpha = optimum_alpha(c, g)
            bias = family_bias(dataclasses.replace(p, alpha=alpha), m, n, c)
            prefactor = c.f * m.mean_y * (1 + (n - 1) * m.rho_x) * m.cv_x**2
            expected = prefactor * c.big_k**2 * c.rho_star**2 * (1 - g) / (2 * g)
            assert bias == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestFamilyMse:
    def test_alpha_zero_equals_adjusted_mean_variance(self, rng):
        for _ in range(300):
            m, n, N = random_moments(rng)
            w2 = float(rng.uniform(0, 0.45))
            ell = float(rng.uniform(1, 4))
            c = derived_constants(m, n, N)
            assert family_mse(
                FamilyParams(alpha=0.0, g=1.7), m, n, w2, ell, c
            ) == pytest.approx(var_mean_y(m, n, N, w2, ell), rel=1e-12)

    def test_quadratic_and_convex_in_alpha(self, rng):
        for _ in range(100):
            m, n, N = random_moments(rng)
            g = float(rng.uniform(-2, 2)) or 1.0
            c = derived_constants(m, n, N, FamilyParams(alpha=0.0, g=g))
            alphas = np.linspace(-2.0, 2.0, 9)
            values = [
                family_mse(FamilyParams(alpha=float(a), g=g), m, n, 0.1, 2.0, c)
                for a in alphas
            ]
            second_diffs = np.diff(values, 2)
            assert np.all(second_diffs >= -1e-9 * max(abs(v) for v in values))

    def test_optimum_alpha_hand_cases(self):
        c = DerivedConstants(rho_star=1.0, big_k=0.8, lam=1.0, f=0.05)
        assert optimum_alpha(c, 1.0) == pytest.approx(0.8)
        assert optimum_alpha(c, 2.0) == pytest.approx(0.4)
        with pytest.raises(DomainError):
            optimum_alpha(c, 0.0)

    @pytest.mark.parametrize("g, lam", [
        (1e-310, 1.0),  # 0.8 / 1e-310 overflows
        (1e-30, 4e-299),  # g*lambda underflows to 0
    ])
    def test_optimum_alpha_that_overflows_raises(self, g, lam):
        c = DerivedConstants(rho_star=1.0, big_k=0.8, lam=lam, f=0.05)
        with pytest.raises(DomainError, match="optimum alpha .* overflows"):
            optimum_alpha(c, g)

    def test_forest_optimum_equals_k(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        assert optimum_alpha(c, 1.0) == c.big_k

    def test_minimum_attained_at_optimum(self, rng):
        for _ in range(300):
            m, n, N = random_moments(rng)
            g = float(rng.uniform(0.2, 3.0)) * (1 if rng.random() < 0.5 else -1)
            p0 = FamilyParams(
                alpha=0.0, g=g, a=float(rng.uniform(0.5, 3.0)), b=float(rng.uniform(-0.5, 0.5))
            )
            c = derived_constants(m, n, N, p0)
            w2 = float(rng.uniform(0, 0.45))
            ell = float(rng.uniform(1, 4))
            alpha = optimum_alpha(c, g)
            at_opt = family_mse(dataclasses.replace(p0, alpha=alpha), m, n, w2, ell, c)
            minimum = family_mse_min(m, n, w2, ell, c)
            assert at_opt == pytest.approx(minimum, rel=1e-10)

    def test_minimum_invariant_in_family_parameterization(self, rng):
        m, n, N = random_moments(rng)
        values = set()
        for params in (
            None,
            FamilyParams(alpha=0.3, g=2.0, a=1.5, b=0.7),
            FamilyParams(alpha=-1.0, g=-0.5, a=0.2, b=-0.1),
        ):
            c = derived_constants(m, n, N, params)
            values.add(family_mse_min(m, n, 0.2, 2.5, c))
        assert len(values) == 1

    def test_minimum_dominates_all_members(self, rng):
        for _ in range(300):
            m, n, N = random_moments(rng)
            w2 = float(rng.uniform(0, 0.45))
            ell = float(rng.uniform(1, 4))
            c = derived_constants(m, n, N)
            minimum = family_mse_min(m, n, w2, ell, c)
            competitors = (
                var_mean_y(m, n, N, w2, ell),
                classical_mse("ratio", m, n, w2, ell, c),
                classical_mse("product", m, n, w2, ell, c),
            )
            for value in competitors:
                assert minimum <= value * (1 + 1e-12) + 1e-12


class TestFamilyMseMin:
    def test_equals_variance_without_correlation(self):
        m = dataclasses.replace(FOREST, rho=0.0)
        c = derived_constants(m, FOREST_SAMPLE, FOREST_N)
        assert family_mse_min(m, FOREST_SAMPLE, 0.1, 2.0, c) == pytest.approx(
            var_mean_y(m, FOREST_SAMPLE, FOREST_N, 0.1, 2.0), rel=1e-12
        )

    def test_perfect_auxiliary_eliminates_error(self):
        m = PopulationMoments(
            mean_y=20.0, mean_x=10.0, s2_y=16.0, s2_x=4.0,
            rho=1.0, rho_y=0.3, rho_x=0.3, s2_y2=12.0,
        )
        c = derived_constants(m, 4, 20)
        assert family_mse_min(m, 4, 0.0, 1.0, c) == pytest.approx(0.0, abs=1e-12)

    def test_forest_frozen_value(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        assert family_mse_min(FOREST, FOREST_SAMPLE, 0.1, 2.0, c) == pytest.approx(
            5200.368051221246, rel=1e-12
        )

    def test_forest_ratio_mse_dominated_by_minimum(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        ratio = classical_mse("ratio", FOREST, FOREST_SAMPLE, 0.1, 2.0, c)
        minimum = family_mse_min(FOREST, FOREST_SAMPLE, 0.1, 2.0, c)
        assert ratio >= minimum

    def test_regression_equivalence_identity(self, rng):
        # minimum MSE rewritten via the y-clustering factor and 1 - rho^2
        for _ in range(300):
            m, n, N = random_moments(rng)
            w2 = float(rng.uniform(0, 0.45))
            ell = float(rng.uniform(1, 4))
            c = derived_constants(m, n, N)
            direct = family_mse_min(m, n, w2, ell, c)
            identity = fpc(n, N) * (1 + (n - 1) * m.rho_y) * m.s2_y * (
                1 - m.rho**2
            ) + nonresponse_term(m, n, w2, ell)
            assert direct == pytest.approx(identity, rel=1e-12, abs=1e-12)


class TestPreOptimum:
    def test_forest_first_cell(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        pre = pre_optimum(FOREST, FOREST_SAMPLE, FOREST_N, 0.1, 2.0, c)
        assert pre == pytest.approx(407.48836439078315, rel=1e-12)
        assert pre == pytest.approx(407.48, abs=0.05)

    def test_forest_last_cell(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        assert pre_optimum(FOREST, FOREST_SAMPLE, FOREST_N, 0.3, 3.5, c) == pytest.approx(
            369.42, abs=0.05
        )

    def test_forest_misprinted_cell_recomputed(self):
        # the printed 403.22 at (0.4, 2.0) is inconsistent with the formula:
        # the recomputed value matches the (0.2, 3.0) cell, as it must since
        # both share w2 * (ell - 1) = 0.4
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        value = pre_optimum(FOREST, FOREST_SAMPLE, FOREST_N, 0.4, 2.0, c)
        assert value == pytest.approx(388.66, abs=0.05)
        assert abs(value - 403.22) > 10.0
        twin = pre_optimum(FOREST, FOREST_SAMPLE, FOREST_N, 0.2, 3.0, c)
        assert value == pytest.approx(twin, rel=1e-12)

    def test_never_below_100(self, rng):
        for _ in range(300):
            m, n, N = random_moments(rng)
            c = derived_constants(m, n, N)
            pre = pre_optimum(m, n, N, float(rng.uniform(0, 0.45)), float(rng.uniform(1, 4)), c)
            assert pre >= 100.0 - 1e-9

    def test_equals_100_without_correlation(self):
        m = dataclasses.replace(FOREST, rho=0.0)
        c = derived_constants(m, FOREST_SAMPLE, FOREST_N)
        assert pre_optimum(m, FOREST_SAMPLE, FOREST_N, 0.1, 2.0, c) == pytest.approx(
            100.0, abs=1e-9
        )

    def test_strictly_decreasing_in_w2_and_ell(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        pres_w2 = [
            pre_optimum(FOREST, FOREST_SAMPLE, FOREST_N, w2, 2.0, c)
            for w2 in (0.1, 0.2, 0.3, 0.4)
        ]
        assert all(a > b for a, b in zip(pres_w2, pres_w2[1:]))
        pres_ell = [
            pre_optimum(FOREST, FOREST_SAMPLE, FOREST_N, 0.2, ell, c)
            for ell in (1.5, 2.0, 2.5, 3.0)
        ]
        assert all(a > b for a, b in zip(pres_ell, pres_ell[1:]))


def per_cell_grid(m, n, N, w2_grid, ell_grid, c):
    """var_mean_y, family_mse_min and pre_optimum called cell by cell, w2 outermost."""
    columns = ([], [], [])
    for w2 in w2_grid:
        for ell in ell_grid:
            columns[0].append(var_mean_y(m, n, N, w2, ell))
            columns[1].append(family_mse_min(m, n, w2, ell, c))
            columns[2].append(pre_optimum(m, n, N, w2, ell, c))
    return columns


def outcome(grid, *args):
    """Each column as reprs, or the type and text of the error raised."""
    try:
        columns = grid(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    assert all(type(value) is float for column in columns for value in column)
    return [list(map(repr, column)) for column in columns]


class TestPreGrid:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        w2s=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4),
        ells=st.lists(st.floats(1.0, 1e9), max_size=4),
        s2y2_unset=st.booleans(),
        unit_rho=st.sampled_from([None, 1.0, -1.0]),
        bad=st.none()
        | st.tuples(st.just("w2"), st.floats(1.0, 10.0) | st.floats(-10.0, -1e-300))
        | st.tuples(st.just("ell"), st.floats(-10.0, 1.0, exclude_max=True)),
    )
    def test_columns_and_errors_equal_the_per_cell_functions(
        self, data, seed, w2s, ells, s2y2_unset, unit_rho, bad
    ):
        m, n, N = random_moments(np.random.default_rng(seed), with_s2y2=not s2y2_unset)
        if unit_rho is not None:  # the minimum MSE is round-off around zero at w2 = 0
            m = PopulationMoments(
                mean_y=m.mean_y, mean_x=m.mean_x, s2_y=m.s2_y, s2_x=m.s2_x, rho=unit_rho,
                rho_y=m.rho_y, rho_x=m.rho_y, s2_y2=m.s2_y2,
            )
        grids = {"w2": w2s + [0.0], "ell": ells + [1.0]}
        if bad is not None:
            axis, value = bad
            grids[axis].append(value)
        w2_grid = data.draw(st.permutations(grids["w2"]))
        ell_grid = data.draw(st.permutations(grids["ell"]))
        c = derived_constants(m, n, N)
        args = (m, n, N, w2_grid, ell_grid, c)
        assert outcome(pre_grid, *args) == outcome(per_cell_grid, *args)

    @pytest.mark.parametrize("overrides, ell", [({}, 1e308), ({"s2_y": 1e308}, 2.0)])
    def test_a_value_that_overflows_raises_at_its_cell(self, overrides, ell):
        # ell 1e308 overflows the non-response term, so var and min MSE are inf
        # and PRE nan; s2_y 1e308 keeps both finite but overflows 100 * var
        m = dataclasses.replace(FOREST, **overrides)
        c = derived_constants(m, FOREST_SAMPLE, FOREST_N)
        args = (m, FOREST_SAMPLE, FOREST_N, [0.1, 0.3], [2.0, ell], c)
        error = outcome(pre_grid, *args)
        assert error == outcome(per_cell_grid, *args)
        assert error[0] is DomainError and error[1].startswith("a value overflows:")

    def test_forest_grid(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        var, mse_min, pre = pre_grid(FOREST, FOREST_SAMPLE, FOREST_N, [0.1, 0.3], [2.0, 3.5], c)
        assert pre[0] == pytest.approx(407.48836439078315, rel=1e-12)
        assert pre[3] == pytest.approx(369.42, abs=0.05)
        assert len(var) == len(mse_min) == 4


class TestIntraclassFromPre:
    def test_round_trip_recovery(self):
        c = derived_constants(FOREST, FOREST_SAMPLE, FOREST_N)
        target = pre_optimum(FOREST, FOREST_SAMPLE, FOREST_N, 0.1, 2.0, c)
        solved = intraclass_from_pre(target, FOREST, FOREST_SAMPLE, FOREST_N, 0.1, 2.0)
        assert solved == pytest.approx(0.8710, abs=1e-9)

    def test_requires_active_nonresponse_term(self):
        with pytest.raises(DomainError):
            intraclass_from_pre(300.0, FOREST, FOREST_SAMPLE, FOREST_N, 0.0, 2.0)

    def test_unattainable_target_rejected(self):
        with pytest.raises(DomainError):
            intraclass_from_pre(1e9, FOREST, FOREST_SAMPLE, FOREST_N, 0.1, 2.0)

    def test_round_trip_random_moments(self, rng):
        # Oracle: the forward pre_optimum at the recovered r returns the target.
        for _ in range(1000):
            m, n, N = random_moments(rng)
            w2, ell = float(rng.uniform(0.01, 0.9)), float(rng.uniform(1.1, 4.0))
            r = float(rng.uniform(-0.99 / (n - 1), 1.0))
            truth = dataclasses.replace(m, rho_y=r, rho_x=r)
            target = pre_optimum(truth, n, N, w2, ell, derived_constants(truth, n, N))
            solved = intraclass_from_pre(target, m, n, N, w2, ell)
            assert -1.0 / (n - 1) < solved <= 1.0
            back = dataclasses.replace(m, rho_y=solved, rho_x=solved)
            pre = pre_optimum(back, n, N, w2, ell, derived_constants(back, n, N))
            assert abs(pre - target) / target <= 1e-12

    def test_asymptote_target_rejected(self):
        # As r grows without bound the PRE tends to 100/(1 - rho**2), never reached.
        # With unit means and mean squares and rho = 0.6 the target 156.25 makes
        # T*B - 100*A exactly zero in floating point.
        unit = PopulationMoments(
            mean_y=1.0, mean_x=1.0, s2_y=1.0, s2_x=1.0, rho=0.6,
            rho_y=0.0, rho_x=0.0, s2_y2=1.0,
        )
        for m, n, N in ((FOREST, FOREST_SAMPLE, FOREST_N), (unit, 12, 240)):
            target = 100.0 / (1.0 - m.rho**2)
            with pytest.raises(DomainError, match="attainable range"):
                intraclass_from_pre(target, m, n, N, 0.1, 2.0)

    def test_targets_beyond_either_end_rejected(self):
        top = dataclasses.replace(FOREST, rho_y=1.0, rho_x=1.0)
        hi = pre_optimum(top, FOREST_SAMPLE, FOREST_N, 0.1, 2.0,
                         derived_constants(top, FOREST_SAMPLE, FOREST_N))
        for target in (hi * (1.0 + 1e-9), 99.9):
            with pytest.raises(DomainError, match="attainable range"):
                intraclass_from_pre(target, FOREST, FOREST_SAMPLE, FOREST_N, 0.1, 2.0)

    def test_zero_auxiliary_mean_square_is_degenerate(self):
        flat = PopulationMoments(
            mean_y=10.0, mean_x=5.0, s2_y=4.0, s2_x=0.0, rho=0.5,
            rho_y=0.2, rho_x=0.2, s2_y2=3.0,
        )
        with pytest.raises(DegenerateInputError):
            intraclass_from_pre(150.0, flat, 12, 240, 0.2, 2.0)

    def test_invalid_template_intraclass_still_solves(self):
        # rho_y = -0.5 at n = 12 makes 1 + (n-1)*rho_y negative; the template's
        # intraclass correlations are replaced, so the solve does not depend on them.
        m = dataclasses.replace(FOREST, rho_y=-0.5, rho_x=-0.5)
        truth = dataclasses.replace(FOREST, rho_y=0.3, rho_x=0.3)
        target = pre_optimum(truth, 12, 240, 0.2, 2.5, derived_constants(truth, 12, 240))
        assert intraclass_from_pre(target, m, 12, 240, 0.2, 2.5) == pytest.approx(0.3, abs=1e-9)
