import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sysmean import (
    DomainError,
    FamilyParams,
    SingularityError,
    family_estimate,
    lambda_coefficient,
)
from sysmean.design import SampleRealization
from sysmean.estimators import (
    PRESETS,
    aux_mean,
    hh_mean,
    product_estimate,
    ratio_estimate,
    sequential_totals,
)


def make_realization(respondent_ys, subsample_ys, extra_nonrespondents=0, x=None):
    """Build a realization with the given observed study values."""
    n1, h2 = len(respondent_ys), len(subsample_ys)
    respondents = frozenset(range(1, n1 + 1))
    subsample = frozenset(range(n1 + 1, n1 + h2 + 1))
    nonrespondents = frozenset(range(n1 + 1, n1 + h2 + extra_nonrespondents + 1))
    units = tuple(sorted(respondents | nonrespondents))
    y_observed = dict(zip(sorted(respondents), respondent_ys))
    y_observed.update(zip(sorted(subsample), subsample_ys))
    x_observed = tuple(x) if x is not None else tuple(float(u) for u in units)
    return SampleRealization(
        sample_index=1,
        units=units,
        respondents=respondents,
        nonrespondents=nonrespondents,
        subsample=subsample,
        y_observed=y_observed,
        x_observed=x_observed,
    )


class TestHHMean:
    def test_weighted_combination(self):
        # n=4: two respondents averaging 3.0, two non-respondents whose
        # follow-up sub-sample (both of them) averages 5.0
        real = make_realization([2.5, 3.5], [4.0, 6.0])
        assert hh_mean(real) == pytest.approx((2 * 3.0 + 2 * 5.0) / 4)

    def test_full_response_reduces_to_sample_mean(self):
        real = make_realization([1.0, 2.0, 3.0, 4.0], [])
        assert hh_mean(real) == pytest.approx(2.5)

    def test_three_respondents(self):
        real = make_realization([1.0, 5.0, 9.0], [])
        assert hh_mean(real) == pytest.approx(5.0)

    def test_partial_followup_weights_by_n2(self):
        # n1=2 (mean 3.0), n2=2 but only one followed up (value 8.0)
        real = make_realization([2.0, 4.0], [8.0], extra_nonrespondents=1)
        assert hh_mean(real) == pytest.approx((2 * 3.0 + 2 * 8.0) / 4)

    def test_no_respondents_at_all(self):
        real = make_realization([], [4.0, 8.0])
        assert hh_mean(real) == pytest.approx(6.0)


class TestAuxMean:
    def test_simple_mean(self):
        real = make_realization([1.0, 2.0, 3.0], [], x=(2.0, 4.0, 6.0))
        assert aux_mean(real) == pytest.approx(4.0)

    def test_constant(self):
        real = make_realization([1.0, 2.0], [], x=(7.0, 7.0))
        assert aux_mean(real) == pytest.approx(7.0)


class TestFamilyEstimate:
    def test_alpha_zero_returns_input_unchanged(self):
        p = FamilyParams(alpha=0.0, g=3.7, a=2.0, b=-1.0)
        assert family_estimate(12.34, 5.0, 4.0, p) == 12.34

    def test_ratio_member(self):
        p = FamilyParams(alpha=1.0, g=1.0)
        assert family_estimate(10.0, 5.0, 4.0, p) == pytest.approx(8.0)

    def test_product_member(self):
        p = FamilyParams(alpha=1.0, g=-1.0)
        assert family_estimate(10.0, 5.0, 4.0, p) == pytest.approx(12.5)

    def test_zero_denominator(self):
        p = FamilyParams(alpha=2.0, g=1.0)  # 2*xbar - Xbar = 0
        with pytest.raises(SingularityError):
            family_estimate(10.0, 2.0, 4.0, p)

    def test_negative_base_with_non_integer_exponent(self):
        # denom = -3*6 + 4*3 = -6, so the bracket base is negative
        p = FamilyParams(alpha=-3.0, g=0.5)
        with pytest.raises(DomainError):
            family_estimate(10.0, 6.0, 3.0, p)

    def test_negative_base_with_integer_exponent(self):
        p = FamilyParams(alpha=-3.0, g=2.0)
        value = family_estimate(10.0, 6.0, 3.0, p)
        assert value == pytest.approx(10.0 * (-0.5) ** 2)

    def test_zero_exponent(self):
        p = FamilyParams(alpha=0.7, g=0.0)
        assert family_estimate(10.0, 6.0, 3.0, p) == 10.0

    def test_a_must_be_nonzero(self):
        with pytest.raises(DomainError):
            FamilyParams(alpha=1.0, a=0.0)

    @pytest.mark.parametrize("field", ["alpha", "g", "a", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_are_refused(self, field, value):
        with pytest.raises(DomainError, match=f"family parameter {field} must be finite"):
            FamilyParams(**{"alpha": 0.5, field: value})

    @pytest.mark.parametrize("g, xbar", [(2000.0, 1.0), (-2000.0, 4.0)])
    def test_a_power_that_overflows_is_a_domain_error(self, g, xbar):
        # bracket base 2 to the 2000th, or 0.5 to the -2000th: float ** raises OverflowError
        p = FamilyParams(alpha=1.0, g=g)
        with pytest.raises(DomainError, match="overflows"):
            family_estimate(1.0, xbar, 2.0, p)

    def test_lambda_coefficient(self):
        assert lambda_coefficient(FamilyParams(alpha=0.0), 4.0) == 1.0
        assert lambda_coefficient(FamilyParams(alpha=0.0, a=1.0, b=4.0), 4.0) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            lambda_coefficient(FamilyParams(alpha=0.0, a=1.0, b=-4.0), 4.0)


class TestClassicalEstimators:
    def test_ratio_hand_value(self):
        assert ratio_estimate(10.0, 5.0, 4.0) == pytest.approx(8.0)

    def test_product_hand_value(self):
        assert product_estimate(10.0, 5.0, 4.0) == pytest.approx(12.5)

    def test_calibration_identity(self):
        assert ratio_estimate(9.87, 4.0, 4.0) == 9.87
        assert product_estimate(9.87, 4.0, 4.0) == 9.87

    def test_ratio_zero_xbar(self):
        with pytest.raises(SingularityError):
            ratio_estimate(10.0, 0.0, 4.0)

    def test_product_zero_population_mean(self):
        with pytest.raises(SingularityError):
            product_estimate(10.0, 5.0, 0.0)

    def test_family_specialization_is_bit_for_bit(self, rng):
        # The presets `simulate --estimators` maps ratio and product through.
        ratio_params, product_params = PRESETS["ratio"], PRESETS["product"]
        for _ in range(1000):
            ybar = rng.uniform(0.5, 100.0)
            xbar = rng.uniform(0.5, 50.0)
            pop_mean_x = rng.uniform(0.5, 50.0)
            assert ratio_estimate(ybar, xbar, pop_mean_x) == family_estimate(
                ybar, xbar, pop_mean_x, ratio_params
            )
            assert product_estimate(ybar, xbar, pop_mean_x) == family_estimate(
                ybar, xbar, pop_mean_x, product_params
            )


# Finite values from subnormals to 1e100 with signed zeros: no product of two overflows.
wide = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])


class TestFamilyProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        ybar=st.floats(0.1, 100),
        xbar=st.floats(0.1, 50),
        pop_mean_x=st.floats(0.1, 50),
        alpha=st.floats(-1.5, 1.5),
        g=st.floats(-2, 2),
        c=st.floats(0.25, 8),
    )
    def test_scale_equivariance_in_ybar(self, ybar, xbar, pop_mean_x, alpha, g, c):
        p = FamilyParams(alpha=alpha, g=g)
        try:
            base = family_estimate(ybar, xbar, pop_mean_x, p)
        except (SingularityError, DomainError):
            return
        scaled = family_estimate(c * ybar, xbar, pop_mean_x, p)
        assert scaled == pytest.approx(c * base, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        ybar=st.floats(0.1, 100),
        xbar=st.floats(0.1, 50),
        pop_mean_x=st.floats(0.1, 50),
        alpha=st.floats(-1.5, 1.5),
        g=st.floats(-2, 2),
        c=st.floats(0.25, 8),
    )
    def test_x_scale_invariance_for_unit_parameterization(
        self, ybar, xbar, pop_mean_x, alpha, g, c
    ):
        # with a=1, b=0 the bracket depends on x only through xbar/Xbar
        p = FamilyParams(alpha=alpha, g=g)
        try:
            base = family_estimate(ybar, xbar, pop_mean_x, p)
        except (SingularityError, DomainError):
            return
        scaled = family_estimate(ybar, c * xbar, c * pop_mean_x, p)
        assert scaled == pytest.approx(base, rel=1e-10)

    @settings(max_examples=400, deadline=None)
    @given(
        g=st.sampled_from([0.0, -0.0, 1.0]),
        ybar=wide,
        xbar=wide,
        pop_mean_x=wide,
        alpha=wide,
        a=wide.filter(bool),
        b=wide,
    )
    @example(g=0.0, ybar=-0.0, xbar=2.0, pop_mean_x=1.0, alpha=0.5, a=1.0, b=0.0)
    @example(g=1.0, ybar=-0.0, xbar=2.0, pop_mean_x=1.0, alpha=0.5, a=1.0, b=0.0)
    @example(g=1.0, ybar=3.0, xbar=1.0, pop_mean_x=0.0, alpha=0.5, a=1.0, b=0.0)
    @example(g=1.0, ybar=3.0, xbar=-1.0, pop_mean_x=-0.0, alpha=0.5, a=1.0, b=0.0)
    @example(g=0.0, ybar=3.0, xbar=-4.0, pop_mean_x=1.0, alpha=1.0, a=1.0, b=0.0)
    @example(g=1.0, ybar=3.0, xbar=5e-324, pop_mean_x=1e100, alpha=1.0, a=1.0, b=0.0)
    def test_g_zero_and_one_are_the_adjusted_mean_and_one_division(
        self, g, ybar, xbar, pop_mean_x, alpha, a, b
    ):
        p = FamilyParams(alpha=alpha, g=g, a=a, b=b)
        t_pop = a * pop_mean_x + b
        denom = alpha * (a * xbar + b) + (1.0 - alpha) * t_pop
        if denom == 0:
            with pytest.raises(SingularityError):
                family_estimate(ybar, xbar, pop_mean_x, p)
            return
        expected = ybar if g == 0 else ybar * (t_pop / denom)
        got = family_estimate(ybar, xbar, pop_mean_x, p)
        # repr round-trips, so equal text is equal bits: signed zero and nan included
        assert got == expected or math.isnan(expected)
        assert str(got) == str(expected)

    def test_continuity_in_alpha(self):
        base = family_estimate(10.0, 5.0, 4.0, FamilyParams(alpha=0.6, g=1.3))
        for h, bound in ((1e-4, 1e-2), (1e-6, 1e-4), (1e-8, 1e-6)):
            shifted = family_estimate(10.0, 5.0, 4.0, FamilyParams(alpha=0.6 + h, g=1.3))
            assert abs(shifted - base) < bound


def loop_total(values, keep):
    total = 0.0
    for value, kept in zip(values, keep):
        if kept:
            total += value
    return total


# Finite values on scales from 1e-8 to 1e8, with signed zeros, and rows that
# cancel: a row followed by its negation, plus a little.
scaled = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-8, 8),
)
values = st.one_of(scaled, st.sampled_from([0.0, -0.0]))
rows = st.lists(values, min_size=0, max_size=40) | st.lists(values, min_size=1, max_size=20).map(
    lambda row: row + [-v for v in row] + [1e-8]
)


class TestSequentialTotals:
    """The one summation rule of the replicate kernel and the per-unit path."""

    @settings(max_examples=300, deadline=None)
    @given(
        table=st.integers(0, 40).flatmap(
            lambda width: st.lists(
                st.lists(values, min_size=width, max_size=width), min_size=1, max_size=6
            )
        ),
        data=st.data(),
    )
    @example(table=[[-0.0, -0.0], [0.0, -0.0]], data=None)
    def test_rows_are_added_left_to_right_from_positive_zero(self, table, data):
        table = np.array(table, dtype=float)
        keep = np.ones(table.shape, dtype=bool)
        if data is not None:
            keep = np.array(
                data.draw(st.lists(st.booleans(), min_size=table.size, max_size=table.size)),
                dtype=bool,
            ).reshape(table.shape)
        keep[0] = False  # an all-masked row
        totals = sequential_totals(table, keep)
        expected = [loop_total(row, kept) for row, kept in zip(table.tolist(), keep.tolist())]
        assert [(t, math.copysign(1.0, t)) for t in totals.tolist()] == [
            (e, math.copysign(1.0, e)) for e in expected
        ]

    @settings(max_examples=300, deadline=None)
    @given(row=rows)
    def test_one_row_without_a_mask(self, row):
        total = float(sequential_totals(row))
        expected = loop_total(row, [True] * len(row))
        assert (total, math.copysign(1.0, total)) == (expected, math.copysign(1.0, expected))

    def test_not_pairwise_and_not_compensated(self):
        row = [1.0, 1e100, 1.0, -1e100]
        assert float(sequential_totals(row)) == 0.0  # math.fsum, and `sum` on 3.12+, give 2.0
        assert float(sequential_totals([0.1] * 10)) == 0.9999999999999999
