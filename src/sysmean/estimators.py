"""Point estimators of the population mean computed from a realized sample.

Every estimator is ybar*·h(xbar), the non-response-adjusted sample mean
rescaled by a function of the auxiliary sample mean.  The adjusted mean
(h = 1), the ratio (alpha=1, g=1) and the product (alpha=1, g=-1) estimators
are members of the general family in `family_estimate`, which is ybar* times
its value at ybar* = 1, bit for bit.  `ratio_estimate` and `product_estimate`
are the classical definitions, kept as independent references.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .design import SampleRealization
from .errors import DomainError, SingularityError


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (alpha, g, a, b) of the general estimator family.

    The family rescales the adjusted sample mean by
    [(a*Xbar + b) / (alpha*(a*xbar + b) + (1 - alpha)*(a*Xbar + b))]^g,
    so alpha = 0 reproduces the plain adjusted mean, and (alpha=1, g=1) /
    (alpha=1, g=-1) with a=1, b=0 give the classical ratio / product
    estimators.
    """

    alpha: float
    g: float = 1.0
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise DomainError(f"family parameter {field.name} must be finite, got {value}")
        if self.a == 0:
            raise DomainError("family parameter a must be nonzero")


def lambda_coefficient(params: FamilyParams, pop_mean_x: float) -> float:
    """Relative weight a*Xbar / (a*Xbar + b) of the auxiliary mean in the bracket."""
    scaled = params.a * pop_mean_x
    denom = scaled + params.b
    if denom == 0:
        raise DomainError("a*Xbar + b is zero: lambda undefined for this population")
    return scaled / denom


def sequential_totals(values, keep=None) -> np.ndarray:
    """Totals along the last axis of finite `values`, over the places where
    `keep` (default all) is true, each added left to right from +0.0.

    That is how Python 3.11's builtin `sum` adds floats, signed zero included
    (a total of -0.0 values is +0.0), on every Python version: 3.12 made
    `sum` compensated, and `np.sum` adds pairwise.  `np.cumsum` adds in
    order, and a leading zero column gives the +0.0 start.  A left-out place
    adds a signed zero, which leaves a sum from +0.0 as it is."""
    values = np.asarray(values, dtype=float)
    padded = np.zeros((*values.shape[:-1], values.shape[-1] + 1))
    np.multiply(values, True if keep is None else keep, out=padded[..., 1:])
    return padded.cumsum(axis=-1)[..., -1].copy()


def hh_mean(realization: SampleRealization) -> float:
    """Hansen-Hurwitz mean: respondents and follow-up sub-sample weighted n1:n2.

    Reduces to the plain sample mean under full response.
    """
    n = len(realization.units)
    n1 = len(realization.respondents)
    n2 = len(realization.nonrespondents)
    h2 = len(realization.subsample)
    if n1 + h2 == 0:
        raise DomainError("no observed study values in this realization")
    total = 0.0
    if n1 > 0:
        ybar_n1 = _total(realization.y_observed[u] for u in sorted(realization.respondents)) / n1
        total += n1 * ybar_n1
    if n2 > 0:
        ybar_h2 = _total(realization.y_observed[u] for u in sorted(realization.subsample)) / h2
        total += n2 * ybar_h2
    return total / n


def aux_mean(realization: SampleRealization) -> float:
    """Arithmetic mean of the auxiliary variable over all n sample units."""
    return _total(realization.x_observed) / len(realization.x_observed)


def _total(values) -> float:
    return float(sequential_totals(list(values)))


def family_estimate(
    ybar_star: float, xbar: float, pop_mean_x: float, p: FamilyParams
) -> float:
    """Evaluate the general family at the given summary inputs.

    Raises SingularityError on a zero denominator when g != -1 (or a zero
    bracket base with negative g) and DomainError when the bracket base is
    not positive while g is non-integer, which signals an (a, b) choice
    invalid for this sample rather than a numerical accident, or when its
    power overflows.
    """
    t_pop = p.a * pop_mean_x + p.b
    t_smp = p.a * xbar + p.b
    denom = p.alpha * t_smp + (1.0 - p.alpha) * t_pop
    # g = -1 is one division, where t_pop / denom and then base**-1 would round twice,
    # and needs only t_pop != 0.  g = 0 and 1 need no branch: base**0.0 is 1.0, base**1.0 is base.
    if p.g == -1.0:
        if t_pop == 0:
            raise SingularityError("bracket base is zero with negative exponent")
        return ybar_star * (denom / t_pop)
    if denom == 0:
        raise SingularityError("family denominator is zero for this sample")
    base = t_pop / denom
    if base < 0 and not float(p.g).is_integer():
        raise DomainError(
            f"negative bracket base {base} with non-integer exponent g={p.g}"
        )
    if base == 0:
        if p.g < 0:
            raise SingularityError("bracket base is zero with negative exponent")
        if not float(p.g).is_integer():
            raise DomainError(f"zero bracket base with non-integer exponent g={p.g}")
    try:
        return ybar_star * base**p.g
    except OverflowError:  # float ** raises where * would give inf
        raise DomainError(f"bracket base {base} to the power g={p.g} overflows") from None


def ratio_estimate(ybar_star: float, xbar: float, pop_mean_x: float) -> float:
    """Classical ratio estimator: adjusted mean scaled by Xbar/xbar."""
    if xbar == 0:
        raise SingularityError("auxiliary sample mean is zero: ratio undefined")
    return ybar_star * (pop_mean_x / xbar)


def product_estimate(ybar_star: float, xbar: float, pop_mean_x: float) -> float:
    """Classical product estimator: adjusted mean scaled by xbar/Xbar."""
    if pop_mean_x == 0:
        raise SingularityError("auxiliary population mean is zero: product undefined")
    return ybar_star * (xbar / pop_mean_x)
