"""Closed-form first-order error theory for the estimator family.

Every operation here is a total function of explicit scalar inputs (moments
plus design scalars), so each formula can be unit-tested against hand values.

Conventions: f = (N-1)/(n*N) is the design factor; 1 + (n-1)*rho is the
within-sample clustering factor; rho_star is the square root of the Y-over-X
clustering-factor ratio; K = rho * C_Y / C_X; lambda = a*Xbar/(a*Xbar + b).
The non-response contribution ((L-1)/n) * W2 * S2_y2 is shared by every
variance/MSE expression.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .design import check_rates
from .errors import DegenerateInputError, DomainError
from .estimators import FamilyParams, lambda_coefficient
from .population import PopulationMoments

EstimatorKind = Literal["ratio", "product"]


@dataclass(frozen=True)
class DerivedConstants:
    """Scalar constants shared by the bias/MSE formulas."""

    rho_star: float
    big_k: float
    lam: float
    f: float


def fpc(n: int, N: int) -> float:
    """Design factor (N-1)/(n*N)."""
    return (N - 1) / (n * N)


def _gy(m: PopulationMoments, n: int) -> float:
    return 1.0 + (n - 1) * m.rho_y


def _gx(m: PopulationMoments, n: int) -> float:
    return 1.0 + (n - 1) * m.rho_x


def _require_valid_clustering(m: PopulationMoments, n: int) -> None:
    if n < 2:
        raise DomainError(f"sample size n must be >= 2, got {n}")
    # The same slack as intraclass_correlation's upper bound.
    if not (m.rho_y <= 1.0 + 1e-9 and m.rho_x <= 1.0 + 1e-9):
        raise DomainError(
            f"intraclass correlations must not exceed 1, got rho_y={m.rho_y}, rho_x={m.rho_x}"
        )
    if _gy(m, n) < 0 or _gx(m, n) <= 0:
        raise DomainError(
            "clustering factors 1+(n-1)*rho_w must be nonnegative (positive for x)"
        )


def nonresponse_term(m: PopulationMoments, n: int, w2: float, ell: float) -> float:
    """Variance contribution ((ell-1)/n) * w2 * s2_y2 of the follow-up step."""
    check_rates(w2, ell)
    if w2 == 0.0 or ell == 1.0:
        return 0.0
    if m.s2_y2 is None:
        raise DomainError(
            "s2_y2 (non-response stratum mean square) is required when w2 > 0 and ell > 1"
        )
    return (ell - 1.0) / n * w2 * m.s2_y2


def derived_constants(
    m: PopulationMoments, n: int, N: int, params: FamilyParams | None = None
) -> DerivedConstants:
    """Compute (rho_star, K, lambda, f) for the given moments and design.

    With `params` omitted, lambda defaults to 1 (the a=1, b=0
    parameterization, under which the bracket weighs the raw means).
    """
    _require_valid_clustering(m, n)
    if m.cv_x == 0:
        raise DegenerateInputError("zero auxiliary coefficient of variation: K undefined")
    rho_star = math.sqrt(_gy(m, n) / _gx(m, n))
    big_k = m.rho * m.cv_y / m.cv_x
    lam = 1.0 if params is None else lambda_coefficient(params, m.mean_x)
    return DerivedConstants(rho_star=rho_star, big_k=big_k, lam=lam, f=fpc(n, N))


def var_mean_y(
    m: PopulationMoments, n: int, N: int, w2: float = 0.0, ell: float = 1.0
) -> float:
    """Variance of the non-response-adjusted mean under the design."""
    _require_valid_clustering(m, n)
    return _full_response_var(m, n, N) + nonresponse_term(m, n, w2, ell)


def _full_response_var(m: PopulationMoments, n: int, N: int) -> float:
    return fpc(n, N) * _gy(m, n) * m.s2_y


def var_mean_x(m: PopulationMoments, n: int, N: int) -> float:
    """Variance of the auxiliary sample mean under the design.

    Does not vanish at full enumeration (n = N, k = 1): the design factor is
    (N-1)/N**2, small but positive, because the factor reflects the
    within-sample correlation representation rather than an FPC.
    """
    _require_valid_clustering(m, n)
    return fpc(n, N) * _gx(m, n) * m.s2_x


def _bias_prefactor(m: PopulationMoments, n: int, c: DerivedConstants) -> float:
    return c.f * m.mean_y * _gx(m, n) * (m.cv_x * m.cv_x)


def _mse_prefactor(m: PopulationMoments, n: int, c: DerivedConstants) -> float:
    return c.f * (m.mean_y * m.mean_y) * _gx(m, n)


def classical_mse(
    kind: EstimatorKind,
    m: PopulationMoments,
    n: int,
    w2: float,
    ell: float,
    c: DerivedConstants,
) -> float:
    """First-order MSE of the classical ratio or product estimator."""
    _require_valid_clustering(m, n)
    sign = {"ratio": -1.0, "product": 1.0}.get(kind)
    if sign is None:
        raise DomainError(f"unknown estimator kind {kind!r}")
    bracket = (c.rho_star * c.rho_star) * (m.cv_y * m.cv_y)
    bracket += (1.0 + sign * 2.0 * c.big_k * c.rho_star) * (m.cv_x * m.cv_x)
    return _mse_prefactor(m, n, c) * bracket + nonresponse_term(m, n, w2, ell)


def family_bias(
    p: FamilyParams, m: PopulationMoments, n: int, c: DerivedConstants
) -> float:
    """First-order bias of the family member with parameters p."""
    _require_valid_clustering(m, n)
    u = p.alpha * c.lam
    bracket = 0.5 * p.g * (p.g + 1.0) * (u * u) - p.g * u * c.big_k * c.rho_star
    return _bias_prefactor(m, n, c) * bracket


def family_mse(
    p: FamilyParams,
    m: PopulationMoments,
    n: int,
    w2: float,
    ell: float,
    c: DerivedConstants,
) -> float:
    """First-order MSE of the family member with parameters p.

    Quadratic and convex in alpha: relative to alpha = 0 it adds
    A*alpha**2 - B*alpha with A >= 0.
    """
    _require_valid_clustering(m, n)
    u = p.g * p.alpha * c.lam
    bracket = (
        (c.rho_star * c.rho_star) * (m.cv_y * m.cv_y)
        + (u * u - 2.0 * u * c.big_k * c.rho_star) * (m.cv_x * m.cv_x)
    )
    return _mse_prefactor(m, n, c) * bracket + nonresponse_term(m, n, w2, ell)


def optimum_alpha(c: DerivedConstants, g: float) -> float:
    """Alpha minimizing the family MSE: rho_star*K/(g*lambda)."""
    if g == 0 or c.lam == 0:
        raise DomainError("MSE does not depend on alpha when g*lambda = 0: no optimum")
    scale = g * c.lam
    alpha = c.rho_star * c.big_k / scale if scale != 0 else math.inf  # g*lambda underflowed
    if not math.isfinite(alpha):
        raise DomainError(f"the optimum alpha rho_star*K/(g*lambda) overflows at g*lambda={scale}")
    return alpha


def family_mse_min(
    m: PopulationMoments, n: int, w2: float, ell: float, c: DerivedConstants
) -> float:
    """Minimum first-order MSE of the family over alpha.

    Free of (a, b, g); coincides with the first-order MSE of the classical
    regression estimator under this design.
    """
    _require_valid_clustering(m, n)
    return _full_response_mse_min(m, n, c) + nonresponse_term(m, n, w2, ell)


def _full_response_mse_min(m: PopulationMoments, n: int, c: DerivedConstants) -> float:
    cv_gap = (m.cv_y * m.cv_y) - (c.big_k * c.big_k) * (m.cv_x * m.cv_x)
    bracket = cv_gap * (c.rho_star * c.rho_star)
    return _mse_prefactor(m, n, c) * bracket


def _pre(var: float, mse_min: float) -> float:
    if mse_min <= 0:
        raise DomainError("minimum MSE is not positive: PRE undefined")
    pre = 100.0 * var / mse_min
    if not all(map(math.isfinite, (var, mse_min, pre))):
        raise DomainError(
            f"a value overflows: var(hh mean)={var}, min MSE(family)={mse_min}, PRE={pre}"
        )
    return pre


def pre_optimum(
    m: PopulationMoments,
    n: int,
    N: int,
    w2: float,
    ell: float,
    c: DerivedConstants,
) -> float:
    """Percentage relative efficiency of the optimum family member.

    Defined as 100 * V(adjusted mean) / MSE_min; at least 100 whenever the
    auxiliary correlation is nonzero, and strictly decreasing in both the
    non-response rate and the sub-sampling ratio.
    """
    mse_min = family_mse_min(m, n, w2, ell, c)
    return _pre(var_mean_y(m, n, N, w2, ell), mse_min)


def pre_grid(
    m: PopulationMoments,
    n: int,
    N: int,
    w2_grid: list[float],
    ell_grid: list[float],
    c: DerivedConstants,
) -> tuple[list[float], list[float], list[float]]:
    """var_mean_y, family_mse_min and pre_optimum over the (w2, ell) grid, w2 outermost.

    The full-response parts are computed once and each cell adds its one
    non-response term, in the same operations as the per-cell functions: the
    columns equal theirs bit for bit, and the first failing cell raises the
    error they would raise.
    """
    _require_valid_clustering(m, n)
    var0 = _full_response_var(m, n, N)
    mse0 = _full_response_mse_min(m, n, c)
    var, mse_min, pre = [], [], []
    for w2 in w2_grid:
        for ell in ell_grid:
            nr = nonresponse_term(m, n, w2, ell)
            var.append(var0 + nr)
            mse_min.append(mse0 + nr)
            pre.append(_pre(var[-1], mse_min[-1]))
    return var, mse_min, pre

