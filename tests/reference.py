"""Reference definitions that only tests check against; no program path
calls them.  The k systematic samples enumerated unit by unit, the
first-order bias of the classical ratio and product estimators, the
intraclass correlation that gives a target PRE, and the Monte Carlo
moments over every replicate's estimate."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from sysmean import (
    DerivedConstants,
    DomainError,
    PopulationMoments,
    SystematicDesign,
    derived_constants,
    nonresponse_term,
)
from sysmean.theory import EstimatorKind, _bias_prefactor, _require_valid_clustering


def enumerate_samples(design: SystematicDesign) -> list[tuple[int, ...]]:
    """All k candidate samples; the i-th is (i, i+k, ..., i+(n-1)k), 1-based."""
    return [tuple(range(start, design.N + 1, design.k)) for start in range(1, design.k + 1)]


def classical_bias(
    kind: EstimatorKind, m: PopulationMoments, n: int, c: DerivedConstants
) -> float:
    """First-order bias of the classical ratio or product estimator."""
    _require_valid_clustering(m, n)
    if kind == "ratio":
        bracket = 1.0 - c.big_k * c.rho_star
    elif kind == "product":
        bracket = c.big_k * c.rho_star
    else:
        raise DomainError(f"unknown estimator kind {kind!r}")
    return _bias_prefactor(m, n, c) * bracket


def intraclass_from_pre(
    target_pre: float,
    m: PopulationMoments,
    n: int,
    N: int,
    w2: float,
    ell: float,
) -> float:
    """Solve for the common intraclass correlation giving a target PRE.

    Sets rho_y = rho_x = r and finds r in (-1/(n-1), 1] such that
    pre_optimum equals `target_pre`.  Requires an active non-response term
    (w2 > 0, ell > 1): without it the PRE does not depend on r.

    With rho_star = 1 the PRE is the Mobius map 100*(G*A + NR)/(G*B + NR) of
    G = 1 + (n-1)*r, with A = f*S2_y, B = f*Ybar**2*(C_y**2 - K**2*C_x**2) and
    NR the non-response term; it inverts exactly, tending to 100*A/B as G -> inf.
    """
    nr = nonresponse_term(m, n, w2, ell)
    if nr == 0.0:
        raise DomainError("PRE does not depend on the intraclass correlation when the "
                          "non-response term vanishes")
    c = derived_constants(replace(m, rho_y=0.0, rho_x=0.0), n, N)
    a = c.f * m.s2_y
    b = c.f * (m.mean_y * m.mean_y) * ((m.cv_y * m.cv_y) - (c.big_k * c.big_k) * (m.cv_x * m.cv_x))
    denominator = target_pre * b - 100.0 * a
    g = nr * (100.0 - target_pre) / denominator if denominator != 0.0 else math.inf
    if not 0.0 < g <= n:
        hi = 100.0 * (n * a + nr) / (n * b + nr)  # the PRE at r = 1; it is 100 at G = 0
        raise DomainError(
            f"target PRE {target_pre} is outside the attainable range [100.0000, {hi:.4f}]"
        )
    return (g - 1.0) / (n - 1)


def replicate_moments(values: np.ndarray, true_mean_y: float) -> tuple[float, float, float]:
    """The empirical mean, MSE and MC standard error of the MSE of the estimates
    `values` of the replicates that did not fail, by `np.mean` and
    `np.std(ddof=1)` over them: nan without an estimate, an SE of 0 with one."""
    if not len(values):
        return (math.nan,) * 3
    squared_errors = (values - true_mean_y) ** 2
    se = squared_errors.std(ddof=1) / math.sqrt(len(values)) if len(values) >= 2 else 0.0
    return float(values.mean()), float(squared_errors.mean()), float(se)
