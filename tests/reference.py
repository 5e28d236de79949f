"""Reference definitions that only tests check against; no program path
calls them.  The k systematic samples enumerated unit by unit, the
first-order bias of the classical ratio and product estimators, and the
Monte Carlo moments over every replicate's estimate."""
from __future__ import annotations

import math

import numpy as np

from sysmean import DerivedConstants, DomainError, PopulationMoments, SystematicDesign
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


def replicate_moments(values: np.ndarray, true_mean_y: float) -> tuple[float, float, float]:
    """The empirical mean, MSE and MC standard error of the MSE of the estimates
    `values` of the replicates that did not fail, by `np.mean` and
    `np.std(ddof=1)` over them: nan without an estimate, an SE of 0 with one."""
    if not len(values):
        return (math.nan,) * 3
    squared_errors = (values - true_mean_y) ** 2
    se = squared_errors.std(ddof=1) / math.sqrt(len(values)) if len(values) >= 2 else 0.0
    return float(values.mean()), float(squared_errors.mean()), float(se)
