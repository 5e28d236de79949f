"""Reference definitions that only tests check against; no program path
calls them.  The k systematic samples enumerated unit by unit, and the
first-order bias of the classical ratio and product estimators."""
from __future__ import annotations

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
