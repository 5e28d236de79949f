"""Design-based Monte Carlo engine for verifying the closed-form theory.

Replicates the full mechanism (random or cycled start index, non-response,
follow-up sub-sampling), evaluates each configured estimator per replicate,
and aggregates empirical bias/MSE with a Monte Carlo standard error so that
theory comparisons can use a principled z-score.

Replicate r draws from its own stream, derived from the master seed with
spawn key (r+1,); key (0,) is reserved for design-level randomization such
as stratum selection.  Aggregation reduces in replicate order, so a report
is bit-identical for a given (population, design, config) regardless of how
the replicates would be scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import (
    NonResponseModel,
    SystematicDesign,
    apply_nonresponse,
    draw_sample,
    enumerate_samples,
)
from .errors import ConfigurationError, DomainError, SingularityError
from .estimators import (
    FamilyParams,
    aux_mean,
    family_estimate,
    hh_mean,
    product_estimate,
    ratio_estimate,
)
from .population import FinitePopulation, population_fingerprint

ESTIMATOR_KINDS = ("hh", "ratio", "product", "family")

# An estimator whose replicates fail more often than this is reported invalid.
MAX_FAILURE_RATE = 0.01


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator to evaluate per replicate; `params` only for kind 'family'."""

    label: str
    kind: str
    params: FamilyParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ConfigurationError(
                f"unknown estimator kind {self.kind!r}; expected one of {ESTIMATOR_KINDS}"
            )
        if self.kind == "family" and self.params is None:
            raise ConfigurationError("estimator kind 'family' requires FamilyParams")


@dataclass(frozen=True)
class SimulationConfig:
    """Replicate count, master seed, estimators, and the non-response model.

    With `exhaustive_start` the start index cycles deterministically through
    1..k instead of being drawn at random; use a replicate count that is a
    multiple of k for equal coverage of all candidate samples.
    """

    replicates: int
    master_seed: int
    estimators: tuple[EstimatorSpec, ...]
    nr: NonResponseModel
    exhaustive_start: bool = False

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1, got {self.replicates}")
        labels = [spec.label for spec in self.estimators]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"estimator labels must be unique, got {labels}")
        if not self.estimators:
            raise ConfigurationError("at least one estimator must be configured")


@dataclass(frozen=True)
class EstimatorResult:
    """Aggregates for one estimator; failed replicates are counted, not dropped."""

    label: str
    n_used: int
    n_failed: int
    empirical_mean: float
    empirical_bias: float
    empirical_mse: float
    mc_se_mse: float
    valid: bool


@dataclass(frozen=True)
class SimulationReport:
    results: tuple[EstimatorResult, ...]
    replicates: int
    master_seed: int
    population_sha256: str
    true_mean_y: float

    def by_label(self, label: str) -> EstimatorResult:
        for result in self.results:
            if result.label == label:
                return result
        raise ConfigurationError(f"no estimator labelled {label!r} in this report")


@dataclass(frozen=True)
class TheoryComparison:
    """z-test of an empirical MSE against a closed-form target.

    `rel_gap` is reported alongside the z-score because first-order targets
    are approximations: a tiny relative gap may still fail the z-test at a
    huge replicate count.
    """

    label: str
    empirical_mse: float
    theory_value: float
    z_score: float
    rel_gap: float
    verdict: str


def replicate_rng(master_seed: int, replicate_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one replicate."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(replicate_index + 1,))
    )


def design_rng(master_seed: int) -> np.random.Generator:
    """Stream for design-level draws (e.g. stratum selection), key (0,)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(0,)))


def _evaluate(
    spec: EstimatorSpec, ybar_star: float, xbar: float, pop_mean_x: float
) -> float:
    if spec.kind == "hh":
        return ybar_star
    if spec.kind == "ratio":
        return ratio_estimate(ybar_star, xbar, pop_mean_x)
    if spec.kind == "product":
        return product_estimate(ybar_star, xbar, pop_mean_x)
    assert spec.params is not None
    return family_estimate(ybar_star, xbar, pop_mean_x, spec.params)


def run_simulation(
    pop: FinitePopulation, design: SystematicDesign, cfg: SimulationConfig
) -> SimulationReport:
    """Replicate the design and aggregate empirical bias/MSE per estimator.

    Deterministic given (population, design, config).  A replicate on which
    an estimator raises a singularity or domain error is recorded as failed
    for that estimator only; estimators with more than 1% failures are
    flagged invalid in the report.
    """
    if pop.N != design.N:
        raise DomainError(f"population has {pop.N} units but design expects {design.N}")
    cfg.nr.validate_for(design.N)

    samples = enumerate_samples(design)
    pop_mean_x = float(pop.x.mean())
    true_mean_y = float(pop.y.mean())

    n_est = len(cfg.estimators)
    estimates = np.full((n_est, cfg.replicates), np.nan)
    failed = np.zeros((n_est, cfg.replicates), dtype=bool)

    for rep in range(cfg.replicates):
        rng = replicate_rng(cfg.master_seed, rep)
        if cfg.exhaustive_start:
            start = rep % design.k + 1
        else:
            start = draw_sample(design, rng)
        realization = apply_nonresponse(samples[start - 1], pop, cfg.nr, rng)
        ybar_star = hh_mean(realization)
        xbar = aux_mean(realization)
        for j, spec in enumerate(cfg.estimators):
            try:
                estimates[j, rep] = _evaluate(spec, ybar_star, xbar, pop_mean_x)
            except (SingularityError, DomainError):
                failed[j, rep] = True

    results = []
    for j, spec in enumerate(cfg.estimators):
        ok = ~failed[j]
        values = estimates[j, ok]
        n_used = int(ok.sum())
        n_failed = cfg.replicates - n_used
        if n_used == 0:
            results.append(
                EstimatorResult(
                    label=spec.label,
                    n_used=0,
                    n_failed=n_failed,
                    empirical_mean=math.nan,
                    empirical_bias=math.nan,
                    empirical_mse=math.nan,
                    mc_se_mse=math.nan,
                    valid=False,
                )
            )
            continue
        empirical_mean = float(values.mean())
        squared_errors = (values - true_mean_y) ** 2
        empirical_mse = float(squared_errors.mean())
        if n_used >= 2:
            mc_se_mse = float(squared_errors.std(ddof=1) / math.sqrt(n_used))
        else:
            mc_se_mse = 0.0
        results.append(
            EstimatorResult(
                label=spec.label,
                n_used=n_used,
                n_failed=n_failed,
                empirical_mean=empirical_mean,
                empirical_bias=empirical_mean - true_mean_y,
                empirical_mse=empirical_mse,
                mc_se_mse=mc_se_mse,
                valid=n_failed / cfg.replicates <= MAX_FAILURE_RATE,
            )
        )

    return SimulationReport(
        results=tuple(results),
        replicates=cfg.replicates,
        master_seed=cfg.master_seed,
        population_sha256=population_fingerprint(pop),
        true_mean_y=true_mean_y,
    )


def compare_to_theory(
    report: SimulationReport,
    theory_values: list[tuple[str, float]],
    tolerance_sigma: float = 3.0,
) -> list[TheoryComparison]:
    """z-test each labelled empirical MSE against its closed-form target.

    PASS iff |z| <= tolerance_sigma, where z = (empirical - theory) / MC
    standard error.  A zero standard error with a nonzero gap fails with an
    infinite z of the gap's sign.
    """
    comparisons = []
    for label, theory_value in theory_values:
        result = report.by_label(label)
        gap = result.empirical_mse - theory_value
        if result.mc_se_mse == 0 or math.isnan(result.mc_se_mse):
            z_score = 0.0 if gap == 0 else math.copysign(math.inf, gap)
        else:
            z_score = gap / result.mc_se_mse
        if theory_value != 0:
            rel_gap = gap / theory_value
        else:
            rel_gap = 0.0 if gap == 0 else math.copysign(math.inf, gap)
        verdict = "PASS" if abs(z_score) <= tolerance_sigma else "FAIL"
        comparisons.append(
            TheoryComparison(
                label=label,
                empirical_mse=result.empirical_mse,
                theory_value=theory_value,
                z_score=z_score,
                rel_gap=rel_gap,
                verdict=verdict,
            )
        )
    return comparisons
