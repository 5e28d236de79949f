"""Design-based Monte Carlo engine for verifying the closed-form theory.

Replicates the full mechanism (random or cycled start index, non-response,
follow-up sub-sampling), evaluates each configured estimator, and aggregates
empirical bias/MSE with a Monte Carlo standard error so that theory
comparisons can use a principled z-score.

Every estimator is ybar*·h(xbar) with h from the general family: kind 'hh'
is h = 1, 'ratio' and 'product' are the presets (alpha=1, g=+-1) and
'family' has its own parameters.  xbar depends on the start index alone, so
h(xbar_i) = `family_estimate(1.0, xbar_i, Xbar, params)` and its failure
flag are evaluated once per drawn start; ybar* times it has the same bits
as the family evaluated per replicate.

Replicate r draws from its own stream, PCG64 seeded from the master seed
with spawn key (r+1,), as `replicate_rng` defines it; key (0,) is reserved
for design-level randomization such as stratum selection.  The loop builds
no SeedSequence per replicate: `_stream_words` computes the seed words of
SEED_BLOCK replicates at once with one vectorised pass of the SeedSequence
hash, which numpy keeps stable (NEP 19), so the streams are bit for bit
those of `replicate_rng`.  A spawn key is one 32-bit word, so a run has at
most 2**32 - 1 replicates.  Aggregation reduces in replicate order, so a
report is bit-identical for a given (population, design, config)
regardless of how the replicates would be scheduled.

Both stratum modes build ybar* with one per-sample step, `_sample_parts`:
from a sample's y values and non-respondent mask it gives the respondent
count and y total, the non-respondents' y values in unit order, h2 and,
when no follow-up draw is needed, ybar* itself.  A fixed stratum only
caches that step per start, once per call; in Bernoulli mode each replicate
takes it on its own drawn mask.  The streams are consumed as the per-unit
reference path (`draw_sample`, `apply_nonresponse`, `hh_mean`, `aux_mean`)
consumes them, and totals are summed with Python `sum` in unit order, so
the reports are bit-identical to that path.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .design import (
    NonResponseModel,
    StratumMode,
    SystematicDesign,
    draw_sample,
    follow_up_size,
)
from .errors import ConfigurationError, DomainError, SingularityError
from .estimators import FamilyParams, family_estimate
from .population import FinitePopulation, population_fingerprint

# Not called here; bound so that perfbench/tracing.py TARGETS still resolve.
from .design import apply_nonresponse  # noqa: F401
from .estimators import aux_mean, hh_mean, product_estimate, ratio_estimate  # noqa: F401

# The family parameters of h for each preset kind; None is h = 1.
PRESETS = {"hh": None, "ratio": FamilyParams(1.0, 1.0), "product": FamilyParams(1.0, -1.0)}
ESTIMATOR_KINDS = (*PRESETS, "family")

# An estimator whose replicates fail more often than this is reported invalid.
MAX_FAILURE_RATE = 0.01

# Replicate r's spawn key (r+1,) is one 32-bit word.
MAX_REPLICATES = 2**32 - 1

# Replicate streams are seeded this many at a time, so seeding holds O(block) memory.
SEED_BLOCK = 1024


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator ybar*·h(xbar), h given by family `params` (None: h = 1).

    A preset kind fills in its `params` and rejects others; 'family' needs them."""

    label: str
    kind: str
    params: FamilyParams | None = None

    def __post_init__(self) -> None:
        if self.kind == "family":
            if self.params is None:
                raise ConfigurationError("estimator kind 'family' requires FamilyParams")
            return
        if self.kind not in PRESETS:
            raise ConfigurationError(
                f"unknown estimator kind {self.kind!r}; expected one of {ESTIMATOR_KINDS}"
            )
        preset = PRESETS[self.kind]
        if self.params not in (None, preset):
            raise ConfigurationError(
                f"estimator kind {self.kind!r} has the preset parameters {preset}, "
                f"got {self.params}"
            )
        object.__setattr__(self, "params", preset)


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
        if self.replicates < 2:
            raise ConfigurationError(
                f"the Monte Carlo standard error needs two replicates, got {self.replicates}"
            )
        if self.replicates > MAX_REPLICATES:
            raise ConfigurationError(
                f"replicates must be <= {MAX_REPLICATES} (2**32 - 1), got {self.replicates}"
            )
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be >= 0, got {self.master_seed}")
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
    """Independent, reproducible stream for one replicate: the reference
    definition that `_stream_words` computes for a block of replicates at once."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(replicate_index + 1,))
    )


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx); the
# hash and the PCG64 seeding are stable across numpy versions (NEP 19).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(values: np.ndarray, hash_const: int, mult: int) -> np.ndarray:
    """SeedSequence's hashmix of each column t of `values` with the t-th hash
    constant from `hash_const`: uint32 arithmetic held in uint64."""
    consts = [hash_const]
    for _ in range(values.shape[1]):
        consts.append(consts[-1] * mult & _MASK32)
    values = (values ^ np.array(consts[:-1], np.uint64)) * np.array(consts[1:], np.uint64)
    values &= _MASK32
    return values ^ values >> 16


def _stream_words(master_seed: int, first: int, stop: int) -> np.ndarray:
    """The PCG64 seed words of replicates first..stop-1, a (stop - first, 4)
    uint64 array whose row j is
    `SeedSequence(master_seed, spawn_key=(first + j + 1,)).generate_state(4, np.uint64)`.

    The seed's own pool is the entropy mix just before the spawn-key word;
    that word is hashed against the constant after 16 + 4·max(0, w − 4)
    hashmix calls (w = the seed's 32-bit words) and mixed into each pool
    word, and the result is hashed into 8 uint32 words paired little-endian.
    """
    pool = np.random.SeedSequence(master_seed).pool.astype(np.uint64)
    words = max(1, -(-int(master_seed).bit_length() // 32))
    spawn_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _MASK32
    keys = np.arange(first + 1, stop + 1, dtype=np.uint64)[:, None].repeat(4, axis=1)
    mixed = (pool * _MIX_MULT_L - _hashmix(keys, spawn_const, _MULT_A) * _MIX_MULT_R) & _MASK32
    state = _hashmix((mixed ^ mixed >> 16)[:, [0, 1, 2, 3, 0, 1, 2, 3]], _INIT_B, _MULT_B)
    # PCG64 reads a row as 4 consecutive words.
    return np.ascontiguousarray(state[:, 0::2] | state[:, 1::2] << 32)


class _StreamSeed(np.random.bit_generator.ISeedSequence):
    """One row of `_stream_words`, handed to `PCG64`, which asks for exactly
    those 4 uint64 words and seeds itself from them in C."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _replicate_streams(master_seed: int, replicates: int) -> Iterator[np.random.Generator]:
    """The stream of each replicate in order, seeded SEED_BLOCK replicates at a time."""
    for first in range(0, replicates, SEED_BLOCK):
        for words in _stream_words(master_seed, first, min(first + SEED_BLOCK, replicates)):
            yield np.random.Generator(np.random.PCG64(_StreamSeed(words)))


def design_rng(master_seed: int) -> np.random.Generator:
    """Stream for design-level draws (e.g. stratum selection), key (0,)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(0,)))


def _hh_mean(n: int, n1: int, t1: float, n2: int, h2: int, t2: float) -> float:
    """`hh_mean` from the respondent and follow-up y totals, in its operation order."""
    total = 0.0
    if n1 > 0:
        total += n1 * (t1 / n1)
    if n2 > 0:
        total += n2 * (t2 / h2)
    return total / n


def _sample_parts(
    ys: np.ndarray, miss: np.ndarray, n: int, ell: float
) -> tuple[int, float, np.ndarray, int, float | None]:
    """One sample's (n1, respondent y total, non-respondent y in unit order,
    h2, ybar*) from its y values and non-respondent mask; ybar* is None when
    it depends on a follow-up draw."""
    nr_y = ys[miss]
    n1, t1 = n - len(nr_y), sum(ys[~miss].tolist())
    h2 = follow_up_size(len(nr_y), ell)
    ybar_star = None
    if h2 >= len(nr_y):
        ybar_star = _hh_mean(n, n1, t1, len(nr_y), h2, sum(nr_y.tolist()))
    return n1, t1, nr_y, h2, ybar_star


def run_simulation(
    pop: FinitePopulation, design: SystematicDesign, cfg: SimulationConfig
) -> SimulationReport:
    """Replicate the design and aggregate empirical bias/MSE per estimator.

    Deterministic given (population, design, config).  A start index on
    which h raises a singularity or domain error fails every replicate that
    draws it, for that estimator only; estimators with more than 1% failures
    are flagged invalid in the report.
    """
    if pop.N != design.N:
        raise DomainError(f"population has {pop.N} units but design expects {design.N}")
    cfg.nr.validate_for(design.N)
    n, k = design.n, design.k
    # Row i of the (k, n) transpose holds the sample with start index i + 1.
    xbars = [sum(xs) / n for xs in pop.x.reshape(n, k).T.tolist()]
    pop_mean_x = float(pop.x.mean())
    ybar_star, starts = _replicate_means(pop, design, cfg)
    drawn = sorted(set(starts.tolist()))  # np.unique would import numpy.ma
    estimates, failed = [], []
    for spec in cfg.estimators:
        h, bad = np.ones(k), np.zeros(k, dtype=bool)
        if spec.params is not None:
            for i in drawn:
                try:
                    h[i] = family_estimate(1.0, xbars[i], pop_mean_x, spec.params)
                except (SingularityError, DomainError):
                    bad[i] = True
        estimates.append(ybar_star * h[starts])
        failed.append(bad[starts])
    return _report(pop, cfg, estimates, failed)


def _replicate_means(
    pop: FinitePopulation, design: SystematicDesign, cfg: SimulationConfig
) -> tuple[np.ndarray, np.ndarray]:
    """ybar* and the 0-based start index of each replicate, in replicate order."""
    n, k, nr = design.n, design.k, cfg.nr
    y_samples = list(pop.y.reshape(n, k).T.copy())
    fixed = nr.mode is StratumMode.FIXED_STRATUM
    if fixed:
        missing = np.zeros(design.N, dtype=bool)
        missing[[u - 1 for u in nr.stratum or ()]] = True
        rows = [
            _sample_parts(ys, miss, n, nr.ell)
            for ys, miss in zip(y_samples, missing.reshape(n, k).T)
        ]

    ybar_stars, starts = np.empty(cfg.replicates), np.empty(cfg.replicates, dtype=np.intp)
    for rep, rng in enumerate(_replicate_streams(cfg.master_seed, cfg.replicates)):
        i = rep % k if cfg.exhaustive_start else draw_sample(design, rng) - 1
        n1, t1, nr_y, h2, ybar_star = (
            rows[i] if fixed else _sample_parts(y_samples[i], rng.random(n) < nr.w2, n, nr.ell)
        )
        if ybar_star is None:
            # The sorted indices pick the sub-sample a choice over the sorted
            # non-respondent units picks.
            chosen = np.sort(rng.choice(len(nr_y), h2, replace=False))
            ybar_star = _hh_mean(n, n1, t1, len(nr_y), h2, sum(nr_y[chosen].tolist()))
        ybar_stars[rep], starts[rep] = ybar_star, i
    return ybar_stars, starts


def _report(
    pop: FinitePopulation,
    cfg: SimulationConfig,
    estimates: Sequence[np.ndarray],
    failed: Sequence[np.ndarray],
) -> SimulationReport:
    """Aggregate each estimator's replicate estimates, skipping the failed ones."""
    true_mean_y = float(pop.y.mean())
    results = []
    for j, spec in enumerate(cfg.estimators):
        ok = ~failed[j]
        values = estimates[j][ok]
        n_used = int(ok.sum())
        n_failed = cfg.replicates - n_used
        # With every replicate failed (then also invalid) the moments are nan.
        empirical_mean = empirical_mse = mc_se_mse = math.nan
        if n_used > 0:
            empirical_mean = float(values.mean())
            squared_errors = (values - true_mean_y) ** 2
            empirical_mse = float(squared_errors.mean())
            mc_se_mse = (
                float(squared_errors.std(ddof=1) / math.sqrt(n_used)) if n_used >= 2 else 0.0
            )
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
    standard error.  With a zero standard error a gap within round-off,
    |gap| <= 8*eps*max(Ybar^2, |theory|), has z = 0; a larger gap fails
    with an infinite z of the gap's sign.
    """
    comparisons = []
    for label, theory_value in theory_values:
        result = report.by_label(label)
        gap = result.empirical_mse - theory_value
        if result.mc_se_mse == 0 or math.isnan(result.mc_se_mse):
            roundoff = 8 * sys.float_info.epsilon * max(
                report.true_mean_y**2, abs(theory_value)
            )
            z_score = 0.0 if abs(gap) <= roundoff else math.copysign(math.inf, gap)
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
