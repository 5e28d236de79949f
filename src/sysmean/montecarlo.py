"""Design-based Monte Carlo engine for verifying the closed-form theory.

Replicates the full mechanism (random or cycled start index, non-response,
follow-up sub-sampling) and aggregates each estimator's empirical bias and
MSE, with a Monte Carlo standard error for a z-test against the theory, in
memory that does not grow with the replicate count: `_StartSums` keeps per
start index i the count r_i and Σd..Σd⁴ of d = ybar* − K_i, K_i the first
ybar* drawn at i, which `_result` pools as Chan, Golub & LeVeque (1983) do.

Every estimator is ybar*·h(xbar) with h from the general family: an
`EstimatorSpec` with `params` None is h = 1 (the adjusted mean), and
`estimators.PRESETS` gives the ratio and product estimators' parameters
(alpha=1, g=+-1).  xbar depends on the start index alone, so
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
most 2**32 - 1 replicates.  The sums take the seed blocks in replicate
order, so a report is bit-identical for a given (population, design, config)
regardless of how the replicates would be scheduled.

The replicates run in blocks of up to _BLOCK_ROWS (`_Kernel`).  A block
keeps one C call per replicate, `PCG64(seed words).random_raw(count)`, into
a (rows, count) array of raw words, and makes its draws in array operations
by the rules numpy's Generator applies to those words (also stable under
NEP 19): the start index by Lemire's bounded integers on the low half of
column 0, the Bernoulli mask by comparing the words with the least one that
gives a double of at least w2, and the follow-up sub-sample by Floyd's rule,
one step at a time across all rows on the 32-bit half-word columns.  So the
draws are those of `draw_sample`, `Generator.random(n) < w2` and
`Generator.choice`.  A row in which Lemire's rule rejects a half-word (a
chance below span/2**32 a draw) is drawn again by a Generator on its stream,
and so is every row of a call whose follow-up takes _CHOICE_MIN draws or
more, which `Generator.choice` draws faster in C.

A call builds the k samples once, into the per-start table `_start_table`
gives of (population, design, non-response model): row i holds the sample
`SystematicDesign.samples` lays out there, its y values, xbar_i and, with a
fixed stratum, the parts `_Samples.of` gives of it: the respondent count and
y total, the non-respondents' y values in unit order and h2.  `_Kernel` keeps
only its draw state over that table.  Blocks take their rows from the table,
in Bernoulli mode with the parts under their drawn masks, and h reads xbar_i
there, through `_start_factors`, as does `_exact_errors`, the exact design
MSE and bias of each estimator over the k samples.  Every y and x total is
`sequential_totals`, added left to right from +0.0 as the per-unit reference
path (`draw_sample`, `apply_nonresponse`, `hh_mean`, `aux_mean`) adds, and
the streams are consumed as that path consumes them, so the replicates are
bit-identical to it on every Python version.  numpy keeps freed buffers of
under 1 KiB for reuse by size, and arrays of ever new sizes would make that
cache, and the process, grow call after call.  So a block's draw arrays (the
raw words and the starts, masks and follow-up places) take their shapes from
the block's row count alone, whatever its draws, and only a seed block's last
block has fewer rows.  In Bernoulli mode the non-respondents' y values, and
the follow-up places cut to them, are as wide as the block's largest n2, one
of at most n + 1 widths.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .design import (
    NonResponseModel,
    StratumMode,
    SystematicDesign,
    _stratum_mask,
    follow_up_draws,
    follow_up_sizes,
)
from .errors import ConfigurationError, DesignError, DomainError, SingularityError
from .estimators import FamilyParams, family_estimate, sequential_totals
from .population import FinitePopulation, PopulationMoments, population_fingerprint
from .population import stratum_mean_square

# Not called here; bound so that perfbench/tracing.py TARGETS still resolve.
from .design import apply_nonresponse, draw_sample  # noqa: F401
from .estimators import aux_mean, hh_mean, product_estimate, ratio_estimate  # noqa: F401

# An estimator whose replicates fail more often than this is reported invalid.
MAX_FAILURE_RATE = 0.01

# Replicate r's spawn key (r+1,) is one 32-bit word.
MAX_REPLICATES = 2**32 - 1

# Replicate streams are seeded this many at a time, so seeding holds O(block) memory.
SEED_BLOCK = 1024


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator ybar*·h(xbar), h given by family `params` (None: h = 1)."""

    label: str
    params: FamilyParams | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.params, (FamilyParams, type(None))):
            raise ConfigurationError(
                f"estimator {self.label!r} needs FamilyParams or None, got {self.params!r}"
            )


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
    constant from `hash_const`, in place: uint32 arithmetic held in uint64."""
    consts = [hash_const]
    for _ in range(values.shape[1]):
        consts.append(consts[-1] * mult & _MASK32)
    values ^= np.array(consts[:-1], np.uint64)
    values *= np.array(consts[1:], np.uint64)
    values &= _MASK32
    values ^= values >> 16
    return values


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
    # Each step hashes in place, so a block holds few arrays at once.
    keys = np.arange(first + 1, stop + 1, dtype=np.uint64)[:, None].repeat(4, axis=1)
    mixed = _hashmix(keys, spawn_const, _MULT_A)
    mixed *= np.uint64(_MIX_MULT_R)
    np.subtract(pool * _MIX_MULT_L, mixed, out=mixed)
    mixed &= _MASK32
    mixed ^= mixed >> 16
    state = _hashmix(mixed[:, [0, 1, 2, 3, 0, 1, 2, 3]], _INIT_B, _MULT_B)
    # PCG64 reads a row as 4 consecutive words.
    state[:, 1::2] <<= 32
    return np.bitwise_or(state[:, 0::2], state[:, 1::2], out=mixed)


class _StreamSeed(np.random.bit_generator.ISeedSequence):
    """One row of `_stream_words`, handed to `PCG64`, which asks for exactly
    those 4 uint64 words and seeds itself from them in C."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


# A call whose follow-up takes this many draws or more (the largest one in a
# fixed stratum, one at the expected non-response in Bernoulli mode) makes its
# draws with a Generator on each stream, whose `choice` runs Floyd's rule in C;
# below it the block kernel reads them off the raw words, which is faster
# (BENCH_16.json, "draw_paths": the crossover is near 100 draws in both modes).
_CHOICE_MIN = 100
# `Generator.choice` shuffles a tail instead of taking Floyd's rule when it
# draws more than a 50th of more than this many places; `_floyd` does not.
_FLOYD_MAX_POPULATION = 10_000
# A block of replicates holds at most _BLOCK_ROWS rows and _BLOCK_CELLS sample
# cells (rows × n in Bernoulli mode, rows × the most non-respondents of a start
# with a fixed stratum), so its temporaries stay below those of seeding
# SEED_BLOCK streams: 128 rows at n = 12, 13 at n = 1200 (BENCH_16.json,
# "block_rows").
_BLOCK_ROWS = 128
_BLOCK_CELLS = 16384


def design_rng(master_seed: int) -> np.random.Generator:
    """Stream for design-level draws (e.g. stratum selection), key (0,)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(0,)))


def nonresponse_design(
    pop: FinitePopulation, moments: PopulationMoments, w2: float, ell: float,
    master_seed: int, mode: StratumMode = StratumMode.FIXED_STRATUM,
) -> tuple[NonResponseModel, float, PopulationMoments]:
    """The non-response model of rate w2 and sub-sampling ratio ell on `pop`, and
    the rate and `moments` its first-order theory takes.

    A fixed stratum is round(w2·N) units drawn without replacement by
    `design_rng(master_seed)`, refused if it holds every unit; the theory takes
    its share of N and its mean square as S2_y2.  In Bernoulli mode every unit
    non-responds with probability w2, and the theory takes w2 and S2_y.  S2_y2
    is set only where `moments` leaves it unset and the theory needs it."""
    fixed = mode is StratumMode.FIXED_STRATUM
    nr = NonResponseModel(w2, ell, mode, frozenset() if fixed else None)
    if fixed:
        size = nr.stratum_size(pop.N)
        if size == pop.N:
            raise ConfigurationError(
                f"non-response rate w2={w2} puts all {size} of {pop.N} units in the "
                "non-response stratum; at least one unit must respond"
            )
        chosen = design_rng(master_seed).choice(pop.N, size, replace=False)
        nr, w2 = replace(nr, stratum=frozenset(int(u) + 1 for u in chosen)), size / pop.N
    if w2 > 0 and ell > 1 and moments.s2_y2 is None:
        s2_y2 = stratum_mean_square(pop, nr.stratum) if fixed else moments.s2_y
        moments = replace(moments, s2_y2=s2_y2)
    return nr, w2, moments


def _lemire(halves: np.ndarray, span) -> tuple[np.ndarray, np.ndarray]:
    """`Generator.integers(0, span)` by Lemire's rule (arXiv:1805.10941) on each
    uint64-held 32-bit half-word: the high word of half·span, and whether the rule
    rejects it (its low word is below 2**32 mod span) and takes the next half-word."""
    product = halves * span
    return (product >> 32).astype(np.intp), product & _MASK32 < (1 << 32) % span


def _floyd(
    halves: np.ndarray, n2: np.ndarray, steps: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """`Generator.choice(n2, h2, replace=False)`'s places for every row at once,
    h2 = `steps` < n2 <= width (no draw where `steps` is 0), by Floyd's rule
    (Bentley & Floyd 1987), which `choice` takes where n2 <= _FLOYD_MAX_POPULATION
    or h2 <= n2 // 50: step s draws t in 0..j, j = n2 - h2 + s, from half-word
    column s and takes j if t is taken.  Only the takes go one step at a time
    across all rows.  Gives the (rows, width) mask of the places taken, and
    whether a row had a draw rejected, after which its steps read the wrong
    half-words."""
    columns = np.arange(halves.shape[1])
    live = columns < steps[:, None]
    j = (n2 - steps)[:, None] + columns
    t, bad = _lemire(halves, (j + 1).astype(np.uint64))
    # A row's steps past its h2 take its spare last place.
    t[~live] = j[~live] = width
    # Places as flat indices into the rows' taken masks, one step per row.
    base = np.arange(len(n2))[:, None] * (width + 1)
    t, j = (t + base).T.copy(), (j + base).T.copy()
    taken = np.zeros(len(n2) * (width + 1), dtype=bool)
    for step in columns:
        taken[np.where(taken[t[step]], j[step], t[step])] = True
    return taken.reshape(len(n2), width + 1)[:, :width], (bad & live).any(axis=1)


def _hh_means(n: int, n1, t1, n2, h2, t2) -> np.ndarray:
    """ybar* = (n1·(t1/n1) + n2·(t2/h2)) / n elementwise from the respondent and
    follow-up y totals, in `hh_mean`'s operation order: from 0.0, a term left
    out where its count is 0."""
    respondents, follow_up = np.zeros(len(n1)), np.zeros(len(n1))
    np.divide(t1, n1, out=respondents, where=n1 > 0)
    np.divide(t2, h2, out=follow_up, where=n2 > 0)
    total = 0.0 + n1 * respondents
    total += n2 * follow_up
    return total / n


@dataclass(frozen=True)
class _Samples:
    """Per sample (row): the respondent count n1 and y total t1, the
    non-respondent count n2, the follow-up size h2 and the non-respondents'
    y values in unit order, zero-padded to the widest row.  With a fixed
    stratum, the table of every start."""

    n1: np.ndarray
    t1: np.ndarray
    n2: np.ndarray
    h2: np.ndarray
    nr_y: np.ndarray

    @classmethod
    def of(cls, ys: np.ndarray, miss: np.ndarray, h2_of: np.ndarray) -> _Samples:
        """The parts of each row of y values and its non-respondent mask;
        `h2_of[n2]` is the follow-up size of n2 non-respondents."""
        n2 = miss.sum(axis=1)
        rows, units = np.divmod(np.flatnonzero(miss), ys.shape[1])
        nr_y = np.zeros((len(ys), int(n2.max(initial=0))))
        nr_y[rows, np.arange(len(rows)) - np.repeat(np.cumsum(n2) - n2, n2)] = ys[rows, units]
        return cls(ys.shape[1] - n2, sequential_totals(ys, ~miss), n2, h2_of[n2], nr_y)

    def take(self, rows: np.ndarray) -> _Samples:
        return _Samples(self.n1[rows], self.t1[rows], self.n2[rows], self.h2[rows], self.nr_y[rows])


@dataclass(frozen=True)
class _StartTable:
    """The k candidate samples of a design, a row each as `design.samples`
    lays them out: its y values `ys`, its x mean `xbars[i]` and, with a fixed
    stratum, its `_Samples` parts (`stratum`; None in Bernoulli mode).
    `h2_of[n2]` is the follow-up size of n2 non-respondents, w2 the
    non-response rate, and `mean_x`, `mean_y` are the population means."""

    ys: np.ndarray
    xbars: list[float]
    stratum: _Samples | None
    h2_of: np.ndarray
    w2: float
    mean_x: float
    mean_y: float


def _start_table(
    pop: FinitePopulation, design: SystematicDesign, nr: NonResponseModel
) -> _StartTable:
    """The per-start table of `design` on `pop` under `nr`, its rows the
    samples of `design.samples`; a fixed stratum must hold round(w2·N) units."""
    # Contiguous rows: `_exact_errors`'s row means of the strided view differ in the last bit.
    ys, xs = (design.samples(units).copy() for units in (pop.y, pop.x))
    h2_of = follow_up_sizes(design.n, nr.ell)
    stratum = None
    if nr.mode is StratumMode.FIXED_STRATUM:
        units, size = nr.stratum or frozenset(), nr.stratum_size(design.N)
        if len(units) != size:
            raise DesignError(f"stratum size {len(units)} does not match round(w2*N)={size}")
        missing = design.samples(_stratum_mask(units, design.N))
        stratum = _Samples.of(ys, missing, h2_of)
    xbars = (sequential_totals(xs) / design.n).tolist()
    return _StartTable(ys, xbars, stratum, h2_of, nr.w2, float(pop.x.mean()), float(pop.y.mean()))


class _StartSums:
    """Per start index i: `first[i]`, K_i, the first ybar* drawn at i, and in
    column i of `sums` the count r_i and Σd, Σd², Σd³, Σd⁴ of d = ybar* − K_i."""

    def __init__(self, k: int) -> None:
        self.first, self.sums = np.zeros(k), np.zeros((5, k))

    def add(self, starts: np.ndarray, ybar_star: np.ndarray) -> None:
        """Add a seed block of replicates, in replicate order, as the sums take them."""
        k, rows = len(self.first), len(starts)
        first_at = np.full(k, rows)  # each start's first row in the block, else `rows`
        np.minimum.at(first_at, starts, np.arange(rows))
        new = (self.sums[0] == 0) & (first_at < rows)
        self.first[new] = ybar_star[first_at[new]]
        d = ybar_star - self.first[starts]
        d2 = d * d
        powers = (np.ones_like(d), d, d2, d2 * d, d2 * d2)
        self.sums += [np.bincount(starts, weights=power, minlength=k) for power in powers]


class _Kernel:
    """One call's replicates, a block at a time, over its per-start `table`.

    A block's draws give each replicate's start index, in Bernoulli mode its
    non-respondent mask, and where h2 < n2 the places its follow-up takes
    among its non-respondents in unit order, as a `choice` over the sorted
    non-respondent units picks them; `block` then forms the block's ybar* in
    array operations.  Below _CHOICE_MIN follow-up draws, `_raw_draws` reads
    the draws off a (rows, count) array of raw words by the Generator's rules;
    `_draw_row` draws a row with a Generator on its stream, every row from
    _CHOICE_MIN on and below it a row with a rejected half-word.
    """

    def __init__(self, pop: FinitePopulation, design: SystematicDesign, cfg: SimulationConfig):
        self.table = table = _start_table(pop, design, cfg.nr)
        self.n, self.k = n, k = design.n, design.k
        self.replicates, self.master_seed = cfg.replicates, cfg.master_seed
        # A word w gives the double (w >> 11)·2**-53, which is below w2 exactly
        # when w < ceil(w2·2**53) << 11.
        self.below = np.uint64(math.ceil(table.w2 * 2**53) << 11)
        self.fixed = table.stratum is not None
        if self.fixed:
            parts = table.stratum
            h2_max = follow_up = int(follow_up_draws(parts.n2, parts.h2).max(initial=0))
            # A block touches only the non-respondents of its starts.
            self.width = max(parts.nr_y.shape[1], 1)
        else:
            h2_max = int(table.h2_of[n])
            # Up to _FLOYD_MAX_POPULATION units, no follow-up needs a tail shuffle.
            expected = int(table.h2_of[round(table.w2 * n)])
            follow_up = expected if n <= _FLOYD_MAX_POPULATION else h2_max
            self.width = n
        self.raw = follow_up < _CHOICE_MIN
        self.rows = min(_BLOCK_ROWS, max(1, _BLOCK_CELLS // self.width))
        # Words for the start (a half-word), the Bernoulli mask (a word per unit)
        # and the follow-up (a half-word per draw, the first of them the start
        # word's high half); a row with a rejected draw is drawn again.
        self.start_draw = k > 1 and not cfg.exhaustive_start
        self.follow_up_at = self.start_draw + (0 if self.fixed else n)
        self.count = self.follow_up_at + (max(h2_max - self.start_draw, 0) + 1) // 2

    def start_sums(self) -> _StartSums:
        """The per-start sums of the call's replicates, added a seed block at a time."""
        sums = _StartSums(self.k)
        ybar_star, starts = np.empty(SEED_BLOCK), np.empty(SEED_BLOCK, dtype=np.intp)
        for first in range(0, self.replicates, SEED_BLOCK):
            seeds = _stream_words(self.master_seed, first, min(first + SEED_BLOCK, self.replicates))
            for lo in range(0, len(seeds), self.rows):
                block = slice(lo, min(lo + self.rows, len(seeds)))
                ybar_star[block], starts[block] = self.block(seeds[block], first + lo)
            sums.add(starts[: len(seeds)], ybar_star[: len(seeds)])
        return sums

    def block(self, seeds: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
        """ybar* and the 0-based start index of replicates first, first + 1, ...
        whose streams have the seed words `seeds`."""
        rows = len(seeds)
        if self.raw:
            bitgens = (np.random.PCG64(_StreamSeed(seed)) for seed in seeds)
            words = np.array([bitgen.random_raw(self.count) for bitgen in bitgens])
            starts, miss, taken, redo = self._raw_draws(words, first)
        else:
            starts, redo = np.empty(rows, dtype=np.intp), np.ones(rows, dtype=bool)
            miss = None if self.fixed else np.empty((rows, self.n), dtype=bool)
            taken = np.empty((rows, self.width), dtype=bool)
        for row in np.flatnonzero(redo).tolist():
            self._draw_row(seeds[row], first + row, row, starts, miss, taken)
        if self.fixed:
            parts = self.table.stratum.take(starts)
        else:
            parts = _Samples.of(self.table.ys[starts], miss, self.table.h2_of)
        # A sample without a draw follows up all its non-respondents; the
        # padding adds +0.0, which leaves a total from +0.0 as it is.
        drawn = follow_up_draws(parts.n2, parts.h2) > 0
        followed = np.where(drawn[:, None], taken[:, : parts.nr_y.shape[1]], True)
        t2 = sequential_totals(parts.nr_y, followed)
        return _hh_means(self.n, parts.n1, parts.t1, parts.n2, parts.h2, t2), starts

    def _raw_draws(self, words: np.ndarray, first: int):
        """The starts, masks and follow-up places read off each row of raw words
        (replicates first, first + 1, ...), and whether a row read a half-word
        that Lemire's rule rejects, whose draws are then not its stream's."""
        rows = len(words)
        if self.start_draw:
            starts, redo = _lemire(words[:, 0] & _MASK32, np.uint64(self.k))
        else:
            starts, redo = (first + np.arange(rows)) % self.k, np.zeros(rows, dtype=bool)
        miss = None if self.fixed else words[:, self.start_draw : self.follow_up_at] < self.below
        n2 = self.table.stratum.n2[starts] if self.fixed else miss.sum(axis=1)
        steps = follow_up_draws(n2, self.table.h2_of[n2])
        taken = np.zeros((rows, self.width), dtype=bool)
        if steps.any():
            halves = self._follow_up_halves(words, int(steps.max()))
            taken, rejected = _floyd(halves, n2, steps, self.width)
            redo |= rejected
        return starts, miss, taken, redo

    def _follow_up_halves(self, words: np.ndarray, draws: int) -> np.ndarray:
        """Each row's first `draws` follow-up half-words in the Generator's
        order: the start word's high half, if the start took its low half, then
        each next word's low and high halves."""
        tail = words[:, self.follow_up_at : self.follow_up_at + (draws - self.start_draw + 1) // 2]
        halves = np.empty((len(words), 2 * tail.shape[1]), dtype=np.uint64)
        halves[:, 0::2] = tail & _MASK32
        halves[:, 1::2] = tail >> 32
        if self.start_draw:
            halves = np.concatenate((words[:, :1] >> 32, halves), axis=1)
        return halves[:, :draws]

    def _draw_row(self, seed: np.ndarray, rep: int, row: int, starts, miss, taken) -> None:
        """Replicate rep's draws by a Generator on its stream, whose seed words
        are `seed`, into row `row` of the block's arrays."""
        rng = np.random.Generator(np.random.PCG64(_StreamSeed(seed)))
        i = int(rng.integers(0, self.k)) if self.start_draw else rep % self.k
        starts[row] = i
        if self.fixed:
            n2 = int(self.table.stratum.n2[i])
        else:
            miss[row] = rng.random(self.n) < self.table.w2
            n2 = np.count_nonzero(miss[row])
        draws = int(follow_up_draws(n2, self.table.h2_of[n2]))
        taken[row] = False
        if draws:
            taken[row, rng.choice(n2, draws, replace=False)] = True


def _start_factors(
    spec: EstimatorSpec, table: _StartTable, starts
) -> tuple[np.ndarray, np.ndarray]:
    """h(xbar_i) of `spec` at each start index i in `starts`, and whether h
    raises a singularity or domain error there; h = 1 and no failure elsewhere."""
    h, bad = np.ones(len(table.xbars)), np.zeros(len(table.xbars), dtype=bool)
    if spec.params is not None:
        for i in starts:
            try:
                h[i] = family_estimate(1.0, table.xbars[i], table.mean_x, spec.params)
            except (SingularityError, DomainError):
                bad[i] = True
    return h, bad


def run_simulation(
    pop: FinitePopulation, design: SystematicDesign, cfg: SimulationConfig
) -> SimulationReport:
    """Replicate the design and aggregate empirical bias/MSE per estimator.

    Deterministic given (population, design, config).  A start index on
    which h raises a singularity or domain error fails every replicate that
    draws it, for that estimator only; estimators with more than 1% failures
    are flagged invalid in the report.
    """
    kernel = _Kernel(pop, design, cfg)
    sums, table = kernel.start_sums(), kernel.table
    drawn = np.flatnonzero(sums.sums[0]).tolist()
    results = tuple(
        _result(spec.label, *_start_factors(spec, table, drawn), sums, table.mean_y)
        for spec in cfg.estimators
    )
    sha = population_fingerprint(pop)
    return SimulationReport(results, cfg.replicates, cfg.master_seed, sha, table.mean_y)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # log(0) at w2 = 0; inf squares
def _exact_errors(table: _StartTable, specs) -> list[tuple[float, float]]:
    """The exact design MSE and bias of each of `specs`, from the k samples.

    Given start i, ybar* has mean mu_i, the sample's y mean, and variance
    v_i: with a fixed stratum (n2_i/n)²·(1/h2_i − 1/n2_i)·s²_i, s²_i the mean
    square of y over the sample's non-respondents (v_i = 0 where h2_i >= n2_i);
    in Bernoulli mode c·s²_i, s²_i the mean square of y over the sample and
    c = Σ_j Bin(j; n, w2)·(j/n)²·(1/h2(j) − 1/j) (Hansen & Hurwitz 1946).
    So ybar*·h_i has MSE mean_i[h_i²·v_i + (h_i·mu_i − Ybar)²] and bias
    mean_i(h_i·mu_i) − Ybar, over the starts where h is defined; both are
    nan where it is defined at none."""
    k, n = table.ys.shape
    mu, v = table.ys.mean(axis=1), np.zeros(k)
    if table.stratum is None:
        j = np.arange(1, n + 1)
        log_fact = np.array([math.lgamma(m + 1) for m in range(n + 1)])
        log_pmf = log_fact[n] - log_fact[j] - log_fact[n - j]
        log_pmf += j * np.log(table.w2) + (n - j) * np.log1p(-table.w2)
        c = np.sum(np.exp(log_pmf) * (j / n) ** 2 * (1 / table.h2_of[j] - 1 / j))
        v = c * table.ys.var(axis=1, ddof=1)
    else:
        parts = table.stratum
        rows = np.flatnonzero(follow_up_draws(parts.n2, parts.h2))
        n2, h2, nr_y = parts.n2[rows], parts.h2[rows], parts.nr_y[rows]
        s2 = nr_y.var(axis=1, ddof=1, where=np.arange(nr_y.shape[1]) < n2[:, None])
        v[rows] = (n2 / n) ** 2 * (1 / h2 - 1 / n2) * s2
    errors = []
    for spec in specs:
        h, bad = _start_factors(spec, table, range(k))
        ok = ~bad
        if not ok.any():
            errors.append((math.nan, math.nan))
            continue
        means = h[ok] * mu[ok]
        mse = np.mean(h[ok] ** 2 * v[ok] + (means - table.mean_y) ** 2)
        errors.append((float(mse), float(np.mean(means) - table.mean_y)))
    return errors


@np.errstate(over="ignore", invalid="ignore")  # a square that overflows is an MSE of inf
def _result(label: str, h, bad, sums: _StartSums, true_mean_y: float) -> EstimatorResult:
    """One estimator's result in O(k) from its h_i, the starts where h fails,
    whose replicates are left out, and the per-start sums.

    At start i the error is e = u + c, u = h_i·d and c = h_i·K_i − Ybar, so
    with t_p = h_i^p·Σd^p there, Σe² = t2 + 2c·t1 + r·c².  The MC SE of the
    MSE needs Σ(e² − mse)²: within each start, Σ(u² − t2/r + 2c(u − t1/r))²
    = t4 − t2²/r + 4c(t3 − t2·t1/r) + 4c²(t2 − t1²/r), and between the starts,
    r·(Σe²/r − mse)², 0 where every d is 0 and with one start."""
    used = ~bad & (sums.sums[0] > 0)
    r, s1, s2, s3, s4 = sums.sums[:, used]
    h, first = h[used], sums.first[used]
    h2 = h * h
    t1, t2, t3, t4 = h * s1, h2 * s2, h2 * h * s3, h2 * h2 * s4
    c = h * first - true_mean_y
    n_used, replicates = int(r.sum()), int(sums.sums[0].sum())
    # With every replicate failed (then also invalid) the moments are nan.
    mean = mse = se = math.nan
    if n_used > 0:
        mean = float(np.sum(h * first * r + t1) / n_used)
        squares = t2 + 2 * c * t1 + r * c * c
        mse, se = float(np.sum(squares) / n_used), 0.0
    if n_used > 1:
        within = t4 - t2 * t2 / r + 4 * c * (t3 - t2 * t1 / r) + 4 * c * c * (t2 - t1 * t1 / r)
        gap = squares / r - mse
        deviations = float(np.sum(within + r * gap**2))
        # Round-off: a few eps of each within term, and r·(2|gap| + u)·u for a
        # gap off by u.  A sum within it (below 0, or every e² equal) is 0.
        eps = 8 * sys.float_info.epsilon
        bound = t4 + t2 * t2 / r + 4 * abs(c) * (abs(t3) + abs(t2 * t1) / r)
        bound = eps * (bound + 4 * c * c * (t2 + t1 * t1 / r))
        u = eps * (abs(squares) / r + mse)
        if not deviations <= float(np.sum(bound + r * (2 * abs(gap) + u) * u)) < math.inf:
            se = math.sqrt(max(deviations, 0.0) / (n_used - 1)) / math.sqrt(n_used)
    n_failed = replicates - n_used
    valid = n_failed / replicates <= MAX_FAILURE_RATE
    return EstimatorResult(label, n_used, n_failed, mean, mean - true_mean_y, mse, se, valid)


def compare_to_theory(
    report: SimulationReport,
    theory_values: list[tuple[str, float]],
    tolerance_sigma: float = 3.0,
) -> list[TheoryComparison]:
    """z-test each labelled empirical MSE against its closed-form target.

    PASS iff |z| <= tolerance_sigma, where z = (empirical - theory) / MC
    standard error.  With a zero standard error a gap within round-off,
    |gap| <= 8*eps*max(Ybar^2, |theory|), has z = 0; a larger gap fails
    with an infinite z of the gap's sign.  A theory value that is not finite
    never passes.
    """
    comparisons = []
    for label, theory_value in theory_values:
        result = report.by_label(label)
        gap = result.empirical_mse - theory_value
        if result.mc_se_mse == 0 or math.isnan(result.mc_se_mse):
            roundoff = 8 * sys.float_info.epsilon * max(
                report.true_mean_y * report.true_mean_y, abs(theory_value)
            )
            within = abs(gap) <= roundoff and math.isfinite(theory_value)
            z_score = 0.0 if within else math.copysign(math.inf, gap)
        else:
            z_score = gap / result.mc_se_mse
        if theory_value != 0:
            rel_gap = gap / theory_value
        else:
            rel_gap = 0.0 if gap == 0 else math.copysign(math.inf, gap)
        verdict = "PASS" if abs(z_score) <= tolerance_sigma else "FAIL"
        comparisons.append(
            TheoryComparison(label, result.empirical_mse, theory_value, z_score, rel_gap, verdict)
        )
    return comparisons
