"""Systematic designs and the non-response sub-sampling mechanism.

A design partitions N = n*k units (numbered 1..N in a fixed order) into k
candidate samples; the i-th sample is (i, i+k, ..., i+(n-1)k) and one of the
k is drawn by choosing the start index at random; every per-sample sum reads
that layout from `SystematicDesign.samples`.  Non-response affects the study
variable only: the auxiliary value is observed on all n sampled units, while
non-respondents are re-contacted on a sub-sample of h2 out of n2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .errors import DesignError, DomainError

if TYPE_CHECKING:
    from .population import FinitePopulation


class StratumMode(Enum):
    """How the non-responding units are determined in simulation.

    ``FIXED_STRATUM`` is the theory-faithful mode: a fixed subset of the
    population never responds at first call.  ``BERNOULLI_PER_REPLICATE``
    re-draws the non-respondents independently in every replicate and is
    offered for robustness experiments only.
    """

    FIXED_STRATUM = "fixed"
    BERNOULLI_PER_REPLICATE = "bernoulli"


@dataclass(frozen=True)
class SystematicDesign:
    """Equal-interval design: N = n*k units, k = N // n candidate samples of size n.

    An n that does not divide N is refused with the nearest sizes that do."""

    N: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DesignError(f"sample size n must be >= 2, got n={self.n}")
        if self.N < 2 or self.N % self.n != 0:
            candidates = nearest_valid_sample_sizes(self.N, self.n)
            hint = f"; nearest valid sample sizes: {candidates}" if candidates else ""
            raise DesignError(f"n={self.n} does not divide N={self.N}{hint}")

    @property
    def k(self) -> int:
        return self.N // self.n

    def samples(self, values: np.ndarray) -> np.ndarray:
        """The (k, n) view of N unit values, row i the sample with start index
        i + 1; values of any other shape raise DesignError."""
        if values.shape != (self.N,):
            raise DesignError(f"expected {self.N} values for design N={self.N}, got {values.shape}")
        return values.reshape(self.n, self.k).T


def valid_sample_sizes(N: int) -> list[int]:
    """All sample sizes n >= 2 with N divisible by n, ascending, in O(sqrt(N)) steps."""
    small = [d for d in range(1, math.isqrt(max(N, 0)) + 1) if N % d == 0]
    large = [N // d for d in reversed(small) if d * d != N]
    return [d for d in small + large if d >= 2]


def nearest_valid_sample_sizes(N: int, n: int) -> list[int]:
    """Up to five divisors of N closest to the requested n."""
    return sorted(valid_sample_sizes(N), key=lambda c: (abs(c - n), c))[:5]


@dataclass(frozen=True)
class NonResponseModel:
    """Non-response rate w2, sub-sampling ratio ell = n2/h2, and stratum rule.

    With ``ell = 1`` every non-respondent is re-contacted, so no information
    is lost beyond the second call.  ``stratum`` (1-based unit indices) is
    required for FIXED_STRATUM with w2 > 0, refused in the other mode, and
    checked by `run_simulation` to have round(w2 * N) units in 1..N.
    """

    w2: float
    ell: float
    mode: StratumMode = StratumMode.FIXED_STRATUM
    stratum: frozenset[int] | None = None

    def __post_init__(self) -> None:
        check_rates(self.w2, self.ell)
        if self.mode is StratumMode.FIXED_STRATUM and self.w2 > 0 and self.stratum is None:
            raise DesignError("FIXED_STRATUM with w2 > 0 requires an explicit stratum")
        if self.mode is not StratumMode.FIXED_STRATUM and self.stratum is not None:
            raise DesignError(f"a stratum applies only to FIXED_STRATUM, not to {self.mode.name}")

    def stratum_size(self, N: int) -> int:
        """The number of units, round(w2·N), in a fixed stratum of N units."""
        return round(self.w2 * N)


def check_rates(w2: float, ell: float) -> None:
    """Refuse a non-response rate w2 outside [0, 1) and a ratio ell below 1 or nan."""
    if not 0.0 <= w2 < 1.0:
        raise DomainError(f"non-response rate w2 must be in [0, 1), got {w2}")
    if not ell >= 1.0:
        raise DomainError(f"sub-sampling ratio ell must be >= 1, got {ell}")


def _stratum_mask(units: Iterable[int], N: int) -> np.ndarray:
    """The (N,) mask of the 1-based unit ids `units`.  An id that is not an
    integer, or one outside 1..N, raises DesignError."""
    ids = np.fromiter(units, dtype=float)
    fractional = ids[np.trunc(ids) != ids]
    if fractional.size:
        raise DesignError(f"stratum unit id {float(fractional.min())!r} is not an integer")
    if ((ids < 1) | (ids > N)).any():
        raise DesignError("stratum contains unit indices outside 1..N")
    mask = np.zeros(N, dtype=bool)
    mask[ids.astype(np.intp) - 1] = True
    return mask


@dataclass(frozen=True)
class SampleRealization:
    """One drawn systematic sample after the non-response mechanism ran.

    `y_observed` holds the study values for respondents plus the follow-up
    sub-sample; `x_observed` holds the auxiliary values of all n units in
    sample order (the auxiliary variable is free from non-response).
    """

    sample_index: int
    units: tuple[int, ...]
    respondents: frozenset[int]
    nonrespondents: frozenset[int]
    subsample: frozenset[int]
    y_observed: Mapping[int, float]
    x_observed: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.units)
        if len(self.respondents) + len(self.nonrespondents) != n:
            raise DomainError("respondents and non-respondents must partition the sample")
        if not self.subsample <= self.nonrespondents:
            raise DomainError("follow-up sub-sample must be drawn from the non-respondents")
        if self.nonrespondents and not self.subsample:
            raise DomainError("at least one non-respondent must be followed up when n2 >= 1")
        if set(self.y_observed) != self.respondents | self.subsample:
            raise DomainError("y must be observed exactly on respondents plus sub-sample")
        if len(self.x_observed) != n:
            raise DomainError("x must be observed on all n sample units")


def draw_sample(design: SystematicDesign, rng: np.random.Generator) -> int:
    """Draw the random start index, uniform over 1..k."""
    return int(rng.integers(1, design.k + 1))


def follow_up_sizes(n2_max: int, ell: float) -> np.ndarray:
    """The sub-sample size h2 of j = 0..n2_max non-respondents: max(1, round(j/ell)),
    0 at j = 0, rounding half to even (`np.rint`)."""
    sizes = np.maximum(1, np.rint(np.arange(n2_max + 1) / ell)).astype(np.intp)
    sizes[0] = 0
    return sizes


def follow_up_size(n2: int, ell: float) -> int:
    """The sub-sample size h2 of n2 non-respondents, as `follow_up_sizes` gives it."""
    return int(follow_up_sizes(n2, ell)[n2])


def follow_up_draws(n2, h2):
    """How many of its n2 non-respondents a follow-up of h2 draws at random,
    elementwise: h2, or 0 where it takes them all (h2 = n2)."""
    return np.where(h2 < n2, h2, 0)


def apply_nonresponse(
    units: Sequence[int],
    pop: "FinitePopulation",
    nr: NonResponseModel,
    rng: np.random.Generator,
) -> SampleRealization:
    """Run the non-response mechanism on one systematic sample.

    FIXED_STRATUM: the non-respondents are the sample units that belong to the
    stratum.  BERNOULLI_PER_REPLICATE: each unit independently non-responds
    with probability w2 (one uniform vector drawn from `rng`).  The follow-up
    sub-sample of size h2 is then drawn uniformly without replacement.
    """
    units = tuple(int(u) for u in units)
    n = len(units)
    if nr.mode is StratumMode.FIXED_STRATUM:
        stratum = nr.stratum or frozenset()
        nonrespondents = frozenset(u for u in units if u in stratum)
    else:
        mask = rng.random(n) < nr.w2
        nonrespondents = frozenset(u for u, missing in zip(units, mask) if missing)
    respondents = frozenset(units) - nonrespondents

    n2 = len(nonrespondents)
    draws = int(follow_up_draws(n2, follow_up_size(n2, nr.ell)))
    subsample = nonrespondents
    if draws:
        chosen = rng.choice(sorted(nonrespondents), size=draws, replace=False)
        subsample = frozenset(int(u) for u in chosen)

    observed = sorted(respondents | subsample)
    y_observed = {u: pop.y.item(u - 1) for u in observed}
    x_observed = tuple(pop.x.item(u - 1) for u in units)
    return SampleRealization(
        units[0], units, respondents, nonrespondents, subsample, y_observed, x_observed
    )
