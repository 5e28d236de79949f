"""Systematic-sample enumeration and the non-response sub-sampling mechanism.

A design partitions N = n*k units (numbered 1..N in a fixed order) into k
candidate samples; the i-th sample is (i, i+k, ..., i+(n-1)k) and one of the
k is drawn by choosing the start index at random.  Non-response affects the
study variable only: the auxiliary value is observed on all n sampled units,
while non-respondents are re-contacted on a sub-sample of h2 out of n2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Sequence

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
    required for FIXED_STRATUM with w2 > 0 and must have round(w2 * N) units.
    """

    w2: float
    ell: float
    mode: StratumMode = StratumMode.FIXED_STRATUM
    stratum: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.w2 < 1.0:
            raise DomainError(f"non-response rate w2 must be in [0, 1), got {self.w2}")
        if not self.ell >= 1.0:
            raise DomainError(f"sub-sampling ratio ell must be >= 1, got {self.ell}")
        if self.mode is StratumMode.FIXED_STRATUM and self.w2 > 0 and self.stratum is None:
            raise DesignError("FIXED_STRATUM with w2 > 0 requires an explicit stratum")

    def validate_for(self, N: int) -> None:
        """Check the stratum against a concrete population size."""
        if self.mode is not StratumMode.FIXED_STRATUM:
            return
        stratum = self.stratum or frozenset()
        expected = round(self.w2 * N)
        if len(stratum) != expected:
            raise DesignError(
                f"stratum size {len(stratum)} does not match round(w2*N)={expected}"
            )
        if stratum and not all(1 <= u <= N for u in stratum):
            raise DesignError("stratum contains unit indices outside 1..N")


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


def enumerate_samples(design: SystematicDesign) -> list[tuple[int, ...]]:
    """All k candidate samples; the i-th is (i, i+k, ..., i+(n-1)k), 1-based."""
    return [tuple(range(start, design.N + 1, design.k)) for start in range(1, design.k + 1)]


def draw_sample(design: SystematicDesign, rng: np.random.Generator) -> int:
    """Draw the random start index, uniform over 1..k."""
    return int(rng.integers(1, design.k + 1))


def enumerated_design_variance(values: Sequence[float], design: SystematicDesign) -> float:
    """Exact variance of the sample mean over the k equally likely samples."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size != design.N:
        raise DesignError(f"expected {design.N} values, got {v.size}")
    sample_means = v.reshape(design.n, design.k).mean(axis=0)
    return float(((sample_means - v.mean()) ** 2).mean())


def follow_up_size(n2: int, ell: float) -> int:
    """Sub-sample size h2 for n2 non-respondents: max(1, round(n2/ell)), 0 if n2 = 0."""
    if n2 == 0:
        return 0
    return max(1, round(n2 / ell))


def follow_up_sizes(n2_max: int, ell: float) -> np.ndarray:
    """`follow_up_size(j, ell)` for j = 0..n2_max; `np.rint` rounds half to
    even, as `round` does."""
    sizes = np.maximum(1, np.rint(np.arange(n2_max + 1) / ell)).astype(np.intp)
    sizes[0] = 0
    return sizes


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
    h2 = follow_up_size(n2, nr.ell)
    if h2 == 0:
        subsample: frozenset[int] = frozenset()
    elif h2 >= n2:
        subsample = nonrespondents
    else:
        chosen = rng.choice(sorted(nonrespondents), size=h2, replace=False)
        subsample = frozenset(int(u) for u in chosen)

    observed = sorted(respondents | subsample)
    y_observed = {u: pop.y.item(u - 1) for u in observed}
    x_observed = tuple(pop.x.item(u - 1) for u in units)
    return SampleRealization(
        sample_index=units[0],
        units=units,
        respondents=respondents,
        nonrespondents=nonrespondents,
        subsample=subsample,
        y_observed=y_observed,
        x_observed=x_observed,
    )
