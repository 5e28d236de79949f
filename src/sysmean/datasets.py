"""Synthetic populations and dataset file utilities.

The classical 176-strip forest dataset (timber volume vs. strip length) is
not redistributable, so it is not bundled; `file_sha256` (the CLI's
`--expect-sha256`) verifies a locally obtained CSV export.
`synthetic_linear_population` provides a stand-in with a controllable
volume/length-style correlation.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from .errors import DomainError
from .population import FinitePopulation


def synthetic_linear_population(
    n_units: int,
    *,
    rho_target: float = 0.9,
    seed: int = 0,
    x_low: float = 20.0,
    x_high: float = 60.0,
    slope: float = 3.0,
    intercept: float = 10.0,
) -> FinitePopulation:
    """Generate y linear in x plus Gaussian noise with a target correlation.

    The noise standard deviation is chosen so that the magnitude of the
    population correlation is approximately `rho_target`; its sign is the
    sign of `slope`, and the realized value varies with the seed.  Units keep
    their generation order; `sorted_by_auxiliary` re-arranges them.  A value
    that overflows raises DomainError naming it.
    """
    if n_units < 2:
        raise DomainError(f"need at least 2 units, got {n_units}")
    if n_units > np.iinfo(np.intp).max // 8:
        raise DomainError(f"{n_units} units are more than a float64 column can hold")
    if not 0.0 < rho_target <= 1.0:
        raise DomainError(
            f"target correlation magnitude must be in (0, 1], got {rho_target}; "
            "the sign of the slope gives the sign of the correlation"
        )
    if slope == 0:
        raise DomainError("slope must be nonzero: a zero slope gives a constant y")
    if not x_low < x_high:
        raise DomainError(f"x_low must be below x_high, got {x_low} and {x_high}")
    if not math.isfinite(x_high - x_low):
        raise DomainError(f"x_high - x_low overflows for x in [{x_low}, {x_high}]")
    rng = np.random.default_rng(seed)
    x = rng.uniform(x_low, x_high, n_units)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x_sd = x.std()
        signal_sd = abs(slope) * x_sd
        # 1/rho_target**2 is inf where the square underflows to 0.
        noise_sd = signal_sd * np.sqrt(np.divide(1.0, rho_target**2) - 1.0)
        y = intercept + slope * x + rng.normal(0.0, noise_sd, n_units)
    for name, value in (
        ("the standard deviation of x", x_sd),
        ("the standard deviation of slope * x", signal_sd),
        ("the standard deviation of the noise", noise_sd),
        ("y = intercept + slope * x + noise", y),
    ):
        if not np.isfinite(value).all():
            raise DomainError(f"{name} overflows")
    return FinitePopulation(y=y, x=x)


def population_csv(pop: FinitePopulation) -> str:
    """The population as comma-separated text under the header row `y,x`."""
    lines = ["y,x", *(f"{y!r},{x!r}" for y, x in zip(pop.y.tolist(), pop.x.tolist())), ""]
    return "\n".join(lines)


def file_sha256(path: str | Path) -> str:
    """Hex digest of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
