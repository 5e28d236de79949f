"""Finite populations: ingestion, arrangement, and population-level parameters.

The unit order of a population is significant: systematic samples are defined
by position, so re-arranging the data (e.g. sorting by the auxiliary value)
changes the within-sample correlation structure.  Sorting is therefore an
explicit operation and never happens implicitly during ingestion.
"""
from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .design import SystematicDesign
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DesignError,
    DomainError,
    ParseError,
)


@dataclass(frozen=True)
class FinitePopulation:
    """Paired (y, x) values for N units in a fixed arrangement order."""

    y: tuple[float, ...]
    x: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.y) != len(self.x):
            raise DomainError(
                f"y and x must have equal length, got {len(self.y)} and {len(self.x)}"
            )
        if len(self.y) < 2:
            raise DomainError(f"a population needs at least 2 units, got {len(self.y)}")
        if not all(math.isfinite(v) for v in self.y) or not all(
            math.isfinite(v) for v in self.x
        ):
            raise DomainError("population values must all be finite")

    @property
    def N(self) -> int:
        return len(self.y)

    @classmethod
    def from_arrays(cls, y: Iterable[float], x: Iterable[float]) -> "FinitePopulation":
        return cls(y=tuple(float(v) for v in y), x=tuple(float(v) for v in x))


@dataclass(frozen=True)
class PopulationMoments:
    """Population-level parameters consumed by the error theory.

    `s2_y` and `s2_x` are mean squares with divisor N-1; `s2_y2` is the mean
    square of the study variable over the non-response stratum (divisor
    N2-1), or None when no stratum information is available.  `rho_y` and
    `rho_x` are intraclass correlations between pairs of units within the
    same systematic sample.
    """

    mean_y: float
    mean_x: float
    s2_y: float
    s2_x: float
    cv_y: float
    cv_x: float
    rho: float
    rho_y: float
    rho_x: float
    s2_y2: float | None = None

    def __post_init__(self) -> None:
        if self.s2_y < 0 or self.s2_x < 0:
            raise DomainError("mean squares must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError(f"correlation must lie in [-1, 1], got {self.rho}")
        if self.mean_y == 0 or self.mean_x == 0:
            raise DegenerateInputError(
                "zero mean leaves the coefficient of variation undefined"
            )
        for cv, s2, mean in ((self.cv_y, self.s2_y, self.mean_y), (self.cv_x, self.s2_x, self.mean_x)):
            expected = math.sqrt(s2) / abs(mean)
            if not math.isclose(cv, expected, rel_tol=1e-9, abs_tol=1e-12):
                raise DomainError("coefficient of variation inconsistent with mean square")
        if self.s2_y2 is not None and self.s2_y2 < 0:
            raise DomainError("stratum mean square must be nonnegative")

    @classmethod
    def from_parameters(
        cls,
        mean_y: float,
        mean_x: float,
        s2_y: float,
        s2_x: float,
        rho: float,
        rho_y: float,
        rho_x: float,
        s2_y2: float | None = None,
    ) -> "PopulationMoments":
        """Build moments from scalar parameters, deriving the CVs."""
        if mean_y == 0 or mean_x == 0:
            raise DegenerateInputError(
                "zero mean leaves the coefficient of variation undefined"
            )
        return cls(
            mean_y=mean_y,
            mean_x=mean_x,
            s2_y=s2_y,
            s2_x=s2_x,
            cv_y=math.sqrt(s2_y) / abs(mean_y),
            cv_x=math.sqrt(s2_x) / abs(mean_x),
            rho=rho,
            rho_y=rho_y,
            rho_x=rho_x,
            s2_y2=s2_y2,
        )


def _sniff_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def load_population(
    source: str | Path | TextIO,
    y_column: str = "y",
    x_column: str = "x",
) -> FinitePopulation:
    """Read a delimiter-separated text file into a population.

    The file must have a header row naming `y_column` and `x_column`; the
    delimiter is comma by default, tab if the header contains one.  Row order
    is preserved.  Raises ConfigurationError for a missing column, ParseError
    for a non-numeric or non-finite cell (citing data row and column), and
    DomainError when fewer than 2 data rows are present.
    """
    if hasattr(source, "read"):
        return _parse_population(source, y_column, x_column)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8-sig", newline="") as handle:
        return _parse_population(handle, y_column, x_column)


def _parse_population(handle: TextIO, y_column: str, x_column: str) -> FinitePopulation:
    first = handle.readline()
    if not first.strip():
        raise DomainError("input file is empty")
    delimiter = _sniff_delimiter(first)
    header = next(csv.reader([first], delimiter=delimiter))
    header = [h.strip() for h in header]
    for name in (y_column, x_column):
        if name not in header:
            raise ConfigurationError(
                f"column {name!r} not found in header; available columns: {header}"
            )
        if header.count(name) > 1:
            raise ConfigurationError(
                f"column {name!r} appears {header.count(name)} times in header: {header}"
            )
    y_idx = header.index(y_column)
    x_idx = header.index(x_column)

    y: list[float] = []
    x: list[float] = []
    for row_number, row in enumerate(csv.reader(handle, delimiter=delimiter), start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) <= max(y_idx, x_idx):
            raise ParseError(f"row {row_number} has {len(row)} fields, expected {len(header)}")
        y.append(_parse_cell(row[y_idx], row_number, y_column))
        x.append(_parse_cell(row[x_idx], row_number, x_column))
    if len(y) < 2:
        raise DomainError(f"need at least 2 data rows, got {len(y)}")
    return FinitePopulation(y=tuple(y), x=tuple(x))


def _parse_cell(cell: str, row_number: int, column: str) -> float:
    try:
        value = float(cell.strip())
    except ValueError:
        raise ParseError(
            f"row {row_number}, column {column!r}: cannot parse {cell.strip()!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row_number}, column {column!r}: value {value} is not finite")
    return value


def sorted_by_auxiliary(pop: FinitePopulation, by: str = "x") -> FinitePopulation:
    """Re-arrange the population in ascending order of x (or y); stable sort."""
    if by not in ("x", "y"):
        raise ConfigurationError(f"sort key must be 'x' or 'y', got {by!r}")
    key = pop.x if by == "x" else pop.y
    order = sorted(range(pop.N), key=lambda i: key[i])
    return FinitePopulation(
        y=tuple(pop.y[i] for i in order), x=tuple(pop.x[i] for i in order)
    )


def intraclass_correlation(pop_values: Sequence[float], design: SystematicDesign) -> float:
    """Correlation between pairs of units within the same systematic sample.

    Computed as the pairwise cross-product sum within samples over (n-1)
    times the total sum of squares, all deviations taken from the grand
    mean.  The result lies in [-1/(n-1), 1].  Under this definition the
    variance of the k equally likely sample means is exactly
    (N-1)/(n*N) * {1 + (n-1)*rho_w} * S^2, which the simulation harness
    verifies by enumeration.
    """
    values = np.asarray(pop_values, dtype=float)
    if values.ndim != 1 or values.size != design.N:
        raise DesignError(
            f"expected {design.N} values for design N={design.N}, got {values.size}"
        )
    deviations = values - values.mean()
    total_ss = float(deviations @ deviations)
    if total_ss == 0.0:
        raise DegenerateInputError(
            "all values identical: intraclass correlation undefined"
        )
    # Column i of the (n, k) reshape is the i-th systematic sample.
    sample_sums = deviations.reshape(design.n, design.k).sum(axis=0)
    cross_product_sum = float(sample_sums @ sample_sums) - total_ss
    rho_w = cross_product_sum / ((design.n - 1) * total_ss)
    lower = -1.0 / (design.n - 1)
    if not (lower - 1e-9 <= rho_w <= 1.0 + 1e-9):
        raise DomainError(f"intraclass correlation {rho_w} outside [{lower}, 1]")
    return rho_w


def stratum_mean_square(pop: FinitePopulation, nr_stratum: Iterable[int]) -> float:
    """Mean square (divisor N2-1) of the study variable over a unit subset."""
    units = sorted(set(int(u) for u in nr_stratum))
    if any(u < 1 or u > pop.N for u in units):
        raise DomainError("stratum contains unit indices outside 1..N")
    if len(units) < 2:
        raise DomainError(
            f"stratum must contain at least 2 units to define its mean square, got {len(units)}"
        )
    values = np.asarray([pop.y[u - 1] for u in units], dtype=float)
    return float(values.var(ddof=1))


def compute_moments(
    pop: FinitePopulation,
    design: SystematicDesign,
    nr_stratum: Iterable[int] | None = None,
    *,
    s2_y2: float | None = None,
) -> PopulationMoments:
    """Compute every population parameter the error theory consumes.

    The stratum mean square comes either from an explicit unit subset
    (`nr_stratum`) or from a direct scalar override (`s2_y2`), not both.
    With neither, `s2_y2` is left unset and any downstream use that needs it
    will refuse to run.
    """
    if nr_stratum is not None and s2_y2 is not None:
        raise ConfigurationError("pass either nr_stratum or s2_y2, not both")
    if pop.N != design.N:
        raise DesignError(f"population has {pop.N} units but design expects {design.N}")

    y = np.asarray(pop.y, dtype=float)
    x = np.asarray(pop.x, dtype=float)
    s2_y = float(y.var(ddof=1))
    s2_x = float(x.var(ddof=1))
    if s2_y == 0 or s2_x == 0:
        raise DegenerateInputError("constant variable: correlation undefined")

    if nr_stratum is not None:
        s2_y2 = stratum_mean_square(pop, nr_stratum)

    return PopulationMoments.from_parameters(
        mean_y=float(y.mean()),
        mean_x=float(x.mean()),
        s2_y=s2_y,
        s2_x=s2_x,
        rho=float(np.corrcoef(y, x)[0, 1]),
        rho_y=intraclass_correlation(pop.y, design),
        rho_x=intraclass_correlation(pop.x, design),
        s2_y2=s2_y2,
    )


def population_fingerprint(pop: FinitePopulation) -> str:
    """Content hash of the population (values and order), for run manifests."""
    digest = hashlib.sha256()
    digest.update(np.asarray(pop.y, dtype="<f8").tobytes())
    digest.update(np.asarray(pop.x, dtype="<f8").tobytes())
    return digest.hexdigest()
