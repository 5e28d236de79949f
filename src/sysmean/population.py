"""Finite populations: ingestion, arrangement, and population-level parameters.

The unit order of a population is significant: systematic samples are defined
by position, so re-arranging the data (e.g. sorting by the auxiliary value)
changes the within-sample correlation structure.  Sorting is therefore an
explicit operation and never happens implicitly during ingestion.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .design import SystematicDesign, _stratum_mask
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    ParseError,
)


@dataclass(frozen=True, eq=False)
class FinitePopulation:
    """Paired (y, x) values for N units in a fixed arrangement order.

    Each column is held as its own read-only 1-D float64 copy of the input.
    Populations compare by identity (`eq=False`): arrays have no single truth
    value, so field-wise `==` and `hash()` would be undefined.
    """

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        for name in ("y", "x"):
            values = np.array(getattr(self, name), dtype=float)
            if values.ndim != 1:
                raise DomainError(f"{name} must be one-dimensional, got shape {values.shape}")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.y.size != self.x.size:
            raise DomainError(
                f"y and x must have equal length, got {self.y.size} and {self.x.size}"
            )
        if self.y.size < 2:
            raise DomainError(f"a population needs at least 2 units, got {self.y.size}")
        if not (np.isfinite(self.y).all() and np.isfinite(self.x).all()):
            raise DomainError("population values must all be finite")

    @property
    def N(self) -> int:
        return self.y.size


@dataclass(frozen=True)
class PopulationMoments:
    """Population-level parameters consumed by the error theory.

    `s2_y` and `s2_x` are mean squares with divisor N-1; `s2_y2` is the mean
    square of the study variable over the non-response stratum (divisor
    N2-1), or None when no stratum information is available.  `rho_y` and
    `rho_x` are intraclass correlations between pairs of units within the
    same systematic sample.  Every field must be finite; the coefficients of
    variation `cv_y` and `cv_x` are derived from the means and mean squares.
    """

    mean_y: float
    mean_x: float
    s2_y: float
    s2_x: float
    rho: float
    rho_y: float
    rho_x: float
    s2_y2: float | None = None

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{field.name} must be finite, got {value}")
        if self.s2_y < 0 or self.s2_x < 0:
            raise DomainError("mean squares must be nonnegative")
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError(f"correlation must lie in [-1, 1], got {self.rho}")
        if self.mean_y == 0 or self.mean_x == 0:
            raise DegenerateInputError(
                "zero mean leaves the coefficient of variation undefined"
            )
        if self.s2_y2 is not None and self.s2_y2 < 0:
            raise DomainError("stratum mean square must be nonnegative")

    @property
    def cv_y(self) -> float:
        return math.sqrt(self.s2_y) / abs(self.mean_y)

    @property
    def cv_x(self) -> float:
        return math.sqrt(self.s2_x) / abs(self.mean_x)


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

    A body that numpy's C reader takes whole, quoted cells included, is
    parsed in C; any other body goes through a Python row loop, which reads
    the same values and words every error.  Given the path of a regular file,
    numpy opens the file itself and reads it in chunks.  Any other source (an
    open one, a pipe, or a path that numpy would decompress by its suffix) has
    its body read whole into memory, and numpy reads that copy, so a source
    is read as its file would be.  Bytes that are not UTF-8 raise ParseError,
    whichever reader meets them.  A cell longer than the csv module's field
    limit raises ParseError in the header and in the row loop; the C reader
    has no such limit, so a body it takes whole may hold one.
    """
    try:
        if hasattr(source, "read"):
            return _parse_population(source, None, y_column, x_column)  # type: ignore[arg-type]
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            path = _numpy_path(source) if handle.seekable() else None
            return _parse_population(handle, path, y_column, x_column)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise ParseError(f"input is not UTF-8 text: {exc.reason} 0x{bad:02x}") from None


# Suffixes that numpy's DataSource decompresses by name, whatever the file holds.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _numpy_path(source: object) -> str | None:
    """The absolute path under which numpy may open `source` as plain text, or None.

    The path is absolute because DataSource fetches a relative path such as
    `http://host/pop.csv` as a URL, though it names a local file.  It is not
    normalised: `link/../pop.csv` must stay as it is, since the kernel
    resolves `..` after following the symlink `link`.
    """
    path = os.fspath(source) if isinstance(source, os.PathLike) else source
    if not isinstance(path, str) or path.endswith(_COMPRESSED_SUFFIXES):
        return None
    return os.path.join(os.getcwd(), path)


def _parse_population(
    handle: TextIO, path: str | None, y_column: str, x_column: str
) -> FinitePopulation:
    first = handle.readline()
    if not first.strip():
        raise DomainError("input file is empty")
    delimiter = "\t" if "\t" in first else ","
    try:
        header = [h.strip() for h in next(csv.reader([first], delimiter=delimiter))]
    except csv.Error as exc:  # such as a cell past csv's field limit
        raise ParseError(f"header: {exc}") from None
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

    if path is None:
        handle = io.StringIO(handle.read(), newline="")
    table = _load_table(handle, path, delimiter, (y_idx, x_idx))
    if table is not None:
        return FinitePopulation(y=table[:, 0], x=table[:, 1])

    # The row loop defines a valid body and words every error with its row.
    y: list[float] = []
    x: list[float] = []
    row_number = 0
    try:
        for row_number, row in enumerate(csv.reader(handle, delimiter=delimiter), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(y_idx, x_idx):
                raise ParseError(f"row {row_number} has {len(row)} fields, expected {len(header)}")
            y.append(_parse_cell(row[y_idx], row_number, y_column))
            x.append(_parse_cell(row[x_idx], row_number, x_column))
    except csv.Error as exc:  # raised while reading the row after `row_number`
        raise ParseError(f"row {row_number + 1}: {exc}") from None
    if len(y) < 2:
        raise DomainError(f"need at least 2 data rows, got {len(y)}")
    return FinitePopulation(y=y, x=x)


def _load_table(
    handle: TextIO, path: str | None, delimiter: str, usecols: tuple[int, int]
) -> np.ndarray | None:
    """Parse the rest of `handle` with numpy's C reader.

    Given `path`, the file `handle` reads, numpy opens it and reads it in
    chunks (it takes chunks from a `str` path only), skipping the one header
    line; otherwise `handle` holds the body in memory and numpy reads it from
    there.  A `"` opens and closes a quoted cell as it does for csv, so a
    quoted cell may hold the delimiter or a line break.  Returns the (rows, 2)
    table only when the C reader accepts every row, finds at least 2 and all
    are finite.  Otherwise rewinds the handle and returns None, leaving the
    row loop to accept the file or to say what is wrong with it.  Bytes that
    are not UTF-8 make numpy raise UnicodeDecodeError, a ValueError, so the
    row loop meets them too.
    """
    start = handle.tell()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                path or handle,
                skiprows=1 if path else 0,
                encoding="utf-8-sig",
                delimiter=delimiter,
                usecols=usecols,
                comments=None,
                quotechar='"',
                ndmin=2,
                dtype=float,
            )
    except ValueError:
        table = None
    if table is None or table.shape[0] < 2 or not np.isfinite(table).all():
        handle.seek(start)
        return None
    return table


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
    order = np.argsort(pop.x if by == "x" else pop.y, kind="stable")
    return FinitePopulation(y=pop.y[order], x=pop.x[order])


def intraclass_correlation(
    pop_values: Sequence[float], design: SystematicDesign, name: str = "values"
) -> float:
    """Correlation between pairs of units within the same systematic sample.

    Computed as the pairwise cross-product sum within samples over (n-1)
    times the total sum of squares, all deviations taken from the grand
    mean.  The result lies in [-1/(n-1), 1].  Under this definition the
    variance of the k equally likely sample means is exactly
    (N-1)/(n*N) * {1 + (n-1)*rho_w} * S^2, which the tests check by
    enumerating the k samples.  A sum that overflows raises DomainError
    naming the values as `name`, and values that are not N long DesignError.
    """
    values = np.asarray(pop_values, dtype=float)
    _, total_ss, within_ss = _deviation_sums(values, design)
    return _intraclass(total_ss, within_ss, design, name)


def _deviation_sums(
    values: np.ndarray, design: SystematicDesign
) -> tuple[np.ndarray, float, float]:
    """A column's deviations d from its mean, Σd², and Σ over the samples of
    `design.samples` of (Σd)²; values not N long raise DesignError.

    Every sum is numpy's own `np.add.reduce`, the one `var` uses, so
    Σd²/(N-1) is `values.var(ddof=1)` bit for bit.  No sum goes through
    BLAS, whose rounding depends on the CPU kernel and the thread count.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        deviations = values - values.mean()
        sample_sums = np.add.reduce(design.samples(deviations), axis=1)
        total_ss = float(np.add.reduce(deviations * deviations))
        within_ss = float(np.add.reduce(sample_sums * sample_sums))
    return deviations, total_ss, within_ss


def _intraclass(total_ss: float, within_ss: float, design: SystematicDesign, name: str) -> float:
    """rho_w from a column's Σd² and Σ(Σd)², as `intraclass_correlation` defines it."""
    if not (math.isfinite(total_ss) and math.isfinite(within_ss)):
        raise DomainError(f"the intraclass correlation of {name} overflows; rescale {name}")
    if total_ss == 0.0:
        raise DegenerateInputError(
            "all values identical: intraclass correlation undefined"
        )
    cross_product_sum = within_ss - total_ss
    rho_w = cross_product_sum / ((design.n - 1) * total_ss)
    lower = -1.0 / (design.n - 1)
    if not (lower - 1e-9 <= rho_w <= 1.0 + 1e-9):
        raise DomainError(f"intraclass correlation {rho_w} outside [{lower}, 1]")
    return rho_w


def stratum_mean_square(pop: FinitePopulation, nr_stratum: Iterable[int]) -> float:
    """Mean square (divisor N2-1) of the study variable over a unit subset of
    1-based ids.  An id that is not an integer, or one outside 1..N, raises
    DesignError, and a subset of fewer than 2 units DomainError."""
    y = pop.y[_stratum_mask(nr_stratum, pop.N)]
    if y.size < 2:
        raise DomainError(
            f"stratum must contain at least 2 units to define its mean square, got {y.size}"
        )
    return float(y.var(ddof=1))


def compute_moments(pop: FinitePopulation, design: SystematicDesign) -> PopulationMoments:
    """Compute every population parameter the error theory consumes.

    The stratum mean square `s2_y2` is left unset, and any downstream use
    that needs it will refuse to run; set it with `dataclasses.replace`,
    for example to `stratum_mean_square` of a unit subset.  A population
    not N units long raises DesignError, a column of equal values
    DegenerateInputError, and one whose mean square overflows or underflows
    to 0 DomainError.
    """
    y, x = pop.y, pop.x
    (dy, ss_y, within_y), (dx, ss_x, within_x) = (_deviation_sums(v, design) for v in (y, x))
    s2_y, s2_x = ss_y / (pop.N - 1), ss_x / (pop.N - 1)
    for name, values, s2 in (("y", y, s2_y), ("x", x, s2_x)):
        # The rounded mean of equal values can differ from them, and then s2 is not 0.
        if values.min() == values.max():
            raise DegenerateInputError("constant variable: correlation undefined")
        if s2 == 0 or not math.isfinite(s2):
            how = "underflows to 0" if s2 == 0 else "overflows"
            raise DomainError(f"the mean square of {name} {how}; rescale {name}")
    rho = float(np.add.reduce(dy * dx)) / math.sqrt(ss_y) / math.sqrt(ss_x)

    return PopulationMoments(
        mean_y=float(y.mean()),
        mean_x=float(x.mean()),
        s2_y=s2_y,
        s2_x=s2_x,
        rho=min(1.0, max(-1.0, rho)),  # rounding can carry |rho| just past 1
        rho_y=_intraclass(ss_y, within_y, design, "y"),
        rho_x=_intraclass(ss_x, within_x, design, "x"),
    )


def population_fingerprint(pop: FinitePopulation) -> str:
    """Content hash of the population (values and order), for run manifests."""
    digest = hashlib.sha256()
    digest.update(pop.y.astype("<f8", copy=False).tobytes())
    digest.update(pop.x.astype("<f8", copy=False).tobytes())
    return digest.hexdigest()
