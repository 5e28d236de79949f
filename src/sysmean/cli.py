"""Command-line front end: parameter reports, efficiency tables, simulations.

Every command emits its report to stdout (or --out) and a run manifest
holding the resolved parameters, input checksum, seed, and tool version.
Reports are deterministic byte-for-byte given the same inputs and seed; the
manifest carries the only timestamp and the run's timings.  `rerun` replays a
manifest's argv to reproduce its outputs.

Exit status: 0 = success and all checks pass, 1 = a simulation check failed,
2 = usage or input error, or not enough memory.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import math
import operator
import os
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import TextIO

from . import __version__
from .datasets import file_sha256, population_csv, synthetic_linear_population
from .design import StratumMode, SystematicDesign
from .errors import ConfigurationError, DomainError, EstimationError
from .estimators import PRESETS, FamilyParams
from .montecarlo import (
    EstimatorResult,
    EstimatorSpec,
    SimulationConfig,
    TheoryComparison,
    compare_to_theory,
    nonresponse_design,
    run_simulation,
)
from .population import (
    FinitePopulation,
    PopulationMoments,
    compute_moments,
    load_population,
    sorted_by_auxiliary,
)
from .theory import (
    derived_constants,
    family_mse,
    family_mse_min,
    optimum_alpha,
    pre_grid,
    var_mean_y,
)

# Not called here; bound so that perfbench/tracing.py TARGETS still resolve.
from .theory import classical_mse, pre_optimum  # noqa: F401

DEFAULT_W2_GRID = (0.1, 0.2, 0.3, 0.4)
DEFAULT_ELL_GRID = (2.0, 2.5, 3.0, 3.5)
# theory-table's explicit moments: one option for each field.
_MOMENTS = tuple(field.name for field in dataclasses.fields(PopulationMoments))


def _finite_float(text: str) -> float:
    """argparse type for every float option: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type for --seed: numpy seeds are non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    values = [_finite_float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="report format (default: table)",
    )
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    parser.add_argument(
        "--manifest",
        help="write the run manifest to this file ('-' for stdout; default: "
        "next to an --out file, else stderr)",
    )


def _add_population_options(
    parser: argparse.ArgumentParser, s2y2_help: str, required: bool = True
) -> None:
    parser.add_argument(
        "input", nargs=None if required else "?",
        help="delimiter-separated text file with a header row (comma or tab)",
    )
    parser.add_argument("--y-col", default="y", help="study-variable column (default: y)")
    parser.add_argument("--x-col", default="x", help="auxiliary-variable column (default: x)")
    parser.add_argument(
        "--sort-by", choices=("x", "y"), default=None,
        help="re-arrange units in ascending order of this variable before sampling",
    )
    parser.add_argument(
        "--expect-sha256", default=None,
        help="fail unless the input file has this sha256 digest",
    )
    parser.add_argument("--n", type=int, required=True, help="systematic sample size")
    parser.add_argument("--s2y2-factor", type=_finite_float, default=None, help=s2y2_help)


def _add_family_options(parser: argparse.ArgumentParser) -> None:
    # An option not given is None, so a run can refuse one given to no estimator;
    # `_family_params` fills in FamilyParams' defaults.
    parser.add_argument("--a", type=_finite_float, help="family parameter a (default: 1)")
    parser.add_argument("--b", type=_finite_float, help="family parameter b (default: 0)")
    parser.add_argument("--g", type=_finite_float, help="family exponent g (default: 1)")


def _family_params(args: argparse.Namespace) -> FamilyParams:
    """The family at alpha = 0 with --a, --b and --g, and FamilyParams' defaults
    for those not given; `args` takes the values, so the manifest records them."""
    names = [name for name in ("a", "b", "g") if getattr(args, name) is not None]
    params = FamilyParams(0.0, **{name: getattr(args, name) for name in names})
    args.a, args.b, args.g = params.a, params.b, params.g
    return params


def _option(name: str) -> str:
    """The option string of the `args` attribute `name`."""
    return "--" + name.replace("_", "-")


def _given(args: argparse.Namespace, *names: str) -> list[str]:
    """Those of the options `names` (as `args` names them) that were given, as spelled."""
    return [_option(name) for name in names if getattr(args, name) is not None]


def _refuse(given: list[str], scope: str) -> None:
    """Refuse the options `given`: they apply only to `scope`."""
    if given:
        raise ConfigurationError(
            f"{', '.join(given)} appl{'ies' if len(given) == 1 else 'y'} only to {scope}"
        )


class _ArgumentParser(argparse.ArgumentParser):
    """Takes a negative number in exponent notation (-1e300, -2E+3) as a value.

    argparse reads only -D and -D.D as negative numbers, and anything else
    starting with '-' as an option; no option string here looks like a number.
    Subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="sysmean",
        description="Population-mean estimation from systematic samples under "
        "non-response: parameter reports, efficiency tables, and Monte Carlo checks.",
    )
    parser.add_argument("--version", action="version", version=f"sysmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser(
        "params", help="ingest a dataset and report every population parameter"
    )
    _add_population_options(
        p_params, "set the non-response stratum mean square to FACTOR * S2_y"
    )
    _add_output_options(p_params)
    p_params.set_defaults(func=cmd_params)

    p_table = sub.add_parser(
        "theory-table",
        help="tabulate variance, minimum family MSE, and PRE over a (w2, L) grid",
    )
    _add_population_options(
        p_table,
        "stratum mean square as FACTOR * S2_y (default 0.75 when ingesting a file)",
        required=False,
    )
    group = p_table.add_argument_group("explicit moments (instead of an input file)")
    group.add_argument("--pop-size", type=int, help="population size N")
    for name in _MOMENTS:
        s2y2_help = "stratum mean square, direct value" if name == "s2_y2" else None
        group.add_argument(_option(name), type=_finite_float, help=s2y2_help)
    group.add_argument("--rho-w", type=_finite_float, help="sets both intraclass correlations")
    p_table.add_argument("--w2-grid", type=_float_list, default=list(DEFAULT_W2_GRID))
    p_table.add_argument("--ell-grid", type=_float_list, default=list(DEFAULT_ELL_GRID))
    _add_family_options(p_table)
    _add_output_options(p_table)
    p_table.set_defaults(func=cmd_theory_table)

    p_sim = sub.add_parser(
        "simulate",
        help="Monte Carlo replication of the design with theory comparison",
    )
    _add_population_options(p_sim, "override the stratum mean square with FACTOR * S2_y")
    p_sim.add_argument("--replicates", type=int, default=2000)
    p_sim.add_argument("--seed", type=_seed, default=20250811, help="master seed")
    p_sim.add_argument("--w2", type=_finite_float, default=0.0, help="non-response rate")
    p_sim.add_argument("--ell", type=_finite_float, default=1.0, help="sub-sampling ratio L")
    p_sim.add_argument(
        "--stratum-mode", choices=("fixed", "bernoulli"), default="fixed",
        help="fixed stratum (theory-faithful, default) or per-replicate Bernoulli",
    )
    p_sim.add_argument(
        "--estimators", default="hh,ratio,family",
        help="comma list from hh, ratio, product, family (default: hh,ratio,family)",
    )
    p_sim.add_argument(
        "--alpha", type=_finite_float, default=None,
        help="family alpha (default: the population optimum)",
    )
    _add_family_options(p_sim)
    p_sim.add_argument(
        "--exhaustive", action="store_true",
        help="cycle deterministically through all k start indices",
    )
    p_sim.add_argument("--tolerance-sigma", type=_finite_float, default=3.0)
    _add_output_options(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_synth = sub.add_parser(
        "synthesize", help="write a synthetic linear population as CSV"
    )
    p_synth.add_argument("--units", type=int, required=True)
    p_synth.add_argument(
        "--rho", type=_finite_float, default=0.9,
        help="target correlation magnitude in (0, 1]; its sign is the sign of --slope",
    )
    p_synth.add_argument("--seed", type=_seed, default=0)
    p_synth.add_argument("--x-low", type=_finite_float, default=20.0)
    p_synth.add_argument("--x-high", type=_finite_float, default=60.0)
    p_synth.add_argument("--slope", type=_finite_float, default=3.0)
    p_synth.add_argument("--intercept", type=_finite_float, default=10.0)
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument(
        "--manifest",
        help="manifest path ('-' for stdout; default: next to an --out file, else stderr)",
    )
    p_synth.set_defaults(func=cmd_synthesize)

    p_rerun = sub.add_parser("rerun", help="replay a run manifest")
    p_rerun.add_argument("manifest_file", help="path to a *.manifest.json file")
    p_rerun.set_defaults(func=cmd_rerun)

    return parser


# Namespace entries that are not run parameters: dispatch, the input (recorded
# with its checksum), the seed (recorded on its own) and the manifest target.
_NOT_PARAMETERS = frozenset({"command", "func", "input", "seed", "manifest"})


def _manifest(
    args: argparse.Namespace, argv: list[str], sha: str | None, **resolved: object
) -> dict:
    """Run manifest: every parsed option, overridden by the values the run resolved."""
    parameters = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    parameters.update(resolved)
    input_path = getattr(args, "input", None)
    return {
        "tool": "sysmean",
        "version": __version__,
        "command": args.command,
        "argv": list(argv),
        "input": {"path": input_path, "sha256": sha} if input_path is not None else None,
        "parameters": parameters,
        "seed": getattr(args, "seed", None),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


class _Stopwatch:
    """Wall-clock seconds of consecutive phases: a lap ends the phase since the last one."""

    def __init__(self) -> None:
        self.laps: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.laps[name] = now - self._last
        self._last = now


def _regular_or_new(path: str) -> bool:
    """Whether `path` names a regular file or nothing yet, not a device or pipe."""
    return os.path.isfile(path) or not os.path.exists(path)


def _manifest_target(args: argparse.Namespace) -> str | TextIO:
    """Where the manifest goes: --manifest ('-' is stdout), else the file beside
    an --out that is a regular file or new, else stderr."""
    manifest, out = getattr(args, "manifest", None), getattr(args, "out", None)
    if manifest == "-":
        return sys.stdout
    if manifest:
        return manifest
    if out and _regular_or_new(out):
        return out + ".manifest.json"
    return sys.stderr


def _check_targets(args: argparse.Namespace) -> None:
    """Refuse, before any work, an --out or manifest file that cannot be
    written (a directory, or in a directory that does not exist) or that names
    the input file or the --out file as a regular or new file: its write would
    replace that file."""
    named: dict[str, str] = {}
    for option, path in (
        ("input", getattr(args, "input", None)),
        ("--out", getattr(args, "out", None)),
        ("--manifest", _manifest_target(args)),
    ):
        if option != "input" and isinstance(path, str):
            if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigurationError(f"{option} {path!r} is a directory or in a missing one")
        if isinstance(path, str) and _regular_or_new(path):
            real = os.path.realpath(path)
            if real in named:
                raise ConfigurationError(
                    f"{option} {path!r} names the {named[real]} file; give them different paths"
                )
            named[real] = option


def _emit(args: argparse.Namespace, report: str, manifest: dict) -> None:
    """Write the report to --out or stdout, then the manifest to its target."""
    target = _manifest_target(args)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8", newline="")
    else:
        sys.stdout.write(report)
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    if isinstance(target, str):
        Path(target).write_text(manifest_text, encoding="utf-8")
    else:
        target.write(manifest_text)


# What tells a file's bytes apart between two reads by its path.
_identity = operator.attrgetter("st_dev", "st_ino", "st_size", "st_mtime_ns")


def _ingest(
    args: argparse.Namespace, clock: _Stopwatch
) -> tuple[FinitePopulation, SystematicDesign, str]:
    """The input file's population, arranged by --sort-by, and its design with
    --n, after checking its sha256; `clock` times the reading as "ingest_s".

    A regular file is hashed and parsed by its path, and refused if its stat
    identity changes in between.  Any other input, such as a pipe, is read
    once, and its bytes are hashed and parsed."""
    source: str | io.TextIOWrapper = args.input
    identity = _identity(os.stat(args.input)) if os.path.isfile(args.input) else None
    if identity is not None:
        sha = file_sha256(args.input)
    else:
        data = Path(args.input).read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    if args.expect_sha256 and sha != args.expect_sha256.lower():
        raise ConfigurationError(
            f"input checksum mismatch: file has sha256 {sha}, expected {args.expect_sha256}"
        )
    pop = load_population(source, y_column=args.y_col, x_column=args.x_col)
    if identity is not None and _identity(os.stat(args.input)) != identity:
        raise ConfigurationError(f"input {args.input!r} changed while it was read")
    if args.sort_by:
        pop = sorted_by_auxiliary(pop, by=args.sort_by)
    clock.lap("ingest_s")
    return pop, SystematicDesign(pop.N, args.n), sha


def _with_s2y2_factor(moments: PopulationMoments, factor: float | None) -> PopulationMoments:
    """Set the stratum mean square to FACTOR * S2_y, if a factor is given."""
    return moments if factor is None else dataclasses.replace(moments, s2_y2=factor * moments.s2_y)


@dataclasses.dataclass(frozen=True)
class Column:
    """One report column: the row key it shows, its fixed-width heading and cell
    template, its CSV name (None for none) and the text tables it is in."""

    key: str
    head: str = ""
    cell: str = "{}"
    csv: str | None = None
    tables: tuple[str, ...] = ()


def _fixed_width(columns: list[Column], table: dict[str, list]) -> list[str]:
    """The heading and rows of `table` under `columns`.

    A heading keeps its cell's alignment and width, not its precision and
    type.  A column whose template has a width is as wide as its widest cell,
    heading included.  Where two columns' cells would touch in some row, every
    row gets one space between them.  An `f` cell shows a value of magnitude
    1e16 or more, where `repr` turns to exponent notation, as `e` instead.
    """
    grid = []
    for c in columns:
        head = re.sub(r"(\.\d+)?[a-z]}", "}", c.cell).format(c.head)
        if c.cell.endswith("f}"):
            big = c.cell[:-2] + "e}"
            cells = [head, *((c.cell if abs(v) < 1e16 else big).format(v) for v in table[c.key])]
        else:
            cells = [head, *map(c.cell.format, table[c.key])]
        if re.search(r"{:[<>]?\d", c.cell):
            width = max(map(len, cells))
            pad = str.ljust if "{:<" in c.cell else str.rjust
            cells = [pad(cell, width) for cell in cells]
        grid.append(cells)
    lines = grid[0]
    for cells in grid[1:]:
        if any(line[-1:].strip() and cell[:1].strip() for line, cell in zip(lines, cells)):
            lines = [line + " " for line in lines]
        lines = [line + cell for line, cell in zip(lines, cells)]
    return lines


def _scalar(value: object) -> str:
    return "null" if isinstance(value, float) and not math.isfinite(value) else json.dumps(value)


def _json_column(values: list) -> list[str]:
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:  # not all floats
        return list(map(_scalar, values))
    if all(map(math.isfinite, values)):
        return texts
    return [text if math.isfinite(value) else "null" for text, value in zip(texts, values)]


def _json_table(table: dict[str, list]) -> str:
    """The table as its list of records: each column formatted once, then each
    record from one template."""
    columns = [_json_column(values) for values in table.values()]
    members = ",\n".join(f"      {json.dumps(key).replace('%', '%%')}: %s" for key in table)
    template = f"    {{\n{members}\n    }}"
    records = [template % row for row in zip(*columns)]
    return "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"


def _json(payload: dict) -> str:
    """`json.dumps(payload, indent=2)` for a report payload, with null for nan and
    +-inf (RFC 8259 has neither).  A payload value is a scalar or a table, a dict of
    equal-length columns, which is written as its list of records."""
    items = [
        f"  {json.dumps(key)}: {_json_table(value) if isinstance(value, dict) else _scalar(value)}"
        for key, value in payload.items()
    ]
    return "{\n" + ",\n".join(items) + "\n}"


def _render(fmt: str, payload: dict, csv: dict[str, list], text: list) -> str:
    """The report as json of `payload`, csv of the table `csv`, or the lines and
    (columns, table) pairs of `text`."""
    if fmt == "json":
        return _json(payload) + "\n"
    if fmt == "csv":
        cells = [map(str, values) for values in csv.values()]
        lines = [",".join(csv), *map(",".join, zip(*cells))]
    else:
        lines = []
        for item in text:
            if isinstance(item, str):
                lines.append(item)
                continue
            lines.extend(_fixed_width(*item))
    return "\n".join(lines) + "\n"


def cmd_params(args: argparse.Namespace, argv: list[str]) -> int:
    clock = _Stopwatch()
    pop, design, sha = _ingest(args, clock)
    moments = _with_s2y2_factor(compute_moments(pop, design), args.s2y2_factor)
    clock.lap("moments_s")

    payload = {
        "N": pop.N,
        "n": design.n,
        "k": design.k,
        "arrangement": f"sorted by {args.sort_by}" if args.sort_by else "file order",
        "mean_y": moments.mean_y,
        "mean_x": moments.mean_x,
        "s2_y": moments.s2_y,
        "s2_x": moments.s2_x,
        "cv_y": moments.cv_y,
        "cv_x": moments.cv_x,
        "rho": moments.rho,
        "rho_y": moments.rho_y,
        "rho_x": moments.rho_x,
        "s2_y2": moments.s2_y2 if moments.s2_y2 is not None else "unset",
    }
    width = max(map(len, payload))
    report = _render(
        args.format, payload,
        {"parameter": list(payload), "value": list(payload.values())},
        [f"{key:<{width}}  {value}" for key, value in payload.items()],
    )
    clock.lap("render_s")

    _emit(args, report, {**_manifest(args, argv, sha), "timings": clock.laps})
    return 0


def _moments_from_args(
    args: argparse.Namespace, clock: _Stopwatch
) -> tuple[PopulationMoments, SystematicDesign, str | None]:
    """Resolve (moments, design, input sha) from a file, whose reading `clock`
    times as "ingest_s", or from explicit scalars."""
    if args.input is not None:
        moment_options = _given(args, "pop_size", *_MOMENTS, "rho_w")
        _refuse(moment_options, "explicit moments, not to an input file")
        pop, design, sha = _ingest(args, clock)
        factor = 0.75 if args.s2y2_factor is None else args.s2y2_factor
        moments = _with_s2y2_factor(compute_moments(pop, design), factor)
        return moments, design, sha

    _refuse(_given(args, "expect_sha256", "sort_by"), "an input file, which this run lacks")
    # --rho-w stands in for --rho-y and --rho-x, and --s2-y2 may be left unset.
    required = [name for name in ("pop_size", *_MOMENTS) if name not in ("rho_y", "rho_x", "s2_y2")]
    if any(getattr(args, name) is None for name in required):
        raise ConfigurationError(
            f"without an input file, all of {' '.join(map(_option, required))} are required"
        )
    values = {name: getattr(args, name) for name in _MOMENTS}
    if args.rho_w is not None:
        if _given(args, "rho_y", "rho_x"):
            raise ConfigurationError("--rho-w conflicts with --rho-y/--rho-x")
        values.update(rho_y=args.rho_w, rho_x=args.rho_w)
    elif args.rho_y is None or args.rho_x is None:
        raise ConfigurationError("provide --rho-w, or both --rho-y and --rho-x")
    if args.s2_y2 is not None and args.s2y2_factor is not None:
        raise ConfigurationError("--s2-y2 conflicts with --s2y2-factor")
    design = SystematicDesign(args.pop_size, args.n)
    return _with_s2y2_factor(PopulationMoments(**values), args.s2y2_factor), design, None


def _axis_cell(values: list[float]) -> str:
    """Cell template for a grid axis: the fewest decimals, two at least, at
    which distinct values print differently."""
    decimals = 2
    while len({f"{value:.{decimals}f}" for value in values}) < len(set(values)):
        decimals += 1
    return f"{{:>5.{decimals}f}}"


def cmd_theory_table(args: argparse.Namespace, argv: list[str]) -> int:
    clock = _Stopwatch()
    moments, design, sha = _moments_from_args(args, clock)
    clock.lap("moments_s")
    N, n = design.N, design.n
    params = _family_params(args)
    constants = derived_constants(moments, n, N, params)
    alpha_opt = optimum_alpha(constants, params.g)

    w2_grid, ell_grid = args.w2_grid, args.ell_grid
    var, mse_min, pre = pre_grid(moments, n, N, w2_grid, ell_grid, constants)
    clock.lap("theory_s")
    rows = dict(
        w2=[w2 for w2 in w2_grid for _ in ell_grid], ell=ell_grid * len(w2_grid),
        var_hh_mean=var, mse_family_min=mse_min, pre=pre,
    )
    payload = {
        "N": N,
        "n": n,
        "alpha_opt": alpha_opt,
        "rho_star": constants.rho_star,
        "big_k": constants.big_k,
        "lambda": constants.lam,
        "rows": rows,
    }
    columns = [
        Column("w2", "w2", _axis_cell(w2_grid)),
        Column("ell", "L", " " + _axis_cell(ell_grid)),
        Column("var_hh_mean", "var(hh mean)", " {:>16.4f}"),
        Column("mse_family_min", "min MSE(family)", " {:>16.4f}"),
        Column("pre", "PRE", " {:>9.2f}"),
    ]
    report = _render(
        args.format, payload, rows,
        [
            f"N={N} n={n} k={design.k}  alpha_opt={alpha_opt:.6f}  "
            f"K={constants.big_k:.6f}  rho_star={constants.rho_star:.6f}",
            (columns, rows),
        ],
    )
    clock.lap("render_s")

    record = dict(dataclasses.asdict(moments), cv_y=moments.cv_y, cv_x=moments.cv_x)
    manifest = _manifest(args, argv, sha, N=N, moments=record)
    _emit(args, report, {**manifest, "timings": clock.laps})
    return 0


# simulate's per-estimator columns in the order of its text tables, named like the
# JSON tables; those, then the CSV, keep the order of the fields below.
_RESULTS, _COMPARISONS = ("results",), ("comparisons",)
_SIM_COLUMNS = [
    Column("label", "label", "{:<10}", "label", _RESULTS + _COMPARISONS),
    Column("n_used", csv="n_used"),
    Column("empirical_mean", "mean", "{:>14.6f}", "mean", _RESULTS),
    Column("empirical_bias", "bias", "{:>13.6f}", "bias", _RESULTS),
    Column("empirical_mse", "MSE", "{:>15.6f}", "mse", _RESULTS),
    Column("mc_se_mse", "MC-SE", "{:>12.6f}", "mc_se_mse", _RESULTS),
    Column("n_failed", "fail", "{:>6d}", "n_failed", _RESULTS),
    Column("flag", tables=_RESULTS),  # "  INVALID" where `valid` is false
    Column("target", "target", "{:<26}", tables=_COMPARISONS),
    Column("theory_value", "theory", "{:>15.6f}", "theory", _COMPARISONS),
    Column("z_score", "z", "{:>9.3f}", "z", _COMPARISONS),
    Column("rel_gap", "rel-gap", "{:>10.4f}", "rel_gap", _COMPARISONS),
    Column("verdict", "verdict", "  {}", "verdict", _COMPARISONS),
]
_SIM_TABLES = {
    "results": [field.name for field in dataclasses.fields(EstimatorResult)],
    "comparisons": [field.name for field in dataclasses.fields(TheoryComparison)] + ["target"],
}


def _estimators(
    args: argparse.Namespace, moments: PopulationMoments, design: SystematicDesign, w2: float
) -> list[dict]:
    """One row for each listed kind: its spec, labelled by it, and its first-order
    target's name and theory value.  The family takes --alpha, or the optimum alpha
    when --alpha is not given, and --a, --b and --g, which no other kind takes."""
    n, N, ell = design.n, design.N, args.ell
    kinds = list(filter(None, map(str.strip, args.estimators.split(","))))
    given = _given(args, "alpha", "a", "b", "g")
    # Options given to no family are refused below, not checked here as FamilyParams.
    family = _family_params(args) if "family" in kinds or not given else None
    rows = []
    for kind in kinds:
        if kind not in (*PRESETS, "family"):
            raise ConfigurationError(
                f"unknown estimator kind {kind!r}; expected one of {(*PRESETS, 'family')}"
            )
        if kind == "hh":
            params, name, value = PRESETS[kind], "var(hh mean)", var_mean_y(moments, n, N, w2, ell)
        elif kind == "family" and args.alpha is None:
            constants = derived_constants(moments, n, N, family)
            params = dataclasses.replace(family, alpha=optimum_alpha(constants, family.g))
            name, value = "min MSE(family)", family_mse_min(moments, n, w2, ell, constants)
        else:
            # ratio and product take their presets, whose (a, b) = (1, 0) make lambda 1
            # whatever --a and --b say.
            params = (
                dataclasses.replace(family, alpha=args.alpha) if kind == "family" else PRESETS[kind]
            )
            constants = derived_constants(moments, n, N, params)
            name = f"first-order MSE({kind})"
            value = family_mse(params, moments, n, w2, ell, constants)
        if not math.isfinite(value):
            raise DomainError(f"{name} is {value}: the first-order theory overflows")
        rows.append({"spec": EstimatorSpec(kind, params), "target": name, "theory_value": value})
    if "family" not in kinds:
        _refuse(given, "the family estimator, which --estimators does not list")
    if not rows:
        raise ConfigurationError("no estimators requested")
    return rows


def cmd_simulate(args: argparse.Namespace, argv: list[str]) -> int:
    clock = _Stopwatch()
    if args.tolerance_sigma < 0:
        raise ConfigurationError(f"--tolerance-sigma must be >= 0, got {args.tolerance_sigma}")
    pop, design, sha = _ingest(args, clock)

    moments = _with_s2y2_factor(compute_moments(pop, design), args.s2y2_factor)
    nr, w2_theory, moments = nonresponse_design(
        pop, moments, args.w2, args.ell, args.seed, StratumMode(args.stratum_mode)
    )

    # The targets need no report: a theory-domain error exits before any replicate runs.
    rows = _estimators(args, moments, design, w2_theory)
    specs = tuple(row["spec"] for row in rows)
    cfg = SimulationConfig(args.replicates, args.seed, specs, nr, args.exhaustive)
    alpha = next((s.params.alpha for s in cfg.estimators if s.label == "family"), None)
    clock.lap("moments_s")
    report = run_simulation(pop, design, cfg)
    clock.lap("simulate_s")

    comparisons = compare_to_theory(
        report, [(row["spec"].label, row["theory_value"]) for row in rows],
        tolerance_sigma=args.tolerance_sigma,
    )
    for row, result, comparison in zip(rows, report.results, comparisons):
        row.update(dataclasses.asdict(result), **dataclasses.asdict(comparison))
        row["flag"] = "" if result.valid else "  INVALID"
    all_pass = all(row["verdict"] == "PASS" and row["valid"] for row in rows)
    clock.lap("compare_s")

    table = {key: [row[key] for row in rows] for key in rows[0]}
    csv_names = {c.key: c.csv for c in _SIM_COLUMNS if c.csv}
    payload = {
        "population_sha256": report.population_sha256,
        "true_mean_y": report.true_mean_y,
        "replicates": report.replicates,
        "seed": report.master_seed,
        "exhaustive_start": args.exhaustive,
        "w2_theory": w2_theory,
        "alpha": alpha,
        **{name: {key: table[key] for key in keys} for name, keys in _SIM_TABLES.items()},
        "all_pass": all_pass,
    }
    text = _render(
        args.format, payload,
        {csv_names[k]: table[k] for keys in _SIM_TABLES.values() for k in keys if k in csv_names},
        [
            f"population sha256={report.population_sha256[:16]}...  "
            f"N={pop.N} n={design.n} k={design.k}",
            f"true mean_y={report.true_mean_y:.6f}  replicates={report.replicates}  "
            f"seed={report.master_seed}  exhaustive={args.exhaustive}",
            f"non-response: mode={args.stratum_mode} w2={args.w2} L={args.ell}"
            + (f"  alpha={alpha:.6f}" if alpha is not None else ""),
            "",
            ([c for c in _SIM_COLUMNS if "results" in c.tables], table),
            "",
            f"theory comparison (tolerance {args.tolerance_sigma:g} sigma)",
            ([c for c in _SIM_COLUMNS if "comparisons" in c.tables], table),
            "",
            "overall: " + ("PASS" if all_pass else "FAIL"),
        ],
    )

    clock.lap("render_s")

    # Run telemetry goes to the manifest only, so reports stay byte-identical.
    manifest = _manifest(args, argv, sha, alpha=alpha)
    manifest["timings"] = clock.laps
    simulate_s = clock.laps["simulate_s"]
    manifest["replicates_per_s"] = cfg.replicates / simulate_s if simulate_s > 0 else None
    _emit(args, text, manifest)
    return 0 if all_pass else 1


def cmd_synthesize(args: argparse.Namespace, argv: list[str]) -> int:
    pop = synthetic_linear_population(
        args.units, rho_target=args.rho, seed=args.seed, x_low=args.x_low,
        x_high=args.x_high, slope=args.slope, intercept=args.intercept,
    )
    text = population_csv(pop)
    sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
    _emit(args, text, _manifest(args, argv, None, output_sha256=sha))
    return 0


def cmd_rerun(args: argparse.Namespace, argv: list[str]) -> int:
    """Replay a manifest's argv, gated on the input checksum it recorded."""
    with open(args.manifest_file, "r", encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ConfigurationError(
                f"manifest {args.manifest_file!r} is not valid JSON: {exc}"
            ) from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("input") or {}, dict):
        raise ConfigurationError(f"manifest {args.manifest_file!r} is not a run manifest")
    replay = manifest.get("argv")
    if not isinstance(replay, list) or not replay:
        raise ConfigurationError(f"manifest {args.manifest_file!r} has no argv to replay")
    replay = [str(token) for token in replay]
    if replay[0] == "rerun":
        raise ConfigurationError(f"manifest {args.manifest_file!r} replays another rerun")
    sha = (manifest.get("input") or {}).get("sha256")
    if sha:
        # The last --expect-sha256 wins, so the recorded digest overrides any earlier one.
        replay += ["--expect-sha256", str(sha)]
    return main(replay)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built once per process, since building it costs
    far more than a parse.  Its defaults are shared by every parse, so no code
    may mutate a parsed default, such as the --w2-grid list."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        _check_targets(args)
        return args.func(args, argv)
    except (EstimationError, OSError, MemoryError) as exc:
        print(f"sysmean: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
