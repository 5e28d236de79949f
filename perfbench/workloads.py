"""The four workloads: their call mixes, how a call is run, and its checks.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned.  `cli_startup` runs each call as a child
process `python -m sysmean.cli ...`; the other workloads call
`sysmean.cli.main(argv)` in the benchmark process with stdout and stderr
captured.  All reports use `--format json` so they can be checked.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

ESTIMATORS = ("hh", "ratio", "product", "family")
W2, ELL = 0.25, 2.0
# Bound on |z| of the Hansen-Hurwitz MSE against its exact design value, per
# call and pooled over the distinct calls of a run.  A correct sampler gives
# z close to N(0, 1), skewed left in a call with few replicates, since its
# squared errors are right-skewed.
Z_BOUND = 6.0
CHILD_TIMEOUT_S = 120
# Replicates per simulate call, sized so a call takes a few tenths of a second.
REPLICATES = {"cli_startup": 200, "sim_n12": 1000, "sim_n1200": 200}
# 40 x 40 (w2, L) grid for the large theory table.
W2_GRID = ",".join(f"{0.01 + 0.02 * i:.2f}" for i in range(40))
ELL_GRID = ",".join(f"{1.1 + 0.1 * i:.1f}" for i in range(40))


class CheckFailed(Exception):
    """A call's output disagrees with the independent recomputation."""


@dataclass(frozen=True)
class Op:
    kind: str  # params | theory | simulate
    argv: tuple[str, ...]
    replicates: int = 0
    seed: int = 0
    mode: str = "fixed"
    sort: bool = False
    w2_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)  # the CLI's default grid
    ell_grid: tuple[float, ...] = (2.0, 2.5, 3.0, 3.5)


@dataclass(frozen=True)
class Workload:
    name: str
    size: tuple[int, int]  # (N, n) of its population
    in_process: bool


# Why each workload exists is recorded in BENCHMARK.json and METRICS.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_startup", inputs.SMALL, False),
        Workload("reports_large", inputs.LARGE, True),
        Workload("sim_n12", inputs.SMALL, True),
        Workload("sim_n1200", inputs.LARGE, True),
    )
}


def simulate_op(pop: inputs.Population, replicates: int, seed: int, mode: str) -> Op:
    argv = (
        "simulate", str(pop.path), "--n", str(pop.n), "--w2", str(W2), "--ell", str(ELL),
        "--replicates", str(replicates), "--seed", str(seed),
        "--estimators", ",".join(ESTIMATORS), "--stratum-mode", mode, "--format", "json",
    )
    return Op("simulate", argv, replicates=replicates, seed=seed, mode=mode)


def cycle(name: str, pop: inputs.Population, seed: int, index: int) -> list[Op]:
    """The calls of one pass through the workload's mix."""
    file_args = (str(pop.path), "--n", str(pop.n))
    if name == "cli_startup":
        m = inputs.moments(pop.y, pop.x, pop.n)
        explicit = (
            "--pop-size", str(pop.N), "--n", str(pop.n),
            "--mean-y", repr(m["mean_y"]), "--mean-x", repr(m["mean_x"]),
            "--s2-y", repr(m["s2_y"]), "--s2-x", repr(m["s2_x"]), "--rho", repr(m["rho"]),
            "--rho-y", repr(m["rho_y"]), "--rho-x", repr(m["rho_x"]),
            "--s2-y2", repr(inputs.S2Y2_FACTOR * m["s2_y"]),
        )
        return [
            Op("params", ("params", *file_args, "--format", "json")),
            Op("theory", ("theory-table", *file_args, "--format", "json")),
            Op("theory", ("theory-table", *explicit, "--format", "json")),
            # The same seed on every pass, so each pass repeats the first.
            simulate_op(pop, REPLICATES[name], seed, "fixed"),
        ]
    if name == "reports_large":
        grid = ("--w2-grid", W2_GRID, "--ell-grid", ELL_GRID)
        return [
            Op("params", ("params", *file_args, "--format", "json")),
            Op("params", ("params", *file_args, "--sort-by", "x", "--format", "json"), sort=True),
            Op("theory", ("theory-table", *file_args, *grid, "--format", "json"),
               w2_grid=tuple(map(float, W2_GRID.split(","))),
               ell_grid=tuple(map(float, ELL_GRID.split(",")))),
        ]
    # sim_n12 / sim_n1200: three fixed-stratum calls per Bernoulli call, each
    # with its own master seed so the checks see independent streams.
    base = 1000 * seed + 4 * index
    modes = ("fixed", "fixed", "fixed", "bernoulli")
    return [simulate_op(pop, REPLICATES[name], base + i, mode) for i, mode in enumerate(modes)]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(command: list[str], out_path: Path) -> tuple[int, float, bytes, int]:
    """Run a child to completion; return (exit code, wall s, stdout, max RSS in KiB)."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, out_path.read_bytes(), usage.ru_maxrss


def cli_command(argv: tuple[str, ...], trace_out: Path | None = None) -> list[str]:
    if trace_out is None:
        return [sys.executable, "-m", "sysmean.cli", *argv]
    return [sys.executable, str(HERE / "traced_cli.py"), str(trace_out), *argv]


def run_in_process(argv: tuple[str, ...]) -> tuple[int, float, bytes]:
    """Call sysmean.cli.main with stdout and stderr captured; return (code, wall s, stdout)."""
    import sysmean.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sysmean.cli.main(list(argv))
    wall = time.perf_counter() - start
    return code, wall, out.getvalue().encode("utf-8")


class Checker:
    """Checks reports against numpy recomputations from the generated CSV."""

    def __init__(self, pop: inputs.Population) -> None:
        self.pop = pop
        self.expected = inputs.moments(pop.y, pop.x, pop.n)
        self._sorted: dict[str, float] | None = None
        self.seen: dict[tuple[str, ...], bytes] = {}
        self.hh_gaps: dict[int, tuple[float, float]] = {}  # seed -> (MSE - exact, MC SE)

    def sorted_moments(self) -> dict[str, float]:
        if self._sorted is None:
            self._sorted = inputs.moments(*inputs.sorted_by_x(self.pop), self.pop.n)
        return self._sorted

    def check(self, op: Op, code: int, out: bytes) -> list[str]:
        """Raise CheckFailed on a wrong output; return the labels with a FAIL verdict."""
        if code not in ((0, 1) if op.kind == "simulate" else (0,)):
            raise CheckFailed(f"{op.argv[0]} exited {code}")
        previous = self.seen.get(op.argv)
        if previous is not None:
            if previous != out:
                raise CheckFailed(f"{op.argv[0]} report bytes differ between identical calls")
            if op.kind != "simulate":
                return []
        try:
            report = json.loads(out)
        except ValueError as exc:
            raise CheckFailed(f"{op.argv[0]} printed no JSON report: {exc}") from None
        if op.kind == "params":
            self._check_params(op, report)
            failing = []
        elif op.kind == "theory":
            self._check_theory(op, report)
            failing = []
        else:
            failing = self._check_simulate(op, code, report)
        self.seen[op.argv] = out
        return failing

    def _check_params(self, op: Op, report: dict) -> None:
        expected = self.sorted_moments() if op.sort else self.expected
        arrangement = "sorted by x" if op.sort else "file order"
        if report.get("arrangement") != arrangement or report.get("s2_y2") != "unset":
            raise CheckFailed("params: wrong arrangement or s2_y2")
        for key, value in expected.items():
            got = report.get(key)
            if isinstance(value, int):
                if got != value:
                    raise CheckFailed(f"params: {key}={got}, expected {value}")
            elif not isinstance(got, float) or not inputs.close(got, value):
                raise CheckFailed(f"params: {key}={got!r}, expected {value!r}")

    def _check_theory(self, op: Op, report: dict) -> None:
        m = self.expected
        if report.get("N") != m["N"] or report.get("n") != m["n"]:
            raise CheckFailed("theory-table: wrong N or n")
        rows = report.get("rows") or []
        grid = [(w2, ell) for w2 in op.w2_grid for ell in op.ell_grid]
        if [(row["w2"], row["ell"]) for row in rows] != grid:
            raise CheckFailed("theory-table: rows do not cover the requested grid in order")
        for row in rows:
            variance, pre = inputs.theory_row(
                m, row["w2"], row["ell"], inputs.S2Y2_FACTOR * m["s2_y"]
            )
            if not (inputs.close(row["var_hh_mean"], variance) and inputs.close(row["pre"], pre)):
                raise CheckFailed(
                    f"theory-table: row w2={row['w2']} L={row['ell']} gives "
                    f"({row['var_hh_mean']}, {row['pre']}), expected ({variance}, {pre})"
                )

    def _check_simulate(self, op: Op, code: int, report: dict) -> list[str]:
        pop, m = self.pop, self.expected
        if code != (0 if report.get("all_pass") else 1):
            raise CheckFailed(f"simulate: exit {code} disagrees with all_pass")
        if report.get("replicates") != op.replicates or report.get("seed") != op.seed:
            raise CheckFailed("simulate: wrong replicates or seed")
        results = report.get("results") or []
        if [r.get("label") for r in results] != list(ESTIMATORS):
            raise CheckFailed("simulate: wrong estimators")
        for r in results:
            numbers = [r["empirical_mean"], r["empirical_bias"], r["empirical_mse"], r["mc_se_mse"]]
            if not (r["valid"] and r["n_used"] + r["n_failed"] == op.replicates
                    and all(math.isfinite(v) for v in numbers) and r["mc_se_mse"] > 0):
                raise CheckFailed(f"simulate: invalid or non-finite result {r}")
        if not inputs.close(report["true_mean_y"], float(pop.y.mean()), 1e-12):
            raise CheckFailed("simulate: wrong true mean")

        if op.mode == "fixed":
            stratum = inputs.fixed_stratum(pop.N, W2, op.seed)
            w2_theory = stratum.size / pop.N
            s2_y2 = float(pop.y[stratum].var(ddof=1))
            exact = inputs.exact_hh_mse_fixed(pop, stratum, ELL)
        else:
            w2_theory, s2_y2 = W2, m["s2_y"]
            exact = inputs.exact_hh_mse_bernoulli(pop, W2, ELL)
        if not inputs.close(report["w2_theory"], w2_theory, 1e-12):
            raise CheckFailed("simulate: wrong w2_theory")
        comparisons = {c["label"]: c for c in report.get("comparisons") or []}
        variance, _ = inputs.theory_row(m, w2_theory, ELL, s2_y2)
        if not inputs.close(comparisons["hh"]["theory_value"], variance):
            raise CheckFailed("simulate: hh theory value (or stratum) disagrees")
        hh = results[0]
        gap = hh["empirical_mse"] - exact
        if abs(gap) > Z_BOUND * hh["mc_se_mse"]:
            raise CheckFailed(f"simulate: hh MSE {hh['empirical_mse']} vs exact {exact}: "
                              f"z={gap / hh['mc_se_mse']:.2f}")
        self.hh_gaps[op.seed] = (gap, hh["mc_se_mse"])
        return [label for label, c in comparisons.items() if c["verdict"] != "PASS"]

    def pooled_z(self) -> float:
        """z of the summed hh MSE gaps over the distinct simulate calls checked."""
        gaps = np.array(list(self.hh_gaps.values()))
        return float(gaps[:, 0].sum() / math.sqrt((gaps[:, 1] ** 2).sum()))
