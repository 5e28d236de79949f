"""sysmean benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one after another

Run from a checkout: the program is imported from its `src/` directory.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` the run alternates untraced passes of the workload with
passes that record spans around sysmean's public functions, and reports the
per-layer metrics.
See METRICS.md for what each metric means and which change should move it.
"""
import time

_T0 = time.perf_counter()  # set-up time counts from the start of this script

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import inputs
import tracing
import workloads
from workloads import ROOT, SRC, CheckFailed, Checker, Op

# Set-ups per run: this process plus fresh child processes; setup_s is their median.
SETUP_SAMPLES = 3
# Probes of `python -X importtime -c "import sysmean"` per traced run.
IMPORT_SAMPLES = 3
# The tail percentile needs at least ten timed calls beyond it.
MIN_TIMED_CALLS = 12
WORK_DIR = ROOT / ".perfbench_work"

END_TO_END = {"setup_s": "s", "call_tail_s": "s", "peak_rss_mb": "MB"}
CALLS, BUSY, SELF = 0, 1, 2  # fields of a span total: count, busy ns, self ns
# Per-layer metric -> (unit, (span name or name prefix, field)); None marks the
# metrics computed from counters, import probes or the call timings instead.
PER_LAYER = {
    "import.sysmean_s": ("s", None),
    "import.scipy_s": ("s", None),
    "import.numpy_s": ("s", None),
    "import.python_s": ("s", None),
    "datasets.file_sha256.busy_s": ("s", ("datasets.file_sha256", BUSY)),
    "datasets.file_sha256.bytes": ("bytes", None),
    "population.load_population.calls": ("count", ("population.load_population", CALLS)),
    "population.load_population.busy_s": ("s", ("population.load_population", BUSY)),
    "population.load_population.rows_per_s": ("1/s", None),
    "population.sorted_by_auxiliary.busy_s": ("s", ("population.sorted_by_auxiliary", BUSY)),
    "population.compute_moments.calls": ("count", ("population.compute_moments", CALLS)),
    "population.compute_moments.busy_s": ("s", ("population.compute_moments", BUSY)),
    "population.population_fingerprint.busy_s": (
        "s", ("population.population_fingerprint", BUSY)),
    "theory.calls": ("count", ("theory", CALLS)),
    "theory.busy_s": ("s", ("theory", BUSY)),
    "design.apply_nonresponse.calls": ("count", ("design.apply_nonresponse", CALLS)),
    "design.apply_nonresponse.busy_s": ("s", ("design.apply_nonresponse", BUSY)),
    "design.apply_nonresponse.fixed_busy_s": ("s", ("design.apply_nonresponse.fixed", BUSY)),
    "design.apply_nonresponse.bernoulli_busy_s": (
        "s", ("design.apply_nonresponse.bernoulli", BUSY)),
    "design.draw_sample.calls": ("count", ("design.draw_sample", CALLS)),
    "design.draw_sample.busy_s": ("s", ("design.draw_sample", BUSY)),
    "estimators.calls": ("count", ("estimators", CALLS)),
    "estimators.busy_s": ("s", ("estimators", BUSY)),
    "estimators.hh_mean.busy_s": ("s", ("estimators.hh_mean", BUSY)),
    "montecarlo.replicate_rng.calls": ("count", ("montecarlo.replicate_rng", CALLS)),
    "montecarlo.replicate_rng.busy_s": ("s", ("montecarlo.replicate_rng", BUSY)),
    "montecarlo.run_simulation.busy_s": ("s", ("montecarlo.run_simulation", BUSY)),
    "montecarlo.run_simulation.self_s": ("s", ("montecarlo.run_simulation", SELF)),
    "montecarlo.compare_to_theory.busy_s": ("s", ("montecarlo.compare_to_theory", BUSY)),
    "montecarlo.estimates_failed_ratio": ("ratio", None),
    **{f"montecarlo.verdict_fail.{label}": ("ratio", None) for label in workloads.ESTIMATORS},
    "cli.main.busy_s": ("s", ("cli.main", BUSY)),
    "cli.self_s": ("s", ("cli.main", SELF)),
    "trace.overhead_ratio": ("ratio", None),
}


@dataclass(frozen=True)
class Call:
    op: Op
    wall: float  # seconds; nan for a call that raised


class Session:
    """One workload in one process: its inputs, checks and call records."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.verdict_fail = dict.fromkeys(workloads.ESTIMATORS, 0)
        self.simulate_calls = 0
        self.cycles = 0
        self.child_rss_kb = 0
        self.trace_summaries: list[dict] = []
        work.mkdir(parents=True, exist_ok=True)
        self.pop = inputs.write_population(work, self.workload.size, seed)
        self.checker = Checker(self.pop)

    def next_cycle(self) -> list[Op]:
        ops = workloads.cycle(self.workload.name, self.pop, self.seed, self.cycles)
        self.cycles += 1
        return ops

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def call(self, op: Op, traced: bool = False) -> float:
        """Run one call and check its output; return its wall time in seconds.

        `traced` makes a child process record spans; in-process calls are
        traced by installing the wrappers around them.
        """
        self.attempted += 1
        try:
            if self.workload.in_process:
                code, wall, out = workloads.run_in_process(op.argv)
            else:
                trace_out = self.work / f"trace-{self.attempted}.json" if traced else None
                code, wall, out, rss_kb = workloads.run_child(
                    workloads.cli_command(op.argv, trace_out), self.work / "child.out"
                )
                self.child_rss_kb = max(self.child_rss_kb, rss_kb)
                if trace_out is not None and trace_out.exists():
                    self.trace_summaries.append(json.loads(trace_out.read_text()))
            failing = self.checker.check(op, code, out)
        except CheckFailed as exc:
            self.fail(str(exc))
            return wall
        except Exception as exc:  # an exception from the program is a failed call
            self.fail(f"{op.argv[0]} raised {type(exc).__name__}: {exc}")
            return math.nan  # no wall time: left out of the timings
        if op.kind == "simulate":
            self.simulate_calls += 1
            for label in failing:
                self.verdict_fail[label] += 1
        return wall

    def measure(self, seconds: float, min_calls: int = 1, tracer=None) -> tuple[list, list]:
        """Run whole passes of the mix until the next pass would overrun `seconds`.

        Returns the untraced and the traced passes, each a list of Call.  With
        a tracer every other pass is traced, so both sides see the same drift.
        """
        plain: list[list[Call]] = []
        traced: list[list[Call]] = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            trace_pass = tracer is not None and self.cycles % 2 == 1
            ops = self.next_cycle()
            wrapped = trace_pass and self.workload.in_process
            with tracing.installed(tracer) if wrapped else contextlib.nullcontext():
                calls = [Call(op, self.call(op, trace_pass)) for op in ops]
            (traced if trace_pass else plain).append(calls)
            now = time.perf_counter()
            done = len(timed(plain + traced)) >= min_calls and (traced or tracer is None)
            if done and now - start + (now - pass_start) > seconds:
                return plain, traced

    def check_pooled_z(self) -> None:
        if len(self.checker.hh_gaps) > 1:
            self.attempted += 1
            z = self.checker.pooled_z()
            if abs(z) > workloads.Z_BOUND:
                self.fail(f"hh MSE pooled over {len(self.checker.hh_gaps)} calls: z={z:.2f}")


def set_up(name: str, seed: int, work: Path) -> tuple[Session, float]:
    """Generate inputs, import sysmean from src/, make one warm-up call."""
    session = Session(name, seed, work)
    import sysmean

    if SRC not in Path(sysmean.__file__).resolve().parents:
        raise SystemExit(f"sysmean was imported from {sysmean.__file__}, not from {SRC}")
    session.call(session.next_cycle()[0])
    session.cycles = 0  # the first timed pass repeats the warm-up call
    return session, time.perf_counter() - _T0


def probe_setup(name: str, seed: int, work: Path) -> float:
    """Time one set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-only", str(work)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    if out.returncode != 0:
        raise CheckFailed(f"set-up probe exited {out.returncode}: {out.stderr.strip()[-300:]}")
    return float(out.stdout.strip().splitlines()[-1])


def timed(passes: list[list[Call]]) -> list[Call]:
    """The calls of the passes that have a wall time (failed calls have none)."""
    return [call for calls in passes for call in calls if not math.isnan(call.wall)]


def mean_wall(passes: list[list[Call]]) -> float:
    return statistics.fmean(call.wall for call in timed(passes))


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples beyond it, and its percentile."""
    ordered = sorted(values)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(session: Session, setups: list[float], passes: list[list[Call]]) -> tuple[dict, str]:
    """The end-to-end metrics, and a note with the median and throughput.

    The median call time and the throughput are printed but are not metrics
    of BENCHMARK.json: the host's speed has phases of up to +-25 % lasting
    from seconds to minutes, and the share of a run spent in each moves them
    by more than any bound allows.  The tail sits in the slow phase, which
    every run sees, and stays steady.
    """
    calls = timed(passes)
    walls = [call.wall for call in calls]
    sims = session.workload.name.startswith("sim_")
    work = sum(call.op.replicates for call in calls) if sims else len(calls)
    # The calls of a mix differ in cost, so the median of single calls falls
    # between op types; the mean call time of a pass has one mode.
    pass_means = [mean_wall([p]) for p in passes if timed([p])]
    if session.workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = session.child_rss_kb
    tail_value, tail_pct = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "call_tail_s": (tail_value, f"p{tail_pct:.0f} of {len(calls)} calls"),
        "peak_rss_mb": (rss_kb / 1024.0, "benchmark process" if session.workload.in_process
                        else "largest child process"),
    }
    note = (f"call_p50_s {statistics.median(pass_means):.6g} s (median over {len(pass_means)} "
            f"passes of the mean call in a pass); throughput_per_s {work / sum(walls):.6g} 1/s "
            f"({'replicates' if sims else 'calls'} per second of call wall time)")
    return {name: (value, END_TO_END[name], detail)
            for name, (value, detail) in metrics.items()}, note


def import_times() -> dict[str, float]:
    """Cumulative import times from -X importtime, and a bare interpreter start."""
    samples: dict[str, list[float]] = {"sysmean": [], "scipy": [], "numpy": [], "python": []}
    env = workloads.child_env()
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        samples["python"].append(time.perf_counter() - start)
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sysmean"],
            capture_output=True, text=True, check=True, env=env, cwd=ROOT,
        )
        for package, seconds in outermost_imports(out.stderr).items():
            samples[package].append(seconds)
    return {f"import.{key}_s": statistics.median(values) for key, values in samples.items()}


def outermost_imports(stderr: str) -> dict[str, float]:
    """Sum cumulative times of each package's modules not imported by that package."""
    lines = []  # (level, name, cumulative seconds, parent index)
    pending: list[int] = []
    for raw in stderr.splitlines():
        if not raw.startswith("import time:") or "cumulative" in raw:
            continue
        _, cumulative, field = raw[len("import time:"):].split("|")
        level = (len(field) - len(field.lstrip()) - 1) // 2
        index = len(lines)
        lines.append([level, field.strip(), int(cumulative) / 1e6, None])
        while pending and lines[pending[-1]][0] > level:
            lines[pending.pop()][3] = index
        pending.append(index)
    totals = {"sysmean": 0.0, "scipy": 0.0, "numpy": 0.0}
    for level, name, seconds, parent in lines:
        package = name.split(".")[0]
        if package in totals:
            parent_name = lines[parent][1] if parent is not None else ""
            if parent_name.split(".")[0] != package:
                totals[package] += seconds
    return totals


def per_layer(session: Session, plain: list, traced: list, imports: dict) -> tuple[dict, str]:
    """Per-layer metrics, as means per traced call, from the merged span summary."""
    summary = tracing.merge(session.trace_summaries)
    spans, counters = summary["spans"], summary["counters"]
    calls = len(timed(traced))

    def total(prefix: str, field: int) -> int:
        return sum(v[field] for name, v in spans.items()
                   if name == prefix or name.startswith(prefix + "."))

    values: dict[str, float] = dict(imports)
    for metric, (_, source) in PER_LAYER.items():
        if source is not None:
            prefix, field = source
            values[metric] = total(prefix, field) / (1 if field == CALLS else 1e9) / calls
    load_ns = total("population.load_population", BUSY)
    rows = counters.get("population.load_population.rows", 0)
    estimates = counters.get("montecarlo.estimates", 0)
    values["datasets.file_sha256.bytes"] = counters.get("datasets.file_sha256.bytes", 0) / calls
    values["population.load_population.rows_per_s"] = rows / (load_ns / 1e9) if load_ns else 0.0
    values["montecarlo.estimates_failed_ratio"] = (
        counters.get("montecarlo.estimates_failed", 0) / estimates if estimates else 0.0
    )
    for label, count in session.verdict_fail.items():
        values[f"montecarlo.verdict_fail.{label}"] = (
            count / session.simulate_calls if session.simulate_calls else 0.0
        )
    values["trace.overhead_ratio"] = mean_wall(traced) / mean_wall(plain)

    # Self times partition the root spans: they must be >= 0 and sum to them.
    self_sum = sum(v[SELF] for v in spans.values())
    session.attempted += 1
    if summary["negative_self"] or self_sum != summary["root_ns"]:
        session.fail(f"trace: {summary['negative_self']} negative self times, "
                     f"self sum {self_sum} ns vs root spans {summary['root_ns']} ns")
    wall = sum(call.wall for call in timed(traced))
    note = (f"self times sum to {self_sum / 1e9:.4f} s = the cli.main spans; "
            f"traced call wall time {wall:.4f} s ({calls} traced calls)")
    return values, note


def run(args: argparse.Namespace, work: Path) -> dict:
    session, first_setup = set_up(args.workload, args.seed, work / "main")
    if args.trace:
        imports = import_times()
        tracer = tracing.Tracer()
        plain, traced = session.measure(args.seconds, tracer=tracer)
        if session.workload.in_process:
            session.trace_summaries.append(tracer.summary())
        session.check_pooled_z()
        values, note = per_layer(session, plain, traced, imports)
        metrics = {name: (values[name], unit, "") for name, (unit, _) in PER_LAYER.items()}
    else:
        setups = [first_setup]
        for i in range(1, SETUP_SAMPLES):
            session.attempted += 1
            try:
                setups.append(probe_setup(args.workload, args.seed, work / f"probe{i}"))
            except (CheckFailed, subprocess.TimeoutExpired) as exc:
                session.fail(str(exc))
        passes, _ = session.measure(args.seconds, MIN_TIMED_CALLS)
        session.check_pooled_z()
        metrics, note = end_to_end(session, setups, passes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{session.attempted} attempted, {session.failed} failed, "
          f"failed_ratio {session.failed / session.attempted:g}")
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} {detail}".rstrip())
    if session.simulate_calls:
        fails = ", ".join(f"{k} {v}" for k, v in session.verdict_fail.items())
        print(f"  theory verdict FAIL per estimator over {session.simulate_calls} simulate "
              f"calls (not failures): {fails}")
    if note:
        print(f"  {note}")
    for message in session.failures[:20]:
        print(f"  FAILED: {message}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    results = {}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return out.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "sysmean" / "__init__.py").is_file():
        print(f"error: no sysmean sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only is not None:
        session, seconds = set_up(args.workload, args.seed, args.setup_only)
        if session.failed:
            print("\n".join(session.failures), file=sys.stderr)
            return 1
        print(repr(seconds))
        return 0

    work = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
