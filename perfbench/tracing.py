"""In-memory spans around sysmean's public functions, installed from outside.

Each function is wrapped at the module attribute its caller looks it up
through (for example `sysmean.montecarlo.apply_nonresponse`, which
`run_simulation` calls, or `sysmean.cli.compute_moments`, which the commands
call), so the program itself is unchanged.  A span records its name, start,
end, parent and the time its child spans cover; self time is duration minus
that child time.  Spans opened inside `run_simulation` are aggregated per
name into their run_simulation span instead of being kept one by one, since
a run makes several of them per replicate.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager

# Spans whose descendants are aggregated per name rather than recorded.
AGGREGATING = frozenset({"montecarlo.run_simulation"})


def _apply_nonresponse_name(args, kwargs) -> str:
    nr = args[2] if len(args) > 2 else kwargs["nr"]
    return f"design.apply_nonresponse.{nr.mode.value}"


def _theory(name: str) -> tuple[str, str, str]:
    return ("sysmean.cli", name, f"theory.{name}")


# (module, attribute, span name or a function of the call's arguments)
TARGETS = [
    ("sysmean.cli", "main", "cli.main"),
    ("sysmean.cli", "file_sha256", "datasets.file_sha256"),
    ("sysmean.cli", "load_population", "population.load_population"),
    ("sysmean.cli", "sorted_by_auxiliary", "population.sorted_by_auxiliary"),
    ("sysmean.cli", "compute_moments", "population.compute_moments"),
    _theory("derived_constants"),
    _theory("optimum_alpha"),
    _theory("var_mean_y"),
    _theory("classical_mse"),
    _theory("family_mse"),
    _theory("family_mse_min"),
    _theory("pre_optimum"),
    ("sysmean.cli", "run_simulation", "montecarlo.run_simulation"),
    ("sysmean.cli", "compare_to_theory", "montecarlo.compare_to_theory"),
    ("sysmean.montecarlo", "replicate_rng", "montecarlo.replicate_rng"),
    ("sysmean.montecarlo", "draw_sample", "design.draw_sample"),
    ("sysmean.montecarlo", "apply_nonresponse", _apply_nonresponse_name),
    ("sysmean.montecarlo", "hh_mean", "estimators.hh_mean"),
    ("sysmean.montecarlo", "aux_mean", "estimators.aux_mean"),
    ("sysmean.montecarlo", "ratio_estimate", "estimators.ratio_estimate"),
    ("sysmean.montecarlo", "product_estimate", "estimators.product_estimate"),
    ("sysmean.montecarlo", "family_estimate", "estimators.family_estimate"),
    ("sysmean.montecarlo", "population_fingerprint", "population.population_fingerprint"),
]


class Tracer:
    """Collects spans and per-layer counters for one process."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start_ns, child_ns, span_id, aggregate]
        self.spans: list[tuple] = []  # (span_id, parent_id, name, start_ns, end_ns, child_ns)
        self.aggregates: dict[int, dict[str, list[int]]] = {}  # span_id -> name -> [calls, busy, child]
        self.counters: dict[str, float] = {}
        self._next_id = 0

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name, fn):
        stack = self.stack

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = stack[-1] if stack else None
            aggregate = parent[4] if parent is not None else None
            self._next_id += 1
            span_id = self._next_id
            if aggregate is None and span_name in AGGREGATING:
                aggregate = self.aggregates[span_id] = {}
                own_aggregate = True
            else:
                own_aggregate = False
            frame = [span_name, 0, 0, span_id, aggregate]
            stack.append(frame)
            frame[1] = start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                if aggregate is not None and not own_aggregate:
                    entry = aggregate.get(span_name)
                    if entry is None:
                        entry = aggregate[span_name] = [0, 0, 0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += frame[2]
                else:
                    self.spans.append(
                        (span_id, parent[3] if parent else None, span_name, start, end, frame[2])
                    )
            self._observe(span_name, args, result)
            return result

        return traced

    def _observe(self, span_name: str, args, result) -> None:
        if span_name == "datasets.file_sha256":
            self.count("datasets.file_sha256.bytes", os.path.getsize(args[0]))
        elif span_name == "population.load_population":
            self.count("population.load_population.rows", result.N)
        elif span_name == "montecarlo.run_simulation":
            self.count("montecarlo.estimates", result.replicates * len(result.results))
            self.count("montecarlo.estimates_failed", sum(r.n_failed for r in result.results))

    def summary(self) -> dict:
        """Per span name: [calls, busy_ns, self_ns], plus root busy and counters."""
        totals: dict[str, list[int]] = {}

        def add(name: str, calls: int, busy: int, self_ns: int) -> None:
            entry = totals.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += self_ns

        negative = 0
        root_ns = 0
        for span_id, parent_id, name, start, end, child in self.spans:
            self_ns = end - start - child
            negative += self_ns < 0
            add(name, 1, end - start, self_ns)
            if parent_id is None:
                root_ns += end - start
        for aggregate in self.aggregates.values():
            for name, (calls, busy, child) in aggregate.items():
                negative += busy - child < 0
                add(name, calls, busy, busy - child)
        return {
            "spans": totals,
            "root_ns": root_ns,
            "negative_self": negative,
            "counters": dict(self.counters),
        }


@contextmanager
def installed(tracer: Tracer):
    """Replace every target with its traced wrapper for the duration."""
    import importlib

    saved = []
    try:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def merge(summaries: list[dict]) -> dict:
    """Sum span totals, root time and counters over several summaries."""
    merged = {"spans": {}, "root_ns": 0, "negative_self": 0, "counters": {}}
    for summary in summaries:
        for name, values in summary["spans"].items():
            entry = merged["spans"].setdefault(name, [0, 0, 0])
            for i, value in enumerate(values):
                entry[i] += value
        merged["root_ns"] += summary["root_ns"]
        merged["negative_self"] += summary["negative_self"]
        for key, value in summary["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
    return merged
