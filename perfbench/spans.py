"""Spans around the public entry points of each choqfuse layer.

Layers are the package modules.  For a traced operation the tracer
replaces each entry point below at every choqfuse module attribute that
holds it (``choqfuse.ga.LambdaMeasure``, ``choqfuse.cli.load_csv``, the
package root, ...), so calls made by the program itself are timed from
outside, and restores every attribute afterwards.  Spans stay in memory as
(name, start, end, parent, run id, amount, bytes) and are written out once
the run ends.  Self times are a span's duration minus its children's.

Known gap: the GA's fitness sweep calls the private ``metrics`` helpers
``_threshold_grid``, ``_curves`` and ``_crossing`` directly, so that time
has no span and counts toward ``ga.self_ms`` until the program grows spans
of its own.
"""

from __future__ import annotations

import csv
import importlib
import os
import statistics
from time import perf_counter

MODULES = ("choqfuse", "choqfuse.measures", "choqfuse.aggregate",
           "choqfuse.metrics", "choqfuse.data", "choqfuse.ga", "choqfuse.cli")


def _rows(args, kwargs, result):
    return len(args[0]), 0


def _scores(args, kwargs, result):
    return len(args[0]) + len(args[1]), 0


def _roc_file(args, kwargs, result):
    return len(args[0].thresholds), os.path.getsize(args[1])


def _loaded(args, kwargs, result):
    return len(result.client_ids) + len(result.impostor_ids), os.path.getsize(args[0])


# (home module, attribute, span name, sizes of one call)
ENTRY_POINTS = (
    ("choqfuse.measures", "solve_lambda", "measures.solve_lambda", None),
    ("choqfuse.measures", "LambdaMeasure", "measures.lambda_measure", None),
    ("choqfuse.aggregate", "choquet_fuse_batch", "aggregate.choquet_fuse_batch", _rows),
    ("choqfuse.aggregate", "rule_fuse_batch", "aggregate.rule_fuse_batch", _rows),
    ("choqfuse.metrics", "evaluate_scores", "metrics.evaluate_scores", _scores),
    ("choqfuse.metrics", "write_roc_csv", "metrics.write_roc_csv", _roc_file),
    ("choqfuse.data", "load_csv", "data.load_csv", _loaded),
    ("choqfuse.data", "synthetic_dataset", "data.synthetic_dataset", None),
    ("choqfuse.ga", "evolve", "ga.evolve", None),
    ("choqfuse.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; one instance serves a whole traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        # Per evolve span: generations run, chromosomes produced and the
        # last generation whose best genes changed.
        self.ga_runs: list[tuple[int, int, int]] = []

    def _wrap(self, name, fn, sizes):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id, 0, 0)
            if sizes is not None:
                spans[idx] = (name, start, end, parent, self.run_id) + sizes(args, kwargs, result)
            return result

        return traced

    def _wrap_evolve(self, name, fn):
        """Time each generation through the ``on_generation`` callback."""

        def evolve(data, cfg=None, seeds=None, on_generation=None):
            from choqfuse.ga import GaConfig

            config = cfg or GaConfig()
            evolve_idx = self._stack[-1]  # the span this call runs under
            marks = [perf_counter()]
            state = {"genes": None, "changed": 0}

            def on_gen(population, best):
                now = perf_counter()
                generation = len(marks) - 1
                self.spans.append(("ga.generation", marks[-1], now, evolve_idx,
                                   self.run_id, generation, 0))
                marks.append(now)
                if best.genes != state["genes"]:
                    state["genes"], state["changed"] = best.genes, generation
                if on_generation is not None:
                    on_generation(population, best)

            result = fn(data, config, seeds, on_gen)
            generations = len(marks) - 2  # marks: entry, then generation 0..N
            produced = config.population_size + generations * config.offspring_count
            self.ga_runs.append((generations, produced, state["changed"]))
            return result

        return self._wrap(name, evolve, None)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for home, attr, name, sizes in ENTRY_POINTS:
            original = getattr(importlib.import_module(home), attr)
            if attr == "evolve":
                wrapper = self._wrap_evolve(name, original)
            else:
                wrapper = self._wrap(name, original, sizes)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "run_id", "amount", "bytes"])
            writer.writerows(self.spans)

    def layer_metrics(self, n_ops: int, files_written: int, bytes_written: int) -> dict:
        """Per-layer metrics, as amounts per traced operation."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        by_name: dict[str, list[int]] = {}
        for i, (name, start, end, parent, *_rest) in enumerate(spans):
            by_name.setdefault(name, []).append(i)
            if parent >= 0 and name != "ga.generation":
                child_time[parent] += end - start

        def pick(name):
            return [spans[i] for i in by_name.get(name, ())]

        def total(rows):
            return sum(s[2] - s[1] for s in rows)

        def self_total(name):
            return sum(spans[i][2] - spans[i][1] - child_time[i] for i in by_name.get(name, ()))

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        solve = pick("measures.solve_lambda")
        lam = pick("measures.lambda_measure")
        choq = pick("aggregate.choquet_fuse_batch")
        rule = pick("aggregate.rule_fuse_batch")
        evals = pick("metrics.evaluate_scores")
        roc = pick("metrics.write_roc_csv")
        load = pick("data.load_csv")
        evolve_ids = set(by_name.get("ga.evolve", ()))
        generation_ms = [1e3 * (s[2] - s[1]) for s in pick("ga.generation") if s[5] > 0]
        ga_evals = sum(1 for s in lam if s[3] in evolve_ids)
        generations = sum(g for g, _, _ in self.ga_runs)
        produced = sum(p for _, p, _ in self.ga_runs)
        useful = sum(c for _, _, c in self.ga_runs)
        pct = statistics.quantiles(generation_ms, n=100) if len(generation_ms) > 1 else [0.0] * 99
        per_op = 1.0 / n_ops
        return {
            "measures.solve_lambda.calls": len(solve) * per_op,
            "measures.solve_lambda.us_per_call": ratio(total(solve), len(solve), 1e6),
            "measures.lambda_measure.calls": len(lam) * per_op,
            "measures.lambda_measure.self_us_per_call":
                ratio(self_total("measures.lambda_measure"), len(lam), 1e6),
            "aggregate.choquet_fuse_batch.calls": len(choq) * per_op,
            "aggregate.choquet_fuse_batch.rows": sum(s[5] for s in choq) * per_op,
            "aggregate.choquet_fuse_batch.ns_per_row":
                ratio(total(choq), sum(s[5] for s in choq), 1e9),
            "aggregate.choquet_fuse_batch.us_per_call": ratio(total(choq), len(choq), 1e6),
            "aggregate.rule_fuse_batch.ns_per_row":
                ratio(total(rule), sum(s[5] for s in rule), 1e9),
            "metrics.evaluate_scores.calls": len(evals) * per_op,
            "metrics.evaluate_scores.ns_per_score":
                ratio(total(evals), sum(s[5] for s in evals), 1e9),
            "metrics.write_roc_csv.calls": len(roc) * per_op,
            "metrics.write_roc_csv.rows": sum(s[5] for s in roc) * per_op,
            "metrics.write_roc_csv.bytes": sum(s[6] for s in roc) * per_op,
            "metrics.write_roc_csv.ms": 1e3 * total(roc) * per_op,
            "data.load_csv.ms": 1e3 * total(load) * per_op,
            "data.load_csv.rows_per_s": ratio(sum(s[5] for s in load), total(load)),
            "data.load_csv.mb_per_s": ratio(sum(s[6] for s in load), total(load), 1e-6),
            "data.synthetic_dataset.ms": 1e3 * total(pick("data.synthetic_dataset")) * per_op,
            "ga.generations": generations * per_op,
            "ga.generation_ms_p50": statistics.median(generation_ms) if generation_ms else 0.0,
            "ga.generation_ms_p99": pct[98],
            "ga.evaluations": ga_evals * per_op,
            "ga.memo_hit_ratio": 1.0 - ratio(ga_evals, produced) if produced else 0.0,
            "ga.useful_generation_ratio": ratio(useful, generations),
            "ga.self_ms": 1e3 * self_total("ga.evolve") * per_op,
            "cli.main.self_ms": 1e3 * self_total("cli.main") * per_op,
            "cli.files_written": files_written * per_op,
            "cli.bytes_written": bytes_written * per_op,
        }
