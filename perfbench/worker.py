"""One workload in a fresh interpreter: set-up probe or closed-loop run.

``worker.py setup`` imports choqfuse and builds the program-side inputs,
nothing else; ``run.py`` times it from outside.  ``worker.py run`` repeats
the workload's operation in a closed loop (the next operation starts when
the previous one has finished) for at least ``--seconds`` seconds, checks
every operation's output, and prints one JSON line with the timings.  With
``--trace 1`` plain and traced operations alternate, so the traced run also
gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import Reference, scaled
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Operations look entry points up through their modules at call time, so a
# traced operation sees the wrapped ones; checks use these direct imports.
import choqfuse.cli  # noqa: E402
from choqfuse import (LabeledScoreSet, LambdaMeasure, aggregate,  # noqa: E402
                      choquet_fuse_batch, evaluate_scores, load_csv, measures,
                      metrics, synthetic_dataset)

FUSE_DENSITIES = (0.35, 0.25, 0.3)
COMPARE_DENSITIES = (0.3, 0.2, 0.25, 0.15)
COMPARE_ROWS = ("m1", "m2", "m3", "m4", "and", "or", "prod", "mean", "min", "max",
                "majority_vote", "choquet")
# An untraced run repeats the operation at least this often, so its median
# discards one disturbed operation even when an operation outlasts --seconds.
MIN_OPS = 3


class CheckFailed(Exception):
    """An operation's output disagrees with an independent check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = choqfuse.cli.main(argv)
    _require(code == 0, f"exit code {code}: {err.getvalue().strip()}")


def oracle_lambda(densities) -> float:
    """Root of prod(1 + lam * m_i) = 1 + lam other than 0, by plain bisection."""
    def h(lam):
        return math.prod(1.0 + lam * m for m in densities) - 1.0 - lam

    total = math.fsum(densities)
    if total < 1.0:
        lo, hi = 1e-9, 1.0
        while h(hi) <= 0.0:
            hi *= 2.0
    else:
        lo, hi = -1.0 + 1e-12, -1e-9
    sign_lo = h(lo) > 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (h(mid) > 0.0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_choquet(row, densities, lam: float) -> float:
    """Sorted-telescope Choquet integral with the closed-form subset measure."""
    order = sorted(range(len(row)), key=lambda i: (row[i], i))
    total, prev = 0.0, 0.0
    for pos, i in enumerate(order):
        rest = order[pos:]
        weight = (math.prod(1.0 + lam * densities[j] for j in rest) - 1.0) / lam
        total += (row[i] - prev) * weight
        prev = row[i]
    return total


class GaSynthetic:
    """``choqfuse optimize --synthetic --seed S`` through ``choqfuse.cli.main``."""

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.seed = seed
        self.extra = ["--generations", "8", "--population", "6"] if tiny else []
        self.reference: tuple[bytes, bytes] | None = None

    def setup(self):
        self.data = synthetic_dataset()

    def op(self, out: Path):
        _cli(["optimize", "--synthetic", "--seed", str(self.seed), "--out", str(out)]
             + self.extra)

    def check(self, out: Path, _result) -> dict:
        measure_bytes = (out / "measure.json").read_bytes()
        history_bytes = (out / "history.csv").read_bytes()
        payload = json.loads(measure_bytes)
        measure = LambdaMeasure(tuple(payload["densities"]))
        report = evaluate_scores(choquet_fuse_batch(self.data.client_scores, measure),
                                 choquet_fuse_batch(self.data.impostor_scores, measure))
        _require(abs(report.eer - payload["eer"]) <= 1e-12,
                 f"measure.json eer {payload['eer']!r} != fresh {report.eer!r}")
        fresh_min = report.min_error_rate()[0]
        _require(abs(fresh_min - payload["min_error_rate"]) <= 1e-12,
                 f"measure.json min_error_rate {payload['min_error_rate']!r} "
                 f"!= fresh {fresh_min!r}")
        rows = list(csv.reader(io.StringIO(history_bytes.decode("utf-8"))))[1:]
        _require(len(rows) == payload["generations_run"] + 1,
                 f"history.csv has {len(rows)} rows for "
                 f"{payload['generations_run']} generations")
        best = [float(r[1]) for r in rows]
        _require(all(b <= a for a, b in zip(best, best[1:])),
                 "history.csv best_eer increases")
        if self.reference is None:
            self.reference = (measure_bytes, history_bytes)
        _require((measure_bytes, history_bytes) == self.reference,
                 "outputs differ between runs of one seed")
        return {"eer": payload["eer"], "min_error_rate": payload["min_error_rate"]}


class FuseEval:
    """Choquet-fuse 5e5 client and 5e5 impostor rows, then evaluate them."""

    SAMPLE = 128  # rows per class checked against the oracle

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work

    def setup(self):
        clients = np.load(self.work / "clients.npy")
        impostors = np.load(self.work / "impostors.npy")
        self.data = LabeledScoreSet(
            client_ids=range(len(clients)), client_scores=clients,
            impostor_ids=range(len(clients), len(clients) + len(impostors)),
            impostor_scores=impostors)
        # Part of the timed set-up only: each operation builds its own measure.
        LambdaMeasure(FUSE_DENSITIES)

    def op(self, out: Path):
        measure = measures.LambdaMeasure(FUSE_DENSITIES)
        fused_clients = aggregate.choquet_fuse_batch(self.data.client_scores, measure)
        fused_impostors = aggregate.choquet_fuse_batch(self.data.impostor_scores, measure)
        report = metrics.evaluate_scores(fused_clients, fused_impostors)
        return fused_clients, fused_impostors, report, report.min_error_rate()

    def check(self, out: Path, result) -> dict:
        fused_clients, fused_impostors, report, (min_rate, min_threshold) = result
        lam = oracle_lambda(FUSE_DENSITIES)
        for scores, fused in ((self.data.client_scores, fused_clients),
                              (self.data.impostor_scores, fused_impostors)):
            for i in np.linspace(0, len(scores) - 1, self.SAMPLE).astype(int):
                expected = oracle_choquet(scores[i].tolist(), FUSE_DENSITIES, lam)
                _require(abs(fused[i] - expected) <= 1e-12,
                         f"row {i}: fused {fused[i]!r}, oracle {expected!r}")
        n_c, n_i = fused_clients.size, fused_impostors.size
        t = report.eer_threshold
        false_accepts = np.count_nonzero(fused_impostors >= t)
        false_rejects = np.count_nonzero(fused_clients < t)
        _require(abs(false_accepts - report.eer * n_i) <= 1.0 + 1e-9
                 and abs(false_rejects - report.eer * n_c) <= 1.0 + 1e-9,
                 f"FAR/FRR at the EER threshold ({false_accepts}/{n_i}, "
                 f"{false_rejects}/{n_c}) disagree with eer {report.eer!r}")
        errors = (np.count_nonzero(fused_impostors >= min_threshold)
                  + np.count_nonzero(fused_clients < min_threshold))
        _require(abs(errors - min_rate * (n_c + n_i)) <= 0.5,
                 f"{errors} errors at the min-error threshold, rate {min_rate!r}")
        return {"eer": report.eer, "min_error_rate": min_rate}


class CompareCsv:
    """``choqfuse compare`` on a generated 1e5-row, 4-modality CSV."""

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.path = work / "scores.csv"
        self.reference = None

    def setup(self):
        self.data = load_csv(self.path)
        self.measure = LambdaMeasure(COMPARE_DENSITIES)

    def op(self, out: Path):
        _cli(["compare", "--input", str(self.path),
              "--densities", ",".join(map(str, COMPARE_DENSITIES)), "--out", str(out)])

    def _library(self):
        fused_clients = choquet_fuse_batch(self.data.client_scores, self.measure)
        fused_impostors = choquet_fuse_batch(self.data.impostor_scores, self.measure)
        report = evaluate_scores(fused_clients, fused_impostors)
        rate, threshold = report.min_error_rate()
        errors = (np.count_nonzero(fused_impostors >= threshold)
                  + np.count_nonzero(fused_clients < threshold))
        _require(abs(errors - rate * (fused_clients.size + fused_impostors.size)) <= 0.5,
                 f"library min_error_rate {rate!r} disagrees with {errors} counted errors")
        return report.eer, rate

    def check(self, out: Path, _result) -> dict:
        if self.reference is None:
            self.reference = self._library()
        eer, rate = self.reference
        with open(out / "comparison.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        _require(rows[0] == ["rule", "error_rate_percent"], f"header {rows[0]!r}")
        _require([r[0] for r in rows[1:]] == list(COMPARE_ROWS),
                 f"comparison.csv rules {[r[0] for r in rows[1:]]!r}")
        _require(all(0.0 <= float(r[1]) <= 100.0 for r in rows[1:]),
                 "error rate outside [0, 100]")
        _require(rows[-1][1] == f"{100.0 * rate:.2f}",
                 f"choquet row {rows[-1][1]} != library {100.0 * rate:.2f}")
        missing = [n for n in COMPARE_ROWS if not (out / f"roc_{n}.csv").is_file()]
        _require(not missing, f"missing ROC files {missing}")
        return {"eer": eer, "min_error_rate": float(rows[-1][1]) / 100.0}


WORKLOADS = {"ga_synthetic": GaSynthetic, "fuse_eval_1m": FuseEval,
             "compare_csv": CompareCsv}


def _written(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run(workload, work: Path, seconds: float, trace: bool, spans_path: Path) -> dict:
    tracer = Tracer() if trace else None
    reference = Reference()
    times: dict[str, list[float]] = {"plain": [], "traced": []}
    at_reference: dict[str, list[float]] = {"plain": [], "traced": []}
    attempted = failed = files_written = bytes_written = 0
    quality: dict = {}
    start = perf_counter()
    ref_before = reference()
    while True:
        traced = trace and attempted % 2 == 1
        out = work / f"op{attempted}"
        out.mkdir()
        attempted += 1
        try:
            if traced:
                tracer.run_id = attempted
                tracer.install()
            t0 = perf_counter()
            try:
                result = workload.op(out)
            finally:
                elapsed = perf_counter() - t0
                if traced:
                    tracer.restore()
            mode = "traced" if traced else "plain"
            times[mode].append(elapsed)
            ref_after = reference()
            at_reference[mode].append(scaled(elapsed, ref_before, ref_after))
            ref_before = ref_after
            if traced:
                files, size = _written(out)
                files_written += files
                bytes_written += size
            quality = workload.check(out, result)
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
        shutil.rmtree(out)
        if perf_counter() - start >= seconds and attempted >= (2 if trace else MIN_OPS):
            break
    plain, traced = at_reference["plain"], at_reference["traced"]
    result = {"attempted": attempted, "failed": failed,
              "op_s": statistics.median(plain) if plain else None,
              "wall_s": times["plain"], **quality}
    if trace and plain and traced:
        result["layers"] = tracer.layer_metrics(len(traced), files_written, bytes_written)
        result["layers"]["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain))
        tracer.write(spans_path)
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.work, args.seed, args.tiny)
    workload.setup()
    if args.mode == "run":
        print(json.dumps(run(workload, args.work, args.seconds, bool(args.trace), args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
