"""choqfuse benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run generates the workload's inputs from ``--seed``, times
the program's set-up in fresh interpreters, then runs the workload in a
worker process of its own (``worker.py``) and checks every output.  It
prints machine info and a readable summary, and as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which hold
the end-to-end metrics of BENCHMARK.json with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  Scratch files live under
``.perfbench_run/`` and are removed at exit, except the spans of the last
traced run of each workload.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
from reference import Reference, scaled

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RUN_DIR = ROOT / ".perfbench_run"
# Set-up is timed this many times per run and reported as the median.
SETUP_REPEATS = 5
# Everything must end well inside the 180 s a run may take.
DEADLINE_S = 170.0

# Rows per class; 3 modalities for fuse_eval_1m, 4 for compare_csv.
SIZES = {"full": {"fuse_eval_1m": 500_000, "compare_csv": 50_000},
         "tiny": {"fuse_eval_1m": 2_000, "compare_csv": 1_000}}
# The user-facing name of op_s on each workload.
OP_NAMES = {"ga_synthetic": "ga_run_s", "fuse_eval_1m": "fuse_eval_s",
            "compare_csv": "compare_s"}


def make_inputs(workload: str, seed: int, work: Path, rows: int | None) -> dict:
    """Write the workload's inputs; returns their computed working set."""
    if workload == "ga_synthetic":
        # The embedded 60-row, 3-modality benchmark: the GA's input.
        return {"scores_bytes": 60 * 3 * 8}
    if workload == "fuse_eval_1m":
        clients, impostors = gen.scores(seed, rows, rows, 3)
        np.save(work / "clients.npy", clients)
        np.save(work / "impostors.npy", impostors)
        n = 2 * rows
        return {"scores_bytes": n * 3 * 8, "fused_bytes": n * 8,
                "curves_bytes": 3 * (n + 2) * 8}
    clients, impostors = gen.scores(seed, rows, rows, 4)
    size = gen.write_csv_3dp(work / "scores.csv", clients, impostors)
    return {"csv_bytes": size, "scores_bytes": 2 * rows * 4 * 8}


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def roofline_note(caches: dict, working_set: dict) -> str:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    llc = max((int(v[:-1]) * units.get(v[-1], 1) for v in caches.values()), default=0)
    total = sum(working_set.values())
    if total < 4 * llc:
        return (f"no bandwidth or roofline claim: the computed working set ({total} B) "
                f"is below 4x the last-level cache ({llc} B)")
    return f"computed working set {total} B, last-level cache {llc} B"


def machine_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0)), "caches": _cache_sizes(),
            "python": platform.python_version(), "numpy": np.__version__}


def op_summary(samples: list[float]) -> dict:
    """Sample count, median and the highest percentile with 10 samples beyond it."""
    if not samples:
        return {"n": 0}
    summary = {"n": len(samples), "median": statistics.median(samples)}
    if len(samples) > 10:
        k = len(samples) - 11
        summary[f"p{100 * (k + 1) // len(samples)}"] = sorted(samples)[k]
    return summary


def _worker(mode: str, args, work: Path, deadline: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", str(RUN_DIR / f"spans-{args.workload}.csv")]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return proc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OP_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and GA, for the self-test")
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S
    # On SIGTERM unwind normally: subprocess.run then kills and reaps the
    # worker, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "choqfuse" / "__init__.py").is_file():
        print(f"perfbench: no choqfuse package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        rows = SIZES["tiny" if args.tiny else "full"].get(args.workload)
        working_set = make_inputs(args.workload, args.seed, work, rows)
        setup, setup_wall = [], []
        if not args.trace:
            reference = Reference()
            ref_before = reference()
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                _worker("setup", args, work, deadline)
                setup_wall.append(perf_counter() - t0)
                ref_after = reference()
                setup.append(scaled(setup_wall[-1], ref_before, ref_after))
                ref_before = ref_after
        proc = _worker("run", args, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        values = result.get("layers", {})
    else:
        values = {"op_s": result["op_s"], "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"], "eer": result.get("eer"),
                  "min_error_rate": result.get("min_error_rate")}
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] not in missing}

    machine = machine_info()
    info = {"workload": args.workload, "seed": args.seed, "machine": machine,
            "working_set_bytes_computed": working_set,
            "roofline": roofline_note(machine["caches"], working_set),
            "wall_s": op_summary(result["wall_s"])}
    print("info: " + json.dumps(info))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"  (op_s is {OP_NAMES[args.workload]} on {args.workload}; both times are at "
              f"reference speed.  Median wall times: op {info['wall_s'].get('median')} s, "
              f"setup {statistics.median(setup_wall):.6g} s)")
    for name in missing:
        print(f"  {name} missing", file=sys.stderr)
    correct = result["failed"] == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
