"""Self-test of the benchmark: every workload at a tiny size, both run modes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, that each workload emits every
end-to-end metric (untraced run) and every per-layer metric (traced run)
with the unit BENCHMARK.json gives it, that every output check passes, and
that the benchmark fails, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.  It is kept out of
the test suite because it starts several interpreters.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
            if kind == "end_to_end":
                assert set(metric) == {"name", "unit", "better", "bound"}, metric
                assert 0 < metric["bound"] <= 0.25, metric
            else:
                assert set(metric) == {"name", "unit", "better"}, metric
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run_one(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run_one(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, sorted(result["metrics"])
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), got
        if not trace:
            assert got["value"] > 0, (workload, metric["name"], got)


def check_fails_without_source() -> None:
    base = ROOT / ".perfbench_run"
    base.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_one(bare, "fuse_eval_1m", 0)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok  {workload} --trace {trace}")
    check_fails_without_source()
    print("ok  fails without the program's source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
