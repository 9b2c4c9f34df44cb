"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --tiny`` untraced and traced and
checks that the last line is the result object, that every metric named
in ``BENCHMARK.json`` appears with its unit and nothing else does, that
``ok_ratio`` is 1.0 and no op failed.  It also checks that the benchmark
refuses, without a result, a directory that holds only the benchmark.
Exits 0 when all of it holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "1", "--seconds", "1", "--tiny"]
TIMEOUT_S = 170


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=TIMEOUT_S,
    )


def check_result(workload: str, trace: int, declared: dict) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"{where}: attempted={result.get('attempted')}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        errors.append(f"{where}: metrics {got} differ from BENCHMARK.json {declared}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)) or isinstance(entry["value"], bool):
            errors.append(f"{where}: {name} value {entry['value']!r}")
    if trace == 0 and result["metrics"].get("ok_ratio", {}).get("value") != 1.0:
        errors.append(f"{where}: ok_ratio {result['metrics'].get('ok_ratio')}")
    return errors


def check_refuses_bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "bounds-sweep", 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = check_refuses_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(workload, trace, declared[trace])
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}", flush=True)
            errors += found
    for line in errors:
        print(line, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
