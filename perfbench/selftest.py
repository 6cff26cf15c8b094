#!/usr/bin/env python3
"""The benchmark's own test: every workload in quick mode, untraced and
traced.  Checks that each run exits 0, that its last line has exactly
the result keys, that it reports every metric BENCHMARK.json declares
for that mode with the declared unit, and that every gate passed.

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def check(declared, workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--quick", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    errors = []
    if out.returncode != 0:
        errors.append(f"exit {out.returncode}: {out.stderr.strip()[-500:]}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return errors + ["last line is not a JSON result"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("a gate failed: " + "; ".join(l for l in lines if l.startswith("gate:")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        errors.append(f"metric names differ: missing {sorted(set(wanted) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(wanted))}")
    for name, m in metrics.items():
        if m.get("unit") != wanted.get(name) or not isinstance(m.get("value"), (int, float)):
            errors.append(f"{name}: {m}")
    if not trace:
        errors += [f"{name} is 0" for name, m in metrics.items() if m.get("value") == 0]
    return errors


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            errors = check(declared, workload, trace)
            print(f"{'FAIL' if errors else 'ok'}  {workload} --trace {trace}")
            for e in errors:
                print(f"      {e}")
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
