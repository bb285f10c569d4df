"""Self-test of the benchmark at a tiny size (one query of each kind).

    python3 perfbench/selftest.py

Run from the repository root.  Checks that
  * every workload prints each end-to-end metric of BENCHMARK.json (with
    --trace 0) and each per-layer metric (with --trace 1) by name and unit,
    with every query passing its check;
  * a deliberately wrong reference makes the error rate nonzero and the
    result incorrect;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits with a nonzero code and prints no result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def bench(*args, cwd=None):
    proc = subprocess.run([sys.executable, RUN, "--seconds", "1", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, err = bench("--workload", w["name"], "--seed", "3",
                                     "--trace", str(trace), "--tiny")
            if code != 0 or not lines:
                problems.append(f"{w['name']} trace {trace}: exit {code}\n{err[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{w['name']} trace {trace}: {lines[-2]}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{w['name']}: metric {m['name']} missing "
                                    f"or without unit {m['unit']}: {got}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{w['name']}: unlisted metrics {sorted(extra)}")

    code, lines, _ = bench("--workload", "exact", "--seed", "3", "--trace", "0",
                           "--tiny", "--corrupt-reference")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if result["correct"] or result["failed"] == 0 or info["error_rate"]["value"] <= 0:
        problems.append(f"a wrong reference went unnoticed: {lines[-2:]}")

    bare = os.path.join(HERE, ".out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "exact", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=170)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark ran without the mixvol sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
