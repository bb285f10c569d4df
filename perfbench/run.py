"""mixvol benchmark: three closed-loop query workloads, checked and timed.

    python3 perfbench/run.py --workload exact|sampling|translative \
        --seed N --seconds S --trace 0|1

Run from the repository root; mixvol is imported from ./src.  Each pass
over the workload's query list runs in a fresh process (perfbench/passrun.py)
that imports mixvol and builds the shared bodies (set-up) before issuing
the queries.  Every output is checked against a reference computed here,
outside the timed passes (perfbench/reference.py).

--trace 0 repeats untraced passes for --seconds and prints the end-to-end
metrics: medians over passes of set-up time, pass wall time, time to 1%
relative standard error and peak memory, and latency percentiles over all
queries.  --trace 1 runs one untraced pass and two traced passes and prints
per-layer counts and self times from the first traced pass; the
deterministic counts of the two traced passes must agree exactly, and
every layer the workload is meant to exercise must record calls.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (imports nothing from mixvol)

PASS_TIMEOUT_S = 150
# every BLAS pool is pinned to one thread: mixvol's own --threads workers
# then keep the total at nproc
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
            "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _source_root() -> str:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "mixvol", "__init__.py")):
        _fail("src/mixvol not found; run from the root of a mixvol checkout")
    return src


def source_lines(src: str) -> int:
    total = 0
    pkg = os.path.join(src, "mixvol")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(src: str) -> dict:
    import numpy
    import scipy

    import workloads

    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_ENV,
            "threads": workloads.threads(), "src_lines": source_lines(src)}


def run_pass(src: str, workload: str, seed: int, tiny: bool,
             trace_path: str | None) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), workload,
           str(seed), "1" if tiny else "0", trace_path or "-"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        _fail(f"pass process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, p: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def check_pass(spec, refs, report, corrupt=False):
    """(failed query ids, summed time to 1%) for one pass."""
    import reference

    failed, t1 = [], 0.0
    by_id = {q["id"]: q for q in spec["queries"]}
    for res in report["queries"]:
        q = by_id[res["id"]]
        ref = refs[q["id"]]
        if corrupt and q["id"] == 0:
            ref = _corrupt(ref)
        ok, cost = reference.check(q, ref, res)
        t1 += cost
        if not ok:
            failed.append(q["id"])
    return failed, t1


def _corrupt(ref):
    """A deliberately wrong reference, for the self-test."""
    if isinstance(ref, dict):
        return {k: 2.0 * v + 1.0 for k, v in ref.items()}
    if isinstance(ref, tuple):
        return (2.0 * ref[0] + 1.0, ref[1])
    return 2.0 * ref + 1.0


LAYER_FUNCS = tracer.layer_functions()


def layer_counts(summary: dict) -> dict:
    """Deterministic counts of a traced pass, which must repeat exactly."""
    out = {}
    for layer, funcs in LAYER_FUNCS.items():
        for f in funcs:
            agg = summary.get(f"{layer}.{f}", {"calls": 0, "counts": {}})
            out[f"{layer}.{f}.calls"] = agg["calls"]
            for k, v in sorted(agg["counts"].items()):
                out[f"{layer}.{f}.{k}"] = v
    return out


def layer_metrics(summary: dict, overhead_s: float) -> dict:
    def agg(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "counts": {}})

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    hull = agg("polytope.hull")
    m["polytope.hull.calls"] = (hull["calls"], "count")
    m["polytope.hull.points"] = (hull["counts"].get("points", 0), "count")
    for f in LAYER_FUNCS["polytope"]:
        m[f"polytope.{f}.self_s"] = (agg(f"polytope.{f}")["self_s"], "s")
    lp = agg("lp.lp_feasible")
    m["lp.lp_feasible.calls"] = (lp["calls"], "count")
    m["lp.lp_feasible.rows"] = (lp["counts"].get("rows", 0), "count")
    m["lp.lp_feasible.self_s"] = (lp["self_s"], "s")
    m["lp.feasible_ratio"] = (ratio(lp["counts"].get("feasible", 0), lp["calls"]), "ratio")
    ci = agg("cones.cones_intersect")
    m["cones.cones_intersect.calls"] = (ci["calls"], "count")
    m["cones.cones_intersect.self_s"] = (ci["self_s"], "s")
    m["cones.intersect_hit_ratio"] = (ratio(ci["counts"].get("hits", 0), ci["calls"]), "ratio")
    cs = agg("cones.cone_sphere_samples")
    m["cones.cone_sphere_samples.self_s"] = (cs["self_s"], "s")
    m["cones.sampler_acceptance"] = (ratio(cs["counts"].get("accepted", 0),
                                           cs["counts"].get("draws", 0)), "ratio")
    m["cones.general_position.self_s"] = (agg("cones.general_position")["self_s"], "s")
    kv = agg("kernels.kernel_values")
    k2, k3 = kv["counts"].get("k2", 0), kv["counts"].get("k3", 0)
    m["kernels.kernel_values.calls"] = (kv["calls"], "count")
    m["kernels.tuples.k2"] = (k2, "count")
    m["kernels.tuples.k3"] = (k3, "count")
    m["kernels.kernel_values.self_s"] = (kv["self_s"], "s")
    m["kernels.tuples_per_s"] = (ratio(k2 + k3, kv["total_s"]), "1/s")
    sd = agg("exterior.subspace_determinant")
    m["exterior.subspace_determinant.calls"] = (sd["calls"], "count")
    m["exterior.subspace_determinant.self_s"] = (sd["self_s"], "s")
    for f in LAYER_FUNCS["flag_calculus"]:
        m[f"flag_calculus.{f}.self_s"] = (agg(f"flag_calculus.{f}")["self_s"], "s")
    for f in LAYER_FUNCS["translative"]:
        m[f"translative.{f}.self_s"] = (agg(f"translative.{f}")["self_s"], "s")
    m["translative.samples"] = (
        sum(agg(f"translative.{f}")["counts"].get("samples", 0)
            for f in ("translative_integral_mc", "decompose_homogeneous")), "count")
    for f in LAYER_FUNCS["mixed_volume"]:
        m[f"mixed_volume.{f}.self_s"] = (agg(f"mixed_volume.{f}")["self_s"], "s")
    m["cli.main.self_s"] = (agg("cli.main")["self_s"], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["exact", "sampling", "translative"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one query per kind (self-test size)")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="make the first query's reference wrong (self-test)")
    args = ap.parse_args(argv)

    src = _source_root()
    sys.path.insert(0, src)
    import mixvol

    if not os.path.abspath(mixvol.__file__).startswith(src + os.sep):
        _fail(f"imported mixvol from {mixvol.__file__}, not from {src}")
    import reference
    import workloads

    env = environment(src)
    spec = workloads.make(args.workload, args.seed, tiny=args.tiny)
    if not args.tiny and len(spec["queries"]) < workloads.MIN_QUERIES:
        _fail(f"workload has {len(spec['queries'])} queries, "
              f"fewer than {workloads.MIN_QUERIES}")
    refs_obj = reference.References(spec)
    refs = {q["id"]: refs_obj.of(q) for q in spec["queries"]}

    out_dir = os.path.join(HERE, ".out")
    os.makedirs(out_dir, exist_ok=True)
    attempted, failed_ids, problems = 0, [], []

    def one_pass(trace_path=None):
        nonlocal attempted
        report = run_pass(src, args.workload, args.seed, args.tiny, trace_path)
        failed, t1 = check_pass(spec, refs, report, args.corrupt_reference)
        attempted += len(report["queries"])
        failed_ids.extend(failed)
        report["time_to_1pct_s"] = t1
        return report

    passes = []
    if args.trace == 0:
        # another pass only when it should end within --seconds
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            passes.append(one_pass())
            now = time.perf_counter()
            if now - start + (now - t) > args.seconds:
                break
        lat = [r["t"] for p in passes for r in p["queries"]]
        metrics = {
            "setup_s": _metric(statistics.median(p["setup_s"] for p in passes), "s"),
            "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
            "query_p50_s": _metric(_percentile(lat, 0.5), "s"),
            "query_p90_s": _metric(_percentile(lat, 0.9), "s"),
            "time_to_1pct_s": _metric(statistics.median(
                p["time_to_1pct_s"] for p in passes), "s"),
            "peak_rss_mb": _metric(statistics.median(
                p["peak_rss_mb"] for p in passes), "MB"),
        }
    else:
        base = one_pass()
        traced = [one_pass(os.path.join(out_dir, f"spans-{args.workload}-{i}.jsonl"))
                  for i in (0, 1)]
        passes = [base] + traced
        summary = traced[0]["trace"]
        counts = [layer_counts(p["trace"]) for p in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"deterministic counts differ between traced passes: {diff}")
        for layer in workloads.EXERCISED[args.workload]:
            calls = sum(counts[0][f"{layer}.{f}.calls"] for f in LAYER_FUNCS[layer])
            if calls == 0:
                problems.append(f"layer {layer} recorded no calls")
        overhead = statistics.mean(p["wall_s"] for p in traced) - base["wall_s"]
        metrics = {k: _metric(v, u) for k, (v, u) in layer_metrics(
            summary, overhead).items()}

    failed = len(failed_ids)
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(json.dumps({"environment": env, "workload": args.workload,
                      "seed": args.seed, "passes": len(passes),
                      "pass_wall_s": [p["wall_s"] for p in passes],
                      "queries_per_pass": len(spec["queries"]),
                      "error_rate": {"value": failed / attempted, "unit": "ratio"},
                      "failed_queries": sorted(set(failed_ids))}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
