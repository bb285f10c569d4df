"""One pass over a workload's query list, in its own process.

    python3 perfbench/passrun.py WORKLOAD SEED TINY TRACE_PATH

Imports mixvol, builds the shared bodies and their face lattices (set-up),
then issues every query once, each after the previous one returns.  With a
TRACE_PATH other than "-" the tracer is installed right after the import,
so set-up is traced too, and the spans are written to TRACE_PATH at the
end.  Prints one JSON object: set-up and pass seconds, peak resident
memory, and per query its latency and raw output.  The parent process
(run.py) checks the outputs against references.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import mixvol  # noqa: E402
import mixvol.cli  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _estimate(est) -> dict:
    return {"value": float(est.value), "se": float(est.std_error),
            "samples": int(est.samples)}


def run_query(q: dict, bodies: list):
    """Issue one query through mixvol's public API; returns its raw output.

    Functions are looked up on their modules at call time, so a tracer
    installed after import sees every call."""
    kind = q["kind"]
    mv = mixvol.mixed_volume
    tr = mixvol.translative
    if kind == "oracle":
        table = mv.oracle_mixed_volumes(bodies)
        return {"entries": [[list(k), float(v)] for k, v in table.entries.items()],
                "residual": float(table.meta["residual"])}
    if kind == "schneider":
        return float(mv.schneider_mixed_volume(bodies, q["degrees"],
                                               rng=q["seed"]))
    if kind == "curvature":
        return float(tr.curvature_mixed_functional(bodies, q["degrees"]))
    if kind == "duality":
        lhs, rhs = tr.duality_check(bodies[0], bodies[1], q["n"])
        return [float(lhs), float(rhs)]
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mixvol.cli.main(q["argv"])
        return {"code": code, "report": json.loads(buf.getvalue() or "null")}
    if kind == "angle":
        return _estimate(mv.angle_mixed_volume(
            bodies, q["degrees"], rng=q["seed"], samples=q["samples"],
            threads=q["threads"]))
    if kind == "epsilon":
        return _estimate(mv.epsilon_mixed_volume(
            bodies, q["degrees"], q["eps"], rng=q["seed"],
            samples=q["samples"], threads=q["threads"]))
    if kind == "flag":
        return _estimate(mixvol.flag_calculus.flag_mixed_volume(
            bodies, q["degrees"], rng=q["seed"], samples=q["samples"],
            threads=q["threads"]))
    if kind == "exterior":
        d, t = q["tuple"]
        table = workloads.ANGLE_TUPLES_2D if d == 2 else workloads.ANGLE_TUPLES_3D
        rot = workloads.rotation(d, q["rotation"])
        faces = [workloads.find_face(b, n, rot @ np.asarray(c))
                 for b, n, c in zip(bodies, q["degrees"], table[t][1])]
        return _estimate(mv.mixed_exterior_angle(
            faces, bodies, q["degrees"], rng=q["seed"], route=q["route"],
            samples=q["samples"]))
    if kind == "translative":
        return _estimate(tr.translative_integral_mc(
            bodies, q["j"], rng=q["seed"], samples=q["samples"]))
    if kind == "decompose":
        table = tr.decompose_homogeneous(bodies, q["j"], rng=q["seed"],
                                         samples=q["samples"])
        out = _estimate(table.total())
        out["entries"] = [[list(r), float(v), float(table.std_error(r))]
                          for r, v in table.entries.items()]
        return out
    raise ValueError(f"unknown query kind {kind!r}")


def main(argv) -> None:
    workload, seed, tiny, trace_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    import_s = time.perf_counter() - T0
    tracer = None
    if trace_path != "-":
        tracer = Tracer()
        tracer.install()
    spec = workloads.make(workload, seed, tiny=tiny)
    built = {}
    for key in spec["shared"]:
        body = workloads.build(spec["bodies"][key])
        body.face_lattice()
        built[key] = body
    setup_s = time.perf_counter() - T0

    results = []
    t_pass = time.perf_counter()
    for q in spec["queries"]:
        if tracer is not None:
            tracer.query = q["id"]
        t = time.perf_counter()
        try:
            bodies = [built[k] if k in built else
                      workloads.build(spec["bodies"][k]) for k in q["bodies"]]
            out, error = run_query(q, bodies), None
        except Exception as e:  # a failing query is a result to check, not a crash
            out, error = None, f"{type(e).__name__}: {e}"
        results.append({"id": q["id"], "t": time.perf_counter() - t,
                        "out": out, "error": error})
    wall_s = time.perf_counter() - t_pass

    report = {"import_s": import_s, "setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "queries": results, "trace": None}
    if tracer is not None:
        tracer.uninstall()
        # a query that raises inside mixvol's thread pool cancels the
        # tuples not yet started, so how much work it did depends on
        # scheduling; only queries that returned give deterministic counts
        report["trace"] = tracer.summary(
            skip_queries=[r["id"] for r in results if r["error"]])
        tracer.dump(trace_path)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
