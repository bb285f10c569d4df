"""Command line front end.

Every subcommand prints a single JSON report ("schema": 1) with sorted
keys, so a fixed configuration gives byte-identical output; a non-finite
number (a standard error from one draw) prints as null.  Monte Carlo
subcommands require --seed.  Exit codes: 0 success, 1 failed acceptance
suite, 2 input error, 3 divergence, 4 estimation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import DivergenceError, EstimationError, InputError, MixvolError
from .estimates import MCEstimate
from .flag_calculus import flag_mixed_functional, flag_mixed_volume
from .generators import generate
from .kernels import KernelSpec, kernel_values
from .mixed_volume import (angle_mixed_volume, epsilon_mixed_volume,
                           oracle_mixed_volumes, schneider_mixed_volume)
from .polytope import polytope_from_json
from .translative import (curvature_mixed_functional, decompose_homogeneous,
                          translative_integral_mc)
from . import verify as _verify

_SCHEMA = 1


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError as e:
        raise InputError(f"bad degree list {text!r}") from e


def _parse_dirs(text: str) -> np.ndarray:
    try:
        rows = [[float(x) for x in row.split(",")]
                for row in text.split(";") if row.strip()]
        arr = np.asarray(rows, dtype=float)
    except ValueError as e:
        raise InputError(f"bad direction list {text!r}") from e
    if arr.ndim != 2:
        raise InputError("directions must form a k x d matrix")
    nrm = np.linalg.norm(arr, axis=1)
    if np.any(nrm <= 0):
        raise InputError("zero direction vector")
    return arr / nrm[:, None]


def _load_bodies(args) -> list:
    if args.body and args.gen:
        raise InputError("use either --body files or --gen specs, not both")
    if args.body:
        bodies = []
        for path in args.body:
            try:
                with open(path) as fh:
                    bodies.append(polytope_from_json(fh.read()))
            except OSError as e:
                raise InputError(f"cannot read {path}: {e}") from e
        return bodies
    if args.gen:
        if args.dim is None:
            raise InputError("--gen requires --dim")
        return [generate(s, args.dim) for s in args.gen.split(",")]
    raise InputError("no input bodies: pass --body or --gen")


def _require_seed(args):
    if args.seed is None:
        raise InputError("--seed is required for Monte Carlo commands")


def _json_default(o):
    # np.float64 subclasses float and never lands here; ints and bools do
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.bool_):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _finite(o):
    """o with every non-finite float replaced by None, since JSON has no
    Infinity or NaN."""
    if isinstance(o, float):
        return o if math.isfinite(o) else None
    if isinstance(o, dict):
        return {k: _finite(v) for k, v in o.items()}
    if isinstance(o, (list, tuple, np.ndarray)):
        return [_finite(v) for v in o]
    return o


def _dumps(report: dict) -> str:
    return json.dumps(_finite(report), sort_keys=True, indent=2,
                      default=_json_default, allow_nan=False) + "\n"


def _emit(report: dict, out_path: str | None) -> None:
    text = _dumps(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _estimate_fields(est: MCEstimate) -> dict:
    return {"value": float(est.value), "std_error": float(est.std_error),
            "samples": int(est.samples)}


def _cmd_mixed_volume(args) -> int:
    bodies = _load_bodies(args)
    degrees = _parse_degrees(args.degrees) if args.degrees else \
        tuple([1] * len(bodies))
    report = {"schema": _SCHEMA, "command": "mixed-volume",
              "method": args.method, "degrees": list(degrees),
              "bodies": [b.name for b in bodies], "seed": args.seed}
    table = oracle_mixed_volumes(bodies)
    reference = table.value(degrees)
    if args.method == "oracle":
        report.update(value=reference, residual=table.meta["residual"],
                      passed=table.meta["residual"] <= 1e-8)
    elif args.method == "schneider":
        _require_seed(args)
        value = schneider_mixed_volume(bodies, degrees, rng=args.seed)
        delta = abs(value - reference) / max(1.0, abs(reference))
        report.update(value=value, reference_oracle=reference,
                      rel_delta=delta, passed=delta <= 1e-6)
    elif args.method in ("angle", "epsilon"):
        _require_seed(args)
        if args.method == "epsilon":
            if args.eps is None or args.eps <= 0:
                raise InputError("--method epsilon needs --eps > 0")
            est = epsilon_mixed_volume(bodies, degrees, args.eps,
                                       rng=args.seed, samples=args.samples,
                                       threads=args.threads)
        else:
            est = angle_mixed_volume(bodies, degrees, rng=args.seed,
                                     samples=args.samples,
                                     threads=args.threads)
        report.update(_estimate_fields(est))
        if args.method == "angle":
            ok = bool(est.within(reference, 3.0, extra_sigma=1e-9))
        else:
            # the cutoff route approaches the volume from below
            ok = bool(est.value <= reference + 3.0 * est.std_error + 1e-9)
        report.update(eps=args.eps or 0.0, reference_oracle=reference,
                      delta=est.value - reference, passed=ok)
    else:
        raise InputError(f"unknown method {args.method!r}")
    _emit(report, args.out)
    return 0


def _cmd_kernel_eval(args) -> int:
    degrees = _parse_degrees(args.degrees)
    dirs = _parse_dirs(args.dirs)
    spec = KernelSpec(len(dirs[0]), degrees, args.mode, args.eps or 0.0)
    if dirs.shape[0] != spec.k:
        raise InputError("one direction per degree entry required")
    # a fixed seed for the k >= 4 Monte Carlo, so a call prints the same bytes
    # on every run (k <= 3 reads no random numbers)
    value = float(kernel_values(spec, dirs[None, :, :], rng=0)[0])
    report = {"schema": _SCHEMA, "command": "kernel-eval", "mode": args.mode,
              "degrees": list(degrees), "eps": args.eps or 0.0,
              "dirs": [[float(x) for x in row] for row in dirs],
              "value": value}
    _emit(report, args.out)
    return 0


def _cmd_flag_check(args) -> int:
    _require_seed(args)
    bodies = _load_bodies(args)
    degrees = _parse_degrees(args.degrees)
    report = {"schema": _SCHEMA, "command": "flag-check",
              "degrees": list(degrees), "bodies": [b.name for b in bodies],
              "seed": args.seed, "eps": args.eps or 0.0}
    if args.functional:
        est = flag_mixed_functional(bodies, degrees, rng=args.seed,
                                    eps=args.eps or 0.0,
                                    samples=args.samples,
                                    threads=args.threads)
        report["target"] = "translative-functional"
        try:
            ref = curvature_mixed_functional(bodies, degrees,
                                             eps=args.eps or 0.0)
        except (DivergenceError, InputError):
            # degrees passed the flag route's checks: out of curvature scope
            ref = None
    else:
        est = flag_mixed_volume(bodies, degrees, rng=args.seed,
                                eps=args.eps or 0.0, samples=args.samples,
                                threads=args.threads)
        report["target"] = "mixed-volume"
        ref = oracle_mixed_volumes(bodies).value(degrees) \
            if (args.eps or 0.0) == 0.0 else None
    # null for a divergent or out-of-scope functional or a cutoff volume
    report.update(_estimate_fields(est), reference=ref)
    if ref is not None:
        report.update(delta=est.value - ref,
                      passed=bool(est.within(ref, 3.0, extra_sigma=1e-9)))
    _emit(report, args.out)
    return 0


def _cmd_translative(args) -> int:
    _require_seed(args)
    bodies = _load_bodies(args)
    report = {"schema": _SCHEMA, "command": "translative", "j": args.j,
              "bodies": [b.name for b in bodies], "seed": args.seed}
    if args.decompose:
        table = decompose_homogeneous(bodies, args.j, rng=args.seed,
                                      samples=args.samples)
        entries = {",".join(map(str, r)): {"value": v,
                                           "std_error": table.std_error(r)}
                   for r, v in sorted(table.entries.items())}
        total = table.total()
        report.update(route=table.route, entries=entries,
                      total=_estimate_fields(total),
                      condition=table.meta["cond"])
    else:
        est = translative_integral_mc(bodies, args.j, rng=args.seed,
                                      samples=args.samples)
        report.update(_estimate_fields(est))
    _emit(report, args.out)
    return 0


def _cmd_verify(args) -> int:
    result = _verify.run_suite(args.suite, seed=args.seed)
    print(f"suite {args.suite}: {'PASS' if result['passed'] else 'FAIL'}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_dumps(result))
    return 0 if result["passed"] else 1


def _add_body_flags(sub):
    sub.add_argument("--body", action="append",
                     help="polytope JSON file (repeatable)")
    sub.add_argument("--gen", help="comma list of generator specs: "
                     "cube|simplex|diamond|segment:AXIS|random-rotation:SEED")
    sub.add_argument("--dim", type=int, help="ambient dimension for --gen")


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mixvol",
                                description="mixed volumes and translative "
                                            "functionals of polytopes")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker threads (results do not depend on this)")
    sub = p.add_subparsers(dest="command", required=True)

    mv = sub.add_parser("mixed-volume", help="mixed volume, four routes")
    _add_body_flags(mv)
    mv.add_argument("--method", default="oracle",
                    choices=["oracle", "schneider", "angle", "epsilon"])
    mv.add_argument("--degrees", help="comma list n_1..n_k (default all 1)")
    mv.add_argument("--eps", type=float, help="cutoff for --method epsilon")
    mv.add_argument("--seed", type=int)
    mv.add_argument("--samples", type=int, default=20000)
    mv.add_argument("--out", help="also write the JSON report here")

    ke = sub.add_parser("kernel-eval", help="evaluate F_n or G_r once")
    ke.add_argument("--mode", default="n", choices=["n", "r"])
    ke.add_argument("--degrees", required=True)
    ke.add_argument("--dirs", required=True,
                    help="semicolon-separated direction rows, e.g. '1,0;0,1'")
    ke.add_argument("--eps", type=float)
    ke.add_argument("--out")

    fc = sub.add_parser("flag-check",
                        help="flag-measure route with cross-check")
    _add_body_flags(fc)
    fc.add_argument("--degrees", required=True)
    fc.add_argument("--functional", action="store_true",
                    help="translative functional (mode r) instead of volume")
    fc.add_argument("--eps", type=float)
    fc.add_argument("--seed", type=int)
    fc.add_argument("--samples", type=int, default=4000)
    fc.add_argument("--out")

    tr = sub.add_parser("translative", help="translative integral routes")
    _add_body_flags(tr)
    tr.add_argument("--j", type=int, required=True,
                    help="intersection degree 0..d-1")
    tr.add_argument("--decompose", action="store_true",
                    help="homogeneous decomposition instead of the integral")
    tr.add_argument("--seed", type=int)
    tr.add_argument("--samples", type=int, default=20000)
    tr.add_argument("--out")

    vf = sub.add_parser("verify", help="run the acceptance suite")
    vf.add_argument("--suite", default="quick", choices=["quick", "full"])
    vf.add_argument("--seed", type=int, default=7)
    vf.add_argument("--out")
    return p


_DISPATCH = {
    "mixed-volume": _cmd_mixed_volume,
    "kernel-eval": _cmd_kernel_eval,
    "flag-check": _cmd_flag_check,
    "translative": _cmd_translative,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3
    except EstimationError as e:
        print(f"estimation failure: {e}", file=sys.stderr)
        return 4
    except MixvolError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
