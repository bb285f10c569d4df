"""Span tracer for mixvol's public functions, installed from outside the package.

`Tracer.install()` wraps each function in `TRACED` and rebinds the wrapper
at every loaded mixvol module that imported the function by name (for
example `cones.lp_feasible` or `translative.kernel_values`), so calls made
inside the package are recorded too.  `Polytope.hull` is a staticmethod
and `Polytope.volume` / `Polytope.face_lattice` are methods; those are
replaced on the class.

Each thread keeps its own span stack and span list.  A span is
(name, start, end, parent index, query id, counts); spans stay in memory
and `summary()` / `dump()` read them after the traced pass ends.  Self
time is a span's duration minus the time its child spans on the same
thread cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# (layer, module, attribute).  A "Polytope.x" attribute lives on the class.
TRACED = (
    ("polytope", "mixvol.polytope", "Polytope.hull"),
    ("polytope", "mixvol.polytope", "Polytope.volume"),
    ("polytope", "mixvol.polytope", "Polytope.face_lattice"),
    ("polytope", "mixvol.polytope", "sum_volume"),
    ("lp", "mixvol.lp", "lp_feasible"),
    ("cones", "mixvol.cones", "cones_intersect"),
    ("cones", "mixvol.cones", "cone_sphere_samples"),
    ("cones", "mixvol.cones", "general_position"),
    ("kernels", "mixvol.kernels", "kernel_values"),
    ("exterior", "mixvol.exterior", "subspace_determinant"),
    ("flag_calculus", "mixvol.flag_calculus", "flag_mixed_volume"),
    ("flag_calculus", "mixvol.flag_calculus", "d_matrix"),
    ("translative", "mixvol.translative", "translative_integral_mc"),
    ("translative", "mixvol.translative", "decompose_homogeneous"),
    ("translative", "mixvol.translative", "curvature_mixed_functional"),
    ("mixed_volume", "mixvol.mixed_volume", "oracle_mixed_volumes"),
    ("mixed_volume", "mixvol.mixed_volume", "schneider_mixed_volume"),
    ("mixed_volume", "mixvol.mixed_volume", "mixed_exterior_angle"),
    ("cli", "mixvol.cli", "main"),
)

# importers that must see the wrapper; install() fails if one does not
REQUIRED_REBINDS = (
    ("mixvol.cones", "lp_feasible"),
    ("mixvol.mixed_volume", "kernel_values"),
    ("mixvol.translative", "kernel_values"),
    ("mixvol.flag_calculus", "kernel_values"),
)


def _span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.split('.')[-1]}"


def layer_functions() -> dict:
    """Traced function names per layer, in TRACED order."""
    out = {}
    for layer, _, attr in TRACED:
        out.setdefault(layer, []).append(attr.split(".")[-1])
    return out


def _rows(a) -> int:
    return 0 if a is None else len(a)


def _counts(name: str, args, kwargs, result) -> dict | None:
    """Work counts recorded on a span, from its arguments and result."""
    if name == "polytope.hull":
        return {"points": len(args[0])}
    if name == "lp.lp_feasible":
        a_ub = args[0] if args else kwargs.get("A_ub")
        a_eq = args[2] if len(args) > 2 else kwargs.get("A_eq")
        return {"rows": _rows(a_ub) + _rows(a_eq), "feasible": int(result[0])}
    if name == "cones.cones_intersect":
        return {"hits": int(bool(result))}
    if name == "cones.cone_sphere_samples":
        n = int(args[1] if len(args) > 1 else kwargs["n"])
        # rejection sampling reports its draws as the measure's sample
        # count; rays and arcs are sampled directly
        draws = int(result[1].samples) or n
        return {"accepted": n, "draws": draws}
    if name == "kernels.kernel_values":
        us = args[1] if len(args) > 1 else kwargs["us"]
        return {f"k{len(us[0])}": len(us)}
    if name == "translative.translative_integral_mc":
        return {"samples": int(args[3] if len(args) > 3
                               else kwargs.get("samples", 100000))}
    if name == "translative.decompose_homogeneous":
        samples = int(args[3] if len(args) > 3 else kwargs.get("samples", 20000))
        lambdas = args[4] if len(args) > 4 else kwargs.get("lambdas", (1.0, 1.5, 2.0))
        return {"samples": samples * len(lambdas) ** len(args[0])}
    return None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lists = []           # one span list per thread
        self._lists_lock = threading.Lock()
        self._restore = []
        self.query = None          # id of the query in flight

    # -- recording

    def _thread_state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = ([], [], threading.get_ident())  # stack, spans, thread
            self._local.state = st
            with self._lists_lock:
                self._lists.append(st)
        return st

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, spans, _ = tracer._thread_state()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.query, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            rec[5] = _counts(name, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installation

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "mixvol" or n.startswith("mixvol.")) and m is not None]
        for layer, modname, attr in TRACED:
            mod = sys.modules[modname]
            name = _span_name(layer, attr)
            if attr.startswith("Polytope."):
                cls = mod.Polytope
                key = attr.split(".", 1)[1]
                raw = cls.__dict__[key]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self.span(name, fn)
                setattr(cls, key, staticmethod(wrapped) if is_static else wrapped)
                self._restore.append((cls, key, raw))
                continue
            fn = getattr(mod, attr)
            wrapped = self.span(name, fn)
            for m in mods:
                for gname, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, gname, wrapped)
                        self._restore.append((m, gname, fn))
        for modname, attr in REQUIRED_REBINDS:
            if not getattr(getattr(sys.modules[modname], attr),
                           "__wrapped_by_tracer__", False):
                raise RuntimeError(f"tracer failed to rebind {modname}.{attr}")

    def uninstall(self):
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    # -- read-out

    def spans(self):
        """All spans as (thread, index, name, start, end, parent, query, counts)."""
        with self._lists_lock:
            lists = list(self._lists)
        for _, spans, tid in lists:
            for i, (name, t0, t1, parent, query, counts) in enumerate(spans):
                yield tid, i, name, t0, t1, parent, query, counts

    def summary(self, skip_queries=()) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, summed counts.

        Spans of the queries in `skip_queries` are left out."""
        out = {}
        child_time = {}
        skip = set(skip_queries)
        rows = [r for r in self.spans() if r[6] not in skip]
        for tid, _, _, t0, t1, parent, _, _ in rows:
            if parent >= 0:
                key = (tid, parent)
                child_time[key] = child_time.get(key, 0.0) + (t1 - t0)
        for tid, i, name, t0, t1, _, _, counts in rows:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "counts": {}})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_time.get((tid, i), 0.0)
            for k, v in (counts or {}).items():
                agg["counts"][k] = agg["counts"].get(k, 0) + v
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for tid, i, name, t0, t1, parent, query, counts in self.spans():
                fh.write(json.dumps([tid, i, name, t0, t1, parent, query,
                                     counts], separators=(",", ":")) + "\n")
