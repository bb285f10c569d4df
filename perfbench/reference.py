"""Reference values for every query, computed before and outside the timed
passes, and the check of one query's output against its reference.

Mixed volumes come from the polarization formula
    V(K_1, ..., K_d) = 1/d! * sum over nonempty S of (-1)^(d-|S|) vol(sum_S K_i)
with volumes of Minkowski sums of the generating point sets taken by
scipy's Qhull, independently of mixvol's own hull.  Curvature functionals
V_(n,d-n) follow from duality, V_(n,d-n)(K, L) = C(d,n) V(K[n], -L[d-n]);
translation integrals are sums of such V_r, of intrinsic-volume products
and, for d = 3 and r = (2, 2), of mixvol's deterministic curvature value.
Two-body mixed exterior angles of edges in the plane have the closed form
(pi - theta) / (2 pi) for outward normals at angle theta; in R^3 the
reference is mixvol's cone quadrature at a large fixed budget.

Monte Carlo outputs pass within 5 standard errors; deterministic ones
within 1e-6 relative.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull

import workloads

NSIGMA = 5.0
RTOL = 1e-6
EXTERIOR_REF_SAMPLES = 40000
EXTERIOR_REF_SEED = 20170515


def _unique(pts: np.ndarray) -> np.ndarray:
    _, first = np.unique(np.round(pts, 12), axis=0, return_index=True)
    return pts[np.sort(first)]


def _full_dim(pts: np.ndarray) -> bool:
    return np.linalg.matrix_rank(pts - pts.mean(axis=0), tol=1e-9) == pts.shape[1]


def volume(pts: np.ndarray) -> float:
    pts = _unique(pts)
    return float(ConvexHull(pts).volume) if _full_dim(pts) else 0.0


def boundary_half(pts: np.ndarray) -> float:
    """V_(d-1): half the perimeter (d = 2) or half the surface area (d = 3)."""
    pts = _unique(pts)
    return float(ConvexHull(pts).area) / 2.0 if _full_dim(pts) else 0.0


def minkowski(sets) -> np.ndarray:
    out = sets[0]
    for s in sets[1:]:
        out = _unique((out[:, None, :] + s[None, :, :]).reshape(-1, out.shape[1]))
    return out


def mixed_volume(sets, degrees) -> float:
    """V(K_1[n_1], ..., K_k[n_k]) by polarization over the expanded list."""
    lst = [s for s, n in zip(sets, degrees) for _ in range(int(n))]
    d = len(lst)
    total = 0.0
    for r in range(1, d + 1):
        for sub in itertools.combinations(range(d), r):
            total += (-1) ** (d - r) * volume(minkowski([lst[i] for i in sub]))
    return total / math.factorial(d)


def kernel_pair_2d(u1, u2) -> float:
    """F_(1,1)(u1, u2) in the plane: (pi - theta) / (2 pi sin theta)."""
    theta = math.acos(max(-1.0, min(1.0, float(np.dot(u1, u2)))))
    return (math.pi - theta) / (2.0 * math.pi * math.sin(theta))


def _cli_spec(text: str, d: int):
    head, _, arg = text.partition(":")
    if head == "random-rotation":
        return ("rotcube", d, int(arg))
    return (head, d)


class References:
    """Lazily computed reference per query; shared work is cached."""

    def __init__(self, spec: dict):
        self.spec = spec
        self._cache = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def points(self, key):
        return self._memo(("pts", key),
                          lambda: workloads.points(self.spec["bodies"][key]))

    def body(self, key):
        return self._memo(("body", key),
                          lambda: workloads.build(self.spec["bodies"][key]))

    def mv(self, keys, degrees, negate_last=False):
        def calc():
            sets = [self.points(k) for k in keys]
            if negate_last:
                sets[-1] = -sets[-1]
            return mixed_volume(sets, degrees)
        return self._memo(("mv", tuple(keys), tuple(degrees), negate_last), calc)

    def intrinsic(self, key, j: int) -> float:
        pts = self.points(key)
        d = pts.shape[1]
        if j == 0:
            return 1.0
        if j == d:
            return volume(pts)
        if j == d - 1:
            return boundary_half(pts)
        # V_1 in R^3: mixvol's external-angle sum, exact for d <= 3
        return self._memo(("V", key, j),
                          lambda: float(self.body(key).intrinsic_volume(j)))

    def functional(self, keys, r) -> float:
        """Mixed translative functional V_r(K, L) of a body pair."""
        d = self.points(keys[0]).shape[1]
        r1, r2 = r
        if r1 == d:
            return volume(self.points(keys[0])) * self.intrinsic(keys[1], r2)
        if r2 == d:
            return self.intrinsic(keys[0], r1) * volume(self.points(keys[1]))
        if r1 + r2 == d:
            return math.comb(d, r1) * self.mv(keys, (r1, r2), negate_last=True)
        import mixvol

        return self._memo(("curv", tuple(keys), tuple(r)), lambda: float(
            mixvol.translative.curvature_mixed_functional(
                [self.body(k) for k in keys], r)))

    def exterior(self, d: int, t: int):
        """(angle, standard error) of a canonical face tuple."""
        table = workloads.ANGLE_TUPLES_2D if d == 2 else workloads.ANGLE_TUPLES_3D
        specs, centroids, theta = table[t]
        if theta is not None:
            return (math.pi - theta) / (2.0 * math.pi), 0.0

        def calc():
            import mixvol

            bodies = [workloads.build(s) for s in specs]
            faces = [workloads.find_face(b, n, np.asarray(c))
                     for b, n, c in zip(bodies, (1, d - 1), centroids)]
            est = mixvol.mixed_volume.mixed_exterior_angle(
                faces, bodies, (1, d - 1), rng=EXTERIOR_REF_SEED,
                samples=EXTERIOR_REF_SAMPLES)
            return float(est.value), float(est.std_error)
        return self._memo(("ext", d, t), calc)

    def of(self, q: dict):
        """Reference for query q, in the shape check() expects."""
        kind, keys = q["kind"], q["bodies"]
        if kind == "oracle":
            d = self.points(keys[0]).shape[1]
            return {tuple(a): self.mv(keys, a)
                    for a in itertools.product(range(d + 1), repeat=len(keys))
                    if sum(a) == d}
        if kind in ("schneider", "angle", "epsilon", "flag"):
            return self.mv(keys, q["degrees"])
        if kind == "curvature":
            return self.functional(keys, q["degrees"])
        if kind == "duality":
            d = self.points(keys[0]).shape[1]
            return math.comb(d, q["n"]) * self.mv(keys, (q["n"], d - q["n"]),
                                                  negate_last=True)
        if kind == "exterior":
            return self.exterior(*q["tuple"])
        if kind in ("translative", "decompose"):
            d = self.points(keys[0]).shape[1]
            total = d + q["j"]
            return {r: self.functional(keys, r)
                    for r in itertools.product(range(d + 1), repeat=2)
                    if sum(r) == total}
        if kind == "cli":
            argv = q["argv"]
            if argv[0] == "kernel-eval":
                dirs = argv[-1].partition("=")[2]
                rows = [np.array([float(x) for x in row.split(",")])
                        for row in dirs.split(";")]
                rows = [r / np.linalg.norm(r) for r in rows]
                return kernel_pair_2d(*rows)
            d = int(argv[argv.index("--dim") + 1])
            specs = [_cli_spec(s, d) for s in argv[argv.index("--gen") + 1].split(",")]
            return mixed_volume([workloads.points(s) for s in specs], (1, 1))
        raise ValueError(f"unknown query kind {kind!r}")


def _close(value, ref, sigma=0.0) -> bool:
    band = NSIGMA * sigma + RTOL * max(1.0, abs(ref))
    return value is not None and math.isfinite(value) and abs(value - ref) <= band


def check(q: dict, ref, result: dict):
    """(passed, estimated seconds to 1% relative standard error).

    A deterministic output costs its own latency; a Monte Carlo one costs
    t * (se / (0.01 |ref|))^2, the time its estimator needs to reach 1%."""
    t, out, error = result["t"], result["out"], result["error"]
    if q.get("expect"):
        return bool(error) and error.split(":")[0] == q["expect"], t
    if error:
        return False, t
    kind = q["kind"]
    if kind == "oracle":
        got = {tuple(a): v for a, v in out["entries"]}
        return (set(got) == set(ref) and
                all(_close(got[a], v) for a, v in ref.items())), t
    if kind in ("schneider", "curvature"):
        return _close(out, ref), t
    if kind == "duality":
        return _close(out[0], ref) and _close(out[1], ref), t
    if kind == "cli":
        report = out["report"] or {}
        return out["code"] == 0 and _close(report.get("value"), ref), t
    if kind == "exterior":
        ref, ref_se = ref
        se = out["se"]
        if q["route"] == "admissible-mc":
            # binomial standard error at the true angle, so a run of zero
            # hits on a small angle is judged fairly
            se = math.sqrt(ref * (1.0 - ref) / out["samples"])
        ok = _close(out["value"], ref, math.hypot(se, ref_se))
    elif kind in ("translative", "decompose"):
        total = sum(ref.values())
        ok = _close(out["value"], total, out["se"])
        if kind == "decompose":
            got = {tuple(r): (v, s) for r, v, s in out["entries"]}
            ok = ok and set(got) == set(ref) and all(
                _close(got[r][0], v, got[r][1]) for r, v in ref.items())
        ref = total
    elif kind == "epsilon":
        # the cutoff route approaches the mixed volume from below
        band = NSIGMA * out["se"] + RTOL * max(1.0, abs(ref))
        ok = -band <= out["value"] <= ref + band
    else:
        ok = _close(out["value"], ref, out["se"])
    se = out["se"]
    cost = t if se == 0.0 else t * (se / (0.01 * abs(ref))) ** 2
    return ok, cost
