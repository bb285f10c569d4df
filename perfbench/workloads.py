"""Query lists of the three workloads, generated from the workload seed.

A body is a spec tuple:
    ("cube", d) | ("simplex", d) | ("diamond", d) | ("segment", d, axis)
    ("rotcube", d, seed)        mixvol's seeded rotated unit cube
    ("rot", seed, inner)        `inner` turned by a seeded rotation
A query is a dict with an "id", a "kind", the keys of its "bodies" and the
kind's arguments.  Bodies listed in a workload's "shared" set are built
(with their face lattices) during set-up and reused by several queries;
every other body is fresh and is built inside the one query that uses it.

Each workload is a closed loop: one client issues its query list in order,
each query after the previous one returns.
"""

from __future__ import annotations

import math
import os

import numpy as np

WORKLOADS = ("exact", "sampling", "translative")

# Layers whose wrapped functions must record calls in a traced pass.
EXERCISED = {
    "exact": ("polytope", "lp", "cones", "kernels", "exterior",
              "translative", "mixed_volume", "cli"),
    "sampling": ("polytope", "lp", "cones", "kernels", "exterior",
                 "flag_calculus", "mixed_volume"),
    "translative": ("polytope", "translative"),
}

MIN_QUERIES = 100

# Seeds of the fixed relative turns in the shared rotated pairs.  In
# `exact` and `sampling` such a pair is also turned as a whole by a seeded
# rotation, so its geometry, its work and its Monte Carlo variance are the
# same for every workload seed while the numbers mixvol sees change.  (The
# fresh rotated cubes of `exact` do vary with the seed.)
TURN_A, TURN_B = 5, 6


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def _seeds(rng, n=None):
    out = rng.integers(0, 2 ** 31, size=n or 1)
    return [int(x) for x in out] if n else int(out[0])


class _Builder:
    def __init__(self):
        self.bodies = {}
        self.queries = []

    def body(self, key, spec):
        self.bodies[key] = spec
        return key

    def add(self, kind, bodies, **args):
        self.queries.append(dict(kind=kind, bodies=list(bodies), **args))

    def finish(self, rng, shared, tiny=False):
        order = rng.permutation(len(self.queries))
        queries = [self.queries[i] for i in order]
        if tiny:
            seen, keep = set(), []
            for q in queries:
                tag = (q["kind"], q.get("route"), q.get("argv", [""])[0])
                if tag not in seen:
                    seen.add(tag)
                    keep.append(q)
            queries = keep
        for i, q in enumerate(queries):
            q["id"] = i
        used = {k for q in queries for k in q["bodies"]}
        shared = sorted(k for k in shared if k in used)
        bodies = {k: v for k, v in self.bodies.items() if k in used}
        return {"bodies": bodies, "shared": shared, "queries": queries}


# ---------------------------------------------------------------------------
# exact: hull and face-lattice heavy deterministic queries


def _exact(rng, tiny):
    b = _Builder()
    for d in (2, 3):
        b.body(f"Q{d}", ("cube", d))
        b.body(f"S{d}", ("simplex", d))
        b.body(f"D{d}", ("diamond", d))
        b.body(f"x{d}", ("segment", d, 0))
        b.body(f"y{d}", ("segment", d, 1))
    ra, rb = _seeds(rng, 2)
    b.body("R2a", ("rotcube", 2, ra))
    b.body("R2b", ("rotcube", 2, rb))
    rc = _seeds(rng)
    b.body("S3r", ("rot", rc, ("simplex", 3)))
    b.body("R3c", ("rot", rc, ("rotcube", 3, TURN_A)))
    shared = set(b.bodies)

    for pair in (("Q2", "D2"), ("Q2", "S2"), ("S2", "D2"), ("x2", "y2"),
                 ("Q2", "R2a"), ("D2", "R2b")):
        b.add("oracle", pair)
        b.add("schneider", pair, degrees=[1, 1], seed=_seeds(rng))
        b.add("curvature", pair, degrees=[1, 1])
        b.add("duality", pair, n=1)
    for pair, oracle, duality in ((("Q3", "S3"), True, True),
                                  (("S3", "D3"), True, False),
                                  (("S3r", "R3c"), False, False)):
        if oracle:
            b.add("oracle", pair)
        for deg in ([1, 2], [2, 1]):
            b.add("schneider", pair, degrees=deg, seed=_seeds(rng))
            b.add("curvature", pair, degrees=deg)
        if duality:
            b.add("duality", pair, n=1)
    for pair in (("x3", "Q3"), ("x3", "D3"), ("x3", "S3"), ("S3", "S3")):
        b.add("oracle", pair)
    for deg in ([1, 2], [2, 1]):
        b.add("schneider", ("x3", "Q3"), degrees=deg, seed=_seeds(rng))
    b.add("duality", ("x3", "Q3"), n=1)
    b.add("duality", ("S3", "S3"), n=1)
    triple = ("x3", "y3", "Q3")
    b.add("oracle", triple)
    b.add("schneider", triple, degrees=[1, 1, 1], seed=_seeds(rng))

    for i in range(30):
        key = b.body(f"fresh2.{i}", ("rotcube", 2, _seeds(rng)))
        pair = ("Q2" if i % 2 == 0 else "D2", key)
        kind = ("oracle", "schneider", "curvature")[i % 3]
        args = {"degrees": [1, 1]} if kind != "oracle" else {}
        if kind == "schneider":
            args["seed"] = _seeds(rng)
        b.add(kind, pair, **args)
    for i in range(6):
        key = b.body(f"fresh3.{i}", ("rotcube", 3, _seeds(rng)))
        b.add("schneider", ("S3", key), degrees=[[1, 2], [2, 1]][i % 2],
              seed=_seeds(rng))

    for _ in range(15):
        a = float(rng.uniform(0.0, 2.0 * math.pi))
        theta = float(rng.uniform(0.3, 2.8))
        dirs = ";".join(f"{math.cos(t)!r},{math.sin(t)!r}"
                        for t in (a, a + theta))
        # "--dirs=" keeps a leading minus sign from reading as an option
        b.add("cli", (), argv=["kernel-eval", "--mode", "n", "--degrees",
                               "1,1", f"--dirs={dirs}"])
    for gens in ("cube,diamond", "simplex,diamond"):
        b.add("cli", (), argv=["mixed-volume", "--gen", gens, "--dim", "2",
                               "--method", "oracle"])
        b.add("cli", (), argv=["mixed-volume", "--gen", gens, "--dim", "2",
                               "--method", "schneider", "--seed",
                               str(_seeds(rng))])
    for head in ("cube", "diamond"):
        gens = f"{head},random-rotation:{_seeds(rng)}"
        b.add("cli", (), argv=["mixed-volume", "--gen", gens, "--dim", "2",
                               "--method", "oracle"])
        b.add("cli", (), argv=["mixed-volume", "--gen", gens, "--dim", "2",
                               "--method", "schneider", "--seed",
                               str(_seeds(rng))])
    return b.finish(rng, shared, tiny)


# ---------------------------------------------------------------------------
# sampling: Monte Carlo mixed volumes and mixed exterior angles

PHI = 0.3  # turn of the second square in ANGLE_TUPLES_2D
_C, _S = math.cos(PHI), math.sin(PHI)

# (body specs, face centroids in the bodies' own frames, angle between the
# faces' outward normals or None).  Each query turns the whole pair by a
# fresh random rotation, which leaves the mixed exterior angle unchanged.
ANGLE_TUPLES_2D = (
    ((("cube", 2), ("diamond", 2)), ((0.5, 1.0), (0.5, 0.5)), math.pi / 4),
    ((("cube", 2), ("diamond", 2)), ((0.5, 1.0), (-0.5, 0.5)), math.pi / 4),
    ((("cube", 2), ("rot", "phi", ("cube", 2))),
     ((1.0, 0.5), (_C - 0.5 * _S, _S + 0.5 * _C)), PHI),
    ((("cube", 2), ("rot", "phi", ("cube", 2))),
     ((0.5, 1.0), (_C - 0.5 * _S, _S + 0.5 * _C)), math.pi / 2 - PHI),
)
ANGLE_TUPLES_3D = (
    ((("cube", 3), ("diamond", 3)),
     ((0.0, 0.0, 0.5), (-1 / 3, -1 / 3, -1 / 3)), None),
    ((("cube", 3), ("diamond", 3)),
     ((0.0, 0.5, 0.0), (-1 / 3, 1 / 3, -1 / 3)), None),
    ((("cube", 3), ("diamond", 3)),
     ((0.5, 0.0, 0.0), (1 / 3, -1 / 3, -1 / 3)), None),
)


def threads() -> int:
    return os.cpu_count() or 1


def _sampling(rng, tiny):
    b = _Builder()
    rc3, rc2 = _seeds(rng, 2)
    q3 = b.body("Q3r", ("rot", rc3, ("cube", 3)))
    d3 = b.body("D3r", ("rot", rc3, ("diamond", 3)))
    b.body("S3r", ("rot", rc3, ("simplex", 3)))
    b.body("R3a", ("rot", rc3, ("rotcube", 3, TURN_A)))
    b.body("R3b", ("rot", rc3, ("rotcube", 3, TURN_B)))
    b.body("x3", ("segment", 3, 0))
    b.body("y3", ("segment", 3, 1))
    b.body("Q3", ("cube", 3))
    b.body("Q2r", ("rot", rc2, ("cube", 2)))
    b.body("D2r", ("rot", rc2, ("diamond", 2)))
    shared = set(b.bodies)
    th = threads()

    pairs = ((q3, d3), (q3, "R3a"), ("S3r", "R3b"))
    for pair in pairs:
        for deg in ([1, 2], [2, 1]):
            b.add("angle", pair, degrees=deg, samples=50, threads=th,
                  seed=_seeds(rng))
            b.add("epsilon", pair, degrees=deg, eps=0.2, samples=50,
                  threads=th, seed=_seeds(rng))
    for deg in ([1, 2], [2, 1]):
        # identical bodies share every normal direction: not in general
        # position, so the exterior-angle route must refuse
        b.add("angle", (q3, q3), degrees=deg, samples=100, threads=th,
              seed=_seeds(rng), expect="DivergenceError")
    b.add("flag", (q3, q3), degrees=[1, 2], samples=100, threads=th,
          seed=_seeds(rng), expect="DivergenceError")
    b.add("angle", ("x3", "y3", "Q3"), degrees=[1, 1, 1], samples=50,
          threads=th, seed=_seeds(rng))
    b.add("flag", ("Q2r", "D2r"), degrees=[1, 1], samples=400, threads=th,
          seed=_seeds(rng))
    b.add("flag", (q3, d3), degrees=[1, 2], samples=50, threads=th,
          seed=_seeds(rng))
    b.add("flag", (q3, "R3a"), degrees=[2, 1], samples=50, threads=th,
          seed=_seeds(rng))

    # The single-threaded exterior-angle queries carry most of the pass, so
    # that its time depends little on how the host schedules mixvol's
    # worker threads; the d = 3 admissible-mc queries are the slowest tenth.
    reps = 6
    for tuples, d, draws in ((ANGLE_TUPLES_2D, 2, (None, 100)),
                             (ANGLE_TUPLES_3D, 3, (2000, 200))):
        for t, (specs, _, _) in enumerate(tuples):
            for _ in range(reps):
                rot = _seeds(rng)
                keys = []
                for i, spec in enumerate(specs):
                    keys.append(b.body(f"ang{d}.{len(b.queries)}.{i}",
                                       ("rot", rot, spec)))
                for route, n in zip(("cone-quadrature", "admissible-mc"),
                                    draws):
                    b.add("exterior", keys, tuple=[d, t], route=route,
                          samples=n, rotation=rot, degrees=[1, d - 1],
                          seed=_seeds(rng))
    return b.finish(rng, shared, tiny)


# ---------------------------------------------------------------------------
# translative: translation-integral sampling and homogeneous decomposition

# (d, j): (samples, repeats) of translative_integral_mc, then the same for
# decompose_homogeneous, per body pair.  The d = 3 decomposition evaluates
# 9 scaled pairs per sample through the per-sample 3-D vertex engine, so it
# gets the fewest repeats.
TRANSLATIVE_PLAN = {
    (2, 0): ((20000, 6), (1000, 4)),
    (2, 1): ((5000, 6), (1000, 4)),
    (3, 0): ((4000, 6), (600, 1)),
    (3, 1): ((100, 6), (200, 1)),
    (3, 2): ((100, 6), (100, 1)),
}


def _translative(rng, tiny):
    # No common rotation here: translations are sampled from axis-aligned
    # boxes around K_1 - K_i, so turning a pair would change the Monte
    # Carlo variance from seed to seed.  The seed draws the sampling seeds.
    b = _Builder()
    b.body("Q2", ("cube", 2))
    b.body("D2", ("diamond", 2))
    b.body("R2a", ("rotcube", 2, TURN_A))
    b.body("Q3", ("cube", 3))
    b.body("D3", ("diamond", 3))
    b.body("R3a", ("rotcube", 3, TURN_A))
    shared = set(b.bodies)
    pairs = {2: (("Q2", "D2"), ("Q2", "R2a"), ("Q2", "Q2")),
             3: (("Q3", "D3"), ("Q3", "R3a"))}
    for (d, j), plan in TRANSLATIVE_PLAN.items():
        for kind, (samples, repeats) in zip(("translative", "decompose"), plan):
            for pair in pairs[d]:
                for _ in range(repeats):
                    b.add(kind, pair, j=j, samples=samples, seed=_seeds(rng))
    return b.finish(rng, shared, tiny)


def make(workload: str, seed: int, tiny: bool = False) -> dict:
    """The workload's bodies, shared-body keys and ordered query list."""
    gen = {"exact": _exact, "sampling": _sampling,
           "translative": _translative}[workload]
    return gen(_rng(workload, seed), tiny)


# ---------------------------------------------------------------------------
# bodies as point sets (numpy only) and as mixvol polytopes


def rotation(d: int, seed: int) -> np.ndarray:
    """Seeded rotation of R^d; the spec value "phi" is the fixed planar
    turn by PHI used in ANGLE_TUPLES_2D."""
    if seed == "phi":
        c, s = math.cos(PHI), math.sin(PHI)
        return np.array([[c, -s], [s, c]])
    g = np.random.default_rng(int(seed)).standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def points(spec) -> np.ndarray:
    """Generating point set of a body spec; its convex hull is the body."""
    head = spec[0]
    if head == "rot":
        inner = points(spec[2])
        return inner @ rotation(inner.shape[1], spec[1]).T
    d = int(spec[1])
    if head == "cube":
        return np.array(np.meshgrid(*[[0.0, 1.0]] * d)).reshape(d, -1).T
    if head == "simplex":
        return np.vstack([np.zeros(d), np.eye(d)])
    if head == "diamond":
        return np.vstack([np.eye(d), -np.eye(d)])
    if head == "segment":
        return np.vstack([np.zeros(d), np.eye(d)[int(spec[2])]])
    if head == "rotcube":
        from mixvol.util import random_rotation  # the generator's own rotation

        rot = random_rotation(d, np.random.default_rng(int(spec[2])))
        return points(("cube", d)) @ rot.T
    raise ValueError(f"unknown body spec {spec!r}")


def build(spec):
    """The mixvol polytope of a body spec, made through mixvol's own API."""
    import mixvol

    head = spec[0]
    if head == "rot":
        inner = build(spec[2])
        return inner.transform(rotation(inner.dim, spec[1]))
    d = int(spec[1])
    if head == "segment":
        return mixvol.generators.segment(d, int(spec[2]))
    if head == "rotcube":
        return mixvol.generators.rotated_cube(d, int(spec[2]))
    return getattr(mixvol.generators, head)(d)


def find_face(body, dim: int, centroid):
    """The face of `body` of dimension `dim` whose centroid is nearest."""
    faces = body.faces(dim)
    dist = [float(np.linalg.norm(f.centroid - centroid)) for f in faces]
    return faces[int(np.argmin(dist))]
