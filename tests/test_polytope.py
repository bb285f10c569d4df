"""Hull construction, face lattice, volumes, and the area measure."""

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixvol.errors import DegenerateInputError, InputError
from mixvol.generators import cube, diamond, rotated_cube, segment, simplex
from mixvol.polytope import (Polytope, _surface_measure, area_measure_atoms,
                             hull_from_points, lattice_report, minkowski_sum,
                             polytope_from_json, polytope_to_json,
                             scaled_sum, sum_volume)
from mixvol.util import kappa, multinomial, random_rotation


def box(sides) -> Polytope:
    sides = np.asarray(sides, dtype=float)
    d = len(sides)
    corners = np.array([[(i >> b) & 1 for b in range(d)]
                        for i in range(2 ** d)], dtype=float)
    return Polytope.hull(corners * sides)


def test_generator_volumes():
    assert cube(2).volume() == pytest.approx(1.0)
    assert cube(3).volume() == pytest.approx(1.0)
    assert diamond(2).volume() == pytest.approx(2.0)
    assert diamond(3).volume() == pytest.approx(4.0 / 3.0)
    assert simplex(2).volume() == pytest.approx(0.5)
    assert simplex(3).volume() == pytest.approx(1.0 / 6.0)


def test_cube_face_counts():
    c = cube(3)
    assert len(c.faces(0)) == 8
    assert len(c.faces(1)) == 12
    assert len(c.faces(2)) == 6
    assert all(f.measure == pytest.approx(1.0) for f in c.faces(1))
    assert all(f.measure == pytest.approx(1.0) for f in c.faces(2))


def test_face_frames_and_cones_are_consistent():
    for p in (cube(3), diamond(3), simplex(3)):
        for j in (0, 1, 2):
            for f in p.faces(j):
                assert f.dim == j
                assert f.frame.dim == j
                cone = f.normal_cone
                assert cone.dim == p.dim - j
                # the cone span is the orthogonal complement of the face span
                if j:
                    prod = cone.span.T @ f.frame.frame
                    np.testing.assert_allclose(prod, 0.0, atol=1e-9)


def test_normal_cone_supports_face():
    p = simplex(3)
    for f in p.faces(2):
        u = f.normal_cone.generators.sum(axis=0)
        vals = p.vertices @ u
        on = vals[list(f.vertex_ids)]
        assert np.max(vals) == pytest.approx(np.max(on))


def test_minkowski_sum_square_diamond_area():
    s = minkowski_sum(cube(2), diamond(2))
    # 1 + 2*2 + 2: the middle term is twice the mixed area
    assert s.volume() == pytest.approx(7.0)


def test_scaled_sum_matches_direct_scaling():
    s = scaled_sum([2.0, 0.5], [cube(2), diamond(2)])
    t = minkowski_sum(cube(2).transform(2.0 * np.eye(2)),
                      diamond(2).transform(0.5 * np.eye(2)))
    assert s.volume() == pytest.approx(t.volume())


def test_sum_volume_is_polynomial_in_scales():
    # vol(a K + b L) = a^2 vol K + 2 a b V(K, L) + b^2 vol L in the plane
    K, L = cube(2), diamond(2)
    for a, b in ((1.0, 1.0), (2.0, 1.0), (0.5, 1.5)):
        want = a * a * 1.0 + 2.0 * a * b * 2.0 + b * b * 2.0
        assert sum_volume([a, b], [K, L]) == pytest.approx(want)


def test_box_intrinsic_volumes():
    b2 = box((2.0, 3.0))
    assert b2.intrinsic_volume(2) == pytest.approx(6.0)
    assert b2.intrinsic_volume(1) == pytest.approx(5.0)     # semiperimeter
    b3 = box((1.0, 2.0, 3.0))
    assert b3.intrinsic_volume(3) == pytest.approx(6.0)
    assert b3.intrinsic_volume(2) == pytest.approx(11.0)    # ab+bc+ca
    assert b3.intrinsic_volume(1) == pytest.approx(6.0)     # a+b+c


def test_intrinsic_volume_zero_is_euler():
    assert cube(2).intrinsic_volume(0, rng=0) == pytest.approx(1.0, abs=0.02)


def test_segment_is_lower_dimensional():
    s = segment(3, 1)
    assert s.dim == 3
    assert s.intrinsic_dim == 1
    assert s.volume() == 0.0
    assert s.intrinsic_volume(1) == pytest.approx(1.0)
    with pytest.raises(InputError):
        s.halfspaces()


def test_hull_rejects_degenerate_without_flag():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateInputError) as exc:
        Polytope.hull(pts)
    assert exc.value.intrinsic_dim == 1
    p = Polytope.hull(pts, allow_degenerate=True)
    assert p.intrinsic_dim == 1


def test_translation_invariance():
    p = cube(3)
    q = p.translate([5.0, -1.0, 2.5])
    assert q.volume() == pytest.approx(p.volume())
    assert len(q.faces(1)) == len(p.faces(1))
    assert q.intrinsic_volume(1) == pytest.approx(p.intrinsic_volume(1))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rotation_preserves_volume_and_lattice(seed):
    rng = np.random.default_rng(seed)
    p = diamond(3)
    q = p.transform(random_rotation(3, rng))
    assert q.volume() == pytest.approx(p.volume())
    assert len(q.faces(2)) == len(p.faces(2))
    assert q.intrinsic_volume(1) == pytest.approx(p.intrinsic_volume(1))


def _rows_sorted(a):
    a = np.asarray(a)
    return a[np.lexsort(a.T)]


def test_negate_reflects_vertices():
    p = simplex(2)
    q = p.negate()
    assert q.volume() == pytest.approx(p.volume())
    np.testing.assert_allclose(_rows_sorted(-q.vertices),
                               _rows_sorted(p.vertices), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_hull_volume_matches_scipy(seed):
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((12, 3))
    p = hull_from_points(pts)
    assert p.volume() == pytest.approx(ConvexHull(pts).volume)


def test_json_roundtrip():
    p = diamond(3)
    q = polytope_from_json(polytope_to_json(p))
    assert q.volume() == pytest.approx(p.volume())
    assert q.name == p.name
    with pytest.raises(InputError):
        polytope_from_json("{not json")
    with pytest.raises(InputError):
        polytope_from_json(json.dumps({"name": "x", "dim": 2}))


def test_lattice_report_shape():
    rep = lattice_report(cube(2))
    assert rep["n_vertices"] == 4
    assert len(rep["faces"]["1"]) == 4


def test_area_measure_total_mass():
    # total mass = constant * V_n
    am = area_measure_atoms(cube(2), 1)
    assert am.constant == pytest.approx(2.0 * kappa(1) / multinomial(2, (1, 1)))
    got = am.total_mass(rng=0)
    assert got.value == pytest.approx(am.constant * 2.0, abs=1e-9)
    am3 = area_measure_atoms(cube(3), 1)
    got3 = am3.total_mass(rng=0)
    assert abs(got3.value - am3.constant * 3.0) <= 3.0 * got3.std_error + 1e-9


# ---------------------------------------------------------------------------
# facet-recursion volumes against Qhull; the lattice they no longer build

DATA = os.path.join(os.path.dirname(__file__), "data")


def _sum_points(coeffs, polys):
    pts = np.zeros((1, polys[0].dim))
    for t, p in zip(coeffs, polys):
        pts = (pts[:, None, :] + t * p.vertices[None, :, :]).reshape(-1, p.dim)
    return pts


def _with_coplanar_points(p):
    """Vertices plus every edge midpoint and facet centroid (coplanar, not extreme)."""
    extra = [f.centroid for j in (1, p.dim - 1) for f in p.faces(j)]
    return np.vstack([p.vertices, extra])


SUM_CASES = (
    ([1.0, 1.0], [cube(2), diamond(2)]),
    ([0.5, 1.5], [rotated_cube(2, 3), simplex(2)]),
    ([1.0, 0.5, 0.7], [cube(2), simplex(2), diamond(2)]),
    ([0.75, 1.25], [cube(3), diamond(3)]),
    ([1.0, 0.5], [rotated_cube(3, 1), simplex(3)]),
    ([1.0, 0.5, 0.7], [rotated_cube(3, 1), simplex(3), segment(3, 2)]),
    ([1.0, 0.5, 0.7], [cube(3), segment(3, 0), segment(3, 1)]),
    ([0.5, 1.0], [simplex(4), diamond(4)]),
    ([1.0, 0.5, 0.7], [segment(4, 0), segment(4, 1), cube(4)]),
)


@pytest.mark.parametrize("case", range(len(SUM_CASES)))
def test_sum_volume_matches_qhull(case):
    from scipy.spatial import ConvexHull

    coeffs, polys = SUM_CASES[case]
    pts = _sum_points(coeffs, polys)
    assert len(pts) <= 150  # the native path, not the Qhull fallback
    want = ConvexHull(pts).volume
    assert sum_volume(coeffs, polys) == pytest.approx(want, rel=1e-12)
    body = Polytope.hull(pts)
    assert body.volume() == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_body_volumes_match_qhull(d):
    from scipy.spatial import ConvexHull

    bodies = [cube(d), simplex(d), diamond(d), rotated_cube(d, 7)]
    for p in bodies:
        assert p.volume() == pytest.approx(ConvexHull(p.vertices).volume, rel=1e-12)
        pts = _with_coplanar_points(p)
        q = Polytope.hull(pts)
        assert q.n_vertices == p.n_vertices
        assert q.volume() == pytest.approx(ConvexHull(pts).volume, rel=1e-12)
        assert sum_volume([1.0], [q]) == pytest.approx(p.volume(), rel=1e-12)


def _stack_cases():
    """Body lists for the row-stack identity, named for failure messages."""
    Q3, D3, S3 = cube(3), diamond(3), simplex(3)
    flat = Polytope.hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                         allow_degenerate=True)
    out = {f"{a}-{b}-{d}": [g(d), h(d)]
           for d in (2, 3)
           for (a, g), (b, h) in itertools.combinations(
               (("Q", cube), ("S", simplex), ("D", diamond),
                ("R", lambda d: rotated_cube(d, 3))), 2)}
    out.update({
        "x-Q3": [segment(3, 0), Q3],
        "x-y-Q3": [segment(3, 0), segment(3, 1), Q3],
        "scaled": [Q3.transform(1e3 * np.eye(3)), D3.transform(1e-3 * np.eye(3))],
        "far": [Q3.translate([1e6, 0.0, 0.0]), S3],
        "flat-D3": [flat, D3],
        "parallel": [segment(3, 0), segment(3, 0).transform(2.0 * np.eye(3))],
    })
    rng = np.random.default_rng(17)
    for d in (2, 3):
        for i in range(3):
            out[f"cloud{d}-{i}"] = [Polytope.hull(rng.standard_normal((6 + i, d))),
                                    Polytope.hull(rng.standard_normal((9 - i, d)))]
    return out


STACK_CASES = _stack_cases()


@pytest.mark.parametrize("name", sorted(STACK_CASES))
def test_stacked_sum_volume_matches_rows(name):
    # rows with a zero coefficient fall in their own support groups; the
    # all-zero row is a point
    polys = STACK_CASES[name]
    rows = np.array(list(itertools.product((0.0, 0.5, 1.0, 2.0), repeat=len(polys))))
    stacked = sum_volume(rows, polys)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (len(rows),)
    per_row = [sum_volume(t, polys) for t in rows]
    assert all(isinstance(v, float) for v in per_row)
    np.testing.assert_allclose(stacked, per_row, rtol=1e-12, atol=0.0)
    if name == "parallel":
        assert not stacked.any()


def test_sum_volume_groups_rows_by_sign_pattern(monkeypatch):
    # one native hull per sign pattern; a row that drops a body or flips its
    # sign must not reuse another group's normals
    import mixvol.polytope

    Q, S = cube(3), simplex(3)
    real, hulls = mixvol.polytope._hull_core, []

    def counting(pts, tol):
        hulls.append(len(pts))
        return real(pts, tol)

    monkeypatch.setattr(mixvol.polytope, "_hull_core", counting)
    rows = [[1, 1], [0, 1], [1, 0], [2, 1], [0, 2], [3, 0], [-1, 1], [-2, 1]]
    got = sum_volume(rows, [Q, S])
    assert len(hulls) == 4
    want = [sum_volume(t, [Q, S]) for t in rows]
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert got[[1, 2, 4, 5]] == pytest.approx([1 / 6, 1.0, 8 / 6, 27.0], rel=1e-12)


def test_big_sums_go_through_qhull_row_by_row(monkeypatch):
    # a sign group whose first row has more than 150 sum points skips the
    # native hull; each of its rows is Qhull's volume of that row's points
    from scipy.spatial import ConvexHull

    import mixvol.polytope

    rng = np.random.default_rng(5)
    polys = []
    for n in (14, 12):
        u = rng.standard_normal((n, 3))
        polys.append(Polytope.hull(u / np.linalg.norm(u, axis=1, keepdims=True)))
    assert polys[0].n_vertices * polys[1].n_vertices > 150
    monkeypatch.setattr(mixvol.polytope, "_hull_core", None)
    rows = np.array([[1.0, 1.0], [2.0, 0.5], [0.3, 1.7], [-1.0, 1.0]])
    got = sum_volume(rows, polys)
    for t, v in zip(rows, got):
        assert v == pytest.approx(ConvexHull(_sum_points(t, polys)).volume, rel=1e-12)


ORACLE_CASES = {**{f"sum{i}": polys for i, (_, polys) in enumerate(SUM_CASES)},
                **STACK_CASES}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_oracle_grid_rows_match_qhull(name, monkeypatch):
    # every row of the oracle's grid, measured in one batched pass on its
    # sign group's first hull, against Qhull on that row's own sum points;
    # flat sums (parallel segments) are 0.  The points are summed from the
    # bodies moved to their vertex means: on sums rounded at a 1e6 offset
    # Qhull itself moves by 1e-11
    from scipy.spatial import ConvexHull

    import mixvol.mixed_volume
    from mixvol import oracle_mixed_volumes

    polys, seen = ORACLE_CASES[name], []
    real = mixvol.mixed_volume.sum_volume

    def recording(grid, bodies):
        seen.append((grid, real(grid, bodies)))
        return seen[-1][1]

    monkeypatch.setattr(mixvol.mixed_volume, "sum_volume", recording)
    oracle_mixed_volumes(polys)
    (grid, got), = seen
    assert len(got) == (polys[0].dim + 1) ** len(polys)
    for t, v in zip(grid, got):
        pts = _sum_points(t, [p.translate(-p.vertices.mean(axis=0)) for p in polys])
        rank = np.linalg.matrix_rank(pts - pts.mean(axis=0), tol=1e-9 * np.abs(pts).max())
        if rank < pts.shape[1]:
            assert v == 0.0
        else:
            assert v == pytest.approx(ConvexHull(pts).volume, rel=1e-12)


def test_plane_dedupe_is_greedy_grouping():
    # keeps the planes a first-come greedy loop keeps, in the same order, on
    # clusters near the 1e-6 normal and 10 tol offset thresholds
    from mixvol.polytope import _dedupe_planes

    rng = np.random.default_rng(4)
    centers = rng.standard_normal((12, 3))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    pick = rng.integers(0, 12, 400)
    normals = centers[pick] + rng.choice([0.0, 4e-7, 2e-6], (400, 1)) * rng.standard_normal((400, 3))
    offsets = rng.integers(0, 3, 400) + rng.choice([0.0, 6e-9, 2e-8], 400)
    keep = []
    for i in range(400):
        if not any(abs(offsets[i] - offsets[r]) <= 10 * 1e-9
                   and np.linalg.norm(normals[i] - normals[r]) <= 1e-6 for r in keep):
            keep.append(i)
    got_normals, got_offsets = _dedupe_planes(normals, offsets, 1e-9)
    assert 12 < len(keep) < 400
    np.testing.assert_array_equal(got_normals, normals[keep])
    np.testing.assert_array_equal(got_offsets, offsets[keep])


def _greedy_dedupe(pts, tol):
    pts = pts[np.lexsort(pts.T[::-1])]
    out = []
    for p in pts:
        if not out or np.min(np.linalg.norm(np.asarray(out) - p, axis=1)) > tol:
            out.append(p)
    return np.asarray(out)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_point_dedupe_is_greedy(scale):
    # the vectorised dedupe keeps exactly the points a first-come greedy loop
    # over the lex-sorted points keeps
    from mixvol.polytope import _dedupe_points

    tol = 1e-9 * scale
    # exact duplicates, and a chain a-b-c with only neighbours within tol:
    # greedy keeps a, drops b and keeps c
    chain = np.array([[0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [1.2, 0.0, 0.0]]) * tol + scale
    got = _dedupe_points(np.vstack([chain, chain[::-1]]), tol)
    np.testing.assert_array_equal(got, chain[[0, 2]])
    rng = np.random.default_rng(8)
    base = scale * rng.standard_normal((40, 3))
    pick = rng.integers(0, 40, 150)
    pts = base[pick] + rng.choice([0.0, 0.5, 0.9, 1.5], (150, 1)) * tol \
        * rng.standard_normal((150, 3)) / np.sqrt(3.0)
    want = _greedy_dedupe(pts, tol)
    assert 40 < len(want) < 150
    np.testing.assert_array_equal(_dedupe_points(pts, tol), want)


def _snapshot_body(key):
    head, *args = key.split(":")
    args = [int(a) for a in args]
    makers = {"cube": cube, "simplex": simplex, "diamond": diamond,
              "segment": segment, "rotated_cube": rotated_cube}
    return makers[head](*args)


def test_lattice_report_matches_snapshot():
    # reports of generator bodies and rotated cubes in d = 2..4, recorded
    # from the fan decomposition over subfaces that facet recursion replaced
    with open(os.path.join(DATA, "lattice_reports.json"), encoding="utf-8") as fh:
        snapshot = json.load(fh)
    for key, want in snapshot.items():
        got = json.loads(json.dumps(lattice_report(_snapshot_body(key))))
        assert got == want, key


def test_volume_does_not_build_the_lattice():
    p = Polytope.hull(rotated_cube(3, 2).vertices)
    assert p.volume() == pytest.approx(1.0)
    assert p._faces is None and p._lattice is None


def test_oracle_does_not_import_qhull():
    import mixvol

    code = ("import sys\n"
            "from mixvol import cube, diamond, oracle_mixed_volumes\n"
            "oracle_mixed_volumes([cube(3), diamond(3)])\n"
            "assert 'scipy.spatial' not in sys.modules\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(mixvol.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_volume_and_surface_measure_are_computed_once():
    # both are cached on the body, and the shared arrays cannot be changed
    p = diamond(3)
    u, w = _surface_measure(p)
    assert _surface_measure(p)[1] is w
    assert not u.flags.writeable and not w.flags.writeable
    assert w.sum() == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-12)
    assert p.volume() == p._volume == pytest.approx(4.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("exp", (-12, -9, -7, -6, -5, -3, 0, 3, 6))
def test_scaled_cubes_keep_their_facets(d, exp):
    # the candidate-normal cut is relative to the differences' lengths, and
    # every tolerance to max |x| with no floor at 1, so a tiny cube is not
    # read as degenerate; the carried-over hull agrees
    s = 10.0 ** exp
    p = Polytope.hull(cube(d).vertices * s)
    assert len(p.facets) == 2 * d
    assert p.volume() == pytest.approx(s ** d, rel=1e-14)
    assert sum_volume([2.0], [p]) == pytest.approx((2.0 * s) ** d, rel=1e-14)
    _assert_same_body(cube(d).transform(s * np.eye(d)), p)


# ---------------------------------------------------------------------------
# faces graded eagerly, their geometry computed on first use


def _lazy_corpus():
    """Factories of fresh bodies, named for failure messages."""
    out = {}
    for d in (2, 3, 4):
        for name, make in (("cube", cube), ("simplex", simplex), ("diamond", diamond)):
            out[f"{name}{d}"] = lambda make=make, d=d: make(d)
        for s in (2, 5):
            out[f"rot{d}.{s}"] = lambda d=d, s=s: rotated_cube(d, s)
    for d in (2, 3):
        for seed in range(4):
            out[f"cloud{d}.{seed}"] = lambda d=d, seed=seed: Polytope.hull(
                np.random.default_rng(seed).standard_normal((6 + 3 * seed, d)))
    for s in (1e-3, 1e3):
        out[f"diamond3*{s:g}"] = lambda s=s: diamond(3).transform(s * np.eye(3))
        out[f"rot3.7*{s:g}"] = lambda s=s: rotated_cube(3, 7).transform(s * np.eye(3))
    out["far"] = lambda: rotated_cube(3, 5).translate((-1e6, 2e6, 1e6))
    out["flat"] = lambda: Polytope.hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                                        allow_degenerate=True)
    out["segment"] = lambda: segment(3, 1)
    out["point"] = lambda: Polytope.hull([[0.5, -1.0, 2.0]], allow_degenerate=True)
    return out


LAZY_CORPUS = _lazy_corpus()


def _same_array(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(LAZY_CORPUS))
def test_lazy_faces_equal_the_lattice_bit_for_bit(name):
    fresh, warm = LAZY_CORPUS[name](), LAZY_CORPUS[name]()
    lattice = warm.face_lattice()
    dims = [j for j in range(fresh.dim + 1) if fresh.faces(j)]
    assert fresh._lattice is None
    assert dims == sorted(lattice)
    for j in dims:
        assert len(fresh.faces(j)) == len(lattice[j])
        # read the fields in another order than face_lattice() does
        for f, g in zip(reversed(fresh.faces(j)), reversed(lattice[j])):
            assert f.vertex_ids == g.vertex_ids
            assert f.dim == g.dim == j == f.frame.dim
            assert repr(f.measure) == repr(g.measure)
            assert _same_array(f.vertices, g.vertices)
            assert _same_array(f.centroid, g.centroid)
            assert _same_array(f.frame.frame, g.frame.frame)
            for field in ("ineq", "span", "generators"):
                assert _same_array(getattr(f.normal_cone, field),
                                   getattr(g.normal_cone, field)), field


@pytest.mark.parametrize("name", sorted(LAZY_CORPUS))
def test_single_body_measures_match_the_scalar_recursion(name):
    # volume, facet areas and face measures through the row-batched facet
    # recursion, with one row, against the values of the scalar recursion it
    # replaced (recorded in lazy_measures.json): identical in d <= 3 up to
    # the order of the facet sum, and within 1e-15 everywhere (4.4e-16 seen)
    with open(os.path.join(DATA, "lazy_measures.json"), encoding="utf-8") as fh:
        want = json.load(fh)[name]
    p = LAZY_CORPUS[name]()
    assert p.volume() == pytest.approx(want["volume"], rel=1e-15, abs=0.0)
    np.testing.assert_allclose(_surface_measure(p)[1], want["surface"], rtol=1e-15, atol=0)
    for j, measures in want["measures"].items():
        np.testing.assert_allclose([f.measure for f in p.faces(int(j))], measures,
                                   rtol=1e-15, atol=0)


def test_one_normal_cone_builds_one_cone(monkeypatch):
    import mixvol.polytope as polytope

    calls = []
    build = polytope._build_cone

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(polytope, "_build_cone", counting)
    p = cube(3)
    edge = p.faces(1)[3]
    cone = edge.normal_cone
    assert edge.normal_cone is cone and p.faces(1)[3] is edge
    assert len(calls) == 1
    # warming the body builds the other 25 and keeps this one
    assert p.face_lattice()[1][3].normal_cone is cone
    assert len(calls) == 26


def test_concurrent_first_reads_agree():
    # more threads than cores, switching often, all reading the same fresh
    # faces: whichever thread's value is kept, every read equals the lattice
    from concurrent.futures import ThreadPoolExecutor

    want = rotated_cube(3, 3).face_lattice()
    fresh = rotated_cube(3, 3)
    faces = [f for j in (0, 1, 2) for f in fresh.faces(j)]

    def read(shift):
        order = faces[shift:] + faces[:shift]
        return [(f.dim, f.vertex_ids, f.normal_cone.ineq.tobytes(),
                 f.frame.frame.tobytes(), repr(f.measure)) for f in order]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = [fut.result(timeout=120) for fut in
                   [pool.submit(read, 4 * i) for i in range(6)]]
    finally:
        sys.setswitchinterval(old)
    ref = {(g.dim, g.vertex_ids): (g.normal_cone.ineq.tobytes(), g.frame.frame.tobytes(),
                                   repr(g.measure)) for j in (0, 1, 2) for g in want[j]}
    for rows in got:
        assert len(rows) == 26
        for dim, ids, *fields in rows:
            assert tuple(fields) == ref[(dim, ids)]


def test_threads_on_fresh_bodies_match_one_thread():
    # worker threads may compute one face's geometry twice; both get the
    # same value, so the estimates stay bit-identical
    from mixvol.flag_calculus import flag_mixed_volume
    from mixvol.mixed_volume import angle_mixed_volume

    for route in (angle_mixed_volume, flag_mixed_volume):
        got = [route([rotated_cube(3, 3), diamond(3)], [1, 2], rng=4,
                     samples=600, threads=t) for t in (1, 2)]
        assert got[0].value == got[1].value
        assert got[0].std_error == got[1].std_error

    # bodies carried over from the shared unit cube in several threads at
    # once are the bodies one thread builds, and give the same estimates
    from concurrent.futures import ThreadPoolExecutor

    def build(seed):
        q = rotated_cube(3, seed)
        est = angle_mixed_volume([q, diamond(3)], [1, 2], rng=4, samples=300)
        return q.vertices.tobytes(), [f[2] for f in q.facets], est.value, est.std_error

    import mixvol.generators

    seeds = [3, 5, 3, 5, 7, 3]
    mixvol.generators._unit.cache_clear()  # the threads race to hull the cube
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = [fut.result(timeout=120) for fut in
                   [pool.submit(build, s) for s in seeds]]
    finally:
        sys.setswitchinterval(old)
    assert got == [build(s) for s in seeds]


# ---------------------------------------------------------------------------
# similarities carry the hull over; generator bodies are hulled once


def _similarities(name, p, rng):
    """(a, t) pairs: a rotation, a reflection, -I, c Q for c in 1e-3, 1,
    1e3, and rotations with translations of 1, 1e3 and 1e6 times the body's
    size.  The seeded clouds and the 4-D bodies move at most 1e3 times their
    size: at 1e6 the hull's tolerance, relative to max |x|, merges the
    clouds' nearly coplanar facets and gives 4-D bodies spurious ones, so
    the hull of the moved points is no reference there."""
    d = p.dim
    refl = random_rotation(d, rng)
    refl[:, 0] *= -1.0
    out = [(random_rotation(d, rng), 0.0), (refl, 0.0), (-np.eye(d), 0.0)]
    out += [(c * random_rotation(d, rng), 0.0) for c in (1e-3, 1.0, 1e3)]
    size = float(np.max(np.linalg.norm(p.vertices - p.vertices.mean(axis=0), axis=1))) or 1.0
    far = (1.0, 1e3) if d == 4 or name.startswith("cloud") else (1.0, 1e3, 1e6)
    for k in far:
        u = rng.standard_normal(d)
        out.append((random_rotation(d, rng), k * size * u / np.linalg.norm(u)))
    return out


def _assert_same_body(got, want, cond=1.0):
    """got equals want: the same dimension, facets in the same order with the
    same normals and offsets, the same faces and volume.  Values agree to
    1e-12 relative to the coordinates: a hull of points at distance m from a
    body of size L has its normals to about eps m / L, and cond = m / L.

    Vertex ids agree where the hull's numbering is defined.  The hull sorts
    its vertices lexicographically after a round trip through the body's
    frame, so vertices whose coordinates tie (a cube's) are ordered by that
    round-off; there the ids are compared through the matching of the
    vertices by position."""
    n = want.n_vertices
    assert got.intrinsic_dim == want.intrinsic_dim and got.n_vertices == n
    m = float(np.max(np.abs(want.vertices)))
    dist = np.max(np.abs(got.vertices[:, None] - want.vertices[None]), axis=2)
    ids = np.argmin(dist, axis=0)  # want's vertex i is got's vertex ids[i]
    assert sorted(ids) == list(range(n))
    assert dist[ids, np.arange(n)].max() <= 1e-12 * m
    gaps = np.diff(np.sort(want.vertices, axis=0), axis=0)
    if n == 1 or gaps.min() > 1e-9 * m:  # no ties: the same numbering
        assert list(ids) == list(range(n))

    def moved(vertex_ids):
        return tuple(sorted(int(ids[i]) for i in vertex_ids))

    assert [f[2] for f in got.facets] == [moved(f[2]) for f in want.facets]
    for (u, off, _), (u2, off2, _) in zip(got.facets, want.facets):
        np.testing.assert_allclose(u, u2, rtol=0, atol=1e-12 * cond)
        assert off == pytest.approx(off2, rel=0, abs=1e-12 * m * cond)
    for j in range(want.dim + 1):
        assert sorted(f.vertex_ids for f in got.faces(j)) == \
            sorted(moved(f.vertex_ids) for f in want.faces(j))
    assert got.volume() == pytest.approx(want.volume(), rel=1e-12 * cond)
    if want.dim <= 3:  # exact; in d = 4 a Monte Carlo sum over cone frames
        assert got.intrinsic_volume(1) == pytest.approx(want.intrinsic_volume(1),
                                                        rel=1e-12 * cond)


@pytest.mark.parametrize("name", sorted(LAZY_CORPUS))
def test_similarities_match_the_hull_of_the_moved_points(name):
    p = LAZY_CORPUS[name]()
    for a, t in _similarities(name, p, np.random.default_rng(11)):
        want = Polytope.hull(p.vertices @ a.T + t, allow_degenerate=True)
        v = want.vertices
        size = float(np.max(np.linalg.norm(v - v.mean(axis=0), axis=1)))
        cond = max(1.0, float(np.max(np.abs(v))) / size) if size else 1.0
        _assert_same_body(p.transform(a).translate(t), want, cond)


def test_only_non_similarities_rehull(monkeypatch):
    import mixvol.polytope as polytope

    calls = []
    real = polytope._hull_core

    def counting(pts, tol):
        calls.append(len(pts))
        return real(pts, tol)

    p = cube(3)
    monkeypatch.setattr(polytope, "_hull_core", counting)
    turn = random_rotation(3, np.random.default_rng(2))
    for a in (turn, -turn, 1e3 * turn, 1e-3 * np.eye(3)):
        p.transform(a)
    p.negate()
    p.translate([1e6, -2.0, 3.0])
    rotated_cube(3, 4)
    assert calls == []
    shear, stretch = np.eye(3), np.diag([1.0, 2.0, 3.0])
    shear[0, 1] = 0.5
    for a in (shear, stretch):
        assert p.transform(a).intrinsic_dim == 3
    flat = p.transform(np.diag([1.0, 1.0, 0.0]))
    assert len(calls) == 3
    assert flat.intrinsic_dim == 2 and flat.n_vertices == 4


def test_generator_bodies_share_one_hull():
    a, b = cube(3), cube(3)
    assert a is not b and a.facets is not b.facets
    assert a.vertices is b.vertices
    a.face_lattice()
    assert b._faces is None and b._lattice is None
    assert cube(3, name="box").name == "box" and cube(3).name == "cube3"
    assert rotated_cube(3, 4, name="turned").name == "turned"
    for body in (cube(3), simplex(2), diamond(4)):
        with pytest.raises(ValueError):
            body.vertices[0, 0] = 5.0
        with pytest.raises(ValueError):
            body.facets[0][0][0] = 5.0
    assert cube(3).vertices[0, 0] == b.vertices[0, 0]
