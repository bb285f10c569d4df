"""Translative integrals: cone-quadrature functionals, the sampled
translation integral, and the scaling decomposition.

Hand-computed anchors for the unit square Q and the diamond D = conv{+-e_i}:
vol(Q + (-D)) = 7, so the j=0 translation integral of the pair is 7; the
j=1 integral for Q against itself is 4 (perimeter term); the curvature
functional V_{1,1}(Q,D) = 4 pairs each Q edge with the two non-parallel
D normals.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.optimize import brentq

from mixvol.cones import _arc_interval, _ray_points
from mixvol.errors import DivergenceError, InputError
from mixvol.generators import cube, diamond, rotated_cube, segment, simplex
from mixvol.kernels import KernelSpec, hull_distance_batch, kernel_values
from mixvol.mixed_volume import oracle_mixed_volumes
from mixvol import translative
from mixvol.polytope import Polytope
from mixvol.translative import (_SCREEN_TOL, TranslativeTable, _cross_fitted,
                                _degree_tuples, _difference_terms,
                                _poly3d_values, _sample_boxes,
                                _translative_value,
                                _VertexEngine, _arc_ray_integral,
                                curvature_mixed_functional,
                                decompose_homogeneous, duality_check,
                                translative_integral_mc)
from mixvol.util import complete_basis, random_rotation


def test_curvature_square_diamond():
    assert curvature_mixed_functional([cube(2), diamond(2)], (1, 1)) == \
        pytest.approx(4.0, abs=1e-10)


def test_curvature_square_square():
    # parallel edge pairs drop out by the bracket; the four perpendicular
    # pairs each contribute 1/2
    assert curvature_mixed_functional([cube(2), cube(2)], (1, 1)) == \
        pytest.approx(2.0, abs=1e-10)


def test_curvature_segments():
    v = curvature_mixed_functional([segment(2, 0), segment(2, 1)], (1, 1))
    assert v == pytest.approx(1.0, abs=1e-10)


def test_curvature_swap_symmetry():
    K, L = cube(2), diamond(2)
    a = curvature_mixed_functional([K, L], (1, 1))
    b = curvature_mixed_functional([L, K], (1, 1))
    assert a == pytest.approx(b, abs=1e-10)


def test_curvature_homogeneity():
    K, L = cube(2), diamond(2)
    base = curvature_mixed_functional([K, L], (1, 1))
    scaled = curvature_mixed_functional(
        [K.transform(2.0 * np.eye(2)), L], (1, 1))
    assert scaled == pytest.approx(2.0 * base, abs=1e-9)


def test_curvature_3d_value_matches_duality():
    K, L = cube(3), diamond(3)
    lhs, rhs = duality_check(K, L, 1)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_curvature_degree_validation():
    with pytest.raises(InputError):
        curvature_mixed_functional([cube(2), diamond(2)], (1, 2))
    with pytest.raises(InputError):
        curvature_mixed_functional([cube(2), diamond(2)], (1, 0))
    with pytest.raises(InputError):
        curvature_mixed_functional([cube(3), diamond(3)], (1, 1))


def test_curvature_degenerate_tuples_drop_cleanly():
    # whenever normal picks can capture 0, they are linearly dependent, so
    # the span bracket vanishes and the tuple drops before quadrature; the
    # cube pair is full of such tuples yet V_{1,2} = 3 vol(cube) exactly
    v = curvature_mixed_functional([cube(3), cube(3)], (1, 2))
    assert v == pytest.approx(3.0, abs=1e-8)
    # cutoff variants: zero once eps exceeds every tuple distance (sqrt 1/2
    # here), the full value below it
    assert curvature_mixed_functional([cube(3), cube(3)], (1, 2), eps=0.8) \
        == pytest.approx(0.0, abs=1e-12)
    assert curvature_mixed_functional([cube(3), cube(3)], (1, 2), eps=0.5) \
        == pytest.approx(3.0, abs=1e-8)


def _arc_quadrature(arc, v, d, eps, arc_first=True):
    """Gauss-Legendre reference for _arc_ray_integral: kernel_values of
    G_r along the arc, split where the hull distance crosses eps (located
    on the kernel module's own hull distance)."""
    start, length, q = _arc_interval(arc)
    degrees = (d - 2, d - 1) if arc_first else (d - 1, d - 2)
    spec = KernelSpec(d, degrees, "r", epsilon=eps)

    def tuples(theta):
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1) @ q.T
        pair = (u, np.broadcast_to(v, u.shape))
        return np.stack(pair if arc_first else pair[::-1], axis=1)

    cuts = [start, start + length]
    if eps > 0.0:
        def gap(theta):
            return hull_distance_batch(tuples(np.atleast_1d(theta)))[0] - eps

        scan = np.linspace(start, start + length, 513)
        g = hull_distance_batch(tuples(scan)) - eps
        cuts[1:1] = [brentq(gap, a, b, xtol=1e-15)
                     for a, b, ga, gb in zip(scan, scan[1:], g, g[1:])
                     if ga * gb < 0.0]
    x, w = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        edges = np.linspace(a, b, 17)
        half = 0.5 * np.diff(edges)[:, None]
        theta = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
        total += float((half * w).ravel() @ kernel_values(spec, tuples(theta)))
    return total


def _arc_ray_pairs(K, L):
    """(arc cone, ray direction) for every arc face of K and ray face of L."""
    d = K.dim
    return [(f.normal_cone, v) for f in K.faces(d - 2) for g in L.faces(d - 1)
            for v in _ray_points(g.normal_cone)]


def _reaches_antipode(arc, v, margin=0.05):
    start, length, q = _arc_interval(arc)
    theta = np.linspace(start, start + length, 1025)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=1) @ q.T
    return np.min(1.0 + u @ v) < margin


@pytest.mark.parametrize("eps", [0.0, 0.2, 0.6, 0.9])
@pytest.mark.parametrize("case,K,L", [
    pytest.param(case, K, L, id=case) for case, K, L in (
        ("A=1", cube(3), cube(3)),
        ("full-circle", segment(3, 0), diamond(3)),
        ("crosses-pi", cube(3), diamond(3)))])
def test_arc_closed_form_matches_quadrature(case, K, L, eps):
    # each body pair must hold the configuration its case is named after;
    # at eps = 0 arcs that reach -v, where the integral diverges, are left out
    seen = False
    for arc, v in _arc_ray_pairs(K, L):
        if eps == 0.0 and _reaches_antipode(arc, v):
            continue
        _, length, q = _arc_interval(arc)
        proj = q @ (q.T @ v)
        a, w = float(np.linalg.norm(proj)), float(np.linalg.norm(v - proj))
        seen |= {"A=1": w <= 1e-12,
                 "full-circle": length == 2.0 * math.pi,
                 "crosses-pi": 0.0 < a < 1.0 and arc.contains(-proj / a)}[case]
        want = _arc_quadrature(arc, v, 3, eps)
        assert _arc_ray_integral(arc, v, eps) == pytest.approx(want, rel=1e-9, abs=1e-15)
    assert seen


def test_arc_closed_form_matches_quadrature_4d():
    # (2, 3) in R^4: an arc of a 2-face of the cube against a diamond facet
    # normal, in either body order; G is the same 1 / (omega_3 (1 + c))
    pairs = _arc_ray_pairs(cube(4), diamond(4))[::9]
    for i, (arc, v) in enumerate(pairs):
        if _reaches_antipode(arc, v):
            continue
        want = _arc_quadrature(arc, v, 4, 0.0, arc_first=i % 2 == 0)
        assert _arc_ray_integral(arc, v) == pytest.approx(want, rel=1e-9)
    want = curvature_mixed_functional([diamond(4), cube(4)], (3, 2))
    assert curvature_mixed_functional([cube(4), diamond(4)], (2, 3)) == \
        pytest.approx(want, rel=1e-12)


def test_curvature_scope_is_checked_before_faces(monkeypatch):
    # two arcs (d = 4, (2, 2)) and an arc with three bodies are out of scope
    def no_faces(self, j):
        raise AssertionError("face lattice built before the scope check")

    monkeypatch.setattr(Polytope, "faces", no_faces)
    for bodies, r in (([cube(4), diamond(4)], (2, 2)),
                      ([cube(4), diamond(4), cube(4)], (2, 3, 3)),
                      ([cube(4), diamond(4)], (1, 3))):
        with pytest.raises(InputError, match="one arc against one ray"):
            curvature_mixed_functional(bodies, r)


def test_infinite_arc_integral_raises_divergence(monkeypatch):
    # the full circle of the segment's normal cone holds -v for the cube
    # facets normal to y and z: with the bracket cut switched off those
    # tuples reach the arc integral, which is infinite there
    assert math.isinf(_arc_ray_integral(segment(3, 0).faces(1)[0].normal_cone,
                                        np.array([0.0, 1.0, 0.0])))
    monkeypatch.setattr(translative, "_BRACKET_TOL", -1.0)
    with pytest.raises(DivergenceError, match="infinite"):
        curvature_mixed_functional([segment(3, 0), cube(3)], (1, 2))


def test_curvature_matches_duality_on_rotated_cubes():
    # V_(n, 3-n)(K, L) = C(3, n) V(K[n], -L[3-n]); seed 1403036832 and
    # several of 1000.. raised EstimationError under adaptive arc quadrature
    K = simplex(3)
    for seed in [1403036832, *range(1000, 1039)]:
        L = rotated_cube(3, seed)
        oracle = oracle_mixed_volumes([K, L.negate()])
        for r in ((1, 2), (2, 1)):
            want = math.comb(3, r[0]) * oracle.value(r)
            assert curvature_mixed_functional([K, L], r) == \
                pytest.approx(want, rel=1e-10)


def test_curvature_survives_far_translation():
    K = rotated_cube(3, 5)
    far = K.translate((-1e6, 2e6, 1e6))
    assert {j: len(far.faces(j)) for j in range(3)} == {0: 8, 1: 12, 2: 6}
    want = curvature_mixed_functional([K, diamond(3)], (1, 2))
    assert curvature_mixed_functional([far, diamond(3)], (1, 2)) == \
        pytest.approx(want, rel=1e-9)


def test_duality_pairs():
    cases = [
        ((cube(2), diamond(2)), 4.0),
        ((cube(2), cube(2)), 2.0),
        ((segment(2, 0), segment(2, 1)), 1.0),
    ]
    for (K, L), want in cases:
        lhs, rhs = duality_check(K, L, 1)
        assert lhs == pytest.approx(want, abs=1e-8)
        assert abs(lhs - rhs) <= 1e-6


def test_translation_integral_j0_anchor():
    # the j = 0 pair integral is the difference-body volume, computed exactly
    est = translative_integral_mc([cube(2), diamond(2)], 0, rng=3,
                                  samples=60000)
    assert est.value == pytest.approx(7.0, rel=1e-12)
    assert est.std_error == 0.0 and est.samples == 60000


def test_translation_integral_j0_is_difference_body_volume():
    est = translative_integral_mc([cube(2), cube(2)], 0, rng=3,
                                  samples=40000)
    # Q - Q is the square [-1, 1]^2
    assert est.value == pytest.approx(4.0, rel=1e-12)
    assert est.std_error == 0.0


def test_translation_integral_j1_square_pair():
    # j = d - 1 is exact: V_1(Q) vol(Q) + vol(Q) V_1(Q) = 4
    est = translative_integral_mc([cube(2), cube(2)], 1, rng=5,
                                  samples=60000)
    assert est.value == pytest.approx(4.0, rel=1e-12)
    assert est.std_error == 0.0 and est.samples == 60000


def test_translation_integral_j1_square_diamond():
    # boundary-length term: integral = 2 sqrt(2) + 4
    est = translative_integral_mc([cube(2), diamond(2)], 1, rng=5,
                                  samples=60000)
    assert est.value == pytest.approx(2.0 * math.sqrt(2.0) + 4.0, rel=1e-12)
    assert est.std_error == 0.0


def test_translation_integral_three_bodies():
    # iterated pair sums: vol(Q + (-Q) + (-Q)) = 9 for unit squares
    est = translative_integral_mc([cube(2), cube(2), cube(2)], 0, rng=7,
                                  samples=30000)
    assert abs(est.value - 9.0) <= 3.0 * est.std_error


def test_translation_integral_3d_cube_pair():
    for j, want in ((0, 8.0), (1, 12.0)):
        est = translative_integral_mc([cube(3), cube(3)], j, rng=11,
                                      samples=3000 if j else 30000)
        assert abs(est.value - want) <= 3.0 * est.std_error + 1e-6, (j, est)
    est = translative_integral_mc([cube(3), cube(3)], 2, rng=11, samples=3000)
    assert est.value == pytest.approx(6.0, rel=1e-12)
    assert est.std_error == 0.0


def test_translative_validation():
    with pytest.raises(InputError):
        translative_integral_mc([cube(2)], 0, rng=0)
    with pytest.raises(InputError):
        translative_integral_mc([cube(2), diamond(2)], 2, rng=0)
    with pytest.raises(InputError):
        translative_integral_mc([cube(2), diamond(3)], 0, rng=0)
    # j = 0.5 once ran as j = 1
    with pytest.raises(InputError):
        translative_integral_mc([cube(3), diamond(3)], 0.5, rng=0, samples=200)
    with pytest.raises(InputError):
        decompose_homogeneous([cube(2), diamond(2)], 0, rng=0, samples=100,
                              lambdas=(1.0, -1.0, 2.0))
    # one factor gives one grid value for the three unknowns V_(3,1),
    # V_(2,2), V_(1,3); that 1x3 design has condition number 1 and would
    # pass the conditioning check
    with pytest.raises(InputError):
        decompose_homogeneous([cube(3), diamond(3)], 1, rng=0, samples=10,
                              lambdas=(1.0,))


def test_translative_seed_reproducible():
    a = translative_integral_mc([cube(3), diamond(3)], 1, rng=9,
                                samples=500)
    b = translative_integral_mc([cube(3), diamond(3)], 1, rng=9,
                                samples=500)
    assert a.std_error > 0.0
    assert a.value == b.value and a.std_error == b.std_error


def test_decompose_square_pair_j1():
    table = decompose_homogeneous([cube(2), cube(2)], 1, rng=13,
                                  samples=8000)
    assert set(table.entries) == {(1, 2), (2, 1)}
    assert table.route == "exact-decomposition"
    # V_{1,2}(Q,Q) = V_{2,1}(Q,Q) = 2 by the polarized perimeter formula
    for r in table.entries:
        assert table.value(r) == pytest.approx(2.0, rel=1e-12)
        assert table.std_error(r) == 0.0
    tot = table.total()
    assert tot.value == pytest.approx(4.0, rel=1e-12)
    assert tot.std_error == 0.0


def test_decompose_j0_recovers_volumes():
    table = decompose_homogeneous([cube(2), diamond(2)], 0, rng=17,
                                  samples=20000)
    # degree (2,0) and (0,2) entries are the plain volumes
    assert abs(table.value((2, 0)) - 1.0) <= 3.0 * table.std_error((2, 0)) \
        + 0.02
    assert abs(table.value((0, 2)) - 2.0) <= 3.0 * table.std_error((0, 2)) \
        + 0.02
    assert abs(table.value((1, 1)) - 4.0) <= 3.0 * table.std_error((1, 1)) \
        + 0.05


def test_decompose_matches_curvature_entry():
    # the diagonal-degree coefficient equals the cone-quadrature functional
    table = decompose_homogeneous([cube(2), diamond(2)], 0, rng=19,
                                  samples=20000)
    exact = curvature_mixed_functional([cube(2), diamond(2)], (1, 1))
    assert abs(table.value((1, 1)) - exact) <= \
        3.0 * table.std_error((1, 1)) + 0.05


def test_table_api():
    table = TranslativeTable(2, 1, {(1, 2): 2.0}, "test", {(1, 2): 0.1}, {})
    assert table.k == 2
    assert table.value((1, 2)) == 2.0
    assert table.std_error((1, 2)) == 0.1
    with pytest.raises(InputError):
        table.value((2, 2))


def test_duality_input_validation():
    with pytest.raises(InputError):
        duality_check(cube(2), diamond(2), 2)
    with pytest.raises(InputError):
        duality_check(cube(2), diamond(3), 1)


def test_translation_integral_lower_dimensional_body():
    # neither exact path needs an H-representation of a segment:
    # vol(Q + (-S)) = 2, and the decomposition splits it into vol(Q) = 1,
    # the mixed term 1 and vol(S) = 0; for j = 1 only vol(Q) V_1(S) = 1
    # survives
    K, S = cube(2), segment(2, 0)
    est = translative_integral_mc([K, S], 0, rng=23, samples=20000)
    assert abs(est.value - 2.0) <= 1e-6
    table = decompose_homogeneous([K, S], 0, rng=23, samples=4000)
    for r, want in (((2, 0), 1.0), ((1, 1), 1.0), ((0, 2), 0.0)):
        assert abs(table.value(r) - want) <= 1e-6, (r, table.entries)
    est = translative_integral_mc([K, S], 1, rng=23, samples=100)
    assert est.value == pytest.approx(1.0, rel=1e-12)
    assert est.std_error == 0.0


def _sampled_boundary_integral(bodies, rng, n):
    """(mean, std_error) of int V_{d-1}(K_1 cap (K_2 + z_2) cap ...) dz by
    uniform translations over the difference-body bounding boxes, with each
    intersection built by scipy's halfspace intersection and V_{d-1} taken
    as half its hull's boundary measure (the perimeter when d = 2)."""
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    d, k = bodies[0].dim, len(bodies)
    lo = np.concatenate([bodies[0].vertices.min(axis=0) - p.vertices.max(axis=0)
                         for p in bodies[1:]])
    hi = np.concatenate([bodies[0].vertices.max(axis=0) - p.vertices.min(axis=0)
                         for p in bodies[1:]])
    systems = [p.halfspaces() for p in bodies]
    A = np.vstack([a for a, _ in systems])
    # Chebyshev centre (x, t): maximise t subject to A x + |a_i| t <= b
    cheb = np.column_stack([A, np.linalg.norm(A, axis=1)])
    vals = np.zeros(n)
    for s in range(n):
        z = lo + rng.random(lo.size) * (hi - lo)
        shifts = [np.zeros(d)] + np.split(z, k - 1)
        b = np.concatenate([off + a @ t for (a, off), t in zip(systems, shifts)])
        lp = linprog(np.r_[np.zeros(d), -1.0], A_ub=cheb, b_ub=b,
                     bounds=[(None, None)] * d + [(0.0, None)])
        if lp.status != 0 or lp.x[-1] <= 1e-9:
            continue
        cut = HalfspaceIntersection(np.column_stack([A, -b]), lp.x[:d])
        vals[s] = ConvexHull(cut.intersections).area / 2.0
    box = float(np.prod(hi - lo))
    return box * vals.mean(), box * vals.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("bodies", [
    (cube(2), diamond(2)),
    (cube(2), diamond(2), rotated_cube(2, 3)),
    (cube(3), rotated_cube(3, 5)),
], ids=["Q2-D2", "Q2-D2-R-k3", "Q3-R"])
def test_boundary_integral_matches_independent_sampler(bodies):
    # the closed form sum_i V_{d-1}(K_i) prod_{l != i} vol K_l against a
    # sampler that shares no code with mixvol's, and the decomposition
    # total against the direct value
    d = bodies[0].dim
    est = translative_integral_mc(list(bodies), d - 1, rng=53, samples=10)
    assert est.std_error == 0.0
    mean, err = _sampled_boundary_integral(bodies, np.random.default_rng(59),
                                           1000 if d == 2 else 600)
    assert abs(mean - est.value) <= 5.0 * err, (mean, err, est.value)
    table = decompose_homogeneous(list(bodies), d - 1, rng=53, samples=10)
    assert table.route == "exact-decomposition"
    assert table.total().value == pytest.approx(est.value, rel=1e-12)
    assert table.total().std_error == 0.0
    assert all(table.std_error(r) == 0.0 for r in table.entries)


def _poly3d_value_loop(pts, planes_a, planes_b, frames, tol):
    """Per-sample reference valuation: (V_1, V_2) of one intersection
    polytope from its feasible candidate vertices and the stacked planes;
    each face ring's area is |a . sum_t p_t x p_{t+1}| / 2 about its mean."""
    key = np.round(pts / tol).astype(np.int64)
    _, first = np.unique(key, axis=0, return_index=True)
    pts = pts[np.sort(first)]
    if pts.shape[0] < 4:
        return 0.0, 0.0
    edges, area = {}, 0.0
    for i in range(planes_a.shape[0]):
        on = np.abs(pts @ planes_a[i] - planes_b[i]) <= tol
        if int(on.sum()) < 3:
            continue
        ring = pts[on]
        uv = (ring - ring.mean(axis=0)) @ frames[i]
        ring = ring[np.argsort(np.arctan2(uv[:, 1], uv[:, 0]))]
        arm = ring - ring.mean(axis=0)
        shoelace = np.cross(arm, np.roll(arm, -1, axis=0)).sum(axis=0)
        area += 0.5 * abs(planes_a[i] @ shoelace)
        rk = np.round(ring / tol).astype(np.int64)
        for a in range(ring.shape[0]):
            b = (a + 1) % ring.shape[0]
            kk = (tuple(rk[a]), tuple(rk[b]))
            kk = kk if kk[0] <= kk[1] else (kk[1], kk[0])
            length = float(np.linalg.norm(ring[b] - ring[a]))
            if length > tol:
                edges.setdefault(kk, []).append((i, length))
    v1 = 0.0
    for hits in edges.values():
        if len(hits) != 2:
            continue
        (ia, la), (ib, _) = hits
        cosang = float(np.clip(planes_a[ia] @ planes_a[ib], -1.0, 1.0))
        v1 += la * math.acos(cosang) / (2.0 * math.pi)
    return v1, 0.5 * area if v1 > 0.0 else 0.0


@pytest.mark.parametrize("other", ["diamond", "rotated", "cube"])
def test_batched_3d_valuation_matches_loop(other):
    K = cube(3)
    L = {"diamond": diamond(3), "rotated": rotated_cube(3, 5),
         "cube": cube(3)}[other]
    rng = np.random.default_rng(29)
    # translations on a half-integer grid put planes on top of each other,
    # touch faces (flat and empty intersections) and merge vertices
    grid = np.stack(np.meshgrid(*[np.arange(-2.0, 2.5, 0.5)] * 3,
                                indexing="ij"), axis=-1).reshape(-1, 3)
    for lams in ((1.0, 1.0), (1.5, 2.0), (2.0, 1.5)):
        engine = _VertexEngine([K, L]).scaled(lams)
        # the engine's in-plane frames are orthonormal and normal to their
        # rows; the loop below builds its own
        np.testing.assert_allclose(engine.frames.transpose(0, 2, 1) @ engine.frames,
                                   np.broadcast_to(np.eye(2), (engine.A.shape[0], 2, 2)),
                                   atol=1e-15)
        np.testing.assert_allclose(np.einsum("mi,mij->mj", engine.A, engine.frames),
                                   0.0, atol=1e-15)
        frames = [complete_basis(n.reshape(-1, 1)) for n in engine.A]
        lo, hi = _sample_boxes([lam * p.vertices for p, lam in zip((K, L), lams)])
        z = np.vstack([lo + rng.random((512, 3)) * (hi - lo), grid])
        x, feas, bz = engine.candidates(z)
        tol = 1e-7 * engine.scale
        # two edited copies of the fullest intersection: one cut down to 3
        # distinct vertices of one face (under 4 vertices gives 0), and one
        # whose first vertex is split into two points 0.1 tol apart on either
        # side of a rounding edge, so both survive the dedupe
        x = np.concatenate([x, np.zeros((x.shape[0], 1, 3))], axis=1)
        feas = np.concatenate([feas, np.zeros((x.shape[0], 1), dtype=bool)], axis=1)
        s = int(np.argmax(feas.sum(axis=1)))
        on = np.flatnonzero(feas[s] & (np.abs(x[s] @ engine.A[0] - bz[s, 0]) <= tol))
        _, first = np.unique(np.round(x[s, on] / tol), axis=0, return_index=True)
        assert first.size >= 3
        few = np.zeros_like(feas[s])
        few[on[np.sort(first)[:3]]] = True
        split_x = x[s].copy()
        split_feas = feas[s].copy()
        a = np.flatnonzero(feas[s])[0]
        cell = np.round(x[s, a] / tol)
        split_x[a] = (cell + [0.45, 0.0, 0.0]) * tol
        split_x[-1] = (cell + [0.55, 0.0, 0.0]) * tol
        split_feas[-1] = True
        x = np.concatenate([x, x[s][None], split_x[None]])
        feas = np.concatenate([feas, few[None], split_feas[None]])
        bz = np.concatenate([bz, bz[[s, s]]])
        got = _poly3d_values(x, feas, engine.A, bz, engine.frames, tol)
        want = np.array([_poly3d_value_loop(x[s][feas[s]], engine.A, bz[s],
                                            frames, tol)
                         for s in range(x.shape[0])]).T
        assert np.count_nonzero(want[0]) > 100 and not want[:, -2].any()
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.max(w))


@pytest.mark.parametrize("d,j", [(2, 0), (3, 0), (3, 1)])
def test_scaled_bodies_match_rehulled(d, j):
    # scaling vertices and facet offsets in place gives the translation
    # integral of the re-hulled scaled bodies
    bodies = [cube(d), rotated_cube(d, 5)]
    unit = np.random.default_rng(31).random((300 if d == 3 else 2000, d))
    lams = (1.5, 2.0)
    rehulled = [p.transform(lam * np.eye(d)) for p, lam in zip(bodies, lams)]
    if j == 0:
        # the closed form of vol(l_1 K - l_2 L), from the unscaled pair and
        # from the re-hulled scaled pair, against a hull of the scaled
        # pair's differences
        want = _hull_difference_volume(*rehulled)
        terms = _difference_terms(*bodies)
        got = sum(lams[0] ** (d - i) * lams[1] ** i * c for i, c in enumerate(terms))
        assert got == pytest.approx(want, rel=1e-12)
        assert sum(_difference_terms(*rehulled)) == pytest.approx(want, rel=1e-12)
        return
    got, got_draws = _translative_value(_VertexEngine(bodies), lams, j, unit)
    want, want_draws = _translative_value(_VertexEngine(rehulled), (1.0, 1.0),
                                          j, unit)
    assert got.value == pytest.approx(want.value, rel=1e-12)
    assert got.std_error == pytest.approx(want.std_error, rel=1e-12)
    np.testing.assert_allclose(got_draws, want_draws, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want_draws)))
    assert got.value == pytest.approx(np.mean(got_draws), rel=1e-12)


def _unscreened_draws(bodies, lams, j, unit):
    """Per-draw values of _translative_value with every draw sent through
    the vertex engine in one chunk, and for j = 1 the box volume times V_2
    of each draw's intersection."""
    engine = _VertexEngine(bodies).scaled(lams)
    lo, hi = _sample_boxes([lam * p.vertices for p, lam in zip(bodies, lams)])
    x, feas, bz = engine.candidates(lo + unit * (hi - lo))
    box = float(np.prod(hi - lo))
    if j == 0:
        return box * feas.any(axis=1), None
    vals, area = _poly3d_values(x, feas, engine.A, bz, engine.frames,
                                1e-7 * engine.scale)
    return _cross_fitted(box * vals, box * area, engine.control_mean), box * area


@pytest.mark.parametrize("bodies,j", [
    ((cube(2), diamond(2)), 0),
    ((simplex(2), rotated_cube(2, 3)), 0),
    ((cube(2), diamond(2), rotated_cube(2, 4)), 0),
    ((cube(3), diamond(3)), 1),
    ((cube(3), rotated_cube(3, 5)), 1),
], ids=["Q2-D2", "S2-R", "Q2-D2-R-k3", "Q3-D3", "Q3-R"])
def test_screened_draws_match_engine(bodies, j):
    # the difference-body screen only skips draws the engine values at 0
    d, k = bodies[0].dim, len(bodies)
    unit = np.random.default_rng(37).random((300 if d == 3 else 3000,
                                             (k - 1) * d))
    for lams in ([1.0] * k, [2.0] + [1.5] * (k - 1)):
        got = _translative_value(_VertexEngine(bodies), lams, j, unit)[1]
        want = _unscreened_draws(bodies, lams, j, unit)[0]
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


# (vol, V_2) of the generator bodies: V_2 is half the surface area, and
# diamond(3) has 8 equilateral faces of side sqrt(2)
_VOL_V2 = {"cube": (1.0, 3.0), "diamond": (4.0 / 3.0, 2.0 * math.sqrt(3.0)),
           "rotated": (1.0, 3.0)}


@pytest.mark.parametrize("names,lams,n", [
    (("cube", "diamond"), (1.0, 1.0), 4000),
    (("cube", "rotated"), (1.0, 1.0), 4000),
    (("cube", "diamond"), (1.0, 1.5), 4000),
    (("cube", "diamond", "rotated"), (1.0, 1.0, 1.0), 6000),
], ids=["Q3-D3", "Q3-R", "Q3-D3-ratio", "Q3-D3-R-k3"])
def test_control_draws_average_to_known_mean(names, lams, n):
    # the j = 1 control, box volume times V_2 per draw, averages to
    # sum_i l_i^2 V_2(K_i) prod_{l != i} l_l^3 vol K_l within 5 sigma, and
    # the engine's known mean equals that sum
    make = {"cube": lambda: cube(3), "diamond": lambda: diamond(3),
            "rotated": lambda: rotated_cube(3, 5)}
    bodies = [make[name]() for name in names]
    want = sum(lams[i] ** 2 * _VOL_V2[name][1]
               * math.prod(lams[l] ** 3 * _VOL_V2[other][0]
                           for l, other in enumerate(names) if l != i)
               for i, name in enumerate(names))
    engine = _VertexEngine(bodies).scaled(lams)
    assert engine.control_mean == pytest.approx(want, rel=1e-12)
    unit = np.random.default_rng(61).random((n, 3 * (len(bodies) - 1)))
    control = np.concatenate([_unscreened_draws(bodies, lams, 1, unit[s:s + 500])[1]
                              for s in range(0, n, 500)])
    assert np.count_nonzero(control) > n // 10
    err = control.std(ddof=1) / math.sqrt(n)
    assert abs(control.mean() - want) <= 5.0 * err, (control.mean(), err, want)


def _near_boundary(K, L, lams, rng, n):
    """Translations z_2 on random boundary points of l_1 K - l_2 L, each
    moved along the facet normal by up to 10 screen margins either way,
    with the signed distance of the move."""
    body = Polytope.hull((lams[0] * K.vertices[:, None]
                          - lams[1] * L.vertices[None]).reshape(-1, K.dim))
    margin = _SCREEN_TOL * _VertexEngine([K, L]).scaled(lams).scale
    facets = rng.integers(len(body.facets), size=n)
    z = np.empty((n, K.dim))
    for i, f in enumerate(facets):
        ids = list(body.facets[f][2])
        w = rng.dirichlet(np.full(len(ids), 0.3))
        z[i] = w @ body.vertices[ids]
    shift = rng.uniform(-10.0, 10.0, n) * margin
    normals = np.array([body.facets[f][0] for f in facets])
    return z + shift[:, None] * normals, shift, margin


@pytest.mark.parametrize("d", [2, 3])
def test_screen_drops_only_empty_draws(d):
    # a dropped draw has no feasible candidate vertex, on random draws over
    # the sampling box and on draws within 10 margins of the difference
    # body's boundary, on both sides of it
    rng = np.random.default_rng(41)
    gens = [cube(d), diamond(d), simplex(d), rotated_cube(d, 6),
            rotated_cube(d, 7)]
    dropped = 0
    for K, L in itertools.permutations(gens, 2):
        for lams in ((1.0, 1.0), (1.5, 2.0), (2.0, 1.0)):
            engine = _VertexEngine([K, L]).scaled(lams)
            lo, hi = _sample_boxes([lam * p.vertices
                                    for p, lam in zip((K, L), lams)])
            near, shift, margin = _near_boundary(K, L, lams, rng, 200)
            z = np.vstack([lo + rng.random((200, d)) * (hi - lo), near])
            live = engine.may_meet(z)
            feas = engine.candidates(z)[1].any(axis=1)
            assert not np.any(feas & ~live)
            # no draw inside the body or within the margin outside it drops
            assert np.all(live[200:][shift <= 0.99 * margin])
            dropped += int(np.count_nonzero(~live))
    assert dropped > 1000


def test_screen_three_bodies():
    # each pair's screen is a necessary condition, so k = 3 drops stay empty
    bodies = [cube(3), diamond(3), rotated_cube(3, 8)]
    engine = _VertexEngine(bodies)
    rng = np.random.default_rng(43)
    for lams in ((1.0, 1.0, 1.0), (2.0, 1.5, 1.0)):
        placed = engine.scaled(lams)
        lo, hi = _sample_boxes([lam * p.vertices for p, lam in zip(bodies, lams)])
        z = lo + rng.random((400, 6)) * (hi - lo)
        live = placed.may_meet(z)
        assert 0 < np.count_nonzero(~live) < z.shape[0]
        assert not np.any(placed.candidates(z)[1].any(axis=1) & ~live)


def _closed_form_bodies(d):
    """Generator bodies, two segments, two seeded random point-cloud hulls
    and, in R^3, a turned and shifted flat square."""
    rng = np.random.default_rng(60 + d)
    turn = random_rotation(d, rng)
    bodies = [cube(d), diamond(d), simplex(d), rotated_cube(d, 5), segment(d, 0),
              segment(d, 1).transform(turn),
              Polytope.hull(rng.standard_normal((8, d)), name=f"cloud{d}a"),
              Polytope.hull(rng.uniform(-1.0, 2.0, (7 if d == 3 else 10, d)),
                            name=f"cloud{d}b")]
    if d == 3:
        square = np.c_[cube(2).vertices, np.zeros(4)] @ turn.T + [0.3, -0.2, 0.5]
        bodies.append(Polytope.hull(square, name="square3", allow_degenerate=True))
    return bodies


@pytest.mark.parametrize("K,L", [
    pytest.param(cube(2), rotated_cube(2, 41), id="Q2-R"),
    pytest.param(simplex(2), rotated_cube(2, 42), id="S2-R"),
    pytest.param(diamond(2), simplex(2).transform(
        random_rotation(2, np.random.default_rng(43))), id="D2-rotS"),
    pytest.param(cube(3), rotated_cube(3, 44), id="Q3-R"),
    pytest.param(diamond(3), rotated_cube(3, 45), id="D3-R"),
    # the curvature route once raised EstimationError on this pair
    pytest.param(simplex(3), rotated_cube(3, 1403036832), id="S3-R1403036832"),
    # segments, random clouds and a flat square
    *[pytest.param(K, L, id=f"{K.name}-{L.name}") for d in (2, 3)
      for K, L in itertools.combinations(_closed_form_bodies(d)[4:], 2)],
])
def test_exact_j0_decomposition_matches_oracle(K, L):
    # V_(r, d-r)(K, L) = C(d, r) V(K[r], -L[d-r]); the entries are the
    # coefficients of vol(K - rho L), so they are exact
    d = K.dim
    table = decompose_homogeneous([K, L], 0, rng=7, samples=50)
    oracle = oracle_mixed_volumes([K, L.negate()])
    assert set(table.entries) == {(r, d - r) for r in range(d + 1)}
    for r in range(d + 1):
        want = math.comb(d, r) * oracle.value((r, d - r))
        assert table.value((r, d - r)) == pytest.approx(want, rel=1e-10)
        assert table.std_error((r, d - r)) == 0.0
    assert table.total().std_error == 0.0


def test_exact_j0_decomposition_matches_curvature():
    # a pair on which the curvature route's arc integral once failed
    K, L = simplex(3), rotated_cube(3, 1403036832)
    table = decompose_homogeneous([K, L], 0, rng=7, samples=50)
    assert table.value((1, 2)) == pytest.approx(3.3710258671, rel=1e-9)
    assert curvature_mixed_functional([K, L], (1, 2)) == \
        pytest.approx(table.value((1, 2)), rel=1e-12)


def _hull_difference_volume(K, L, rho=1.0):
    """vol(K - rho L) from a hull of the pairwise vertex differences."""
    diffs = (K.vertices[:, None] - rho * L.vertices[None]).reshape(-1, K.dim)
    return Polytope.hull(diffs, allow_degenerate=True).volume()


def _scipy_difference_volume(K, L, rho):
    """vol(K - rho L) from scipy's Qhull; 0 for a flat difference body."""
    from scipy.spatial import ConvexHull

    diffs = (K.vertices[:, None] - rho * L.vertices[None]).reshape(-1, K.dim)
    if np.linalg.matrix_rank(diffs - diffs.mean(axis=0), tol=1e-9) < K.dim:
        return 0.0
    return ConvexHull(diffs).volume


@pytest.mark.parametrize("d", [2, 3])
def test_difference_terms_match_hulls(d):
    # sum_i c_i rho^i against two independent hulls of the differences
    bodies = _closed_form_bodies(d)
    for K, L in itertools.product(bodies, repeat=2):
        terms = _difference_terms(K, L)
        assert len(terms) == d + 1
        for rho in (0.5, 1.0, 1.5):
            got = sum(c * rho ** i for i, c in enumerate(terms))
            for want in (_hull_difference_volume(K, L, rho),
                         _scipy_difference_volume(K, L, rho)):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), \
                    (K.name, L.name, rho)


@pytest.mark.parametrize("shift", [1e4, 1e6])
def test_exact_integrals_survive_far_translation(shift):
    # neither exact path builds the face lattice of the translated body
    K, L = rotated_cube(3, 5), diamond(3)
    far = K.translate((-shift, 2.0 * shift, shift))
    for j in (0, 2):
        want = translative_integral_mc([K, L], j, rng=1, samples=10).value
        for bodies in ([far, L], [L, far]):
            got = translative_integral_mc(bodies, j, rng=1, samples=10)
            assert got.value == pytest.approx(want, rel=1e-10)
            assert got.std_error == 0.0
    table = decompose_homogeneous([far, L], 0, rng=1, samples=10)
    for r, want in decompose_homogeneous([K, L], 0, rng=1, samples=10).entries.items():
        assert table.value(r) == pytest.approx(want, rel=1e-10)


def _fit_inputs(bodies, j, seed, samples, lambdas=(1.0, 1.5, 2.0)):
    """Design matrix, grid estimates and per-draw grid values of one
    decompose_homogeneous call, rebuilt from the same draws with one vertex
    engine per grid combination: the draws at (l_1, .., l_k) are
    l_1^{(k-1)d+j} times those at (1, l_2/l_1, .., l_k/l_1)."""
    d, k = bodies[0].dim, len(bodies)
    r_list = _degree_tuples(d, k, j)
    combos = list(itertools.product(lambdas, repeat=k))
    design = np.array([[math.prod(lam ** ri for lam, ri in zip(c, r))
                        for r in r_list] for c in combos])
    unit = np.random.default_rng(seed).random((samples, (k - 1) * d))
    grid = []
    for lam1, *rest in combos:
        est, draws = _translative_value(_VertexEngine(bodies),
                                        (1.0, *[lam / lam1 for lam in rest]), j, unit)
        scale = lam1 ** ((k - 1) * d + j)
        grid.append((est.scaled(scale), scale * draws))
    return r_list, design, grid


@pytest.mark.parametrize("d,samples,runs", [(3, 100, 50)])
def test_per_draw_errors_are_calibrated(d, samples, runs):
    # a fixed batch of seeded cube/diamond decompositions at j = 1, sized to
    # take a few seconds: z-scores of the entries and totals against exact
    # values have unit spread, and the per-draw errors sit below the
    # conservative |pinv| sigma bound
    K, L = cube(d), diamond(d)
    # V_(3,1) = vol(K) V_1(L) and V_(1,3) = V_1(K) vol(L), with vol(K) = 1,
    # V_1(K) = 3, vol(L) = 4 / 3 and V_1(L) the edge-length sum weighted by
    # exterior angles; the middle entry comes from the curvature route
    v1_diamond = 12.0 * math.sqrt(2.0) * (math.pi - math.acos(-1.0 / 3.0)) \
        / (2.0 * math.pi)
    ref = {(3, 1): v1_diamond, (1, 3): 4.0,
           (2, 2): curvature_mixed_functional([K, L], (2, 2))}
    zs = []
    for seed in range(runs):
        table = decompose_homogeneous([K, L], 1, rng=seed, samples=samples)
        zs += [(table.value(r) - v) / table.std_error(r) for r, v in ref.items()]
        tot = table.total()
        zs.append((tot.value - sum(ref.values())) / tot.std_error)
        if seed >= 5:
            continue
        r_list, design, grid = _fit_inputs([K, L], 1, seed, samples)
        coef, *_ = np.linalg.lstsq(design, [est.value for est, _ in grid],
                                   rcond=None)
        old = np.abs(np.linalg.pinv(design)) @ [est.std_error for est, _ in grid]
        for r, c, bound in zip(r_list, coef, old):
            assert table.value(r) == pytest.approx(c, rel=1e-12)
            assert table.std_error(r) <= bound * (1.0 + 1e-12)
        assert tot.std_error <= old.sum()
    zs = np.array(zs)
    assert 0.85 <= zs.std() <= 1.15, zs.std()
    assert np.max(np.abs(zs)) <= 5.0


def test_cross_fitted_draws_carry_their_beta_error():
    # each half is controlled with the other half's beta, and each fitting
    # draw carries n_other * its residual * the sensitivity of the other
    # half's mean to its y (exact for unit steps: that mean is linear in y)
    rng = np.random.default_rng(67)
    c = rng.exponential(size=41)
    y = np.sqrt(c) + 0.1 * rng.standard_normal(41)
    out = _cross_fitted(y, c, 1.0)
    halves = (slice(0, None, 2), slice(1, None, 2))

    def beta(h):
        dc = c[h] - c[h].mean()
        return dc @ (y[h] - y[h].mean()) / (dc @ dc)

    for fit, use in zip(halves, halves[::-1]):
        resid = y[fit] - y[fit].mean() - beta(fit) * (c[fit] - c[fit].mean())
        share = out[fit] - (y[fit] - beta(use) * (c[fit] - 1.0))
        sens = []
        for i in np.arange(41)[fit]:
            bumped = y.copy()
            bumped[i] += 1.0
            sens.append(_cross_fitted(bumped, c, 1.0)[use].mean() - out[use].mean())
        np.testing.assert_allclose(share, c[use].size * np.array(sens) * resid,
                                   rtol=1e-9, atol=1e-12)
        assert abs(share.sum()) <= 1e-12
    # one draw, or a control constant up to rounding, fits no beta
    assert np.array_equal(_cross_fitted(y[:1], c[:1], 1.0), y[:1])
    ulps = 0.1 + 1e-17 * np.arange(10)
    assert np.unique(ulps).size > 1
    assert np.array_equal(_cross_fitted(y[:10], ulps, 1.0), y[:10])


def test_controlled_estimates_are_calibrated():
    # z-scores of 100-draw j = 1 integrals against exact totals on the two
    # pairs the j = 1 control is measured on: unit spread and no heavy tail
    # with beta fitted on the other half of the draws
    K = cube(3)
    v1_diamond = 12.0 * math.sqrt(2.0) * (math.pi - math.acos(-1.0 / 3.0)) \
        / (2.0 * math.pi)
    zs = []
    for L, v1_l, vol_l in ((diamond(3), v1_diamond, 4.0 / 3.0),
                           (rotated_cube(3, 5), 3.0, 1.0)):
        # V_(3,1) + V_(1,3) + V_(2,2), with vol K = 1 and V_1(K) = 3
        want = v1_l + 3.0 * vol_l + curvature_mixed_functional([K, L], (2, 2))
        for seed in range(60):
            est = translative_integral_mc([K, L], 1, rng=seed, samples=100)
            zs.append((est.value - want) / est.std_error)
    zs = np.array(zs)
    assert 0.85 <= zs.std() <= 1.15, zs.std()
    assert np.max(np.abs(zs)) <= 5.0


def test_one_draw_errors_are_infinite():
    table = decompose_homogeneous([cube(3), diamond(3)], 1, rng=1, samples=1)
    assert all(math.isinf(table.std_error(r)) for r in table.entries)
    assert math.isinf(table.total().std_error)
    est = translative_integral_mc([cube(3), diamond(3)], 1, rng=1, samples=1)
    assert math.isinf(est.std_error)
    exact = decompose_homogeneous([cube(2), diamond(2)], 0, rng=1, samples=1)
    assert all(exact.std_error(r) == 0.0 for r in exact.entries)


@pytest.mark.parametrize("bodies,j,evaluations", [
    ((cube(3), diamond(3)), 1, 7),
    ((cube(2), diamond(2), rotated_cube(2, 9)), 0, 25),
], ids=["Q3-D3", "Q2-D2-R-k3"])
def test_one_engine_per_decomposition(monkeypatch, bodies, j, evaluations):
    # one vertex engine serves the whole grid, and it is evaluated once per
    # ratio tuple (l_2/l_1, .., l_k/l_1): 7 times for the 9 combinations of
    # a pair, 25 times for the 27 of three bodies; the entries equal those
    # of one engine per combination, and those of a fit that evaluates every
    # combination directly up to the absolute box margin of _sample_boxes
    r_list, design, grid = _fit_inputs(list(bodies), j, 47, 150)
    coef, *_ = np.linalg.lstsq(design, [est.value for est, _ in grid],
                               rcond=None)
    k, d = len(bodies), bodies[0].dim
    unit = np.random.default_rng(47).random((150, (k - 1) * d))
    direct = [_translative_value(_VertexEngine(list(bodies)), c, j, unit)[0].value
              for c in itertools.product((1.0, 1.5, 2.0), repeat=k)]
    direct, *_ = np.linalg.lstsq(design, direct, rcond=None)
    built, evaluated = [], []

    class Counted(_VertexEngine):
        def __init__(self, polytopes):
            built.append(len(polytopes))
            super().__init__(polytopes)

    def counted(*args):
        evaluated.append(args[1])
        return _translative_value(*args)

    monkeypatch.setattr(translative, "_VertexEngine", Counted)
    monkeypatch.setattr(translative, "_translative_value", counted)
    table = decompose_homogeneous(list(bodies), j, rng=47, samples=150)
    assert built == [len(bodies)]
    assert len(evaluated) == evaluations
    assert all(lams[0] == 1.0 for lams in evaluated)
    for r, c, e in zip(r_list, coef, direct):
        assert table.value(r) == pytest.approx(c, rel=1e-12, abs=1e-12)
        assert table.value(r) == pytest.approx(e, rel=1e-6, abs=1e-6)


def test_exact_j0_builds_no_hull_or_lattice(monkeypatch):
    # the closed form reads facets, volumes and vertices only
    def no_hull(*args, **kwargs):
        raise AssertionError("Polytope.hull called")

    pairs = [(cube(2), rotated_cube(2, 3)), (simplex(3), diamond(3)),
             (rotated_cube(3, 5), segment(3, 1))]
    monkeypatch.setattr(Polytope, "hull", staticmethod(no_hull))
    for K, L in pairs:
        est = translative_integral_mc([K, L], 0, rng=3, samples=10)
        table = decompose_homogeneous([K, L], 0, rng=3, samples=10)
        assert est.std_error == 0.0 and table.route == "exact-decomposition"
        assert table.total().value == est.value
        assert K._lattice is None and L._lattice is None
