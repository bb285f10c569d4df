"""Translative integrals: cone-quadrature functionals, the closed-form
translation integral and its decomposition, and an independent sampler of
the translation integral to check them against.

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
from mixvol.translative import (TranslativeTable, _arc_ray_integral,
                                _degree_tuples, _difference_terms, _entries,
                                curvature_mixed_functional,
                                decompose_homogeneous, duality_check,
                                translative_integral_mc)
from mixvol.util import random_rotation


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
    # iterated pair sums: vol(Q + (-Q) + (-Q)) = 9 for unit squares, and
    # 27 for unit cubes, of which the facet-triple entry V_(2,2,2) is 6
    est = translative_integral_mc([cube(2), cube(2), cube(2)], 0, rng=7,
                                  samples=30000)
    assert est.value == pytest.approx(9.0, rel=1e-12)
    assert est.std_error == 0.0
    table = decompose_homogeneous([cube(3)] * 3, 0, rng=7, samples=10)
    assert table.total().value == pytest.approx(27.0, rel=1e-12)
    assert table.value((2, 2, 2)) == pytest.approx(6.0, rel=1e-12)


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
    # the integral is exact: nothing is drawn from a shared generator, and
    # the seed does not change the result
    for call in (translative_integral_mc, decompose_homogeneous):
        shared, twin = np.random.default_rng(9), np.random.default_rng(9)
        a = call([cube(3), diamond(3), simplex(3)], 1, rng=shared, samples=500)
        b = call([cube(3), diamond(3), simplex(3)], 1, rng=4, samples=500)
        assert shared.random() == twin.random()
        assert a == b


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
    # in R^3 at j = 1 (once InputError, for want of an H-representation):
    # the unit segment gives V_1(S) vol(D) = 4/3; the unit square gives
    # V_1 = 2 (half its perimeter) times vol(D) = 4/3, plus V_(2,2) over
    # its two normals +-n, which is 2 sqrt(2) by the curvature route too
    D = diamond(3)
    square = Polytope.hull(np.c_[cube(2).vertices, np.zeros(4)],
                           allow_degenerate=True)
    for body, v1, v22 in ((segment(3, 0), 1.0, 0.0),
                          (square, 2.0, 2.0 * math.sqrt(2.0))):
        want = {(3, 1): 0.0, (2, 2): v22, (1, 3): v1 * 4.0 / 3.0}
        assert curvature_mixed_functional([body, D], (2, 2)) == \
            pytest.approx(v22, rel=1e-12, abs=1e-15)
        est = translative_integral_mc([body, D], 1, rng=23, samples=100)
        assert est.value == pytest.approx(sum(want.values()), rel=1e-12)
        assert est.std_error == 0.0
        table = decompose_homogeneous([body, D], 1, rng=23, samples=100)
        assert set(table.entries) == set(want)
        for r, v in want.items():
            assert table.value(r) == pytest.approx(v, rel=1e-12, abs=1e-15), r
    assert est.value == pytest.approx(8.0 / 3.0 + 2.0 * math.sqrt(2.0), rel=1e-12)


def _hull_v1(hull):
    """V_1 of a 3-D scipy ConvexHull: over pairs of neighbouring triangles,
    the shared edge's length times the angle between their outer normals,
    over 2 pi; coplanar pairs add 0."""
    normals = hull.equations[:, :-1]
    total = 0.0
    for s, neighbours in enumerate(hull.neighbors):
        for t in neighbours[neighbours > s]:
            a, b = np.intersect1d(hull.simplices[s], hull.simplices[t])
            angle = math.acos(float(np.clip(normals[s] @ normals[t], -1.0, 1.0)))
            total += float(np.linalg.norm(hull.points[a] - hull.points[b])) * angle
    return total / (2.0 * math.pi)


def _sampled_integral(bodies, j, rng, n):
    """(mean, std_error) of int V_j(K_1 cap (K_2 + z_2) cap ...) dz by
    uniform translations over the difference-body bounding boxes, with each
    intersection built by scipy's halfspace intersection.  Lower-dimensional
    intersections (measure 0) count 0; otherwise V_0 is 1, V_{d-1} half the
    hull's boundary measure (the perimeter when d = 2), and V_1 in R^3
    _hull_v1."""
    from scipy.optimize import linprog
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    d, k = bodies[0].dim, len(bodies)
    lo = np.concatenate([bodies[0].vertices.min(axis=0) - p.vertices.max(axis=0)
                         for p in bodies[1:]])
    hi = np.concatenate([bodies[0].vertices.max(axis=0) - p.vertices.min(axis=0)
                         for p in bodies[1:]])
    # each body as {x : A x <= b}, from its facets
    systems = [(np.array([f[0] for f in p.facets]), np.array([f[1] for f in p.facets]))
               for p in bodies]
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
        if j == 0:
            vals[s] = 1.0
            continue
        hull = ConvexHull(HalfspaceIntersection(np.column_stack([A, -b]),
                                                lp.x[:d]).intersections)
        vals[s] = hull.area / 2.0 if j == d - 1 else _hull_v1(hull)
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
    mean, err = _sampled_integral(bodies, d - 1, np.random.default_rng(59),
                                  1000 if d == 2 else 600)
    assert abs(mean - est.value) <= 5.0 * err, (mean, err, est.value)
    table = decompose_homogeneous(list(bodies), d - 1, rng=53, samples=10)
    assert table.route == "exact-decomposition"
    assert table.total().value == pytest.approx(est.value, rel=1e-12)
    assert table.total().std_error == 0.0
    assert all(table.std_error(r) == 0.0 for r in table.entries)


@pytest.mark.parametrize("bodies,j", [
    ((cube(3), diamond(3)), 1),
    ((cube(3), rotated_cube(3, 5)), 1),
    ((cube(2), diamond(2), rotated_cube(2, 5)), 0),
    ((cube(3), diamond(3), rotated_cube(3, 5)), 0),
    ((cube(3), diamond(3), rotated_cube(3, 5)), 1),
], ids=["Q3-D3-j1", "Q3-R-j1", "Q2-D2-R-k3-j0", "Q3-D3-R-k3-j0", "Q3-D3-R-k3-j1"])
def test_translation_integral_matches_independent_sampler(bodies, j):
    # the cores below j = d - 1 (V_1 of one body, the facet-pair sum at
    # j = 1, the difference-body coefficients and the facet-triple sum at
    # j = 0) against a sampler that shares no code with mixvol's
    d = bodies[0].dim
    est = translative_integral_mc(list(bodies), j, rng=53, samples=10)
    table = decompose_homogeneous(list(bodies), j, rng=53, samples=10)
    assert est.std_error == 0.0 and table.route == "exact-decomposition"
    assert table.total().value == pytest.approx(est.value, rel=1e-12)
    mean, err = _sampled_integral(bodies, j, np.random.default_rng(59),
                                  1000 if d == 2 else 600)
    assert abs(mean - est.value) <= 5.0 * err, (mean, err, est.value)


@pytest.mark.parametrize("d,j", [(2, 0), (3, 0), (3, 1)])
def test_scaled_bodies_match_rehulled(d, j):
    # V_r is homogeneous of degree r_i in K_i: the entries of the re-hulled
    # scaled bodies are prod_i lambda_i^{r_i} times those of the bodies
    bodies = [cube(d), rotated_cube(d, 5)]
    lams = (1.5, 2.0)
    # hulled from the scaled vertices: transform would carry the hull over
    rehulled = [Polytope.hull(p.vertices * lam) for p, lam in zip(bodies, lams)]
    scaled = _entries(rehulled, j)
    for r, v in _entries(bodies, j).items():
        assert scaled[r] == pytest.approx(lams[0] ** r[0] * lams[1] ** r[1] * v,
                                          rel=1e-12)
    if j == 0:
        # the closed form of vol(l_1 K - l_2 L), from the unscaled pair and
        # from the re-hulled scaled pair, against a hull of the scaled
        # pair's differences
        want = _hull_difference_volume(*rehulled)
        terms = _difference_terms(*bodies)
        got = sum(lams[0] ** (d - i) * lams[1] ** i * c for i, c in enumerate(terms))
        assert got == pytest.approx(want, rel=1e-12)
        assert sum(_difference_terms(*rehulled)) == pytest.approx(want, rel=1e-12)


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
    # the j = 0 and j = 2 cores build no face lattice of the translated
    # body; the j = 1 core takes V_1 from it
    K, L = rotated_cube(3, 5), diamond(3)
    far = K.translate((-shift, 2.0 * shift, shift))
    for j in (0, 1, 2):
        want = translative_integral_mc([K, L], j, rng=1, samples=10).value
        for bodies in ([far, L], [L, far]):
            got = translative_integral_mc(bodies, j, rng=1, samples=10)
            assert got.value == pytest.approx(want, rel=1e-10)
            assert got.std_error == 0.0
    table = decompose_homogeneous([far, L], 0, rng=1, samples=10)
    for r, want in decompose_homogeneous([K, L], 0, rng=1, samples=10).entries.items():
        assert table.value(r) == pytest.approx(want, rel=1e-10)


def test_exact_j0_builds_no_hull_or_lattice(monkeypatch):
    # the closed form reads facets, volumes and vertices only
    def no_hull(*args, **kwargs):
        raise AssertionError("Polytope.hull called")

    tuples = [(cube(2), rotated_cube(2, 3)), (simplex(3), diamond(3)),
              (rotated_cube(3, 5), segment(3, 1)),
              (cube(3), diamond(3), simplex(3))]
    monkeypatch.setattr(Polytope, "hull", staticmethod(no_hull))
    for bodies in tuples:
        est = translative_integral_mc(list(bodies), 0, rng=3, samples=10)
        table = decompose_homogeneous(list(bodies), 0, rng=3, samples=10)
        assert est.std_error == 0.0 and table.route == "exact-decomposition"
        assert table.total().value == est.value
        assert all(p._faces is None and p._lattice is None for p in bodies)


_GENS3 = (cube(3), simplex(3), diamond(3))


@pytest.mark.parametrize("bodies", [
    *[pytest.param(pair, id=f"{pair[0].name}-{pair[1].name}")
      for pair in itertools.product(_GENS3, repeat=2)],
    *[pytest.param((simplex(3), rotated_cube(3, s)), id=f"simplex3-R{s}")
      for s in (1000, 1001, 1403036832)],
    pytest.param((cube(2), diamond(2)), id="cube2-diamond2"),
    pytest.param(_GENS3, id="k3"),
    pytest.param((simplex(3), rotated_cube(3, 5), diamond(3)), id="k3-rotated"),
    # orders that expose a three-ray kernel depending on body order
    pytest.param((cube(3), simplex(3), rotated_cube(3, 7)), id="k3-R7"),
    pytest.param((diamond(3), simplex(3), rotated_cube(3, 5)), id="k3-R5"),
])
def test_entries_match_curvature(bodies):
    # every entry with all r_i in 1..d-1 is also a curvature-route value,
    # from the normal-bundle kernel instead of face-tuple angles; cube and
    # simplex have antiparallel facets, where u_F.u_G = -1 + ulp.  For
    # three rays both routes take the solid angle of the normals' cone
    d = bodies[0].dim
    seen = 0
    for j in range(d):
        for r, v in _entries(list(bodies), j).items():
            if all(1 <= ri <= d - 1 for ri in r):
                want = curvature_mixed_functional(list(bodies), r)
                assert v == pytest.approx(want, rel=1e-12), (j, r)
                seen += 1
    assert seen == {2: 1, 3: 1 if len(bodies) == 3 else 3}[d]


def test_each_core_once_per_call(monkeypatch):
    # three bodies in R^3 at j = 0 have 10 entries on 7 cores: V_0 of each
    # body, the difference-body coefficients of each pair (two entries
    # each) and the facet-triple sum
    calls = []
    cores = translative._cores
    monkeypatch.setattr(translative, "_cores",
                        lambda bodies, j: calls.append(len(bodies)) or cores(bodies, j))
    assert len(_entries(list(_GENS3), 0)) == 10
    assert sorted(calls) == [1, 1, 1, 2, 2, 2, 3]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_input_is_exact(d):
    # every d <= 3 input is in closed form, also with a single draw
    gens = [cube(d), diamond(d), simplex(d)]
    for k, j in itertools.product((2, 3), range(d)):
        bodies = gens[:k]
        est = translative_integral_mc(bodies, j, rng=1, samples=1)
        table = decompose_homogeneous(bodies, j, rng=1, samples=1)
        assert est.std_error == 0.0 and table.route == "exact-decomposition"
        assert set(table.entries) == set(_degree_tuples(d, k, j))
        assert all(table.std_error(r) == 0.0 for r in table.entries)
        assert table.total().std_error == 0.0
        assert table.total().value == pytest.approx(est.value, rel=1e-12)
