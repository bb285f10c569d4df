"""Mixed volumes by all four routes, cross-checked on small bodies.

Frozen anchors, each derived by hand: V(Q,D) = 2 from vol(Q+D) = 7 by
inclusion-exclusion; V(S1,S2) = 1/2 for orthogonal unit segments; the
square/diamond edge-pair angles beta = 3/8 (facing) and 1/8 (averted) from
the one-variable closed form of the kernel integral.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixvol.mixed_volume
from mixvol.cones import (ShiftedCone, cones_intersect, random_admissible,
                          random_direction_tuples)
from mixvol.errors import DivergenceError, InputError
from mixvol.exterior import subspace_determinant
from mixvol.generators import cube, diamond, rotated_cube, segment, simplex
from mixvol.mixed_volume import (angle_mixed_volume, epsilon_mixed_volume,
                                 mixed_exterior_angle, oracle_mixed_volumes,
                                 schneider_mixed_volume)
from mixvol.polytope import Polytope, minkowski_sum
from mixvol.util import multinomial, random_rotation
from mixvol.verify import _random_face_tuple


def test_oracle_square_diamond():
    table = oracle_mixed_volumes([cube(2), diamond(2)])
    assert table.value((1, 1)) == pytest.approx(2.0)
    assert table.value((2, 0)) == pytest.approx(1.0)
    assert table.value((0, 2)) == pytest.approx(2.0)
    assert table.meta["residual"] <= 1e-10


def test_oracle_orthogonal_segments():
    table = oracle_mixed_volumes([segment(2, 0), segment(2, 1)])
    assert table.value((1, 1)) == pytest.approx(0.5)
    assert table.value((2, 0)) == pytest.approx(0.0)


def test_oracle_polarization_3d():
    # vol(K + L) = sum_i binom(3, i) V(K[i], L[3-i]) against a direct hull
    K, L = cube(3), diamond(3)
    table = oracle_mixed_volumes([K, L])
    total = sum(math.comb(3, i) * table.value((i, 3 - i)) for i in range(4))
    assert total == pytest.approx(minkowski_sum(K, L).volume())


def test_oracle_symmetry_under_body_swap():
    t1 = oracle_mixed_volumes([cube(3), simplex(3)])
    t2 = oracle_mixed_volumes([simplex(3), cube(3)])
    for n in ((1, 2), (2, 1), (3, 0)):
        assert t1.value(n) == pytest.approx(t2.value(n[::-1]))


@pytest.mark.parametrize("bodies", [
    [cube(3), simplex(3)],
    [segment(3, 0), segment(3, 1), cube(3)],
    [cube(2), diamond(2)],
    [segment(2, 0), segment(2, 1)],
    [cube(3), diamond(3)],
    [rotated_cube(3, seed=4), simplex(3)],
], ids=["Q3-S3", "x3-y3-Q3", "Q2-D2", "x2-y2", "Q3-D3", "R3-S3"])
def test_oracle_grid_shares_one_hull(bodies, monkeypatch):
    # the whole (d+1)^k grid is one sum_volume call on one normal fan; its
    # entries match a fit to one sum_volume call per grid point
    import mixvol.polytope

    per_point = mixvol.mixed_volume.sum_volume
    monkeypatch.setattr(mixvol.mixed_volume, "sum_volume",
                        lambda grid, polys: np.array([per_point(t, polys) for t in grid]))
    rows = oracle_mixed_volumes(bodies)
    monkeypatch.undo()
    real, hulls = mixvol.polytope._hull_core, []

    def counting(pts, tol):
        hulls.append(len(pts))
        return real(pts, tol)

    monkeypatch.setattr(mixvol.polytope, "_hull_core", counting)
    got = oracle_mixed_volumes(bodies)
    assert len(hulls) == 1  # facets in d <= 3 are measured without a hull
    scale = max(abs(v) for v in rows.entries.values())
    for n, v in rows.entries.items():
        assert got.value(n) == pytest.approx(v, rel=1e-12, abs=1e-12 * scale)
    assert got.meta.keys() == {"residual", "cond"}


def test_4d_oracle_hulls_each_facet_once(monkeypatch):
    # the 25-row grid shares the first row's hull, and each of its 3-D
    # facets is hulled once on the first row for all rows: 1 + F hulls,
    # where measuring row by row took 1 + 25 F
    import mixvol.polytope

    real, hulls = mixvol.polytope._hull_core, []

    def counting(pts, tol):
        hulls.append(real(pts, tol))
        return hulls[-1]

    bodies = [simplex(4), diamond(4)]
    monkeypatch.setattr(mixvol.polytope, "_hull_core", counting)
    got = oracle_mixed_volumes(bodies)
    first_facets = hulls[0][1]
    assert len(first_facets) > 8 and len(hulls) == 1 + len(first_facets)
    assert got.value((4, 0)) == pytest.approx(1.0 / 24.0, rel=1e-12)
    assert got.value((0, 4)) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_table_entry_validation():
    table = oracle_mixed_volumes([cube(2), diamond(2)])
    with pytest.raises(InputError):
        table.value((1, 2))
    with pytest.raises(InputError):
        table.value((1,))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_oracle_matches_inclusion_exclusion_2d(seed):
    rng = np.random.default_rng(seed)
    K = Polytope.hull(rng.standard_normal((7, 2)))
    L = Polytope.hull(rng.standard_normal((6, 2)))
    mixed = oracle_mixed_volumes([K, L]).value((1, 1))
    want = (minkowski_sum(K, L).volume() - K.volume() - L.volume()) / 2.0
    assert mixed == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_oracle_bodies_of_different_scale():
    """Entries far below the largest grid volume keep their digits: the fit
    runs on bodies divided by their sizes."""
    table = oracle_mixed_volumes([cube(3).transform(1e3 * np.eye(3)),
                                  diamond(3).transform(1e-3 * np.eye(3))])
    for n, want in (((0, 3), 4.0 / 3.0 * 1e-9), ((1, 2), 0.002),
                    ((2, 1), 2000.0), ((3, 0), 1e9)):
        assert table.value(n) == pytest.approx(want, rel=1e-12)


def test_oracle_scaling_multilinearity():
    K, L = cube(2), diamond(2)
    base = oracle_mixed_volumes([K, L]).value((1, 1))
    scaled = oracle_mixed_volumes([K.transform(3.0 * np.eye(2)), L])
    assert scaled.value((1, 1)) == pytest.approx(3.0 * base)


def test_schneider_matches_oracle(rng):
    cases = [
        ([cube(2), diamond(2)], (1, 1), 2.0),
        ([segment(2, 0), segment(2, 1)], (1, 1), 0.5),
        ([cube(3), diamond(3)], (1, 2), None),
        ([rotated_cube(3, seed=4), simplex(3)], (2, 1), None),
    ]
    for bodies, degrees, anchor in cases:
        got = schneider_mixed_volume(bodies, degrees, rng=rng)
        want = oracle_mixed_volumes(bodies).value(degrees)
        assert got == pytest.approx(want, rel=1e-6)
        if anchor is not None:
            assert got == pytest.approx(anchor, rel=1e-6)


def test_schneider_screen_keeps_selection_sums(monkeypatch):
    """The span screen only skips LPs that would say no: each sum equals the
    unscreened loop bit for bit, and the selected tuples still reach the LP."""
    cases = [([cube(3), diamond(3)], (1, 2)),
             ([rotated_cube(3, seed=4), simplex(3)], (2, 1)),
             ([cube(4), diamond(4)], (2, 2)),
             ([cube(2), diamond(2), simplex(2)], (1, 1, 0))]
    for bodies, degrees in cases:
        x = random_admissible(bodies, degrees, np.random.default_rng(3))
        want, tuples = 0.0, 0
        for tup in itertools.product(*[p.faces(n) for p, n in zip(bodies, degrees)]):
            br = subspace_determinant([f.frame for f in tup])
            if br <= 1e-12:
                continue
            tuples += 1
            if cones_intersect([ShiftedCone(f.normal_cone, xi)
                                for f, xi in zip(tup, x)]):
                want += br * math.prod(f.measure for f in tup)
        calls = []
        monkeypatch.setattr(mixvol.mixed_volume, "cones_intersect",
                            lambda s, **kw: calls.append(s) or cones_intersect(s, **kw))
        got = schneider_mixed_volume(bodies, degrees, shifts=x)
        monkeypatch.undo()
        assert got == want / multinomial(bodies[0].dim, degrees)
        assert 0 < len(calls) < tuples


def _per_draw_beta(faces, n, rng):
    """The admissible-mc estimate as one draw and one LP at a time."""
    k, d = len(faces), faces[0].normal_cone.ambient_dim
    hits = 0
    for _ in range(n):
        x = rng.standard_normal((k, d))
        x -= x.mean(axis=0)
        x = x / float(np.linalg.norm(x))
        hits += cones_intersect([ShiftedCone(f.normal_cone, xi)
                                 for f, xi in zip(faces, x)])
    return hits / n


def _beta_tuples():
    for d in (2, 3, 4):
        for p, q in ((cube(d), diamond(d)), (diamond(d), simplex(d)),
                     (simplex(d), cube(d))):
            for n in range(1, d):
                yield [p, q], (n, d - n), (p.faces(n)[0], q.faces(d - n)[-1])
    rng = np.random.default_rng(17)
    for _ in range(12):
        yield _random_face_tuple(rng)


def test_admissible_mc_matches_per_draw_lp():
    """Batched draws through the span screen, with the screen's point as the
    LP start, give the estimate of the per-draw loop of cold LPs exactly and
    leave the generator where the loop leaves it, since callers share one
    generator between routes."""
    values = []
    for bodies, degrees, faces in _beta_tuples():
        batched, single = np.random.default_rng(5), np.random.default_rng(5)
        est = mixed_exterior_angle(faces, bodies, degrees, rng=batched,
                                   route="admissible-mc", samples=150)
        assert est.value == _per_draw_beta(faces, 150, single)
        assert batched.bit_generator.state == single.bit_generator.state
        values.append(est.value)
    assert 0 < sum(v > 0 for v in values) < len(values)


def test_admissible_mc_hits_need_no_pivot(monkeypatch):
    """Each survivor of the screen is one lp_feasible call, and on this edge
    against a facet every survivor is a hit at the screen's point, so none
    of them reaches the simplex."""
    import mixvol.cones
    import mixvol.lp

    Q, D = cube(3), diamond(3)
    faces = (Q.faces(1)[0], D.faces(2)[0])
    miss, _, _ = mixvol.cones._certain_misses(
        [[f] for f in faces], np.zeros((1, 2), dtype=int),
        random_direction_tuples(3, 2, 200, np.random.default_rng(5)))
    calls, pivoted = [], []
    real_lp, real_phase1 = mixvol.lp.lp_feasible, mixvol.lp._phase1
    monkeypatch.setattr(mixvol.cones, "lp_feasible",
                        lambda *a, **kw: calls.append(1) or real_lp(*a, **kw))
    monkeypatch.setattr(mixvol.lp, "_phase1",
                        lambda *a: pivoted.append(1) or real_phase1(*a))
    est = mixed_exterior_angle(faces, [Q, D], (1, 2), rng=5,
                               route="admissible-mc", samples=200)
    assert len(calls) == (~miss[0]).sum() > 0
    assert est.value == len(calls) / 200  # every survivor a hit
    assert not pivoted


def test_schneider_seed_reproducible():
    bodies = [cube(2), diamond(2)]
    a = schneider_mixed_volume(bodies, (1, 1), rng=11)
    b = schneider_mixed_volume(bodies, (1, 1), rng=11)
    assert a == b


def test_angle_route_square_diamond_is_exact():
    est = angle_mixed_volume([cube(2), diamond(2)], (1, 1), rng=0)
    assert est.std_error == 0.0
    assert est.value == pytest.approx(2.0)


def test_angle_route_parallel_bodies_stay_exact():
    # parallel face pairs carry bracket zero and drop out before any kernel
    # evaluation, so a translate of the same body is handled exactly
    Q = cube(2)
    est = angle_mixed_volume([Q, Q.translate([2.0, 2.0])], (1, 1), rng=0)
    assert est.std_error == 0.0
    assert est.value == pytest.approx(1.0)


def test_epsilon_route_monotone_and_below():
    bodies = [cube(2), diamond(2)]
    coarse = epsilon_mixed_volume(bodies, (1, 1), 0.8, rng=5, samples=4000)
    fine = epsilon_mixed_volume(bodies, (1, 1), 0.2, rng=5, samples=4000)
    assert coarse.value <= fine.value + 1e-9
    assert fine.value <= 2.0 + 3.0 * fine.std_error + 1e-9
    with pytest.raises(InputError):
        epsilon_mixed_volume(bodies, (1, 1), 0.0, rng=5)


def test_edge_pair_angles_closed_form():
    # beta = [F1, F2] * F(u1, u2); Q/D edge pairs realize normal angles
    # pi/4 and 3pi/4, giving 3/8 and 1/8
    Q, D = cube(2), diamond(2)
    fq = Q.faces(1)[0]
    vals = []
    for fd in D.faces(1):
        beta = mixed_exterior_angle((fq, fd), [Q, D], (1, 1), rng=0)
        assert beta.std_error == 0.0
        vals.append(round(beta.value, 12))
    assert sorted(vals) == pytest.approx([0.125, 0.125, 0.375, 0.375])


def test_beta_routes_agree_and_stay_in_range(rng):
    Q = cube(2).transform(random_rotation(2, rng))
    D = diamond(2)
    fq, fd = Q.faces(1)[1], D.faces(1)[2]
    quad = mixed_exterior_angle((fq, fd), [Q, D], (1, 1), rng=rng)
    mc = mixed_exterior_angle((fq, fd), [Q, D], (1, 1), rng=rng,
                              route="admissible-mc", samples=20000)
    assert 0.0 <= quad.value <= 1.0
    assert 0.0 <= mc.value <= 1.0
    sig = math.hypot(quad.std_error, mc.std_error)
    assert abs(quad.value - mc.value) <= 3.0 * max(sig, 1e-9)


def test_beta_sum_recovers_mixed_volume():
    Q, D = cube(2), diamond(2)
    total = 0.0
    for fq, fd in itertools.product(Q.faces(1), D.faces(1)):
        beta = mixed_exterior_angle((fq, fd), [Q, D], (1, 1), rng=0)
        br = abs(np.linalg.det(np.hstack([fq.frame.frame, fd.frame.frame])))
        total += br * fq.measure * fd.measure * beta.value
    assert total == pytest.approx(2.0 * 2.0, abs=1e-9)


def test_mixed_exterior_angle_validates_faces():
    Q, D = cube(2), diamond(2)
    with pytest.raises(InputError):
        mixed_exterior_angle((Q.faces(0)[0], D.faces(1)[0]), [Q, D], (1, 1),
                             rng=0)
    with pytest.raises(InputError):
        mixed_exterior_angle((Q.faces(1)[0],), [Q, D], (1, 1), rng=0)



def test_exterior_angle_k4_is_seed_reproducible():
    # k >= 4 kernels are Monte Carlo in t; the seed must drive them too
    segs = [segment(4, i) for i in range(4)]
    faces = [s.faces(1)[0] for s in segs]
    a = mixed_exterior_angle(faces, segs, (1, 1, 1, 1), rng=3, samples=4)
    b = mixed_exterior_angle(faces, segs, (1, 1, 1, 1), rng=3, samples=4)
    assert a == b
    assert 0.0 < a.value <= 1.0

def test_angle_route_3d_within_error(rng):
    bodies = [cube(3), diamond(3)]
    want = oracle_mixed_volumes(bodies).value((1, 2))
    est = angle_mixed_volume(bodies, (1, 2), rng=rng, samples=4000)
    assert abs(est.value - want) <= 3.0 * est.std_error + 1e-9


def test_mc_routes_are_seed_reproducible():
    bodies = [cube(3), diamond(3)]
    a = angle_mixed_volume(bodies, (2, 1), rng=21, samples=1000)
    b = angle_mixed_volume(bodies, (2, 1), rng=21, samples=1000)
    assert a.value == b.value and a.std_error == b.std_error