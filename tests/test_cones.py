"""Normal cones on the sphere: measures, sampling, intersection probes."""

import itertools
import math

import numpy as np
import pytest

import mixvol.cones
from mixvol.cones import (_SCREEN_FLOOR, _SCREEN_MARGIN, ShiftedCone,
                          _certain_misses, _probe_common_ray,
                          _probe_zero_in_hull, cone_sphere_samples,
                          cones_intersect, external_angle, general_position,
                          random_admissible, random_direction_tuple,
                          random_direction_tuples, spherical_measure)
from mixvol.errors import InputError
from mixvol.generators import cube, diamond, rotated_cube, segment, simplex
from mixvol.lp import lp_feasible
from mixvol.mixed_volume import angle_mixed_volume
from mixvol.util import random_rotation


def test_square_vertex_angle_is_quarter():
    p = cube(2)
    for v in p.faces(0):
        assert external_angle(p, v).value == pytest.approx(0.25)
    for e in p.faces(1):
        assert external_angle(p, e).value == pytest.approx(0.5)
    assert sum(external_angle(p, v).value for v in p.faces(0)) == \
        pytest.approx(1.0)


def test_cube3_vertex_measure_is_octant(rng):
    p = cube(3)
    m = spherical_measure(p.faces(0)[0].normal_cone, rng=rng, samples=60000)
    octant = 4.0 * math.pi / 8.0
    assert abs(m.value - octant) <= 3.0 * m.std_error + 1e-9


def test_cube3_edge_cone_is_quarter_arc():
    p = cube(3)
    m = spherical_measure(p.faces(1)[0].normal_cone)
    assert m.value == pytest.approx(math.pi / 2.0)
    assert m.std_error == 0.0


def test_external_angles_sum_to_euler():
    # Gram relation at the vertex level: sum over vertices of gamma = 1
    for p in (diamond(2), simplex(2)):
        total = sum(external_angle(p, v).value for v in p.faces(0))
        assert total == pytest.approx(1.0)


def test_cone_sphere_samples_lie_in_cone(rng):
    p = diamond(3)
    cone = p.faces(0)[0].normal_cone
    us, mass = cone_sphere_samples(cone, 500, rng)
    np.testing.assert_allclose(np.linalg.norm(us, axis=1), 1.0, atol=1e-9)
    assert np.all(cone.member_mask(us))
    assert mass.value > 0.0


def test_cones_intersect_shifted():
    p = cube(2)
    cones = [f.normal_cone for f in p.faces(1)[:2]]
    # unshifted cones always meet at the origin
    assert cones_intersect([ShiftedCone(c, np.zeros(2)) for c in cones])


def test_random_direction_tuple_lives_on_perp_sphere(rng):
    for d, k in ((2, 2), (3, 2), (2, 3)):
        x = random_direction_tuple(d, k, rng)
        assert x.shape == (k, d)
        np.testing.assert_allclose(x.sum(axis=0), 0.0, atol=1e-9)
        assert np.linalg.norm(x) == pytest.approx(1.0)


def test_direction_tuple_batches_repeat_single_draws():
    for d, k in ((2, 2), (3, 2), (4, 3)):
        batched, single = np.random.default_rng(d), np.random.default_rng(d)
        one = []
        for _ in range(50):
            y = single.standard_normal((k, d))
            y -= y.mean(axis=0)
            one.append(y / float(np.linalg.norm(y)))
        assert np.array_equal(random_direction_tuples(d, k, 50, batched), one)
        assert batched.bit_generator.state == single.bit_generator.state
    with pytest.raises(InputError):
        random_direction_tuple(3, 1, 0)


def test_random_admissible_on_perp_sphere(rng):
    x = random_admissible([cube(2), diamond(2)], (1, 1), rng, verify=True)
    assert x.shape == (2, 2)
    np.testing.assert_allclose(x.sum(axis=0), 0.0, atol=1e-9)
    assert np.linalg.norm(x) == pytest.approx(1.0)


def test_general_position_flags_parallel_squares():
    Q = cube(2)
    assert not general_position([Q, Q.translate([3.0, 0.0])], (1, 1),
                                "mixed-volume")
    assert general_position([Q, diamond(2)], (1, 1), "mixed-volume")


def test_general_position_translative_mode():
    Q = cube(2)
    assert not general_position([Q, Q], (1, 1), "translative")
    assert general_position([Q, diamond(2)], (1, 1), "translative")
    with pytest.raises(InputError):
        general_position([Q, Q], (1, 1), "bogus")


# ---------------------------------------------------------------------------
# general-position probes against their pinned-LP form


def _lp_common_ray(cones, tol=1e-9):
    """Some u != 0 in every cone: one LP per pinned coordinate and sign."""
    a = np.vstack([c.ineq for c in cones])
    d = a.shape[1]
    for c, s in itertools.product(range(d), (1.0, -1.0)):
        e = np.zeros((1, d))
        e[0, c] = s
        if lp_feasible(a, np.zeros(len(a)), A_eq=e, b_eq=np.ones(1), tol=tol)[0]:
            return True
    return False


def _lp_zero_in_hull(cones, tol=1e-9):
    """w_i in N_i summing to 0, one coordinate of one block pinned to +-1."""
    k, d = len(cones), cones[0].ambient_dim
    a_ub = np.zeros((0, k * d))
    for i, c in enumerate(cones):
        block = np.zeros((len(c.ineq), k * d))
        block[:, i * d:(i + 1) * d] = c.ineq
        a_ub = np.vstack([a_ub, block])
    for c, s in itertools.product(range(k * d), (1.0, -1.0)):
        pin = np.zeros((1, k * d))
        pin[0, c] = s
        a_eq = np.vstack([np.tile(np.eye(d), (1, k)), pin])
        b_eq = np.concatenate([np.zeros(d), [1.0]])
        if lp_feasible(a_ub, np.zeros(len(a_ub)), A_eq=a_eq, b_eq=b_eq,
                       tol=tol)[0]:
            return True
    return False


def _probe_tuples(d, per_pair):
    """Seeded face pairs (all face dimensions mixed) over cube, simplex,
    diamond, segment and rotated-cube bodies; identical bodies under a
    common rotation share rays, segment cones have lineality."""
    rot = random_rotation(d, np.random.default_rng(d))
    bodies = [cube(d), simplex(d), diamond(d), segment(d), rotated_cube(d, 3)]
    pairs = list(itertools.combinations_with_replacement(bodies, 2))
    pairs += [(b.transform(rot), b.transform(rot)) for b in bodies[:3]]
    rng = np.random.default_rng(100 + d)
    out = []
    for p, q in pairs:
        fp = [f for j in range(d) for f in p.faces(j)]
        fq = [f for j in range(d) for f in q.faces(j)]
        for _ in range(per_pair):
            out.append([fp[rng.integers(len(fp))].normal_cone,
                        fq[rng.integers(len(fq))].normal_cone])
    return out


@pytest.mark.parametrize("d,per_pair", [(2, 30), (3, 30), (4, 15)])
def test_probes_match_pinned_lp(d, per_pair):
    tuples = _probe_tuples(d, per_pair)
    ray = [_probe_common_ray(c, 1e-9) for c in tuples]
    hull = [_probe_zero_in_hull(c, 1e-9) for c in tuples]
    assert ray == [_lp_common_ray(c) for c in tuples]
    assert hull == [_lp_zero_in_hull(c) for c in tuples]
    # both answers occur, so the comparison decides something
    assert 0 < sum(ray) < len(ray) and 0 < sum(hull) < len(hull)


def test_common_ray_probe_three_cones():
    Q, rot = cube(3), random_rotation(3, np.random.default_rng(5))
    bodies = [Q, Q.transform(rot), diamond(3)]
    for tup in itertools.islice(itertools.product(
            *[b.faces(1)[:4] for b in bodies]), 40):
        cones = [f.normal_cone for f in tup]
        assert _probe_common_ray(cones, 1e-9) == _lp_common_ray(cones)


def test_probes_on_shared_and_opposite_rays():
    Q = rotated_cube(3, 8)
    v = Q.faces(0)[0]
    e = next(f for f in Q.faces(1) if v.vertex_ids[0] in f.vertex_ids)
    # a vertex cone holds the cone of an edge through it
    assert _probe_common_ray([v.normal_cone, e.normal_cone], 1e-9)
    # a cone and its antipodal face cone capture 0 between them
    far = max(Q.faces(0), key=lambda f: np.linalg.norm(f.centroid - v.centroid))
    assert _probe_zero_in_hull([v.normal_cone, far.normal_cone], 1e-9)
    assert not _probe_common_ray([v.normal_cone, far.normal_cone], 1e-9)
    assert not _probe_zero_in_hull([v.normal_cone, v.normal_cone], 1e-9)
    # a segment's own normal cone is a hyperplane: it holds lines
    s = segment(3).faces(1)[0].normal_cone
    assert _probe_common_ray([s, s], 1e-9) and _probe_zero_in_hull([s, s], 1e-9)


def test_two_cone_probes_make_no_lp_call(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("k = 2 probe called the LP")

    calls = []
    has_ray = mixvol.cones._cone_has_ray
    monkeypatch.setattr(mixvol.cones, "lp_feasible", no_lp)
    monkeypatch.setattr(mixvol.cones, "_cone_has_ray",
                        lambda a, tol: calls.append(a.shape) or has_ray(a, tol))
    general_position([cube(3), diamond(3)], (1, 2), "translative")
    n_zero_in_hull = len(calls)
    angle_mixed_volume([cube(2), diamond(2)], (1, 1), rng=0, samples=200)
    assert n_zero_in_hull > 0 and len(calls) > n_zero_in_hull


@pytest.mark.parametrize("first,second,pin", [
    (lambda: rotated_cube(4, 6).faces(0)[14], lambda: diamond(4).faces(3)[0],
     (1, -1.0)),
    (lambda: rotated_cube(4, 1).faces(1)[28], lambda: simplex(4).faces(1)[6],
     (0, 1.0)),
], ids=["negative-objective", "drifted-tableau"])
def test_lp_rejects_infeasible_block_system(first, second, pin):
    """d = 4 zero-in-hull block systems, pinned at block 0, that the LP once
    called feasible with a point missing its own rows by 2.7 to 1.9e11:
    once through a tracked phase-1 objective that went negative, once
    through a zero artificial sum on a drifted tableau."""
    n1, n2 = first().normal_cone.ineq, second().normal_cone.ineq
    a_ub = np.zeros((len(n1) + len(n2), 8))
    a_ub[:len(n1), :4] = n1
    a_ub[len(n1):, 4:] = n2
    e = np.zeros((1, 8))
    e[0, pin[0]] = pin[1]
    a_eq = np.vstack([np.tile(np.eye(4), (1, 2)), e])
    b_eq = np.concatenate([np.zeros(4), [1.0]])
    assert not lp_feasible(a_ub, np.zeros(len(a_ub)), A_eq=a_eq, b_eq=b_eq)[0]


# ---------------------------------------------------------------------------
# the span screen in front of cones_intersect


def _screen(faces, x):
    """The span screen on one face tuple: (miss mask over the draws x, the
    screen's points or None below the floor)."""
    miss, z, screened = _certain_misses([[f] for f in faces],
                                        np.zeros((1, len(faces)), dtype=int), x)
    return miss[0], z[0] if screened[0] else None


def _span_violation(faces, x):
    """Largest cone row at the common point of the shifted spans, which a
    least-squares solve of the stacked span equations finds."""
    m = np.hstack([f.frame.frame for f in faces]).T
    rhs = np.concatenate([-f.frame.frame.T @ xi for f, xi in zip(faces, x)])
    z = np.linalg.lstsq(m, rhs, rcond=None)[0]
    return max(float(np.max(f.normal_cone.ineq @ (z + xi), initial=0.0))
               for f, xi in zip(faces, x))


def _near_boundary(faces, hit, miss):
    """Shifts on the segment from a hit to a miss whose violation is within
    ten screen margins of 0, on both sides of the cone boundary."""
    def at(t):
        return (1.0 - t) * hit + t * miss
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        # 1e-12: above the rounding of the rows that vanish on the span
        lo, hi = (lo, mid) if _span_violation(faces, at(mid)) > 1e-12 else (mid, hi)
    slope = _span_violation(faces, at(hi + 1e-6)) / 1e-6
    steps = [s * j for s in (1.0, -1.0)
             for j in (1e-4, 5e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 1.1, 1.5, 2.0,
                       5.0, 10.0)]
    return np.array([at(hi + j * _SCREEN_MARGIN / slope) for j in steps])


def test_screen_drops_only_misses():
    rng = np.random.default_rng(23)
    rot = random_rotation(3, rng)
    pairs = [(cube(3).faces(1)[0], diamond(3).faces(2)[1]),
             (simplex(3).faces(2)[3], diamond(3).faces(1)[2]),
             (cube(2).faces(1)[0], simplex(2).faces(1)[1]),
             (rotated_cube(4, 2).faces(2)[3], diamond(4).faces(2)[7]),
             (cube(3).transform(rot).faces(2)[2], simplex(3).faces(1)[3])]
    screened = 0
    for faces in pairs:
        d = faces[0].normal_cone.ambient_dim
        x = random_direction_tuples(d, 2, 300, rng)
        meets = [cones_intersect([ShiftedCone(f.normal_cone, xi)
                                  for f, xi in zip(faces, xs)]) for xs in x]
        hit, miss = x[meets.index(True)], x[meets.index(False)]
        # long shifts widen the LP's tolerance, and so the screen's cut
        near = _near_boundary(faces, hit, miss)
        x = np.concatenate([x, near, 1e4 * near])
        out = _screen(faces, x)[0]
        for xs, dropped in zip(x, out):
            if dropped:
                assert not cones_intersect([ShiftedCone(f.normal_cone, xi)
                                            for f, xi in zip(faces, xs)])
            elif _span_violation(faces, xs) > 2.0 * _SCREEN_MARGIN * max(
                    1.0, np.linalg.norm(xs, axis=1).max()):
                raise AssertionError("a far miss survived the screen")
        screened += out.sum()
    assert screened > 0


def test_screen_passes_every_draw_below_the_floor():
    """Frame stacks with sigma_min below the floor, zero or just above it,
    screen nothing, though their draws miss."""
    Q = cube(2)
    turn = np.array([[np.cos(1e-4), -np.sin(1e-4)], [np.sin(1e-4), np.cos(1e-4)]])
    stacks = [(cube(3).faces(1)[0], cube(3).faces(2)[0]),
              (Q.faces(1)[0], Q.transform(turn).faces(1)[0])]
    rng = np.random.default_rng(4)
    for faces in stacks:
        m = np.hstack([f.frame.frame for f in faces]).T
        assert np.linalg.svd(m, compute_uv=False)[-1] < _SCREEN_FLOOR
        d = m.shape[0]
        x = random_direction_tuples(d, 2, 200, rng)
        miss, start = _screen(faces, x)
        assert not miss.any() and start is None
        assert not all(cones_intersect([ShiftedCone(f.normal_cone, xi)
                                        for f, xi in zip(faces, xs)]) for xs in x)
