"""Face-tuple tables against the per-tuple loops they replace.

The exact routes evaluate all face tuples of a query at once: one batched
bracket over the (T, d, m) frame stack, one span screen, one kernel call.
The loops below are the one-tuple-at-a-time evaluation, kept here as the
reference: the scalar pivoted Cholesky bracket on a 2-D Gram matrix, the
selection rule with one LP per tuple and no screen, and the curvature sum
with one kernel call per tuple.
"""

import itertools
import math

import numpy as np
import pytest

from mixvol.cones import (ShiftedCone, _finite_cone_combos, _ray_points,
                          cones_intersect, random_admissible)
from mixvol.errors import DivergenceError
from mixvol.exterior import frame_table, subspace_determinant, tuple_index
from mixvol.flag_calculus import flag_mixed_volume
from mixvol.generators import cube, diamond, segment, simplex
from mixvol.kernels import KernelSpec, kernel_values
from mixvol.mixed_volume import angle_mixed_volume, schneider_mixed_volume
from mixvol.translative import (_arc_ray_integral, curvature_mixed_functional,
                                duality_check)
from mixvol.util import gram_det, multinomial, random_rotation


def _turned(seed, *bodies):
    rot = random_rotation(bodies[0].dim, np.random.default_rng(seed))
    return [b.transform(rot) for b in bodies]


def _scalar_gram_det(gram):
    """Pivoted Cholesky of one Gram matrix, row by row."""
    a = np.array(gram, dtype=float)
    det = 1.0
    for i in range(a.shape[0]):
        piv = i + int(np.argmax(np.diagonal(a)[i:]))
        if piv != i:
            a[[i, piv], :] = a[[piv, i], :]
            a[:, [i, piv]] = a[:, [piv, i]]
        p = a[i, i]
        if p <= 0.0:
            return 0.0
        det *= p
        if i + 1 < a.shape[0]:
            a[i + 1:, i + 1:] -= np.outer(a[i + 1:, i], a[i, i + 1:] / p)
    return max(det, 0.0)


def _scalar_bracket(frames):
    frames = [f for f in frames if f.shape[1]]
    if not frames:
        return 1.0
    stacked = np.hstack(frames)
    if stacked.shape[1] > stacked.shape[0]:
        return 0.0
    v = stacked.T
    return math.sqrt(_scalar_gram_det(v @ v.T))


def _schneider_loop(bodies, degrees, x):
    total = 0.0
    for tup in itertools.product(*[p.faces(n) for p, n in zip(bodies, degrees)]):
        br = _scalar_bracket([f.frame.frame for f in tup])
        if br <= 1e-12:
            continue
        if cones_intersect([ShiftedCone(f.normal_cone, xi) for f, xi in zip(tup, x)]):
            total += br * math.prod(f.measure for f in tup)
    return total / multinomial(bodies[0].dim, degrees)


def _curvature_loop(bodies, r):
    spec = KernelSpec(bodies[0].dim, r, "r")
    total = 0.0
    for tup in itertools.product(*[p.faces(ri) for p, ri in zip(bodies, r)]):
        br = _scalar_bracket([f.normal_cone.span for f in tup])
        if br <= 1e-7:
            continue
        cones = [f.normal_cone for f in tup]
        if all(c.dim == 1 for c in cones):
            value = float(kernel_values(spec, _finite_cone_combos(cones)).sum())
        else:
            arc, ray = sorted(cones, key=lambda c: -c.dim)
            value = sum(_arc_ray_integral(arc, v) for v in _ray_points(ray))
        total += br * br * math.prod(f.measure for f in tup) * value
    return total


def _bracket_cases():
    q3r = _turned(3, cube(3))[0]
    yield [cube(2), diamond(2)], (1, 1), "frame"
    yield _turned(1, cube(3), diamond(3)), (1, 2), "frame"
    yield [q3r, q3r], (1, 2), "frame"
    yield [q3r, q3r], (2, 1), "frame"
    yield _turned(2, segment(3, 0), cube(3)), (1, 2), "frame"
    yield [cube(3), diamond(3), simplex(3)], (1, 1, 1), "frame"
    yield _turned(4, cube(3), diamond(3)), (2, 2), "span"
    yield [q3r, q3r, q3r], (2, 2, 2), "span"


def test_batched_brackets_equal_the_scalar_loop_bit_for_bit():
    """Regular tuples and the round-off brackets of dependent frames (edge
    and facet of one turned cube, about 1e-8) alike."""
    roundoff = 0
    for bodies, degrees, kind in _bracket_cases():
        pools = [[f.frame.frame if kind == "frame" else f.normal_cone.span
                  for f in p.faces(n)] for p, n in zip(bodies, degrees)]
        idx = tuple_index(pools)
        got = subspace_determinant(frame_table(pools, idx))
        want = [_scalar_bracket([pool[j] for pool, j in zip(pools, row)])
                for row in idx]
        assert len(got) == math.prod(map(len, pools))
        assert got.tolist() == want
        assert [subspace_determinant([pool[j] for pool, j in zip(pools, row)])
                for row in idx] == want
        roundoff += int(np.sum((got > 0.0) & (got < 1e-6)))
    assert roundoff > 0


def test_gram_det_keeps_each_matrix_its_own_pivots():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((50, 3, 4))
    rows[::5, 2] = rows[::5, 0] + rows[::5, 1]           # rank deficient
    grams = rows @ np.swapaxes(rows, 1, 2)
    got = gram_det(grams)
    assert got.tolist() == [_scalar_gram_det(g) for g in grams]
    assert gram_det(grams[0]) == got[0]
    np.testing.assert_allclose(got[1:5], np.linalg.det(grams[1:5]), rtol=1e-12)


@pytest.mark.parametrize("case", range(6))
def test_schneider_matches_the_per_tuple_loop(case):
    bodies, degrees = [
        ([cube(2), diamond(2)], (1, 1)),
        (_turned(5, cube(2), simplex(2)), (1, 1)),
        (_turned(1, cube(3), diamond(3)), (1, 2)),
        (_turned(6, simplex(3), diamond(3)), (2, 1)),
        ([cube(3), diamond(3), simplex(3)], (1, 1, 1)),
        (_turned(2, segment(3, 0), cube(3)), (1, 2)),
    ][case]
    x = random_admissible(bodies, degrees, np.random.default_rng(case))
    want = _schneider_loop(bodies, degrees, x)
    assert want > 0.0
    got = schneider_mixed_volume(bodies, degrees, shifts=x)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("case", range(7))
def test_curvature_matches_the_per_tuple_loop(case):
    bodies, r = [
        ([cube(2), diamond(2)], (1, 1)),
        (_turned(5, cube(2), simplex(2)), (1, 1)),
        (_turned(1, cube(3), diamond(3)), (2, 2)),
        (_turned(6, simplex(3), diamond(3)), (1, 2)),
        ([cube(3), diamond(3), simplex(3)], (2, 2, 2)),
        (_turned(2, segment(3, 0), cube(3)), (1, 2)),
        (_turned(2, cube(3), segment(3, 1)), (2, 1)),
    ][case]
    want = _curvature_loop(bodies, r)
    assert want > 0.0
    assert curvature_mixed_functional(bodies, r) == pytest.approx(
        want, rel=1e-12, abs=0.0)


def test_duality_matches_the_per_tuple_loop():
    for (K, L), n in ((_turned(5, cube(2), simplex(2)), 1),
                      (_turned(1, cube(3), diamond(3)), 1),
                      (_turned(1, cube(3), diamond(3)), 2)):
        lhs, rhs = duality_check(K, L, n)
        assert lhs == pytest.approx(_curvature_loop([K, L], (n, K.dim - n)),
                                    rel=1e-12, abs=0.0)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_identical_turned_cubes_still_diverge():
    """The round-off brackets of (Q3r, Q3r) pass the bracket cut, and the
    common-ray probe refuses them, as before the batched bracket."""
    q = _turned(3, cube(3))[0]
    for degrees in ((1, 2), (2, 1)):
        with pytest.raises(DivergenceError):
            angle_mixed_volume([q, q], degrees, rng=1, samples=50)


def test_fixed_seed_estimates_keep_their_values():
    """The batched brackets pick the same tuples, weights and streams: a
    fixed-seed angle and flag estimate keep the values the per-tuple loop
    gave."""
    Q, D = _turned(41, cube(3), diamond(3))
    a = angle_mixed_volume([Q, D], (1, 2), rng=7, samples=200)
    assert (a.value, a.std_error) == (2.0048136293392274, 0.005044231583609171)
    f = flag_mixed_volume([Q, D], (1, 2), rng=8, samples=100)
    assert (f.value, f.std_error) == (2.0564880788954767, 0.03887945425734056)
