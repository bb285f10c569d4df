"""Grassmann-weighted measures on polytope flags and the multiplier kernels.

The structural facts under test: the atom set of a polytope has total mass
equal to the intrinsic volume; its normal-direction marginal is the area
measure up to the documented constant; the two reproducing kernels recover
wedge norms of frames; the closed D-matrices agree with their Monte Carlo
estimate and the Gram-determinant Psi with the fused (u', U') draw it
replaces, kept here as an oracle; the flag weight <V, T>^2 equals
<W, lin F>^2 per draw, with T(F, u) formed by an oracle the package no
longer needs; and the resulting mixed-volume estimates agree with the exact
oracle.
"""

import itertools
import math
import sys

import numpy as np
import pytest

from mixvol import flag_calculus
from mixvol.cones import cone_sphere_samples
from mixvol.errors import DivergenceError, InputError
from mixvol.estimates import MCEstimate
from mixvol.exterior import Subspace
from mixvol.flag_calculus import (_batched_complement, _haar_split, c_const,
                                  closed_d_matrix, d_matrix,
                                  estimate_d_matrix, flag_mixed_functional,
                                  flag_mixed_volume, gamma_const, phi_kernel,
                                  phi_multiplier, polytope_flag_atoms,
                                  psi_kernel, psi_multiplier,
                                  verify_multiplier_identity)
from mixvol.generators import cube, diamond, rotated_cube, simplex
from mixvol.mixed_volume import oracle_mixed_volumes
from mixvol.translative import curvature_mixed_functional
from mixvol.util import (complete_basis, omega, orthonormal_columns,
                         random_unit_vectors)


# ---------------------------------------------------------------------------
# oracle: the fused (u', U') draw that Psi used for j > 0


def _fused_psi(us, frames, n, rng):
    """Monte Carlo Psi: every interleaved pick M = [pick_1 u_1 .. pick_k u_k]
    (d x (d - j)) is closed by a Haar j-frame [U' u'], u' uniform on the
    sphere and U' Haar in u'^perp, and binom(d, j) det^2 is averaged over
    n draws.  Returns (mean, standard error)."""
    d, k = len(us[0]), len(us)
    j = sum(d - 1 - f.shape[1] for f in frames) - (k - 1) * d
    u_x = random_unit_vectors(d, n, rng)
    host = np.linalg.qr(u_x[:, :, None], mode="complete")[0][:, :, 1:]
    g = host @ rng.standard_normal((n, d - 1, j - 1))
    w = np.concatenate([np.linalg.qr(g)[0], u_x[:, :, None]], axis=2)
    slots = []
    for u, f in zip(us, frames):
        s = f.shape[1]
        comp = np.linalg.qr(np.column_stack([u, f]),
                            mode="complete")[0][:, 1 + s:]
        a = closed_d_matrix(d, s).a
        slots.append([(a[p], np.column_stack(
            [f[:, list(keep)], comp[:, list(add)], u]))
            for p in range(len(a))
            for keep in itertools.combinations(range(s), s - p)
            for add in itertools.combinations(range(comp.shape[1]), p)])
    total = np.zeros(n)
    for choice in itertools.product(*slots):
        m = np.column_stack([mat for _, mat in choice])
        dets = np.linalg.det(np.concatenate(
            [np.broadcast_to(m, (n,) + m.shape), w], axis=2))
        total += math.prod(c for c, _ in choice) * dets * dets
    vals = math.comb(d, j) * total
    return vals.mean(), vals.std(ddof=1) / math.sqrt(n)


# ---------------------------------------------------------------------------
# oracle: the tangent subspace T(F, u) that the flag weight used to form


def _tangent_subspace(u, face_frame) -> np.ndarray:
    """Orthonormal frame of T(F, u) = u^perp cap lin(F)^perp for a face
    direction frame and an outer normal u of that face."""
    assert np.max(np.abs(face_frame.T @ u), initial=0.0) <= 1e-8
    span = np.column_stack([face_frame, u])
    return complete_basis(orthonormal_columns(span), len(u))


def _frames_in_perp(us, dims, rng):
    """A random orthonormal frame of each dimension inside u_i^perp."""
    out = []
    for u, s in zip(us, dims):
        host = np.linalg.qr(u.reshape(-1, 1), mode="complete")[0][:, 1:]
        out.append(host @ np.linalg.qr(
            rng.standard_normal((len(u) - 1, s)))[0])
    return out


def test_gamma_constants():
    assert gamma_const(2, 1) == pytest.approx(0.5)
    assert gamma_const(3, 1) == pytest.approx(2.0 / omega(2))
    assert gamma_const(3, 2) == pytest.approx(1.0 / omega(1))
    assert c_const(3, (1, 2)) == pytest.approx(
        gamma_const(3, 1) * gamma_const(3, 2))


def _unit_row_residual(m) -> float:
    """max |a D - e_0|: how far the multiplier coefficients a of a D-matrix
    miss the unit row they solve for."""
    return float(np.max(np.abs(m.a @ m.entries - np.eye(m.grades)[0])))


def test_closed_d_matrix_values():
    trivial = closed_d_matrix(2, 1)
    np.testing.assert_allclose(trivial.entries, np.eye(1))
    m = closed_d_matrix(3, 1)
    np.testing.assert_allclose(
        m.entries, np.array([[3.0, 1.0], [1.0, 3.0]]) / 8.0)
    np.testing.assert_allclose(m.a, [3.0, -1.0], atol=1e-12)
    assert _unit_row_residual(m) <= 1e-12
    # m = 3: [[3, 1], [m - 1, m + 1]] / (m (m + 2)), for lines and planes
    for j in (1, 2):
        m = closed_d_matrix(4, j)
        np.testing.assert_allclose(
            m.entries, np.array([[3.0, 1.0], [2.0, 4.0]]) / 15.0)
        assert _unit_row_residual(m) <= 1e-12
    # every d <= 4 grading is closed; g = 3 first appears at d = 5, j = 2
    for d in range(1, 5):
        for j in range(d):
            assert closed_d_matrix(d, j).source == "closed"
    assert closed_d_matrix(5, 2) is None


@pytest.mark.parametrize("d,j", [(4, 1), (4, 2), (5, 1), (5, 3)])
def test_closed_d_matrix_matches_estimate(d, j):
    est = estimate_d_matrix(d, j, rng=10 * d + j, budget=100000)
    closed = closed_d_matrix(d, j)
    dev = np.abs(est.entries - closed.entries) / np.maximum(est.sigma, 1e-12)
    assert float(dev.max()) <= 4.0


def test_estimate_d_matrix_close_to_closed():
    est = estimate_d_matrix(3, 1, rng=2, budget=120000)
    closed = closed_d_matrix(3, 1)
    dev = np.abs(est.entries - closed.entries) / np.maximum(est.sigma, 1e-12)
    assert float(dev.max()) <= 4.0
    assert _unit_row_residual(est) <= 0.05
    assert est.condition < 10.0


def test_d_matrix_estimates_only_beyond_two_grades():
    assert d_matrix(4, 1).source == "closed"
    est = d_matrix(5, 2, rng=3)
    assert est.source == "mc" and est.grades == 3


def test_phi_kernel_2d_is_squared_sine():
    # with one-dimensional hosts the Grassmann average collapses and the
    # kernel equals the squared wedge of the two lines
    for theta in (0.3, 0.9, 1.4):
        us = [np.array([1.0, 0.0]), np.array([math.cos(theta),
                                              math.sin(theta)])]
        subs = [Subspace(np.array([[0.0], [1.0]])),
                Subspace(np.array([[-math.sin(theta)], [math.cos(theta)]]))]
        got = phi_kernel(us, subs)
        assert got == pytest.approx(math.sin(theta) ** 2, abs=1e-12)


def test_phi_kernel_rejects_bad_slots():
    us = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    subs = [Subspace(np.array([[1.0], [0.0]])),     # not inside u^perp
            Subspace(np.array([[1.0], [0.0]]))]
    with pytest.raises(InputError):
        phi_kernel(us, subs)


def test_multiplier_identity_exact_in_2d():
    for ident in ("subspace", "interleaved"):
        rep = verify_multiplier_identity(2, (1, 1), ident, rng=0, trials=4,
                                         samples=64)
        assert rep["max_abs_residual"] <= 1e-10
        assert rep["identity"] == ident
        assert len(rep["trials"]) == 4


def test_multiplier_identity_3d_mc():
    rep = verify_multiplier_identity(3, (1, 2), "subspace", rng=1, trials=3,
                                     samples=20000)
    assert rep["max_std_residual"] <= 4.0
    rep = verify_multiplier_identity(3, (2, 2), "interleaved", rng=2,
                                     trials=3, samples=20000)
    assert rep["max_std_residual"] <= 4.0


def test_psi_kernel_j0_matches_phi_convention(rng):
    # k = 2, r = (1, 1), d = 2: interleaved frames span everything, so the
    # kernel equals the squared wedge of [A1 u1 A2 u2]
    theta = 0.7
    us = [np.array([1.0, 0.0]), np.array([math.cos(theta),
                                          math.sin(theta)])]
    subs = [Subspace.zero(2), Subspace.zero(2)]
    got = psi_kernel(us, subs)
    want = math.sin(theta) ** 2
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("d,r", [(3, (2, 2)), (4, (2, 3)), (4, (3, 3))])
def test_psi_kernel_matches_the_fused_draw(d, r):
    rng = np.random.default_rng(sum(r) + 10 * d)
    us = list(random_unit_vectors(d, 2, rng))
    frames = _frames_in_perp(us, [d - 1 - x for x in r], rng)
    got = psi_kernel(us, frames)
    mean, se = _fused_psi(us, frames, 40000, rng)
    assert abs(got - mean) <= 4.0 * se
    assert psi_multiplier(us, frames) == pytest.approx(
        got / c_const(d, r), rel=1e-14)


def test_d4_multipliers_use_no_random_numbers():
    rng = np.random.default_rng(5)
    us = list(random_unit_vectors(4, 2, rng))
    phi_frames = _frames_in_perp(us, (1, 3), rng)
    psi_frames = _frames_in_perp(us, (1, 0), rng)
    for kernel, frames in ((phi_kernel, phi_frames),
                           (psi_kernel, psi_frames)):
        vals = {kernel(us, frames, rng=seed) for seed in (0, 1, 2)}
        assert len(vals) == 1


def test_atoms_total_mass_is_intrinsic_volume(rng):
    for p, n, want in ((cube(2), 1, 2.0), (cube(3), 1, 3.0),
                       (cube(3), 2, 3.0), (diamond(2), 1,
                                           2.0 * math.sqrt(2.0))):
        atoms = polytope_flag_atoms(p, n, rng=rng)
        got = atoms.total_mass()
        assert abs(got.value - want) <= 3.0 * got.std_error + 1e-9


def test_atoms_integrate_constant_recovers_mass(rng):
    atoms = polytope_flag_atoms(cube(3), 1, rng=rng)
    got = atoms.integrate(lambda u, v: 1.0, rng, samples_per_atom=400)
    want = atoms.total_mass()
    sig = math.hypot(got.std_error, want.std_error)
    assert abs(got.value - want.value) <= 3.0 * sig + 1e-9


def test_atoms_marginal_matches_area_measure(rng):
    # integrating g(u) = <u, e1>^2: hand value 1 for the unit cube at n=1,
    # in both two and three dimensions
    for d in (2, 3):
        atoms = polytope_flag_atoms(cube(d), 1, rng=rng)
        got = atoms.integrate(lambda u, v: float(u[0] ** 2), rng,
                              samples_per_atom=2500)
        assert abs(got.value - 1.0) <= 3.0 * got.std_error + 1e-9


def test_flag_volume_square_diamond_exact():
    est = flag_mixed_volume([cube(2), diamond(2)], (1, 1), rng=0)
    assert est.std_error <= 1e-12
    assert est.value == pytest.approx(2.0, abs=1e-9)


def test_flag_volume_needs_general_position():
    with pytest.raises(DivergenceError):
        flag_mixed_volume([cube(2), cube(2)], (1, 1), rng=0)
    est = flag_mixed_volume([cube(2), cube(2)], (1, 1), rng=0, eps=0.5,
                            samples=500)
    assert np.isfinite(est.value)


def test_flag_volume_eps_sequence_monotone():
    vals = []
    for eps in (0.8, 0.3):
        est = flag_mixed_volume([cube(2), diamond(2)], (1, 1), rng=4,
                                eps=eps, samples=1500)
        vals.append(est.value)
    assert vals[0] <= vals[1] + 1e-9


def test_flag_volume_3d_matches_oracle():
    bodies = [cube(3), rotated_cube(3, seed=42)]
    want = oracle_mixed_volumes(bodies).value((1, 2))
    est = flag_mixed_volume(bodies, (1, 2), rng=6, samples=2500)
    assert abs(est.value - want) <= 3.0 * est.std_error + 1e-9


def test_flag_functional_square_diamond():
    est = flag_mixed_functional([cube(2), diamond(2)], (1, 1), rng=0)
    assert est.value == pytest.approx(4.0, abs=1e-9)


def test_flag_functional_3d_matches_curvature():
    bodies = [cube(3), diamond(3)]
    want = curvature_mixed_functional(bodies, (2, 2))
    est = flag_mixed_functional(bodies, (2, 2), rng=8, samples=2500)
    assert abs(est.value - want) <= 3.0 * est.std_error + 1e-9
    # facets have one-ray normal cones and no flag coordinate to draw, so
    # with Psi exact the route is exact too
    assert est.value == pytest.approx(want, rel=1e-12)


def test_flag_degree_validation():
    with pytest.raises(InputError):
        flag_mixed_volume([cube(2), diamond(2)], (1, 2), rng=0)
    with pytest.raises(InputError):
        flag_mixed_functional([cube(2), diamond(2)], (0, 2), rng=0)
    with pytest.raises(InputError):
        flag_mixed_functional([cube(3), diamond(3)], (1, 1), rng=0)


def test_flag_routes_seed_reproducible():
    bodies = [cube(3), diamond(3)]
    a = flag_mixed_volume(bodies, (1, 2), rng=31, samples=600)
    b = flag_mixed_volume(bodies, (1, 2), rng=31, samples=600)
    assert a.value == b.value and a.std_error == b.std_error
    assert isinstance(a, MCEstimate)

@pytest.mark.parametrize("d", [2, 3, 4])
def test_flag_weight_is_the_complementary_minor(d):
    # [V W] and [T F] are orthonormal bases of u^perp, so the complementary
    # minors of [V W]'[T F] agree: <V, T>^2 = <W, lin F>^2 per draw (bodies
    # are hulled up to d = 4, so no flag route reaches d = 5)
    rng = np.random.default_rng(d)
    for body in (cube(d), simplex(d), diamond(d), rotated_cube(d, 5)):
        for n in range(d):
            for face in body.faces(n)[:3]:
                f = face.frame.frame
                us, _ = cone_sphere_samples(face.normal_cone, 6, rng)
                vs, ws = _haar_split(_batched_complement(us[:, :, None], d),
                                     d - 1 - n, rng)
                for u, v, w in zip(us, vs, ws):
                    vw = np.concatenate([v, w], axis=1)
                    np.testing.assert_allclose(vw.T @ vw, np.eye(d - 1),
                                               atol=1e-12)
                    np.testing.assert_allclose(vw.T @ u, 0.0, atol=1e-12)
                    want = np.linalg.det(v.T @ _tangent_subspace(u, f)) ** 2
                    got = np.linalg.det(w.T @ f) ** 2
                    assert got == pytest.approx(want, rel=0, abs=1e-12)


def test_flag_outputs_keep_the_random_stream():
    # values and standard errors recorded before the flag weight and the
    # multiplier frames came from one split per slot
    cases = (
        (flag_mixed_volume, [cube(3), diamond(3)], (1, 2), 1, 2000,
         1.9838579333212225, 0.00861972675303447),
        (flag_mixed_volume, [cube(4), diamond(4)], (1, 3), 5, 500,
         1.3407307117287763, 0.009833263008177434),
        (flag_mixed_functional, [simplex(3), rotated_cube(3, 7)], (1, 2), 4,
         2000, 3.2394225222969957, 0.025383135739189336),
        (flag_mixed_functional, [cube(4), diamond(4)], (3, 2), 4, 300,
         13.279591359659708, 0.08321417739300484))
    for route, bodies, degrees, seed, samples, value, se in cases:
        est = route(bodies, degrees, rng=seed, samples=samples)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.std_error == pytest.approx(se, rel=1e-12)
    atoms = polytope_flag_atoms(cube(4), 1, rng=2, cone_samples=2000)
    w = np.diag([1.0, 2.0, 3.0, 4.0])
    est = atoms.integrate(
        lambda u, v: float(np.trace(v.frame.T @ w @ v.frame)) + u[0],
        rng=3, samples_per_atom=100)
    assert est.value == pytest.approx(19.447422818960508, rel=1e-12)
    assert est.std_error == pytest.approx(0.4294513568752381, rel=1e-12)
    for identity, degrees, want in (
            ("subspace", (1, 3), ((0.7681581141284884, 0.03012811791208371),
                                  (0.6700070357169231, 0.026326075816538702))),
            ("interleaved", (2, 3),
             ((0.1897898578884186, 0.01906756332401166),
              (0.3201313766684444, 0.010783725802407189)))):
        rep = verify_multiplier_identity(4, degrees, identity, rng=6,
                                         trials=2, samples=2000)
        got = [(r["estimate"], r["std_error"]) for r in rep["trials"]]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_flag_slots_factor_once(monkeypatch):
    # one QR for each slot's host u^perp, and one split for each slot with
    # a positive flag dimension: 3 per (1, 3) tuple in d = 4
    qr, calls, tuples = np.linalg.qr, [0], [0]
    estimate = flag_calculus._flag_tuple_estimate

    def counted_qr(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == flag_calculus.__name__:
            calls[0] += 1
        return qr(*args, **kwargs)

    def counted_estimate(*args, **kwargs):
        tuples[0] += 1
        return estimate(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(flag_calculus, "_flag_tuple_estimate",
                        counted_estimate)
    flag_mixed_volume([cube(4), diamond(4)], (1, 3), rng=5, samples=500)
    assert tuples[0] > 0
    assert calls[0] == 3 * tuples[0]
