"""Grassmann-weighted measures on polytope flags and the multiplier kernels.

The structural facts under test: the atom set of a polytope has total mass
equal to the intrinsic volume; its normal-direction marginal is the area
measure up to the documented constant; the two reproducing kernels recover
wedge norms of frames; the closed D-matrices agree with their Monte Carlo
estimate and the Gram-determinant Psi with the fused (u', U') draw it
replaces, kept here as an oracle; and the resulting mixed-volume estimates
agree with the exact oracle.
"""

import itertools
import math

import numpy as np
import pytest

from mixvol.errors import DivergenceError, InputError
from mixvol.estimates import MCEstimate
from mixvol.exterior import Subspace
from mixvol.flag_calculus import (c_const, closed_d_matrix, d_matrix,
                                  estimate_d_matrix, flag_mixed_functional,
                                  flag_mixed_volume, gamma_const, phi_kernel,
                                  phi_multiplier, polytope_flag_atoms,
                                  psi_kernel, psi_multiplier,
                                  verify_multiplier_identity)
from mixvol.generators import cube, diamond, rotated_cube
from mixvol.mixed_volume import oracle_mixed_volumes
from mixvol.translative import curvature_mixed_functional
from mixvol.util import omega, random_unit_vectors


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


def test_closed_d_matrix_values():
    trivial = closed_d_matrix(2, 1)
    np.testing.assert_allclose(trivial.entries, np.eye(1))
    m = closed_d_matrix(3, 1)
    np.testing.assert_allclose(
        m.entries, np.array([[3.0, 1.0], [1.0, 3.0]]) / 8.0)
    np.testing.assert_allclose(m.a, [3.0, -1.0], atol=1e-12)
    assert m.unit_row_residual() <= 1e-12
    # m = 3: [[3, 1], [m - 1, m + 1]] / (m (m + 2)), for lines and planes
    for j in (1, 2):
        m = closed_d_matrix(4, j)
        np.testing.assert_allclose(
            m.entries, np.array([[3.0, 1.0], [2.0, 4.0]]) / 15.0)
        assert m.unit_row_residual() <= 1e-12
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
    assert est.unit_row_residual() <= 0.05
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