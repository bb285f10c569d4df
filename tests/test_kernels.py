"""Direction-tuple kernels F_n and G_r.

Closed-form anchors: F on an orthogonal 2D pair is 1/4, and the
positive-sphere projection self-test has target omega_p (1+beta)^{-(p-d)/2}.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixvol.errors import DivergenceError, InputError
from mixvol.kernels import (KernelSpec, eval_F, eval_F_eps, eval_G,
                            hull_distance, in_star_region, kernel_values,
                            perp_spread, perp_spread_batch,
                            sphere_plus_integrate, sphere_projection_selftest)
from mixvol.util import omega, random_unit_vectors


def test_spec_validation():
    KernelSpec(2, (1, 1), "n")
    with pytest.raises(InputError):
        KernelSpec(2, (1, 2), "n")    # sum != d
    with pytest.raises(InputError):
        KernelSpec(3, (3, 0), "n")    # out of 0..d-1
    with pytest.raises(InputError):
        KernelSpec(2, (1, 0), "r")    # r_i >= 1
    with pytest.raises(InputError):
        KernelSpec(3, (1, 1), "r")    # sum below (k-1)d
    spec = KernelSpec(3, (2, 2), "r")
    assert spec.j == 1


def test_orthogonal_pair_anchor():
    us = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert eval_F(KernelSpec(2, (1, 1), "n"), us) == pytest.approx(0.25)


def test_f_2d_closed_form():
    # one-variable reduction of the t-integral for d=2, degrees (1,1):
    # F(u1, u2) = (pi - theta) / (2 pi sin theta), theta the angle between
    spec = KernelSpec(2, (1, 1), "n")
    for theta in (0.4, 1.0, 2.2):
        us = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        want = (math.pi - theta) / (2.0 * math.pi * math.sin(theta))
        assert eval_F(spec, us) == pytest.approx(want, rel=1e-7)


def test_coincident_tuple_zero_convention():
    # exactly repeated directions are dropped as a measure-zero event
    us = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert eval_F(KernelSpec(2, (1, 1), "n"), us) == 0.0
    assert eval_F_eps(KernelSpec(2, (1, 1), "n", 0.1), us) == 0.0


def test_divergence_near_the_diagonal():
    # distinct but nearly parallel directions: the pole is unresolvable
    u2 = np.array([1.0, 1e-10])
    u2 /= np.linalg.norm(u2)
    us = np.stack([np.array([1.0, 0.0]), u2])
    with pytest.raises(DivergenceError):
        eval_F(KernelSpec(2, (1, 1), "n"), us)
    # the eps cutoff zeroes the same tuple instead
    assert eval_F_eps(KernelSpec(2, (1, 1), "n", 0.1), us) == 0.0


def test_g_zero_convention_for_dependent_tuples():
    us = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert kernel_values(KernelSpec(2, (1, 1), "r"), us[None])[0] == 0.0


def test_g_grows_near_the_hull_singularity():
    spec = KernelSpec(2, (1, 1), "r")
    vals = []
    for phi in (0.5, 0.1, 0.02):
        us = np.array([[1.0, 0.0], [-math.cos(phi), math.sin(phi)]])
        vals.append(eval_G(spec, us))
    assert 0.0 < vals[0] < vals[1] < vals[2]


def test_antipodal_f_pair_is_finite():
    # mode n only degenerates on the diagonal, not at antipodes
    us = np.array([[1.0, 0.0], [-1.0, 0.0]])
    val = eval_F(KernelSpec(2, (1, 1), "n"), us)
    assert np.isfinite(val) and val > 0.0


def test_kernel_values_input_checks():
    spec = KernelSpec(2, (1, 1), "n")
    with pytest.raises(InputError):
        kernel_values(spec, np.ones((4, 2, 2)))       # not unit
    with pytest.raises(InputError):
        kernel_values(spec, np.zeros((4, 3, 2)))      # wrong k


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_spread_lower_bounds(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    d = int(rng.integers(2, 4))
    us = random_unit_vectors(d, k, rng)
    t = np.abs(rng.standard_normal(k))
    t /= np.linalg.norm(t)
    spread = perp_spread(t[:, None] * us)
    if in_star_region(t):
        assert spread >= perp_spread(us) / (2.0 * math.sqrt(k)) - 1e-12
    else:
        assert spread >= 1.0 / (2.0 * k) - 1e-12


def test_perp_spread_batch_matches_scalar(rng):
    us = rng.standard_normal((50, 3, 2))
    batch = perp_spread_batch(us)
    for i in range(50):
        assert batch[i] == pytest.approx(perp_spread(us[i]), abs=1e-12)


def test_hull_distance_simple_cases():
    us = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert hull_distance(us) == pytest.approx(math.sqrt(0.5))
    us = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert hull_distance(us) == pytest.approx(0.0, abs=1e-12)
    us = np.array([[1.0, 0.0], [math.cos(0.5), math.sin(0.5)]])
    # both on the same side: distance to the chord
    assert hull_distance(us) == pytest.approx(math.cos(0.25), rel=1e-9)


def test_eps_cutoff_monotone(rng):
    us = random_unit_vectors(2, 40, rng).reshape(20, 2, 2)
    lo = kernel_values(KernelSpec(2, (1, 1), "n", 0.05), us)
    hi = kernel_values(KernelSpec(2, (1, 1), "n", 0.5), us)
    assert np.all(hi <= lo + 1e-12)
    assert np.all(lo >= 0.0)


def test_kernel_rotation_invariance(rng):
    from mixvol.util import random_rotation

    us = random_unit_vectors(3, 40, rng).reshape(20, 2, 3)
    spec = KernelSpec(3, (1, 2), "n", 0.05)
    base = kernel_values(spec, us)
    rho = random_rotation(3, rng)
    np.testing.assert_allclose(kernel_values(spec, us @ rho.T), base,
                               rtol=1e-6, atol=1e-9)


def test_sphere_plus_integrate_constant():
    # integral of 1 over the positive part of S^{k-1}
    for k in (2, 3):
        got = sphere_plus_integrate(lambda t: np.ones(t.shape[0]), k)
        assert got.value == pytest.approx(omega(k) / 2.0 ** k, rel=1e-6)



def test_sphere_plus_integrate_flags_non_convergence():
    # a kink the panel doubling cannot resolve to 1e-10 within its levels:
    # the value is the finest level's and the error its last delta, not 0
    got = sphere_plus_integrate(
        lambda t: 1.0 / np.maximum(np.abs(t[:, 0] - 0.7), 1e-3), 2)
    assert got.std_error > 1e-10 * got.value
    smooth = sphere_plus_integrate(lambda t: t[:, 0] ** 2, 2)
    assert smooth.value == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert smooth.std_error <= 1e-10 * smooth.value

def test_projection_selftest_anchor():
    est, target = sphere_projection_selftest(4, 2, 1.0, rng=12,
                                             samples=20000)
    assert target == pytest.approx(omega(4) * (1 + 1.0) ** (-1.0))
    assert abs(est.value - target) / target <= 0.02
    with pytest.raises(InputError):
        sphere_projection_selftest(5, 2, 1.0, rng=0)
