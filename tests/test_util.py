"""Unit tests for numeric helpers and the estimate container."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixvol.errors import InputError
from mixvol.estimates import (MCEstimate, combine_product, combine_sum,
                              from_indicator, from_samples)
from mixvol.util import (as_rng, complete_basis, gram_det, kappa,
                         multinomial, omega, orthonormal_columns,
                         parallel_map, random_rotation, random_unit_vectors,
                         spawn_rngs)


def test_ball_and_sphere_constants():
    assert kappa(0) == 1.0
    assert kappa(1) == pytest.approx(2.0)
    assert kappa(2) == pytest.approx(math.pi)
    assert kappa(3) == pytest.approx(4.0 * math.pi / 3.0)
    # omega_d = d kappa_d is the sphere area in R^d
    assert omega(1) == pytest.approx(2.0)
    assert omega(2) == pytest.approx(2.0 * math.pi)
    assert omega(3) == pytest.approx(4.0 * math.pi)


def test_multinomial_values():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(3, (1, 2)) == 3
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(4, (2, 2)) == 6
    with pytest.raises(InputError):
        multinomial(3, (1, 1))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=4))
def test_multinomial_permutation_symmetric(parts):
    d = sum(parts)
    base = multinomial(d, tuple(parts))
    assert base == multinomial(d, tuple(reversed(parts)))


def test_spawn_rngs_reproducible():
    a = [g.standard_normal(3) for g in spawn_rngs(99, 4)]
    b = [g.standard_normal(3) for g in spawn_rngs(99, 4)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    # distinct streams
    assert not np.allclose(a[0], a[1])


def test_parallel_map_order_and_thread_independence():
    items = list(range(23))
    f = lambda x: x * x
    assert parallel_map(f, items, threads=1) == [x * x for x in items]
    assert parallel_map(f, items, threads=4) == [x * x for x in items]


def test_orthonormal_columns(rng):
    q = orthonormal_columns(rng.standard_normal((5, 3)))
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)


def test_complete_basis_is_orthogonal_complement(rng):
    frame = orthonormal_columns(rng.standard_normal((4, 2)))
    rest = complete_basis(frame)
    assert rest.shape == (4, 2)
    full = np.hstack([frame, rest])
    np.testing.assert_allclose(full.T @ full, np.eye(4), atol=1e-12)


def test_gram_det(rng):
    q = orthonormal_columns(rng.standard_normal((6, 3)))
    assert gram_det(q.T @ q) == pytest.approx(1.0)
    x = rng.standard_normal((4, 2))
    cols = np.hstack([x, x[:, :1]])          # rank deficient
    assert gram_det(cols.T @ cols) == pytest.approx(0.0, abs=1e-10)
    assert gram_det(np.zeros((0, 0))) == 1.0


def test_random_rotation_is_special_orthogonal(rng):
    for d in (2, 3, 4):
        r = random_rotation(d, rng)
        np.testing.assert_allclose(r.T @ r, np.eye(d), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)


def test_random_unit_vectors_shape_and_norm(rng):
    us = random_unit_vectors(3, 100, rng)
    assert us.shape == (100, 3)
    np.testing.assert_allclose(np.linalg.norm(us, axis=1), 1.0, atol=1e-12)


def test_as_rng_accepts_seed_and_generator(rng):
    assert as_rng(5).integers(100) == as_rng(5).integers(100)
    assert as_rng(rng) is rng


# ---------------------------------------------------------------------------
# MCEstimate


def test_exact_estimate_has_zero_error():
    e = MCEstimate.exact(3.0)
    assert e.std_error == 0.0
    assert e.within(3.0)
    assert not e.within(3.1)
    assert e.within(3.1, extra_sigma=0.05)


def test_from_samples_matches_numpy(rng):
    xs = rng.standard_normal(500)
    e = from_samples(xs)
    assert e.value == pytest.approx(float(xs.mean()))
    assert e.std_error == pytest.approx(float(xs.std(ddof=1)) / math.sqrt(500))
    assert e.samples == 500


def test_from_indicator_binomial_error():
    e = from_indicator(30, 100)
    assert e.value == pytest.approx(0.3)
    assert e.std_error == pytest.approx(math.sqrt(0.3 * 0.7 / 100), rel=0.05)


def test_combine_sum_and_product():
    a = MCEstimate(2.0, 0.1, 100)
    b = MCEstimate(3.0, 0.2, 100)
    s = combine_sum([a, b])
    assert s.value == pytest.approx(5.0)
    assert s.std_error == pytest.approx(math.hypot(0.1, 0.2))
    p = combine_product([a, b])
    assert p.value == pytest.approx(6.0)
    # first-order relative errors add in quadrature
    rel = math.hypot(0.1 / 2.0, 0.2 / 3.0)
    assert p.std_error == pytest.approx(6.0 * rel, rel=1e-6)


def test_scaled_preserves_relative_error():
    e = MCEstimate(2.0, 0.5, 10).scaled(-3.0)
    assert e.value == pytest.approx(-6.0)
    assert e.std_error == pytest.approx(1.5)
