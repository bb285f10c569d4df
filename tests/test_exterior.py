"""Wedge products, graded scalar products, and subspace sampling.

The load-bearing identities: Cauchy-Binet for wedge norms, the graded
decomposition of squared subspace cosines summing to one, and the mean
squared cosine of a Haar subspace pair being 1/binom(m, j).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixvol.exterior import (Subspace, graded_index_sets,
                             graded_scalar_product, subspace_determinant,
                             tangent_subspace, wedge_norm_sq)
from mixvol.flag_calculus import _batched_uniform_in
from mixvol.kernels import perp_spread
from mixvol.util import orthonormal_columns


def test_wedge_norm_conventions():
    assert wedge_norm_sq(np.zeros((0, 3))) == 1.0          # empty product
    assert wedge_norm_sq(np.ones((4, 3))) == 0.0           # overfull
    rows = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert wedge_norm_sq(rows) == pytest.approx(4.0)


def test_wedge_norm_is_gram_determinant(rng):
    rows = rng.standard_normal((3, 5))
    gram = rows @ rows.T
    assert wedge_norm_sq(rows) == pytest.approx(np.linalg.det(gram))


def test_wedge_norm_cauchy_binet(rng):
    # sum over all maximal minors squared
    rows = rng.standard_normal((2, 4))
    total = sum(np.linalg.det(rows[:, list(c)]) ** 2
                for c in itertools.combinations(range(4), 2))
    assert wedge_norm_sq(rows) == pytest.approx(total)


def test_subspace_determinant_orthogonal_slots():
    a = Subspace(np.eye(4)[:, :2])
    b = Subspace(np.eye(4)[:, 2:])
    assert subspace_determinant([a, b]) == pytest.approx(1.0)
    assert subspace_determinant([a, a]) == pytest.approx(0.0)


def test_subspace_determinant_angle_2d():
    for theta in (0.3, 1.0, 1.5):
        a = Subspace(np.array([[1.0], [0.0]]))
        b = Subspace(np.array([[math.cos(theta)], [math.sin(theta)]]))
        assert subspace_determinant([a, b]) == pytest.approx(
            abs(math.sin(theta)))


def test_subspace_complement(rng):
    s = Subspace.from_spanning(rng.standard_normal((5, 2)))
    c = s.complement()
    assert c.dim == 3
    np.testing.assert_allclose(s.frame.T @ c.frame, 0.0, atol=1e-12)


def test_graded_index_sets_counts():
    # choosing ell columns from the complement and j - ell from the frame
    sets = graded_index_sets(4, 2, 1)
    assert len(sets) == math.comb(2, 1) * math.comb(2, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 10 ** 6))
def test_graded_products_sum_to_one(m, joff, seed):
    j = 1 + joff % (m - 1)
    rng = np.random.default_rng(seed)
    u = Subspace.from_spanning(rng.standard_normal((m, j)))
    a = Subspace.from_spanning(rng.standard_normal((m, j)))
    parts = [graded_scalar_product(u, a, ell)
             for ell in range(min(j, m - j) + 1)]
    assert all(p >= -1e-12 for p in parts)
    assert sum(parts) == pytest.approx(1.0, abs=1e-9)


def test_graded_product_zero_grade_is_plain_cosine(rng):
    u = Subspace.from_spanning(rng.standard_normal((4, 2)))
    a = Subspace.from_spanning(rng.standard_normal((4, 2)))
    plain = np.linalg.det(u.frame.T @ a.frame) ** 2
    assert graded_scalar_product(u, a, 0) == pytest.approx(plain)


def test_diag_projection_norm_identity(rng):
    # squared distance from the diagonal = sum ||v_i||^2 - k ||mean||^2
    vs = rng.standard_normal((3, 4))
    mean = vs.mean(axis=0)
    want = math.sqrt(np.sum(vs * vs) - 3 * np.dot(mean, mean))
    assert perp_spread(vs) == pytest.approx(want, abs=1e-12)


def test_uniform_subspace_mean_cosine(rng):
    # E <U, A>^2 = 1 / binom(m, j) for independent Haar pairs
    m, j, n = 4, 2, 4000
    a = Subspace(np.eye(m)[:, :j])
    us = _batched_uniform_in(np.broadcast_to(np.eye(m), (n, m, m)), j, rng)
    vals = np.linalg.det(np.swapaxes(us, 1, 2) @ a.frame) ** 2
    want = 1.0 / math.comb(m, j)
    se = vals.std(ddof=1) / math.sqrt(n)
    assert abs(vals.mean() - want) <= 4.0 * se


def test_uniform_subspace_lives_in_normal_complement(rng):
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    host = Subspace.from_spanning(u).complement().frame
    v = _batched_uniform_in(host[None], 2, rng)[0]
    np.testing.assert_allclose(v.T @ u, 0.0, atol=1e-10)
    np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-10)


def test_tangent_subspace_orthogonal_to_normal_and_face(rng):
    face_frame = orthonormal_columns(rng.standard_normal((4, 1)))
    # a normal direction orthogonal to the face
    raw = rng.standard_normal(4)
    raw -= face_frame[:, 0] * (face_frame[:, 0] @ raw)
    u = raw / np.linalg.norm(raw)
    t = tangent_subspace(u, face_frame)
    assert t.dim == 2
    np.testing.assert_allclose(t.frame.T @ u, 0.0, atol=1e-10)
    np.testing.assert_allclose(t.frame.T @ face_frame, 0.0, atol=1e-10)
