"""Exterior-algebra primitives on subspaces of R^d.

Everything here reduces to Gram determinants of frames.  Conventions used
throughout the package:

* the squared norm of a wedge v_1 ^ ... ^ v_m is det of the Gram matrix
  (the squared m-volume of the spanned parallelepiped);
* the scalar product of two simple unit m-vectors <U, A> is the determinant
  of the matrix of pairwise inner products of orthonormal frames, so
  <U, A>^2 is basis-independent;
* a Subspace is stored as an orthonormal column frame; the zero-dimensional
  subspace has an empty frame and behaves as the empty wedge (norm 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .util import complete_basis, gram_det, orthonormal_columns


def _vec(u) -> np.ndarray:
    return np.asarray(u, dtype=float).reshape(-1)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Linear subspace given by an orthonormal column frame (ambient_dim x dim)."""

    frame: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=float)
        if f.ndim != 2:
            raise InputError("Subspace frame must be 2-D (ambient x dim)")
        if f.shape[1]:
            g = f.T @ f
            if not np.allclose(g, np.eye(f.shape[1]), atol=1e-9):
                raise InputError("Subspace frame columns are not orthonormal")
        object.__setattr__(self, "frame", f)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @staticmethod
    def from_spanning(vectors, ambient_dim: int | None = None) -> "Subspace":
        v = np.asarray(vectors, dtype=float)
        if v.size == 0:
            if ambient_dim is None:
                raise InputError("ambient_dim required for an empty spanning set")
            return Subspace(np.zeros((ambient_dim, 0)))
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        return Subspace(orthonormal_columns(v))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(np.zeros((ambient_dim, 0)))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(np.eye(ambient_dim))

    def complement(self) -> "Subspace":
        return Subspace(complete_basis(self.frame, self.ambient_dim))

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.frame @ (self.frame.T @ np.asarray(x, dtype=float))

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = _vec(x)
        return bool(np.linalg.norm(x - self.project(x)) <= tol * max(1.0, np.linalg.norm(x)))

    def span_equals(self, other: "Subspace", tol: float = 1e-9) -> bool:
        if self.dim != other.dim or self.ambient_dim != other.ambient_dim:
            return False
        resid = self.frame - other.frame @ (other.frame.T @ self.frame)
        return bool(np.linalg.norm(resid) <= tol)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.span_equals(other)


def wedge_norm_sq(vectors) -> float:
    """Squared norm of v_1 ^ ... ^ v_m; 0 once m exceeds the ambient dimension.

    `vectors` is an (m x d) array of rows or a (d x m) frame; rows are assumed.
    """
    v = np.asarray(vectors, dtype=float)
    if v.size == 0:
        return 1.0
    if v.ndim == 1:
        v = v.reshape(1, -1)
    m, d = v.shape
    if m > d:
        return 0.0
    return gram_det(v @ v.T)


def subspace_determinant(subspaces):
    """Bracket [L_1, ..., L_k]: the volume of the parallelepiped spanned by
    unit cubes of the L_i.  Returns 0 when the concatenated frames are
    dependent; sum of dimensions above the ambient dimension fails softly to 0.

    `subspaces` is one tuple (Subspace objects or d x m_i frames), which
    gives a float, or a face-tuple table: a (T, d, m) stack of T tuples'
    frames side by side, which gives T brackets from one vectorised pivoted
    Cholesky (util.gram_det), each bit for bit the one-tuple value.
    """
    one = not (isinstance(subspaces, np.ndarray) and subspaces.ndim == 3)
    if one:
        frames = [np.asarray(s.frame if isinstance(s, Subspace) else s, dtype=float)
                  for s in subspaces]
        frames = [f.reshape(len(f), -1) for f in frames if f.size]
        if not frames:
            return 1.0
        subspaces = np.hstack(frames)[None]
    t, d, m = subspaces.shape
    if m > d:
        out = np.zeros(t)
    else:
        out = np.sqrt(gram_det(np.swapaxes(subspaces, 1, 2) @ subspaces))
    return float(out[0]) if one else out


def tuple_index(pools) -> np.ndarray:
    """(T, k) indices of every tuple of the pools' items, in
    itertools.product order."""
    return np.indices([len(p) for p in pools]).reshape(len(pools), -1).T


def frame_table(frames, idx) -> np.ndarray:
    """The (T, d, m) stack of the tuples idx (T, k): row t puts the frames
    frames[i][idx[t, i]] side by side, where frames[i] is a list of one
    width's (d, n_i) frames or their (F_i, d, n_i) stack."""
    return np.concatenate([np.asarray(f)[idx[:, i]] for i, f in enumerate(frames)],
                          axis=2)


def multivector_product(frame_a: np.ndarray, frame_b: np.ndarray) -> float:
    """<a_1^...^a_m, b_1^...^b_m> = det(A^T B) for equal-width frames."""
    a = np.asarray(frame_a, dtype=float)
    b = np.asarray(frame_b, dtype=float)
    if a.shape[1] != b.shape[1]:
        raise InputError("multivector grades differ")
    if a.shape[1] == 0:
        return 1.0
    return float(np.linalg.det(a.T @ b))


def graded_index_sets(dim_host: int, j: int, ell: int):
    """Index sets I in {0..dim_host-1}, |I| = j, |I ∩ {0..j-1}| = j - ell."""
    head = list(range(j))
    tail = list(range(j, dim_host))
    out = []
    for keep in itertools.combinations(head, j - ell):
        for add in itertools.combinations(tail, ell):
            out.append(keep + add)
    return out


def graded_scalar_product(U: Subspace, A: Subspace, ell: int, host: Subspace | None = None) -> float:
    """ell-graded square <U, A>^2_ell of two j-dimensional subspaces.

    Complete a U-adapted orthonormal basis (v_1..v_D) of the host space,
    U = span(v_1..v_j); sum <V_I, A>^2 over index sets with |I ∩ {1..j}| = j-ell.
    The value does not depend on the completion, and dimensions outside
    span(U ∪ A) contribute zero, so the host only matters through the range
    of admissible ell.  Summing over all ell gives 1 for unit simple A.
    """
    if U.dim != A.dim:
        raise InputError("graded product requires equal dimensions")
    j = U.dim
    if host is None:
        host = Subspace.full(U.ambient_dim)
    D = host.dim
    if not (0 <= ell <= min(j, D - j)):
        raise InputError(f"ell={ell} out of range for j={j}, host dim {D}")
    if j == 0:
        return 1.0
    # host coordinates; U occupies the first j basis slots
    u_in_host = host.frame.T @ U.frame
    a_in_host = host.frame.T @ A.frame
    u_cols = orthonormal_columns(u_in_host)
    if u_cols.shape[1] != j:
        raise InputError("U is not contained in the host subspace")
    rest = complete_basis(u_cols, D)
    basis = np.hstack([u_cols, rest])
    a = orthonormal_columns(a_in_host)
    if a.shape[1] != j:
        raise InputError("A is not contained in the host subspace")
    total = 0.0
    for I in graded_index_sets(D, j, ell):
        total += multivector_product(basis[:, list(I)], a) ** 2
    return total
