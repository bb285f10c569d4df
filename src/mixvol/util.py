"""Small helpers: the one input rule for bodies, degrees and counts, sphere
constants, combinatorics, orthonormalization, RNG plumbing."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import InputError


def kappa(k: int) -> float:
    """Volume of the k-dimensional unit ball."""
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def omega(k: int) -> float:
    """Surface measure of the unit sphere S^{k-1} in R^k; omega(k) = k*kappa(k)."""
    if k <= 0:
        raise InputError(f"omega requires k >= 1, got {k}")
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def multinomial(d: int, parts) -> int:
    parts = tuple(int(p) for p in parts)
    if any(p < 0 for p in parts) or sum(parts) != d:
        raise InputError(f"multidegree {parts} does not sum to {d}")
    out = math.factorial(d)
    for p in parts:
        out //= math.factorial(p)
    return out


def as_integer(x):
    """int(x) when x is an integral number other than a bool, else None."""
    if isinstance(x, (bool, np.bool_)):
        return None
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == x else None


def check_degrees(d: int, degrees, mode: str = "n") -> tuple:
    """The multidegree rule shared by every route; returns the degrees as ints.

    mode "n" (mixed volumes V(K_1[n_1], .., K_k[n_k])): each n_i in 0..d-1
    and the n_i sum to d.  mode "r" (translative functionals V_r): each r_i
    in 1..d-1 and the r_i sum to at least (k-1)d.  Both need k >= 2.
    """
    ints = tuple(map(as_integer, degrees)) if np.iterable(degrees) else (None,)
    if None in ints:
        raise InputError(f"degrees must be integers, got {degrees!r}")
    degrees = ints
    k = len(degrees)
    if k < 2:
        raise InputError("need at least two bodies")
    if mode == "n":
        lo, ok, rule = 0, sum(degrees) == d, f"sum to d={d}"
    elif mode == "r":
        lo, ok = 1, sum(degrees) >= (k - 1) * d
        rule = f"sum to at least (k-1)d={(k - 1) * d}"
    else:
        raise InputError('degree mode must be "n" or "r"')
    if any(not lo <= x <= d - 1 for x in degrees):
        raise InputError(f"degrees {degrees} must lie in {lo}..{d - 1}")
    if not ok:
        raise InputError(f"degrees {degrees} must {rule}")
    return degrees


def check_bodies(polytopes, degrees=None, mode: str = "n"):
    """(d, degrees) for at least two bodies of one ambient dimension; the
    degrees (one per body) follow check_degrees, None skips them."""
    if len(polytopes) < 2:
        raise InputError("need at least two bodies")
    d = polytopes[0].dim
    if any(p.dim != d for p in polytopes):
        raise InputError("ambient dimension mismatch")
    if degrees is None:
        return d, None
    if len(degrees) != len(polytopes):
        raise InputError("one degree per body required")
    return d, check_degrees(d, degrees, mode)


def check_count(n, name: str = "samples") -> int:
    """A positive integer count (sample budgets, trial counts)."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def as_rng(rng_or_seed) -> np.random.Generator:
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.default_rng(rng_or_seed)


def spawn_rngs(rng_or_seed, n: int) -> list[np.random.Generator]:
    """n independent child generators; deterministic given the seed or generator state."""
    if isinstance(rng_or_seed, np.random.Generator):
        root = np.random.SeedSequence(int(rng_or_seed.integers(0, 2**63 - 1)))
    else:
        root = np.random.SeedSequence(rng_or_seed)
    return [np.random.default_rng(ss) for ss in root.spawn(n)]


def parallel_map(fn, items, threads: int = 1):
    """Ordered map; results do not depend on thread count."""
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def orthonormal_columns(vectors: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormalize columns by modified Gram-Schmidt with re-orthogonalization.

    Near-dependent columns are dropped; returns a matrix with orthonormal columns
    spanning the same space.
    """
    a = np.atleast_2d(np.asarray(vectors, dtype=float))
    if a.shape[1] == 0:
        return a.reshape(a.shape[0], 0)
    cols = []
    for j in range(a.shape[1]):
        v = a[:, j].copy()
        for _ in range(2):  # second pass kills round-off loss of orthogonality
            for q in cols:
                v -= np.dot(q, v) * q
        nv = np.linalg.norm(v)
        if nv > tol:
            cols.append(v / nv)
    if not cols:
        return np.zeros((a.shape[0], 0))
    return np.column_stack(cols)


def complete_basis(frame: np.ndarray, ambient: int | None = None) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given frame's span."""
    frame = np.asarray(frame, dtype=float)
    n = frame.shape[0] if ambient is None else ambient
    if frame.size == 0:
        return np.eye(n)
    proj = np.eye(n) - frame @ frame.T
    # eigen-decomposition is stable here and keeps the output deterministic
    w, v = np.linalg.eigh(proj)
    keep = w > 0.5
    return orthonormal_columns(v[:, keep])


def gram_det(gram: np.ndarray):
    """Determinants of PSD Gram matrices (..., n, n) by pivoted Cholesky, each
    matrix with its own pivot order; a pivot <= 0 (round-off included) makes
    the determinant 0.  Vectorised over the leading axes, every matrix gets
    the floating-point operations of the one-matrix loop, so its value does
    not depend on the batch.  A float for one (n, n) matrix."""
    a = np.array(gram, dtype=float)
    lead, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(math.prod(lead), n, n)
    t = np.arange(len(a))
    det = np.ones(len(a))
    live = np.ones(len(a), dtype=bool)
    for i in range(n):
        perm = np.tile(np.arange(n), (len(a), 1))
        piv = i + np.argmax(np.diagonal(a, axis1=1, axis2=2)[:, i:], axis=1)
        perm[t, i], perm[t, piv] = piv, i
        a = a[t[:, None, None], perm[:, :, None], perm[:, None, :]]
        p = a[:, i, i]
        live &= p > 0.0
        p = np.where(live, p, 1.0)
        det *= p
        row = a[:, i, i + 1:] / p[:, None]
        a[:, i + 1:, i + 1:] -= a[:, i + 1:, i, None] * row[:, None, :]
    det = np.where(live, np.maximum(det, 0.0), 0.0)
    return float(det[0]) if not lead else det.reshape(lead)


def random_unit_vectors(d: int, n: int, rng) -> np.ndarray:
    g = as_rng(rng).standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_rotation(d: int, rng) -> np.ndarray:
    """Haar-ish rotation from QR of a Gaussian matrix, determinant fixed to +1."""
    g = as_rng(rng).standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
