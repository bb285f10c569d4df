"""Convex polytopes with explicit face lattices and normal cones.

Construction is brute force over vertex subsets (desk scale: ambient
dimension <= 4, a few dozen vertices).  `sum_volume` over a grid of
coefficient rows pays that once per sign pattern: the rows of a pattern
share one normal fan, so they share the first row's vertex choices and
facets, and one batched pass measures them all.  Volumes come from facet
recursion (a pyramid over each facet, down to polygons and segments) over
a leading row axis: a face's structure (its hull, a polygon's vertex cycle)
is taken from the first row and the arithmetic runs over every row; a
single body is one row.  Volumes never build the face lattice.  The
lattice is graded on the first call to `faces`: vertex sets and
dimensions only.  A face's frame, measure (by the same recursion, in the
face's own frame) and normal cone are computed when first read, so a
query on a fresh body pays for the faces it reads; `face_lattice()`
computes them for every face and so warms the body.
Lower-dimensional bodies (segments, points) are supported through
`Polytope.hull(..., allow_degenerate=True)`; their faces include the
relative-interior top face, whose normal cone picks up lineality.
`hull_from_points` keeps the strict contract and raises on degenerate input.

A similarity x -> a x + t (a^T a = s^2 I) maps a hull to a hull, so
`transform` by such a matrix, `negate` and `translate` carry the body's
vertices, facet normals and affine frame over instead of hulling again;
other matrices hull the mapped vertices.  Every tolerance is relative to
the largest coordinate of the points (1 for a point at the origin), so a
tiny body keeps its dimension.

All derived data is deterministic: vertices are sorted lexicographically,
facets by (normal, offset), faces by (dim, vertex ids).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InputError
from .estimates import MCEstimate
from .exterior import Subspace
from .util import complete_basis, multinomial, kappa, omega, orthonormal_columns

_TOL = 1e-9


# ---------------------------------------------------------------------------
# faces and normal cones


@dataclass(frozen=True, eq=False)
class NormalCone:
    """Normal cone N(P, F) = {u : <u, v - c_F> <= 0 for all vertices v}.

    `ineq` rows are the unit-normalized (v - c_F); the solution set of the
    inequalities equals the cone exactly (face vertices force equality).
    `span` is an orthonormal frame of lin(F)^perp, the linear span of the
    cone.
    """

    ineq: np.ndarray
    span: np.ndarray
    generators: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.span.shape[0]

    @property
    def dim(self) -> int:
        """Linear dimension of the cone (= d - dim F)."""
        return self.span.shape[1]

    def contains(self, u, tol: float = 1e-9) -> bool:
        u = np.asarray(u, dtype=float)
        if self.ineq.shape[0] and float(np.max(self.ineq @ u)) > tol:
            return False
        resid = u - self.span @ (self.span.T @ u)
        return bool(np.linalg.norm(resid) <= tol * max(1.0, np.linalg.norm(u)))

    def member_mask(self, us: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Vectorized membership for unit vectors already inside the span."""
        if self.ineq.shape[0] == 0:
            return np.ones(us.shape[0], dtype=bool)
        return (us @ self.ineq.T <= tol).all(axis=1)


class Face:
    """A face F of a polytope.

    `vertex_ids`, `dim`, `vertices` and `centroid` are set when the body
    grades its lattice.  `frame` (the direction space of aff F), `measure`
    (H^dim of F) and `normal_cone` are computed on first access from the
    body's vertex and facet arrays, and kept.  Each is a pure function of
    those arrays, so two threads that both compute one get the same value.
    """

    __slots__ = ("vertex_ids", "dim", "vertices", "centroid",
                 "_body", "_frame", "_measure", "_cone")

    def __init__(self, vertex_ids: tuple, dim: int, body: _BodyArrays):
        self.vertex_ids = vertex_ids
        self.dim = dim
        self.vertices = body.vertices[list(vertex_ids)]
        self.centroid = self.vertices.mean(axis=0)
        self._body = body
        self._frame = self._measure = self._cone = None

    @property
    def frame(self) -> Subspace:
        if self._frame is None:
            # the body's relative tolerance, as in hull: an absolute one reads
            # rounding of far-translated vertices as an extra dimension
            self._frame = Subspace(orthonormal_columns(
                (self.vertices - self.centroid).T, tol=self._body.tol)) \
                if len(self.vertex_ids) > 1 else Subspace.zero(self.vertices.shape[1])
        return self._frame

    @property
    def measure(self) -> float:
        if self._measure is None:
            local = (self.vertices - self.centroid) @ self.frame.frame
            self._measure = float(_face_volume(local[None], self._body.tol)[0])
        return self._measure

    @property
    def normal_cone(self) -> NormalCone:
        if self._cone is None:
            b = self._body
            ids = frozenset(self.vertex_ids)
            fns = [n for n, fids in b.facets if ids <= fids]
            fn_arr = np.array(fns) if fns else np.zeros((0, b.vertices.shape[1]))
            self._cone = _build_cone(b.vertices, self.vertices, self.frame, fn_arr,
                                     b.lineality)
        return self._cone


@dataclass(frozen=True, eq=False)
class _BodyArrays:
    """What a body's faces compute their geometry from: the vertices, the
    facets as (unit normal, vertex id set), an orthonormal basis of
    (lin aff P)^perp, which every normal cone contains, and the body's
    tolerance.  The faces
    hold this and not the body, so no reference cycle forms."""

    vertices: np.ndarray
    facets: list
    lineality: np.ndarray
    tol: float


def _build_cone(all_vertices: np.ndarray, face_vertices: np.ndarray,
                face_frame: Subspace, facet_normals: np.ndarray,
                lineality_basis: np.ndarray) -> NormalCone:
    c = face_vertices.mean(axis=0)
    rows = all_vertices - c
    keep = np.linalg.norm(rows, axis=1) > 1e-12
    rows = rows[keep]
    if rows.shape[0]:
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    span = face_frame.complement().frame
    gens = [facet_normals] if facet_normals.size else []
    for q in lineality_basis.T:
        gens.append(q.reshape(1, -1))
        gens.append(-q.reshape(1, -1))
    generators = np.vstack(gens) if gens else np.zeros((0, all_vertices.shape[1]))
    return NormalCone(ineq=rows, span=span, generators=generators)


# ---------------------------------------------------------------------------
# brute-force hull in full-dimensional coordinates


def _dedupe_order(pts: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the lex-sorted points without near-duplicates: a point is
    dropped when it lies within tol of a point kept before it (first-come
    greedy).  Points with no neighbour within tol are always kept, so after
    one pairwise distance pass the greedy loop runs over the others only."""
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    m = pts.shape[0]
    close = np.zeros((m, m), dtype=bool)
    rows = max(1, 2 ** 20 // max(m * pts.shape[1], 1))  # bounds the (rows, m, d) block
    for s in range(0, m, rows):
        close[s:s + rows] = np.linalg.norm(pts[s:s + rows, None] - pts[None], axis=2) <= tol
    close = np.tril(close, -1)
    keep = np.ones(m, dtype=bool)
    for i in np.flatnonzero(close.any(axis=1)):
        keep[i] = not keep[close[i]].any()
    return order[keep]


def _dedupe_points(pts: np.ndarray, tol: float) -> np.ndarray:
    return pts[_dedupe_order(pts, tol)]


def _batched_normals(diffs: np.ndarray) -> np.ndarray:
    """Vector orthogonal to dd-1 difference vectors in R^dd, dd in 1..4."""
    c, m, dd = diffs.shape
    if dd == 1:
        return np.ones((c, 1))
    if dd == 2:
        d0 = diffs[:, 0, :]
        return np.stack([-d0[:, 1], d0[:, 0]], axis=1)
    if dd == 3:
        return np.cross(diffs[:, 0, :], diffs[:, 1, :])
    if dd == 4:
        out = np.empty((c, 4))
        cols = np.arange(4)
        for i in range(4):
            minor = diffs[:, :, cols != i]
            out[:, i] = ((-1.0) ** i) * np.linalg.det(minor)
        return out
    raise InputError(f"ambient dimension {dd} not supported")


def _candidate_facets(pts: np.ndarray, tol: float):
    """All supporting hyperplanes through dd affinely independent points,
    as (unit normals, offsets) arrays."""
    M, dd = pts.shape
    if dd == 1:
        return np.array([[-1.0], [1.0]]), np.array([-pts[:, 0].min(), pts[:, 0].max()])
    combos = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(M), dd)),
                         dtype=int, count=math.comb(M, dd) * dd).reshape(-1, dd)
    normals, offsets = [np.zeros((0, dd))], [np.zeros(0)]
    chunk = max(1, 200000 // max(M, 1))
    for s in range(0, combos.shape[0], chunk):
        c = combos[s:s + chunk]
        base = pts[c[:, 0]]
        diffs = pts[c[:, 1:]] - base[:, None, :]
        ns = _batched_normals(diffs)
        mag = np.linalg.norm(ns, axis=1)
        # relative to the volume the differences could span at most, so that
        # the cut does not grow with the body's size in the degree dd - 1
        ok = mag > 1e-12 * np.prod(np.linalg.norm(diffs, axis=2), axis=1)
        if not ok.any():
            continue
        ns = ns[ok] / mag[ok, None]
        offs = np.einsum("ij,ij->i", ns, base[ok])
        side = pts @ ns.T - offs  # (M, Cc)
        up = side.max(axis=0) <= tol
        down = side.min(axis=0) >= -tol
        normals += [ns[up], -ns[down]]
        offsets += [offs[up], -offs[down]]
    return np.concatenate(normals), np.concatenate(offsets)


def _dedupe_planes(normals: np.ndarray, offsets: np.ndarray, tol: float):
    """Greedy grouping: keep a plane unless it lies within 1e-6 in normal and
    10 tol in offset of a plane kept before it.  One vectorised pass per kept
    plane."""
    keep = []
    idx = np.arange(len(offsets))
    while idx.size:
        i = idx[0]
        keep.append(i)
        far = ((np.abs(offsets[idx] - offsets[i]) > 10 * tol)
               | (np.linalg.norm(normals[idx] - normals[i], axis=1) > 1e-6))
        idx = idx[far]
    return normals[keep], offsets[keep]


def _hull_core(pts: np.ndarray, tol: float):
    """Facets and extreme points of a full-dimensional point set.

    Returns (vertex indices into pts, lex-sorted by position; facet list)
    with facet = (unit normal, offset, vertex index tuple) referring to the
    returned vertex order.
    """
    dd = pts.shape[1]
    normals, offsets = _dedupe_planes(*_candidate_facets(pts, tol), tol)
    if not len(offsets):
        raise DegenerateInputError("no supporting hyperplanes found")
    on = np.abs(pts @ normals.T - offsets) <= 5 * tol  # (M, F)
    for j in np.flatnonzero(on.sum(axis=0) > dd):
        # refit the plane through its incident points for better conditioning
        sub = pts[on[:, j]]
        c = sub.mean(axis=0)
        _, _, vt = np.linalg.svd(sub - c)
        n2 = vt[-1] if np.dot(vt[-1], normals[j]) >= 0 else -vt[-1]
        off2 = float(np.dot(n2, c))
        if (pts @ n2 - off2).max() <= 5 * tol:
            normals[j], offsets[j] = n2, off2
    normals, offsets = _dedupe_planes(normals, offsets, tol)
    # a point is a vertex when the normals of the planes through it span R^dd
    active = np.abs(pts @ normals.T - offsets) <= 5 * tol  # (M, F)
    sv = np.linalg.svd(active[:, :, None] * normals, compute_uv=False)
    idx = np.flatnonzero((sv > 1e-8).sum(axis=1) == dd)
    if idx.size < dd + 1:
        raise DegenerateInputError("extreme point set is not full-dimensional")
    idx = idx[np.lexsort(pts[idx].T[::-1])]
    facets = []
    for n, off, col in zip(normals, offsets, active[idx].T):
        ids = tuple(int(i) for i in np.flatnonzero(col))
        if len(ids) >= dd:
            facets.append((n, float(off), ids))
    facets.sort(key=lambda f: (tuple(np.round(f[0], 12)), round(f[1], 12)))
    return idx, facets


def _face_volume(pts: np.ndarray, tol: float) -> np.ndarray:
    """H^d measure of a face in each row of pts (rows, m, d), its vertices in
    local coordinates spanning R^d: a point has measure 1, a segment
    max - min, a polygon the shoelace formula, higher faces their pyramids.
    The rows are one face at several positions of one combinatorial type,
    so the polygon's vertex cycle (an angular sort) and a higher face's hull
    are taken from the first row and serve every row."""
    d = pts.shape[2]
    if d < 2:
        return np.ptp(pts[:, :, 0], axis=1) if d else np.ones(pts.shape[0])
    if d == 2:
        w = pts - pts.mean(axis=1, keepdims=True)
        cyc = np.argsort(np.arctan2(w[0, :, 1], w[0, :, 0]))
        a, b = w[:, cyc], w[:, np.concatenate([cyc[1:], cyc[:1]])]
        return 0.5 * np.abs(np.vecdot(a[:, :, 0], b[:, :, 1])
                            - np.vecdot(a[:, :, 1], b[:, :, 0]))
    idx, facets = _hull_core(pts[0], tol)
    return _pyramid_volume(pts[:, idx], facets, tol)


def _facet_areas(verts: np.ndarray, facets, normals: np.ndarray, tol: float) -> np.ndarray:
    """(rows, F) (d-1)-volumes of the facets (unit normals (F, d), vertex
    ids) in each row of verts (rows, m, d).  A facet is measured after
    dropping the largest coordinate k of its normal, which scales its
    (d-1)-volume by |u_k|."""
    d = verts.shape[2]
    keep = [[i for i in range(d) if i != k] for k in range(d)]
    out = np.empty((verts.shape[0], len(facets)))
    for j, ((_, _, ids), k) in enumerate(zip(facets, np.argmax(np.abs(normals), axis=1))):
        out[:, j] = _face_volume(verts[:, list(ids)].take(keep[k], axis=2), tol)
    return out / np.abs(normals).max(axis=1)


def _pyramid_volume(verts: np.ndarray, facets, tol: float) -> np.ndarray:
    """V(P) = (1/d) sum_F (h(P, u_F) - <u_F, c>) V_{d-1}(F) for each row of
    verts (rows, m, d), c the vertex centroid and h read at the facet's
    first vertex (Schneider, Convex Bodies, ch. 5).  Every row has the
    facets' vertex ids and normals."""
    normals = np.array([n for n, _, _ in facets])
    h = np.vecdot(verts[:, [ids[0] for _, _, ids in facets]], normals) \
        - np.vecdot(verts.mean(axis=1, keepdims=True), normals)
    return np.sum(h * _facet_areas(verts, facets, normals, tol), axis=1) / verts.shape[2]


def _surface_measure(p: Polytope):
    """S_{d-1}(P) as (unit normals (m, d), weights (m,)), without the face
    lattice.  A full-dimensional body gives its facet normals and facet
    areas (each facet measured as in _pyramid_volume); a body of dimension
    d - 1 gives +-n, n normal to its affine hull, each weighted with its own
    (d-1)-volume; lower-dimensional bodies give an empty measure.  The
    arrays are cached on p and read-only."""
    if p._surface is not None:
        return p._surface
    d, tol = p.dim, p._tol()
    if p.intrinsic_dim == d:
        normals = np.array([n for n, _, _ in p.facets])
        out = normals, _facet_areas(p.vertices[None], p.facets, normals, tol)[0]
    elif p.intrinsic_dim == d - 1:
        n = complete_basis(p._frame, d)[:, 0]
        area = _face_volume(((p.vertices - p._origin) @ p._frame)[None], tol)[0]
        out = np.array([n, -n]), np.array([area, area])
    else:
        out = np.zeros((0, d)), np.zeros(0)
    for a in out:
        a.flags.writeable = False
    p._surface = out
    return out


def _scale(x: np.ndarray) -> float:
    """max |x|, the size every tolerance of a point set is relative to; 1 for
    an all-zero set (a point at the origin)."""
    m = float(np.max(np.abs(x)))
    return m if m > 0.0 else 1.0


def _sorted_body(verts, facets, idim, origin, frame, name) -> Polytope:
    """A Polytope in canonical order from vertices and facets given as
    (ambient unit normal, vertex ids): vertices lex-sorted, each facet's ids
    remapped and sorted, its offset read off its first vertex, facets sorted
    by (normal, offset)."""
    order = np.lexsort(verts.T[::-1])
    inv = np.empty(len(order), dtype=int)
    inv[order] = np.arange(len(order))
    verts = verts[order]
    out = []
    for n, ids in facets:
        ids = tuple(sorted(int(inv[i]) for i in ids))
        out.append((n, float(np.dot(n, verts[ids[0]])), ids))
    out.sort(key=lambda f: (tuple(np.round(f[0], 12)), round(f[1], 12)))
    return Polytope(verts, out, idim, origin, frame, name)


# ---------------------------------------------------------------------------
# the polytope type


class Polytope:
    def __init__(self, vertices, facets, intrinsic_dim, origin, frame, name=None):
        self.vertices = vertices          # (V, d) ambient, lex sorted
        self.name = name or "polytope"
        self.intrinsic_dim = intrinsic_dim
        self._origin = origin
        self._frame = frame               # (d, intrinsic_dim)
        self.facets = facets              # ambient-lifted (normal, offset, vertex ids)
        self._faces = None                # _graded(): faces, geometry on first use
        self._lattice = None              # face_lattice(): the same faces, all computed
        # volume() and _surface_measure, computed once: a body never changes
        self._volume = None
        self._surface = None

    # -- construction

    @staticmethod
    def hull(points, name=None, allow_degenerate=False) -> "Polytope":
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InputError("expected a nonempty (m x d) array of points")
        d = pts.shape[1]
        tol = _TOL * _scale(pts)
        pts = _dedupe_points(pts, tol)
        origin = pts.mean(axis=0)
        frame = orthonormal_columns((pts - origin).T, tol=tol)
        idim = frame.shape[1]
        if idim < d and not allow_degenerate:
            raise DegenerateInputError(
                f"points span an affine subspace of dimension {idim} < {d}",
                intrinsic_dim=idim,
            )
        if idim == 0:
            verts = pts[:1]
            return Polytope(verts, [], 0, verts[0], frame, name)
        local = (pts - origin) @ frame
        idx, facets_local = _hull_core(local, tol)
        return _sorted_body(local[idx] @ frame.T + origin,
                            [(frame @ n, ids) for n, _, ids in facets_local],
                            idim, origin, frame, name)

    def _moved(self, a: np.ndarray, s: float, t: np.ndarray, name) -> "Polytope":
        """The image under x -> a x + t, for a similarity a (a^T a = s^2 I,
        s > 0), read off this body's hull: a similarity maps vertices to
        vertices, facets to facets and normals n to a n / s (Schneider,
        Convex Bodies, sect. 1.7), so nothing is hulled again."""
        return _sorted_body(self.vertices @ a.T + t,
                            [(a @ n / s, ids) for n, _, ids in self.facets],
                            self.intrinsic_dim, self._origin @ a.T + t,
                            a @ self._frame / s, name)

    # -- basic queries

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def is_full_dimensional(self) -> bool:
        return self.intrinsic_dim == self.dim

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        rel = x - self._origin
        resid = rel - self._frame @ (self._frame.T @ rel)
        if np.linalg.norm(resid) > tol * max(1.0, np.linalg.norm(x)):
            return False
        return all(float(np.dot(n, x)) <= off + tol for n, off, _ in self.facets)

    def halfspaces(self):
        """(A, b) with the body = {x : A x <= b}; full-dimensional bodies only."""
        if not self.is_full_dimensional():
            raise InputError("H-representation requires a full-dimensional body")
        A = np.array([f[0] for f in self.facets])
        b = np.array([f[1] for f in self.facets])
        return A, b

    def translate(self, t) -> "Polytope":
        """The body moved by t; its hull is carried over, not recomputed."""
        return self._moved(np.eye(self.dim), 1.0, np.asarray(t, dtype=float), self.name)

    def transform(self, matrix) -> "Polytope":
        """The image under x -> matrix x.  A similarity (matrix^T matrix =
        s^2 I, s > 0) carries this body's hull over; any other matrix
        (shear, anisotropic scaling, singular, another shape) hulls the
        mapped vertices."""
        a = np.asarray(matrix, dtype=float)
        d = self.dim
        if a.shape == (d, d):
            g = a.T @ a
            s2 = float(np.trace(g)) / d
            if s2 > 0 and np.max(np.abs(g - s2 * np.eye(d))) <= 1e-12 * s2:
                return self._moved(a, math.sqrt(s2), np.zeros(d), self.name)
        return Polytope.hull(self.vertices @ a.T, name=self.name, allow_degenerate=True)

    def negate(self) -> "Polytope":
        """-P, carried over from this body's hull."""
        return self._moved(-np.eye(self.dim), 1.0, np.zeros(self.dim), f"-{self.name}")

    # -- face lattice

    def _graded(self) -> dict[int, list[Face]]:
        """Faces by dimension, with their geometry not yet computed.

        The vertex sets are the closure of the facets under intersection.
        Each face's dimension is read off the lattice's grading: its
        smallest proper superset among the faces covers it, so is one
        dimension up, and the whole body has `intrinsic_dim`."""
        if self._faces is not None:
            return self._faces
        d, n = self.dim, self.n_vertices
        facet_sets = [frozenset(ids) for _, _, ids in self.facets]
        all_sets = set(facet_sets)
        work = list(all_sets)
        while work:
            new = []
            for s in work:
                for f in facet_sets:
                    t = s & f
                    if t and t not in all_sets:
                        all_sets.add(t)
                        new.append(t)
            work = new
        # vertices of a body with no facets through them (e.g. a point body)
        all_sets.update(frozenset([i]) for i in range(n))
        top = frozenset(range(n))
        all_sets.discard(top)
        lin_basis = complete_basis(self._frame, d) \
            if self.intrinsic_dim < d else np.zeros((d, 0))
        body = _BodyArrays(self.vertices, [(f[0], s) for f, s in zip(self.facets, facet_sets)],
                           lin_basis, self._tol())

        graded = [(top, self.intrinsic_dim)]  # by decreasing size
        for s in sorted(all_sets, key=len, reverse=True):
            graded.append((s, next(k for t, k in reversed(graded) if s < t) - 1))
        # a lower-dimensional body keeps its top face: the relative interior
        # is a proper piece of the normal bundle
        if self.intrinsic_dim == d:
            del graded[0]
        by_dim: dict[int, list[Face]] = {}
        for s, k in graded:
            by_dim.setdefault(k, []).append(Face(tuple(sorted(s)), k, body))
        for k in by_dim:
            by_dim[k].sort(key=lambda f: f.vertex_ids)
        self._faces = by_dim
        return by_dim

    def face_lattice(self) -> dict[int, list[Face]]:
        """Faces by dimension.  Full-dimensional bodies: proper faces 0..d-1.
        Lower-dimensional bodies additionally expose the relative-interior
        top face at its own dimension (its normal cone is nontrivial).

        Unlike `faces`, this computes every face's frame, measure and normal
        cone before it returns, so a body that has been through it is warm:
        later queries on it pay for no face geometry."""
        if self._lattice is None:
            lattice = self._graded()
            for faces in lattice.values():
                for f in faces:
                    _ = f.normal_cone, f.measure
            self._lattice = lattice
        return self._lattice

    def faces(self, j: int) -> list[Face]:
        """The j-faces, sorted by vertex ids.  A face's frame, measure and
        normal cone are computed when first read, so a query on a fresh body
        pays only for the faces it reads."""
        if j < 0:
            raise InputError("face dimension must be >= 0")
        return self._graded().get(j, [])

    def _tol(self) -> float:
        return _TOL * _scale(self.vertices)

    def volume(self) -> float:
        """H^d measure by facet recursion, without the face lattice; 0 for
        lower-dimensional bodies."""
        if self._volume is None:
            self._volume = float(_pyramid_volume(self.vertices[None], self.facets,
                                                 self._tol())[0]) \
                if self.is_full_dimensional() else 0.0
        return self._volume

    # -- metric quantities

    def intrinsic_volume(self, j: int, rng=None, samples: int = 40000) -> float:
        """V_j via weighted external angles over j-faces.

        Exact whenever every j-face normal cone has spherical dimension <= 1
        (always for d <= 3); higher-dimensional cones need Monte Carlo and an
        rng.  V_0 = 1 (Euler characteristic), V_d = volume.
        """
        from .cones import external_angle  # late import, cones builds on this module

        d = self.dim
        if not (0 <= j <= d):
            raise InputError(f"intrinsic volume index {j} out of range")
        if j > self.intrinsic_dim:
            return 0.0
        if j == 0:
            return 1.0
        if j == d:
            return self.volume()
        total = 0.0
        for f in self.faces(j):
            gamma = external_angle(self, f, rng=rng, samples=samples)
            total += gamma.value * f.measure
        return total

    def support(self, u) -> float:
        return float(np.max(self.vertices @ np.asarray(u, dtype=float)))


# ---------------------------------------------------------------------------
# public constructors and algebra


def hull_from_points(points, name=None) -> Polytope:
    """Strict hull: raises DegenerateInputError (with intrinsic_dim) when the
    input is not full-dimensional."""
    return Polytope.hull(points, name=name, allow_degenerate=False)


def minkowski_sum(p: Polytope, q: Polytope, name=None) -> Polytope:
    if p.dim != q.dim:
        raise InputError("dimension mismatch in Minkowski sum")
    pts = (p.vertices[:, None, :] + q.vertices[None, :, :]).reshape(-1, p.dim)
    return Polytope.hull(pts, name=name or f"{p.name}+{q.name}", allow_degenerate=True)


def scaled_sum(coeffs, polys, name=None) -> Polytope:
    """Hull of all sums sum_i t_i v_i over vertex choices; t_i >= 0."""
    coeffs = [float(t) for t in coeffs]
    if len(coeffs) != len(polys):
        raise InputError("one coefficient per body required")
    if any(t < 0 for t in coeffs):
        raise InputError("scaled_sum needs nonnegative coefficients")
    if any(p.dim != polys[0].dim for p in polys):
        raise InputError("dimension mismatch in scaled sum")
    return Polytope.hull(_sum_points(coeffs, [p.vertices for p in polys])[0],
                         name=name, allow_degenerate=True)


def _sum_points(coeffs, vertex_sets):
    """Deduplicated sums sum_i t_i v_i over vertex choices, t_i = 0 skipped,
    as (points (M, d), choices (M, k')): row j of choices holds the index
    of the vertex that point j takes from each of the k' bodies with
    t_i != 0."""
    d = vertex_sets[0].shape[1]
    pts, choice = np.zeros((1, d)), np.zeros((1, 0), dtype=int)
    for t, v in zip(coeffs, vertex_sets):
        if t == 0.0:
            continue
        n = len(v)
        pts = (pts[:, None, :] + t * v[None, :, :]).reshape(-1, d)
        choice = np.column_stack([np.repeat(choice, n, axis=0),
                                  np.tile(np.arange(n), len(choice))])
        keep = _dedupe_order(pts, _TOL * _scale(pts))
        pts, choice = pts[keep], choice[keep]
    return pts, choice


def sum_volume(coeffs, polys):
    """Volume of the scaled Minkowski sum t_1 K_1 + ... + t_k K_k; a 2-D
    array of coefficient rows gives an array with one volume per row.

    F(sum t_i K_i, u) = sum t_i F(K_i, u) for t_i > 0 (Schneider, Convex
    Bodies, sect. 1.7), so the sum's combinatorial type depends on the signs
    of the t_i, not on their sizes.  Rows are grouped by sign pattern, and
    each group is hulled once, on its first row, whose sum points carry the
    vertex they take from each body.  Every row of the group has the
    vertices sum_i t_i v_i at the hull's vertex choices and the hull's
    facets, so one batched facet recursion measures the whole group,
    without a Polytope or its face lattice.  A group whose first row has
    more than 150 candidate points goes through Qhull, row by row.
    """
    rows = np.asarray(coeffs, dtype=float)
    grid = np.atleast_2d(rows)
    d = polys[0].dim
    # the volume is translation invariant: sum the bodies about their vertex
    # means, so that a far-translated body is not rounded at its offset
    bodies = [p.vertices - p.vertices.mean(axis=0) for p in polys]
    groups = {}  # sign pattern -> its row indices
    for r, row in enumerate(grid):
        groups.setdefault(tuple(np.sign(row)), []).append(r)
    out = np.zeros(len(grid))
    for key, sel in groups.items():
        t = grid[sel]
        pts, choice = _sum_points(t[0], bodies)
        tol = _TOL * _scale(pts)
        centred = pts - pts.mean(axis=0)
        if np.linalg.matrix_rank(centred, tol=tol) < d:
            continue  # every row of the group is flat
        # each row's points at the first row's vertex choices, summed in the
        # order _sum_points sums them
        x = sum(t[:, i, None, None] * bodies[i][choice[:, j]]
                for j, i in enumerate(np.flatnonzero(key)))
        if pts.shape[0] > 150:
            from scipy.spatial import ConvexHull  # plumbing fallback for big sums

            out[sel] = [ConvexHull(p).volume for p in x]
            continue
        idx, facets = _hull_core(centred, tol)
        verts = x[:, idx]
        out[sel] = _pyramid_volume(verts - verts.mean(axis=1, keepdims=True), facets, tol)
    return float(out[0]) if rows.ndim == 1 else out


# ---------------------------------------------------------------------------
# area measures


@dataclass(frozen=True)
class AreaMeasureAtom:
    face: Face
    weight: float          # H^n(F)
    cone: NormalCone


@dataclass(frozen=True)
class AreaMeasure:
    """Atoms of the order-n area measure of a polytope.

    S_n(P, .) = constant * (1/omega_{d-n}) * sum_F H^n(F) H^{d-1-n}(n(P,F) cap .)
    with constant = d kappa_{d-n} / binom(d, n); total mass is
    constant * V_n(P).
    """

    d: int
    n: int
    atoms: tuple
    constant: float

    def total_mass(self, rng=None, samples: int = 40000) -> MCEstimate:
        from .cones import spherical_measure

        total = 0.0
        var = 0.0
        ns = 0
        for atom in self.atoms:
            m = spherical_measure(atom.cone, rng=rng, samples=samples)
            total += atom.weight * m.value
            var += (atom.weight * m.std_error) ** 2
            ns += m.samples
        c = self.constant / omega(self.d - self.n)
        return MCEstimate(c * total, c * math.sqrt(var), ns)


def area_measure_atoms(p: Polytope, n: int) -> AreaMeasure:
    d = p.dim
    if not (0 <= n <= d - 1):
        raise InputError(f"area measure order {n} out of range")
    atoms = tuple(
        AreaMeasureAtom(f, f.measure, f.normal_cone) for f in p.faces(n)
    )
    constant = d * kappa(d - n) / multinomial(d, (n, d - n))
    return AreaMeasure(d, n, atoms, constant)


# ---------------------------------------------------------------------------
# serialization


def polytope_to_json(p: Polytope) -> str:
    doc = {
        "name": p.name,
        "dim": p.dim,
        "vertices": [[float(x) for x in v] for v in p.vertices],
    }
    return json.dumps(doc, sort_keys=True)


def polytope_from_json(text: str) -> Polytope:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"bad polytope JSON: {e}") from e
    for key in ("name", "dim", "vertices"):
        if key not in doc:
            raise InputError(f"polytope JSON missing '{key}'")
    verts = np.asarray(doc["vertices"], dtype=float)
    if verts.ndim != 2 or verts.shape[1] != int(doc["dim"]):
        raise InputError("vertex array does not match declared dimension")
    return Polytope.hull(verts, name=str(doc["name"]), allow_degenerate=True)


def lattice_report(p: Polytope) -> dict:
    """Canonical JSON-ready description of the face lattice."""
    out = {"name": p.name, "dim": p.dim, "intrinsic_dim": p.intrinsic_dim,
           "n_vertices": p.n_vertices, "faces": {}}
    for j, faces in sorted(p.face_lattice().items()):
        out["faces"][str(j)] = [
            {"vertices": list(f.vertex_ids), "measure": round(f.measure, 12)}
            for f in faces
        ]
    return out
