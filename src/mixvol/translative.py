"""Mixed translative functionals V_{r_1..r_k}.

Two independent evaluations are kept side by side: curvature_mixed_functional
sums the hull-distance kernel G_r over products of normal-cone spheres in
closed form (sums over rays, and an arctan primitive of G_r = 1 / (omega_3
(1 + u.v)) for an arc against a ray: every r in d <= 3, InputError for other
cones), and translative_integral_mc evaluates the defining translation
integral int V_j of the intersection body, which decompose_homogeneous then
splits into the individual V_r by a scaling fit.
Two cases are closed-form: for j = 0 and two bodies the integral is
vol(K_1 - K_2), a polynomial in the scale of K_2 whose coefficients are
volumes and facet-area sums of support values (no difference-body hull),
and for j = d - 1 every V_r factors into V_{d-1} of one body times the
volumes of the others.  Otherwise the integral is sampled, and the fit
propagates the errors draw by draw through the common random numbers it
shares.  For j = 1 in R^3 each draw is controlled by V_2 of the same
intersection, whose integral is the closed j = d - 1 form, with a
cross-fitted coefficient.  Each sampling call builds one vertex engine for
all its scaled grid bodies and evaluates each ratio lambda_i / lambda_1 of
the grid once, and draws outside a difference body lambda_1 K_1 -
lambda_i K_i, where the integrand is 0, are screened out before the engine
enumerates vertices.
Unlike mixed volumes, no multinomial factor is divided out anywhere here;
the two conventions meet in duality_check.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import _arc_interval, _finite_cone_combos, _ray_points
from .errors import DivergenceError, EstimationError, InputError
from .estimates import MCEstimate, from_samples
from .exterior import subspace_determinant
from .kernels import _SPREAD_FLOOR, KernelSpec, kernel_values
from .mixed_volume import oracle_mixed_volumes
from .polytope import Polytope, _surface_measure
from .util import as_integer, as_rng, check_bodies, check_count, omega

_DET_TOL = 1e-9
_FEAS_TOL = 1e-9
# draws this far outside a difference body (times the engine scale) are
# dropped before the engine; a thousand times _FEAS_TOL
_SCREEN_TOL = 1e-6
# frame bases carry O(1e-8) rounding after the Gram-determinant square root,
# so brackets below this are exactly dependent configurations; they enter
# squared, hence dropping them changes nothing above 1e-14
_BRACKET_TOL = 1e-7


@dataclass(frozen=True)
class TranslativeTable:
    """V_r values for all multidegrees r_i in [0,d] with sum (k-1)d + j.

    The r_i = 0 slots make the entry independent of the corresponding body,
    and an r_i = d slot splits off a factor vol(K_i); both are cheap
    consistency probes on a fitted table.
    """

    d: int
    j: int
    entries: dict
    route: str
    errors: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(next(iter(self.entries)))

    def value(self, r) -> float:
        key = tuple(int(x) for x in r)
        if key not in self.entries:
            raise InputError(f"no entry for multidegree {key}")
        return self.entries[key]

    def std_error(self, r) -> float:
        return self.errors.get(tuple(int(x) for x in r), 0.0)

    def total(self) -> MCEstimate:
        """Sum of the entries.  The entries of one fit share their draws, so
        their errors do not add in quadrature; the fit stores the total's
        own error as meta["total_std_error"] (0 when absent)."""
        return MCEstimate(sum(self.entries.values()),
                          self.meta.get("total_std_error", 0.0),
                          self.meta.get("samples", 0))


def _check_translative(polytopes, j: int):
    d, _ = check_bodies(polytopes)
    if d > 3:
        raise InputError("translation sampling is implemented for d <= 3")
    if as_integer(j) is None or not 0 <= j <= d - 1:
        raise InputError(f"j={j!r} must be an integer in 0..{d - 1}")
    return d


def _degree_tuples(d: int, k: int, j: int):
    total = (k - 1) * d + j
    out = [r for r in itertools.product(range(d + 1), repeat=k) if sum(r) == total]
    return sorted(out, reverse=True)


# ---------------------------------------------------------------------------
# curvature representation (deterministic route)


def _arc_ray_integral(arc, v: np.ndarray, eps: float = 0.0) -> float:
    """int G_r(u, v) d theta over the arc n(P, F) of the points u, against a
    ray direction v, for k = 2 bodies of degrees d - 2 (arc) and d - 1 (ray).

    Then G = 1 / (omega_3 (1 + c)), c = u.v, in every d.  On the arc
    u(theta) = q (cos theta, sin theta), c = A cos x with x = theta - phi,
    A = |q^T v|, phi the angle of q^T v, and 1 / (1 + A cos x) integrates on
    |x| <= pi to (2 / w) arctan(w tan(x / 2) / (1 + A)), w = sqrt(1 - A^2) =
    |v - q q^T v| (free of cancellation); the limit at A = 1 is
    2 tan(x / 2) / (1 + A), infinite at the antipode x = +-pi.  The arc is
    split where x crosses pi.  As dist(0, conv{u, v}) = sqrt((1 + c) / 2),
    the cutoff eps keeps |x| <= arccos((2 eps^2 - 1) / A).
    """
    start, length, q = _arc_interval(arc)
    p = q.T @ v
    a = math.hypot(p[0], p[1])
    w = float(np.linalg.norm(v - q @ p))
    # the arc is [lo, lo + length] with lo in (-pi, pi]
    lo = math.pi - (math.pi - start + math.atan2(p[1], p[0])) % (2.0 * math.pi)
    cut = 2.0 * eps * eps - 1.0
    if cut > a:
        return 0.0
    reach = math.acos(cut / a) if eps > 0.0 and cut > -a else math.pi

    def primitive(x):
        if abs(x) == math.pi:  # at hull distance w / sqrt(2 (1 + A))
            return math.copysign(math.pi / w if w >= 2.0 * _SPREAD_FLOOR
                                 else math.inf, x)
        if w == 0.0:
            return 2.0 * math.tan(0.5 * x) / (1.0 + a)
        return 2.0 / w * math.atan2(w * math.sin(0.5 * x),
                                    (1.0 + a) * math.cos(0.5 * x))

    # the second piece is empty unless the arc crosses x = pi
    pieces = [(max(x0, -reach), min(x1, reach)) for x0, x1 in
              ((lo, min(lo + length, math.pi)), (-math.pi, lo + length - 2.0 * math.pi))]
    return sum(primitive(x1) - primitive(x0) for x0, x1 in pieces if x0 < x1) / omega(3)


def curvature_mixed_functional(polytopes, r, eps: float = 0.0) -> float:
    """V_r by the normal-bundle representation, in closed form.

    V_r = sum over face tuples (dim F_i = r_i) of
          prod_i H^{r_i}(F_i) * [lin(F_1)^perp, .., lin(F_k)^perp]^2
          * int G_r over n(P_1,F_1) x .. x n(P_k,F_k);
    the bracket is the subspace determinant of the normal spans, constant on
    each tuple.  The cone of a face of dimension r_i has dimension d - r_i:
    tuples of rays sum G_r over their finitely many direction tuples, and
    one arc against one ray (k = 2, r = (d - 2, d - 1) in either order)
    integrates G_r = 1 / (omega_3 (1 + u.v)) in closed form.  That covers
    every valid r in d <= 3; other r (two arcs, an arc with k >= 3, a cone
    of dimension >= 3: all d >= 4) raise InputError before any face work.
    For an arc against a ray v the bracket is w = |v - q q^T v|, so every
    tuple past the bracket cut has w > _BRACKET_TOL: the arc cannot hold
    -v, 0 is not in the hull of the picks and the integral is finite.  An
    infinite tuple integral still raises DivergenceError; eps > 0 cuts the
    kernel off at hull distance eps.
    """
    d, r = check_bodies(polytopes, r, "r")
    dims = sorted(d - ri for ri in r)
    if dims[-1] > 1 and dims != [1, 2]:
        raise InputError(f"r={r} in d={d} gives normal cones of dimensions {dims}; "
                         "the curvature route takes rays, or one arc against one ray")
    spec = KernelSpec(d, r, "r", epsilon=eps)
    total = 0.0
    for tup in itertools.product(*[p.faces(ri) for p, ri in zip(polytopes, r)]):
        br = subspace_determinant([f.normal_cone.span for f in tup])
        if br <= _BRACKET_TOL:
            continue
        cones = [f.normal_cone for f in tup]
        if all(c.dim == 1 for c in cones):
            value = float(kernel_values(spec, _finite_cone_combos(cones)).sum())
        else:
            arc, ray = sorted(cones, key=lambda c: -c.dim)
            value = sum(_arc_ray_integral(arc, v, eps) for v in _ray_points(ray))
        if not math.isfinite(value):
            raise DivergenceError("the kernel integral of a positive-weight "
                                  "face tuple is infinite (use eps > 0)")
        total += br * br * math.prod(f.measure for f in tup) * value
    return total


# ---------------------------------------------------------------------------
# translation-integral sampling (MC route)


class _VertexEngine:
    """Batched vertex enumeration for K_1 cap (K_2+z_2) cap ... over many z.

    It serves the two sampled cases: the j = 0 indicator of a nonempty
    intersection for k >= 3 bodies, and V_1 in R^3; the exact cases (j = 0
    with two bodies, j = d - 1) never build one.  One engine serves a whole
    public call.  It is built from the unscaled bodies: the stacked
    H-representation, whose right-hand side is affine in z, the
    non-singular d-subsets of its rows with their inverses and
    the candidate vertex's slope in z, the in-plane frame of every row in
    R^3 (for the face rings of _poly3d_values), the screening normals of
    each pair's difference body, and in R^3 the closed-form j = 2 entries
    (_boundary_entries) that give the j = 1 control its known mean.  None
    of these depends on the scaling factors; scaled(lambdas) adds the parts
    that do, control_mean among them, so scaled bodies are never
    re-hulled.  Candidates and feasibility masks come out vectorized over
    samples.
    """

    def __init__(self, polytopes):
        d = polytopes[0].dim
        k = len(polytopes)
        systems = [p.halfspaces() for p in polytopes]
        self.verts = [p.vertices for p in polytopes]
        self.offsets = [b for _, b in systems]
        self.A = np.vstack([a for a, _ in systems])
        m = self.A.shape[0]
        self.C = np.zeros((m, (k - 1) * d))
        ofs = systems[0][0].shape[0]
        for i in range(1, k):
            mi = systems[i][0].shape[0]
            self.C[ofs:ofs + mi, (i - 1) * d:i * d] = systems[i][0]
            ofs += mi
        idx = np.array(list(itertools.combinations(range(m), d)))
        mats = self.A[idx]
        keep = np.abs(np.linalg.det(mats)) > _DET_TOL
        self.idx = idx[keep]
        self.inv = np.linalg.inv(mats[keep])
        # candidate s moves with z by the columns s*d..s*d+d-1, laid out so
        # that candidates multiplies on BLAS
        self.slope = np.einsum("sij,sjm->msi", self.inv,
                               self.C[self.idx]).reshape(self.C.shape[1], -1)
        self.frames = None
        if d == 3:
            # in-plane frame (u, a x u) of each unit row a, with u normal to
            # a and to the axis along a's smallest coordinate
            u = np.cross(self.A, np.eye(3)[np.argmin(np.abs(self.A), axis=1)])
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            self.frames = np.stack([u, np.cross(self.A, u)], axis=2)
        # the known means of the j = 1 control (see _translative_value)
        self.boundary = _boundary_entries(polytopes) if d == 3 else {}
        self.screens = []
        for p in polytopes[1:]:
            u = _screen_normals(polytopes[0], p)
            self.screens.append((u, np.max(polytopes[0].vertices @ u.T, axis=0),
                                 np.max(-p.vertices @ u.T, axis=0)))

    def scaled(self, lambdas) -> "_VertexEngine":
        """This engine for the bodies lambdas[i] * K_i; the lambda-free
        arrays are shared, not copied."""
        out = copy.copy(self)
        out.lambdas = tuple(lambdas)
        out.b = np.concatenate([lam * b for b, lam in zip(self.offsets, lambdas)])
        out.base = np.einsum("sij,sj->si", self.inv, out.b[self.idx])
        out.scale = max(1.0, float(np.max(np.abs(out.b))))
        out.control_mean = sum(math.prod(lam ** ri for lam, ri in zip(lambdas, r)) * v
                               for r, v in self.boundary.items())
        return out

    def may_meet(self, z: np.ndarray) -> np.ndarray:
        """False for the rows of z that certainly give an empty intersection.

        K_1 cap (K_i + z_i) is empty when z_i lies outside the difference
        body lambda_1 K_1 - lambda_i K_i, and every screening normal u gives
        one of its supporting halfspaces u.z_i <= lambda_1 h_{K_1}(u) +
        lambda_i h_{K_i}(-u).  A row is dropped only when it violates one by
        more than _SCREEN_TOL * scale, a thousand times the feasibility
        tolerance of candidates, so the engine would find no feasible
        vertex for it either.
        """
        d = self.A.shape[1]
        live = np.ones(z.shape[0], dtype=bool)
        for i, (u, h_first, h_other) in enumerate(self.screens):
            reach = self.lambdas[0] * h_first + self.lambdas[i + 1] * h_other \
                + _SCREEN_TOL * self.scale
            live &= (z[:, i * d:(i + 1) * d] @ u.T <= reach).all(axis=1)
        return live

    def candidates(self, z: np.ndarray):
        """(vertices (N, S, d), feasibility (N, S), right-hand sides (N, m))
        for z of shape (N, (k-1)d)."""
        x = self.base[None] + (z @ self.slope).reshape(z.shape[0], -1, self.A.shape[1])
        bz = self.b[None] + z @ self.C.T
        # rows second, so that the reduction runs over whole (N, S) planes
        lhs = self.A @ x.transpose(0, 2, 1)
        feas = (lhs <= bz[:, :, None] + _FEAS_TOL * self.scale).all(axis=1)
        return x, feas, bz


def _line_directions(v: np.ndarray) -> np.ndarray:
    """Unit rows of v, one per line through the origin: the sign is fixed
    by the first clearly nonzero coordinate, then rounded copies go."""
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    lead = v[np.arange(v.shape[0]), np.argmax(np.abs(v) > 1e-9, axis=1)]
    v = v * np.where(lead < 0.0, -1.0, 1.0)[:, None]
    _, first = np.unique(np.round(v, 9) + 0.0, axis=0, return_index=True)
    return v[np.sort(first)]


def _edge_directions(p: Polytope) -> np.ndarray:
    """Edge directions of a full-dimensional body in R^2 or R^3: two
    vertices bound an edge when they share d - 1 facets."""
    inc = np.zeros((len(p.facets), p.n_vertices), dtype=int)
    for row, (_, _, ids) in enumerate(p.facets):
        inc[row, list(ids)] = 1
    a, b = np.nonzero(np.triu(inc.T @ inc >= p.dim - 1, 1))
    return p.vertices[b] - p.vertices[a]


def _screen_normals(K: Polytope, L: Polytope) -> np.ndarray:
    """Unit normals u, with both signs, orthogonal to d - 1 edge directions
    of K or L.

    F(K - L, u) = F(K, u) + F(-L, u), so every edge of K - L is parallel to
    an edge of K or of L, and every facet normal of K - L is among these u.
    The halfspaces u.z <= h_K(u) + h_L(-u) therefore cut out exactly K - L.
    """
    e = _line_directions(np.vstack([_edge_directions(K), _edge_directions(L)]))
    if K.dim == 2:
        u = e[:, ::-1] * [1.0, -1.0]
    else:
        a, b = np.triu_indices(e.shape[0], 1)
        u = np.cross(e[a], e[b])
        u = _line_directions(u[np.linalg.norm(u, axis=1) > 1e-9])
    return np.vstack([u, -u])


def _poly3d_values(x: np.ndarray, feas: np.ndarray, A: np.ndarray,
                   bz: np.ndarray, frames: np.ndarray,
                   tol: float):
    """(V_1, V_2) per sample of 3-D intersection polytopes, one chunk at once.

    Feasible candidates are deduped per sample on their tol-rounded keys
    (the first occurrence stays, in candidate order) and compacted to the
    chunk's largest vertex count V, so the face work is (N, m, V).  Fewer
    than 4 vertices give 0.  Each plane carrying at least 3 vertices is a
    face ring, angle-sorted in the plane's frame; padding slots repeat the
    first sorted vertex, which adds zero-length edges.  A ring edge longer
    than tol is keyed by (sample, vertex-slot pair), and an edge met on
    exactly two faces adds length * angle(a_i, a_l) / (2 pi).  V_2 is half
    the summed face-ring areas, each the shoelace sum of the ring's in-plane
    coordinates, and 0 where V_1 is.
    """
    n_samples = x.shape[0]
    sid, cid = np.nonzero(feas)
    if sid.size == 0:
        return np.zeros(n_samples), np.zeros(n_samples)
    pts = x[sid, cid]
    key = np.round(pts / tol).astype(np.int64)
    # lexsort is stable, so within one key the earliest candidate leads
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0], sid))
    ks = np.column_stack([sid, key])[order]
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = (ks[1:] != ks[:-1]).any(axis=1)
    keep = np.zeros(order.size, dtype=bool)
    keep[order[lead]] = True
    sid, pts = sid[keep], pts[keep]
    cnt = np.bincount(sid, minlength=n_samples)
    nv = int(cnt.max())
    slot = np.arange(sid.size) - (np.cumsum(cnt) - cnt)[sid]
    P = np.zeros((n_samples, nv, 3))
    P[sid, slot] = pts
    valid = np.zeros((n_samples, nv), dtype=bool)
    valid[sid, slot] = True

    on = (valid[..., None] & (np.abs(P @ A.T - bz[:, None, :]) <= tol)).transpose(0, 2, 1)
    ring_cnt = on.sum(axis=2)
    face = ring_cnt >= 3
    cen = (on @ P) / np.maximum(ring_cnt, 1)[..., None]
    uv = (P[:, None] - cen[:, :, None]) @ frames
    ang = np.where(on, np.arctan2(uv[..., 1], uv[..., 0]), np.inf)
    # gathers along the slot axis go through flat row numbers, which numpy
    # indexes faster than take_along_axis or paired index arrays
    plane_rows = nv * np.arange(on.shape[0] * on.shape[1]).reshape(on.shape[:2] + (1,))
    srt = np.argsort(ang, axis=2)
    srt = np.where(on.reshape(-1)[srt + plane_rows], srt, srt[..., :1])
    nxt = np.roll(srt, -1, axis=2)
    flat_uv = uv.reshape(-1, 2)
    p = np.take(flat_uv, srt + plane_rows, axis=0)
    q = np.take(flat_uv, nxt + plane_rows, axis=0)
    area = 0.5 * np.abs((p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]).sum(axis=2))
    rows = nv * np.arange(n_samples)[:, None, None]
    flat = P.reshape(-1, 3)
    step = np.take(flat, nxt + rows, axis=0) - np.take(flat, srt + rows, axis=0)
    length = np.sqrt((step * step).sum(axis=3))
    live = face[..., None] & (length > tol)
    es, ei, _ = np.nonzero(live)
    lo = np.minimum(srt, nxt)[live]
    hi = np.maximum(srt, nxt)[live]
    ekey = (es * nv + lo) * nv + hi
    # stable: the hits of one edge stay in plane order
    eo = np.argsort(ekey, kind="stable")
    ekey = ekey[eo]
    start = np.flatnonzero(np.r_[True, ekey[1:] != ekey[:-1]])
    size = np.diff(np.r_[start, ekey.size])
    first = eo[start[size == 2]]
    second = eo[start[size == 2] + 1]
    angle = np.arccos(np.clip(A @ A.T, -1.0, 1.0))
    contrib = length[live][first] * angle[ei[first], ei[second]] / (2.0 * math.pi)
    vals = np.bincount(es[first], weights=contrib, minlength=n_samples)
    vals[cnt < 4] = 0.0
    return vals, np.where(vals > 0.0, 0.5 * (area * face).sum(axis=1), 0.0)


def _sample_boxes(verts):
    """Per-body translation boxes covering {z : K_1 cap (K_i + z) != empty},
    from the (scaled) vertex arrays."""
    lo1, hi1 = verts[0].min(axis=0), verts[0].max(axis=0)
    # bounding box of K_1 + (-K_i), inflated to dodge boundary bias
    lows = [lo1 - v.max(axis=0) - 1e-9 for v in verts[1:]]
    highs = [hi1 - v.min(axis=0) + 1e-9 for v in verts[1:]]
    return np.concatenate(lows), np.concatenate(highs)


def _difference_terms(K: Polytope, L: Polytope) -> list:
    """Coefficients c_0..c_d of vol(K - rho L) = sum_i c_i rho^i, d <= 3.

    c_0 = vol K and c_d = vol L.  In between, the mixed volumes
    d V(K[d-1], -L) and d V(K, (-L)[d-1]) are sphere integrals of a support
    function against a surface area measure (Schneider, Convex Bodies,
    sec. 5.1): c_1 = sum_F |F| h_L(-u_F) over the facets F of K for d >= 2,
    and c_2 = sum_G |G| h_K(-u_G) over the facets G of L for d = 3.  The
    support values are taken on vertex arrays centred at their means: the
    sums do not depend on translations (sum_F |F| u_F = 0), and centring
    keeps far-translated bodies from cancelling digits.
    """
    vk = K.vertices - K.vertices.mean(axis=0)
    vl = L.vertices - L.vertices.mean(axis=0)

    def mixed(body, other):
        u, w = _surface_measure(body)
        return float(w @ np.max(-u @ other.T, axis=1))

    return [float(K.volume()), *[mixed(K, vl), mixed(L, vk)][:K.dim - 1],
            float(L.volume())]


def _boundary_entries(polytopes) -> dict:
    """{r: V_r} for j = d - 1, in closed form.

    Every such r has one slot r_i = d - 1 and all others d, and then
    V_r = V_{d-1}(K_i) prod_{l != i} vol K_l (Schneider and Weil, Stochastic
    and Integral Geometry, 2008, sec. 6.4), with V_{d-1}(K_i) half the total
    mass of S_{d-1}(K_i).  Both factors are exact for d <= 3.  The keys come
    in _degree_tuples order.
    """
    d, k = polytopes[0].dim, len(polytopes)
    vols = [p.volume() for p in polytopes]
    out = {}
    for r in _degree_tuples(d, k, d - 1):
        i = r.index(d - 1)
        out[r] = float(0.5 * _surface_measure(polytopes[i])[1].sum()
                       * math.prod(vols[:i] + vols[i + 1:]))
    return out


def _exact_entries(polytopes, j: int):
    """{r: V_r} in _degree_tuples order for the closed-form cases, else None.

    For j = 0 and two bodies the integral is vol(K_1 - K_2), whose
    coefficients (_difference_terms) are the entries V_(d-i, i); for j = d - 1
    see _boundary_entries.
    """
    d, k = polytopes[0].dim, len(polytopes)
    if j == 0 and k == 2:
        return dict(zip(_degree_tuples(d, 2, 0), _difference_terms(*polytopes)))
    if j == d - 1:
        return _boundary_entries(polytopes)
    return None


def _cross_fitted(y: np.ndarray, c: np.ndarray, mean: float) -> np.ndarray:
    """Per-draw values of mean(y) controlled by c, whose mean is known.

    beta = cov(y, c) / var(c) is fitted on the even-indexed draws and applied
    to the odd ones as y - beta (c - mean), then the other way round, so no
    draw's beta depends on that draw.  Each fitting draw also carries its
    linearised share of that beta's error in the other half's mean,
    -n_other (mean_other(c) - mean) dc_i e_i / sum dc^2, with dc_i and e_i
    its deviation and regression residual within its half.  These shares
    sum to 0 in each half, so the mean stays that of the cross-fitted
    draws; the spread gains the beta error, which matters when the other
    half's c strays from its mean, where the cross-fitted draws alone gave
    |z| up to 8 in 3000 100-draw runs.  A half with fewer than 2 draws, or
    whose c is constant up to rounding, fits no beta.
    """
    out = y.copy()
    halves = (slice(0, None, 2), slice(1, None, 2))
    for fit, use in zip(halves, halves[::-1]):
        if y[fit].size < 2:
            continue
        dc = c[fit] - c[fit].mean()
        dy = y[fit] - y[fit].mean()
        var = float(dc @ dc)
        if var > 1e-24 * float(c[fit] @ c[fit]):
            beta = float(dc @ dy) / var
            out[use] -= beta * (c[use] - mean)
            resid = dy - beta * dc
            out[fit] -= c[use].size * (c[use].mean() - mean) / var * dc * resid
    return out


def _translative_value(engine: _VertexEngine, lambdas, j: int, unit: np.ndarray):
    """Sampled translation integral of V_j over the bodies lambdas[i] * K_i,
    for j = 0 or (in R^3) j = 1.

    Returns (estimate, draws): draws holds one unbiased value per row of
    unit, the box volume times V_j of that translate's intersection, and the
    estimate is their mean.  For j = 1 each draw is controlled by the box
    volume times V_2 of the same intersection (_cross_fitted), whose mean
    is the closed-form j = 2 integral sum_r prod_i lambda_i^{r_i} V_r over
    _boundary_entries; on cube/diamond, cube/rotated-cube and cube/cube
    this cuts the squared standard error to 0.08-0.17 of the plain draws'.
    Draws that engine.may_meet rules out keep the value 0 the vertex engine
    would give them; only the others are enumerated, in chunks.
    """
    d = engine.A.shape[1]
    lo, hi = _sample_boxes([lam * v for v, lam in zip(engine.verts, lambdas)])
    z = lo[None] + unit * (hi - lo)[None]
    box_volume = float(np.prod(hi - lo))
    engine = engine.scaled(lambdas)
    tol = 1e-7 * engine.scale
    chunk = 4096 if d == 2 else 512
    n = unit.shape[0]
    live = np.flatnonzero(np.concatenate([engine.may_meet(z[s:s + chunk])
                                          for s in range(0, n, chunk)]))
    vals, control = np.zeros(n), np.zeros(n)
    for s in range(0, live.size, chunk):
        rows = live[s:s + chunk]
        x, feas, bz = engine.candidates(z[rows])
        if j == 0:
            vals[rows] = feas.any(axis=1).astype(float)
        else:
            vals[rows], control[rows] = _poly3d_values(x, feas, engine.A, bz,
                                                       engine.frames, tol)
    draws = box_volume * vals
    if j == 1:
        draws = _cross_fitted(draws, box_volume * control, engine.control_mean)
    return from_samples(draws), draws


def translative_integral_mc(polytopes, j: int, rng=None,
                            samples: int = 100000) -> MCEstimate:
    """Value of int V_j(K_1 cap (K_2+z_2) cap ...) dz_2..dz_k.

    Two cases are returned exact (std_error 0): for j = 0 and two bodies
    the integral is vol(K_1 - K_2), summed from its coefficients in the
    scaling of K_2 (facet areas times support values, no difference-body
    hull), and for j = d - 1 it is sum_i V_{d-1}(K_i) prod_{l != i} vol K_l,
    for any number of bodies.  Otherwise (j = 0 with k >= 3 bodies, or
    j = 1 in R^3) translations are uniform over the Minkowski-difference
    bounding boxes (the integrand vanishes outside), and the intersection
    is evaluated per sample by stacked-halfspace vertex enumeration; empty
    and lower-dimensional intersections contribute 0.  For j = 1 each draw
    carries the V_2 control of _translative_value, which leaves the mean
    unbiased and cuts the squared standard error to 0.08-0.17 of plain
    sampling on the cube/diamond, cube/rotated-cube and cube/cube pairs.
    By the
    translative expansion this equals the sum of V_r over all r with
    sum r = (k-1)d + j.
    """
    d = _check_translative(polytopes, j)
    check_count(samples)
    k = len(polytopes)
    rng = as_rng(rng)
    # drawn for the exact cases too, so how far a generator shared across
    # calls advances does not depend on j
    unit = rng.random((samples, (k - 1) * d))
    entries = _exact_entries(polytopes, j)
    if entries is not None:
        return MCEstimate.exact(sum(entries.values()), samples)
    return _translative_value(_VertexEngine(polytopes), [1.0] * k, j, unit)[0]


def decompose_homogeneous(polytopes, j: int, rng=None, samples: int = 20000,
                          lambdas=(1.0, 1.5, 2.0)) -> TranslativeTable:
    """Split the translation integral into its multihomogeneous pieces.

    Where the integral has a closed form (j = 0 with two bodies, and
    j = d - 1) the entries are set from it (_exact_entries) without a fit,
    on route "exact-decomposition" with errors and a fit residual of 0;
    the input checks and the draws stay as for any j.  Otherwise the
    integral is evaluated on every lambda-scaled body combination with
    shared uniform draws (common random numbers), then least-squares fitted
    as int = sum_r (prod_i lambda_i^{r_i}) V_r.  The value at (l_1, .., l_k)
    is l_1^{(k-1)d+j} times the value at (1, l_2/l_1, .., l_k/l_1), so the
    combinations with equal ratios share one evaluation at l_1 = 1 (7
    evaluations for the 9 combinations of the default grid with k = 2,
    25 for 27 with k = 3), whose per-draw values are scaled.  The scaled
    bodies are not re-hulled: one vertex engine serves every evaluation,
    with its facet offsets multiplied by lambda, so lambdas must be
    positive.  For j = 1 each evaluation's draws are controlled by V_2
    (_translative_value) against the known mean at its own lambdas; the
    controlled draws scale like the plain ones.  The fit is linear in the
    grid values, so each (controlled) draw gives its own coefficients (the
    pseudoinverse times that draw's grid row); their standard errors are
    the entries' errors, and those of their per-draw sums the total's.
    This propagation is exact under the common random numbers, which
    correlate the grid values (for j = 1, to first order in the control
    coefficients' errors).  One draw gives infinite errors.
    """
    d = _check_translative(polytopes, j)
    check_count(samples)
    k = len(polytopes)
    rng = as_rng(rng)
    r_list = _degree_tuples(d, k, j)
    if any(float(v) <= 0.0 for v in lambdas):
        raise InputError("scaling factors must be positive")
    if len(lambdas) ** k < len(r_list):
        raise InputError(f"{len(lambdas)} scaling factors give {len(lambdas) ** k} "
                         f"grid values for {len(r_list)} unknowns")
    combos = list(itertools.product([float(v) for v in lambdas], repeat=k))
    design = np.array([[math.prod(lam ** ri for lam, ri in zip(combo, r))
                        for r in r_list] for combo in combos])
    cond = float(np.linalg.cond(design))
    if cond > 1e8:
        raise EstimationError(f"homogeneous fit ill-conditioned (cond={cond:.3e})")
    meta = {"cond": cond, "fit_residual": 0.0, "samples": samples,
            "lambdas": tuple(lambdas), "total_std_error": 0.0}
    unit = rng.random((samples, (k - 1) * d))
    entries = _exact_entries(polytopes, j)
    if entries is not None:
        return TranslativeTable(d, j, entries, "exact-decomposition",
                                dict.fromkeys(entries, 0.0), meta)
    engine = _VertexEngine(polytopes)
    runs, y, draws = {}, [], []
    for lam1, *rest in combos:
        ratios = tuple(lam / lam1 for lam in rest)
        if ratios not in runs:
            runs[ratios] = _translative_value(engine, (1.0, *ratios), j, unit)
        est, vals = runs[ratios]
        scale = lam1 ** ((k - 1) * d + j)
        y.append(scale * est.value)
        draws.append(scale * vals)
    per_draw = np.stack(draws, axis=1) @ np.linalg.pinv(design).T
    meta["total_std_error"] = from_samples(per_draw.sum(axis=1)).std_error
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    meta["fit_residual"] = float(np.max(np.abs(design @ coef - y)))
    entries = {r: float(c) for r, c in zip(r_list, coef)}
    errors = {r: from_samples(c).std_error for r, c in zip(r_list, per_draw.T)}
    return TranslativeTable(d, j, entries, "mc-decomposition", errors, meta)


def duality_check(K: Polytope, L: Polytope, n: int):
    """(V_{n,d-n}(K, L), binom(d,n) * V(K[n], -L[d-n])) for comparison.

    The two sides agree for all convex bodies; both evaluations here are
    deterministic (curvature closed form vs expansion oracle).
    """
    d = K.dim
    lhs = curvature_mixed_functional([K, L], (n, d - n))
    table = oracle_mixed_volumes([K, L.negate()])
    rhs = float(math.comb(d, n)) * table.value((n, d - n))
    return lhs, rhs
