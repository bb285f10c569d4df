"""Mixed translative functionals V_{r_1..r_k}.

Two independent evaluations are kept side by side.  curvature_mixed_functional
sums the hull-distance kernel G_r over products of normal-cone spheres in
closed form (sums over rays, and an arctan primitive of G_r = 1 / (omega_3
(1 + u.v)) for an arc against a ray: every r in d <= 3, InputError for other
cones).  translative_integral_mc evaluates the defining translation integral
int V_j of the intersection body, and decompose_homogeneous splits it into
the individual V_r, both from the face-tuple formula for polytopes
(Schneider and Weil, Stochastic and Integral Geometry, 2008, sec. 6.4): V_r
sums, over tuples of faces of dimensions r_i, the normalised angle of the
sum of their normal cones times the bracket of the cones' spans times the
face volumes.  In d <= 3 every V_r is a product of volumes and one core on
at most three bodies: an intrinsic volume, a coefficient of vol(K - rho L),
or a sum over facet pairs or triples of normals and areas (_entries).  So
every d <= 3 input is exact, and nothing is sampled.
Unlike mixed volumes, no multinomial factor is divided out anywhere here;
the two conventions meet in duality_check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import _arc_interval, _finite_cone_combos, _ray_points
from .errors import DivergenceError, EstimationError, InputError
from .estimates import MCEstimate
from .exterior import frame_table, subspace_determinant, tuple_index
from .kernels import _SPREAD_FLOOR, KernelSpec, kernel_values, solid_angle
from .mixed_volume import oracle_mixed_volumes
from .polytope import Polytope, _surface_measure
from .util import as_integer, as_rng, check_bodies, check_count, omega

# frame bases carry O(1e-8) rounding after the Gram-determinant square root
# (batched, bit for bit the one-tuple bracket), so brackets below this are
# exactly dependent configurations; they enter squared, hence dropping them
# changes nothing above 1e-14
_BRACKET_TOL = 1e-7


@dataclass(frozen=True)
class TranslativeTable:
    """V_r values for all multidegrees r_i in [0,d] with sum (k-1)d + j.

    The r_i = 0 slots make the entry independent of the corresponding body,
    and an r_i = d slot splits off a factor vol(K_i).
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
        """Sum of the entries, with meta["total_std_error"] (0 when absent)
        as its error."""
        return MCEstimate(sum(self.entries.values()),
                          self.meta.get("total_std_error", 0.0),
                          self.meta.get("samples", 0))


def _check_translative(polytopes, j: int):
    d, _ = check_bodies(polytopes)
    if d > 3:
        raise InputError("translative integrals are implemented for d <= 3")
    if as_integer(j) is None or not 0 <= j <= d - 1:
        raise InputError(f"j={j!r} must be an integer in 0..{d - 1}")
    return d


def _degree_tuples(d: int, k: int, j: int):
    total = (k - 1) * d + j
    out = [r for r in itertools.product(range(d + 1), repeat=k) if sum(r) == total]
    return sorted(out, reverse=True)


# ---------------------------------------------------------------------------
# curvature representation


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
    each tuple, and one batched call gives every tuple's.  The cone of a
    face of dimension r_i has dimension d - r_i: tuples of rays sum G_r
    over their finitely many direction tuples, all tuples' in one
    kernel_values call, summed back per tuple; one arc against one ray
    (k = 2, r = (d - 2, d - 1) in either order) integrates
    G_r = 1 / (omega_3 (1 + u.v)) in closed form, tuple by tuple.  That covers
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
    pools = [p.faces(ri) for p, ri in zip(polytopes, r)]
    if any(not pool for pool in pools):
        return 0.0
    idx = tuple_index(pools)
    br = subspace_determinant(frame_table(
        [[f.normal_cone.span for f in pool] for pool in pools], idx))
    live = br > _BRACKET_TOL
    if not live.any():
        return 0.0
    tuples = [[pool[j] for pool, j in zip(pools, row)] for row in idx[live]]
    cones = [[f.normal_cone for f in tup] for tup in tuples]
    if dims[-1] == 1:
        combos = [_finite_cone_combos(c) for c in cones]
        owner = np.repeat(np.arange(len(combos)), [len(c) for c in combos])
        values = np.bincount(owner, kernel_values(
            KernelSpec(d, r, "r", epsilon=eps), np.concatenate(combos)),
            minlength=len(combos))
    else:
        values = [sum(_arc_ray_integral(arc, v, eps) for v in _ray_points(ray))
                  for arc, ray in (sorted(c, key=lambda c: -c.dim) for c in cones)]
    if not np.isfinite(values).all():
        raise DivergenceError("the kernel integral of a positive-weight "
                              "face tuple is infinite (use eps > 0)")
    return float(sum(b * b * math.prod(f.measure for f in tup) * v
                     for b, tup, v in zip(br[live], tuples, values)))


# ---------------------------------------------------------------------------
# translation integral from face tuples (exact route)


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


def _facet_pair_term(K: Polytope, L: Polytope) -> float:
    """V_(2,2)(K, L) in R^3: sum over facet pairs of |F| |G| s atan2(s, c)
    / (2 pi), with c = u_F.u_G and s = |u_F x u_G|, the bracket of the two
    normal lines times the normalised angle of the cone they span.  s comes
    from the cross product: antiparallel facets give c = -1 + ulp, where
    sqrt(1 - c^2) is 1.5e-8 instead of 0."""
    (u, a), (v, b) = _surface_measure(K), _surface_measure(L)
    s = np.linalg.norm(np.cross(u[:, None], v[None]), axis=2)
    return float(a @ (s * np.arctan2(s, u @ v.T)) @ b) / (2.0 * math.pi)


def _facet_triple_term(K: Polytope, L: Polytope, M: Polytope) -> float:
    """V_(2,2,2)(K, L, M) in R^3: sum over facet triples of |det| times the
    facet areas times the normalised solid angle of the cone the three
    normals span (kernels.solid_angle over 4 pi), with det = det(u, v, w)
    the bracket of the three normal lines."""
    (u, a), (v, b), (w, c) = map(_surface_measure, (K, L, M))
    det = np.abs(np.cross(u[:, None], v[None]) @ w.T)
    cone = solid_angle(det, (u @ v.T)[:, :, None], (v @ w.T)[None],
                       (u @ w.T)[:, None])
    return float(np.einsum("i,j,l,ijl->", a, b, c, det * cone)) / (4.0 * math.pi)


def _intrinsic_volume(p: Polytope, j: int) -> float:
    """V_j(p) for j = 0 and j = d - 1 without the face lattice (V_{d-1} is
    half the mass of S_{d-1}), and otherwise (j = 1 in R^3) by the external
    angles of p's edges."""
    if j == 0:
        return 1.0
    if j == p.dim - 1:
        return 0.5 * float(_surface_measure(p)[1].sum())
    return float(p.intrinsic_volume(j))


def _cores(bodies, j: int) -> dict:
    """{r_S: V_{r_S}(bodies)} for the multidegrees with every r_i < d and
    sum (|S| - 1) d + j: V_j of one body, the inner coefficients of
    vol(K - rho L) for a pair at j = 0, and the facet sums of a pair at
    j = 1 and of a triple at j = 0 in R^3."""
    d = bodies[0].dim
    if len(bodies) == 1:
        return {(j,): _intrinsic_volume(bodies[0], j)}
    if len(bodies) == 3:
        return {(2, 2, 2): _facet_triple_term(*bodies)}
    if j == 1:
        return {(2, 2): _facet_pair_term(*bodies)}
    return {(d - i, i): c for i, c in enumerate(_difference_terms(*bodies)) if 0 < i < d}


def _entries(polytopes, j: int) -> dict:
    """{r: V_r} in _degree_tuples order, in closed form for d <= 3.

    By the face-tuple formula for polytopes (Schneider and Weil, Stochastic
    and Integral Geometry, 2008, sec. 6.4) a slot with r_i = d stands for
    the body itself, so V_r is prod_{r_i = d} vol K_i times the core
    V_{r_S}(K_S) on S = {i : r_i < d} (_cores).  The r_i of S sum to
    (|S| - 1) d + j and are at most d - 1, so |S| <= d - j <= 3, and
    |S| = 3 only for d = 3, j = 0.  Each core is computed once per call.
    The facet sums read _surface_measure, which splits the normal line of a
    body of dimension d - 1 into its two rays and gives lower bodies no
    facets, so lower-dimensional bodies need no case of their own.
    """
    d, k = polytopes[0].dim, len(polytopes)
    vols = [float(p.volume()) for p in polytopes]
    cores, out = {}, {}
    for r in _degree_tuples(d, k, j):
        s = tuple(i for i, ri in enumerate(r) if ri < d)
        if s not in cores:
            cores[s] = _cores([polytopes[i] for i in s], j)
        out[r] = math.prod(vols[i] for i, ri in enumerate(r) if ri == d) \
            * cores[s][tuple(r[i] for i in s)]
    return out


def translative_integral_mc(polytopes, j: int, rng=None,
                            samples: int = 100000) -> MCEstimate:
    """Value of int V_j(K_1 cap (K_2+z_2) cap ...) dz_2..dz_k, exact.

    By the translative expansion the integral is the sum of V_r over all r
    with sum r = (k-1)d + j, and every V_r comes in closed form from
    _entries (volumes, facet areas and normals, support values and, for
    j = 1 in R^3, edge external angles), so std_error is 0 for any number
    of bodies and any j.  samples and rng are checked as for a sampled
    integral and samples is reported, but nothing is drawn: a shared
    generator is left as it was.
    """
    _check_translative(polytopes, j)
    check_count(samples)
    as_rng(rng)
    return MCEstimate.exact(sum(_entries(polytopes, j).values()), samples)


def decompose_homogeneous(polytopes, j: int, rng=None, samples: int = 20000,
                          lambdas=(1.0, 1.5, 2.0)) -> TranslativeTable:
    """Split the translation integral into its multihomogeneous pieces V_r.

    The entries come in closed form from _entries, on route
    "exact-decomposition" with errors, the total's error and the fit
    residual all 0.  The inputs are checked as for a least-squares fit of
    int = sum_r (prod_i lambda_i^{r_i}) V_r on the grid of scaling factors:
    lambdas must be positive and give at least as many grid values as there
    are entries, and the design matrix must have condition number at most
    1e8 (meta["cond"]).  samples and rng are checked; nothing is drawn.
    """
    d = _check_translative(polytopes, j)
    check_count(samples)
    as_rng(rng)
    k = len(polytopes)
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
    entries = _entries(polytopes, j)
    return TranslativeTable(d, j, entries, "exact-decomposition",
                            dict.fromkeys(entries, 0.0), meta)


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
