"""Spherical geometry of normal cones.

Measures and sampling for n(P,F) = N(P,F) cap S^{d-1}, external angles,
LP-based cone feasibility, admissible direction tuples, and the two
general-position tests used by the mixed-volume and translative routes.

The general-position probes ("the cones share a ray", "0 lies in the hull
of unit normals") need no LP: each is one test of whether a cone
{u : a u <= 0} holds a nonzero vector, decided from its candidate extreme
rays.  The LP remains for cones_intersect, intersection_status and the
zero-in-hull probe on three or more cones.  Where face dimensions sum to d,
_certain_misses first drops every (tuple, shift) pair at which the cones
cannot meet, with one batched SVD and solve over a table of face tuples and
shifts (one tuple and many draws, or many tuples and one shift), so
cones_intersect (the LP) decides only the screen's survivors.  The solve's
point, where the shifted spans meet, is the LP's start: a survivor whose
cones hold that point within the LP's tolerance is a hit without a pivot.

Sphere measures are exact for cones of linear dimension <= 2 (point counts
and arc lengths) and rejection Monte Carlo above that; all MC is chunked
over spawned RNG streams so results do not depend on thread count.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, InputError
from .estimates import MCEstimate
from .exterior import frame_table
from .lp import lp_feasible
from .polytope import Face, NormalCone, Polytope, _batched_normals
from .util import as_rng, check_bodies, omega

_TOL = 1e-9
_THIN = 1e-4
# _certain_misses: the slack beyond the LP's own reach that a cone row must
# miss by, and the smallest singular value of a frame stack it screens
_SCREEN_MARGIN = 1e-6
_SCREEN_FLOOR = 1e-3


@dataclass(frozen=True)
class ShiftedCone:
    """N(P,F) - x, the translate tested by the face-selection rule."""

    cone: NormalCone
    shift: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.shift, dtype=float)
        if x.shape != (self.cone.ambient_dim,):
            raise InputError("shift dimension does not match the cone")
        object.__setattr__(self, "shift", x)


# ---------------------------------------------------------------------------
# feasibility


def _stacked_system(shifted):
    rows = []
    rhs = []
    for sc in shifted:
        a = sc.cone.ineq
        if a.shape[0] == 0:
            continue
        rows.append(a)
        rhs.append(-a @ sc.shift)
    if not rows:
        return None, None
    return np.vstack(rows), np.concatenate(rhs)


def cones_intersect(shifted, tol: float = _TOL, start=None) -> bool:
    """True iff the translated cones N_i - x_i share a point.

    Decided as phase-1 LP feasibility of A(z + x_i) <= 0 over the stacked
    inequality systems; each cone's inequalities cut it out exactly, so no
    extra span constraints are needed.  `start`, a candidate z, goes to
    lp_feasible, which accepts it without pivoting if it meets the rows.
    """
    a, b = _stacked_system(shifted)
    if a is None:
        return True
    feasible, _ = lp_feasible(a, b, tol=tol, start=start)
    return feasible


def _vertex_row_slack(face: Face) -> float:
    """c with |frame^T y| <= c tol for every y that meets the rows of the
    face's own vertices in its normal cone to within tol.

    The rows are e_j = (v_j - c_F) / w_j with w_j = |v_j - c_F|, and
    sum_j w_j e_j = 0, so -e_j y <= (W / w_j - 1) tol for W = sum_j w_j.
    Hence |E y| <= sqrt(m) (W / w_min - 1) tol, and frame^T y is
    (E frame)^+ E y because every e_j lies in lin F.
    """
    if face.dim == 0:
        return 0.0
    u = face.vertices - face.centroid
    w = np.linalg.norm(u, axis=1)
    sigma = np.linalg.svd((u / w[:, None]) @ face.frame.frame,
                          compute_uv=False)[-1]
    return math.sqrt(len(w)) * (w.sum() / w.min() - 1.0) / sigma


def _certain_misses(pools, idx, x):
    """(miss, z, screened) for the face tuples idx (T, k) over pools (one
    face list per body) and the shift tuples x (n, k, d): miss (T, n) where
    the shifted cones N(P_i, F_i) - x_i certainly do not meet (cones_intersect
    says no), z (T, n, d) where the shifted spans meet (the LP's start), and
    screened (T,), the tuples above the floor; the others have no miss and
    no z.  Callers pass one tuple and a batch of draws (admissible-mc) or
    every tuple of a query and one x (the selection rule).

    With face dimensions summing to d, the spans lin(F_i)^perp - x_i meet
    in one point z, the solution of M z = -(frame_i^T x_i)_i for the d x d
    stack M of the frames' transposes (|det M| is the bracket), and the
    cones meet iff every row of every cone holds at z.  z is linear in x,
    so one factorisation per tuple serves every draw, and one batched SVD
    and one batched solve serve every tuple.  A point p that the LP accepts
    misses no row by more than t = tol max(1, max_i |x_i|) (its scaled
    tolerance on unit rows), so |frame_i^T (p + x_i)| <= c_i t
    (_vertex_row_slack, once per face) and |p - z| <= t |c| / sigma_min(M):
    a row violated at z by more than t (1 + |c| / sigma_min(M)) rules p
    out.  The cut adds _SCREEN_MARGIN, on the same scale, against the
    rounding of z; stacks with sigma_min(M) below _SCREEN_FLOOR (zero
    brackets and round-off ones) screen nothing.  Each body's cone rows are
    zero-padded to one count; a zero row changes no maximum, as each starts
    at 0.
    """
    n, _, d = x.shape
    frames = [np.stack([f.frame.frame for f in pool]) for pool in pools]
    m = np.swapaxes(frame_table(frames, idx), 1, 2)
    sigma = np.linalg.svd(m, compute_uv=False)[:, -1]
    screened = sigma >= _SCREEN_FLOOR
    miss = np.zeros((len(idx), n), dtype=bool)
    z = np.full((len(idx), n, d), np.nan)
    rows = idx[screened]
    slack_sq = np.zeros(len(rows))
    rhs = np.concatenate([x[:, i] @ fr[rows[:, i]] for i, fr in enumerate(frames)],
                         axis=2)
    zs = np.swapaxes(np.linalg.solve(m[screened], -np.swapaxes(rhs, 1, 2)), 1, 2)
    viol = np.zeros((len(rows), n))
    for i, pool in enumerate(pools):
        used = np.unique(rows[:, i])
        slack = np.zeros(len(pool))
        slack[used] = [_vertex_row_slack(pool[j]) for j in used]
        slack_sq += slack[rows[:, i]] ** 2
        cones = [pool[j].normal_cone.ineq for j in used]
        ineq = np.zeros((len(pool), max(map(len, cones), default=0), d))
        for j, a in zip(used, cones):
            ineq[j, :len(a)] = a
        viol = np.maximum(viol, ((zs + x[:, i]) @ np.swapaxes(ineq[rows[:, i]], 1, 2))
                          .max(axis=2, initial=0.0))
    cut = _TOL * (1.0 + np.sqrt(slack_sq) / sigma[screened]) + _SCREEN_MARGIN
    miss[screened] = viol > cut[:, None] * np.maximum(
        1.0, np.linalg.norm(x, axis=2).max(axis=1))
    z[screened] = zs
    return miss, z, screened


def intersection_status(shifted, margin: float) -> str:
    """'in', 'out', or 'marginal' with a strict feasibility band.

    'in' means feasible even after tightening every inequality by `margin`;
    'out' means infeasible even after relaxing by `margin`.  The band is what
    the admissibility verifier and indicator estimators key on.
    """
    a, b = _stacked_system(shifted)
    if a is None:
        return "in"
    feas_tight, _ = lp_feasible(a, b - margin)
    if feas_tight:
        return "in"
    feas_loose, _ = lp_feasible(a, b + margin)
    return "marginal" if feas_loose else "out"


# ---------------------------------------------------------------------------
# spherical measure and sampling


def _arc_interval(cone: NormalCone):
    """(start angle, arc length, frame) of a 2-dimensional cone's sphere arc.

    Local coordinates live in the cone's span; the arc is the complement of
    the largest angular gap between generator directions (conic hull of the
    facet normals through the face, plus lineality generators).
    """
    q = cone.span
    gens = cone.generators
    if gens.shape[0] == 0:
        return 0.0, 2.0 * math.pi, q
    local = gens @ q
    norms = np.linalg.norm(local, axis=1)
    local = local[norms > 1e-12] / norms[norms > 1e-12, None]
    if local.shape[0] == 0:
        return 0.0, 2.0 * math.pi, q
    ang = np.sort(np.mod(np.arctan2(local[:, 1], local[:, 0]), 2.0 * math.pi))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * math.pi]]))
    i = int(np.argmax(gaps))
    if gaps[i] < math.pi - 1e-12:
        # every gap below pi: the generators positively span the plane
        return 0.0, 2.0 * math.pi, q
    start = float(ang[(i + 1) % len(ang)]) if gaps[i] < 2.0 * math.pi else 0.0
    length = float(2.0 * math.pi - gaps[i]) if len(ang) > 1 else 0.0
    if len(ang) == 1:
        start, length = float(ang[0]), 0.0
    return start, length, q


def _ray_points(cone: NormalCone) -> np.ndarray:
    s = cone.span[:, 0]
    pts = [v for v in (s, -s) if cone.contains(v)]
    if not pts:
        raise InputError("1-dimensional cone contains neither span direction")
    return np.array(pts)


def _finite_cone_combos(cones) -> np.ndarray:
    """Every direction tuple (N, k, d) from cones of dimension 1."""
    pts = [_ray_points(c) for c in cones]
    return np.array(list(itertools.product(*pts)))


def spherical_measure(cone: NormalCone, rng=None, samples: int = 40000) -> MCEstimate:
    """H^{dim-1} measure of cone cap S^{d-1}.

    Exact for linear dimension 0 (empty), 1 (point count), 2 (arc length);
    rejection MC on the span's sphere otherwise.  Acceptance below 1e-4
    triggers a thin-cone warning.
    """
    m = cone.dim
    if m == 0:
        return MCEstimate.exact(0.0)
    if m == 1:
        return MCEstimate.exact(float(len(_ray_points(cone))))
    if m == 2:
        _, length, _ = _arc_interval(cone)
        return MCEstimate.exact(length)
    rng = as_rng(rng)
    q = cone.span
    z = rng.standard_normal((samples, m))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    us = z @ q.T
    hits = cone.member_mask(us)
    phat = float(np.mean(hits))
    if 0.0 < phat < _THIN:
        warnings.warn("thin cone: rejection acceptance below 1e-4", RuntimeWarning)
    total = omega(m)
    se = total * math.sqrt(max(phat * (1.0 - phat), 0.0) / samples)
    return MCEstimate(total * phat, se, samples)


def cone_sphere_samples(cone: NormalCone, n: int, rng):
    """(directions (n,d), measure estimate) for uniform sampling of the arc,
    point set, or spherical polytope n(P,F)."""
    rng = as_rng(rng)
    m = cone.dim
    if m < 1:
        raise InputError("cannot sample the sphere of a 0-dimensional cone")
    if m == 1:
        pts = _ray_points(cone)
        idx = rng.integers(0, len(pts), size=n)
        return pts[idx], MCEstimate.exact(float(len(pts)))
    if m == 2:
        start, length, q = _arc_interval(cone)
        theta = start + length * rng.random(n)
        us = np.stack([np.cos(theta), np.sin(theta)], axis=1) @ q.T
        return us, MCEstimate.exact(length)
    q = cone.span
    out = np.empty((n, cone.ambient_dim))
    got = 0
    tried = 0
    accepted = 0
    max_tries = max(200000, 2000 * n)
    while got < n:
        batch = max(4 * (n - got), 1024)
        z = rng.standard_normal((batch, m))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        us = z @ q.T
        hits = cone.member_mask(us)
        take = us[hits][: n - got]
        out[got:got + take.shape[0]] = take
        got += take.shape[0]
        tried += batch
        accepted += int(np.count_nonzero(hits))
        if tried > max_tries and got < n:
            raise EstimationError(
                f"cone rejection sampler starved (acceptance ~{accepted / tried:.2e})")
    phat = accepted / tried
    if phat < _THIN:
        warnings.warn("thin cone: rejection acceptance below 1e-4", RuntimeWarning)
    total = omega(m)
    se = total * math.sqrt(max(phat * (1.0 - phat), 0.0) / tried)
    return out, MCEstimate(total * phat, se, tried)


def external_angle(p: Polytope, face: Face, rng=None,
                   samples: int = 40000) -> MCEstimate:
    """gamma(F,P) = H^{d-1-j}(n(P,F)) / omega_{d-j}, in [0,1]; 1 for F = P."""
    cone = face.normal_cone
    if cone.dim == 0:
        return MCEstimate.exact(1.0)
    return spherical_measure(cone, rng=rng, samples=samples).scaled(
        1.0 / omega(cone.dim))


# ---------------------------------------------------------------------------
# admissible direction tuples


def random_direction_tuples(d: int, k: int, n: int, rng) -> np.ndarray:
    """n uniform points of L^perp cap S^{kd-1}, as (n, k, d) block vectors.

    L is the diagonal {(y,...,y)}; projecting a Gaussian onto L^perp
    (subtract the block mean) and normalizing gives the uniform law.  The
    draws take the generator's numbers in order and each is normalised by
    the root of its own dot product (one np.vecdot), so draw i is the i-th
    of n one-draw calls, bit for bit.
    """
    if k < 2:
        raise InputError("direction tuples need at least two blocks")
    rng = as_rng(rng)
    x = rng.standard_normal((n, k, d))
    x -= x.mean(axis=1, keepdims=True)
    flat = x.reshape(n, k * d)
    nrm = np.sqrt(np.vecdot(flat, flat))
    for i in np.flatnonzero(nrm < 1e-12):  # a null event: redraw
        x[i], nrm[i] = random_direction_tuples(d, k, 1, rng)[0], 1.0
    return x / nrm[:, None, None]


def random_direction_tuple(d: int, k: int, rng) -> np.ndarray:
    """One draw of random_direction_tuples, as a (k, d) block vector."""
    return random_direction_tuples(d, k, 1, rng)[0]


def _over_dim_tuples(polytopes, d: int):
    k = len(polytopes)
    grids = [range(d) for _ in range(k)]
    for dims in itertools.product(*grids):
        if sum(dims) <= d:
            continue
        pools = [p.faces(j) for p, j in zip(polytopes, dims)]
        if any(not pool for pool in pools):
            continue
        yield from itertools.product(*pools)


def random_admissible(polytopes, degrees, rng, verify: bool = False,
                      margin: float = 1e-7, max_resample: int = 100) -> np.ndarray:
    """Draw x in L^perp cap S^{kd-1} for the face-selection rule.

    Almost every x works; with verify=True each draw is additionally checked
    against every face tuple whose dimensions sum past d, and draws whose
    shifted cones come within `margin` of intersecting there are rejected.
    """
    d, _ = check_bodies(polytopes, degrees, "n")
    k = len(polytopes)
    rng = as_rng(rng)
    for _ in range(max_resample):
        x = random_direction_tuple(d, k, rng)
        if not verify:
            return x
        # verification walks all over-dimensional face tuples
        ok = True
        for tup in _over_dim_tuples(polytopes, d):
            shifted = [ShiftedCone(f.normal_cone, xi) for f, xi in zip(tup, x)]
            if intersection_status(shifted, margin) != "out":
                ok = False
                break
        if ok:
            return x
    raise EstimationError(
        "admissibility resampling exhausted; configuration looks non-generic")


# ---------------------------------------------------------------------------
# general position


def _cone_has_ray(a: np.ndarray, tol: float) -> bool:
    """True iff the cone {u : a u <= 0} holds some u != 0.

    A cone with a line holds one (fewer rows than dimensions, or a
    singular value <= tol).  A pointed cone other than {0} has an extreme
    ray, the null vector of some dim - 1 independent rows (Minkowski-Weyl),
    so trying every such null vector with both signs decides it.  Each
    candidate is scaled to max-norm 1, the normalization of a pinned-
    coordinate LP, so tol means the same as in lp_feasible.
    """
    m, dim = a.shape
    if m < dim or np.linalg.svd(a, compute_uv=False)[-1] <= tol:
        return True
    # chunked, so that cones with hundreds of rows stay within memory
    combos = itertools.combinations(range(m), dim - 1)
    while len(idx := np.array(list(itertools.islice(combos, 1 << 13)),
                              dtype=int)):
        subsets = a[idx]
        rays = _batched_normals(subsets) if dim <= 4 else \
            np.linalg.svd(subsets)[2][:, -1]
        size = np.abs(rays).max(axis=1)
        keep = size > 1e-12
        vals = a @ (rays[keep] / size[keep, None]).T
        if ((vals.max(axis=0) <= tol) | (vals.min(axis=0) >= -tol)).any():
            return True
    return False


def _probe_common_ray(cones, tol: float) -> bool:
    """True iff some u != 0 lies in every cone."""
    return _cone_has_ray(np.vstack([c.ineq for c in cones]), tol)


def _probe_zero_in_hull(cones, tol: float) -> bool:
    """True iff unit vectors u_i in the cones can capture 0 in their hull.

    Two cones: u_1 = -u_2, so N_1 and -N_2 share a ray.  From three cones
    on it is the LP w_i in N_i, sum_i w_i = 0, not all w_i zero, where the
    "not all zero" is probed by pinning one coordinate of one block to +-1.
    Correct for cones with lineality (no pointedness assumed).
    """
    if len(cones) == 2:
        return _cone_has_ray(np.vstack([cones[0].ineq, -cones[1].ineq]), tol)
    k, d = len(cones), cones[0].ambient_dim
    blocks = []
    for i, c in enumerate(cones):
        if c.ineq.shape[0] == 0:
            continue
        a = np.zeros((c.ineq.shape[0], k * d))
        a[:, i * d:(i + 1) * d] = c.ineq
        blocks.append(a)
    a_ub = np.vstack(blocks) if blocks else np.zeros((0, k * d))
    b_ub = np.zeros(a_ub.shape[0])
    a_sum = np.tile(np.eye(d), (1, k))
    for i in range(k):
        for c in range(d):
            e = np.zeros((1, k * d))
            e[0, i * d + c] = 1.0
            for s in (1.0, -1.0):
                a_eq = np.vstack([a_sum, s * e])
                b_eq = np.concatenate([np.zeros(d), [1.0]])
                feasible, _ = lp_feasible(a_ub, b_ub, A_eq=a_eq, b_eq=b_eq, tol=tol)
                if feasible:
                    return True
    return False


def general_position(polytopes, degrees, mode: str, tol: float = _TOL) -> bool:
    """Check the route-specific non-degeneracy condition over all face tuples.

    mode "mixed-volume": normal cones of the selected dimensions meet only
    at 0.  mode "translative": no choice of unit normals from the cones
    captures 0 in its convex hull.
    """
    mode = {"mixed-volume": "n", "translative": "r", "n": "n", "r": "r"}.get(mode)
    if mode is None:
        raise InputError('mode must be "mixed-volume" or "translative"')
    d, degrees = check_bodies(polytopes, degrees, mode)
    pools = [p.faces(j) for p, j in zip(polytopes, degrees)]
    if any(not pool for pool in pools):
        return True
    for tup in itertools.product(*pools):
        cones = [f.normal_cone for f in tup]
        if mode == "n":
            # cheap rank filter: a common ray needs the face direction
            # spaces to be dependent
            frames = [f.frame.frame for f in tup]
            stacked = np.hstack(frames) if any(fr.shape[1] for fr in frames) \
                else np.zeros((d, 0))
            if stacked.shape[1] and \
                    np.linalg.matrix_rank(stacked, tol=1e-9) == d:
                continue
            if _probe_common_ray(cones, tol):
                return False
        else:
            if _probe_zero_in_hull(cones, tol):
                return False
    return True
