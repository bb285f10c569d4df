"""Mixed volumes of convex polytopes by mutually independent routes.

Routes
------
oracle_mixed_volumes    polynomial expansion of vol(t_1 K_1 + ... + t_k K_k)
schneider_mixed_volume  random-shift face selection rule (exact up to LP tol)
angle_mixed_volume      normal-cone quadrature of the spread kernel F_n
epsilon_mixed_volume    same with the cutoff kernel F_n^(eps), always finite

Every route returns the mixed volume itself: the expansion identities carry
binom(d; n_1..n_k) on their left-hand sides, and that multinomial factor is
divided out here before returning.  Keep the two bookkeepings straight when
editing; the cross-route tests will catch factor drift immediately.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import (ShiftedCone, _certain_misses, _finite_cone_combos,
                    _probe_common_ray, cone_sphere_samples, cones_intersect,
                    random_admissible, random_direction_tuples)
from .errors import DivergenceError, InputError
from .estimates import MCEstimate, combine_product, combine_sum, from_indicator, from_samples
from .exterior import subspace_determinant
from .kernels import KernelSpec, kernel_values
from .polytope import sum_volume
from .util import (as_rng, check_bodies, check_count, multinomial,
                   parallel_map, spawn_rngs)

_BRACKET_TOL = 1e-12
_PROBE_TOL = 1e-9
_DRAW_BATCH = 1 << 16  # admissible-mc shifts drawn and screened at once


@dataclass(frozen=True)
class MixedVolumeTable:
    """All mixed volumes of a fixed body list, keyed by multidegree.

    entries[(n_1..n_k)] = V(K_1[n_1], ..., K_k[n_k]); symmetric under any
    simultaneous permutation of bodies and degrees, with (d,0,...,0) equal
    to vol(K_1).  `errors` carries per-entry standard errors (empty for the
    deterministic oracle); `meta` carries fit diagnostics.
    """

    d: int
    entries: dict
    route: str
    errors: dict = field(default_factory=dict)
    seeds: tuple | None = None
    meta: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return len(next(iter(self.entries)))

    def value(self, degrees) -> float:
        key = tuple(int(n) for n in degrees)
        if key not in self.entries:
            raise InputError(f"no entry for multidegree {key}")
        return self.entries[key]

    def std_error(self, degrees) -> float:
        return self.errors.get(tuple(int(n) for n in degrees), 0.0)


def _compositions(total: int, k: int):
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, k - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# route 1: polynomial expansion


def oracle_mixed_volumes(polytopes) -> MixedVolumeTable:
    """Fit the degree-d polynomial t -> vol(t_1 K_1 + ... + t_k K_k).

    vol equals sum over |alpha| = d of binom(d; alpha) V(K[alpha]) t^alpha.
    The volume is evaluated on the grid {1..d+1}^k / (d+1) by one
    `sum_volume` call: every grid point is positive, and F(sum t_i K_i, u) =
    sum t_i F(K_i, u) (Schneider, Convex Bodies, sect. 1.7), so every grid
    point has the first point's vertices and facets: one hull, and one
    batched facet recursion over the whole grid.  Each body enters divided
    by its size s_i (largest vertex distance from the vertex mean), so
    bodies of very different scale do not lose their small entries against
    the largest grid volume; coefficients are scaled back by
    prod s_i^alpha_i.  The Vandermonde system is solved by least squares
    and the multinomial weights are then stripped so entries are mixed
    volumes.  Max relative fit residual and the grid condition number are
    reported in `meta`.
    """
    d, _ = check_bodies(polytopes)
    k = len(polytopes)
    alphas = list(_compositions(d, k))
    grid = np.array(list(itertools.product(range(1, d + 2), repeat=k)), dtype=float) / (d + 1)
    a = np.array([[float(np.prod(t ** np.array(al))) for al in alphas]
                  for t in grid])
    size = np.array([np.linalg.norm(p.vertices - p.vertices.mean(axis=0), axis=1).max()
                     for p in polytopes])
    size[size == 0.0] = 1.0
    y = sum_volume(grid / size, polytopes)
    cond = float(np.linalg.cond(a))
    if cond > 1e10:
        raise InputError(f"expansion grid ill-conditioned (cond={cond:.3e})")
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = float(np.max(np.abs(a @ coef - y))) / max(1.0, float(np.max(np.abs(y))))
    entries = {al: float(c * np.prod(size ** np.array(al))) / multinomial(d, al)
               for al, c in zip(alphas, coef)}
    return MixedVolumeTable(d, entries, "oracle", meta={"residual": resid, "cond": cond})


# ---------------------------------------------------------------------------
# route 2: random-shift selection rule


def schneider_mixed_volume(polytopes, degrees, rng=None, shifts=None) -> float:
    """Selection-rule sum over face tuples, exact up to LP/hull tolerance.

    binom(d; n) V = sum* of [F_1,..,F_k] prod_i H^{n_i}(F_i), the star
    keeping tuples whose shifted normal cones N(P_i, F_i) - x_i share a
    point for one admissible x in L^perp cap S^{kd-1}.  Almost every draw
    is admissible and the sum does not depend on the draw; pass `shifts`
    to pin x.  A tuple the span screen (cones._certain_misses) rules out
    skips the LP; every other tuple's LP starts at the screen's point, and
    one whose cones hold that point within the LP's tolerance needs no
    pivot.  Returns the mixed volume (multinomial divided out).
    """
    d, degrees = check_bodies(polytopes, degrees)
    k = len(polytopes)
    if shifts is None:
        shifts = random_admissible(polytopes, degrees, as_rng(rng))
    x = np.asarray(shifts, dtype=float)
    if x.shape != (k, d):
        raise InputError(f"shifts must have shape {(k, d)}")
    total = 0.0
    for tup in itertools.product(*[p.faces(n) for p, n in zip(polytopes, degrees)]):
        br = subspace_determinant([f.frame for f in tup])
        if br <= _BRACKET_TOL:
            continue
        miss, z = _certain_misses(tup, x[None])
        if miss[0]:
            continue
        shifted = [ShiftedCone(f.normal_cone, xi) for f, xi in zip(tup, x)]
        if cones_intersect(shifted, start=None if z is None else z[0]):
            total += br * math.prod(f.measure for f in tup)
    return total / multinomial(d, degrees)


# ---------------------------------------------------------------------------
# route 3: mixed exterior angles and the cone-quadrature sum


def _cone_integral(spec: KernelSpec, cones, n_draws: int, rng) -> MCEstimate:
    """Integral of the kernel over the product of normal-cone spheres.

    Cones that are finite point sets (dimension <= 1) are enumerated
    exactly; otherwise each cone is sampled uniformly and the kernel mean
    is multiplied by the cone measures.  `rng` also drives the kernel's own
    Monte Carlo for k >= 4, so a fixed seed fixes the whole estimate.
    """
    if all(c.dim <= 1 for c in cones):
        vals = kernel_values(spec, _finite_cone_combos(cones), rng=rng)
        return MCEstimate.exact(float(np.sum(vals)))
    draws, measures = [], []
    for c in cones:
        us, m = cone_sphere_samples(c, n_draws, rng)
        draws.append(us)
        measures.append(m)
    vals = kernel_values(spec, np.stack(draws, axis=1), rng=rng)
    return combine_product([from_samples(vals)] + measures)


def mixed_exterior_angle(faces, polytopes, degrees, rng=None,
                         route: str = "cone-quadrature",
                         samples: int | None = None) -> MCEstimate:
    """beta(F_1..F_k) in [0, 1], the k-body generalization of the external angle.

    cone-quadrature: [F_1..F_k] times the integral of F_n over the product
    of normal-cone spheres; cones that are finite point sets are enumerated
    exactly, curved ones are sampled uniformly with measure weights.

    admissible-mc: the fraction of uniform draws x in L^perp cap S^{kd-1}
    for which the shifted cones N(P_i,F_i) - x_i share a point.  Both
    routes estimate the same number (the sphere-section identity behind
    the selection rule); cross-checking them is the point of having two.
    The draws come in batches; the span screen (cones._certain_misses)
    drops certain misses with one linear solve per batch, and the LP of
    cones_intersect decides every other draw, starting at the screen's
    point: a draw whose cones hold it within the LP's tolerance is a hit
    without a pivot.
    """
    d, degrees = check_bodies(polytopes, degrees)
    if samples is not None:
        check_count(samples)
    k = len(polytopes)
    if len(faces) != k:
        raise InputError("one face per body required")
    for f, n in zip(faces, degrees):
        if f.dim != n:
            raise InputError(f"face of dimension {f.dim} does not match degree {n}")
    rng = as_rng(rng)

    if route == "admissible-mc":
        n_draws = samples or 2000
        hits = 0
        for start in range(0, n_draws, _DRAW_BATCH):
            x = random_direction_tuples(
                d, k, min(_DRAW_BATCH, n_draws - start), rng)
            miss, z = _certain_misses(faces, x)
            starts = itertools.repeat(None) if z is None else z[~miss]
            for xs, zs in zip(x[~miss], starts):
                hits += cones_intersect(
                    [ShiftedCone(f.normal_cone, xi) for f, xi in zip(faces, xs)],
                    start=zs)
        return from_indicator(hits, n_draws)
    if route != "cone-quadrature":
        raise InputError(f"unknown route {route!r}")

    cones = [f.normal_cone for f in faces]
    # probe before the bracket shortcut: a shared ray forces bracket 0 when
    # the degrees sum to d, but the kernel integral itself still diverges
    if _probe_common_ray(cones, _PROBE_TOL):
        raise DivergenceError("normal cones share a ray; the spread kernel "
                              "is not integrable on this face tuple")
    br = subspace_determinant([f.frame for f in faces])
    if br <= _BRACKET_TOL:
        return MCEstimate.exact(0.0)
    spec = KernelSpec(d, degrees, "n")
    out = _cone_integral(spec, cones, samples or 20000, rng).scaled(br)
    return MCEstimate(min(max(out.value, 0.0), 1.0), out.std_error, out.samples)


def _tuple_weights(tuples):
    return np.array([br * br * math.prod(f.measure for f in tup)
                     for tup, br in tuples])


def _split_budget(weights: np.ndarray, per_tuple: int, floor: int = 32):
    total = per_tuple * len(weights)
    s = float(weights.sum())
    if s <= 0.0:
        return [floor] * len(weights)
    return [max(floor, int(round(total * w / s))) for w in weights]


def _corollary_sum(polytopes, degrees, rng, samples, eps, threads) -> MCEstimate:
    """Mixed volume from the cone-quadrature expansion of binom(d; n) V.

    Sums br^2 * prod H^{n_i}(F_i) * int F_n over face tuples and divides
    by the multinomial.  With eps = 0 every tuple is probed for a shared
    ray first.  Per-tuple RNG streams are spawned in fixed tuple order, so
    a fixed master seed gives pointwise-coupled draws across different eps
    values (the cutoff only masks samples, which makes the estimate
    monotone in eps).
    """
    d, degrees = check_bodies(polytopes, degrees)
    check_count(samples)
    pools = [p.faces(n) for p, n in zip(polytopes, degrees)]
    if any(not pool for pool in pools):
        return MCEstimate.exact(0.0)
    tuples = []
    for tup in itertools.product(*pools):
        br = subspace_determinant([f.frame for f in tup])
        if br > _BRACKET_TOL:
            tuples.append((tup, br))
    if not tuples:
        return MCEstimate.exact(0.0)
    spec = KernelSpec(d, degrees, "n", epsilon=eps)
    rngs = spawn_rngs(rng, len(tuples))
    budgets = _split_budget(_tuple_weights(tuples), samples)

    def one(i: int) -> MCEstimate:
        tup, br = tuples[i]
        cones = [f.normal_cone for f in tup]
        if eps == 0.0 and _probe_common_ray(cones, _PROBE_TOL):
            raise DivergenceError(
                "normal cones share a ray on a positive-weight face tuple; "
                "the quadrature sum diverges (use the eps variant)")
        scale = br * br * math.prod(f.measure for f in tup)
        return _cone_integral(spec, cones, budgets[i], rngs[i]).scaled(scale)

    est = combine_sum(parallel_map(one, range(len(tuples)), threads=threads))
    return est.scaled(1.0 / multinomial(d, degrees))


def angle_mixed_volume(polytopes, degrees, rng=None, samples: int = 20000,
                       threads: int = 1) -> MCEstimate:
    """Mixed volume via the cone-quadrature expansion.

    binom(d; n) V = sum over face tuples of [F_1..F_k]^2 prod H^{n_i}(F_i)
    times the integral of F_n over the product of normal-cone spheres; the
    bracket appears once inside the per-tuple angle and once as the tuple
    weight.  `samples` is the per-tuple budget before proportional
    reallocation.  Raises DivergenceError when some tuple's cones share a
    ray (non-general position).
    """
    return _corollary_sum(polytopes, degrees, rng, samples, 0.0, threads)


def epsilon_mixed_volume(polytopes, degrees, eps: float, rng=None,
                         samples: int = 20000, threads: int = 1) -> MCEstimate:
    """Cutoff variant of angle_mixed_volume, finite for every input.

    Uses F_n^(eps) = F_n restricted to spread >= eps, so no divergence
    probe is needed; values increase monotonically to the mixed volume as
    eps decreases (couple runs with a fixed seed to see this pointwise).
    """
    if eps <= 0.0:
        raise InputError("eps must be positive; use angle_mixed_volume for eps=0")
    return _corollary_sum(polytopes, degrees, rng, samples, eps, threads)
