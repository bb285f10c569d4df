"""Angular kernels on the positive sphere orthant.

Two kernel families over t in S^{k-1}_+ (all t_i >= 0):

* mode "n" (mixed volumes):
    F(u_1..u_k) = k^{(k-2)d/2}/omega_{(k-1)d} * integral of
        prod t_i^{d-1-n_i} * (sum_{i<j} ||t_i u_i - t_j u_j||^2)^{-(k-1)d/2},
    set to 0 when all u_i coincide; the epsilon variant multiplies by
    1{||u|L^perp|| >= eps} where L is the diagonal of (R^d)^k.
* mode "r" (translative functionals):
    G(u_1..u_k) = (1/omega_{d-j}) * integral of
        prod t_i^{d-1-r_i} * ||sum t_i u_i||^{-(d-j)},   j = sum r - (k-1)d,
    set to 0 for linearly dependent u_i; the epsilon variant multiplies by
    1{dist(0, conv{u_1..u_k}) >= eps}.

Evaluation: every k=2 kernel is one exact reduction in c = u_1.u_2
(_two_ray_integral: elementary for exponents 2 and 3, which covers d <= 3,
and a fixed Gauss-Legendre rule on a trigonometric polynomial above); the
k=3 G kernel in R^3 is a solid angle over |det U|; other k=3 kernels use a
tensor product on the (theta, phi) chart, and k >= 4 Monte Carlo.  Those
integrands are functions of the Gram matrix of the u_i only, so batched
evaluation over many direction tuples shares the quadrature grids.

Near-coincident inputs below the 1e-9 spread floor raise DivergenceError
rather than returning a huge float; the epsilon cutoffs never diverge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError
from .estimates import from_samples
from .util import as_rng, check_degrees, omega

_SPREAD_FLOOR = 1e-9
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Degrees and cutoff for one kernel evaluation family.

    The degrees follow util.check_degrees for the mode: mixed-volume
    multidegrees for "n", translative degrees for "r", where
    j = sum - (k-1)d is the intersection order.
    """

    d: int
    degrees: tuple
    mode: str
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "degrees",
                           check_degrees(self.d, self.degrees, self.mode))
        if self.epsilon < 0:
            raise InputError("epsilon must be >= 0")

    @property
    def k(self) -> int:
        return len(self.degrees)

    @property
    def j(self) -> int:
        return sum(self.degrees) - (self.k - 1) * self.d


# ---------------------------------------------------------------------------
# spread and hull-distance geometry


def perp_spread(vs) -> float:
    """||v | L^perp|| for a block vector v = (v_1..v_k), L the diagonal."""
    return float(perp_spread_batch(np.asarray(vs, dtype=float)[None])[0])


def perp_spread_batch(vs: np.ndarray) -> np.ndarray:
    """perp_spread of each row of vs (N, k, d), as (sum_i |v_i - mean|^2)^(1/2)
    from the centred vectors: sum_i |v_i|^2 - k |mean|^2 cancels to 0 for
    directions within 1e-8 of each other."""
    v = np.asarray(vs, dtype=float)
    w = v - v.mean(axis=1, keepdims=True)
    return np.sqrt(np.sum(w * w, axis=(1, 2)))


def in_star_region(t) -> bool:
    """t in S^{k-1}_* : every coordinate at least 1/(2 sqrt k)."""
    t = np.asarray(t, dtype=float)
    return bool(np.all(t >= 1.0 / (2.0 * math.sqrt(t.shape[-1]))))


def hull_distance_batch(us: np.ndarray) -> np.ndarray:
    """dist(0, conv{u_1..u_k}) per row; exact min-norm point by enumerating
    the affine supports (k <= 4 keeps this tiny).

    Each support solves min |sum lam_i u_i| s.t. sum lam_i = 1 through the
    bordered system [[G, 1], [1^T, 0]].  The border keeps the system regular
    when 0 lies inside the hull (there G itself is singular)."""
    us = np.asarray(us, dtype=float)
    n, k, _ = us.shape
    best = np.full(n, np.inf)
    for r in range(1, k + 1):
        for subset in itertools.combinations(range(k), r):
            sub = us[:, subset, :]
            if r == 1:
                cand = np.linalg.norm(sub[:, 0, :], axis=1)
                best = np.minimum(best, cand)
                continue
            kkt = np.zeros((n, r + 1, r + 1))
            kkt[:, :r, :r] = sub @ sub.transpose(0, 2, 1)
            kkt[:, :r, r] = 1.0
            kkt[:, r, :r] = 1.0
            rhs = np.zeros(r + 1)
            rhs[r] = 1.0
            lam = np.full((n, r), np.nan)
            ok = np.abs(np.linalg.det(kkt)) > 1e-12
            if ok.any():
                sol = np.linalg.solve(kkt[ok], np.broadcast_to(
                    rhs[:, None], (int(ok.sum()), r + 1, 1)).copy())
                lam[ok] = sol[:, :r, 0]
            for i in np.nonzero(~ok)[0]:
                sol = np.linalg.lstsq(kkt[i], rhs, rcond=None)[0]
                if np.linalg.norm(kkt[i] @ sol - rhs) < 1e-9:
                    lam[i] = sol[:r]
            feas = np.isfinite(lam).all(axis=1)
            feas &= np.where(feas, np.nan_to_num(lam, nan=-1.0).min(axis=1),
                             -1.0) >= -1e-12
            pts = np.einsum("mr,mrd->md", np.nan_to_num(lam), sub)
            cand = np.where(feas, np.linalg.norm(pts, axis=1), np.inf)
            best = np.minimum(best, cand)
    return best


# ---------------------------------------------------------------------------
# quadrature engine


_GL_CACHE: dict = {}


def _gl(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _panel_grid(a: float, b: float, panels: int, order: int = 16):
    x0, w0 = _gl(order)
    edges = np.linspace(a, b, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


def _octant_grid(panels: int, order: int = 16):
    """Tensor chart of S^2_+ : t = (sin phi cos th, sin phi sin th, cos phi)."""
    th, wth = _panel_grid(0.0, math.pi / 2.0, panels, order)
    ph, wph = _panel_grid(0.0, math.pi / 2.0, panels, order)
    t = np.stack([
        np.outer(np.sin(ph), np.cos(th)).ravel(),
        np.outer(np.sin(ph), np.sin(th)).ravel(),
        np.outer(np.cos(ph), np.ones_like(th)).ravel(),
    ], axis=1)
    w = np.outer(wph * np.sin(ph), wth).ravel()
    return t, w


def _refine_rows(frows, count: int, rtol: float, max_level: int):
    """Panel-doubling quadrature over S^2_+ for `count` integrands sharing
    a grid.

    frows(idx, t) returns integrand values (len(idx), len(t)) at chart
    nodes t.  Returns (values, error estimates); rows that never meet rtol
    keep their last refinement delta as the error.
    """
    panels = 2
    vals = np.zeros(count)
    errs = np.zeros(count)
    idx = np.arange(count)
    t, w = _octant_grid(panels)
    cur = frows(idx, t) @ w
    for _ in range(max_level):
        panels *= 2
        t, w = _octant_grid(panels)
        new = frows(idx, t) @ w
        delta = np.abs(new - cur)
        done = delta <= rtol * np.maximum(np.abs(new), 1e-12)
        vals[idx] = new
        errs[idx] = delta
        cur = new[~done]
        idx = idx[~done]
        if idx.size == 0:
            break
    return vals, errs


def _two_ray_integral(b: int, p: int, lo: np.ndarray,
                      hi: np.ndarray) -> np.ndarray:
    """I(c) = int_0^inf t^b (t^2 - 2 c t + 1)^(-p/2) dt, 0 <= b <= p - 2,
    for c in [-1, 1), given as 1-D arrays lo = 1 - c and hi = 1 + c so
    that neither pole loses digits.

    With s = sqrt(lo hi), t - c = s cot(psi) turns it into
        s^(1-p) int_0^L sin^b(L - psi) sin^(p-2-b)(psi) d psi,
    L = atan2(s, -c), where sin(L - psi) = c sin psi + s cos psi.  The
    integrand is a non-negative trigonometric polynomial of degree p - 2 on
    an interval of length at most pi, which max(24, 2p) Gauss-Legendre
    nodes integrate to round-off.  The whole c -> 1 blow-up sits in
    s^(1-p); at s = 0 (c = -1) the value is the limit
    b! (p-2-b)! / (p-1)!.  Elementary cases: L / s for p = 2 and 1 / lo
    for p = 3.
    """
    if p == 3:
        return 1.0 / lo
    s = np.sqrt(lo * hi)
    ell = np.arctan2(s, 0.5 * (lo - hi))
    if p == 2:
        body = ell
    else:
        x, w = _gl(max(24, 2 * p))
        half = 0.5 * ell[:, None]
        body = half[:, 0] * ((np.sin(half * (1.0 - x)) ** b
                              * np.sin(half * (1.0 + x)) ** (p - 2 - b)) @ w)
    limit = math.factorial(b) * math.factorial(p - 2 - b) / math.factorial(p - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s > 0.0, body / s ** (p - 1), limit)


def solid_angle(det, c12, c23, c13):
    """Solid angle of the cone on unit vectors u_1, u_2, u_3 from
    det = |det U| and the pairwise cosines, 2 atan2(det, 1 + c12 + c23 +
    c13) (Van Oosterom and Strackee, IEEE Trans. Biomed. Eng. 30, 1983);
    broadcasts."""
    return 2.0 * np.arctan2(det, 1.0 + c12 + c23 + c13)


# ---------------------------------------------------------------------------
# batched kernel cores (everything is a function of the Gram matrix)


def _f_prefactor(spec: KernelSpec) -> float:
    k, d = spec.k, spec.d
    return k ** ((k - 2) * d / 2.0) / omega((k - 1) * d)


def _core_batch(spec: KernelSpec, us: np.ndarray, kind: str,
                rng=None) -> np.ndarray:
    """The t-integral for each direction tuple (rows of unit vectors).

    kind "F": base(t) = k - t'Gt, exponent (k-1)d/2, powers d-1-n_i.
    kind "G": base(t) = t'Gt, exponent (d-j)/2, powers d-1-r_i.

    k = 2: t = (cos th, sin th) and tan th = x give
    int_0^inf x^(d-1-deg_2) (x^2 -+ 2 c x + 1)^(-exponent) dx with
    c = u_1.u_2 (minus for F, plus for G): _two_ray_integral at +-c.
    The reduction takes |u_i| = 1, which kernel_values checks to 1e-9.
    k = 3 in R^3 for G (r = (2, 2, 2), j = 0): |det U| times the integral
    of |U t|^-3 over S^2_+ is the solid angle of the cone on the u_i.
    Other k = 3 kernels use the octant tensor quadrature, k >= 4 Monte
    Carlo.
    """
    k, d = spec.k, spec.d
    if kind == "F":
        power = (k - 1) * d / 2.0
        pref = _f_prefactor(spec)
    else:
        power = (d - spec.j) / 2.0
        pref = 1.0 / omega(d - spec.j)
    if k == 2:
        # 1 -+ u_1.u_2 = |u_1 -+ u_2|^2 / 2, exact where the dot product
        # has lost its digits
        gaps = 0.5 * np.stack([np.sum((us[:, 0] - us[:, 1]) ** 2, axis=1),
                               np.sum((us[:, 0] + us[:, 1]) ** 2, axis=1)])
        lo, hi = gaps if kind == "F" else gaps[::-1]
        return pref * _two_ray_integral(d - 1 - spec.degrees[1],
                                        round(2.0 * power), lo, hi)
    grams = us @ us.transpose(0, 2, 1)
    n = grams.shape[0]
    exps = np.array([d - 1 - x for x in spec.degrees], dtype=float)
    if k == 3 and kind == "G" and d == 3:
        det = np.abs(np.linalg.det(us))
        return pref * solid_angle(det, grams[:, 0, 1], grams[:, 1, 2],
                                  grams[:, 0, 2]) / det

    def integrand(idx, t):
        quad = np.einsum("bij,mi,mj->bm", grams[idx], t, t)
        base = (k - quad) if kind == "F" else quad
        base = np.maximum(base, 1e-300)
        tp = np.prod(t[None, :, :] ** exps[None, None, :], axis=2)
        return tp * base ** (-power)

    if k == 3:
        out = np.empty(n)
        for s in range(0, n, 512):
            m = min(n, s + 512) - s
            out[s:s + m], _ = _refine_rows(
                lambda idx, t, _s=s: integrand(idx + _s, t), m, 1e-6, 5)
        return pref * out
    rng = as_rng(rng)
    budget = 200000
    t = np.abs(rng.standard_normal((budget, k)))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    area = omega(k) / 2.0 ** k
    out = np.empty(n)
    chunk = max(1, 2 ** 22 // budget)
    for s in range(0, n, chunk):
        idx = np.arange(s, min(n, s + chunk))
        out[idx] = integrand(idx, t).mean(axis=1) * area
    return pref * out


def _coincident_mask(us: np.ndarray) -> np.ndarray:
    return np.all(np.linalg.norm(us - us[:, :1, :], axis=2) <= 1e-12, axis=1)


def _dependent_mask(us: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(us, compute_uv=False)
    return sv[:, -1] <= _RANK_TOL


def kernel_values(spec: KernelSpec, us: np.ndarray, rng=None) -> np.ndarray:
    """Batched kernel evaluation on direction tuples us (N, k, d).

    Applies the mode's zero conventions and the epsilon cutoff; with
    epsilon == 0, inputs inside the 1e-9 degeneracy floor raise
    DivergenceError (F: spread of u, G: hull distance).
    """
    us = np.asarray(us, dtype=float)
    if us.ndim != 3 or us.shape[1] != spec.k or us.shape[2] != spec.d:
        raise InputError("expected direction tuples of shape (N, k, d)")
    nrm = np.linalg.norm(us, axis=2)
    if np.max(np.abs(nrm - 1.0)) > 1e-9:
        raise InputError("kernel inputs must be unit vectors")
    out = np.zeros(us.shape[0])
    if spec.mode == "n":
        zero = _coincident_mask(us)
        spread = perp_spread_batch(us)
        if spec.epsilon > 0:
            live = (~zero) & (spread >= spec.epsilon)
        else:
            bad = (~zero) & (spread < _SPREAD_FLOOR)
            if np.any(bad):
                raise DivergenceError(
                    "F diverges: direction tuple within 1e-9 of the diagonal")
            live = ~zero
        if np.any(live):
            out[live] = _core_batch(spec, us[live], "F", rng=rng)
        return out
    dep = _dependent_mask(us)
    dist = hull_distance_batch(us)
    if spec.epsilon > 0:
        live = (~dep) & (dist >= spec.epsilon)
    else:
        bad = (~dep) & (dist < _SPREAD_FLOOR)
        if np.any(bad):
            raise DivergenceError(
                "G diverges: 0 within 1e-9 of the direction hull")
        live = ~dep
    if np.any(live):
        out[live] = _core_batch(spec, us[live], "G", rng=rng)
    return out


# ---------------------------------------------------------------------------
# closed-form self test


def sphere_projection_selftest(p: int, d: int, beta: float, rng,
                               samples: int = 10 ** 5):
    """MC of int_{S^{p-1}} (1 + beta ||u|L^perp||^2)^{-p/2} dH^{p-1} against
    the closed form omega_p (1+beta)^{-(p-d)/2}; L is the diagonal of
    (R^d)^{p/d}."""
    if p % d != 0 or p // d < 2:
        raise InputError("p must be a multiple of d with p/d >= 2")
    if not 1 <= d < p:
        raise InputError("need 1 <= d < p")
    if beta < 0:
        raise InputError("beta must be >= 0")
    k = p // d
    rng = as_rng(rng)
    u = rng.standard_normal((samples, p))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    blocks = u.reshape(samples, k, d)
    mean = blocks.mean(axis=1)
    perp2 = np.maximum(1.0 - k * np.sum(mean * mean, axis=1), 0.0)
    vals = (1.0 + beta * perp2) ** (-p / 2.0)
    mc = from_samples(vals).scaled(omega(p))
    exact = omega(p) * (1.0 + beta) ** (-(p - d) / 2.0)
    return mc, exact
