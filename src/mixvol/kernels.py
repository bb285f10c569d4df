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

Quadrature: adaptive panel-doubled Gauss-Legendre for k=2, tensor product
on the (theta, phi) chart for k=3, Monte Carlo for k >= 4.  Integrands are
functions of the Gram matrix of the u_i only, so batched evaluation over
many direction tuples shares the quadrature grids.

Near-coincident inputs below the 1e-9 spread floor raise DivergenceError
rather than returning a huge float; the epsilon cutoffs never diverge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InputError
from .estimates import MCEstimate, from_samples
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
    v = np.asarray(vs, dtype=float)
    mean = v.mean(axis=0)
    s2 = float(np.sum(v * v) - v.shape[0] * np.dot(mean, mean))
    return math.sqrt(max(s2, 0.0))


def perp_spread_batch(vs: np.ndarray) -> np.ndarray:
    v = np.asarray(vs, dtype=float)
    mean = v.mean(axis=1, keepdims=True)
    s2 = np.sum(v * v, axis=(1, 2)) - v.shape[1] * np.sum(mean[:, 0] ** 2, axis=1)
    return np.sqrt(np.maximum(s2, 0.0))


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


def hull_distance(us) -> float:
    return float(hull_distance_batch(np.asarray(us, dtype=float)[None])[0])


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


def _arc_grid(panels: int, order: int = 16):
    """Chart of S^1_+ : t = (cos th, sin th), th in [0, pi/2]."""
    th, w = _panel_grid(0.0, math.pi / 2.0, panels, order)
    return np.stack([np.cos(th), np.sin(th)], axis=1), w


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


# k: (chart of S^{k-1}_+, panels of the first pass)
_CHARTS = {2: (_arc_grid, 4), 3: (_octant_grid, 2)}


def _refine_rows(frows, count: int, k: int, rtol: float, max_level: int):
    """Panel-doubling quadrature over S^{k-1}_+ (k = 2, 3) for `count`
    integrands sharing a grid.

    frows(idx, t) returns integrand values (len(idx), len(t)) at chart
    nodes t.  Returns (values, error estimates); rows that never meet rtol
    keep their last refinement delta as the error.
    """
    chart, panels = _CHARTS[k]
    vals = np.zeros(count)
    errs = np.zeros(count)
    idx = np.arange(count)
    t, w = chart(panels)
    cur = frows(idx, t) @ w
    for _ in range(max_level):
        panels *= 2
        t, w = chart(panels)
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


def sphere_plus_integrate(f, k: int, rtol: float = 1e-10,
                          budget: int = 10 ** 6, rng=None) -> MCEstimate:
    """Integrate f over S^{k-1}_+ against H^{k-1}.

    k=2: adaptive Gauss-Legendre in the angle; k=3: tensor quadrature on the
    octant chart; k>=4: Monte Carlo (uniform via folded Gaussians).  The
    std_error field carries the quadrature refinement delta for k<=3, so a
    nonzero value doubles as the non-convergence flag.
    """
    if k < 2:
        raise InputError("need k >= 2")
    if k in _CHARTS:
        rtol, levels = (rtol, 14) if k == 2 else (max(rtol, 1e-10), 6)
        vals, errs = _refine_rows(
            lambda idx, t: np.asarray(f(t), dtype=float)[None, :], 1, k,
            rtol, levels)
        return MCEstimate(float(vals[0]), float(errs[0]), 0)
    rng = as_rng(rng)
    t = np.abs(rng.standard_normal((budget, k)))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    area = omega(k) / 2.0 ** k
    return from_samples(np.asarray(f(t), dtype=float)).scaled(area)


# ---------------------------------------------------------------------------
# batched kernel cores (everything is a function of the Gram matrix)


def _f_prefactor(spec: KernelSpec) -> float:
    k, d = spec.k, spec.d
    return k ** ((k - 2) * d / 2.0) / omega((k - 1) * d)


def _grams(us: np.ndarray) -> np.ndarray:
    return us @ us.transpose(0, 2, 1)


def _core_batch(spec: KernelSpec, grams: np.ndarray, kind: str,
                rng=None) -> np.ndarray:
    """Quadrature of the t-integral for each Gram matrix.

    kind "F": base(t) = k - t'Gt, exponent (k-1)d/2, powers d-1-n_i.
    kind "G": base(t) = t'Gt, exponent (d-j)/2, powers d-1-r_i.
    """
    k, d = spec.k, spec.d
    exps = np.array([d - 1 - x for x in spec.degrees], dtype=float)
    if kind == "F":
        power = (k - 1) * d / 2.0
        pref = _f_prefactor(spec)
    else:
        power = (d - spec.j) / 2.0
        pref = 1.0 / omega(d - spec.j)
    n = grams.shape[0]

    def integrand(idx, t):
        quad = np.einsum("bij,mi,mj->bm", grams[idx], t, t)
        base = (k - quad) if kind == "F" else quad
        base = np.maximum(base, 1e-300)
        tp = np.prod(t[None, :, :] ** exps[None, None, :], axis=2)
        return tp * base ** (-power)

    if k in _CHARTS:
        chunk, rtol, levels = (8192, 1e-8, 12) if k == 2 else (512, 1e-6, 5)
        out = np.empty(n)
        for s in range(0, n, chunk):
            m = min(n, s + chunk) - s
            out[s:s + m], _ = _refine_rows(
                lambda idx, t, _s=s: integrand(idx + _s, t), m, k, rtol, levels)
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
            out[live] = _core_batch(spec, _grams(us[live]), "F", rng=rng)
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
        out[live] = _core_batch(spec, _grams(us[live]), "G", rng=rng)
    return out


# ---------------------------------------------------------------------------
# scalar entry points


def _one(spec: KernelSpec, us) -> np.ndarray:
    us = np.asarray(us, dtype=float)
    if us.shape != (spec.k, spec.d):
        raise InputError(f"expected {spec.k} direction vectors in R^{spec.d}")
    return us[None]


def eval_F(spec: KernelSpec, us, rng=None) -> float:
    """F at one direction tuple; 0 when all u_i coincide; raises
    DivergenceError within the spread floor (use eval_F_eps for a total
    function)."""
    if spec.mode != "n":
        raise InputError("eval_F needs a mode n spec")
    base = KernelSpec(spec.d, spec.degrees, "n", 0.0)
    return float(kernel_values(base, _one(spec, us), rng=rng)[0])


def eval_F_eps(spec: KernelSpec, us, rng=None) -> float:
    """Cutoff kernel F^(eps) = F * 1{||u|L^perp|| >= eps}; finite everywhere."""
    if spec.mode != "n":
        raise InputError("eval_F_eps needs a mode n spec")
    if spec.epsilon <= 0:
        raise InputError("eval_F_eps needs epsilon > 0")
    return float(kernel_values(spec, _one(spec, us), rng=rng)[0])


def eval_G(spec: KernelSpec, us, rng=None) -> float:
    """G at one direction tuple; 0 for linearly dependent directions."""
    if spec.mode != "r":
        raise InputError("eval_G needs a mode r spec")
    base = KernelSpec(spec.d, spec.degrees, "r", 0.0)
    return float(kernel_values(base, _one(spec, us), rng=rng)[0])


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
