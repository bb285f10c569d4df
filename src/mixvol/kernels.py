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
and a fixed Gauss-Legendre rule on a trigonometric polynomial above);
every k=3 kernel is one integration-by-parts recursion of Gaussian orthant
moments from a solid angle and two-ray faces (_three_ray_integral); k >= 4
is Monte Carlo.  The integrands are functions of the Gram matrix of the
u_i only, so a batch of direction tuples is evaluated in array operations.

Near-coincident inputs below the 1e-9 spread floor raise DivergenceError
rather than returning a huge float; the epsilon cutoffs never diverge.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, EstimationError, InputError
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
# two- and three-ray integrals


@functools.cache
def _gl(order: int):
    return np.polynomial.legendre.leggauss(order)


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


# orthonormal, first column (1, 1, 1) / sqrt 3 up to sign
_HELMERT = np.linalg.qr(np.tri(3))[0]


def _three_ray_integral(a: tuple, us: np.ndarray, kind: str) -> np.ndarray:
    """int_{S^2_+} t^a (t'At)^(-p/2), p = 3 + |a|, per unit triple, for
    A = 3I - Gram (kind "F") or Gram ("G"); A = s C with C unit-diagonal.

    By homogeneity this is s^(-p/2) 2 M_a / Gamma(p/2) for the Gaussian
    orthant moments M_a = int_{R^3_+} t^a exp(-t'Ct) dt, and parts in t_j give
        sum_l C_jl M_{a+e_l} = (a_j M_{a-e_j} + [a_j = 0] M'_{a-j}) / 2
    (Kan and Robotti, J. Comput. Graph. Stat. 26, 2017), from M_0 =
    sqrt(pi)/4 Omega / sqrt(det C) (Omega: solid angle on generators of
    Gram C) and the face moments M'_b = Gamma(|b|/2 + 1) / 2 *
    _two_ray_integral(b_2, |b| + 2, 1 + c, 1 - c), c the face's entry of C.
    For F, C^-1 and det C come from the _HELMERT basis, where 3I - 11' is
    diag(0, 3, 3), exact down to the spread floor; for G from U' = QR.  A
    small eigenvalue of C with a mixed-sign eigenvector (F: nearly collinear
    with an antipodal pair; G: nearly dependent) makes C^-1 cancel digits:
    each moment carries a first-order bound on its relative error, and a
    bound above 1e-6 raises EstimationError.
    """
    minus = 0.5 * np.sum((us[:, :, None] - us[:, None, :]) ** 2, axis=3)
    if kind == "F":
        scale, c = 2.0, 0.5 * (minus - 1.0)
        rot = _HELMERT.T @ minus @ _HELMERT + np.diag([0.0, 3.0, 3.0])
        root_det = np.sqrt(np.linalg.det(rot) / 8.0)
        if any(a):  # C^-1 only serves the steps past the root
            inv = 2.0 * _HELMERT @ np.linalg.inv(rot) @ _HELMERT.T
        lo, hi = 1.0 + c, 1.0 - c
    else:
        scale, c = 1.0, 1.0 - minus
        r = np.linalg.qr(us.transpose(0, 2, 1), mode="r")
        root_det = np.abs(np.prod(np.diagonal(r, axis1=1, axis2=2), axis=1))
        if any(a):
            rinv = np.linalg.inv(r)
            inv = rinv @ rinv.transpose(0, 2, 1)
        lo = 0.5 * np.sum((us[:, :, None] + us[:, None, :]) ** 2, axis=3)
        hi = minus
    eps = 4e-16
    memo = {(0, 0, 0): (math.sqrt(math.pi) / 4.0 * solid_angle(
        root_det, c[:, 0, 1], c[:, 1, 2], c[:, 0, 2]) / root_det, eps)}

    def step(b, j, by):
        return b[:j] + (b[j] + by,) + b[j + 1:]

    def moment(b):  # (M_b, first-order bound on its relative error)
        if b not in memo:
            a = step(b, b.index(max(b)), -1)
            rhs, err = [], []
            for j in range(3):
                i, m = (x for x in range(3) if x != j)
                value, bound = moment(step(a, j, -1)) if a[j] else (
                    math.gamma((a[i] + a[m]) / 2.0 + 1.0) / 2.0
                    * _two_ray_integral(a[m], a[i] + a[m] + 2,
                                        lo[:, i, m], hi[:, i, m]), eps)
                rhs.append(max(a[j], 1) * value)
                err.append(np.abs(rhs[-1]) * (bound + eps))
            rhs, err = np.stack(rhs, axis=1), np.stack(err, axis=1)
            sol = 0.5 * np.einsum("nij,nj->ni", inv, rhs)
            bound = 0.5 * np.einsum("nij,nj->ni", np.abs(inv), err) / np.abs(sol)
            for j in range(3):
                memo.setdefault(step(a, j, 1), (sol[:, j], bound[:, j] + eps))
        return memo[b]

    with np.errstate(divide="ignore", invalid="ignore"):
        value, bound = moment(tuple(a))
    if not np.all(bound <= 1e-6):
        raise EstimationError("three-ray kernel: ill-conditioned triple")
    p = sum(a) + 3
    return scale ** (-p / 2.0) * 2.0 * value / math.gamma(p / 2.0)


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
    k = 3: the exponent is (3 + sum of the powers) / 2, so the integral is a
    Gaussian orthant moment, which _three_ray_integral reaches by one
    integration-by-parts recursion from a solid angle and two-ray faces.
    k >= 4: Monte Carlo.
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
    powers = tuple(d - 1 - x for x in spec.degrees)
    if k == 3:
        return pref * _three_ray_integral(powers, us, kind)
    grams = us @ us.transpose(0, 2, 1)
    rng = as_rng(rng)
    budget = 200000
    t = np.abs(rng.standard_normal((budget, k)))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    tp = np.prod(t ** np.array(powers, dtype=float), axis=1)
    area = omega(k) / 2.0 ** k
    out = np.empty(us.shape[0])
    chunk = max(1, 2 ** 22 // budget)
    for s in range(0, us.shape[0], chunk):
        quad = np.einsum("bij,mi,mj->bm", grams[s:s + chunk], t, t)
        base = np.maximum((k - quad) if kind == "F" else quad, 1e-300)
        out[s:s + chunk] = (tp * base ** (-power)).mean(axis=1) * area
    return pref * out


def _coincident_mask(us: np.ndarray) -> np.ndarray:
    return np.all(np.linalg.norm(us - us[:, :1, :], axis=2) <= 1e-12, axis=1)


def _dependent_mask(us: np.ndarray) -> np.ndarray:
    sv = np.linalg.svd(us, compute_uv=False)
    return sv[:, -1] <= _RANK_TOL


def kernel_values(spec: KernelSpec, us: np.ndarray, rng=None) -> np.ndarray:
    """Batched kernel evaluation on direction tuples us (N, k, d).

    Applies the mode's zero conventions and the epsilon cutoff.  With
    epsilon 0 the 1e-9 floor raises DivergenceError (F: spread of u, G:
    hull distance); an ill-conditioned three-ray triple EstimationError.
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
