"""Flag measures of polytopes and the Grassmannian multiplier route.

A flag measure of degree n lives on pairs (u, V) of a unit normal and a
(d-1-n)-subspace of u^perp.  For polytopes it is atomic over the n-faces:
each face F carries gamma(d,n) * H^n(F) times the normal-cone sphere measure,
with the Grassmann coordinate weighted by <V, T(F,u)>^2 against the Haar
measure, T(F,u) = u^perp cap lin(F)^perp.

Every Haar draw goes through _haar_split: one complete QR of the Gaussian
draw in host coordinates gives V and its complement W inside u^perp.  Since
[V W] and [T F] are orthonormal bases of the same u^perp (F = lin(F) lies
in u^perp), the complementary minors of [V W]'[T F] agree and
<V, T>^2 = <W, F>^2: the weight is det(W'F)^2 with the face frame F, and T
is never formed.

Mixed volumes and mixed translative functionals are then integrals of a
direction kernel (F_n or G_r) times a multiplier function (phi_n or psi_r)
against a product of flag measures.  The multipliers are finite sums of
squared determinants (Gram determinants where psi's columns fall short of
a square) with coefficients taken from the inverses of small Grassmannian
moment matrices (DMatrix below), closed-form in every d <= 4, so for those
bodies each multiplier value is deterministic; their defining property is
reproducing wedge squares:

    int Phi(U_1..U_k) prod <U_i, A_i>^2 dU  = ||A_1 ^ .. ^ A_k||^2
    int Psi(U_1..U_k) prod <U_i, A_i>^2 dU  = ||A_1 ^ u_1 ^ .. ^ A_k ^ u_k||^2

with Haar-probability integration, which verify_multiplier_identity checks
numerically.  Conventions: flag_mixed_volume divides the multinomial
coefficient out (it returns the mixed volume, matching the other routes);
flag_mixed_functional does not (V_r carries no such factor).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cones import cone_sphere_samples, general_position, spherical_measure
from .errors import DivergenceError, EstimationError, InputError
from .estimates import MCEstimate, combine_product, combine_sum, from_samples
from .exterior import (Subspace, graded_index_sets,
                       graded_scalar_product, subspace_determinant,
                       wedge_norm_sq)
from .kernels import KernelSpec, kernel_values
from .mixed_volume import _split_budget
from .polytope import Face, NormalCone, Polytope
from .util import (as_rng, check_bodies, check_count, check_degrees,
                   multinomial, omega, parallel_map, random_unit_vectors,
                   spawn_rngs)

_MASS_SAMPLES = 40000


def gamma_const(d: int, n: int) -> float:
    """gamma(d, n) = binom(d-1, n) / omega_{d-n}: flag-measure normalization."""
    if not 0 <= n <= d - 1:
        raise InputError(f"degree n={n} out of range for d={d}")
    return math.comb(d - 1, n) / omega(d - n)


def c_const(d: int, degrees) -> float:
    """Product of the per-body gamma constants; divides Phi/Psi into phi/psi."""
    return math.prod(gamma_const(d, n) for n in degrees)


# ---------------------------------------------------------------------------
# D-matrices


@dataclass(frozen=True)
class DMatrix:
    """Moment matrix d^{d-1,j}_{p,q} of graded Grassmann products.

    Defined by E_U[<U,B>^2_p <U,A>^2] = sum_q entries[p,q] <A,B>^2_q for
    U Haar on G(d-1, j) and A, B j-subspaces of R^{d-1}.  `a` solves
    a @ entries = e_0 and carries the multiplier coefficients.
    """

    d: int
    j: int
    entries: np.ndarray
    sigma: np.ndarray
    source: str

    @property
    def grades(self) -> int:
        return self.entries.shape[0]

    @property
    def condition(self) -> float:
        return float(np.linalg.cond(self.entries))

    @property
    def a(self) -> np.ndarray:
        coeffs = np.linalg.solve(self.entries.T, np.eye(self.grades)[0])
        return coeffs

    def unit_row_residual(self) -> float:
        res = self.a @ self.entries - np.eye(self.grades)[0]
        return float(np.max(np.abs(res)))


def closed_d_matrix(d: int, j: int) -> DMatrix | None:
    """Closed forms for every grading with at most two grades, which covers
    every d <= 4; None for g = min(j, m - j) + 1 >= 3 (m = d - 1).

    g = 1 is the identity.  For g = 2 the entries are
    [[3, 1], [m - 1, m + 1]] / (m (m + 2)), from
    E (u.a)^2 (u.b)^2 = (1 + 2 (a.b)^2) / (m (m + 2)) for u uniform on
    S^{m-1} (lines, j = 1); hyperplanes (j = m - 1) have the same entries,
    by passing to orthogonal complements.
    """
    m = d - 1
    if not 0 <= j <= m:
        raise InputError(f"j={j} out of range for host dimension {m}")
    g = min(j, m - j) + 1
    if g == 1:
        return DMatrix(d, j, np.eye(1), np.zeros((1, 1)), "closed")
    if g == 2:
        entries = np.array([[3.0, 1.0], [m - 1.0, m + 1.0]]) / (m * (m + 2))
        return DMatrix(d, j, entries, np.zeros((2, 2)), "closed")
    return None


def _graded_products(us: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """<U, span B[:, :j]>^2_p batched over U frames (N, m, j); B is (m, m)
    with the subspace in the leading columns and its complement behind."""
    j = us.shape[2]
    total = np.zeros(us.shape[0])
    for idx in graded_index_sets(B.shape[0], j, p):
        dets = np.linalg.det(np.swapaxes(us, 1, 2) @ B[:, list(idx)])
        total += dets * dets
    return total


def estimate_d_matrix(d: int, j: int, rng=None, budget: int = 200000,
                      pairs: int | None = None) -> DMatrix:
    """Monte Carlo reconstruction of the moment matrix.

    For random subspace pairs (A, B) the left side E_U[<U,B>^2_p <U,A>^2]
    is estimated over Haar U and regressed on the features <A,B>^2_q; each
    row is an independent least-squares solve.  Errors are the propagated
    per-pair standard errors; an ill-conditioned feature matrix (pairs not
    spreading the principal angles) raises an estimation failure.
    """
    rng = as_rng(rng)
    m = d - 1
    closed = closed_d_matrix(d, j)
    if closed is not None and closed.grades == 1:
        return closed
    g = min(j, m - j) + 1
    npairs = pairs if pairs is not None else max(8, 4 * g * g)
    per_pair = max(1000, budget // npairs)
    feats = np.empty((npairs, g))
    lhs = np.empty((npairs, g))
    se = np.empty((npairs, g))
    eye = np.eye(m)[None]
    for row in range(npairs):
        a_frame = _haar_split(eye, j, rng)[0][0]
        b_full = np.concatenate(_haar_split(eye, j, rng), axis=2)[0]
        A, B = Subspace(a_frame), Subspace(b_full[:, :j])
        feats[row] = [graded_scalar_product(A, B, q) for q in range(g)]
        us = _haar_split(np.broadcast_to(eye, (per_pair, m, m)), j, rng)[0]
        plain = np.linalg.det(np.swapaxes(us, 1, 2) @ a_frame) ** 2
        for p in range(g):
            vals = _graded_products(us, b_full, p) * plain
            lhs[row, p] = vals.mean()
            se[row, p] = vals.std(ddof=1) / math.sqrt(per_pair)
    cond = float(np.linalg.cond(feats))
    if cond > 1e6:
        raise EstimationError(
            f"D-matrix feature system ill-conditioned (cond={cond:.3e}); "
            "increase the pair count")
    pinv = np.linalg.pinv(feats)
    entries = np.empty((g, g))
    sigma = np.empty((g, g))
    for p in range(g):
        entries[p] = pinv @ lhs[:, p]
        sigma[p] = np.abs(pinv) @ se[:, p]
    return DMatrix(d, j, entries, sigma, "mc")


def d_matrix(d: int, j: int, rng=None) -> DMatrix:
    """The closed form when g <= 2 (every d <= 4), else the Monte Carlo
    estimate, which only the dimension-generic kernels reach (d >= 5)."""
    closed = closed_d_matrix(d, j)
    if closed is not None:
        return closed
    return estimate_d_matrix(d, j, rng=rng)


# ---------------------------------------------------------------------------
# multiplier kernels (batched core)


def _batched_complement(mats: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal complements of (N, d, m) frames, shape (N, d, d-m)."""
    n, _, m = mats.shape
    if m == 0:
        return np.broadcast_to(np.eye(d), (n, d, d)).copy()
    if m == d:
        return np.empty((n, d, 0))
    q = np.linalg.qr(mats, mode="complete")[0]
    return q[:, :, m:]


def _haar_split(host: np.ndarray, m: int, rng):
    """Haar m-subspace frames V inside per-sample host frames (N, d, h) and
    their complements W in the host, (N, d, m) and (N, d, h - m), from one
    complete QR of the (N, h, m) Gaussian draw in host coordinates."""
    if m == 0:
        return np.empty(host.shape[:2] + (0,)), host
    q = np.linalg.qr(rng.standard_normal((host.shape[0], host.shape[2], m)),
                     mode="complete")[0]
    frames = host @ q
    return frames[:, :, :m], frames[:, :, m:]


def _slot_complement(u: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The complement of one subspace frame (d, s) inside u^perp, as a
    batch of one (1, d, d-1-s)."""
    return _batched_complement(
        np.concatenate([u.reshape(1, -1, 1), frame[None]], axis=2), len(u))


def _slot_selections(primary: np.ndarray, secondary: np.ndarray, p: int):
    """All column picks taking (dim - p) from the primary frame and p from
    the secondary one; each pick is (N, d, dim)."""
    a, b = primary.shape[2], secondary.shape[2]
    picks = []
    for keep in itertools.combinations(range(a), a - p):
        for add in itertools.combinations(range(b), p):
            cols = [primary[:, :, i] for i in keep] + [secondary[:, :, i] for i in add]
            if cols:
                picks.append(np.stack(cols, axis=2))
            else:
                picks.append(np.empty((primary.shape[0], primary.shape[1], 0)))
    return picks


def _multiplier_values(d: int, us_list, frames, comps, a_vectors,
                       interleave: bool) -> np.ndarray:
    """Batched Phi (interleave False) or Psi (True): us_list[i] is (N, d),
    frames[i] is (N, d, dim_i) inside u_i^perp and comps[i] its complement
    there, (N, d, d-1-dim_i), with dim_i = n_i summing to d for Phi and
    dim_i = d-1-r_i for Psi.  The flag routes hold both halves of one
    _haar_split: mode n passes (W, V), since Phi's arguments are the
    complements of the flag subspaces, and mode r passes (V, W).

    Sums over gradings p and index picks (prod a_p) times the squared
    volume of the horizontally assembled matrix M: slot i picks dim_i - p_i
    columns of its frame and p_i of its complement, followed by u_i when
    interleaved.  The sum over one grading's picks depends on the two
    subspaces only, not on their bases.  That volume is det(M)^2 for a
    square M (Phi, and Psi at j = 0) and the Gram determinant det(M'M) for
    Psi's d x (d - j) matrix at j > 0: closing M with a Haar j-frame W gives
    E det[M | W]^2 = det(M'M) / binom(d, j), since E <W, V>^2 =
    1/binom(d, j) for any fixed j-frame V.
    """
    slots = []
    for u, frame, comp, a in zip(us_list, frames, comps, a_vectors):
        picks = [_slot_selections(frame, comp, p) for p in range(len(a))]
        if interleave:
            picks = [[np.concatenate([x, u[:, :, None]], axis=2) for x in row]
                     for row in picks]
        slots.append(picks)
    total = np.zeros(us_list[0].shape[0])
    for p_combo in itertools.product(*[range(len(a)) for a in a_vectors]):
        coeff = math.prod(a_vectors[i][p] for i, p in enumerate(p_combo))
        if coeff == 0.0:
            continue
        for choice in itertools.product(
                *[slots[i][p] for i, p in enumerate(p_combo)]):
            m = np.concatenate(choice, axis=2)
            if m.shape[2] == d:
                dets = np.linalg.det(m)
                total += coeff * dets * dets
            else:
                total += coeff * np.linalg.det(np.swapaxes(m, 1, 2) @ m)
    return total


def _as_unit_array(u) -> np.ndarray:
    c = np.asarray(u, dtype=float).reshape(-1)
    n = np.linalg.norm(c)
    if not np.isfinite(n) or abs(n - 1.0) > 1e-9:
        raise InputError(f"not a unit vector (norm {n})")
    return c


def _as_frame(s, d: int) -> np.ndarray:
    f = s.frame if isinstance(s, Subspace) else np.asarray(s, dtype=float)
    if f.ndim == 1:
        f = f.reshape(-1, 1)
    if f.shape[0] != d:
        raise InputError("subspace frame has wrong ambient dimension")
    return Subspace(f).frame


def _check_slots(us, frames, dims_wanted, d: int):
    for u, f, want in zip(us, frames, dims_wanted):
        if f.shape[1] != want:
            raise InputError(f"subspace dimension {f.shape[1]}, expected {want}")
        if f.shape[1] and np.max(np.abs(u @ f)) > 1e-8:
            raise InputError("subspace is not contained in u^perp")


def _coefficients(d: int, slot_dims, rng=None):
    return [d_matrix(d, s, rng=rng).a for s in slot_dims]


def phi_kernel(us, subspaces, rng=None) -> float:
    """Phi at one configuration: U_i of dimension n_i inside u_i^perp with
    the n_i summing to the ambient dimension."""
    us = [_as_unit_array(u) for u in us]
    d = us[0].shape[0]
    frames = [_as_frame(s, d) for s in subspaces]
    degrees = check_degrees(d, [f.shape[1] for f in frames], "n")
    _check_slots(us, frames, degrees, d)
    vals = _multiplier_values(d, [u.reshape(1, -1) for u in us],
                              [f[None] for f in frames],
                              [_slot_complement(u, f)
                               for u, f in zip(us, frames)],
                              _coefficients(d, degrees, rng), False)
    return float(vals[0])


def phi_multiplier(us, flag_subspaces, rng=None) -> float:
    """phi_n at flag coordinates: V_i of dimension d-1-n_i inside u_i^perp.

    Evaluates Phi at the complements of the V_i within u_i^perp and divides
    by the gamma-constant product c(d, n)."""
    us = [_as_unit_array(u) for u in us]
    d = us[0].shape[0]
    frames = [_as_frame(s, d) for s in flag_subspaces]
    degrees = check_degrees(d, [d - 1 - f.shape[1] for f in frames], "n")
    _check_slots(us, frames, tuple(d - 1 - n for n in degrees), d)
    vals = _multiplier_values(d, [u.reshape(1, -1) for u in us],
                              [_slot_complement(u, f)
                               for u, f in zip(us, frames)],
                              [f[None] for f in frames],
                              _coefficients(d, degrees, rng), False)
    return float(vals[0]) / c_const(d, degrees)


def psi_kernel(us, subspaces, rng=None) -> float:
    """Psi at one configuration: U_i of dimension d-1-r_i inside u_i^perp.

    A finite sum of squared determinants for j = 0 and of Gram determinants
    for j > 0; deterministic whenever the D-matrices are closed (d <= 4),
    and `rng` only feeds the estimated ones beyond."""
    us = [_as_unit_array(u) for u in us]
    d = us[0].shape[0]
    frames = [_as_frame(s, d) for s in subspaces]
    degrees = check_degrees(d, [d - 1 - f.shape[1] for f in frames], "r")
    slot_dims = tuple(d - 1 - r for r in degrees)
    _check_slots(us, frames, slot_dims, d)
    vals = _multiplier_values(d, [u.reshape(1, -1) for u in us],
                              [f[None] for f in frames],
                              [_slot_complement(u, f)
                               for u, f in zip(us, frames)],
                              _coefficients(d, slot_dims, rng), True)
    return float(vals[0])


def psi_multiplier(us, flag_subspaces, rng=None) -> float:
    """psi_r at flag coordinates (the flag subspaces are Psi's arguments
    directly); Psi divided by the gamma-constant product."""
    d = _as_unit_array(us[0]).shape[0]
    degrees = tuple(d - 1 - _as_frame(s, d).shape[1] for s in flag_subspaces)
    return psi_kernel(us, flag_subspaces, rng=rng) / c_const(d, degrees)


def verify_multiplier_identity(d: int, degrees, identity: str = "subspace",
                               rng=None, trials: int = 20,
                               samples: int = 20000) -> dict:
    """Numerical check of the reproducing property on random configurations.

    identity "subspace": integrates Phi against prod <U_i, A_i>^2 and
    compares with ||A_1 ^ .. ^ A_k||^2 (dim A_i = n_i, sum = d).
    identity "interleaved": integrates Psi and compares with
    ||A_1 ^ u_1 ^ .. ^ A_k ^ u_k||^2 (dim A_i = d-1-r_i).
    Returns per-trial targets, estimates and standardized residuals; in
    degenerate Grassmannians (d = 2) the integrals collapse and residuals
    are exact.
    """
    if identity not in ("subspace", "interleaved"):
        raise InputError('identity must be "subspace" or "interleaved"')
    degrees = check_degrees(d, degrees, "n" if identity == "subspace" else "r")
    check_count(trials, "trials")
    check_count(samples)
    k = len(degrees)
    slot_dims = degrees if identity == "subspace" else \
        tuple(d - 1 - r for r in degrees)
    rng = as_rng(rng)
    a_vecs = _coefficients(d, slot_dims, rng)
    rows = []
    for _ in range(trials):
        us = random_unit_vectors(d, k, rng)
        hosts = [_batched_complement(us[i].reshape(1, -1, 1), d)
                 for i in range(k)]
        targets_frames = [_haar_split(hosts[i], slot_dims[i], rng)[0][0]
                          for i in range(k)]
        if identity == "subspace":
            target = wedge_norm_sq(np.concatenate(targets_frames, axis=1).T)
        else:
            cols = []
            for i in range(k):
                cols.append(targets_frames[i])
                cols.append(us[i].reshape(-1, 1))
            target = wedge_norm_sq(np.concatenate(cols, axis=1).T)
        us_b = [np.repeat(us[i].reshape(1, -1), samples, axis=0)
                for i in range(k)]
        drawn, comps = zip(*[
            _haar_split(np.repeat(hosts[i], samples, axis=0), slot_dims[i],
                        rng) for i in range(k)])
        weight = np.ones(samples)
        for i in range(k):
            if slot_dims[i]:
                dets = np.linalg.det(
                    np.swapaxes(drawn[i], 1, 2) @ targets_frames[i])
                weight *= dets * dets
        kern = _multiplier_values(d, us_b, drawn, comps, a_vecs,
                                  identity == "interleaved")
        est = from_samples(kern * weight)
        resid = est.value - target
        # degenerate configurations are exact; don't standardize by pure
        # float jitter
        floor = 1e-12 * max(1.0, abs(target))
        std_resid = resid / max(est.std_error, floor)
        rows.append({"target": float(target), "estimate": est.value,
                     "std_error": est.std_error,
                     "residual": float(resid),
                     "std_residual": float(std_resid)})
    return {"identity": identity, "d": d, "degrees": list(degrees),
            "trials": rows,
            "max_std_residual": max(abs(r["std_residual"]) for r in rows),
            "max_abs_residual": max(abs(r["residual"]) for r in rows)}


# ---------------------------------------------------------------------------
# flag atoms


@dataclass(frozen=True)
class FlagAtom:
    """One n-face's contribution to the flag measure."""

    face: Face
    cone: NormalCone
    hausdorff: float
    cone_mass: MCEstimate


@dataclass(frozen=True)
class FlagAtomSet:
    """Atomic representation of the degree-n flag measure of one polytope."""

    d: int
    n: int
    atoms: tuple
    meta: dict = field(default_factory=dict)

    @property
    def gamma(self) -> float:
        return gamma_const(self.d, self.n)

    def total_mass(self) -> MCEstimate:
        """Mass of the flag measure; equals the n-th intrinsic volume (the
        Haar average of <V,T>^2 contributes exactly 1/binom(d-1,n))."""
        scale = self.gamma / math.comb(self.d - 1, self.n)
        parts = [a.cone_mass.scaled(scale * a.hausdorff) for a in self.atoms]
        return combine_sum(parts) if parts else MCEstimate.exact(0.0)

    def integrate(self, g, rng, samples_per_atom: int = 2000) -> MCEstimate:
        """MC integral of g(u, V) against the flag measure; g maps a unit
        normal (array) and a Subspace to a float."""
        rng = as_rng(rng)
        parts = []
        for atom in self.atoms:
            if atom.cone.dim == 0:
                continue
            us, mass = cone_sphere_samples(atom.cone, samples_per_atom, rng)
            vs, ws = _haar_split(_batched_complement(us[:, :, None], self.d),
                                 self.d - 1 - self.n, rng)
            # <V, T>^2 = <W, F>^2 (module docstring)
            dets = np.linalg.det(np.swapaxes(ws, 1, 2) @ atom.face.frame.frame)
            vals = np.array([g(u, Subspace(v)) for u, v in zip(us, vs)]) \
                * (dets * dets)
            parts.append(combine_product([from_samples(vals), mass])
                         .scaled(self.gamma * atom.hausdorff))
        return combine_sum(parts) if parts else MCEstimate.exact(0.0)


def polytope_flag_atoms(P: Polytope, n: int, rng=None,
                        cone_samples: int = _MASS_SAMPLES) -> FlagAtomSet:
    """Atoms of the degree-n flag measure of a polytope.

    Each n-face contributes its Hausdorff measure, its normal cone, and the
    cone's spherical mass (exact below linear dimension 3, rejection MC
    above, hence the rng)."""
    d = P.dim
    if not 0 <= n <= d - 1:
        raise InputError(f"flag degree n={n} out of range for d={d}")
    rng = as_rng(rng)
    atoms = []
    for face in P.faces(n):
        mass = spherical_measure(face.normal_cone, rng=rng,
                                 samples=cone_samples)
        atoms.append(FlagAtom(face, face.normal_cone, face.measure, mass))
    return FlagAtomSet(d, n, tuple(atoms), meta={"name": P.name})


# ---------------------------------------------------------------------------
# flag representations


def _flag_tuple_estimate(d, degrees, atom_tuple, spec, a_vecs, rng,
                         n_draws, mode: str):
    """E over one face tuple of kernel * multiplier * prod <V_i, T_i>^2,
    times the atom weights (gamma, Hausdorff, cone mass)."""
    us_list, masses = [], []
    for atom in atom_tuple:
        us, mass = cone_sphere_samples(atom.cone, n_draws, rng)
        us_list.append(us)
        masses.append(mass)
    # flag coordinate dimension is d-1-degree for both representations
    vs, ws = [], []
    weight = np.ones(n_draws)
    for atom, u, deg in zip(atom_tuple, us_list, degrees):
        v, w = _haar_split(_batched_complement(u[:, :, None], d),
                           d - 1 - deg, rng)
        vs.append(v)
        ws.append(w)
        if deg < d - 1:
            # <V, T>^2 = <W, F>^2 (module docstring)
            dets = np.linalg.det(np.swapaxes(w, 1, 2) @ atom.face.frame.frame)
            weight *= dets * dets
    frames, comps = (ws, vs) if mode == "n" else (vs, ws)
    mult = _multiplier_values(d, us_list, frames, comps, a_vecs, mode == "r")
    kern = kernel_values(spec, np.stack(us_list, axis=1), rng=rng)
    core = from_samples(kern * mult * weight)
    # atom gammas cancel against the 1/c constant of the multiplier exactly
    hs = math.prod(a.hausdorff for a in atom_tuple)
    return combine_product([core] + masses).scaled(hs)


def _flag_sum(polytopes, degrees, mode, rng, eps, samples, threads):
    d = polytopes[0].dim
    k = len(polytopes)
    rng = as_rng(rng)
    atom_sets = [polytope_flag_atoms(p, deg, rng=rng)
                 for p, deg in zip(polytopes, degrees)]
    slot_dims = degrees if mode == "n" else tuple(d - 1 - r for r in degrees)
    a_vecs = _coefficients(d, slot_dims, rng)
    spec = KernelSpec(d, degrees, mode, epsilon=eps)
    tuples = [t for t in itertools.product(*[s.atoms for s in atom_sets])
              if all(a.cone.dim >= 1 for a in t)]
    weights = []
    kept = []
    for t in tuples:
        span_frames = [a.face.frame for a in t] if mode == "n" else \
                      [a.cone.span for a in t]
        br = subspace_determinant(span_frames)
        if br <= 1e-12:
            continue
        kept.append(t)
        weights.append(math.prod(a.hausdorff * max(a.cone_mass.value, 1e-12)
                                 for a in t))
    if not kept:
        return MCEstimate.exact(0.0)
    budgets = _split_budget(np.array(weights), samples)
    streams = spawn_rngs(rng, len(kept))

    def one(i: int) -> MCEstimate:
        return _flag_tuple_estimate(d, degrees, kept[i], spec, a_vecs,
                                    streams[i], budgets[i], mode)

    return combine_sum(parallel_map(one, range(len(kept)), threads=threads))


def flag_mixed_volume(polytopes, n, rng=None, eps: float = 0.0,
                      samples: int = 40000, threads: int = 1) -> MCEstimate:
    """Mixed volume V(K_1[n_1], .., K_k[n_k]) from flag measures.

    Sums E[F_n * phi_n * prod <V_i,T_i>^2] over face tuples of dimensions
    n_i weighted by the atom masses, divided by the multinomial coefficient
    (the flag identity carries it on the left).  Tuples with linearly
    dependent face spans integrate to zero and are skipped.  With eps = 0
    the direction kernel is unbounded unless the bodies are in general
    position, which is checked up front; eps > 0 evaluates the cutoff
    kernel F^(eps) instead and always converges (monotone in eps).
    """
    d, n = check_bodies(polytopes, n, "n")
    check_count(samples)
    if eps < 0:
        raise InputError("eps must be nonnegative")
    if eps == 0.0 and not general_position(polytopes, n, "mixed-volume"):
        raise DivergenceError(
            "bodies are not in general position for these degrees; the "
            "direction kernel is unbounded on the flag support (use eps > 0)")
    est = _flag_sum(polytopes, n, "n", rng, eps, samples, threads)
    return est.scaled(1.0 / multinomial(d, n))


def flag_mixed_functional(polytopes, r, rng=None, eps: float = 0.0,
                          samples: int = 40000,
                          threads: int = 1) -> MCEstimate:
    """Mixed translative functional V_r from flag measures.

    Sums E[G_r * psi_r * prod <U_i,T_i>^2] over face tuples of dimensions
    r_i; no multinomial factor applies.  General (r)-position (no choice of
    cone normals capturing 0 in its hull) is required for eps = 0.
    """
    _, r = check_bodies(polytopes, r, "r")
    check_count(samples)
    if eps < 0:
        raise InputError("eps must be nonnegative")
    if eps == 0.0 and not general_position(polytopes, r, "translative"):
        raise DivergenceError(
            "bodies are not in general (r)-position for these degrees; the "
            "hull-distance kernel is unbounded on the flag support "
            "(use eps > 0)")
    return _flag_sum(polytopes, r, "r", rng, eps, samples, threads)
