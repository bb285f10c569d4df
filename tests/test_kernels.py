"""Direction-tuple kernels F_n and G_r.

Closed-form anchors: F on an orthogonal 2D pair is 1/4, F_(1,1,1) on an
orthonormal triple is its prefactor / 64 and G_(2,2,2) there is 1/8, and
the positive-sphere projection self-test has target
omega_p (1+beta)^{-(p-d)/2}.  The two- and three-ray kernels are checked
against panel-doubling quadratures of the defining integral kept here as
oracles, and the two-ray ones against their elementary forms in d <= 3.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixvol import kernels
from mixvol.errors import DivergenceError, EstimationError, InputError
from mixvol.estimates import MCEstimate
from mixvol.kernels import (KernelSpec, _two_ray_integral,
                            hull_distance_batch, in_star_region,
                            kernel_values, perp_spread, perp_spread_batch,
                            solid_angle, sphere_projection_selftest)
from mixvol.util import omega, random_unit_vectors


# ---------------------------------------------------------------------------
# oracle: the panel-doubling quadratures the two- and three-ray kernels used
# to run


def _gauss_panels(panels: int, order: int = 16):
    """Gauss-Legendre nodes and weights on equal panels of [0, pi/2]."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, math.pi / 2.0, panels + 1)
    half = np.diff(edges)[:, None] / 2.0
    return (((edges[:-1] + edges[1:])[:, None] / 2.0 + half * x0).ravel(),
            (half * w0).ravel())


def _arc_grid(panels: int):
    """Chart of S^1_+ : t = (cos th, sin th), th in [0, pi/2]."""
    th, w = _gauss_panels(panels)
    return np.stack([np.cos(th), np.sin(th)], axis=1), w


def _octant_grid(panels: int):
    """Tensor chart of S^2_+ : t = (sin ph cos th, sin ph sin th, cos ph)."""
    ang, w = _gauss_panels(panels)
    s, c = np.sin(ang), np.cos(ang)
    t = np.stack([np.outer(s, c).ravel(), np.outer(s, s).ravel(),
                  np.outer(c, np.ones_like(ang)).ravel()], axis=1)
    return t, np.outer(w * s, w).ravel()


def _refine(frows, count: int, rtol: float, max_level: int, k: int):
    """Panel doubling on the arc (k = 2, from 4 panels) or the octant
    (k = 3, from 2 panels) until each row's value moves by at most rtol;
    rows that never do keep their last delta as the error."""
    grid, panels = (_arc_grid, 4) if k == 2 else (_octant_grid, 2)
    vals = np.zeros(count)
    errs = np.zeros(count)
    idx = np.arange(count)
    t, w = grid(panels)
    cur = frows(idx, t) @ w
    for _ in range(max_level):
        panels *= 2
        t, w = grid(panels)
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


def sphere_plus_integrate(f, k: int, rtol: float = 1e-10) -> MCEstimate:
    """Integral of f over S^{k-1}_+ for k = 2 (arc) and 3 (octant); the
    std_error field carries the last refinement delta."""
    frows = lambda idx, t: np.asarray(f(t), dtype=float)[None, :]
    if k == 2:
        vals, errs = _refine(frows, 1, rtol, 14, 2)
    else:
        vals, errs = _refine(frows, 1, max(rtol, 1e-10), 6, 3)
    return MCEstimate(float(vals[0]), float(errs[0]), 0)


def _oracle_core(spec, us, kind, rng=None):
    """Two- and three-ray kernels by panel doubling on the defining
    integral: to rtol 1e-11 on the arc (13 doublings), and to rtol 1e-12 on
    the octant (5 doublings, one tuple at a time).  The F base
    sum_{i<j} |t_i u_i - t_j u_j|^2 is written
    sum_{i<j} (t_i - t_j)^2 + t_i t_j |u_i - u_j|^2, and the two-ray G base
    |t_1 u_1 + t_2 u_2|^2 as (t_1 - t_2)^2 + t_1 t_2 |u_1 + u_2|^2: that
    keeps the digits that k - t'Gt and t'Gt cancel near coincident (F) and
    antipodal (G) pairs.  The three-ray G base is t'Gt."""
    k, d = spec.k, spec.d
    exps = np.array([d - 1 - x for x in spec.degrees], dtype=float)
    if kind == "F":
        power, pref = (k - 1) * d / 2.0, kernels._f_prefactor(spec)
    else:
        power, pref = (d - spec.j) / 2.0, 1.0 / omega(d - spec.j)
    pairs = list(itertools.combinations(range(k), 2))
    sign = -1.0 if kind == "F" else 1.0
    gap = np.stack([np.sum((us[:, i] + sign * us[:, j]) ** 2, axis=1)
                    for i, j in pairs], axis=1)
    grams = us @ us.transpose(0, 2, 1)

    def integrand(idx, t):
        if kind == "F" or k == 2:
            base = sum((t[:, i] - t[:, j]) ** 2
                       + np.outer(gap[idx, n], t[:, i] * t[:, j])
                       for n, (i, j) in enumerate(pairs))
        else:
            base = np.einsum("bij,mi,mj->bm", grams[idx], t, t)
        return np.prod(t ** exps, axis=1) * base ** (-power)

    if k == 2:
        return pref * _refine(integrand, us.shape[0], 1e-11, 13, 2)[0]
    return pref * np.array([
        _refine(lambda idx, t, r=r: integrand(idx + r, t), 1, 1e-12, 5, 3)[0][0]
        for r in range(us.shape[0])])


def _pairs(c, d):
    """Unit pairs (e_1, c e_1 + sqrt(1 - c^2) e_2) in R^d, u_1.u_2 = c."""
    c = np.asarray(c, dtype=float)
    us = np.zeros((c.size, 2, d))
    us[:, 0, 0] = 1.0
    us[:, 1, 0] = c
    us[:, 1, 1] = np.sqrt((1.0 - c) * (1.0 + c))
    return us


_NEAR = (0.999, 0.9999, 1.0 - 1e-9)
_C_GRID = np.array(sorted({-x for x in _NEAR} | set(_NEAR)
                          | {-0.99, -0.7, -0.3, 0.0, 0.2, 0.6, 0.9}))


def _two_ray_specs():
    for d in range(2, 7):
        for a in range(d):
            for b in range(d):
                for mode in ("n", "r"):
                    try:
                        yield KernelSpec(d, (a, b), mode)
                    except InputError:
                        pass


def test_spec_validation():
    KernelSpec(2, (1, 1), "n")
    with pytest.raises(InputError):
        KernelSpec(2, (1, 2), "n")    # sum != d
    with pytest.raises(InputError):
        KernelSpec(3, (3, 0), "n")    # out of 0..d-1
    with pytest.raises(InputError):
        KernelSpec(2, (1, 0), "r")    # r_i >= 1
    with pytest.raises(InputError):
        KernelSpec(3, (1, 1), "r")    # sum below (k-1)d
    spec = KernelSpec(3, (2, 2), "r")
    assert spec.j == 1


def test_orthogonal_pair_anchor():
    us = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert kernel_values(KernelSpec(2, (1, 1), "n"), us[None])[0] \
        == pytest.approx(0.25)


def test_f_2d_closed_form():
    # one-variable reduction of the t-integral for d=2, degrees (1,1):
    # F(u1, u2) = (pi - theta) / (2 pi sin theta), theta the angle between
    spec = KernelSpec(2, (1, 1), "n")
    for theta in (0.4, 1.0, 2.2):
        us = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
        want = (math.pi - theta) / (2.0 * math.pi * math.sin(theta))
        assert kernel_values(spec, us[None])[0] == pytest.approx(want, rel=1e-7)


def test_coincident_tuple_zero_convention():
    # exactly repeated directions are dropped as a measure-zero event
    us = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert kernel_values(KernelSpec(2, (1, 1), "n"), us[None])[0] == 0.0
    assert kernel_values(KernelSpec(2, (1, 1), "n", 0.1), us[None])[0] == 0.0


def test_divergence_near_the_diagonal():
    # distinct but nearly parallel directions: the pole is unresolvable
    u2 = np.array([1.0, 1e-10])
    u2 /= np.linalg.norm(u2)
    us = np.stack([np.array([1.0, 0.0]), u2])
    with pytest.raises(DivergenceError):
        kernel_values(KernelSpec(2, (1, 1), "n"), us[None])
    # the eps cutoff zeroes the same tuple instead
    assert kernel_values(KernelSpec(2, (1, 1), "n", 0.1), us[None])[0] == 0.0


def test_g_zero_convention_for_dependent_tuples():
    us = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert kernel_values(KernelSpec(2, (1, 1), "r"), us[None])[0] == 0.0


def test_g_grows_near_the_hull_singularity():
    spec = KernelSpec(2, (1, 1), "r")
    vals = []
    for phi in (0.5, 0.1, 0.02):
        us = np.array([[1.0, 0.0], [-math.cos(phi), math.sin(phi)]])
        vals.append(kernel_values(spec, us[None])[0])
    assert 0.0 < vals[0] < vals[1] < vals[2]


def test_antipodal_f_pair_is_finite():
    # mode n only degenerates on the diagonal, not at antipodes
    us = np.array([[1.0, 0.0], [-1.0, 0.0]])
    val = kernel_values(KernelSpec(2, (1, 1), "n"), us[None])[0]
    assert np.isfinite(val) and val > 0.0


def test_kernel_values_input_checks():
    spec = KernelSpec(2, (1, 1), "n")
    with pytest.raises(InputError):
        kernel_values(spec, np.ones((4, 2, 2)))       # not unit
    with pytest.raises(InputError):
        kernel_values(spec, np.zeros((4, 3, 2)))      # wrong k


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_spread_lower_bounds(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    d = int(rng.integers(2, 4))
    us = random_unit_vectors(d, k, rng)
    t = np.abs(rng.standard_normal(k))
    t /= np.linalg.norm(t)
    spread = perp_spread(t[:, None] * us)
    if in_star_region(t):
        assert spread >= perp_spread(us) / (2.0 * math.sqrt(k)) - 1e-12
    else:
        assert spread >= 1.0 / (2.0 * k) - 1e-12


@pytest.mark.parametrize("theta", [1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
def test_perp_spread_near_the_diagonal(theta):
    # u_2 at angle theta from u_1: the spread is |u_1 - u_2| / sqrt 2 =
    # theta / sqrt 2 to O(theta^3), with no cancellation toward 0
    us = np.array([[1.0, 0.0, 0.0], [math.cos(theta), math.sin(theta), 0.0]])
    want = math.sqrt(2.0) * math.sin(theta / 2.0)
    assert perp_spread(us) == pytest.approx(want, rel=1e-12)
    assert perp_spread(us) == pytest.approx(theta / math.sqrt(2.0), rel=1e-12)
    assert perp_spread_batch(us[None])[0] == perp_spread(us)
    if theta >= 1e-8:  # above the 1e-9 floor: a finite value, not a raise
        got = kernel_values(KernelSpec(3, (1, 2), "n"), us[None])[0]
        assert np.isfinite(got) and got > 0.0
    else:
        with pytest.raises(DivergenceError):
            kernel_values(KernelSpec(3, (1, 2), "n"), us[None])


def test_perp_spread_batch_matches_scalar(rng):
    us = rng.standard_normal((50, 3, 2))
    batch = perp_spread_batch(us)
    for i in range(50):
        assert batch[i] == pytest.approx(perp_spread(us[i]), abs=1e-12)


def test_hull_distance_simple_cases():
    us = np.array([[[1.0, 0.0], [0.0, 1.0]],
                   [[1.0, 0.0], [-1.0, 0.0]],
                   [[1.0, 0.0], [math.cos(0.5), math.sin(0.5)]]])
    dist = hull_distance_batch(us)
    assert dist[0] == pytest.approx(math.sqrt(0.5))
    assert dist[1] == pytest.approx(0.0, abs=1e-12)
    # both on the same side: distance to the chord
    assert dist[2] == pytest.approx(math.cos(0.25), rel=1e-9)


def test_eps_cutoff_monotone(rng):
    us = random_unit_vectors(2, 40, rng).reshape(20, 2, 2)
    lo = kernel_values(KernelSpec(2, (1, 1), "n", 0.05), us)
    hi = kernel_values(KernelSpec(2, (1, 1), "n", 0.5), us)
    assert np.all(hi <= lo + 1e-12)
    assert np.all(lo >= 0.0)


def test_kernel_rotation_invariance(rng):
    from mixvol.util import random_rotation

    us = random_unit_vectors(3, 40, rng).reshape(20, 2, 3)
    spec = KernelSpec(3, (1, 2), "n", 0.05)
    base = kernel_values(spec, us)
    rho = random_rotation(3, rng)
    np.testing.assert_allclose(kernel_values(spec, us @ rho.T), base,
                               rtol=1e-6, atol=1e-9)


def test_sphere_plus_integrate_constant():
    # integral of 1 over the positive part of S^{k-1}
    for k in (2, 3):
        got = sphere_plus_integrate(lambda t: np.ones(t.shape[0]), k)
        assert got.value == pytest.approx(omega(k) / 2.0 ** k, rel=1e-6)


def test_sphere_plus_integrate_flags_non_convergence():
    # a kink the panel doubling cannot resolve to 1e-10 within its levels:
    # the value is the finest level's and the error its last delta, not 0
    got = sphere_plus_integrate(
        lambda t: 1.0 / np.maximum(np.abs(t[:, 0] - 0.7), 1e-3), 2)
    assert got.std_error > 1e-10 * got.value
    smooth = sphere_plus_integrate(lambda t: t[:, 0] ** 2, 2)
    assert smooth.value == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert smooth.std_error <= 1e-10 * smooth.value


def test_projection_selftest_anchor():
    est, target = sphere_projection_selftest(4, 2, 1.0, rng=12,
                                             samples=20000)
    assert target == pytest.approx(omega(4) * (1 + 1.0) ** (-1.0))
    assert abs(est.value - target) / target <= 0.02
    with pytest.raises(InputError):
        sphere_projection_selftest(5, 2, 1.0, rng=0)


def _with_oracle(monkeypatch, spec, us):
    """kernel_values with the two-ray core swapped for the oracle."""
    with monkeypatch.context() as m:
        m.setattr(kernels, "_core_batch", _oracle_core)
        return kernel_values(spec, us)


def test_two_ray_kernels_match_the_oracle(monkeypatch):
    # d = 2..6, both modes, every admissible degree pair, |c| up to 1 - 1e-9
    seen = 0
    for spec in _two_ray_specs():
        us = _pairs(_C_GRID, spec.d)
        want = _with_oracle(monkeypatch, spec, us)
        np.testing.assert_allclose(kernel_values(spec, us), want, rtol=1e-10,
                                   err_msg=str(spec))
        seen += 1
    assert seen == (1 + 3 + 6 + 10 + 15) + (1 + 2 + 3 + 4 + 5)


def test_two_ray_elementary_forms():
    # p = 2: atan2(s, -c) / s;  p = 3: 1 / (1 - c);  c -> -c in mode r
    c = np.concatenate([_C_GRID, [-1.0 + 1e-12, -0.5, 0.5]])
    s = np.sqrt((1.0 - c) * (1.0 + c))
    cases = [(2, (1, 1), "n", np.arctan2(s, -c) / (s * omega(2))),
             (3, (1, 2), "n", 1.0 / (omega(3) * (1.0 - c))),
             (3, (2, 1), "n", 1.0 / (omega(3) * (1.0 - c))),
             (2, (1, 1), "r", np.arctan2(s, c) / (s * omega(2))),
             (3, (1, 2), "r", 1.0 / (omega(3) * (1.0 + c))),
             (3, (2, 1), "r", 1.0 / (omega(3) * (1.0 + c))),
             (3, (2, 2), "r", np.arctan2(s, c) / (s * omega(2)))]
    for d, degrees, mode, want in cases:
        got = kernel_values(KernelSpec(d, degrees, mode), _pairs(c, d))
        np.testing.assert_allclose(got, want, rtol=1e-14,
                                   err_msg=f"{d} {degrees} {mode}")
    # the quadrature of the reduced integral against the p = 4 forms
    # (L + s c) / (2 s^3) for b = 0, 2 and (s + L c) / (2 s^3) for b = 1,
    # away from c = -1 where they cancel
    c, s = c[c > -0.9], s[c > -0.9]
    ell = np.arctan2(s, -c)
    for b, want in ((0, ell + s * c), (1, s + ell * c), (2, ell + s * c)):
        np.testing.assert_allclose(_two_ray_integral(b, 4, 1.0 - c, 1.0 + c),
                                   want / (2.0 * s ** 3), rtol=1e-14)


def test_two_ray_antipodal_limit_is_exact():
    # c = -1 (s = 0): int_0^inf t^b (1 + t)^-p dt = b! (p-2-b)! / (p-1)!
    from fractions import Fraction

    for p in range(2, 9):
        for b in range(p - 1):
            want = float(Fraction(math.factorial(b) * math.factorial(p - 2 - b),
                                  math.factorial(p - 1)))
            assert _two_ray_integral(b, p, np.array([2.0]),
                                     np.array([0.0]))[0] == want
    for spec in _two_ray_specs():
        if spec.mode == "n":
            d, n2 = spec.d, spec.degrees[1]
            want = float(Fraction(math.factorial(d - 1 - n2)
                                  * math.factorial(n2 - 1),
                                  math.factorial(d - 1)))
            got = kernel_values(spec, _pairs([-1.0], d))[0]
            assert got == pytest.approx(want / omega(d), rel=4e-16)


def test_floor_decisions_match_the_oracle(monkeypatch):
    # the spread floor, hull floor, zero conventions and epsilon cutoffs act
    # on the directions, so the oracle core decides every input the same way
    def turned(angles, d=3, sign=1.0):
        a = np.asarray(angles, dtype=float)
        us = np.zeros((a.size, 2, d))
        us[:, 0, 0] = sign
        us[:, 1, 0] = np.cos(a)
        us[:, 1, 1] = np.sin(a)
        return us

    near = [0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6, 1e-3, 0.3]
    inputs = {
        "n": [turned([a]) for a in near] + [turned(near)]
             + [turned([math.pi]), turned([math.pi - 1e-9])],
        "r": [turned([a], sign=-1.0) for a in near] + [turned(near, sign=-1.0)]
             + [turned([0.0]), turned([1e-9])],
    }
    seen = set()
    for mode, degrees in (("n", (1, 2)), ("n", (2, 1)), ("r", (2, 2)),
                          ("r", (1, 2))):
        for eps in (0.0, 1e-9, 1e-3, 0.1, 0.9):
            spec = KernelSpec(3, degrees, mode, eps)
            for us in inputs[mode]:
                outcomes = []
                for core in (kernels._core_batch, _oracle_core):
                    with monkeypatch.context() as m:
                        m.setattr(kernels, "_core_batch", core)
                        try:
                            outcomes.append(kernel_values(spec, us))
                        except DivergenceError:
                            outcomes.append(None)
                new, old = outcomes
                assert (new is None) == (old is None), (spec, us)
                if new is None:
                    seen.add("raise")
                    continue
                np.testing.assert_array_equal(new == 0.0, old == 0.0)
                assert np.all(np.isfinite(new))
                seen.update(np.where(new == 0.0, "zero", "value"))
    assert seen == {"raise", "zero", "value"}


def _three_ray_specs():
    for d in range(2, 6):
        for degrees in itertools.product(range(d), repeat=3):
            for mode in ("n", "r"):
                try:
                    yield KernelSpec(d, degrees, mode)
                except InputError:
                    pass


def _near_coincident(d, spread, rng, n=2):
    """n unit triples within about `spread` of e_1."""
    us = np.zeros((n, 3, d))
    us[:, :, 0] = 1.0
    us[:, :, 1:] = spread * rng.standard_normal((n, 3, d - 1))
    return us / np.linalg.norm(us, axis=2, keepdims=True)


def _near_dependent(d, tilt, rng, n=2):
    """n unit triples within 0.6 rad of e_1 in the (e_1, e_2) plane, tilted
    out of it by about `tilt`: nearly dependent, 0 far from their hull."""
    ang = rng.uniform(-0.6, 0.6, (n, 3))
    us = np.zeros((n, 3, d))
    us[:, :, 0], us[:, :, 1] = np.cos(ang), np.sin(ang)
    us[:, :, 2:] = tilt * rng.standard_normal((n, 3, d - 2))
    return us / np.linalg.norm(us, axis=2, keepdims=True)


def test_three_ray_kernels_match_the_oracle(monkeypatch):
    # d = 2..5, both modes, every admissible degree triple: four random
    # triples (for G with 0 at least 0.2 from their hull, where the octant
    # oracle converges) and two near-coincident (F, spread 0.05) or
    # near-dependent (G, tilt 1e-2) ones
    rng = np.random.default_rng(23)
    seen = 0
    for spec in _three_ray_specs():
        d = spec.d
        draws = random_unit_vectors(d, 60, rng).reshape(20, 3, d)
        if spec.mode == "n":
            us = np.concatenate([draws[:4], _near_coincident(d, 0.05, rng)])
        else:
            far = draws[hull_distance_batch(draws) > 0.2][:4]
            assert len(far) == 4
            us = np.concatenate([far, _near_dependent(d, 1e-2, rng)])
        want = _with_oracle(monkeypatch, spec, us)
        assert np.all(want > 0.0)
        np.testing.assert_allclose(kernel_values(spec, us), want, rtol=1e-10,
                                   err_msg=str(spec))
        seen += 1
    assert seen == (3 + 7 + 12 + 18) + (1 + 4 + 10)


def test_orthonormal_three_ray_anchors():
    # U = I: F_(1,1,1) = prefactor * int t_1 t_2 t_3 (2 |t|^2)^-3 over S^2_+
    # = prefactor / 64, and G_(2,2,2) = (pi / 2) / omega_3 = 1 / 8
    us = np.eye(3)[None]
    spec = KernelSpec(3, (1, 1, 1), "n")
    assert kernel_values(spec, us)[0] == pytest.approx(
        kernels._f_prefactor(spec) / 64.0, rel=1e-15, abs=0.0)
    assert kernel_values(KernelSpec(3, (2, 2, 2), "r"), us)[0] == \
        pytest.approx(0.125, rel=1e-15, abs=0.0)


def test_ill_conditioned_three_ray_triples_raise():
    # a small eigenvalue of C with a mixed-sign eigenvector leaves the
    # kernel finite but cancels digits in C^-1: collinear F triples with an
    # antipodal pair, and G triples 1e-7 from a plane with 0 far from their
    # hull, raise instead of returning the cancelled digits
    f_cases = ([(2, (1, 0, 1)), [[1, 0], [-1, 0], [1, 0]]],
               [(3, (1, 1, 1)), [[1, 0, 0], [-1, 0, 0], [1, 0, 0]]],
               [(3, (1, 1, 1)), [[1, 0, 0], [-1, 1e-3, 0], [1, 0, 1e-3]]])
    ang = np.array([-0.5, 0.1, 0.6])
    g_triple = np.stack([np.cos(ang), np.sin(ang), [1e-7, -1e-7, 1e-7],
                         np.zeros(3)], axis=1)
    for spec, us in [(KernelSpec(d, deg, "n"), us) for (d, deg), us in f_cases] \
            + [(KernelSpec(4, (2, 3, 3), "r"), g_triple)]:
        us = np.asarray(us, dtype=float)
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        with pytest.raises(EstimationError):
            kernel_values(spec, us[None])


def test_three_ray_g_is_the_solid_angle(rng, monkeypatch):
    # r = (2, 2, 2) in R^3 is the recursion's root alone:
    # G = Omega / (omega_3 |det U|), and the octant oracle agrees
    us = random_unit_vectors(3, 60, rng).reshape(20, 3, 3)
    us = us[hull_distance_batch(us) > 0.2]
    assert len(us) >= 5
    spec = KernelSpec(3, (2, 2, 2), "r")
    got = kernel_values(spec, us)
    det = np.abs(np.linalg.det(us))
    grams = us @ us.transpose(0, 2, 1)
    want = solid_angle(det, grams[:, 0, 1], grams[:, 1, 2],
                       grams[:, 0, 2]) / (omega(3) * det)
    np.testing.assert_allclose(got, want, rtol=1e-13)
    np.testing.assert_allclose(got, _with_oracle(monkeypatch, spec, us),
                               rtol=1e-10)
    # an orthant is an eighth of the sphere
    assert solid_angle(1.0, 0.0, 0.0, 0.0) == pytest.approx(math.pi / 2.0,
                                                            rel=1e-15)
