"""Acceptance checks: every shipped numerical claim, one function each.

Shared by `mixvol verify` and the test suite.  Each check returns a dict
with a pass flag and a short human-readable detail string; run_suite
executes all of them in order and emits one line per criterion.  The
"quick" suite shrinks Monte Carlo budgets but keeps every tolerance; the
"full" suite runs the stated budgets.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import time

import numpy as np

from .errors import DivergenceError
from .exterior import Subspace, graded_scalar_product, wedge_norm_sq
from .flag_calculus import (closed_d_matrix, estimate_d_matrix,
                            flag_mixed_functional, flag_mixed_volume,
                            verify_multiplier_identity)
from .generators import cube, diamond, rotated_cube, segment, simplex
from .kernels import (KernelSpec, in_star_region, kernel_values, perp_spread,
                      perp_spread_batch, sphere_projection_selftest)
from .mixed_volume import (angle_mixed_volume, mixed_exterior_angle,
                           oracle_mixed_volumes, schneider_mixed_volume)
from .translative import (curvature_mixed_functional, decompose_homogeneous,
                          duality_check, translative_integral_mc)
from .util import as_rng, multinomial, random_rotation, random_unit_vectors

_BUDGETS = {
    "quick": dict(c3_samples=20000, c4_tuples=8, c4_samples=5000,
                  c5_samples=10 ** 5, c6_trials=2, c6_samples=20000,
                  c7_seeds=3, c7_samples=2000, c11_cases=200),
    "full": dict(c3_samples=10 ** 5, c4_tuples=20, c4_samples=20000,
                 c5_samples=10 ** 5, c6_trials=5, c6_samples=40000,
                 c7_seeds=10, c7_samples=4000, c11_cases=1000),
}

_FAMILIES = (cube, simplex, diamond)


def _result(num: int, name: str, passed: bool, detail: str, **data) -> dict:
    return {"criterion": num, "name": name, "passed": bool(passed),
            "detail": detail, **data}


def check_oracle_residuals(budget, seed) -> dict:
    """1: polynomial-expansion fit residual on all (d, k) grid corners."""
    worst = 0.0
    for d, k in ((2, 2), (2, 3), (3, 2), (3, 3)):
        bodies = [fam(d) for fam in _FAMILIES[:k]]
        table = oracle_mixed_volumes(bodies)
        worst = max(worst, table.meta["residual"])
    passed = worst <= 1e-8
    return _result(1, "oracle-expansion-residual", passed,
                   f"max residual {worst:.2e} (tol 1e-08)", residual=worst)


def check_selection_rule(budget, seed) -> dict:
    """2: support-selection sums equal oracle entries to relative 1e-6."""
    rng = as_rng(seed)
    worst = 0.0
    count = 0

    def compare(bodies, degrees, expect=None):
        nonlocal worst, count
        got = schneider_mixed_volume(bodies, degrees, rng=rng)
        want = oracle_mixed_volumes(bodies).value(degrees)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        if expect is not None:
            worst = max(worst, abs(got - expect) / max(1.0, abs(expect)))
        count += 1

    compare([cube(2), diamond(2)], (1, 1), expect=2.0)
    compare([segment(2, 0), segment(2, 1)], (1, 1), expect=0.5)
    compare([cube(2), simplex(2)], (1, 1))
    compare([simplex(2), diamond(2)], (1, 1))
    compare([cube(3), diamond(3)], (1, 2))
    compare([cube(3), diamond(3)], (2, 1))
    compare([cube(3), simplex(3)], (1, 2))
    compare([cube(3), rotated_cube(3, seed=2)], (2, 1))
    compare([rotated_cube(2, seed=3), diamond(2)], (1, 1))
    compare([cube(3), simplex(3), diamond(3)], (1, 1, 1))
    compare([cube(2), cube(2), diamond(2)], (1, 0, 1))
    passed = worst <= 1e-6
    return _result(2, "selection-rule-vs-oracle", passed,
                   f"{count} instances, max rel err {worst:.2e} (tol 1e-06)",
                   instances=count, max_rel_err=worst)


def check_angle_route(budget, seed) -> dict:
    """3: exterior-angle quadrature equals the oracle within 3 sigma."""
    n = budget["c3_samples"]
    rows = []
    est = angle_mixed_volume([cube(2), diamond(2)], (1, 1), rng=seed,
                             samples=n)
    rows.append(("Q/D 2D", est, 2.0))
    C, R = cube(3), rotated_cube(3, seed=11)
    table = oracle_mixed_volumes([C, R])
    for deg in ((1, 2), (2, 1)):
        est = angle_mixed_volume([C, R], deg, rng=seed + deg[0], samples=n)
        rows.append((f"cube/rot {deg}", est, table.value(deg)))
    devs = [abs(e.value - t) / max(e.std_error, 1e-12) for _, e, t in rows]
    passed = all(e.within(t, 3.0, extra_sigma=1e-9) for _, e, t in rows)
    detail = ", ".join(f"{lbl} {dev:.2f}s" for (lbl, _, _), dev in zip(rows, devs))
    return _result(3, "angle-route-vs-oracle", passed, detail,
                   deviations=devs)


def _random_face_tuple(rng):
    """(polytopes, degrees, faces) from randomly rotated 2D/3D bodies."""
    d = int(rng.integers(2, 4))
    makers = [cube, simplex, diamond]
    bodies = []
    for i in range(2):
        body = makers[int(rng.integers(0, 3))](d)
        bodies.append(body.transform(random_rotation(d, rng)))
    n1 = int(rng.integers(1, d))
    degrees = (n1, d - n1)
    faces = []
    for body, deg in zip(bodies, degrees):
        pool = body.faces(deg)
        faces.append(pool[int(rng.integers(0, len(pool)))])
    return bodies, degrees, tuple(faces)


def check_beta_routes(budget, seed) -> dict:
    """4: cone-quadrature and admissible-direction betas agree; range and
    sum identity hold."""
    rng = as_rng(seed)
    n_tuples = budget["c4_tuples"]
    samples = budget["c4_samples"]
    worst_dev = 0.0
    in_range = True
    done = 0
    while done < n_tuples:
        bodies, degrees, faces = _random_face_tuple(rng)
        try:
            quad = mixed_exterior_angle(faces, bodies, degrees, rng=rng,
                                        route="cone-quadrature",
                                        samples=samples)
        except DivergenceError:
            continue
        mc = mixed_exterior_angle(faces, bodies, degrees, rng=rng,
                                  route="admissible-mc", samples=samples)
        sig = math.hypot(quad.std_error, mc.std_error)
        dev = abs(quad.value - mc.value) / max(sig, 1e-9)
        worst_dev = max(worst_dev, dev)
        for est in (quad, mc):
            if not -1e-9 <= est.value <= 1.0 + 1e-9:
                in_range = False
        done += 1
    # sum identity on the closed-form 2D pair: sum over face tuples of
    # bracket * product of face measures * beta = binom(d; n) * V
    Q, D = cube(2), diamond(2)
    total = 0.0
    for fq, fd in itertools.product(Q.faces(1), D.faces(1)):
        beta = mixed_exterior_angle((fq, fd), [Q, D], (1, 1), rng=rng,
                                    route="cone-quadrature")
        br = wedge_norm_sq(np.hstack([fq.frame.frame, fd.frame.frame]).T) ** 0.5
        total += br * fq.measure * fd.measure * beta.value
    target = multinomial(2, (1, 1)) * 2.0
    sum_ok = abs(total - target) <= 1e-9
    passed = worst_dev <= 3.0 and in_range and sum_ok
    return _result(4, "beta-quadrature-vs-mc", passed,
                   f"{done} tuples, max dev {worst_dev:.2f}s, "
                   f"sum {total:.6f} vs {target:.1f}",
                   max_dev=worst_dev, beta_sum=total)


def check_projection_selftest(budget, seed) -> dict:
    """5: sphere-projection closed form reproduced to 0.5% relative."""
    n = budget["c5_samples"]
    rows = []
    for p, d, beta in ((4, 2, 1.0), (6, 3, 3.0)):
        est, target = sphere_projection_selftest(p, d, beta, rng=12, samples=n)
        rows.append(abs(est.value - target) / target)
    passed = all(r <= 0.005 for r in rows)
    return _result(5, "sphere-projection-selftest", passed,
                   f"rel errors {rows[0]:.4%}, {rows[1]:.4%} (tol 0.5%)",
                   rel_errors=rows)


def check_multiplier_identities(budget, seed) -> dict:
    """6: Phi/Psi reproducing identities and the D-matrix anchor."""
    trials = budget["c6_trials"]
    samples = budget["c6_samples"]
    configs = [("subspace", (1, 2)), ("subspace", (2, 1)),
               ("interleaved", (1, 2)), ("interleaved", (2, 2))]
    worst = 0.0
    for i, (ident, deg) in enumerate(configs):
        rep = verify_multiplier_identity(3, deg, ident, rng=seed + i,
                                         trials=trials, samples=samples)
        worst = max(worst, rep["max_std_residual"])
    exact = 0.0
    for ident in ("subspace", "interleaved"):
        rep = verify_multiplier_identity(2, (1, 1), ident, rng=seed,
                                         trials=5, samples=100)
        exact = max(exact, rep["max_abs_residual"])
    closed = closed_d_matrix(3, 1)
    est = estimate_d_matrix(3, 1, rng=seed, budget=200000)
    entry_dev = np.abs(est.entries - closed.entries) / np.maximum(est.sigma,
                                                                  1e-12)
    inv = np.linalg.inv(est.entries)
    a_sigma = np.sqrt(np.einsum("p,qj,pq->j", est.a ** 2, inv ** 2,
                                est.sigma ** 2))
    a_dev = np.abs(est.a - closed.a) / np.maximum(a_sigma, 1e-12)
    passed = (worst <= 3.0 and exact <= 1e-10
              and float(entry_dev.max()) <= 3.0 and float(a_dev.max()) <= 3.0)
    return _result(6, "multiplier-identities", passed,
                   f"max std resid {worst:.2f}, d=2 exact {exact:.1e}, "
                   f"D-matrix dev {entry_dev.max():.2f}s / a {a_dev.max():.2f}s",
                   max_std_residual=worst, d2_exact=exact)


def check_flag_volume(budget, seed) -> dict:
    """7: flag route value, eps-monotonicity and the rotated regime."""
    t0 = time.time()
    Q, D = cube(2), diamond(2)
    base = flag_mixed_volume([Q, D], (1, 1), rng=seed, samples=4000)
    base_ok = base.within(2.0, 3.0, extra_sigma=1e-9)
    eps_vals = []
    for eps in (0.8, 0.4, 0.2, 0.1):
        est = flag_mixed_volume([Q, D], (1, 1), rng=seed, eps=eps,
                                samples=2000)
        eps_vals.append(est.value)
    monotone = all(eps_vals[i] <= eps_vals[i + 1] + 1e-9
                   for i in range(len(eps_vals) - 1))
    C = cube(3)
    table_devs = []
    rot_ok = True
    for s in range(budget["c7_seeds"]):
        R = rotated_cube(3, seed=100 + s)
        want = oracle_mixed_volumes([C, R]).value((1, 2))
        est = flag_mixed_volume([C, R], (1, 2), rng=seed + s,
                                samples=budget["c7_samples"])
        table_devs.append(abs(est.value - want) / max(est.std_error, 1e-12))
        rot_ok = rot_ok and est.within(want, 3.0, extra_sigma=1e-9)
    passed = base_ok and monotone and rot_ok
    return _result(7, "flag-volume-route", passed,
                   f"Q/D {base.value:.4f}, eps seq {np.round(eps_vals, 3)}, "
                   f"rot max dev {max(table_devs):.2f}s, "
                   f"{time.time() - t0:.0f}s elapsed",
                   eps_values=eps_vals, rot_deviations=table_devs)


def check_flag_functional(budget, seed) -> dict:
    """8: the curvature route's closed form gives V_(1,1)(Q, D) = 4 exactly,
    and the flag functional agrees with it within 3 sigma."""
    Q, D = cube(2), diamond(2)
    v = curvature_mixed_functional([Q, D], (1, 1))
    exact_ok = abs(v - 4.0) <= 1e-8
    est = flag_mixed_functional([Q, D], (1, 1), rng=seed, samples=4000)
    flag_ok = est.within(4.0, 3.0, extra_sigma=1e-9)
    passed = exact_ok and flag_ok
    return _result(8, "translative-functional-routes", passed,
                   f"curvature {v:.10f}, flag {est.value:.4f} "
                   f"+- {est.std_error:.4f}",
                   curvature=v, flag=est.value)


def check_translative_closure(budget, seed) -> dict:
    """9: scaling decomposition sums match the direct translation integral,
    every entry with all r_i in 1..d-1 matches the curvature route to
    1e-12 relative (face-tuple angles against the normal-bundle kernel),
    and hand-computed anchors hold.  Every entry is exact, so the draw
    count is fixed."""
    rng = as_rng(seed)
    worst = curv_dev = 0.0
    for d in (2, 3):
        bodies = [cube(d), diamond(d)]
        for j in range(d):
            tab = decompose_homogeneous(bodies, j, rng=rng, samples=20000)
            tot = tab.total()
            direct = translative_integral_mc(bodies, j, rng=rng, samples=20000)
            sig = math.hypot(tot.std_error, direct.std_error)
            worst = max(worst, abs(tot.value - direct.value) / max(sig, 1e-12))
            for r, v in tab.entries.items():
                if all(1 <= ri <= d - 1 for ri in r):
                    ref = curvature_mixed_functional(bodies, r)
                    curv_dev = max(curv_dev, abs(v - ref) / abs(ref))
    a1 = translative_integral_mc([cube(2), diamond(2)], 0, rng=rng)
    a2 = translative_integral_mc([cube(2), cube(2)], 1, rng=rng)
    rel1 = abs(a1.value - 7.0) / 7.0
    rel2 = abs(a2.value - 4.0) / 4.0
    passed = worst <= 3.0 and curv_dev <= 1e-12 and rel1 <= 0.01 and rel2 <= 0.01
    return _result(9, "translative-closure", passed,
                   f"max closure dev {worst:.2f}s, curvature rel dev "
                   f"{curv_dev:.1e}, anchors "
                   f"{a1.value:.4f}/7 ({rel1:.3%}), {a2.value:.4f}/4 "
                   f"({rel2:.3%})",
                   max_dev=worst, curvature_dev=curv_dev,
                   anchors=[a1.value, a2.value])


def check_duality(budget, seed) -> dict:
    """10: curvature functional vs reflected oracle, deterministic pairs."""
    worst = 0.0
    cases = [([cube(2), diamond(2)], 4.0), ([cube(2), cube(2)], 2.0),
             ([segment(2, 0), segment(2, 1)], 1.0)]
    for bodies, want in cases:
        lhs, rhs = duality_check(bodies[0], bodies[1], 1)
        worst = max(worst, abs(lhs - rhs), abs(lhs - want))
    passed = worst <= 1e-6
    return _result(10, "mixed-volume-duality", passed,
                   f"max deviation {worst:.2e} (tol 1e-06)", max_dev=worst)


def _prop_diag_projection(rng, cases) -> tuple[bool, str]:
    worst = 0.0
    for k in (2, 3, 4):
        x = rng.standard_normal((cases // 3 + 1, k, 3))
        direct = np.linalg.norm(x - x.mean(axis=1, keepdims=True),
                                axis=(1, 2))
        via = perp_spread_batch(x)
        alt = np.sqrt(np.maximum(
            (x ** 2).sum(axis=(1, 2)) - (x.sum(axis=1) ** 2).sum(axis=1) / k,
            0.0))
        worst = max(worst, float(np.max(np.abs(via - direct))),
                    float(np.max(np.abs(via - alt))))
    return worst <= 1e-12, f"diag-projection {worst:.1e}"


def _prop_graded_sum(rng, cases) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(cases):
        m = int(rng.integers(2, 5))
        j = int(rng.integers(1, m))
        u = Subspace.from_spanning(rng.standard_normal((m, j)))
        a = Subspace.from_spanning(rng.standard_normal((m, j)))
        s = sum(graded_scalar_product(u, a, ell)
                for ell in range(min(j, m - j) + 1))
        worst = max(worst, abs(s - 1.0))
    return worst <= 1e-9, f"graded-sum {worst:.1e}"


def _prop_spread_bounds(rng, cases) -> tuple[bool, str]:
    ok = True
    for _ in range(cases):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        us = random_unit_vectors(d, k, rng)
        t = np.abs(rng.standard_normal(k))
        t /= np.linalg.norm(t)
        scaled = t[:, None] * us
        spread = perp_spread(scaled)
        if in_star_region(t):
            bound = perp_spread(us) / (2.0 * math.sqrt(k))
        else:
            bound = 1.0 / (2.0 * k)
        ok = ok and spread >= bound - 1e-12
    return ok, "spread-bounds"


def _prop_wedge_bound(rng, cases) -> tuple[bool, str]:
    ok = True
    for _ in range(cases):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        parts = rng.multinomial(d, np.ones(k) / k)
        if np.any(parts > d - 1):
            continue
        us = random_unit_vectors(d, k, rng)
        cols = []
        for i in range(k):
            if parts[i] == 0:
                continue
            host = Subspace.from_spanning(us[i].reshape(-1, 1)).complement()
            g = rng.standard_normal((host.dim, parts[i]))
            cols.append(np.linalg.qr(host.frame @ g)[0])
        wedge = math.sqrt(wedge_norm_sq(np.hstack(cols).T)) if cols else 1.0
        bound = d * math.sqrt(k) * perp_spread(us)
        ok = ok and wedge <= bound + 1e-9
    return ok, "wedge-bound"


def _prop_eps_monotone(rng, cases) -> tuple[bool, str]:
    us = random_unit_vectors(2, 2 * cases, rng).reshape(cases, 2, 2)
    lo = kernel_values(KernelSpec(2, (1, 1), "n", 0.1), us)
    hi = kernel_values(KernelSpec(2, (1, 1), "n", 0.4), us)
    ok = bool(np.all(hi <= lo + 1e-12))
    return ok, "eps-monotone"


def _prop_invariance(rng, cases) -> tuple[bool, str]:
    worst = 0.0
    for d, degrees, mode in ((2, (1, 1), "n"), (3, (1, 2), "n"),
                             (2, (1, 1), "r"), (3, (2, 2), "r")):
        n = max(cases // 4, 50)
        us = random_unit_vectors(d, 2 * n, rng).reshape(n, 2, d)
        spec = KernelSpec(d, degrees, mode, 0.05)
        base = kernel_values(spec, us, rng=rng)
        rho = random_rotation(d, rng)
        rot = kernel_values(spec, us @ rho.T, rng=rng)
        perm_spec = KernelSpec(d, degrees[::-1], mode, 0.05)
        perm = kernel_values(perm_spec, us[:, ::-1], rng=rng)
        # the t-quadrature refines to relative 1e-8; compare a bit above that
        scale = np.maximum(1.0, np.abs(base))
        worst = max(worst, float(np.max(np.abs(rot - base) / scale)),
                    float(np.max(np.abs(perm - base) / scale)))
    return worst <= 1e-6, f"kernel-invariance {worst:.1e}"


def _prop_cli_reproducible(seed) -> tuple[bool, str]:
    from .cli import main as cli_main

    commands = [
        ["mixed-volume", "--gen", "cube,diamond", "--dim", "2", "--degrees",
         "1,1", "--method", "angle", "--seed", str(seed), "--samples", "500"],
        ["mixed-volume", "--gen", "cube,diamond", "--dim", "2", "--degrees",
         "1,1", "--method", "epsilon", "--eps", "0.3", "--seed", str(seed),
         "--samples", "500"],
        ["mixed-volume", "--gen", "cube,simplex", "--dim", "2", "--degrees",
         "1,1", "--method", "schneider", "--seed", str(seed)],
        ["kernel-eval", "--mode", "n", "--degrees", "1,1", "--dirs",
         "1,0;0,1"],
        ["flag-check", "--gen", "cube,diamond", "--dim", "2", "--degrees",
         "1,1", "--seed", str(seed), "--samples", "400"],
        ["translative", "--gen", "cube,diamond", "--dim", "2", "--j", "0",
         "--seed", str(seed), "--samples", "2000"],
        ["translative", "--gen", "cube,cube", "--dim", "2", "--j", "1",
         "--decompose", "--seed", str(seed), "--samples", "1500"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            if code != 0:
                return False, f"cli-reproducible (exit {code}: {argv[0]})"
            outs.append(buf.getvalue())
        if outs[0] != outs[1]:
            return False, f"cli-reproducible (drift in {argv[0]})"
    return True, "cli-reproducible"


def check_properties(budget, seed) -> dict:
    """11: randomized invariant sweeps and CLI seed reproducibility."""
    rng = as_rng(seed)
    cases = budget["c11_cases"]
    results = [
        _prop_diag_projection(rng, cases),
        _prop_graded_sum(rng, cases),
        _prop_spread_bounds(rng, cases),
        _prop_wedge_bound(rng, cases),
        _prop_eps_monotone(rng, cases),
        _prop_invariance(rng, cases),
        _prop_cli_reproducible(seed),
    ]
    passed = all(ok for ok, _ in results)
    detail = "; ".join(note + ("" if ok else " FAIL")
                       for ok, note in results)
    return _result(11, "property-sweeps", passed, detail)


CRITERIA = (
    check_oracle_residuals,
    check_selection_rule,
    check_angle_route,
    check_beta_routes,
    check_projection_selftest,
    check_multiplier_identities,
    check_flag_volume,
    check_flag_functional,
    check_translative_closure,
    check_duality,
    check_properties,
)


def run_suite(suite: str = "quick", seed: int = 0, echo=print) -> dict:
    """Run all acceptance criteria; one line per criterion via `echo`."""
    if suite not in _BUDGETS:
        raise ValueError(f"unknown suite {suite!r}")
    budget = _BUDGETS[suite]
    rows = []
    for fn in CRITERIA:
        t0 = time.time()
        row = fn(budget, seed)
        row["seconds"] = round(time.time() - t0, 2)
        rows.append(row)
        status = "PASS" if row["passed"] else "FAIL"
        if echo is not None:
            echo(f"criterion {row['criterion']:02d} {row['name']}: {status} "
                 f"({row['detail']})")
    return {"schema": 1, "suite": suite, "seed": seed, "criteria": rows,
            "passed": all(r["passed"] for r in rows)}
