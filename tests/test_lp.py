"""The vectorised simplex against the scalar row-by-row tableau method it
replaced: identical decisions and identical points, bit for bit."""

import itertools

import numpy as np
import pytest

from mixvol.cones import (ShiftedCone, _cone_has_ray, _stacked_system,
                          random_direction_tuple)
from mixvol.generators import cube, diamond, rotated_cube, segment, simplex
from mixvol.lp import _PIV, lp_feasible
from mixvol.polytope import Polytope


def _scalar_lp_feasible(A_ub=None, b_ub=None, A_eq=None, b_eq=None, tol=1e-9):
    """The scalar phase-1 simplex, kept as the reference: Bland's rule with
    a sequential tie rule in the ratio test, one Python loop per row."""
    rows = []
    rhs = []
    kinds = []  # 'ub' or 'eq'
    if A_ub is not None and len(A_ub):
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
        for a, b in zip(A_ub, b_ub):
            rows.append(a)
            rhs.append(b)
            kinds.append("ub")
    if A_eq is not None and len(A_eq):
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
        for a, b in zip(A_eq, b_eq):
            rows.append(a)
            rhs.append(b)
            kinds.append("eq")
    if not rows:
        return True, None
    A = np.vstack(rows)
    b = np.asarray(rhs, dtype=float)
    m, n = A.shape
    scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(A))))

    n_ub = sum(1 for k in kinds if k == "ub")
    # columns: x+ (n), x- (n), slacks (n_ub), artificials (filled below)
    ncols = 2 * n + n_ub
    T = np.zeros((m, ncols))
    T[:, :n] = A
    T[:, n:2 * n] = -A
    si = 0
    slack_col = {}
    for i, kind in enumerate(kinds):
        if kind == "ub":
            T[i, 2 * n + si] = 1.0
            slack_col[i] = 2 * n + si
            si += 1
    bb = b.copy()
    neg = bb < 0
    T[neg] *= -1.0
    bb[neg] *= -1.0

    basis = np.full(m, -1, dtype=int)
    art_cols = []
    extra = []
    for i in range(m):
        if kinds[i] == "ub" and not neg[i]:
            basis[i] = slack_col[i]
        else:
            col = np.zeros(m)
            col[i] = 1.0
            extra.append(col)
            basis[i] = ncols + len(extra) - 1
            art_cols.append(basis[i])
    if extra:
        T = np.hstack([T, np.column_stack(extra)])
    ncols = T.shape[1]
    cost = np.zeros(ncols)
    cost[art_cols] = 1.0

    # reduced cost row for phase 1
    z = cost.copy()
    for i in range(m):
        if cost[basis[i]]:
            z -= T[i]

    it_cap = 200 * (m + ncols)
    for _ in range(it_cap):
        enter = -1
        for j in range(ncols):
            if z[j] < -_PIV:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = np.inf
        for i in range(m):
            a = T[i, enter]
            if a > _PIV:
                ratio = bb[i] / a
                if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12 and (leave < 0 or basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave < 0:  # pragma: no cover - phase 1 is bounded
            break
        piv = T[leave, enter]
        T[leave] /= piv
        bb[leave] /= piv
        for i in range(m):
            if i != leave and abs(T[i, enter]) > 0.0:
                f = T[i, enter]
                T[i] -= f * T[leave]
                bb[i] -= f * bb[leave]
        z -= z[enter] * T[leave]
        basis[leave] = enter

    # After ill-conditioned pivots neither an incrementally tracked phase-1
    # objective nor the tableau itself can be trusted: the tracked sum can
    # go negative while the basic artificials are far from 0, and a zero
    # artificial sum can sit on a point that misses the rows.  So sum the
    # artificials afresh and check the point against the original system.
    if float(np.abs(bb[cost[basis] > 0.0]).sum()) > tol * scale:
        return False, None
    x = np.zeros(2 * n)
    for i in range(m):
        if basis[i] < 2 * n:
            x[basis[i]] = bb[i]
    x = x[:n] - x[n:2 * n]
    resid = A @ x - b
    eq = np.array(kinds) == "eq"
    resid[eq] = np.abs(resid[eq])
    if float(resid.max()) > tol * scale:
        return False, None
    return True, x


def _assert_same(args, kwargs=None, start=None):
    """lp_feasible from `start` (None: the plain call) against the cold
    scalar simplex: same decision, same point."""
    kwargs = kwargs or {}
    got = lp_feasible(*args, **kwargs, start=start)
    want = _scalar_lp_feasible(*args, **kwargs)
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    else:
        assert np.array_equal(got[1], want[1])
    return want[0]


def _bodies(d):
    return [cube(d), diamond(d), simplex(d), segment(d), rotated_cube(d, 3),
            Polytope.hull(np.random.default_rng(d).standard_normal((7, d)))]


def _face_pairs(d, count, rng):
    bodies = _bodies(d)
    faces = [[f for j in range(d) for f in b.faces(j)] for b in bodies]
    for _ in range(count):
        i, j = rng.integers(len(bodies), size=2)
        yield (faces[i][rng.integers(len(faces[i]))],
               faces[j][rng.integers(len(faces[j]))])


@pytest.mark.parametrize("d,count", [(2, 150), (3, 150), (4, 60)])
def test_matches_scalar_simplex_on_cone_systems(d, count):
    """Shifted-cone systems as cones_intersect builds them, at shifts on the
    unit sphere and shrunk towards 0, so both answers occur."""
    rng = np.random.default_rng(40 + d)
    answers = []
    for pair in _face_pairs(d, count, rng):
        x = random_direction_tuple(d, 2, rng) * rng.choice([1.0, 1e-3, 0.0])
        a, b = _stacked_system([ShiftedCone(f.normal_cone, xi)
                                for f, xi in zip(pair, x)])
        answers.append(_assert_same((a, b)))
    assert 0 < sum(answers) < len(answers)


@pytest.mark.parametrize("d,count", [(2, 40), (3, 40), (4, 15)])
def test_matches_scalar_simplex_on_block_systems(d, count):
    """Equality-constrained block systems: w_i in N_i summing to 0 with one
    coordinate pinned to +-1 (the zero-in-hull LP), and a common ray of
    both cones pinned the same way."""
    rng = np.random.default_rng(60 + d)
    answers = []
    for pair in _face_pairs(d, count, rng):
        n1, n2 = (f.normal_cone.ineq for f in pair)
        a_ub = np.zeros((len(n1) + len(n2), 2 * d))
        a_ub[:len(n1), :d] = n1
        a_ub[len(n1):, d:] = n2
        c = int(rng.integers(2 * d))
        s = float(rng.choice([1.0, -1.0]))
        pin = np.zeros((1, 2 * d))
        pin[0, c] = s
        answers.append(_assert_same(
            (a_ub, np.zeros(len(a_ub))),
            {"A_eq": np.vstack([np.tile(np.eye(d), (1, 2)), pin]),
             "b_eq": np.concatenate([np.zeros(d), [1.0]])}))
        both = np.vstack([n1, n2])
        answers.append(_assert_same(
            (both, np.zeros(len(both))),
            {"A_eq": pin[:, :d] if c < d else pin[:, d:], "b_eq": np.ones(1)}))
    assert 0 < sum(answers) < len(answers)


def _pinned_block(n1, n2, d, pin):
    a_ub = np.zeros((len(n1) + len(n2), 2 * d))
    a_ub[:len(n1), :d] = n1
    a_ub[len(n1):, d:] = n2
    e = np.zeros((1, 2 * d))
    e[0, pin[0]] = pin[1]
    return ((a_ub, np.zeros(len(a_ub))),
            {"A_eq": np.vstack([np.tile(np.eye(d), (1, 2)), e]),
             "b_eq": np.concatenate([np.zeros(d), [1.0]])})


def test_matches_scalar_simplex_on_rejected_block_systems():
    """The two d = 4 systems the scalar simplex once called feasible with a
    point that missed its own rows stay infeasible."""
    for first, second, pin in (
            (rotated_cube(4, 6).faces(0)[14], diamond(4).faces(3)[0], (1, -1.0)),
            (rotated_cube(4, 1).faces(1)[28], simplex(4).faces(1)[6], (0, 1.0))):
        args, kwargs = _pinned_block(first.normal_cone.ineq,
                                     second.normal_cone.ineq, 4, pin)
        assert not _assert_same(args, kwargs)


def test_matches_scalar_simplex_on_small_systems():
    """Systems without rows, with equalities only, with negative right-hand
    sides and with ties in the ratio test."""
    assert lp_feasible() == _scalar_lp_feasible() == (True, None)
    assert _assert_same((np.zeros((0, 2)), np.zeros(0)),
                        {"A_eq": np.eye(2), "b_eq": [1.0, -2.0]})
    assert not _assert_same((np.array([[1.0], [-1.0]]), [-1.0, -1.0]))
    ties = np.array([[-1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]])
    assert _assert_same((ties, [-1.0, -1.0, -1.0, -2.0]))
    square = np.array(list(itertools.product([1.0, -1.0], repeat=2)))
    assert _assert_same((square, np.ones(4)), {"A_eq": [[1.0, 1.0]], "b_eq": [0.5]})
    assert not _assert_same((square, np.full(4, -1e-3)))


def test_keeps_the_known_false_infeasible_answer():
    """A d = 4 zero-in-hull block system that the scalar simplex calls
    infeasible at every pin, though the candidate-ray probe finds a ray
    (and an independent solver a point for half the pins).  The numpy
    simplex repeats every answer: same decisions, defect included."""
    rng = np.random.default_rng(680)
    P = Polytope.hull(rng.standard_normal((7, 4)))
    Q = Polytope.hull(rng.standard_normal((7, 4)))
    n1 = next(f for f in P.faces(0) if f.vertex_ids == (1,)).normal_cone.ineq
    n2 = next(f for f in Q.faces(2) if f.vertex_ids == (0, 3, 6)).normal_cone.ineq
    assert _cone_has_ray(np.vstack([n1, -n2]), 1e-9)
    for pin in itertools.product(range(8), (1.0, -1.0)):
        assert not _assert_same(*_pinned_block(n1, n2, 4, pin))


def test_start_within_scaled_tolerance_is_the_answer():
    """tol * scale, not tol: the right-hand side sets scale = 1e3 here, so a
    start 5e-7 past a row is inside the tolerance the simplex point meets."""
    a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    b = np.array([1e3, 1e3, 0.0])
    for start in (np.array([1e3 + 5e-7, 0.0]), np.array([2.0, -2.0 - 5e-7]),
                  np.array([3.0, 4.0])):
        got = lp_feasible(a, b, start=start)
        assert got[0] and got[1] is start
    # an equality row within tolerance on either side
    start = np.array([1.0, 2.0 + 4e-10])
    got = lp_feasible(a, b, A_eq=[[0.0, 1.0]], b_eq=[2.0], start=start)
    assert got[0] and got[1] is start
    got = lp_feasible(a, b, A_eq=[[0.0, -1.0]], b_eq=[-2.0], start=start)
    assert got[0] and got[1] is start


def test_start_outside_tolerance_gives_the_cold_answer():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    b = np.array([1e3, 1e3, 0.0])
    assert _assert_same((a, b), start=np.array([1e3 + 2e-6, 0.0]))
    assert _assert_same((a, b), start=np.array([-1.0, -1.0]))
    assert not _assert_same((a, -np.ones(3)), start=np.zeros(2))
    # shifted-cone systems at starts a little off their own simplex point
    rng = np.random.default_rng(43)
    answers = []
    for pair in _face_pairs(3, 40, rng):
        x = random_direction_tuple(3, 2, rng) * rng.choice([1.0, 1e-3])
        args = _stacked_system([ShiftedCone(f.normal_cone, xi)
                                for f, xi in zip(pair, x)])
        ok, point = _scalar_lp_feasible(*args)
        start = (point if ok else np.zeros(3)) + rng.standard_normal(3)
        assert np.max(args[0] @ start - args[1]) > 1e-6  # outside tolerance
        answers.append(_assert_same(args, start=start))
    assert 0 < sum(answers) < len(answers)


def test_start_missing_an_equality_row_falls_through():
    """A start that meets every A_ub row but misses an equality row, on
    either side, is not the answer."""
    square = np.array(list(itertools.product([1.0, -1.0], repeat=2)))
    args = (square, np.ones(4))
    for eq, start in (([[1.0, 1.0]], np.array([0.0, 0.0])),
                      ([[1.0, 1.0]], np.array([0.5, 0.5])),
                      ([[-1.0, -1.0]], np.array([0.0, 0.0]))):
        kwargs = {"A_eq": eq, "b_eq": [0.5 if eq[0][0] > 0 else -0.5]}
        got = lp_feasible(*args, **kwargs, start=start)
        assert got[1] is not start
        assert _assert_same(args, kwargs, start)
