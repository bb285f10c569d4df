"""Dense phase-1 simplex for small feasibility problems.

Decides whether {x : A_ub x <= b_ub, A_eq x = b_eq} is nonempty for free x.
Bland's rule, so it terminates; problems here stay below a few hundred rows.
A caller may pass a start point: if it meets every row within the tolerance
that the final point must meet, it is the answer and no tableau is built.
Otherwise the pivot path decides, and it is bit-reproducible: the pivot loop
runs on whole numpy rows and columns, but every entering and leaving choice
and every floating-point operation on the tableau is that of the scalar
row-by-row tableau method, so the answer and the point are those of the
scalar loop.
"""

from __future__ import annotations

import numpy as np

_PIV = 1e-11


def _meets(A, b, ub, x, bound) -> bool:
    """Every inequality residual <= bound, every equality |residual| <= bound."""
    resid = A @ x - b
    resid[~ub] = np.abs(resid[~ub])
    return float(resid.max()) <= bound


def lp_feasible(A_ub=None, b_ub=None, A_eq=None, b_eq=None, tol: float = 1e-9,
                start=None):
    """Return (feasible, x or None).

    A `start` that meets the rows within tol * scale, the test the simplex
    point must pass, is returned as (True, start) without pivoting.
    """
    parts = [(np.atleast_2d(np.asarray(a, dtype=float)),
              np.asarray(b, dtype=float).reshape(-1), is_ub)
             for a, b, is_ub in ((A_ub, b_ub, True), (A_eq, b_eq, False))
             if a is not None and len(a)]
    if not parts:
        return True, None
    A = np.vstack([a for a, _, _ in parts])
    b = np.concatenate([rhs for _, rhs, _ in parts])
    ub = np.concatenate([np.full(len(a), is_ub) for a, _, is_ub in parts])
    scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(A))))
    if start is not None and _meets(A, b, ub, start, tol * scale):
        return True, start
    return _phase1(A, b, ub, tol * scale)


def _phase1(A, b, ub, bound):
    """The simplex from scratch: (feasible, x or None) within `bound`."""
    m, n = A.shape
    # columns: x+ (n), x- (n), slacks (one per ub row), then one artificial
    # for each row that does not start on its own slack
    n_ub = int(ub.sum())
    slack = np.zeros((m, n_ub))
    slack[ub, np.arange(n_ub)] = 1.0
    neg = b < 0
    flip = np.where(neg, -1.0, 1.0)
    art = np.flatnonzero(~ub | neg)
    T = np.hstack([np.hstack([A, -A, slack]) * flip[:, None], np.eye(m)[:, art]])
    bb = b * flip
    ncols = T.shape[1]
    basis = np.zeros(m, dtype=int)
    basis[ub] = 2 * n + np.arange(n_ub)
    basis[art] = 2 * n + n_ub + np.arange(len(art))
    cost = np.zeros(ncols)
    cost[2 * n + n_ub:] = 1.0

    # reduced cost row for phase 1, subtracted row by row as the scalar loop did
    z = cost.copy()
    for i in art:
        z -= T[i]

    for _ in range(200 * (m + ncols)):
        negative = np.flatnonzero(z < -_PIV)
        if not len(negative):
            break
        enter = negative[0]
        col = T[:, enter]
        cand = np.flatnonzero(col > _PIV)
        # the ratio test's sequential tie rule, over the candidate rows only
        leave, best = -1, np.inf
        for i, ratio in zip(cand, bb[cand] / col[cand]):
            if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12 and (
                    leave < 0 or basis[i] < basis[leave])):
                best, leave = ratio, i
        if leave < 0:  # pragma: no cover - phase 1 is bounded
            break
        piv = T[leave, enter]
        T[leave] /= piv
        bb[leave] /= piv
        rows = np.flatnonzero(col)
        rows = rows[rows != leave]
        f = col[rows]
        T[rows] -= f[:, None] * T[leave]
        bb[rows] -= f * bb[leave]
        z -= z[enter] * T[leave]
        basis[leave] = enter

    # After ill-conditioned pivots neither an incrementally tracked phase-1
    # objective nor the tableau itself can be trusted: the tracked sum can
    # go negative while the basic artificials are far from 0, and a zero
    # artificial sum can sit on a point that misses the rows.  So sum the
    # artificials afresh and check the point against the original system.
    if float(np.abs(bb[cost[basis] > 0.0]).sum()) > bound:
        return False, None
    x = np.zeros(2 * n)
    primal = basis < 2 * n
    x[basis[primal]] = bb[primal]
    x = x[:n] - x[n:]
    return (True, x) if _meets(A, b, ub, x, bound) else (False, None)
