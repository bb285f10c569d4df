"""Dense phase-1 simplex for small feasibility problems.

Decides whether {x : A_ub x <= b_ub, A_eq x = b_eq} is nonempty for free x.
Bland's rule, so it terminates; problems here stay below a few hundred rows.
The point is bit-reproducible feasibility decisions, not speed.
"""

from __future__ import annotations

import numpy as np

_PIV = 1e-11


def lp_feasible(A_ub=None, b_ub=None, A_eq=None, b_eq=None, tol: float = 1e-9):
    """Return (feasible, x or None)."""
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
