"""Revised-form primal simplex for the fitting LPs (minimax and weighted L1).

The fitting LPs have 2m (minimax) or m (L1) rows for m grid points, but only
2k+1 or 2k dense columns for k coefficients; all other columns are signed
unit slacks (criterion 1 would need 2312 x 2331 tableaus).  No tableau is
formed: slacks stay implicit as ``(row, sign)`` pairs, and a basic slack
covers its row, so ``B^-1 a`` and the multipliers ``pi`` need one solve with
the structural basic block (at most (k+1) x (k+1)) plus O(m k) work.
Pricing is Dantzig's rule by default; after a run of degenerate pivots the
solver switches to Bland's rule, which guarantees no cycling.  Both front
ends start from a feasible basis, so no artificial phase is needed.  The
minimax LP starts from the slacks, with the bound variable in place of the
slack of the most violated row.  The L1 fit starts at the vertex that
interpolates its weighted L2 fit at ``k`` rows of smallest residual (after the
basis-start idea of Barrodale & Roberts, SIAM J. Numer. Anal. 10, 1973), which
leaves far fewer breakpoints to cross than coefficients 0.

Each pivot recomputes what its decisions read: the two solves with the block,
``pi`` and the reduced costs, the entering column and the ratio test.  The
structural columns ``A_S`` and the unit rows ``U = A_S[urows]`` are kept while
the structural set is unchanged; a slack replacing a slack (the L1 fit's
breakpoint walk, most pivots) moves one row of ``U``, of ``pi`` on the unit
rows and of the free-row set.  Every array keeps the row order a rebuild
would give, because BLAS gemv rounds a row by its position in the matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SimplexError", "simplex_solve", "solve_minimax", "solve_weighted_l1"]

PIVOT_TOL = 1e-9
STALL_LIMIT = 40  # consecutive degenerate pivots before switching to Bland
RANK_TOL = 1e-8  # a row raises the rank if this share of its norm is independent


class SimplexError(RuntimeError):
    """Solver failure; the message names the cause."""


def simplex_solve(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: list[int],
                  max_iter: int | None = None, slacks: tuple | None = None
                  ) -> tuple[np.ndarray, float]:
    """Minimize ``c @ x`` subject to ``[A | S] x = b``, ``x >= 0``.

    ``S`` holds implicit slack columns listed after ``A``'s: with
    ``slacks = (rows, signs)``, column ``A.shape[1] + i`` is ``signs[i]`` times
    the unit vector of row ``rows[i]`` (no slacks by default).  ``basis`` must
    index a basic feasible solution, one column per row.  Returns the optimal
    ``x`` and objective.  Raises :class:`SimplexError` when the iteration cap
    (50 * (#variables + #constraints) by default) is reached.
    """
    m, n = A.shape
    A = np.asarray(A, dtype=float)
    rows, signs = (np.zeros(0, int), np.zeros(0)) if slacks is None else (
        np.asarray(slacks[0], dtype=int), np.asarray(slacks[1], dtype=float))
    cost = np.asarray(c, dtype=float)
    if max_iter is None:
        max_iter = 50 * (n + rows.size + m)
    basis = np.array(basis, dtype=int)

    def factor():
        """The basis bookkeeping, built anew: the structural and unit positions,
        the unit rows and signs, the free rows (left to the structural block),
        ``A_S``, its unit rows ``U`` and ``pi`` on the unit rows (0 elsewhere)."""
        unit = basis >= n
        spos, upos = np.flatnonzero(~unit), np.flatnonzero(unit)
        urows, usigns = rows[basis[upos] - n], signs[basis[upos] - n]
        free = np.ones(m, dtype=bool)
        free[urows] = False
        A_S = A[:, basis[spos]]
        pi_u = np.zeros(m)
        pi_u[urows] = usigns * cost[basis[upos]]
        return spos, upos, urows, usigns, free, A_S, A_S[urows], pi_u

    spos, upos, urows, usigns, free, A_S, U, pi_u = factor()
    fidx = free.nonzero()[0]
    block = A_S[fidx]

    def ftran(a: np.ndarray) -> np.ndarray:
        """``B^-1 a``, in basis-position order."""
        xs = np.linalg.solve(block, a.take(fidx))
        d = np.empty(m)
        d[spos] = xs
        d[upos] = usigns * (a.take(urows) - U @ xs)
        return d

    rhs = ftran(np.asarray(b, dtype=float))
    if np.any(rhs < -1e-7):
        raise SimplexError("initial basis is not feasible")
    # optimality at the problem's own scale: once reduced costs are down at
    # round-off level, chasing them pivots on noise and corrupts the basis
    opt_tol = PIVOT_TOL * (1.0 + np.abs(cost).max() + np.abs(rhs).max())
    np.clip(rhs, 0.0, None, out=rhs)

    reduced = np.empty(cost.size)  # structural, then slack: argmin ties go to the first
    cost_x, cost_l, red_x, red_l = cost[:n], cost[n:], reduced[:n], reduced[n:]
    positions = np.arange(m)
    bland, stall = False, 0
    for _ in range(max_iter):
        pi = pi_u.copy()
        pi[fidx] = np.linalg.solve(block.T, cost[basis[spos]] - pi_u @ A_S)
        np.subtract(cost_x, pi @ A, out=red_x)
        np.subtract(cost_l, signs * pi.take(rows), out=red_l)
        if bland:
            negs = np.flatnonzero(reduced < -opt_tol)
            if negs.size == 0:
                break
            col = int(negs[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -opt_tol:
                break
        column = ftran(A[:, col] if col < n
                       else signs[col - n] * (positions == rows[col - n]))
        positive = column > PIVOT_TOL * (1.0 + np.abs(column).max())
        if not positive.any():
            raise SimplexError("LP is unbounded")
        ratios = np.divide(rhs, column, out=np.full(m, np.inf), where=positive)
        best = ratios.min()
        candidates = np.nonzero(ratios <= best + PIVOT_TOL * (1.0 + best))[0]
        if candidates.size == 0 or not np.isfinite(best):
            raise SimplexError("numerical breakdown in the ratio test")
        if bland:
            # Bland's anti-cycling rule: lowest-label variable leaves; skip
            # rows whose pivot entry is pure noise when a solid one is tied
            strong = candidates[np.abs(column[candidates])
                                >= 1e-8 * (1.0 + np.abs(column).max())]
            pool = strong if strong.size else candidates
            row = int(min(pool, key=lambda i: basis[i]))
        else:
            # stability: among tied ratios pivot on the largest column entry
            row = int(candidates[column[candidates].argmax()])
        stall = stall + 1 if best <= PIVOT_TOL else 0
        bland = stall > max(STALL_LIMIT, 2 * m)
        step = rhs[row] / column[row]
        rhs -= step * column
        rhs[row] = step
        slack_for_slack = col >= n and basis[row] >= n
        basis[row] = col
        if slack_for_slack:  # A_S stays; one row of U, of pi_u and of free moves
            j = int(upos.searchsorted(row))
            out_row, in_row = urows[j], rows[col - n]
            urows[j], usigns[j] = in_row, signs[col - n]
            U[j] = A_S[in_row]
            pi_u[out_row], free[out_row] = 0.0, True
            pi_u[in_row], free[in_row] = usigns[j] * cost[col], False
        else:  # the old arrays go first, or the rebuild doubles the peak memory
            del A_S, U, block
            spos, upos, urows, usigns, free, A_S, U, pi_u = factor()
        fidx = free.nonzero()[0]
        block = A_S[fidx]
    else:
        raise SimplexError("iteration cap reached")
    x = np.zeros(cost.size)
    x[basis] = rhs
    return x, float(cost @ x)


def solve_minimax(design: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients minimizing ``max_j |targets_j - design_j @ coef|``.

    Formulated as min u subject to -u <= targets - design @ coef <= u, with
    one implicit slack per row.  The free coefficients are split into positive
    parts; u replaces the slack of the most violated row, which makes the
    starting basis feasible.  The returned value is the max residual of the
    returned coefficients, not the basic value of u, which the tolerances at
    the problem's scale can leave below it.
    """
    m, k = design.shape
    u_col = 2 * k
    ones = np.ones((m, 1))
    A = np.block([[design, -design, -ones], [-design, design, -ones]])
    b = np.concatenate([targets, -targets]).astype(float)
    basis = list(range(u_col + 1, u_col + 1 + 2 * m))
    worst = int(np.argmin(b))
    if b[worst] < 0.0:
        basis[worst] = u_col
    cost = np.zeros(u_col + 1 + 2 * m)
    cost[u_col] = 1.0
    x, _ = simplex_solve(A, b, cost, basis, slacks=(np.arange(2 * m), np.ones(2 * m)))
    coef = x[:k] - x[k:2 * k]
    return coef, float(np.max(np.abs(targets - design @ coef)))


def _interpolation_rows(design: np.ndarray, targets: np.ndarray,
                        weights: np.ndarray) -> np.ndarray | None:
    """``k`` rows of ``design``, taken greedily where the weighted L2 fit's
    residual is smallest, each kept only if it raises the rank (its part
    orthogonal to the kept rows exceeds ``RANK_TOL`` of its norm); None when
    fewer than ``k`` independent rows exist."""
    m, k = design.shape
    weighted = design.T * weights
    try:  # normal equations: k <= 9 here, and lstsq costs memory for nothing
        coef = np.linalg.solve(weighted @ design, weighted @ targets)
    except np.linalg.LinAlgError:
        return None
    order = np.argsort(np.abs(targets - design @ coef), kind="stable")
    rest = design[order]
    floor = RANK_TOL * np.linalg.norm(rest, axis=1)
    picked = []
    for i in range(m):
        norm = np.linalg.norm(rest[i])
        if norm > floor[i]:  # modified Gram-Schmidt on the rows still to come
            q = rest[i] / norm
            rest[i + 1:] -= np.outer(rest[i + 1:] @ q, q)
            picked.append(order[i])
            if len(picked) == k:
                return np.sort(picked)
    return None


def solve_weighted_l1(design: np.ndarray, targets: np.ndarray,
                      weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients minimizing ``sum_j weights_j |targets_j - design_j @ coef|``.

    Residuals are split as ``targets - design @ coef = s+ - s-`` with
    ``s+, s- >= 0`` (implicit slacks ``+e_j`` and ``-e_j``).  The start ``c0``
    interpolates the rows of :func:`_interpolation_rows`: each coefficient
    takes the split column of its sign and every other row the slack of its
    residual's sign, a feasible basis.  Without ``k`` independent rows ``c0``
    is 0 and the basis is all slacks.  The returned value is the weighted
    residual of the returned coefficients.
    """
    m, k = design.shape
    A = np.hstack([design, -design])
    b = targets.astype(float)
    rows = np.arange(m)
    picked = _interpolation_rows(design, b, weights)
    c0 = np.zeros(k) if picked is None else np.linalg.solve(design[picked], b[picked])
    basis = np.where(b - design @ c0 >= 0.0, 2 * k + rows, 2 * k + m + rows)
    if picked is not None:
        basis[picked] = np.where(c0 >= 0.0, 0, k) + np.arange(k)
    cost = np.concatenate([np.zeros(2 * k), weights, weights])
    x, _ = simplex_solve(A, b, cost, basis,
                         slacks=(np.concatenate([rows, rows]), np.repeat([1.0, -1.0], m)))
    coef = x[:k] - x[k:2 * k]
    return coef, float(weights @ np.abs(targets - design @ coef))
