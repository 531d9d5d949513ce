"""Test-only reference: the full-width fraction-free simplex.

This is tropvor._lp.lp_solve as it was before the tableau stored only the
u half of each free variable x = u - w: every row holds the u, w, slack and
artificial columns and the right-hand side, and each pivot updates every
entry.  The tests compare the half-width solver against it, result and
ledger alike.
"""

from __future__ import annotations

from typing import Optional, Sequence

from tropvor._lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult


def lp_solve(nv: int, eqs: Sequence, les: Sequence, objective, ring) -> LPResult:
    """Maximize objective . x subject to eq rows (a, b): a.x = b and le rows
    a.x <= b, all variables free.  objective may be None (feasibility only).

    Rows are pairs (coeffs, rhs) of ring elements.
    """
    sign = ring.sign
    sub, mul, div = ring.sub, ring.mul, ring.exact_div
    zero, one = ring.zero, ring.one

    nslack = len(les)
    # columns: u_0..u_{nv-1}, w_0..w_{nv-1} (x = u - w), slacks, artificials
    base_cols = 2 * nv + nslack

    # first pass: rows normalized to nonnegative rhs, noting which need an
    # artificial.  An eq row always does; a le row does when the sign flip
    # turned its slack coefficient negative.
    raw: list[tuple[list, object, Optional[int], bool]] = []
    for coeffs, rhs in eqs:
        if sign(rhs) < 0:
            raw.append(([sub(zero, c) for c in coeffs], sub(zero, rhs), None, True))
        else:
            raw.append((list(coeffs), rhs, None, True))
    for i, (coeffs, rhs) in enumerate(les):
        if sign(rhs) < 0:
            raw.append(([sub(zero, c) for c in coeffs], sub(zero, rhs), i, True))
        else:
            raw.append((list(coeffs), rhs, i, False))

    nart = sum(1 for r in raw if r[3])
    total_cols = base_cols + nart  # rhs lives at index total_cols
    artificial = frozenset(range(base_cols, total_cols))

    rows: list[list] = []
    basis: list[int] = []
    art_rows: list[int] = []
    next_art = base_cols
    for coeffs, rhs, slack_idx, needs_art in raw:
        row = [zero] * (total_cols + 1)
        for k, c in enumerate(coeffs):
            if sign(c) == 0:
                continue
            row[k] = c
            row[nv + k] = sub(zero, c)
        if slack_idx is not None:
            row[2 * nv + slack_idx] = sub(zero, one) if needs_art else one
        row[total_cols] = rhs
        if needs_art:
            row[next_art] = one
            basis.append(next_art)
            art_rows.append(len(rows))
            next_art += 1
        else:
            basis.append(2 * nv + slack_idx)
        rows.append(row)

    m = len(rows)

    # phase-1 objective row (z_j - c_j format, for maximizing minus the sum
    # of artificials), reduced against the initial basis: subtracting each
    # artificial row zeroes its artificial column
    z1 = [zero] * (total_cols + 1)
    for i in art_rows:
        for j in range(total_cols + 1):
            if j in artificial:
                continue
            z1[j] = sub(z1[j], rows[i][j])

    # phase-2 objective row: -c; the initial basic columns all carry zero
    # objective coefficient, so no reduction is needed
    z2 = [zero] * (total_cols + 1)
    if objective is not None:
        for k, c in enumerate(objective):
            if sign(c) == 0:
                continue
            z2[k] = sub(zero, c)
            z2[nv + k] = c

    denom = one

    def pivot(r: int, c: int) -> None:
        nonlocal denom
        prow = rows[r]
        p = prow[c]
        for row in rows + [z1, z2]:
            if row is prow:
                continue
            f = row[c]
            if sign(f) == 0:
                for j in range(total_cols + 1):
                    row[j] = div(mul(row[j], p), denom)
            else:
                for j in range(total_cols + 1):
                    row[j] = div(sub(mul(row[j], p), mul(f, prow[j])), denom)
        denom = p
        basis[r] = c

    def run_phase(zrow, block_artificials: bool) -> str:
        while True:
            dsign = sign(denom)
            enter = None
            for j in range(total_cols):
                if block_artificials and j in artificial:
                    continue
                if sign(zrow[j]) * dsign < 0:
                    enter = j
                    break
            if enter is None:
                return OPTIMAL
            leave = None
            for i in range(m):
                if sign(rows[i][enter]) * dsign <= 0:
                    continue
                if leave is None:
                    leave = i
                    continue
                # rhs_i/col_i vs rhs_leave/col_leave by cross-multiplication;
                # both columns have positive true sign, so the ring-level
                # product test is direction-correct whatever the sign of d
                diff = sub(
                    mul(rows[i][-1], rows[leave][enter]),
                    mul(rows[leave][-1], rows[i][enter]),
                )
                s = sign(diff)
                if s < 0 or (s == 0 and basis[i] < basis[leave]):
                    leave = i
            if leave is None:
                return UNBOUNDED
            pivot(leave, enter)

    run_phase(z1, block_artificials=False)
    # phase 1 is never unbounded: its objective is bounded above by zero
    if sign(z1[-1]) != 0:
        return LPResult(INFEASIBLE)

    # drive surviving artificials out of the basis; rows that cannot be
    # pivoted on any structural column are redundant and get dropped
    drop: list[int] = []
    for i in range(m):
        if basis[i] not in artificial:
            continue
        col = next((j for j in range(base_cols) if sign(rows[i][j]) != 0), None)
        if col is None:
            drop.append(i)
        else:
            pivot(i, col)
    for i in reversed(drop):
        del rows[i], basis[i]
        m -= 1

    if objective is None:
        return LPResult(OPTIMAL, (zero, one), _extract(rows, basis, denom, nv, ring))

    status = run_phase(z2, block_artificials=True)
    if status != OPTIMAL:
        return LPResult(status)
    return LPResult(OPTIMAL, (z2[-1], denom), _extract(rows, basis, denom, nv, ring))


def _extract(rows, basis, denom, nv, ring):
    """Values of the original free variables as (num, den) ring pairs."""
    vals = {}
    for i, b in enumerate(basis):
        vals[b] = rows[i][-1]
    out = []
    for k in range(nv):
        num = ring.sub(vals.get(k, ring.zero), vals.get(nv + k, ring.zero))
        out.append((num, denom))
    return out
