"""Test-only reference: the difference-bound kernel over exact rationals.

This is tropvor.voronoi's piece kernel as it was before every bound became
one integer at a common scale: each entry of a closed matrix is a pair
(Fraction bound, weak bit), and each piece's rows are cleared from
Fractions one edge at a time.  The tests compare the integer kernel against
it, piece by piece.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from tropvor.exactnum import clear_rat_row
from tropvor.tropcore import TropicalHalfspace

# D[p][q] is the tightest bound on x_p - x_q as a pair (r, weak): weak is 1
# for <= r and 0 for < r, so pairs order by tightness and add componentwise
# (the bits by &).  None means no bound.

_ZERO = (Fraction(0), 1)


def _free(n: int) -> list:
    """The closed matrix of all of H."""
    return [[_ZERO if p == q else None for q in range(n)] for p in range(n)]


def _tighten(D: list, p: int, q: int, bound: tuple) -> Optional[list]:
    """The closure of D with x_p - x_q bounded by bound added, or None when
    that system is empty.

    D is closed, so a new shortest path takes the new edge once,
    i -> p -> q -> j, and a new negative or strict zero cycle closes the
    edge with D[q][p].
    """
    if D[p][q] is not None and D[p][q] <= bound:
        return D
    back = D[q][p]
    if back is not None and (back[0] + bound[0], back[1] & bound[1]) < _ZERO:
        return None
    out = [row[:] for row in D]
    for i, head in enumerate(D):
        a = head[p]
        if a is None:
            continue
        for j, b in enumerate(D[q]):
            if b is not None:
                w = (a[0] + bound[0] + b[0], a[1] & bound[1] & b[1])
                if out[i][j] is None or w < out[i][j]:
                    out[i][j] = w
    return out


def _close(D: Optional[list], edges, weak: int) -> Optional[list]:
    """D with every edge (p, q, r), x_p - x_q <= r (weak) or < r, added."""
    for p, q, r in edges:
        if D is None:
            break
        D = _tighten(D, p, q, (r, weak))
    return D


def _dim(D: list) -> int:
    """Dimension in H of a nonempty closed piece: zero-cycle classes minus 1."""
    return sum(
        all(D[i][j] is None or D[j][i] is None or D[i][j][0] + D[j][i][0] != 0 for j in range(i))
        for i in range(len(D))
    ) - 1


def _bounded(D: list) -> bool:
    return all(b is not None for row in D for b in row)


def _difference_row(n: int, p: int, q: int, r: Fraction):
    """The row x_p - x_q <= r, cleared to integers."""
    coeffs = [Fraction(0)] * n
    coeffs[p] = Fraction(1)
    coeffs[q] = Fraction(-1)
    row = clear_rat_row(coeffs + [r])
    return row[:-1], row[-1]


def _choice_edges(h: TropicalHalfspace, j: int, dj: Fraction):
    """Weak edges of the piece of h where right term j dominates the left."""
    return [(i, j, dj - ci) for i, ci in zip(h.I, h.c)]


def _complement_edges(h: TropicalHalfspace, i: int, ci: Fraction):
    """Strict edges of the complement piece where left term i beats all of J."""
    return [(j, i, ci - dj) for j, dj in zip(h.J, h.d)]


def _pieces(halfspaces: Sequence[TropicalHalfspace], n: int):
    """Nonempty pieces of the intersection as (integer rows, closed matrix)
    pairs, one per choice of right term in each halfspace, pruned by prefix."""
    out: list = []

    def rec(idx: int, rows: tuple, D: list) -> None:
        if idx == len(halfspaces):
            out.append((rows, D))
            return
        h = halfspaces[idx]
        for j, dj in zip(h.J, h.d):
            edges = _choice_edges(h, j, dj)
            E = _close(D, edges, 1)
            if E is not None:
                rec(idx + 1, rows + tuple(_difference_row(n, *e) for e in edges), E)

    rec(0, (), _free(n))
    return out


def _inside(D: list, h: TropicalHalfspace) -> bool:
    return all(_close(D, _complement_edges(h, i, ci), 0) is None for i, ci in zip(h.I, h.c))
