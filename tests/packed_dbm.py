"""Test-only reference: the difference-bound kernel with a packed strict bit.

This is tropvor.voronoi's integer kernel as it was while containment in a
halfspace was decided by closing strict complement pieces.  Every halfspace
then carried its complement edges, one list per left term i beating all of
its right terms, and a piece lay in the halfspace when each of those strict
pieces added to its closed matrix was empty.  The tests compare the weak
kernel's closures and its containment test with this one.
"""

from __future__ import annotations

from typing import Optional

# An edge (p, q, r) bounds x_p - x_q by the integer r at the common scale,
# r/L.  D[p][q] is the tightest bound on x_p - x_q packed into one int
# 2*r + weak: weak is 1 for <= and 0 for <, so ints order as the pairs
# (r, weak) do, a sum is a + b - ((a | b) & 1) (the bits combine by &), and
# the zero bound is 1.  None means no bound.


def packed(D: list) -> list:
    """The packed matrix of a matrix of weak bounds: each b read as 2b + 1."""
    return [[None if b is None else 2 * b + 1 for b in row] for row in D]


def _free(n: int) -> list:
    """The closed matrix of all of H."""
    return [[1 if p == q else None for q in range(n)] for p in range(n)]


def _tighten(D: list, p: int, q: int, bound: int) -> Optional[list]:
    """The closure of D with x_p - x_q bounded by bound added, or None when
    that system is empty.

    D is closed, so a new shortest path takes the new edge once,
    i -> p -> q -> j, and a new negative or strict zero cycle closes the
    edge with D[q][p].
    """
    if D[p][q] is not None and D[p][q] <= bound:
        return D
    back = D[q][p]
    if back is not None and back + bound - ((back | bound) & 1) < 1:
        return None
    out = [row[:] for row in D]
    tail = D[q]
    for head, row in zip(D, out):
        a = head[p]
        if a is None:
            continue
        a += bound - ((a | bound) & 1)
        for j, b in enumerate(tail):
            if b is not None:
                w = a + b - ((a | b) & 1)
                if row[j] is None or w < row[j]:
                    row[j] = w
    return out


def _close(D: Optional[list], edges, weak: int) -> Optional[list]:
    """D with every edge (p, q, r), x_p - x_q <= r/L (weak) or < r/L, added."""
    for p, q, r in edges:
        if D is None:
            break
        D = _tighten(D, p, q, 2 * r + weak)
    return D


def _inside(D: list, complements: list) -> bool:
    """Does the piece D lie in the halfspace with these complement edges?"""
    return all(_close(D, edges, 0) is None for edges in complements)
