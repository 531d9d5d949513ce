"""Test-only reference: the recursive piece searches that voronoi._search replaced.

Before one lazy search answered every tropical question, voronoi had three
separate recursions over the same branch choices and integer
difference-bound matrices: _pieces built every piece, _has_piece pruned
prefixes below a wanted dimension, and _all_bounded accepted prefixes that
were already bounded.  halfspace_redundant built every piece of the others
before it tested any of them.  The bodies below are those functions as they
were, on the weak closure; the tests compare them with the explicit-stack
search.
"""

from __future__ import annotations

from typing import Sequence

from fraction_table import _choices, _scale
from tropvor.tropcore import TropicalHalfspace
from tropvor.voronoi import _bounded, _close, _dim, _free, _inside


def _pieces(halfspaces: Sequence[TropicalHalfspace], n: int, L: int):
    """Nonempty pieces of the intersection as (integer rows, closed matrix)
    pairs, one per choice of right term in each halfspace, pruned by prefix."""
    choices = [_choices(h, n, L) for h in halfspaces]
    out: list = []

    def rec(idx: int, rows: tuple, D: list) -> None:
        if idx == len(choices):
            out.append((rows, D))
            return
        for edges, piece_rows in choices[idx]:
            E = _close(D, edges)
            if E is not None:
                rec(idx + 1, rows + piece_rows, E)

    rec(0, (), _free(n))
    return out


# Every piece below a prefix lies in the polytrope of the prefix's closure,
# and adding edges to a closed matrix never raises its dimension and never
# makes it unbounded, so the two searches below prune whole subtrees.


def _has_piece(choices: Sequence[list], n: int, want: int) -> bool:
    """Is the cell of these halfspace choices of dimension >= want?  Its
    dimension is the largest of a nonempty piece, -1 when there is none."""

    def rec(idx: int, D: list) -> bool:
        if _dim(D) < want:
            return False
        if idx == len(choices):
            return True
        return any(
            E is not None and rec(idx + 1, E)
            for E in (_close(D, edges) for edges, _ in choices[idx])
        )

    return want < 0 or rec(0, _free(n))


def _all_bounded(choices: Sequence[list], n: int) -> bool:
    """Is every nonempty piece of these halfspace choices bounded?  With no
    halfspace at all, the one piece is all of H, which is unbounded."""

    def rec(idx: int, D: list) -> bool:
        if _bounded(D):
            return True
        if idx == len(choices):
            return False
        return all(
            E is None or rec(idx + 1, E)
            for E in (_close(D, edges) for edges, _ in choices[idx])
        )

    return rec(0, _free(n))


def halfspace_redundant(h: TropicalHalfspace, others: Sequence[TropicalHalfspace]) -> bool:
    """Is the intersection of the others already inside h?"""
    L = _scale([h, *others])
    choices = _choices(h, h.n, L)
    return all(_inside(D, choices) for _, D in _pieces(others, h.n, L))
