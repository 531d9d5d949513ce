"""Test-only reference: SVG piece generators by a pairwise Cramer search.

This is how tropvor.cli found the vertices and recession directions of a
diagram piece before it read them off the piece's closed difference-bound
matrix.  Every pair of rows, with the sum-zero row, is solved over IntRing
and kept when the point satisfies every row; directions come from the lines
of the rows; a piece with directions and no vertex gets one feasible point
from the LP.  The tests compare tropvor.voronoi._piece_generators against it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from tropvor._lp import INT_RING, SingularSystemError, lp_cramer, lp_feasible


def _piece_generators(piece) -> tuple:
    """Vertices and extreme recession directions of {x in H : rows}, n = 3."""
    rows = [(tuple(c), rhs) for c, rhs in piece]
    ones = ((1, 1, 1), 0)
    verts = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            try:
                nums, den = lp_cramer([(*a, b) for a, b in (rows[i], rows[j], ones)], INT_RING)
            except SingularSystemError:
                continue
            pt = tuple(Fraction(num, den) for num in nums)
            if all(sum(c * x for c, x in zip(cs, pt)) <= rhs for cs, rhs in rows):
                if pt not in verts:
                    verts.append(pt)
    rays = []
    for cs, _ in rows:
        # direction of the line {c.d = 0, sum d = 0}
        d = (
            cs[1] - cs[2],
            cs[2] - cs[0],
            cs[0] - cs[1],
        )
        if d == (0, 0, 0):
            continue
        g = gcd(gcd(abs(d[0]), abs(d[1])), abs(d[2]))
        d = tuple(x // g for x in d)
        for sgn in (1, -1):
            cand = tuple(sgn * x for x in d)
            if all(sum(c * x for c, x in zip(cs2, cand)) <= 0 for cs2, _ in rows):
                if cand not in rays:
                    rays.append(cand)
    if not verts and rays:
        base = lp_feasible(3, [ones], rows, INT_RING)
        if base is not None:
            verts.append(tuple(Fraction(num, den) for num, den in base))
    return verts, rays
