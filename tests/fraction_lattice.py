"""Test-only reference: lattice windows enumerated in Fraction arithmetic.

This is tropvor.sites.lattice_points as it was before the search ran on
the basis times the window's scale as ints: every basis combination of the
k ranges was summed and tested against the radius as Fractions.  The tests
compare the integer search with it, site for site and report for report.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from tropvor._lp import INT_RING, lp_cramer, lp_rank
from tropvor.exactnum import clear_rat_row
from tropvor.sites import LatticeWindow, SiteSet, WindowReport
from tropvor.tropcore import HPoint


def lattice_points(L: LatticeWindow):
    """All lattice combinations with every coordinate in [-B, B].

    Returns (SiteSet, WindowReport); the origin is site 0, the rest is sorted
    by coordinates.
    """
    B = Fraction(L.radius)
    points = {tuple([Fraction(0)] * L.n)}
    if L.basis:
        m = len(L.basis)
        # coordinate j of the combination sum(k_i * b_i) as a function of k
        M = [[L.basis[i][j] for i in range(m)] for j in range(L.n)]
        # on the first m independent rows A of M (they exist, the basis is
        # independent) k = A^-1 y with every |y_j| <= B, so the exact bound
        # is |k_i| <= sum_j |A^-1[i][j]| * B; column j of A^-1 solves A x = e_j
        A: list = []
        for row in M:
            if lp_rank([clear_rat_row(r) for r in A + [row]], INT_RING) > len(A):
                A.append(row)
                if len(A) == m:
                    break
        bounds = [Fraction(0)] * m
        for j in range(m):
            rows = [clear_rat_row(r + [int(i == j)]) for i, r in enumerate(A)]
            nums, den = lp_cramer(rows, INT_RING)
            for i in range(m):
                bounds[i] += abs(Fraction(nums[i], den)) * B
        ranges = [range(-int(b), int(b) + 1) for b in bounds]
        for ks in product(*ranges):
            coords = tuple(
                sum(ks[i] * L.basis[i][j] for i in range(m)) for j in range(L.n)
            )
            if all(abs(c) <= B for c in coords):
                points.add(coords)
    origin = tuple([Fraction(0)] * L.n)
    ordered = [origin] + sorted(points - {origin})
    S = SiteSet([HPoint(c) for c in ordered])

    occupied = set()
    for c in ordered[1:]:
        occupied.add(tuple(i for i in range(L.n) if c[i] > 0))
    missing = []
    for size in range(1, L.n):
        for I in combinations(range(L.n), size):
            if I not in occupied:
                missing.append(I)
    return S, WindowReport(not missing, tuple(missing))
