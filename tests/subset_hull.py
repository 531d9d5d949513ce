"""Test-only reference: the hull complex by a top-down subset search.

This is how tropvor.delone computed the hull complex before it read the
facets off the lifted power-diagram walk.  Each site s lifts to t^(-s); a
subset F labels a bounded face of conv(lifts) + orthant exactly when one LP
over PolyRing, in the variables (nu, c), finds a strictly positive normal nu
with <nu, lift> = c on F and > c off F.  Pairs on no common supporting plane
prune the search, which runs from the largest subsets down and skips any
subset of a facet already found.  The tests compare the walk against it.
"""

from __future__ import annotations

from itertools import combinations

from tropvor._lp import PolyRing, ZPoly, lp_strictly_feasible, zp_neg
from tropvor.sites import SiteSet


def _lift_rows(S: SiteSet):
    """Rows (in variables nu_1..nu_n, c) stating <nu, t^{-s}> - c = 0, one per
    site, cleared to polynomial entries by a positive power of t."""
    rows = []
    for s in S:
        m = max(0, max(int(c) for c in s.coords))
        coeffs = [{m - int(c): 1} for c in s.coords]
        coeffs.append({m: -1})
        rows.append(tuple(coeffs))
    return rows


def _support_feasible(rows, F, exact: bool, nvars: int, ring) -> bool:
    """Is there a strictly positive normal whose support plane through the
    sites of F keeps every other site (weakly, or strictly when exact) above?"""
    zero: ZPoly = ring.zero
    eqs = [(rows[i], zero) for i in F]
    others = [(tuple(map(zp_neg, rows[i])), zero) for i in range(len(rows)) if i not in F]
    strict = []
    for k in range(nvars - 1):
        coeffs = [zero] * nvars
        coeffs[k] = {0: -1}
        strict.append((tuple(coeffs), zero))
    if exact:
        strict += others
        weak = []
    else:
        weak = others
    return lp_strictly_feasible(nvars, eqs, strict, weak, ring)


def subset_hull_facets(S: SiteSet) -> tuple:
    """Sorted facets of the hull complex of integer sites."""
    rows = _lift_rows(S)
    nvars = S.n + 1
    ring = PolyRing()
    supported = {
        (i, j)
        for i, j in combinations(range(len(S)), 2)
        if _support_feasible(rows, (i, j), False, nvars, ring)
    }
    facets: list = []
    for size in range(len(S), 0, -1):
        for F in combinations(range(len(S)), size):
            if any(p not in supported for p in combinations(F, 2)):
                continue
            if any(set(F) <= set(G) for G in facets):
                continue
            if _support_feasible(rows, F, True, nvars, ring):
                facets.append(F)
    return tuple(sorted(facets))
