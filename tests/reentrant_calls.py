"""Test-only reference: region and sufficiently_generic through the public entry points.

This is how tropvor.voronoi answered both questions before one site table
served each call.  region built its site's halfspaces and asked the public
halfspace_redundant about each one, which took the lcm of its halfspaces
and built the edge choices of all the others again on every call; it then
built the choices of the kept halfspaces a third time.  sufficiently_generic
asked the public cell about every pair of sites sharing a coordinate, which
reduced both sites again and listed every piece of the pair cell.  The
tests compare both with the table-reading versions, JSON included.
"""

from __future__ import annotations

from itertools import combinations

from fraction_table import _choices, _scale
from tropvor.sites import SiteSet, signature_reduce
from tropvor.tropcore import halfspace_from_pair
from tropvor.voronoi import VoronoiRegion, _bounded, _extreme_points, _search, cell, halfspace_redundant


def region(S: SiteSet, s: int) -> VoronoiRegion:
    T = signature_reduce(S, s)
    kept = [halfspace_from_pair(S[s], S[t]) for t in T]
    i = 0
    while i < len(kept):
        h = kept[i]
        rest = kept[:i] + kept[i + 1 :]
        if rest and halfspace_redundant(h, rest):
            kept.pop(i)
        else:
            i += 1

    L = _scale(kept)
    closures = [D for _, D in _search([_choices(h, S.n, L) for h in kept], S.n)]
    bounded = bool(kept) and all(_bounded(D) for D in closures)
    return VoronoiRegion(s, tuple(kept), _extreme_points(closures, L) if bounded else None)


def sufficiently_generic(S: SiteSet):
    for i, j in combinations(range(len(S)), 2):
        shared = next((k for k in range(S.n) if S[i][k] == S[j][k]), None)
        if shared is None:
            continue
        if cell(S, (i, j)).dim >= 0:
            return False, (i, j, shared)
    return True, None
