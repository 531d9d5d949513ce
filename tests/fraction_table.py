"""Test-only reference: the site table built from Fraction halfspaces.

This is how tropvor fed its integer difference-bound kernel before the site
set carried its own scale.  signature_reduce compared Fraction differences,
the site table built a TropicalHalfspace for every signature-reduced pair
and scaled its coefficients by the lcm of the denominators in that one
table, and the extreme points of a region decoded every candidate row to an
HPoint before testing hull membership on Fractions.  Containment in a
halfspace closed its strict complement pieces with the packed kernel of
packed_dbm.  region and voronoi_diagram below are the entry points that read
that table.  The tests compare every tropical output with the integer path.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import packed_dbm
from cell_walk import searched_cell
from tropvor.sites import SITE_CAP, SiteSet, _nondominated_indices, check_general_position
from tropvor.tropcore import TropicalHalfspace, halfspace_from_pair, tconv_membership
from tropvor.voronoi import (
    VoronoiDiagram,
    VoronoiRegion,
    _bounded,
    _decode,
    _difference_row,
    _search,
    label_lattice,
)


def signature_reduce(S: SiteSet, s: int) -> list:
    if not 0 <= s < len(S):
        raise ValueError("site index out of range")
    origin = S[s]
    cones: dict = {}
    for idx in range(len(S)):
        if idx == s:
            continue
        v = tuple(b - a for a, b in zip(origin.coords, S[idx].coords))
        I = tuple(i for i in range(S.n) if v[i] > 0)
        cones.setdefault(I, []).append((idx, v))
    kept: list = []
    for I, members in cones.items():
        J = [j for j in range(S.n) if j not in I]
        proj = [tuple(v[j] for j in J) for _, v in members]
        for local in _nondominated_indices(proj):
            kept.append(members[local][0])
    return sorted(kept)


def _scale(halfspaces: Iterable[TropicalHalfspace]) -> int:
    """The lcm L of the denominators of every coefficient."""
    return lcm(*(x.denominator for h in halfspaces for x in h.c + h.d))


def _scaled(values: Sequence[Fraction], L: int) -> list:
    return [x.numerator * (L // x.denominator) for x in values]


def _choices(h: TropicalHalfspace, n: int, L: int) -> list:
    """(weak edges, integer rows) of each piece of h, one per right term j
    dominating the left."""
    c, d = _scaled(h.c, L), _scaled(h.d, L)
    out = []
    for j, dj in zip(h.J, d):
        edges = [(i, j, dj - ci) for i, ci in zip(h.I, c)]
        out.append((edges, tuple(_difference_row(n, *e, L) for e in edges)))
    return out


def _complements(h: TropicalHalfspace, L: int) -> list:
    """Strict edges of each complement piece of h, one per left term i
    beating all of J."""
    c, d = _scaled(h.c, L), _scaled(h.d, L)
    return [[(j, i, ci - dj) for j, dj in zip(h.J, d)] for i, ci in zip(h.I, c)]


def _site_table(S: SiteSet, labels: Iterable[int]) -> tuple:
    """(halfspaces, choices, L): each site in labels mapped to its
    signature-reduced halfspaces and to their edge choices, at the scale L
    common to all of them.  Every tropical question of one call reads this
    one table."""
    halfspaces = {s: [halfspace_from_pair(S[s], S[t]) for t in signature_reduce(S, s)] for s in labels}
    L = _scale(h for lst in halfspaces.values() for h in lst)
    return halfspaces, {s: [_choices(h, S.n, L) for h in lst] for s, lst in halfspaces.items()}, L


def _extreme_points(closures: Sequence[list], L: int):
    """Tropical extreme points of the union of bounded closed pieces, sorted."""
    rows = {tuple(-b for b in row) for D in closures for row in D}
    candidates = {_decode(v, L) for v in rows}
    members = sorted(candidates, key=lambda g: g.coords)
    if len(members) <= 1:
        return tuple(members)
    out = []
    for g in members:
        rest = [c for c in members if c != g]
        if not tconv_membership(g, rest):
            out.append(g)
    return tuple(out)


def region(S: SiteSet, s: int) -> VoronoiRegion:
    halfspaces, choices, L = _site_table(S, (s,))
    kept, kept_choices = halfspaces[s], choices[s]
    i = 0
    while i < len(kept):
        rest = kept_choices[:i] + kept_choices[i + 1 :]
        complements = _complements(kept[i], L)
        if rest and all(
            packed_dbm._inside(packed_dbm.packed(D), complements) for _, D in _search(rest, S.n)
        ):
            del kept[i], kept_choices[i]
        else:
            i += 1

    closures = [D for _, D in _search(kept_choices, S.n)]
    bounded = bool(kept) and all(_bounded(D) for D in closures)
    return VoronoiRegion(s, tuple(kept), _extreme_points(closures, L) if bounded else None)


def voronoi_diagram(S: SiteSet) -> VoronoiDiagram:
    if len(S) > SITE_CAP:
        raise ValueError("instance too large")
    n = S.n
    gp, _ = check_general_position(S)
    halfspaces, choices, L = _site_table(S, range(len(S)))
    complements = {s: [_complements(h, L) for h in lst] for s, lst in halfspaces.items()}
    cells: dict = {}
    closures: dict = {}

    def probe(label) -> bool:
        cells[label], found = searched_cell(n, label, choices)
        closures[label] = [packed_dbm.packed(D) for D in found]
        return cells[label].dim >= 0

    def contains(label, s: int) -> bool:
        return all(
            packed_dbm._inside(D, comp) for D in closures[label] for comp in complements[s]
        )

    labels, order = label_lattice(len(S), gp, n, probe, contains)
    return VoronoiDiagram(tuple(replace(cells[label], label=key) for key, label in labels), order)
