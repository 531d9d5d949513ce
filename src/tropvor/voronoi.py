"""Voronoi regions, cells, and the diagram poset, all decided by exact LP.

Every tropical halfspace turns into ordinary linear pieces by branching on
which right-side term attains the maximum; complements branch on the left
term with a strict inequality.  Intersections of regions are therefore finite
unions of ordinary polyhedra inside H, and feasibility, containment,
redundancy, and dimension all reduce to rational linear programs solved in
integer arithmetic after clearing denominators.

Tropical extreme points of a bounded region are found among the zero-cells
of the arrangement of term-equality hyperplanes of its halfspaces: at any
region point where that arrangement leaves a degree of freedom, some
indicator direction chi_A moves both ways without leaving the region, and
x = max(u - eps*chi_A applied two-sidedly) exhibits x as a tropical
combination, so it is not extreme.  Extremality itself is then decided
exactly by hull membership against the other candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from ._lp import (
    INT_RING,
    UNBOUNDED,
    SingularSystemError,
    lp_affine_dim,
    lp_cramer,
    lp_feasible,
    lp_solve,
    lp_strictly_feasible,
)
from .exactnum import clear_rat_row
from .sites import SiteSet, check_general_position, signature_reduce
from .tropcore import (
    HPoint,
    TropicalHalfspace,
    asym_distance,
    halfspace_contains,
    halfspace_from_pair,
    halfspace_from_json,
    halfspace_to_json,
    hpoint_from_json,
    hpoint_to_json,
    tconv_membership,
)

SITE_CAP = 12


# ---------------------------------------------------------------------------
# ordinary pieces of tropical constraints

def _ones_row(n: int):
    return ([1] * n, 0)


def _difference_row(n: int, p: int, q: int, r: Fraction):
    """The row x_p - x_q <= r (or = r), cleared to integers."""
    coeffs = [Fraction(0)] * n
    coeffs[p] = Fraction(1)
    coeffs[q] = Fraction(-1)
    row = clear_rat_row(coeffs + [r])
    return row[:-1], row[-1]


def _choice_rows(h: TropicalHalfspace, j: int, dj: Fraction):
    """Weak rows of the piece of h where right term j dominates the left."""
    return [_difference_row(h.n, i, j, dj - ci) for i, ci in zip(h.I, h.c)]


def _complement_rows(h: TropicalHalfspace, i: int, ci: Fraction):
    """Strict rows of the complement piece where left term i beats all of J."""
    return [_difference_row(h.n, j, i, ci - dj) for j, dj in zip(h.J, h.d)]


def _rows_feasible(n: int, rows) -> bool:
    return lp_feasible(n, [_ones_row(n)], list(rows), INT_RING) is not None


def _pieces(halfspaces: Sequence[TropicalHalfspace], n: int, base=()):
    """Feasible complete row systems of the intersection, pruned by prefix."""
    out: list = []

    def rec(idx: int, rows: tuple) -> None:
        if not _rows_feasible(n, rows):
            return
        if idx == len(halfspaces):
            out.append(rows)
            return
        h = halfspaces[idx]
        for j, dj in zip(h.J, h.d):
            rec(idx + 1, rows + tuple(_choice_rows(h, j, dj)))

    rec(0, tuple(base))
    return out


def _piece_inside_halfspace(n: int, piece, h: TropicalHalfspace) -> bool:
    for i, ci in zip(h.I, h.c):
        strict = _complement_rows(h, i, ci)
        if lp_strictly_feasible(n, [_ones_row(n)], strict, list(piece), INT_RING):
            return False
    return True


def halfspace_redundant(h: TropicalHalfspace, others: Sequence[TropicalHalfspace]) -> bool:
    """Is the intersection of the others already inside h?"""
    n = h.n
    for piece in _pieces(list(others), n):
        if not _piece_inside_halfspace(n, piece, h):
            return False
    return True


def _piece_bounded(n: int, piece) -> bool:
    eqs = [_ones_row(n)]
    for k in range(n):
        for sgn in (1, -1):
            obj = [0] * n
            obj[k] = sgn
            if lp_solve(n, eqs, list(piece), obj, INT_RING).status == UNBOUNDED:
                return False
    return True


def _piece_dim(n: int, piece) -> int:
    return lp_affine_dim(n, [_ones_row(n)], list(piece), INT_RING)


# ---------------------------------------------------------------------------
# regions

@dataclass(frozen=True)
class VoronoiRegion:
    site: int
    halfspaces: tuple
    generators: Optional[tuple]

    @property
    def bounded(self) -> bool:
        return self.generators is not None

    @property
    def n(self) -> int:
        return self.halfspaces[0].n if self.halfspaces else 0


def region_contains(r: VoronoiRegion, x: HPoint) -> bool:
    return all(halfspace_contains(h, x) for h in r.halfspaces)


def _term_hyperplanes(halfspaces: Sequence[TropicalHalfspace]):
    """Distinct term-equality hyperplanes x_p - x_q = r, one per tied pair."""
    pool = set()
    for h in halfspaces:
        terms = list(zip(h.I, h.c)) + list(zip(h.J, h.d))
        for (p, alpha), (q, beta) in combinations(terms, 2):
            if p > q:
                p, q, alpha, beta = q, p, beta, alpha
            pool.add((p, q, beta - alpha))
    return sorted(pool)


def _extreme_points(halfspaces: Sequence[TropicalHalfspace], n: int):
    pool = _term_hyperplanes(halfspaces)
    seen = set()
    for planes in combinations(pool, n - 1):
        # the unique point of H on the n - 1 planes, when there is one
        rows = [_difference_row(n, p, q, r) for p, q, r in planes] + [_ones_row(n)]
        try:
            nums, den = lp_cramer([(*a, b) for a, b in rows], INT_RING)
        except SingularSystemError:
            continue
        seen.add(tuple(Fraction(num, den) for num in nums))
    members = [
        HPoint(pt)
        for pt in sorted(seen)
        if all(halfspace_contains(h, HPoint(pt)) for h in halfspaces)
    ]
    if len(members) <= 1:
        return tuple(members)
    out = []
    for g in members:
        rest = [c for c in members if c.coords != g.coords]
        if not tconv_membership(g, rest):
            out.append(g)
    return tuple(out)


def region(S: SiteSet, s: int) -> VoronoiRegion:
    """The region of site s: irredundant halfspaces, plus extreme points when
    the region is bounded."""
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

    n = S.n
    pieces = _pieces(kept, n)
    bounded = bool(kept) and all(_piece_bounded(n, p) for p in pieces)
    generators = _extreme_points(kept, n) if bounded else None
    return VoronoiRegion(s, tuple(kept), generators)


def classify(S: SiteSet, x: HPoint):
    """Argmin sites and the minimal distance from x."""
    dists = [asym_distance(x, a) for a in S]
    dmin = min(dists)
    return {i for i, d in enumerate(dists) if d == dmin}, dmin


def region_to_json(r: VoronoiRegion) -> dict:
    return {
        "site": r.site,
        "halfspaces": [halfspace_to_json(h) for h in r.halfspaces],
        "generators": None
        if r.generators is None
        else [hpoint_to_json(g) for g in r.generators],
    }


def region_from_json(data: dict) -> VoronoiRegion:
    gens = data.get("generators")
    return VoronoiRegion(
        int(data["site"]),
        tuple(halfspace_from_json(h) for h in data["halfspaces"]),
        None if gens is None else tuple(hpoint_from_json(g) for g in gens),
    )


# ---------------------------------------------------------------------------
# cells and the diagram

@dataclass(frozen=True)
class DiagramCell:
    label: tuple
    dim: int
    pieces: tuple


def _site_halfspaces(S: SiteSet):
    table = {}
    for s in range(len(S)):
        table[s] = [halfspace_from_pair(S[s], S[t]) for t in signature_reduce(S, s)]
    return table


def _cell_from_lists(n: int, label, hs_lists) -> DiagramCell:
    halfspaces = [h for lst in hs_lists for h in lst]
    pieces = _pieces(halfspaces, n)
    dim = max((_piece_dim(n, p) for p in pieces), default=-1)
    return DiagramCell(tuple(sorted(label)), dim, tuple(pieces))


def cell(S: SiteSet, T: Iterable[int]) -> DiagramCell:
    """Feasibility and dimension of the intersection of the regions of T."""
    label = tuple(sorted(set(int(t) for t in T)))
    if not label or label[0] < 0 or label[-1] >= len(S):
        raise ValueError("label must be a nonempty subset of site indices")
    table = {s: [halfspace_from_pair(S[s], S[t]) for t in signature_reduce(S, s)] for s in label}
    return _cell_from_lists(S.n, label, [table[s] for s in label])


@dataclass(frozen=True)
class VoronoiDiagram:
    cells: tuple
    order: tuple  # (child, parent) index pairs, child cell strictly inside parent


def _cell_inside_region(n: int, c: DiagramCell, hs_list) -> bool:
    for piece in c.pieces:
        for h in hs_list:
            if not _piece_inside_halfspace(n, piece, h):
                return False
    return True


def label_lattice(count: int, gp: bool, n: int, probe: Callable, contains: Callable):
    """Nonempty cells of a diagram on count sites, with canonical labels and
    their inclusion order; the one label-lattice walk behind the tropical
    diagram and the lifted power diagram.

    probe(label) returns the cell of a sorted label, or None when it is
    empty; a label is probed only when every label one site smaller is
    nonempty.  The canonical label of a cell is the set of every site s with
    contains(cell, s).  In general position (gp) the enumerated label is
    already canonical and cells have at most n sites, since dimensions drop
    strictly with the label size.  Returns (cells, order): cells sorted by
    label size, then label, and (child, parent) index pairs with the child
    strictly inside the parent.
    """
    nonempty: dict = {}
    candidates = [(s,) for s in range(count)]
    for size in range(1, (min(count, n) if gp else count) + 1):
        frontier = []
        for label in candidates:
            c = probe(label)
            if c is not None:
                nonempty[label] = c
                frontier.append(label)
        grown = {
            tuple(sorted(label + (s,)))
            for label in frontier
            for s in range(count)
            if s not in label
        }
        candidates = [
            cand
            for cand in sorted(grown)
            if all(cand[:i] + cand[i + 1 :] in nonempty for i in range(size + 1))
        ]

    if gp:
        canonical = nonempty
    else:
        canonical = {}
        for label, c in sorted(nonempty.items()):
            key = tuple(s for s in range(count) if s in label or contains(c, s))
            if key not in canonical:
                canonical[key] = replace(c, label=key)

    cells = tuple(canonical[key] for key in sorted(canonical, key=lambda k: (len(k), k)))
    index = {c.label: i for i, c in enumerate(cells)}
    order = []
    for a in cells:
        for b in cells:
            if a.label != b.label and set(a.label) > set(b.label):
                order.append((index[a.label], index[b.label]))
    return cells, tuple(sorted(order))


def voronoi_diagram(S: SiteSet) -> VoronoiDiagram:
    """All nonempty cells with canonical labels and the inclusion order.

    Labels are canonical: the label of a cell is the set of every site whose
    region contains it, which makes cell inclusion the reverse of label
    inclusion.
    """
    if len(S) > SITE_CAP:
        raise ValueError("instance too large")
    n = S.n
    gp, _ = check_general_position(S)
    table = _site_halfspaces(S)

    def probe(label) -> Optional[DiagramCell]:
        c = _cell_from_lists(n, label, [table[s] for s in label])
        return c if c.dim >= 0 else None

    def contains(c: DiagramCell, s: int) -> bool:
        return _cell_inside_region(n, c, table[s])

    return VoronoiDiagram(*label_lattice(len(S), gp, n, probe, contains))


def diagram_to_json(d: VoronoiDiagram) -> dict:
    return {
        "cells": [{"T": list(c.label), "dim": c.dim} for c in d.cells],
        "order": [list(pair) for pair in d.order],
    }
