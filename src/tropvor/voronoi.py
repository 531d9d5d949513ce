"""Voronoi regions, cells, and the diagram poset, decided by shortest paths.

Every tropical halfspace turns into ordinary linear pieces by branching on
which right-side term attains the maximum.  Every row is a difference bound
x_p - x_q <= r, so every piece is a polytrope and is kept as its closed
difference-bound matrix: shortest paths between the n coordinates.  Every
bound is a difference of site coordinates, so it is an integer multiple of
1/L for the site set's scale L, the lcm of every coordinate denominator.
The edges are built straight from the integer sites, each entry is one
Python int at that scale, and every decision is exact.  Halfspace objects
and Fractions are built only for what a call returns.  The closure decides
everything.  A piece is empty when it has a negative cycle; its dimension
in H is its number of zero-cycle classes minus one; it is bounded when
every bound is finite; and it lies in a halfspace when, for each left term,
the closure already bounds that term by one right term.  One lazy search
lists the pieces; a question stops it at the first piece that settles it and
drops each prefix already settled, as adding bounds only shrinks a polytrope.
The search lists pieces in the lexicographic order of their choice indices,
so the diagram grows each label's cell from the pieces of the label without
its last site, all of H being the empty label's cell, searching only that
site's choices: the pieces, their order and their closures are those of the
search from all of H.  Many pieces share a closure, so each cell dedupes them
once for its dimension and containment.

A polytrope is the tropical hull of its Kleene-star generators, the negated
rows of its closed matrix.  A bounded region is the union of its pieces and
is tropically convex, so its tropical extreme points are among the
generators of its pieces, and hull membership against the other candidates,
tested on their integer rows, picks them out exactly.  In n = 3 the same
generators hold the ordinary vertices of each piece, which the SVG renderer
draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from .sites import SITE_CAP, SiteSet, check_general_position, signature_reduce
from .tropcore import (
    HPoint,
    TropicalHalfspace,
    _in_tconv,
    asym_distance,
    halfspace_contains,
    halfspace_from_pair,
    halfspace_from_json,
    halfspace_to_json,
    hpoint_from_json,
    hpoint_to_json,
    normalize_to_H,
)


# ---------------------------------------------------------------------------
# pieces as closed difference-bound matrices
#
# Every bound is a difference of halfspace coefficients, so it lies in
# (1/L)Z for the lcm L of their denominators (for a site set, its scale),
# and an edge (p, q, r) bounds x_p - x_q by the integer r at that scale,
# r/L.  D[p][q] is the tightest such bound, None when there is none.


def _scale(halfspaces: Iterable[TropicalHalfspace]) -> int:
    """The lcm L of the denominators of every coefficient."""
    return lcm(*(x.denominator for h in halfspaces for x in h.c + h.d))


def _scaled(values: Sequence[Fraction], L: int) -> list:
    return [x.numerator * (L // x.denominator) for x in values]


def _free(n: int) -> list:
    """The closed matrix of all of H."""
    return [[0 if p == q else None for q in range(n)] for p in range(n)]


def _tighten(D: list, p: int, q: int, bound: int) -> Optional[list]:
    """The closure of D with x_p - x_q bounded by bound added, or None when
    that system is empty.

    D is closed, so a new shortest path takes the new edge once,
    i -> p -> q -> j, and a new negative cycle closes the edge with D[q][p].
    """
    if D[p][q] is not None and D[p][q] <= bound:
        return D
    back = D[q][p]
    if back is not None and back + bound < 0:
        return None
    out = [row[:] for row in D]
    tail = D[q]
    for head, row in zip(D, out):
        a = head[p]
        if a is None:
            continue
        a += bound
        for j, b in enumerate(tail):
            if b is not None:
                w = a + b
                if row[j] is None or w < row[j]:
                    row[j] = w
    return out


def _close(D: Optional[list], edges) -> Optional[list]:
    """D with every edge (p, q, r), x_p - x_q <= r/L, added."""
    for p, q, r in edges:
        if D is None:
            break
        D = _tighten(D, p, q, r)
    return D


def _dim(D: list) -> int:
    """Dimension in H of a nonempty closed piece: zero-cycle classes minus 1."""
    return sum(
        all(D[i][j] is None or D[j][i] is None or D[i][j] + D[j][i] != 0 for j in range(i))
        for i in range(len(D))
    ) - 1


def _bounded(D: list) -> bool:
    return all(b is not None for row in D for b in row)


def _difference_row(n: int, p: int, q: int, r: int, L: int):
    """The row x_p - x_q <= r/L, cleared to coprime integers."""
    g = gcd(L, r)
    coeffs = [0] * n
    coeffs[p] = L // g
    coeffs[q] = -(L // g)
    return tuple(coeffs), r // g


def _edges(n: int, L: int, I: Sequence[int], c: Sequence, J: Sequence[int], d: Sequence) -> list:
    """The choices of {x : max_I(c_i + x_i) <= max_J(d_j + x_j)} with integer
    coefficients at the scale L: (edges, integer rows) of each piece, one per
    right term j dominating the left.  Each piece lists its edges (i, j, r)
    in the order of I, so zipping the pieces' edges groups them by i."""
    choices = []
    for j, dj in zip(J, d):
        edges = [(i, j, dj - ci) for i, ci in zip(I, c)]
        choices.append((edges, tuple(_difference_row(n, *e, L) for e in edges)))
    return choices


def _site_table(S: SiteSet, labels: Iterable[int]) -> tuple:
    """(neighbours, choices): each site s in labels mapped to its
    signature-reduced neighbours t, and to the edge choices of each
    halfspace h(s, t), at the scale S.scale.  For the integer sites A = s
    and B = t, h(s, t) has the left terms I = {i : A_i < B_i} with
    coefficients -A_i and the right terms -B_j, so no halfspace object is
    built.  Every tropical question of one call reads this one table."""
    n, L, rows = S.n, S.scale, S.scaled
    neighbours = {s: signature_reduce(S, s) for s in labels}
    choices: dict = {}
    for s, ts in neighbours.items():
        A = rows[s]
        choices[s] = []
        for B in (rows[t] for t in ts):
            I = [i for i in range(n) if A[i] < B[i]]
            J = [j for j in range(n) if A[j] >= B[j]]
            choices[s].append(_edges(n, L, I, [-A[i] for i in I], J, [-B[j] for j in J]))
    return neighbours, choices


def _search(
    choices: Sequence[list],
    n: int,
    keep: Optional[Callable] = None,
    seeds: Optional[Sequence[tuple]] = None,
):
    """Nonempty pieces of these halfspace choices as (integer rows, closed
    matrix) pairs, depth first in choice order.  A prefix whose closure fails
    keep is dropped with every piece below it, which lies in that closure's
    polytrope: adding edges never raises its dimension, never makes it
    unbounded and never takes it out of a halfspace it lies in.  Siblings are
    pushed in reverse, so pieces come out in the order of a recursive search.

    The search starts from seeds, (rows, closed matrix) pairs taken in their
    order; the default is the one seed ((), _free(n)), all of H.  Since the
    pieces come out in the lexicographic order of their choice indices,
    seeding with the pieces of some earlier choices, in their order, lists
    the pieces of those choices followed by these ones, in the same order
    and with the same closures as one search over both.
    """
    if seeds is None:
        seeds = [((), _free(n))]
    stack = [(0, rows, D) for rows, D in reversed(seeds)]
    while stack:
        idx, rows, D = stack.pop()
        if keep is not None and not keep(D):
            continue
        if idx == len(choices):
            yield rows, D
            continue
        for edges, piece_rows in reversed(choices[idx]):
            E = _close(D, edges)
            if E is not None:
                stack.append((idx + 1, rows + piece_rows, E))


def _has_piece(choices: Sequence[list], n: int, want: int) -> bool:
    """Is the cell of these halfspace choices of dimension >= want?  Its
    dimension is the largest of a nonempty piece, -1 when there is none."""
    return want < 0 or any(_search(choices, n, lambda D: _dim(D) >= want))


def _all_bounded(choices: Sequence[list], n: int) -> bool:
    """Is every nonempty piece of these halfspace choices bounded?  With no
    halfspace at all, the one piece is all of H, which is unbounded."""
    return not any(_search(choices, n, lambda D: not _bounded(D)))


def _inside(D: list, choices: list) -> bool:
    """Does the nonempty closed piece D lie in the halfspace with these edge
    choices?  Left term i beats every right term j where the reversals
    x_i - x_j > r of i's edges (i, j, r) hold.  They all meet at node i, so a
    simple cycle takes at most one, and D[i][j] closes it: D misses that part
    exactly when D[i][j] <= r for some j."""
    for col in zip(*[edges for edges, _ in choices]):
        for i, j, r in col:
            if D[i][j] is not None and D[i][j] <= r:
                break
        else:
            return False
    return True


def _redundant(h: list, choices: Sequence[list], n: int) -> bool:
    """Does every piece of these halfspace choices lie in the halfspace with
    the choices h?  A prefix already inside h drops out with its pieces."""
    return not any(_search(choices, n, lambda D: not _inside(D, h)))


def halfspace_redundant(h: TropicalHalfspace, others: Sequence[TropicalHalfspace]) -> bool:
    """Is the intersection of the others already inside h?"""
    L = _scale([h, *others])
    built = [_edges(g.n, L, g.I, _scaled(g.c, L), g.J, _scaled(g.d, L)) for g in (h, *others)]
    return _redundant(built[0], built[1:], h.n)


def _decode(values: Sequence[int], L: int) -> HPoint:
    """The point of H with coordinates values/L, up to the all-ones line."""
    return normalize_to_H([Fraction(v, L) for v in values])


# the directions +-(e_p + e_q - 2 e_r) of the lines x_p - x_q = c in H, n = 3
_DIRECTIONS = ((1, 1, -2), (-1, -1, 2), (1, -2, 1), (-1, 2, -1), (-2, 1, 1), (2, -1, -1))


def _piece_generators(piece) -> tuple:
    """Vertices and recession directions of a piece {x in H : rows}, n = 3.

    A row (a at p, -a at q; r) is the edge x_p - x_q <= r/a, closed at the
    scale L, the lcm of the a's.  A polytrope's vertices in n = 3 are among
    its finite negated rows and finite columns (Joswig-Kulas 2010); one is a
    vertex when two rows that are not parallel are tight at it, and vertices
    are listed by the first such pair (i, j), since drawing sums their float
    coordinates in list order.  The directions are those of _DIRECTIONS that
    keep every finite bound.
    """
    edges = [(c.index(max(c)), c.index(-max(c)), max(c), r) for c, r in piece]
    L = lcm(*(a for _, _, a, _ in edges))
    D = _close(_free(3), [(p, q, r * (L // a)) for p, q, a, r in edges])
    points = [[-b for b in row] for row in D if None not in row]
    points += [list(col) for col in zip(*D) if None not in col]
    lines = [{p, q} for p, q, _, _ in edges]
    keyed = []
    for u in {tuple(x - v[0] for x in v) for v in points}:
        tight = [k for k, (p, q, a, r) in enumerate(edges) if a * (u[p] - u[q]) == r * L]
        pairs = [(i, j) for i in tight for j in tight if i < j and lines[i] != lines[j]]
        if pairs:
            keyed.append((pairs[0], u))
    finite = [(p, q) for p, row in enumerate(D) for q, b in enumerate(row) if b is not None]
    rays = [d for d in _DIRECTIONS if all(d[p] <= d[q] for p, q in finite)]
    return [_decode(u, L) for _, u in sorted(keyed)], rays


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


def _extreme_points(closures: Sequence[list], L: int):
    """Tropical extreme points of the union of bounded closed pieces, sorted.

    The candidates are the negated rows of the closures, integers at the
    scale L taken up to the all-ones line; hull membership ignores both, so
    only the extreme ones are decoded."""
    rows = {tuple(-b for b in row) for D in closures for row in D}
    members = {tuple(x - u[0] for x in u) for u in rows}
    extreme = [
        u for u in members if len(members) == 1 or not _in_tconv(u, [v for v in members if v != u])
    ]
    return tuple(sorted((_decode(u, L) for u in extreme), key=lambda g: g.coords))


def region(S: SiteSet, s: int) -> VoronoiRegion:
    """The region of site s: irredundant halfspaces, plus extreme points when
    the region is bounded.  A halfspace is dropped when the others still
    kept already lie inside it; only the kept ones become halfspace
    objects."""
    neighbours, choices = _site_table(S, (s,))
    kept, kept_choices = neighbours[s], choices[s]
    i = 0
    while i < len(kept):
        if _redundant(kept_choices[i], kept_choices[:i] + kept_choices[i + 1 :], S.n):
            del kept[i], kept_choices[i]
        else:
            i += 1

    closures = [D for _, D in _search(kept_choices, S.n)]
    bounded = all(_bounded(D) for D in closures)
    return VoronoiRegion(
        s,
        tuple(halfspace_from_pair(S[s], S[t]) for t in kept),
        _extreme_points(closures, S.scale) if bounded else None,
    )


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


def _distinct(closures: Sequence[list]) -> list:
    """Each distinct closed matrix once, in the order first seen.  Many
    pieces of a cell share a closure: the A2 triple point's 4,096 pieces
    have one."""
    return list({tuple(map(tuple, D)): D for D in closures}.values())


def _cell(n: int, label, choices: Sequence[list], seeds: Sequence[tuple]) -> tuple:
    """(cell, pieces, distinct closures) of a sorted label: the search of
    these halfspace choices from seeds, (rows, closed matrix) pairs.  Seeded
    with all of H, the empty label's one piece, the choices are those of
    every site of the label; seeded with the pieces of label[:-1], they are
    those of label[-1] alone, and the pieces, their order and their closures
    are the same."""
    pieces = list(_search(choices, n, seeds=seeds))
    distinct = _distinct([D for _, D in pieces])
    dim = max((_dim(D) for D in distinct), default=-1)
    return DiagramCell(label, dim, tuple(rows for rows, _ in pieces)), pieces, distinct


def cell(S: SiteSet, T: Iterable[int]) -> DiagramCell:
    """Feasibility and dimension of the intersection of the regions of T."""
    label = tuple(sorted(set(int(t) for t in T)))
    if not label or label[0] < 0 or label[-1] >= len(S):
        raise ValueError("label must be a nonempty subset of site indices")
    choices = _site_table(S, label)[1]
    return _cell(S.n, label, [c for s in label for c in choices[s]], [((), _free(S.n))])[0]


def sufficiently_generic(S: SiteSet):
    """Every pair of sites with intersecting regions differs everywhere.

    Returns (True, None) or (False, (i, j, k)) naming the offending pair and
    the shared coordinate.  Only the sites of pairs sharing a coordinate go
    into the site table.
    """
    pairs = [
        (i, j) for i, j in combinations(range(len(S)), 2) if any(a == b for a, b in zip(S[i], S[j]))
    ]
    choices = _site_table(S, {s for pair in pairs for s in pair})[1]
    for i, j in pairs:
        if any(_search(choices[i] + choices[j], S.n)):
            return False, (i, j, next(k for k in range(S.n) if S[i][k] == S[j][k]))
    return True, None


@dataclass(frozen=True)
class VoronoiDiagram:
    cells: tuple
    order: tuple  # (child, parent) index pairs, child cell strictly inside parent


def label_lattice(count: int, gp: bool, n: int, probe: Callable, contains: Callable):
    """Canonical labels of the nonempty cells of a diagram on count sites and
    their inclusion order; the one label-lattice walk behind the tropical
    diagram and the lifted power diagram.

    probe(label) says whether the cell of a sorted label is nonempty; a label
    is probed only when every label one site smaller is nonempty.  The
    canonical label of a cell is the set of every site s with
    contains(label, s).  contains is consulted only when the label grown by s
    is itself nonempty: a cell inside the region of s also lies in the cell
    of the grown label, so the filter changes no canonical label.  Labels are
    settled from the largest down, and contains(label, s) is skipped when a
    label one site larger already has its cell outside the region of s: that
    cell lies in this one, so this one is outside too.  In general
    position (gp) every label is its own canonical label and cells have
    at most n sites, since dimensions drop strictly with the label size.
    Returns (labels, order): (canonical label, least enumerated label of its
    cell) pairs sorted by label size, then label, and the sorted (child,
    parent) index pairs with the child strictly inside the parent.
    """
    nonempty: set = set()
    candidates = [(s,) for s in range(count)]
    for size in range(1, (min(count, n) if gp else count) + 1):
        frontier = [label for label in candidates if probe(label)]
        nonempty.update(frontier)
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

    keys: dict = {}
    outside: set = set()  # (label, s) whose cell is not inside the region of s
    for label in sorted(nonempty, key=lambda label: (-len(label), label)):
        key = set(label)
        for s in () if gp else range(count):
            if s in label:
                continue
            if (
                tuple(sorted(label + (s,))) in nonempty
                and not any((tuple(sorted(label + (x,))), s) in outside for x in range(count))
                and contains(label, s)
            ):
                key.add(s)
            else:
                outside.add((label, s))
        keys[label] = tuple(sorted(key))
    first: dict = {}
    for label in sorted(nonempty):
        first.setdefault(keys[label], label)

    labels = sorted(first.items(), key=lambda item: (len(item[0]), item[0]))
    order = tuple(
        (i, j)
        for i, (a, _) in enumerate(labels)
        for j, (b, _) in enumerate(labels)
        if set(a) > set(b)
    )
    return labels, order


def voronoi_diagram(S: SiteSet) -> VoronoiDiagram:
    """All nonempty cells with canonical labels and the inclusion order.

    Labels are canonical: the label of a cell is the set of every site whose
    region contains it, which makes cell inclusion the reverse of label
    inclusion.  Each label's cell grows from the pieces of the label without
    its last site, all of H being the empty label's cell.
    """
    if len(S) > SITE_CAP:
        raise ValueError("instance too large")
    n = S.n
    gp, _ = check_general_position(S)
    _, choices = _site_table(S, range(len(S)))
    cells: dict = {}
    found: dict = {(): [((), _free(n))]}
    distinct: dict = {}

    def probe(label) -> bool:
        # label_lattice probes a label only once every label one site smaller
        # is nonempty, so label[:-1] has been probed
        cells[label], found[label], distinct[label] = _cell(
            n, label, choices[label[-1]], found[label[:-1]]
        )
        return cells[label].dim >= 0

    def contains(label, s: int) -> bool:
        return all(_inside(D, h) for D in distinct[label] for h in choices[s])

    labels, order = label_lattice(len(S), gp, n, probe, contains)
    return VoronoiDiagram(tuple(replace(cells[label], label=key) for key, label in labels), order)


def diagram_to_json(d: VoronoiDiagram) -> dict:
    return {
        "cells": [{"T": list(c.label), "dim": c.dim} for c in d.cells],
        "order": [list(pair) for pair in d.order],
    }
