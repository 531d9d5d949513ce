"""Dual graph, Delone complex, and the hull complex of the lifted sites.

Two regions are adjacent when their common cell has codimension at most one
inside H, the only ambient space where regions are full-dimensional.  The
Delone complex is literally the clique complex of that graph.  On the lifted
side, the bounded faces of conv(t^{-s}) + orthant form the hull complex; for
sufficiently generic integer sites the two complexes agree facet by facet,
and scarf_check tests exactly that.

Window truncation matters: a site whose region is unbounded within the given
finite set would acquire more constraints from a larger window, so such sites
are reported as provisional rather than silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ._lp import PolyRing, ZPoly, lp_strictly_feasible, zp_neg
from .sites import DIM_CAP, LIFT_CAP, SITE_CAP, SiteSet
from .voronoi import cell, region


@dataclass(frozen=True)
class DualGraph:
    nodes: tuple
    edges: tuple  # sorted pairs of site indices


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet list; faces are implied downward.  No facet contains another."""

    vertices: tuple
    facets: tuple
    provisional_vertices: tuple = ()

    def __init__(self, vertices, facets, provisional_vertices=()) -> None:
        fs = tuple(sorted(tuple(sorted(f)) for f in facets))
        for a, b in combinations(fs, 2):
            if set(a) <= set(b) or set(b) <= set(a):
                raise ValueError("facet contained in another facet")
        object.__setattr__(self, "vertices", tuple(sorted(vertices)))
        object.__setattr__(self, "facets", fs)
        object.__setattr__(self, "provisional_vertices", tuple(sorted(provisional_vertices)))

    @property
    def dim(self) -> int:
        return max((len(f) for f in self.facets), default=0) - 1


def complex_to_json(C: SimplicialComplex) -> dict:
    return {
        "facets": [list(f) for f in C.facets],
        "provisional_vertices": list(C.provisional_vertices),
    }


def dual_graph(S: SiteSet) -> DualGraph:
    """Edges between regions whose intersection has codimension <= 1 in H."""
    if len(S) > SITE_CAP:
        raise ValueError("instance too large")
    edges = []
    for i, j in combinations(range(len(S)), 2):
        if cell(S, (i, j)).dim >= S.n - 2:
            edges.append((i, j))
    return DualGraph(tuple(range(len(S))), tuple(edges))


def _max_cliques(nodes, adj) -> list:
    """Bron-Kerbosch with pivoting; isolated nodes come out as singletons."""
    out: list = []

    def grow(clique: set, cand: set, seen: set) -> None:
        if not cand and not seen:
            out.append(tuple(sorted(clique)))
            return
        pivot = max(cand | seen, key=lambda u: len(adj[u] & cand))
        for v in sorted(cand - adj[pivot]):
            grow(clique | {v}, cand & adj[v], seen & adj[v])
            cand = cand - {v}
            seen = seen | {v}

    grow(set(), set(nodes), set())
    return sorted(out)


def delone_complex(S: SiteSet) -> SimplicialComplex:
    """Clique complex of the dual graph, with window-boundary sites flagged.

    A site whose region is unbounded inside S sits at the edge of whatever
    window produced S, so faces involving it may change under a larger
    window; those sites are listed as provisional.
    """
    G = dual_graph(S)
    adj = {v: set() for v in G.nodes}
    for a, b in G.edges:
        adj[a].add(b)
        adj[b].add(a)
    facets = _max_cliques(G.nodes, adj)
    provisional = [i for i in G.nodes if not region(S, i).bounded]
    return SimplicialComplex(G.nodes, facets, provisional)


# ---------------------------------------------------------------------------
# hull complex over the ordered field

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


def hull_complex(S: SiteSet) -> SimplicialComplex:
    """Maximal bounded faces of conv of the lifted sites plus the orthant.

    A subset F labels a bounded face exactly when some strictly positive
    normal attains its minimum over the lifted sites precisely on F.  Pairs
    on no common supporting plane prune the subset search.
    """
    if len(S) > LIFT_CAP or S.n > DIM_CAP:
        raise ValueError("size cap exceeded")
    if any(c.denominator != 1 for s in S for c in s.coords):
        raise ValueError("non-integer sites")
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
    return SimplicialComplex(tuple(range(len(S))), facets)


def sufficiently_generic(S: SiteSet):
    """Every pair of sites with intersecting regions differs everywhere.

    Returns (True, None) or (False, (i, j, k)) naming the offending pair and
    the shared coordinate.
    """
    for i, j in combinations(range(len(S)), 2):
        shared = next((k for k in range(S.n) if S[i][k] == S[j][k]), None)
        if shared is None:
            continue
        if cell(S, (i, j)).dim >= 0:
            return False, (i, j, shared)
    return True, None


def scarf_check(S: SiteSet) -> bool:
    """Do the Delone complex and the hull complex list the same facets?"""
    ok, _ = sufficiently_generic(S)
    if not ok:
        raise ValueError("precondition: genericity")
    return delone_complex(S).facets == hull_complex(S).facets
