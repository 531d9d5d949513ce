"""Dual graph, Delone complex, and the hull complex of the lifted sites.

Two regions are adjacent when their common cell has codimension at most one
inside H, the only ambient space where regions are full-dimensional.  The
Delone complex is literally the clique complex of that graph.  On the lifted
side, the bounded faces of conv(t^{-s}) + orthant form the hull complex; its
facets are the maximal canonical labels of the cells of the farthest power
diagram of the lifts.  scarf_check compares it with the nerve of the
tropical diagram, whose facets are the maximal canonical labels of the
Voronoi cells; for sufficiently generic integer sites the two agree facet by
facet.

Window truncation matters: a site whose region is unbounded within the given
finite set would acquire more constraints from a larger window, so such sites
are reported as provisional rather than silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .lift import _power_walk, monomial_lift
from .sites import SITE_CAP, SiteSet
from .voronoi import cell, region, voronoi_diagram


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

def _maximal(labels) -> list:
    """The labels inside no other label: the facets of the complex whose
    faces are the labels and their subsets."""
    sets = [set(label) for label in labels]
    return [label for label, a in zip(labels, sets) if not any(a < b for b in sets)]


def hull_complex(S: SiteSet) -> SimplicialComplex:
    """Maximal bounded faces of conv of the lifted sites plus the orthant.

    A subset F labels a bounded face exactly when some strictly positive
    normal x attains the minimum of <t^(-s), x> over the sites precisely on
    F.  The minimizers at x are the canonical label of the cell of x in the
    farthest power diagram of the lifts t^(-s), so the facets are the
    maximal canonical labels of its cells, read off the lifted label-lattice
    walk without computing any dimension.
    """
    if any(c.denominator != 1 for s in S for c in s.coords):
        raise ValueError("non-integer sites")
    labels, _, _ = _power_walk([monomial_lift(s) for s in S])
    return SimplicialComplex(range(len(S)), _maximal(labels))


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
    """Do the nerve of the Voronoi diagram and the hull complex list the same
    facets?  The nerve's faces are the canonical cell labels of
    voronoi_diagram(S): a set of sites is a face exactly when their regions
    share a point."""
    ok, _ = sufficiently_generic(S)
    if not ok:
        raise ValueError("precondition: genericity")
    nerve = SimplicialComplex(range(len(S)), _maximal([c.label for c in voronoi_diagram(S).cells]))
    return nerve.facets == hull_complex(S).facets
