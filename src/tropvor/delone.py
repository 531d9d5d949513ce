"""Dual graph, Delone complex, and the hull complex of the lifted sites.

Two regions are adjacent when their common cell has codimension at most one
inside H, the only ambient space where regions are full-dimensional.  The
Delone complex is literally the clique complex of that graph.  Adjacency and
boundedness are decided by pruned prefix searches over the pieces of each
site's signature-reduced halfspaces, and no piece is kept: every piece is a
polytrope, and adding bounds to a closed difference-bound matrix never
raises its dimension or makes it unbounded, so a pair search stops at the
first piece of dimension >= n - 2 and drops every prefix already below it,
and a boundedness search accepts every prefix that is already bounded.

On the lifted side, the bounded faces of conv(t^{-s}) + orthant form the hull complex of
the monomial module generated by the x^(-s).  When every pair of sites
differs in every coordinate, that module is generic and its hull complex is
its Scarf complex (Bayer-Sturmfels 1998; Miller-Sturmfels, ch. 6), read off
integer componentwise maxima.  Otherwise its facets are the maximal
canonical labels of the cells of the farthest power diagram of the lifts,
found by the lifted label-lattice walk.  scarf_check compares it with the
nerve of the tropical diagram, whose facets are the maximal canonical labels
of the Voronoi cells; for sufficiently generic integer sites the two agree
facet by facet.

Window truncation matters: a site whose region is unbounded within the given
finite set would acquire more constraints from a larger window, so such sites
are reported as provisional rather than silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .lift import _power_walk, monomial_lift
from .sites import DIM_CAP, LIFT_CAP, SITE_CAP, SiteSet, check_general_position
from .voronoi import (
    _all_bounded,
    _has_piece,
    _site_table,
    sufficiently_generic,
    voronoi_diagram,
)


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


def _edges(S: SiteSet, choices: dict) -> tuple:
    """Pairs of sites whose common cell has dimension >= n - 2, from the
    edge choices of a site table."""
    return tuple(
        (i, j)
        for i, j in combinations(range(len(S)), 2)
        if _has_piece(choices[i] + choices[j], S.n, S.n - 2)
    )


def dual_graph(S: SiteSet) -> DualGraph:
    """Edges between regions whose intersection has codimension <= 1 in H."""
    if len(S) > SITE_CAP:
        raise ValueError("instance too large")
    return DualGraph(tuple(range(len(S))), _edges(S, _site_table(S, range(len(S)))[1]))


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
    if len(S) > SITE_CAP:
        raise ValueError("instance too large")
    nodes = range(len(S))
    choices = _site_table(S, nodes)[1]
    adj = {v: set() for v in nodes}
    for a, b in _edges(S, choices):
        adj[a].add(b)
        adj[b].add(a)
    provisional = [i for i in nodes if not _all_bounded(choices[i], S.n)]
    return SimplicialComplex(nodes, _max_cliques(nodes, adj), provisional)


# ---------------------------------------------------------------------------
# hull complex over the ordered field

def _maximal(labels) -> list:
    """The labels inside no other label: the facets of the complex whose
    faces are the labels and their subsets."""
    sets = [set(label) for label in labels]
    return [label for label, a in zip(labels, sets) if not any(a < b for b in sets)]


def _scarf_facets(S: SiteSet) -> list:
    """Facets of the Scarf complex of the module generated by the x^(-s): a
    nonempty subset of sites is a face when no other subset has the same
    componentwise maximum of the exponents -s."""
    exponents = [tuple(-c for c in row) for row in S.scaled]
    first: dict = {}  # maximum -> the one subset attaining it, or None
    for size in range(1, len(S) + 1):
        for F in combinations(range(len(S)), size):
            m = tuple(map(max, zip(*(exponents[i] for i in F))))
            first[m] = None if m in first else F
    return _maximal([F for F in first.values() if F is not None])


def hull_complex(S: SiteSet) -> SimplicialComplex:
    """Maximal bounded faces of conv of the lifted sites plus the orthant.

    This is the hull complex of the monomial module generated by the x^(-s).
    When every pair of sites differs in every coordinate, the module is
    generic and its hull complex is its Scarf complex (Bayer-Sturmfels,
    "Cellular resolutions of monomial modules", 1998; Miller-Sturmfels,
    Combinatorial Commutative Algebra, ch. 6), read off integer maxima.

    Otherwise a subset F labels a bounded face exactly when some strictly
    positive normal x attains the minimum of <t^(-s), x> over the sites
    precisely on F.  The minimizers at x are the canonical label of the cell
    of x in the farthest power diagram of the lifts t^(-s), so the facets
    are the maximal canonical labels of its cells, read off the lifted
    label-lattice walk without computing any dimension.
    """
    if S.scale != 1:
        raise ValueError("non-integer sites")
    if len(S) > LIFT_CAP or S.n > DIM_CAP:
        raise ValueError("size cap exceeded")
    if check_general_position(S)[0]:
        return SimplicialComplex(range(len(S)), _scarf_facets(S))
    labels, _, _ = _power_walk([monomial_lift(s) for s in S])
    return SimplicialComplex(range(len(S)), _maximal(labels))


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
