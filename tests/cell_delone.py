"""Test-only reference: the dual graph and the Delone complex through full cells.

This is how tropvor.delone decided adjacency and boundedness before it ran
the pruned prefix searches voronoi._has_piece and voronoi._all_bounded.  A
pair of sites is adjacent when the pair cell, with every piece enumerated by
voronoi._cell from all of H, has dimension >= n - 2, and a site is
provisional when voronoi.region, with its redundancy elimination and extreme
points, reports it unbounded.  pair_edges takes no size cap, so the tests
can compare windows larger than SITE_CAP through the private helpers.
"""

from __future__ import annotations

from itertools import combinations

from cell_walk import searched_cell
from tropvor.delone import DualGraph, SimplicialComplex, _max_cliques
from tropvor.sites import SITE_CAP
from tropvor.voronoi import _site_table, region


def pair_edges(S) -> tuple:
    choices = _site_table(S, range(len(S)))[1]
    return tuple(
        (i, j)
        for i, j in combinations(range(len(S)), 2)
        if searched_cell(S.n, (i, j), choices)[0].dim >= S.n - 2
    )


def dual_graph(S) -> DualGraph:
    if len(S) > SITE_CAP:
        raise ValueError("instance too large")
    return DualGraph(tuple(range(len(S))), pair_edges(S))


def delone_complex(S) -> SimplicialComplex:
    G = dual_graph(S)
    adj = {v: set() for v in G.nodes}
    for a, b in G.edges:
        adj[a].add(b)
        adj[b].add(a)
    provisional = [i for i in G.nodes if not region(S, i).bounded]
    return SimplicialComplex(G.nodes, _max_cliques(G.nodes, adj), provisional)
