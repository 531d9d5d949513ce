"""Dual graphs, Delone complexes, hull complexes, and the Scarf comparison."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cell_delone
from subset_hull import subset_hull_facets
from tropvor.delone import (
    DualGraph,
    SimplicialComplex,
    _edges,
    _maximal,
    complex_to_json,
    delone_complex,
    dual_graph,
    hull_complex,
    scarf_check,
    sufficiently_generic,
)
from tropvor.lift import _power_walk, monomial_lift
from tropvor.sites import (
    SITE_CAP,
    LatticeWindow,
    SiteSet,
    check_general_position,
    lattice_points,
    signature_reduce,
)
from tropvor.tropcore import HPoint
from tropvor.voronoi import _all_bounded, _site_table, cell, label_lattice, region


def H(*cs):
    return HPoint([Fraction(c) for c in cs])


def sites(*rows):
    return SiteSet([H(*r) for r in rows])


def combo_block(b0, b1):
    """The nine integer combinations i*b0 + j*b1 with i, j in {-1, 0, 1}."""
    steps = (-1, 0, 1)
    return SiteSet([H(*(i * x + j * y for x, y in zip(b0, b1))) for i in steps for j in steps])


def moment_sites(count):
    """Sites (k, k^2, -k - k^2): every pair differs in every coordinate."""
    return sites(*[(k, k * k, -k - k * k) for k in range(count)])


def a2_window():
    L = LatticeWindow([H(1, -1, 0), H(0, 1, -1)], 1)
    S, report = lattice_points(L)
    assert not report.sufficient
    return S


CYCLIC = sites((1, -1, 0), (0, 1, -1), (-1, 0, 1))

# sufficiently generic sets whose dual graph has four pairwise adjacent
# regions with no common point: the clique complex of the dual graph has a
# facet of four sites there, the hull complex and the nerve only triangles
CLIQUE_COUNTEREXAMPLES = [
    sites((-1, 2, -1), (11, 0, -11), (-7, -8, 15), (10, -12, 2), (8, -2, -6)),
    sites((3, 12, -15), (-1, -2, 3), (1, -5, 4), (-12, 5, 7)),
    sites((-7, 5, 2), (9, 9, -18), (-4, -7, 11), (-12, 8, 4)),
]


def integer_sites(n, lo, hi, min_size, max_size):
    """Distinct integer points on H with the first n - 1 coordinates in
    [lo, hi]."""
    head = st.tuples(*[st.integers(lo, hi)] * (n - 1))
    return st.lists(head, min_size=min_size, max_size=max_size, unique=True).map(
        lambda rows: SiteSet([H(*r, -sum(r)) for r in rows])
    )


# ---------------------------------------------------------------------------
# simplicial complexes as data

def test_complex_rejects_nested_facets():
    with pytest.raises(ValueError, match="facet contained in another facet"):
        SimplicialComplex((0, 1, 2), ((0, 1), (0, 1, 2)))


def test_complex_dim_and_sorting():
    C = SimplicialComplex((2, 0, 1), ((1, 0), (2,)), provisional_vertices=(2, 0))
    assert C.vertices == (0, 1, 2)
    assert C.facets == ((0, 1), (2,))
    assert C.provisional_vertices == (0, 2)
    assert C.dim == 1


def test_complex_json_shape():
    C = SimplicialComplex((0, 1, 2), ((0, 1, 2),), provisional_vertices=(0, 1, 2))
    assert json.dumps(complex_to_json(C), sort_keys=True) == (
        '{"facets": [[0, 1, 2]], "provisional_vertices": [0, 1, 2]}'
    )


# ---------------------------------------------------------------------------
# dual graph

def test_two_sites_always_adjacent():
    # the bisector of two distinct sites is never empty
    g = dual_graph(sites((0, 0, 0), (5, -5, 0)))
    assert g.edges == ((0, 1),)


def test_a2_window_dual_graph_and_complex():
    S = a2_window()
    assert [tuple(s) for s in S] == [
        (0, 0, 0),
        (-1, 0, 1),
        (-1, 1, 0),
        (0, -1, 1),
        (0, 1, -1),
        (1, -1, 0),
        (1, 0, -1),
    ]
    g = dual_graph(S)
    # 0 is adjacent to all six roots; the ring of roots closes up into a
    # hexagon, leaving six triangles around the origin
    assert g.edges == (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
        (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6),
    )
    D = delone_complex(S)
    assert D.facets == (
        (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 6), (0, 5, 6),
    )
    assert D.dim == 2
    assert all(len(F) == 3 for F in D.facets)
    assert all(0 in F for F in D.facets)
    # the radius-1 window certifies no region as bounded
    assert D.provisional_vertices == tuple(range(7))
    # flag property: every facet is a clique of the dual graph
    edge_set = set(g.edges)
    for F in D.facets:
        for i in range(len(F)):
            for j in range(i + 1, len(F)):
                assert (F[i], F[j]) in edge_set


def plus_block():
    """The origin and its four neighbours along two bases."""
    b0, b1 = (2, -2, 0), (-1, 2, -1)
    steps = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
    return SiteSet([H(*(i * x + j * y for x, y in zip(b0, b1))) for i, j in steps])


def test_dual_graph_reduces_each_site_once(monkeypatch):
    S = plus_block()
    facets = delone_complex(S).facets
    calls = []

    def counted(S, s):
        calls.append(s)
        return signature_reduce(S, s)

    def no_region(*args):
        raise AssertionError("delone_complex built a region")

    monkeypatch.setattr("tropvor.voronoi.signature_reduce", counted)
    monkeypatch.setattr("tropvor.voronoi.region", no_region)
    assert delone_complex(S).facets == facets
    assert sorted(calls) == list(range(len(S)))


def test_delone_rejects_too_many_sites_before_any_reduction(monkeypatch):
    S = sites(*[(k, -k, 0) for k in range(SITE_CAP + 1)])
    calls = []

    def counted(S, s):
        calls.append(s)
        return signature_reduce(S, s)

    monkeypatch.setattr("tropvor.voronoi.signature_reduce", counted)
    for entry in (delone_complex, dual_graph):
        with pytest.raises(ValueError, match="instance too large"):
            entry(S)
    assert calls == []


def test_collinear_trio_is_one_triangle():
    S = sites((0, 0, 0), (1, -1, 0), (2, -2, 0))
    D = delone_complex(S)
    assert D.facets == ((0, 1, 2),)
    assert D.dim == 2
    assert D.provisional_vertices == (0, 1, 2)


def test_cyclic_trio_complex():
    D = delone_complex(CYCLIC)
    assert D.facets == ((0, 1, 2),)
    assert D.provisional_vertices == (0, 1, 2)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=2))
def test_pair_complex_is_single_edge(head):
    a = H(*head, -sum(head))
    if all(c == 0 for c in a.coords):
        return
    D = delone_complex(SiteSet([H(0, 0, 0), a]))
    assert D.facets == ((0, 1),)
    assert D.dim == 1


# ---------------------------------------------------------------------------
# the pruned searches against full cells and regions


def perturbed_block():
    e = Fraction(1, 10)
    return combo_block((2 + 2 * e, -2 - e, -e), (-1 - e, 2 + 2 * e, -1 - e))


def assert_matches_the_cell_reference(S):
    """Edges and provisional sites from the pruned searches equal those from
    full pair cells and regions; the public entry points too within the cap."""
    choices = _site_table(S, range(len(S)))[1]
    assert _edges(S, choices) == cell_delone.pair_edges(S)
    for s in range(len(S)):
        assert _all_bounded(choices[s], S.n) == region(S, s).bounded
    if len(S) <= SITE_CAP:
        assert dual_graph(S) == cell_delone.dual_graph(S)
        assert delone_complex(S) == cell_delone.delone_complex(S)


def lattice_window(b0, b1, radius):
    return lattice_points(LatticeWindow([H(*b0), H(*b1)], radius))[0]


@pytest.mark.parametrize(
    "S",
    [
        CYCLIC,
        sites((0, 0, 0), (1, -1, 0), (2, -2, 0)),
        sites((0, 0, 0), (5, -5, 0)),
        sites((0, 0, 0)),
        a2_window(),
        plus_block(),
        combo_block((2, -2, 0), (-1, 2, -1)),
        perturbed_block(),
        combo_block((22, -21, -1), (-11, 22, -11)),
        lattice_window((2, -2, 0), (-1, 2, -1), 3),
        lattice_window((1, -1, 0), (0, 1, -1), 2),
        moment_sites(12),
        *CLIQUE_COUNTEREXAMPLES,
    ],
    ids=[
        "cyclic", "collinear", "pair", "singleton", "a2 radius 1", "plus", "block",
        "perturbed block", "scaled block", "L2 radius 3", "a2 radius 2", "moment 12",
        "clique5", "clique4a", "clique4b",
    ],
)
def test_pruned_searches_match_the_cell_reference_on_fixtures(S):
    assert_matches_the_cell_reference(S)


def rational_sites(n, min_size, max_size):
    """Distinct rational points on H with small numerators and denominators."""
    coord = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    return st.lists(
        st.tuples(*[coord] * (n - 1)), min_size=min_size, max_size=max_size, unique=True
    ).map(lambda rows: SiteSet([H(*r, -sum(r)) for r in rows]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_sites(3, 2, 7), rational_sites(4, 2, 5), integer_sites(3, -2, 2, 2, 6)))
def test_pruned_searches_match_the_cell_reference_on_random_sets(S):
    assert_matches_the_cell_reference(S)


# ---------------------------------------------------------------------------
# genericity of a configuration

def test_a2_window_not_sufficiently_generic():
    S = a2_window()
    ok, witness = sufficiently_generic(S)
    assert not ok
    i, j, k = witness
    assert S[i][k] == S[j][k]
    assert cell(S, (i, j)).dim >= 0


def test_collinear_trio_not_sufficiently_generic():
    S = sites((0, 0, 0), (1, -1, 0), (2, -2, 0))
    assert sufficiently_generic(S) == (False, (0, 1, 2))


def test_cyclic_trio_sufficiently_generic():
    assert sufficiently_generic(CYCLIC) == (True, None)


# ---------------------------------------------------------------------------
# hull complexes and the Scarf comparison

def test_hull_singleton():
    C = hull_complex(sites((0, 0, 0)))
    assert C.facets == ((0,),)
    assert C.dim == 0


def test_hull_pair():
    C = hull_complex(sites((0, 0, 0), (1, -2, 1)))
    assert C.facets == ((0, 1),)


def test_hull_cyclic_trio():
    C = hull_complex(CYCLIC)
    assert C.facets == ((0, 1, 2),)
    assert C.dim == 2


def test_hull_rejects_fractional_sites():
    bad = SiteSet([H(0, 0, 0), H(Fraction(1, 2), Fraction(-1, 2), 0)])
    with pytest.raises(ValueError, match="non-integer sites"):
        hull_complex(bad)


def test_hull_site_cap():
    rows = [(k, -k, 0) for k in range(13)]
    with pytest.raises(ValueError, match="size cap exceeded"):
        hull_complex(sites(*rows))


def test_scarf_cyclic_trio():
    assert scarf_check(CYCLIC) is True


def test_scarf_requires_genericity():
    with pytest.raises(ValueError, match="precondition: genericity"):
        scarf_check(a2_window())


@pytest.mark.parametrize("S", CLIQUE_COUNTEREXAMPLES)
def test_scarf_compares_with_the_nerve_not_the_clique_complex(S):
    assert sufficiently_generic(S)[0]
    assert any(len(F) > S.n for F in delone_complex(S).facets)
    assert scarf_check(S) is True


@settings(max_examples=60, deadline=None)
@given(integer_sites(3, -15, 15, 4, 5))
def test_nerve_equals_hull_on_sufficiently_generic_sets(S):
    # scarf_check compares the nerve of the Voronoi diagram with the hull
    # complex; the two agree whenever the sites are sufficiently generic
    if sufficiently_generic(S)[0]:
        assert scarf_check(S) is True


# ---------------------------------------------------------------------------
# the lifted cell walk against the subset-search reference


@pytest.mark.parametrize(
    "S",
    [
        combo_block((2, -2, 0), (-1, 2, -1)),
        combo_block((22, -21, -1), (-11, 22, -11)),
        a2_window(),
        sites((0, 0, 0), (1, -1, 0), (2, -2, 0)),
        *CLIQUE_COUNTEREXAMPLES,
    ],
    ids=["block", "scaled block", "a2 radius 1", "collinear", "clique5", "clique4a", "clique4b"],
)
def test_hull_matches_the_subset_search_on_fixtures(S):
    assert hull_complex(S).facets == subset_hull_facets(S)


@settings(max_examples=100, deadline=None)
@given(st.one_of(integer_sites(3, -2, 2, 2, 5), integer_sites(4, -1, 1, 2, 5)))
def test_hull_matches_the_subset_search_with_ties(S):
    # small coordinates make shared coordinates, so most draws take the
    # walk's canonical-label path
    assert hull_complex(S).facets == subset_hull_facets(S)


# ---------------------------------------------------------------------------
# the Scarf route for strongly generic sites


def strongly_generic_sites(n, min_size, max_size):
    """Integer points on H, every pair differing in every coordinate: the
    first n - 1 coordinates are drawn without repeats, the last is checked."""
    column = st.lists(st.integers(-40, 40), min_size=max_size, max_size=max_size, unique=True)

    def build(draw):
        size, columns = draw
        rows = [tuple(col[i] for col in columns) for i in range(size)]
        return SiteSet([H(*r, -sum(r)) for r in rows])

    return (
        st.tuples(st.integers(min_size, max_size), st.tuples(*[column] * (n - 1)))
        .map(build)
        .filter(lambda S: check_general_position(S)[0])
    )


def walk_facets(S):
    labels, _, _ = _power_walk([monomial_lift(s) for s in S])
    return SimplicialComplex(range(len(S)), _maximal(labels)).facets


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        strongly_generic_sites(3, 2, 8),
        strongly_generic_sites(4, 2, 5),
        strongly_generic_sites(5, 2, 4),
    )
)
def test_scarf_route_matches_the_walk_and_the_subset_search(S):
    facets = hull_complex(S).facets
    assert facets == subset_hull_facets(S)
    assert facets == walk_facets(S)


def test_generic_hulls_run_no_walk(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the lifted walk ran on generic sites")

    monkeypatch.setattr("tropvor.delone._power_walk", no_walk)
    assert hull_complex(CYCLIC).facets == ((0, 1, 2),)
    for S in CLIQUE_COUNTEREXAMPLES:
        assert all(len(F) <= S.n for F in hull_complex(S).facets)
    S = moment_sites(12)
    assert check_general_position(S)[0]
    C = hull_complex(S)
    assert set(C.vertices) == set(range(12))
    assert all(len(F) <= S.n for F in C.facets)


def test_generic_hulls_keep_the_size_caps():
    six = sites((0, 0, 0, 0, 0, 0), (1, 2, 3, 4, 5, -15), (-1, -2, -3, -4, -5, 15))
    for S in (moment_sites(13), six):
        assert check_general_position(S)[0]
        with pytest.raises(ValueError, match="size cap exceeded"):
            hull_complex(S)


def test_scaled_block_is_not_strongly_generic_and_walks(monkeypatch):
    S = combo_block((22, -21, -1), (-11, 22, -11))
    assert not check_general_position(S)[0]
    assert sufficiently_generic(S)[0]
    walks = []

    def counted(lifts, *args):
        walks.append(len(lifts))
        return _power_walk(lifts, *args)

    monkeypatch.setattr("tropvor.delone._power_walk", counted)
    assert hull_complex(S).facets == (
        (0, 1, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5), (3, 4, 7), (3, 6, 7), (4, 5, 8), (4, 7, 8),
    )
    assert walks == [9]


def test_scaled_block_reuses_false_contains_answers(monkeypatch):
    # a cell outside the region of s has every smaller label's cell outside
    # it too, so settled false answers spare most containment LPs
    calls = []

    def counted(count, gp, n, probe, contains):
        def counted_contains(label, s):
            calls.append((label, s))
            return contains(label, s)

        return label_lattice(count, gp, n, probe, counted_contains)

    monkeypatch.setattr("tropvor.lift.label_lattice", counted)
    S = combo_block((22, -21, -1), (-11, 22, -11))
    assert hull_complex(S).facets == subset_hull_facets(S)
    assert 0 < len(calls) <= 24
