"""Regions, redundancy pruning, cells, and the diagram poset."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cell_walk
import fraction_dbm
import fraction_table
import packed_dbm
import recursive_searches
import reentrant_calls
from tropvor._lp import (
    INT_RING,
    UNBOUNDED,
    SingularSystemError,
    lp_affine_dim,
    lp_cramer,
    lp_feasible,
    lp_solve,
    lp_strictly_feasible,
)
from tropvor import delone, lift, voronoi
from tropvor.delone import delone_complex, dual_graph
from tropvor.sites import (
    LatticeWindow,
    SiteSet,
    check_general_position,
    lattice_points,
    signature_reduce,
)
from tropvor.tropcore import (
    HPoint,
    TropicalHalfspace,
    asym_distance,
    halfspace_contains,
    halfspace_from_pair,
    tconv_membership,
)
from tropvor.voronoi import (
    DiagramCell,
    VoronoiRegion,
    _all_bounded,
    _bounded,
    _close,
    _difference_row,
    _dim,
    _edges,
    _free,
    _has_piece,
    _inside,
    _scale,
    _scaled,
    _search,
    _site_table,
    cell,
    classify,
    diagram_to_json,
    halfspace_redundant,
    region,
    region_contains,
    region_from_json,
    region_to_json,
    sufficiently_generic,
    voronoi_diagram,
)


def H(*cs):
    return HPoint(list(cs))


def sites(*rows):
    return SiteSet([H(*r) for r in rows])


# the discrete family with halfspaces x0 <= max(x1 + a/k, x2 + k), truncated
def truncated_family(a, N):
    rows = [(0, 0, 0)]
    for k in range(1, N + 1):
        rows.append((Fraction(k) + Fraction(a, k), -Fraction(a, k), -k))
    return sites(*rows)


def a2_window(radius=2):
    L = LatticeWindow([H(1, -1, 0), H(0, 1, -1)], radius)
    S, report = lattice_points(L)
    assert report.sufficient
    return S


def grid_points(n, lo, hi, step=1):
    """Rational grid on H: free coordinates range over the box, last balances."""
    vals = []
    v = Fraction(lo)
    while v <= hi:
        vals.append(v)
        v += step
    pts = []

    def rec(prefix):
        if len(prefix) == n - 1:
            pts.append(HPoint(list(prefix) + [-sum(prefix)]))
            return
        for v in vals:
            rec(prefix + (v,))

    rec(())
    return pts


def strictly_inside(h: TropicalHalfspace, x: HPoint) -> bool:
    left = max(c + x[i] for i, c in zip(h.I, h.c))
    right = max(d + x[j] for j, d in zip(h.J, h.d))
    return left < right


# ---------------------------------------------------------------------------
# region


def test_region_single_neighbor():
    S = sites((0, 0, 0), (1, -1, 0))
    r = region(S, 0)
    assert r.site == 0
    assert len(r.halfspaces) == 1
    h = r.halfspaces[0]
    assert h.I == (0,) and h.c == (0,)
    assert h.J == (1, 2) and h.d == (1, 0)
    assert not r.bounded
    assert r.generators is None


def test_region_l2_lattice_generators():
    L = LatticeWindow([H(2, -2, 0), H(-1, 2, -1)], 3)
    S, report = lattice_points(L)
    assert report.sufficient
    r = region(S, 0)
    assert r.bounded
    expected = {
        (1, -1, 0),
        (1, 1, -2),
        (0, 1, -1),
        (-1, 1, 0),
        (-2, 1, 1),
        (0, -1, 1),
    }
    assert {tuple(g) for g in r.generators} == expected


def test_region_a2_window():
    # Six swap neighbors are not enough: (u, u, -2u) with 2/3 < u < 1 passes
    # all six yet lies closer to (1, 1, -2).  The pruned description needs
    # nine halfspaces; the generators land on the boundary of -2*simplex.
    S = a2_window()
    r = region(S, 0)
    assert len(r.halfspaces) == 9
    assert r.bounded
    third = Fraction(1, 3)
    expected = {
        (2 * third, 2 * third, -4 * third),
        (2 * third, -4 * third, 2 * third),
        (-4 * third, 2 * third, 2 * third),
        (2 * third, -third, -third),
        (-third, 2 * third, -third),
        (-third, -third, 2 * third),
    }
    assert {tuple(g) for g in r.generators} == expected


def test_region_generators_are_region_points():
    S = a2_window()
    r = region(S, 0)
    for g in r.generators:
        assert region_contains(r, g)


def test_region_truncated_family_keeps_all():
    S = truncated_family(5, 3)
    r = region(S, 0)
    assert len(r.halfspaces) == 3
    assert not r.bounded


def test_region_json_round_trip():
    S = a2_window()
    r = region(S, 0)
    assert region_from_json(region_to_json(r)) == r
    r2 = region(sites((0, 0, 0), (1, -1, 0)), 0)
    data = region_to_json(r2)
    assert data["generators"] is None
    assert region_from_json(data) == r2


# ---------------------------------------------------------------------------
# membership and classification


def test_region_contains_examples():
    r = region(sites((0, 0, 0), (1, -1, 0)), 0)
    assert region_contains(r, H(0, 0, 0))
    assert not region_contains(r, H(2, -1, -1))
    assert region_contains(r, H(1, 0, -1))


def test_classify_examples():
    S = sites((0, 0, 0), (1, -1, 0))
    D, dmin = classify(S, H(0, 0, 0))
    assert D == {0} and dmin == 0
    D, dmin = classify(S, H(1, 0, -1))
    assert D == {0, 1} and dmin == 3
    S1 = sites((1, -1, 0))
    D, dmin = classify(S1, H(4, 4, -8))
    assert D == {0} and dmin == asym_distance(H(4, 4, -8), H(1, -1, 0))


def test_grid_oracle_matches_classify():
    fixtures = [
        sites((0, 0, 0), (1, -1, 0)),
        truncated_family(5, 3),
        sites((3, -1, -2), (-3, 2, 1), (1, -4, 3), (0, 0, 0)),
    ]
    for S in fixtures:
        regions = [region(S, s) for s in range(len(S))]
        for x in grid_points(3, -3, 3):
            D, _ = classify(S, x)
            for s, r in enumerate(regions):
                assert region_contains(r, x) == (s in D)


# ---------------------------------------------------------------------------
# redundancy


def test_halfspace_redundant_domination():
    o = H(0, 0, 0)
    inner = halfspace_from_pair(o, H(1, -1, 0))
    outer = halfspace_from_pair(o, H(2, -2, 0))
    assert halfspace_redundant(outer, [inner])
    assert not halfspace_redundant(inner, [outer])


def test_halfspace_redundant_empty_context():
    h = halfspace_from_pair(H(0, 0, 0), H(1, -1, 0))
    assert not halfspace_redundant(h, [])


def test_halfspace_redundant_truncated_family():
    S = truncated_family(5, 3)
    hs = [halfspace_from_pair(S[0], S[k]) for k in (1, 2, 3)]
    for i in range(3):
        rest = hs[:i] + hs[i + 1 :]
        assert not halfspace_redundant(hs[i], rest)


def test_region_halfspaces_irredundant():
    for S in (a2_window(), truncated_family(5, 3)):
        r = region(S, 0)
        hs = list(r.halfspaces)
        for i in range(len(hs)):
            rest = hs[:i] + hs[i + 1 :]
            assert not halfspace_redundant(hs[i], rest)


# ---------------------------------------------------------------------------
# cells


def test_cell_single_site_full_dimension():
    S = sites((-6, -5, 11), (-5, 12, -7))
    assert cell(S, {0}).dim == 2
    assert cell(S, {1}).dim == 2


def test_cell_gp_pair_bisector():
    S = sites((-6, -5, 11), (-5, 12, -7))
    c = cell(S, {0, 1})
    assert c.dim == 1
    assert c.label == (0, 1)


def test_cell_a2_triple_point():
    S = a2_window()
    idx = {tuple(map(int, p)): i for i, p in enumerate(S)}
    T = {idx[(0, 0, 0)], idx[(1, -1, 0)], idx[(1, 0, -1)]}
    assert cell(S, T).dim == 0


def test_cell_symmetry_in_label_order():
    S = sites((-6, -5, 11), (-5, 12, -7))
    assert cell(S, (0, 1)) == cell(S, (1, 0))


def test_cell_label_validation():
    S = sites((0, 0, 0), (1, -1, 0))
    with pytest.raises(ValueError):
        cell(S, ())
    with pytest.raises(ValueError):
        cell(S, {0, 5})


# ---------------------------------------------------------------------------
# diagram


def test_diagram_singleton():
    d = voronoi_diagram(sites((1, -1, 0)))
    assert len(d.cells) == 1
    assert d.cells[0].label == (0,)
    assert d.cells[0].dim == 2
    assert d.order == ()


def test_diagram_gp_pair():
    d = voronoi_diagram(sites((-6, -5, 11), (-5, 12, -7)))
    got = diagram_to_json(d)
    assert got == {
        "cells": [
            {"T": [0], "dim": 2},
            {"T": [1], "dim": 2},
            {"T": [0, 1], "dim": 1},
        ],
        "order": [[2, 0], [2, 1]],
    }


def test_diagram_three_cyclic():
    d = voronoi_diagram(sites((1, -1, 0), (0, 1, -1), (-1, 0, 1)))
    got = diagram_to_json(d)
    assert got["cells"] == [
        {"T": [0], "dim": 2},
        {"T": [1], "dim": 2},
        {"T": [2], "dim": 2},
        {"T": [0, 1], "dim": 1},
        {"T": [0, 2], "dim": 1},
        {"T": [1, 2], "dim": 1},
        {"T": [0, 1, 2], "dim": 0},
    ]
    assert got["order"] == [
        [3, 0],
        [3, 1],
        [4, 0],
        [4, 2],
        [5, 1],
        [5, 2],
        [6, 0],
        [6, 1],
        [6, 2],
        [6, 3],
        [6, 4],
        [6, 5],
    ]


def test_diagram_collinear_canonical_labels():
    # Not in general position: every tie point of sites 0 and 2 is also
    # closest to the middle site, so the enumerated pair label {0, 2} must
    # collapse into the canonical triple.
    d = voronoi_diagram(sites((0, 0, 0), (1, -1, 0), (2, -2, 0)))
    labels = {c.label: c.dim for c in d.cells}
    assert (0, 2) not in labels
    assert labels[(0, 1, 2)] == 2
    assert labels[(0, 1)] == 2 and labels[(1, 2)] == 2


def test_diagram_cap():
    rows = [(k, -k, 0) for k in range(13)]
    with pytest.raises(ValueError, match="instance too large"):
        voronoi_diagram(sites(*rows))


# ---------------------------------------------------------------------------
# invariants


def random_gp_sites(rng, n, count):
    """Random sites in general position: all coordinates pairwise distinct."""
    rows = []
    while len(rows) < count:
        free = [
            Fraction(rng.randint(-8, 8), rng.choice((1, 2)))
            for _ in range(n - 1)
        ]
        row = tuple(free) + (-sum(free),)
        if all(all(a != b for a, b in zip(row, prev)) for prev in rows):
            rows.append(row)
    return SiteSet([HPoint(row) for row in rows])


def test_gp_dimension_formula():
    rng = random.Random(421)
    cases = [(3, 4), (3, 5), (4, 3), (4, 4)]
    for n, count in cases:
        S = random_gp_sites(rng, n, count)
        ok, _ = check_general_position(S)
        assert ok
        d = voronoi_diagram(S)
        for c in d.cells:
            assert len(c.label) <= n
            assert c.dim == n - len(c.label)


def test_bounded_gp_region_segments_stay_interior():
    # For a bounded region in general position, points strictly between the
    # site and any generator must be strictly inside all halfspaces.
    S = sites(
        (0, 0, 0),
        (3, -1, -2),
        (-3, 2, 1),
        (1, -4, 3),
        (-1, 4, -3),
        (2, 3, -5),
        (-2, -3, 5),
    )
    ok, _ = check_general_position(S)
    assert ok
    r = region(S, 0)
    assert r.bounded and len(r.generators) == 6
    for g in r.generators:
        for mu in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            x = HPoint([mu * gi for gi in g])
            for h in r.halfspaces:
                assert strictly_inside(h, x)


def test_diagram_order_matches_label_inclusion():
    S = sites((1, -1, 0), (0, 1, -1), (-1, 0, 1))
    d = voronoi_diagram(S)
    pairs = set(d.order)
    for i, a in enumerate(d.cells):
        for j, b in enumerate(d.cells):
            expected = a.label != b.label and set(a.label) > set(b.label)
            assert ((i, j) in pairs) == expected


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_pair_regions_partition_grid(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    S = random_gp_sites(rng, 3, 2)
    r0 = region(S, 0)
    r1 = region(S, 1)
    for x in grid_points(3, -2, 2, step=2):
        D, _ = classify(S, x)
        assert region_contains(r0, x) == (0 in D)
        assert region_contains(r1, x) == (1 in D)
        assert region_contains(r0, x) or region_contains(r1, x)


# ---------------------------------------------------------------------------
# the difference-bound kernel against the LP kernel it replaced


@st.composite
def difference_systems(draw):
    """(n, edges, probe); an edge (p, q, r) bounds x_p - x_q by r, and probe
    is a halfspace to test containment in.  Reversed copies of some edges
    make equalities, hence zero cycles."""
    n = draw(st.integers(2, 5))
    bound = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), bound).filter(lambda e: e[0] != e[1])
    weak = draw(st.lists(edge, max_size=8))
    if weak:
        weak += [(q, p, -r) for p, q, r in draw(st.lists(st.sampled_from(weak), max_size=2))]
    left = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda m: 0 < sum(m) < n))
    I = [i for i in range(n) if left[i]]
    J = [j for j in range(n) if not left[j]]
    probe = TropicalHalfspace(I, [draw(bound) for _ in I], J, [draw(bound) for _ in J])
    return n, weak, probe


@settings(max_examples=300, deadline=None)
@given(difference_systems())
def test_closure_decides_like_the_lp_kernel(system):
    n, weak, probe = system
    # every bound lies in (1/6)Z, so the kernel takes it scaled by 6
    weak = [(p, q, int(6 * r)) for p, q, r in weak]
    ones = [([1] * n, 0)]
    weak_rows = [_difference_row(n, *e, 6) for e in weak]
    D = _close(_free(n), weak)
    assert (D is not None) == (lp_feasible(n, ones, weak_rows, INT_RING) is not None)
    if D is None:
        return
    # the piece lies in the probe when, for every left term i, the points
    # where i beats every right term j (x_j - x_i < c_i - d_j) are not
    # strictly feasible with the piece's rows
    outside = [
        [_difference_row(n, j, i, int(6 * (ci - dj)), 6) for j, dj in zip(probe.J, probe.d)]
        for i, ci in zip(probe.I, probe.c)
    ]
    inside = _inside(D, _edges(n, 6, probe.I, _scaled(probe.c, 6), probe.J, _scaled(probe.d, 6)))
    assert inside == all(
        not lp_strictly_feasible(n, ones, rows, weak_rows, INT_RING) for rows in outside
    )
    assert _dim(D) == lp_affine_dim(n, ones, weak_rows, INT_RING)
    unbounded = any(
        lp_solve(n, ones, weak_rows, [sgn * (i == k) for i in range(n)], INT_RING).status == UNBOUNDED
        for k in range(n)
        for sgn in (1, -1)
    )
    assert _bounded(D) == (not unbounded)


@st.composite
def halfspace_lists(draw):
    """(n, halfspaces, probe): two-term max halfspaces with rational
    coefficients whose denominators vary, and one more to test containment."""
    n = draw(st.integers(2, 5))
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))

    def halfspace():
        sides = st.lists(st.booleans(), min_size=n, max_size=n)
        left = draw(sides.filter(lambda m: 0 < sum(m) < n))
        I = [i for i in range(n) if left[i]]
        J = [j for j in range(n) if not left[j]]
        return TropicalHalfspace(I, [draw(coeff) for _ in I], J, [draw(coeff) for _ in J])

    hs = [halfspace() for _ in range(draw(st.integers(0, 4)))]
    return n, hs, halfspace()


def halfspace_edges(h: TropicalHalfspace, L: int) -> list:
    """The edge choices of h at the scale L, from the one edge builder."""
    return _edges(h.n, L, h.I, _scaled(h.c, L), h.J, _scaled(h.d, L))


def decoded(D: list, L: int) -> list:
    """The (Fraction bound, weak bit) matrix of an integer matrix."""
    return [[None if e is None else (Fraction(e, L), 1) for e in row] for row in D]


@settings(max_examples=200, deadline=None)
@given(halfspace_lists())
def test_integer_closure_decides_like_the_fraction_kernel(system):
    n, hs, probe = system
    L = _scale(hs + [probe])
    new = list(_search([halfspace_edges(h, L) for h in hs], n))
    old = fraction_dbm._pieces(hs, n)
    assert [rows for rows, _ in new] == [rows for rows, _ in old]
    choices = halfspace_edges(probe, L)
    for (_, D), (_, E) in zip(new, old):
        assert decoded(D, L) == E
        assert _dim(D) == fraction_dbm._dim(E)
        assert _bounded(D) == fraction_dbm._bounded(E)
        assert _inside(D, choices) == fraction_dbm._inside(E, probe)
    assert halfspace_redundant(probe, hs) == all(fraction_dbm._inside(E, probe) for _, E in old)


@settings(max_examples=200, deadline=None)
@given(halfspace_lists())
def test_weak_closure_decides_like_the_packed_kernel(system):
    # each piece's closure is the packed kernel's closure of the same edges,
    # every entry b read as 2b + 1, and containment read off the closure
    # answers like closing each strict complement piece
    n, hs, probe = system
    L = _scale(hs + [probe])
    choices = [halfspace_edges(h, L) for h in hs]
    old = []
    for picked in product(*choices):
        E = packed_dbm._close(packed_dbm._free(n), [e for edges, _ in picked for e in edges], 1)
        if E is not None:
            old.append((sum((rows for _, rows in picked), ()), E))
    new = list(_search(choices, n))
    assert [(rows, packed_dbm.packed(D)) for rows, D in new] == old
    for _, D in new:
        for h in [probe, *hs]:
            complements = fraction_table._complements(h, L)
            assert _inside(D, halfspace_edges(h, L)) == packed_dbm._inside(
                packed_dbm.packed(D), complements
            )


# ---------------------------------------------------------------------------
# the lazy piece search against the recursions it replaced


@st.composite
def loosened_systems(draw):
    """halfspace_lists systems whose probe is, half the time, a copy of a
    drawn halfspace with every right coefficient d_j raised by some delta >=
    0: a larger halfspace, so the others always lie inside it."""
    n, hs, probe = draw(halfspace_lists())
    loosened = bool(hs) and draw(st.booleans())
    if loosened:
        g = draw(st.sampled_from(hs))
        delta = st.builds(Fraction, st.integers(0, 6), st.integers(1, 4))
        probe = TropicalHalfspace(g.I, g.c, g.J, [d + draw(delta) for d in g.d])
    return n, hs, probe, loosened


# x0 = x1 in n = 2 is one point of H, outside x0 + 1 <= x1: pruning prefixes
# by dimension as well would miss it
POINT_OUTSIDE = (
    2,
    [TropicalHalfspace([0], [Fraction(0)], [1], [Fraction(0)]),
     TropicalHalfspace([1], [Fraction(0)], [0], [Fraction(0)])],
    TropicalHalfspace([0], [Fraction(1)], [1], [Fraction(0)]),
    False,
)


@settings(max_examples=200, deadline=None)
@given(loosened_systems())
@example(POINT_OUTSIDE)
def test_lazy_search_answers_like_the_recursions(system):
    n, hs, probe, loosened = system
    L = _scale(hs + [probe])
    # the same rows and closed matrices, in the same order
    choices = [halfspace_edges(h, L) for h in hs]
    assert list(_search(choices, n)) == recursive_searches._pieces(hs, n, L)
    for want in range(-1, n):
        assert _has_piece(choices, n, want) == recursive_searches._has_piece(choices, n, want)
    assert _all_bounded(choices, n) == recursive_searches._all_bounded(choices, n)
    redundant = halfspace_redundant(probe, hs)
    assert redundant == recursive_searches.halfspace_redundant(probe, hs)
    assert redundant or not loosened


def test_reentrant_region_answers_like_listing_every_piece(monkeypatch):
    # reentrant_calls.region asks the public, pruned halfspace_redundant;
    # with the reference that lists every piece of the others in its place,
    # it is independent of the pruning
    monkeypatch.setattr(reentrant_calls, "halfspace_redundant", recursive_searches.halfspace_redundant)
    L2, _ = lattice_points(LatticeWindow([H(2, -2, 0), H(-1, 2, -1)], 3))
    windows = [L2, a2_window(2), A2R1] + seeded_windows()
    for S in windows + [random_sites(seed, count) for seed in range(8) for count in (3, 5, 7)]:
        for s in range(len(S)):
            new, old = region(S, s), reentrant_calls.region(S, s)
            assert new == old, (S, s)
            assert region_to_json(new) == region_to_json(old)


def test_redundancy_test_stops_at_the_first_piece_outside(monkeypatch):
    # every irredundant halfspace of the L2 region has a piece of the others
    # outside it; the lazy test closes fewer matrices than listing every
    # piece of the others
    L2, _ = lattice_points(LatticeWindow([H(2, -2, 0), H(-1, 2, -1)], 3))
    kept = region(L2, 0).halfspaces
    calls = [0]

    def counted(D, edges):
        calls[0] += 1
        return _close(D, edges)

    monkeypatch.setattr(voronoi, "_close", counted)
    lazy = full = 0
    for i, h in enumerate(kept):
        rest = list(kept[:i] + kept[i + 1 :])
        calls[0] = 0
        assert not halfspace_redundant(h, rest)
        lazy += calls[0]
        calls[0] = 0
        L = _scale([h, *rest])
        list(_search([halfspace_edges(g, L) for g in rest], 3))
        full += calls[0]
    assert 0 < lazy < full


def test_redundancy_test_drops_prefixes_inside_the_halfspace(monkeypatch):
    # region(L2, 0)'s redundancy loop, replayed on its site table: deciding a
    # dropped halfspace closes fewer matrices than listing every piece of
    # the other kept halfspaces, since a prefix already inside the dropped
    # one is not searched further (175 and 111 listing calls, 27 and 47 when
    # this was written)
    L2, _ = lattice_points(LatticeWindow([H(2, -2, 0), H(-1, 2, -1)], 3))
    neighbours, choices = _site_table(L2, (0,))
    kept, kept_choices = list(neighbours[0]), list(choices[0])
    calls = [0]

    def counted(D, edges):
        calls[0] += 1
        return _close(D, edges)

    monkeypatch.setattr(voronoi, "_close", counted)
    dropped = []
    i = 0
    while i < len(kept):
        rest = kept_choices[:i] + kept_choices[i + 1 :]
        calls[0] = 0
        redundant = voronoi._redundant(kept_choices[i], rest, L2.n)
        pruned = calls[0]
        calls[0] = 0
        listed = list(_search(rest, L2.n))
        assert redundant == all(_inside(D, kept_choices[i]) for _, D in listed)
        if redundant:
            assert 0 < pruned < calls[0], (kept[i], pruned, calls[0])
            dropped.append(kept[i])
            del kept[i], kept_choices[i]
        else:
            i += 1
    monkeypatch.undo()
    assert dropped == [8, 13]
    assert region(L2, 0).halfspaces == tuple(halfspace_from_pair(L2[0], L2[t]) for t in kept)


def reference_generators(r: VoronoiRegion) -> tuple:
    """Extreme points of a bounded region from the term-equality hyperplanes:
    every point of H on n - 1 of them (Cramer solves), kept when in the
    region and outside the tropical hull of the other such points; sorted."""
    n = r.n
    pool = set()
    for h in r.halfspaces:
        terms = list(zip(h.I, h.c)) + list(zip(h.J, h.d))
        for (p, alpha), (q, beta) in combinations(terms, 2):
            if p > q:
                p, q, alpha, beta = q, p, beta, alpha
            pool.add((p, q, beta - alpha))
    seen = set()
    for planes in combinations(sorted(pool), n - 1):
        rows = [(*a, b) for a, b in (fraction_dbm._difference_row(n, *plane) for plane in planes)]
        try:
            nums, den = lp_cramer(rows + [(*([1] * n), 0)], INT_RING)
        except SingularSystemError:
            continue
        seen.add(tuple(Fraction(num, den) for num in nums))
    members = [HPoint(pt) for pt in sorted(seen) if region_contains(r, HPoint(pt))]
    if len(members) <= 1:
        return tuple(members)
    return tuple(g for g in members if not tconv_membership(g, [c for c in members if c != g]))


def seeded_windows():
    """Sufficient radius-3 windows of random integer bases in n = 3."""
    out = []
    for seed in range(10):
        rng = random.Random(seed)
        while True:
            rows = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
            if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
                break
        S, report = lattice_points(LatticeWindow([H(a, b, -a - b) for a, b in rows], 3))
        if report.sufficient:
            out.append(S)
    return out


def test_region_generators_match_the_term_hyperplane_reference():
    L2, _ = lattice_points(LatticeWindow([H(2, -2, 0), H(-1, 2, -1)], 3))
    A2r1, _ = lattice_points(LatticeWindow([H(1, -1, 0), H(0, 1, -1)], 1))
    # the six roots alone leave the region unbounded along (1, 1, -2)
    assert region(A2r1, 0).generators is None
    windows = [L2, a2_window(2)] + seeded_windows()
    assert len(windows) >= 7
    for S in windows:
        r = region(S, 0)
        assert r.bounded
        assert r.generators == reference_generators(r)


# ---------------------------------------------------------------------------
# the pruned dimension probe against full piece enumeration


def probe_matches_the_cell(S, label) -> int:
    """Check _has_piece against the dimension of the enumerated cell of a
    sorted label for every want from -1 to n - 1; returns that dimension."""
    table = _site_table(S, label)[1]
    choices = [c for s in label for c in table[s]]
    dim = cell_walk.searched_cell(S.n, label, table)[0].dim
    for want in range(-1, S.n):
        assert _has_piece(choices, S.n, want) == (dim >= want), (label, want, dim)
    return dim


@st.composite
def labelled_rational_sites(draw):
    """(S, label): 3 to 5 distinct rational sites in n = 3 or 4, and a sorted
    label of 2 or 3 of them."""
    n = draw(st.integers(3, 4))
    coord = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    heads = draw(st.lists(st.tuples(*[coord] * (n - 1)), min_size=3, max_size=5, unique=True))
    S = SiteSet([H(*r, -sum(r)) for r in heads])
    label = draw(st.lists(st.integers(0, len(S) - 1), min_size=2, max_size=3, unique=True))
    return S, tuple(sorted(label))


@settings(max_examples=150, deadline=None)
@given(labelled_rational_sites())
def test_dimension_probe_matches_the_enumerated_cell(case):
    probe_matches_the_cell(*case)


def test_dimension_probe_on_a2_labels():
    A2r1, _ = lattice_points(LatticeWindow([H(1, -1, 0), H(0, 1, -1)], 1))
    dims = [
        probe_matches_the_cell(A2r1, label)
        for size in (2, 3)
        for label in combinations(range(len(A2r1)), size)
    ]
    # empty, point, segment and two-dimensional cells all occur
    assert set(dims) == {-1, 0, 1, 2}
    # the triple point of test_cell_a2_triple_point on the radius-2 window
    S = a2_window()
    idx = {tuple(map(int, p)): i for i, p in enumerate(S)}
    label = tuple(sorted({idx[(0, 0, 0)], idx[(1, -1, 0)], idx[(1, 0, -1)]}))
    assert probe_matches_the_cell(S, label) == 0
    # no halfspace at all: the one piece is all of H
    assert probe_matches_the_cell(S, ()) == 2


# ---------------------------------------------------------------------------
# one site table per call


def counted_table_builds(monkeypatch) -> dict:
    """Count the calls of voronoi._edges and of its halfspace_from_pair."""
    counts = dict.fromkeys(("_edges", "halfspace_from_pair"), 0)
    for name in counts:

        def counted(*args, _fn=getattr(voronoi, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(voronoi, name, counted)
    return counts


def random_sites(seed: int, count: int) -> SiteSet:
    """count distinct integer sites in n = 3, coordinates may repeat."""
    rng = random.Random(seed)
    rows = set()
    while len(rows) < count:
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        rows.add((a, b, -a - b))
    return SiteSet([H(*r) for r in sorted(rows)])


def test_each_halfspace_gets_its_edge_choices_once(monkeypatch):
    # edges are built once per signature-reduced halfspace, straight from the
    # integer sites; halfspace objects only for a region's kept halfspaces
    L2, _ = lattice_points(LatticeWindow([H(2, -2, 0), H(-1, 2, -1)], 3))
    S = random_sites(3, 5)
    everyone = range(len(S))
    calls = [
        (L2, lambda: region(L2, 0), (0,)),
        (L2, lambda: cell(L2, (0, 1)), (0, 1)),
        (S, lambda: region(S, 2), (2,)),
        (S, lambda: cell(S, (1, 3, 4)), (1, 3, 4)),
        (S, lambda: voronoi_diagram(S), everyone),
        (S, lambda: dual_graph(S), everyone),
        (S, lambda: delone_complex(S), everyone),
    ]
    counts = counted_table_builds(monkeypatch)
    for T, call, labels in calls:
        counts.update(dict.fromkeys(counts, 0))
        result = call()
        built = sum(len(signature_reduce(T, s)) for s in labels)
        assert built > 0
        returned = len(result.halfspaces) if isinstance(result, VoronoiRegion) else 0
        assert counts == {"_edges": built, "halfspace_from_pair": returned}


def test_region_and_the_genericity_test_reenter_no_public_entry_point(monkeypatch):
    def refuse(*args):
        raise AssertionError("re-entered a public entry point")

    monkeypatch.setattr(voronoi, "halfspace_redundant", refuse)
    monkeypatch.setattr(voronoi, "cell", refuse)
    L2, _ = lattice_points(LatticeWindow([H(2, -2, 0), H(-1, 2, -1)], 3))
    # the references bound their own halfspace_redundant and cell
    assert region(L2, 0) == reentrant_calls.region(L2, 0)
    A2r1, _ = lattice_points(LatticeWindow([H(1, -1, 0), H(0, 1, -1)], 1))
    assert sufficiently_generic(A2r1) == reentrant_calls.sufficiently_generic(A2r1)
    assert not sufficiently_generic(A2r1)[0]
    assert sufficiently_generic(sites((3, -6, 3), (3, 4, -7), (5, -1, -4))) == (True, None)


@st.composite
def small_site_sets(draw):
    """2 to 5 distinct sites in n = 3 or 4 with half-integer coordinates in
    [-6, 6], so that pairs often share a coordinate."""
    n = draw(st.integers(3, 4))
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2]))
    heads = draw(st.lists(st.tuples(*[coord] * (n - 1)), min_size=2, max_size=5, unique=True))
    return SiteSet([H(*r, -sum(r)) for r in heads])


@settings(max_examples=150, deadline=None)
@given(small_site_sets())
def test_table_reads_answer_like_the_reentrant_calls(S):
    for s in range(len(S)):
        new, old = region(S, s), reentrant_calls.region(S, s)
        assert new == old
        assert region_to_json(new) == region_to_json(old)
    assert sufficiently_generic(S) == reentrant_calls.sufficiently_generic(S)


def test_reentrant_reference_cases():
    # sets with a coordinate-sharing pair whose regions meet (A2) or do not
    A2r1, _ = lattice_points(LatticeWindow([H(1, -1, 0), H(0, 1, -1)], 1))
    generic = sites((3, -6, 3), (3, 4, -7), (5, -1, -4))
    for S in (A2r1, generic, random_sites(3, 5)):
        assert sufficiently_generic(S) == reentrant_calls.sufficiently_generic(S)
        for s in range(len(S)):
            assert region_to_json(region(S, s)) == region_to_json(reentrant_calls.region(S, s))
    # bounded regions, with extreme points; random sets rarely have one
    L2, _ = lattice_points(LatticeWindow([H(2, -2, 0), H(-1, 2, -1)], 3))
    for S in [L2, a2_window(2)] + seeded_windows():
        new = region(S, 0)
        assert new.bounded
        assert region_to_json(new) == region_to_json(reentrant_calls.region(S, 0))


# ---------------------------------------------------------------------------
# integer sites against the Fraction-built table


@st.composite
def rational_site_sets(draw, max_size: int = 6):
    """2 to max_size distinct sites in n = 3 or 4 with denominators 1, 2, 3
    and 5, so that the site set's scale is often a proper multiple of the lcm
    of one table's halfspace coefficients."""
    n = draw(st.integers(3, 4))
    coord = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5]))
    heads = draw(st.lists(st.tuples(*[coord] * (n - 1)), min_size=2, max_size=max_size, unique=True))
    return SiteSet([H(*r, -sum(r)) for r in heads])


@settings(max_examples=80, deadline=None)
@given(rational_site_sets())
def test_integer_sites_answer_like_the_fraction_table(S):
    everyone = range(len(S))
    neighbours, choices = _site_table(S, everyone)
    halfspaces, old_choices, L = fraction_table._site_table(S, everyone)
    # the table's own lcm divides the site set's scale; every edge is the
    # same bound at the finer scale and every integer row is the same
    k, rem = divmod(S.scale, L)
    assert rem == 0

    def rescaled(edges):
        return [(p, q, r * k) for p, q, r in edges]

    for s in everyone:
        assert neighbours[s] == signature_reduce(S, s) == fraction_table.signature_reduce(S, s)
        assert [halfspace_from_pair(S[s], S[t]) for t in neighbours[s]] == halfspaces[s]
        assert choices[s] == [[(rescaled(e), rows) for e, rows in ch] for ch in old_choices[s]]
        assert region(S, s) == fraction_table.region(S, s)
    for size in (1, 2, 3):
        for label in combinations(everyone, size):
            old = cell_walk.searched_cell(S.n, label, fraction_table._site_table(S, label)[1])[0]
            assert cell(S, label) == old
    assert voronoi_diagram(S) == fraction_table.voronoi_diagram(S)
    new = dual_graph(S), delone_complex(S), sufficiently_generic(S)
    with pytest.MonkeyPatch.context() as mp:
        # both read only the choices, the second entry of either table
        mp.setattr(voronoi, "_site_table", fraction_table._site_table)
        mp.setattr(delone, "_site_table", fraction_table._site_table)
        assert (dual_graph(S), delone_complex(S), sufficiently_generic(S)) == new


def test_bounded_regions_match_the_fraction_table():
    # random sets rarely have a bounded region; these windows' origins do
    L2, _ = lattice_points(LatticeWindow([H(2, -2, 0), H(-1, 2, -1)], 3))
    for S in [L2, a2_window(2)] + seeded_windows():
        new = region(S, 0)
        assert new.bounded
        assert new == fraction_table.region(S, 0)


@settings(max_examples=25, deadline=None)
@given(rational_site_sets(max_size=3))
def test_verify_lift_reports_like_the_fraction_table(S):
    assume(sufficiently_generic(S)[0])
    report = lift.verify_lift(S)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voronoi, "_site_table", fraction_table._site_table)
        mp.setattr(lift, "voronoi_diagram", fraction_table.voronoi_diagram)
        assert lift.verify_lift(S) == report


# ---------------------------------------------------------------------------
# cells grown from their parent label's pieces


def grown_cells_checked(S):
    """voronoi_diagram(S) with every probe checked against the search from
    all of H over the choices of every site of its label."""
    real = voronoi._cell
    table = _site_table(S, range(len(S)))[1]
    root = [((), _free(S.n))]

    def searched(label):
        return real(S.n, label, [c for s in label for c in table[s]], root)

    def checked(n, label, choices, seeds):
        got = real(n, label, choices, seeds)
        # the same pieces in the same order, the same closures, distinct
        # closures and dimension
        assert got == searched(label), label
        # grown by the last site's choices from the nonempty parent's pieces
        assert choices == table[label[-1]], label
        assert seeds and seeds == searched(label[:-1])[1], label
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voronoi, "_cell", checked)
        return voronoi_diagram(S)


@st.composite
def tied_site_sets(draw):
    """2 to 6 distinct sites in n = 3 or 4 with coordinates in a small range
    of halves and thirds, so that sites often share a coordinate and the
    diagram is often not in general position."""
    n = draw(st.integers(3, 4))
    coord = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    heads = draw(st.lists(st.tuples(*[coord] * (n - 1)), min_size=2, max_size=6, unique=True))
    return SiteSet([H(*r, -sum(r)) for r in heads])


A2R1, _ = lattice_points(LatticeWindow([H(1, -1, 0), H(0, 1, -1)], 1))
# i (2, -2, 0) + j (-1, 2, -1) for the origin and its four neighbours (i, j)
PLUS_BLOCK = sites((0, 0, 0), (2, -2, 0), (-2, 2, 0), (-1, 2, -1), (1, -2, 1))


@settings(max_examples=120, deadline=None)
@given(tied_site_sets())
@example(A2R1)
@example(PLUS_BLOCK)
@example(sites((1, -1, 0), (0, 1, -1), (-1, 0, 1)))  # in general position
def test_grown_cells_equal_the_search_from_all_of_h(S):
    d = grown_cells_checked(S)
    # containment read on distinct closures gives the walk over every copy
    old = cell_walk.voronoi_diagram(S)
    assert d.cells == old.cells
    assert diagram_to_json(d) == diagram_to_json(old)


def test_a2_diagram_closes_fewer_edges_than_per_label_cells(monkeypatch):
    calls = [0]
    real_tighten, real_cell = voronoi._tighten, voronoi._cell

    def counted(*args):
        calls[0] += 1
        return real_tighten(*args)

    probed = []

    def recorded(n, label, choices, seeds):
        probed.append(label)
        return real_cell(n, label, choices, seeds)

    monkeypatch.setattr(voronoi, "_tighten", counted)
    monkeypatch.setattr(voronoi, "_cell", recorded)
    voronoi_diagram(A2R1)
    grown = calls[0]

    monkeypatch.setattr(voronoi, "_cell", real_cell)
    choices = _site_table(A2R1, range(len(A2R1)))[1]
    calls[0] = 0
    for label in probed:
        cell_walk.searched_cell(A2R1.n, label, choices)
    per_label = calls[0]
    # 22,164 against 62,826 when this was written
    assert 0 < grown < per_label


def test_a2_diagram_dedupes_each_cell_once(monkeypatch):
    counts = {"_cell": 0, "_distinct": 0}

    def counted(name):
        real = getattr(voronoi, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(voronoi, name, wrapper)

    counted("_cell")
    counted("_distinct")
    voronoi_diagram(A2R1)
    # containment reads the distinct closures each probe already has: 81
    # probes, against 141 dedupes when containment deduped again
    assert counts["_cell"] == counts["_distinct"] == 81
