"""Site-set predicates, signature reduction, and lattice windows."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_lattice
from tropvor.sites import (
    LatticeWindow,
    SiteSet,
    check_general_position,
    lattice_from_json,
    lattice_points,
    lattice_to_json,
    nondominated,
    signature_reduce,
    sites_from_json,
    sites_to_json,
)
from tropvor.tropcore import (
    HPoint,
    asym_distance,
    halfspace_contains,
    halfspace_from_pair,
)


def H(*cs):
    return HPoint(list(cs))


def test_general_position():
    ok, witness = check_general_position(SiteSet([H(-6, -5, 11), H(-5, 12, -7)]))
    assert ok and witness is None
    ok, witness = check_general_position(SiteSet([H(-5, -5, 10), H(-5, 10, -5)]))
    assert not ok
    a, b, k = witness
    assert k == 0
    assert a[0] == b[0] == -5
    ok, witness = check_general_position(SiteSet([H(1, -1, 0)]))
    assert ok


def test_nondominated_examples():
    assert nondominated([(1, 3), (2, 2), (3, 1)]) == [(1, 3), (2, 2), (3, 1)]
    assert nondominated([(1, 1), (2, 2)]) == [(2, 2)]
    g = [(5, 1), (Fraction(5, 2), 2), (Fraction(5, 3), 3)]
    assert nondominated(g) == g
    assert nondominated([]) == []


def test_nondominated_duplicates_collapse():
    assert nondominated([(1, 1), (1, 1)]) == [(1, 1)]
    assert nondominated([(2, 0), (1, 1), (2, 0)]) == [(2, 0), (1, 1)]


def test_signature_reduce_examples():
    S = SiteSet(
        [
            H(0, 0, 0),
            H(6, -5, -1),
            H(Fraction(9, 2), Fraction(-5, 2), -2),
            H(Fraction(14, 3), Fraction(-5, 3), -3),
        ]
    )
    assert signature_reduce(S, 0) == [1, 2, 3]

    S2 = SiteSet([H(0, 0, 0), H(1, -1, 0), H(2, -2, 0)])
    assert signature_reduce(S2, 0) == [1]

    S3 = SiteSet([H(0, 0, 0), H(1, -1, 0)])
    assert signature_reduce(S3, 0) == [1]

    with pytest.raises(ValueError, match="out of range"):
        signature_reduce(S3, 2)


def test_siteset_rejects_duplicates_and_mixed_n():
    with pytest.raises(ValueError):
        SiteSet([H(1, -1, 0), H(1, -1, 0)])
    with pytest.raises(ValueError):
        SiteSet([H(1, -1, 0), H(1, -1)])


def test_sites_json_round_trip():
    S = SiteSet([H(0, 0, 0), H(Fraction(1, 2), Fraction(1, 2), -1)])
    data = sites_to_json(S)
    assert data["n"] == 3
    assert data["sites"][1] == ["1/2", "1/2", "-1"]
    S2 = sites_from_json(data)
    assert [p.coords for p in S2] == [p.coords for p in S]


def test_lattice_window_a2():
    L = LatticeWindow([H(1, -1, 0), H(0, 1, -1)], 2)
    S, report = lattice_points(L)
    assert len(S) == 19
    assert S[0].coords == (0, 0, 0)
    assert report.sufficient
    assert report.empty_cones == ()


def test_lattice_window_empty_basis():
    L = LatticeWindow([], 1, n=3)
    S, report = lattice_points(L)
    assert len(S) == 1
    assert S[0].coords == (0, 0, 0)
    assert not report.sufficient
    assert len(report.empty_cones) == 6


def test_lattice_window_invalid_basis():
    with pytest.raises(ValueError, match="invalid basis"):
        LatticeWindow([H(1, -1, 0), H(2, -2, 0)], 2)
    with pytest.raises(ValueError, match="invalid basis"):
        lattice_from_json({"n": 3, "basis": [["1", "0", "0"]], "radius": 1})
    with pytest.raises(ValueError):
        LatticeWindow([H(1, -1, 0)], 0)


def test_lattice_scale_and_json():
    L = LatticeWindow([H(Fraction(1, 2), Fraction(1, 2), -1)], 3)
    assert L.scale == 2
    data = lattice_to_json(L)
    L2 = lattice_from_json(data)
    assert L2.scale == 2
    assert L2.radius == 3
    assert [p.coords for p in L2.basis] == [p.coords for p in L.basis]


def test_json_readers_take_exact_integers_only():
    basis = [["2", "-2", "0"], ["-1", "2", "-1"]]
    one_site = [["1", "-1", "0"]]
    # floats and bools are not exact; a fraction is not an integer
    for bad, error in ((2.9, TypeError), (True, TypeError), ("5/2", ValueError)):
        with pytest.raises(error):
            lattice_from_json({"n": 3, "basis": basis, "radius": bad})
    for bad, error in ((3.5, TypeError), (3.0, TypeError), (True, TypeError), ("7/2", ValueError)):
        with pytest.raises(error):
            lattice_from_json({"n": bad, "basis": basis, "radius": 2})
        with pytest.raises(error):
            sites_from_json({"n": bad, "sites": one_site})
    # strings and ints are read alike
    L = lattice_from_json({"n": "3", "basis": basis, "radius": "2"})
    assert L == lattice_from_json({"n": 3, "basis": basis, "radius": 2})
    assert (L.n, L.radius) == (3, 2)
    assert sites_from_json({"n": "3", "sites": one_site}).n == 3
    assert sites_from_json({"n": 3, "sites": one_site}).n == 3


def test_lattice_points_are_deduplicated_and_sorted():
    L = LatticeWindow([H(1, -1, 0)], 2)
    S, report = lattice_points(L)
    assert [p.coords for p in S] == [
        (0, 0, 0),
        (-2, 2, 0),
        (-1, 1, 0),
        (1, -1, 0),
        (2, -2, 0),
    ]
    assert not report.sufficient


# ---------------------------------------------------------------------------
# randomized properties

vec2 = st.tuples(
    st.integers(min_value=-5, max_value=5), st.integers(min_value=-5, max_value=5)
)


@given(st.lists(vec2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_nondominated_idempotent_antichain(G):
    nd = nondominated(G)
    assert nondominated(nd) == nd
    ts = [tuple(Fraction(c) for c in v) for v in nd]
    for i, x in enumerate(ts):
        for j, y in enumerate(ts):
            if i != j:
                assert not all(a <= b for a, b in zip(x, y))


def _distinct_site_sets():
    coord = st.integers(min_value=-4, max_value=4)
    raw = st.lists(st.tuples(coord, coord), min_size=2, max_size=5)

    def build(rows):
        pts = []
        seen = set()
        for a, b in rows:
            c = (Fraction(a), Fraction(b), Fraction(-a - b))
            if c not in seen:
                seen.add(c)
                pts.append(HPoint(c))
        return SiteSet(pts) if len(pts) >= 2 else None

    return raw.map(build).filter(lambda s: s is not None)


@given(_distinct_site_sets())
@settings(max_examples=60, deadline=None)
def test_signature_reduce_preserves_the_region(S):
    T = signature_reduce(S, 0)
    assert T
    s = S[0]
    all_h = [halfspace_from_pair(s, S[b]) for b in range(1, len(S))]
    kept_h = [halfspace_from_pair(s, S[t]) for t in T]
    for x1 in range(-3, 4):
        for x2 in range(-3, 4):
            x = HPoint((Fraction(x1), Fraction(x2), Fraction(-x1 - x2)))
            full = all(halfspace_contains(h, x) for h in all_h)
            kept = all(halfspace_contains(h, x) for h in kept_h)
            byd = all(
                asym_distance(x, s) <= asym_distance(x, S[b])
                for b in range(1, len(S))
            )
            assert full == kept == byd


# ---------------------------------------------------------------------------
# the integer window search against the Fraction one


@st.composite
def _lattice_windows(draw):
    """A window of one or two independent basis vectors in n = 3 or 4, with
    coordinate denominators 1 to 3 and a radius 1 to 4.  Three vectors in
    n = 4 are left out: nearly dependent ones make the Fraction reference
    enumerate millions of combinations."""
    n = draw(st.integers(3, 4))
    coord = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    heads = draw(st.lists(st.tuples(*[coord] * (n - 1)), min_size=1, max_size=2))
    radius = draw(st.integers(1, 4))
    try:
        return LatticeWindow([H(*h, -sum(h)) for h in heads], radius)
    except ValueError:
        assume(False)


L2_BASIS = [H(2, -2, 0), H(-1, 2, -1)]
A2_BASIS = [H(1, -1, 0), H(0, 1, -1)]


@given(_lattice_windows())
@settings(max_examples=150, deadline=None)
@example(LatticeWindow(L2_BASIS, 3))
@example(LatticeWindow(A2_BASIS, 1))
@example(LatticeWindow(A2_BASIS, 2))
@example(LatticeWindow([H(Fraction(2, 3), Fraction(-1, 2), Fraction(-1, 6))], 2))  # scale 6
def test_integer_window_search_matches_the_fraction_reference(window):
    S, report = lattice_points(window)
    old_S, old_report = fraction_lattice.lattice_points(window)
    assert S.sites == old_S.sites
    assert report == old_report
