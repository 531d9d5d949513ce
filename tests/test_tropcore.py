"""Distance, halfspace, hull, and genericity primitives."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropvor.tropcore import (
    HPoint,
    SignMatrixPair,
    _in_tconv,
    asym_distance,
    halfspace_contains,
    halfspace_from_pair,
    halfspace_from_json,
    halfspace_to_json,
    hpoint_from_json,
    hpoint_to_json,
    normalize_to_H,
    sign_genericity,
    sign_matrix_pair,
    sym_distance,
    tconv_membership,
)


def H(*cs):
    return HPoint(list(cs))


def test_normalize():
    assert normalize_to_H([1, 2, 3]).coords == (-1, 0, 1)
    assert normalize_to_H([0, 0, 0]).coords == (0, 0, 0)
    assert normalize_to_H([5, 5]).coords == (0, 0)
    p = normalize_to_H([Fraction(1, 3), Fraction(2, 3), 0])
    assert normalize_to_H(p.coords).coords == p.coords


def test_hpoint_invariants():
    with pytest.raises(ValueError):
        HPoint([1, 0, 0])
    with pytest.raises(ValueError):
        HPoint([0])


def test_asym_distance_examples():
    assert asym_distance(H(0, 0, 0), H(1, -1, 0)) == 3
    a = H(-6, -5, 11)
    assert asym_distance(a, a) == 0
    b = H(-5, 12, -7)
    assert asym_distance(a, b) == 54
    assert asym_distance(b, a) == 51


def test_sym_distance_examples():
    assert sym_distance(H(0, 0, 0), H(1, -1, 0)) == 2
    a, b = H(-6, -5, 11), H(-5, 12, -7)
    assert sym_distance(a, a) == 0
    assert sym_distance(a, b) == 35
    assert sym_distance(a, b) == Fraction(
        asym_distance(a, b) + asym_distance(b, a), 3
    )


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        asym_distance(H(0, 0), H(1, -1, 0))
    with pytest.raises(ValueError):
        sym_distance(H(0, 0), H(1, -1, 0))


def test_halfspace_from_pair_three_term_tie():
    a, b = H(-6, -5, 11), H(-5, 12, -7)
    h = halfspace_from_pair(a, b)
    assert h.I == (0, 1)
    assert h.c == (6, 5)
    assert h.J == (2,)
    assert h.d == (7,)
    # the three terms tie at (0,1,-1)
    x = H(0, 1, -1)
    assert h.c[0] + x[0] == h.c[1] + x[1] == h.d[0] + x[2]


def test_halfspace_from_pair_simple():
    h = halfspace_from_pair(H(0, 0, 0), H(1, -1, 0))
    assert h.I == (0,)
    assert h.c == (0,)
    assert h.J == (1, 2)
    assert h.d == (1, 0)


def test_halfspace_tie_goes_right():
    c, d = H(-5, -5, 10), H(-5, 10, -5)
    h = halfspace_from_pair(c, d)
    assert h.I == (1,)
    assert h.c == (5,)
    assert h.J == (0, 2)
    assert h.d == (5, 5)


def test_halfspace_coincident_sites():
    with pytest.raises(ValueError, match="coincident"):
        halfspace_from_pair(H(1, -1, 0), H(1, -1, 0))


def test_halfspace_contains_examples():
    h = halfspace_from_pair(H(-6, -5, 11), H(-5, 12, -7))
    assert halfspace_contains(h, H(0, 0, 0))
    assert halfspace_contains(h, H(0, 1, -1))
    assert not halfspace_contains(h, H(2, -1, -1))


def test_tconv_membership_examples():
    v = H(1, -1, 0)
    assert tconv_membership(v, [v])
    # the segment between (1,-1,0) and (-1,1,0) is bent: it passes through
    # the corner (1,1,0) mod ones, which on H is (1/3,1/3,-2/3), and misses
    # the origin
    corner = H(Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))
    assert tconv_membership(corner, [H(1, -1, 0), H(-1, 1, 0)])
    assert not tconv_membership(H(0, 0, 0), [H(1, -1, 0), H(-1, 1, 0)])
    assert not tconv_membership(H(0, 1, -1), [H(1, -1, 0)])
    with pytest.raises(ValueError, match="empty"):
        tconv_membership(v, [])


def test_sign_genericity_examples():
    p = SignMatrixPair([[0, None, None]], [[None, 1, 0]])
    assert sign_genericity(p)
    assert not sign_genericity(SignMatrixPair([[0]], [[0]]))
    p3 = SignMatrixPair([[0, None], [None, 0]], [[None, -1], [-1, None]])
    assert sign_genericity(p3)


def test_sign_matrix_pair_construction():
    p = sign_matrix_pair(H(0, 0, 0), [H(1, -1, 0)])
    assert p.Aminus == ((0, None, None),)
    assert p.Aplus == ((None, 1, 0),)


def test_sign_genericity_rejects_large():
    row = [0] * 9
    with pytest.raises(ValueError, match="large"):
        sign_genericity(SignMatrixPair([row], [row]))


def test_json_round_trips():
    p = H(Fraction(1, 2), Fraction(1, 2), -1)
    assert hpoint_from_json(hpoint_to_json(p)).coords == p.coords
    h = halfspace_from_pair(H(-6, -5, 11), H(-5, 12, -7))
    h2 = halfspace_from_json(halfspace_to_json(h))
    assert h2 == h


# ---------------------------------------------------------------------------
# randomized identities

def _hpoints(n):
    coord = st.fractions(
        min_value=-8, max_value=8, max_denominator=4
    )
    return st.lists(coord, min_size=n, max_size=n).map(normalize_to_H)


dims = st.shared(st.integers(min_value=2, max_value=5), key="n")
pairs = dims.flatmap(lambda n: st.tuples(_hpoints(n), _hpoints(n)))
triples = dims.flatmap(lambda n: st.tuples(_hpoints(n), _hpoints(n), _hpoints(n)))


@given(pairs)
@settings(max_examples=150, deadline=None)
def test_asym_distance_positivity(ab):
    a, b = ab
    d = asym_distance(a, b)
    assert d >= 0
    assert (d == 0) == (a.coords == b.coords)


@given(triples)
@settings(max_examples=150, deadline=None)
def test_asym_distance_triangle(abc):
    a, b, c = abc
    assert asym_distance(a, c) <= asym_distance(a, b) + asym_distance(b, c)


@given(triples)
@settings(max_examples=100, deadline=None)
def test_asym_distance_translation_invariance(abv):
    a, b, v = abv
    assert asym_distance(a.translate(v), b.translate(v)) == asym_distance(a, b)


@given(pairs, st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4))
@settings(max_examples=100, deadline=None)
def test_asym_distance_homogeneity(ab, lam):
    a, b = ab
    assert asym_distance(a.scale(lam), b.scale(lam)) == lam * asym_distance(a, b)


@given(pairs)
@settings(max_examples=150, deadline=None)
def test_distance_identities(ab):
    a, b = ab
    d = sym_distance(a, b)
    fwd = asym_distance(a, b)
    assert d == Fraction(fwd + asym_distance(b, a), a.n)
    assert d <= fwd <= (a.n - 1) * d


@given(triples)
@settings(max_examples=150, deadline=None)
def test_halfspace_matches_distance_comparison(abx):
    a, b, x = abx
    if a.coords == b.coords:
        return
    h = halfspace_from_pair(a, b)
    assert halfspace_contains(h, x) == (asym_distance(x, a) <= asym_distance(x, b))


@given(triples)
@settings(max_examples=150, deadline=None)
def test_halfspace_pair_covers_everything(abx):
    a, b, x = abx
    if a.coords == b.coords:
        return
    assert halfspace_contains(halfspace_from_pair(a, b), x) or halfspace_contains(
        halfspace_from_pair(b, a), x
    )


@given(dims.flatmap(lambda n: st.tuples(_hpoints(n), st.lists(_hpoints(n), min_size=1, max_size=4))))
@settings(max_examples=100, deadline=None)
def test_generators_belong_to_their_hull(xv):
    _, V = xv
    for v in V:
        assert tconv_membership(v, V)


def normalised_membership(x, V):
    """The hull test as it read before: the projection normalised to H."""
    proj = [max(min(x[j] - v[j] for j in range(x.n)) + v[i] for v in V) for i in range(x.n)]
    return normalize_to_H(proj).coords == x.coords


@st.composite
def hull_queries(draw):
    """V and a point x, either a max-plus combination of V or drawn freely."""
    n = draw(st.integers(min_value=2, max_value=5))
    V = draw(st.lists(_hpoints(n), min_size=1, max_size=4))
    if draw(st.booleans()):
        lams = draw(st.lists(st.fractions(-8, 8, max_denominator=4), min_size=len(V), max_size=len(V)))
        x = normalize_to_H([max(lam + v[i] for lam, v in zip(lams, V)) for i in range(n)])
    else:
        x = draw(_hpoints(n))
    return x, V


@given(hull_queries())
@settings(max_examples=200, deadline=None)
def test_hull_test_needs_no_normalisation(xV):
    x, V = xV
    assert tconv_membership(x, V) == normalised_membership(x, V)


@st.composite
def integer_hull_queries(draw):
    """Integer rows x and V at a scale L, x often a max-plus combination of V,
    with a constant to add to each row and a positive factor."""
    n = draw(st.integers(min_value=2, max_value=5))
    row = st.lists(st.integers(-12, 12), min_size=n, max_size=n).map(tuple)
    V = draw(st.lists(row, min_size=1, max_size=4))
    if draw(st.booleans()):
        lams = draw(st.lists(st.integers(-8, 8), min_size=len(V), max_size=len(V)))
        x = tuple(max(lam + v[i] for lam, v in zip(lams, V)) for i in range(n))
    else:
        x = draw(row)
    shifts = draw(st.lists(st.integers(-20, 20), min_size=len(V) + 1, max_size=len(V) + 1))
    return x, V, draw(st.integers(1, 6)), shifts, draw(st.integers(1, 7))


@given(integer_hull_queries())
@settings(max_examples=200, deadline=None)
def test_integer_hull_test_agrees_with_tconv_membership(query):
    x, V, L, shifts, k = query
    answer = _in_tconv(x, V)

    def decode(u):
        return normalize_to_H([Fraction(c, L) for c in u])

    points = [decode(v) for v in V]
    assert answer == tconv_membership(decode(x), points) == normalised_membership(decode(x), points)
    moved = [tuple(c + t for c in u) for u, t in zip([x, *V], shifts)]
    assert _in_tconv(moved[0], moved[1:]) == answer
    assert _in_tconv(tuple(k * c for c in x), [tuple(k * c for c in v) for v in V]) == answer
