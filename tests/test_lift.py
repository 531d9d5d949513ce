"""Monomial lifts, power halfspaces and regions, generator enumeration over
the field, the lifted poset, and the correspondence checker."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cell_walk
import pool_checker
from tropvor import delone, lift, voronoi
from tropvor._lp import ThresholdLedger, zp_mul, zp_neg
from tropvor.exactnum import RF_ONE, RF_ZERO, RatFun, clear_ratfun_row, ratfun_of_zpoly, valstar
from tropvor.lift import (
    OFHalfspace,
    OFPolyhedron,
    OFVector,
    _primitive,
    instantiate_lifts,
    lift_valstar,
    monomial_lift,
    of_polyhedron_generators,
    power_diagram_poset,
    power_diagram_to_json,
    power_halfspace,
    power_region,
    verify_lift,
)
from tropvor.sites import SiteSet, check_general_position
from tropvor.tropcore import HPoint, halfspace_contains, halfspace_from_pair, normalize_to_H
from tropvor.voronoi import diagram_to_json, region, region_contains, voronoi_diagram

T = RatFun.t_power(1)


def H(*cs):
    return HPoint([Fraction(c) for c in cs])


def sites(*rows):
    return SiteSet([H(*r) for r in rows])


def tp(k: int) -> RatFun:
    return RatFun.t_power(k)


def vec(*coords) -> OFVector:
    return OFVector(list(coords))


# ---------------------------------------------------------------------------
# monomial lifts

def test_monomial_lift_direct_substitution():
    assert monomial_lift(H(1, -1, 0)).coords == (tp(-1), tp(1), RF_ONE)


def test_monomial_lift_origin():
    assert monomial_lift(H(0, 0, 0)).coords == (RF_ONE, RF_ONE, RF_ONE)


def test_monomial_lift_half_integer_needs_scale():
    s = H(Fraction(1, 2), Fraction(-1, 2), 0)
    with pytest.raises(ValueError, match="non-integral after scaling"):
        monomial_lift(s)
    v = monomial_lift(s, scale=2)
    assert v.coords == (tp(-1), tp(1), RF_ONE)
    assert v.scale == 2
    assert lift_valstar(v) == (Fraction(-1, 2), Fraction(1, 2), Fraction(0))


def test_monomial_lift_valstar_negates_site():
    s = H(3, -5, 2)
    assert lift_valstar(monomial_lift(s)) == (-3, 5, -2)


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5))
@settings(max_examples=80, deadline=None)
def test_monomial_lift_product_one(raw):
    s = normalize_to_H([Fraction(c) for c in raw])
    scale = lcm(*(c.denominator for c in s.coords))
    prod = RF_ONE
    for c in monomial_lift(s, scale).coords:
        prod = prod * c
    assert prod == RF_ONE


# ---------------------------------------------------------------------------
# power halfspaces

def test_power_halfspace_field_algebra():
    a = vec(RF_ONE, RF_ONE, RF_ONE)
    b = vec(tp(-1), tp(1), RF_ONE)
    h = power_halfspace(a, b)
    assert h.coefficients.coords == (RF_ONE - tp(-1), RF_ONE - tp(1), RF_ZERO)
    assert h.offset == RF_ZERO


def test_power_halfspace_coincident_rejected():
    a = vec(RF_ONE, tp(2), tp(-2))
    with pytest.raises(ValueError, match="coincident lifts"):
        power_halfspace(a, a)


def test_power_halfspace_scale_mismatch_rejected():
    a = monomial_lift(H(1, -1, 0), scale=1)
    b = monomial_lift(H(1, -1, 0), scale=2)
    with pytest.raises(ValueError, match="scales"):
        power_halfspace(a, b)


def _lifted_membership(h: OFHalfspace, x) -> bool:
    acc = h.offset
    for c, xi in zip(h.coefficients.coords, x):
        acc = acc + c * xi
    return acc.sign() <= 0


def _tropical_tie(h, x: HPoint) -> bool:
    left = max(ci + x[i] for i, ci in zip(h.I, h.c))
    right = max(dj + x[j] for j, dj in zip(h.J, h.d))
    return left == right


def test_power_halfspace_valuation_image_matches_tropical():
    # 50 monomial points: membership of t^p in the lifted halfspace agrees
    # with membership of p in h(a, b); on the tropical boundary the monomial
    # fiber straddles the lifted hyperplane, so ties are skipped
    a, b = H(-6, -5, 11), H(-5, 12, -7)
    hf = power_halfspace(monomial_lift(a), monomial_lift(b))
    ht = halfspace_from_pair(a, b)
    rng = random.Random(31)
    checked = 0
    while checked < 50:
        p = [rng.randint(-8, 8) for _ in range(2)]
        p.append(-sum(p))
        if _tropical_tie(ht, H(*p)):
            continue
        lifted = _lifted_membership(hf, [tp(c) for c in p])
        tropical = halfspace_contains(ht, H(*p))
        assert lifted == tropical, p
        checked += 1


# ---------------------------------------------------------------------------
# power regions

def test_power_region_two_lifts():
    lifts = [monomial_lift(s) for s in sites((0, 0, 0), (1, -2, 1))]
    P = power_region(lifts, 0)
    assert len(P.halfspaces) == 1
    assert P.include_orthant


def test_power_region_single_lift_is_orthant():
    P = power_region([monomial_lift(H(0, 0, 0))], 0)
    assert P.halfspaces == ()
    assert P.include_orthant


def test_power_region_samples_map_into_tropical_region():
    S = sites((0, 0, 0), (1, -1, 0), (0, 1, -1), (-1, 0, 1))
    lifts = [monomial_lift(s) for s in S]
    rng = random.Random(5)
    for a in range(len(S)):
        P = power_region(lifts, a)
        verts, rays = of_polyhedron_generators(P)
        r = region(S, a)
        checked = 0
        while checked < 25:
            x = [RF_ZERO] * 3
            for ray in rays:
                w = rng.randint(0, 4)
                x = [xi + w * c for xi, c in zip(x, ray.coords)]
            if any(c.sign() <= 0 for c in x):
                continue
            vals = [valstar(c) for c in x]
            assert region_contains(r, normalize_to_H(vals))
            checked += 1


# ---------------------------------------------------------------------------
# generator enumeration

def test_generators_orthant():
    verts, rays = of_polyhedron_generators(OFPolyhedron(2, ()))
    assert [v.coords for v in verts] == [(RF_ZERO, RF_ZERO)]
    assert [r.coords for r in rays] == [(RF_ZERO, RF_ONE), (RF_ONE, RF_ZERO)]


def test_generators_parametric_cone():
    # {x >= 0, x1 <= t x2}: extreme rays (0,1) and (t,1)
    P = OFPolyhedron(2, (OFHalfspace(vec(RF_ONE, -T)),))
    verts, rays = of_polyhedron_generators(P)
    assert [v.coords for v in verts] == [(RF_ZERO, RF_ZERO)]
    assert [r.coords for r in rays] == [(RF_ZERO, RF_ONE), (T, RF_ONE)]


def primitive_through_the_field(d):
    """Reference ray representative: divide by the last nonzero coordinate as
    rational functions, clear the denominators, remove the integer content,
    and undo the flip that a negative last coordinate causes."""
    rf = [ratfun_of_zpoly(p) for p in d]
    last = max(i for i, c in enumerate(rf) if not c.is_zero())
    polys = clear_ratfun_row([c / rf[last] for c in rf])
    g = gcd(*(co for p in polys for co in p.values()))
    can = tuple(ratfun_of_zpoly({e: co // g for e, co in p.items()}) for p in polys)
    if rf[last].sign() < 0:
        can = tuple(-c for c in can)
    return can


small_zpolys = st.lists(st.integers(-6, 6), max_size=3).map(
    lambda cs: {e: c for e, c in enumerate(cs) if c}
)
# t, t^2, t - 1 and t + 1
shared_factors = st.sampled_from([{1: 1}, {2: 1}, {0: -1, 1: 1}, {0: 1, 1: 1}])


@st.composite
def ray_directions(draw):
    n = draw(st.integers(2, 5))
    d = [draw(small_zpolys) for _ in range(n)]
    for f in draw(st.lists(shared_factors, max_size=3)):
        for i in draw(st.sets(st.integers(0, n - 1), min_size=2)):
            d[i] = zp_mul(d[i], f)
    if draw(st.booleans()):
        d[-1] = zp_neg(d[-1])
    return d


@given(ray_directions())
@settings(max_examples=400, deadline=None)
def test_primitive_matches_the_field_route(d):
    if not any(d):
        return
    assert _primitive(d) == primitive_through_the_field(d)


def test_primitive_keeps_the_orientation_off_the_orthant():
    # last coordinate negative: the representative stays a positive multiple
    # of d instead of scaling the last coordinate to +1
    d = [{0: 2, 1: 2}, {}, {0: -4}]
    assert _primitive(d) == (RatFun((1, 1)), RF_ZERO, RatFun.from_rat(-2))
    assert _primitive(d) == primitive_through_the_field(d)


def test_generators_size_caps():
    many = tuple(OFHalfspace(vec(RF_ONE, RF_ONE)) for _ in range(21))
    with pytest.raises(ValueError, match="size cap exceeded"):
        of_polyhedron_generators(OFPolyhedron(2, many))
    wide = OFPolyhedron(6, (OFHalfspace(OFVector([RF_ONE] * 6)),))
    with pytest.raises(ValueError, match="size cap exceeded"):
        of_polyhedron_generators(wide)


# ---------------------------------------------------------------------------
# the lifted poset

def test_poset_single_lift():
    d = power_diagram_poset([monomial_lift(H(0, 0, 0))])
    assert power_diagram_to_json(d) == {"cells": [{"T": [0], "dim": 3}], "order": []}


def test_poset_two_generic_lifts():
    lifts = [monomial_lift(s) for s in sites((0, 0, 0), (1, -2, 1))]
    d = power_diagram_poset(lifts)
    assert [c.label for c in d.cells] == [(0,), (1,), (0, 1)]
    assert [c.dim for c in d.cells] == [3, 3, 2]
    assert d.order == ((2, 0), (2, 1))


def test_poset_matches_tropical_diagram_on_cyclic_sites():
    S = sites((1, -1, 0), (0, 1, -1), (-1, 0, 1))
    lifted = power_diagram_poset([monomial_lift(s) for s in S])
    trop = voronoi_diagram(S)
    assert [c.label for c in lifted.cells] == [c.label for c in trop.cells]
    assert lifted.order == trop.order
    # field dimensions sit one above the tropical ones (the extra ray of the cone)
    assert [c.dim for c in lifted.cells] == [c.dim + 1 for c in trop.cells]


def test_poset_non_general_position_keeps_field_cells():
    # over the field the pair cell of sites 1 and 2 is not swallowed by
    # region 0, unlike its tropical image; frozen from the computation
    S = sites((0, 0, 0), (1, -1, 0), (0, 1, -1))
    lifted = power_diagram_poset([monomial_lift(s) for s in S])
    assert [c.label for c in lifted.cells] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
    ]
    trop = voronoi_diagram(S)
    assert [c.label for c in trop.cells] == [
        (0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2),
    ]


def test_poset_cap():
    lifts = [monomial_lift(H(k, 0, -k)) for k in range(13)]
    with pytest.raises(ValueError, match="size cap exceeded"):
        power_diagram_poset(lifts)


def test_poset_instantiation_reproduces_bytes():
    S = sites((1, -1, 0), (0, 1, -1), (-1, 0, 1))
    lifts = [monomial_lift(s) for s in S]
    ledger = ThresholdLedger()
    symbolic = power_diagram_poset(lifts, ledger=ledger)
    t0 = ledger.t0()
    numeric = power_diagram_poset(instantiate_lifts(lifts, t0))
    sym = json.dumps(power_diagram_to_json(symbolic), sort_keys=True)
    num = json.dumps(power_diagram_to_json(numeric), sort_keys=True)
    assert sym == num


# ---------------------------------------------------------------------------
# the correspondence checker

def test_verify_lift_two_sites():
    rep = verify_lift(sites((0, 0, 0), (1, -2, 1)))
    assert rep["isomorphic"]
    assert rep["cells_tropical"] == 3
    assert rep["cells_lifted"] == 3
    assert rep["failures"] == []
    assert rep["containment_samples"] > 0


def random_gp_sites(rng, n, count):
    while True:
        rows = []
        for _ in range(count):
            num = [Fraction(rng.randint(-8, 8), rng.choice((1, 2))) for _ in range(n - 1)]
            num.append(-sum(num))
            rows.append(tuple(num))
        S = SiteSet([HPoint(r) for r in rows])
        if check_general_position(S)[0]:
            return S


def test_verify_lift_random_general_position():
    rng = random.Random(97)
    S = random_gp_sites(rng, 3, 4)
    rep = verify_lift(S)
    assert rep["isomorphic"], rep
    assert rep["failures"] == []


# Three trios of the acceptance suite's lift mix, with the ledger bound, sign
# query count and sample count of their certificates.  The bound must not
# move; fewer sign queries for the same bound are fine.
CERTIFIED_TRIOS = [
    (((-8, -7, 15), (6, 7, -13), (-9, -8, 17)), 5, 1026, 14),
    (((6, 9, -15), ("-5/2", 2, "1/2"), (10, 12, -22)), 5, 1235, 14),
    ((("7/2", -12, "17/2"), (-5, -4, 9), (-2, 4, -2)), 7, 1287, 15),
]


@pytest.mark.parametrize("rows, bound, queries, samples", CERTIFIED_TRIOS)
def test_verify_lift_certificate_is_pinned(rows, bound, queries, samples):
    ledger = ThresholdLedger()
    rep = verify_lift(sites(*rows), ledger)
    assert rep["isomorphic"] and rep["failures"] == []
    assert ledger.bound == bound
    assert ledger.queries <= queries
    assert rep["containment_samples"] == samples


def test_certified_trio_generators_are_pinned():
    # vertices and rays of every power region, in order, recorded before the
    # ray normalisation moved from the field to Z[t]; each coordinate is the
    # coefficient list of an integer polynomial
    path = Path(__file__).parent / "data" / "certified_trio_generators.json"
    golden = json.loads(path.read_text())
    for (rows, *_), expected in zip(CERTIFIED_TRIOS, golden, strict=True):
        S = sites(*rows)
        scale = lcm(*(c.denominator for s in S for c in s.coords))
        lifts = [monomial_lift(s, scale) for s in S]
        for a, want in enumerate(expected):
            verts, rays = of_polyhedron_generators(power_region(lifts, a))
            for got, pinned in ((verts, want["vertices"]), (rays, want["rays"])):
                assert [v.coords for v in got] == [tuple(RatFun(c) for c in v) for v in pinned]


def test_verify_lift_canonical_relabelling_on_both_sides():
    # sites 0 and 1 share a coordinate, so both diagrams take the
    # non-general-position path that canonicalises labels, yet the set is
    # sufficiently generic
    S = sites((3, -6, 3), (3, 4, -7), (5, -1, -4))
    assert not check_general_position(S)[0]
    rep = verify_lift(S)
    assert rep["isomorphic"]
    assert rep["failures"] == []
    assert rep["cells_tropical"] == rep["cells_lifted"] == 5


def test_verify_lift_builds_no_regions(monkeypatch):
    # images are tested against the site table's halfspaces, never through
    # a region with its redundancy searches and extreme points
    assert not hasattr(lift, "region") and not hasattr(lift, "region_contains")

    def refuse(*args):
        raise AssertionError("verify_lift built a region")

    monkeypatch.setattr(voronoi, "region", refuse)
    for S in (sites(*CERTIFIED_TRIOS[0][0]), sites((3, -6, 3), (3, 4, -7), (5, -1, -4))):
        rep = verify_lift(S)
        assert rep["isomorphic"] and rep["failures"] == []


def test_verify_lift_rejects_degenerate_pair():
    with pytest.raises(ValueError, match="precondition: genericity"):
        verify_lift(sites((-5, -5, 10), (-5, 10, -5)))


def _report_or_error(check, S, seed):
    try:
        rep = check(S, rng=None if seed is None else random.Random(seed))
    except ValueError as exc:
        return ("ValueError", str(exc))
    return json.dumps(rep, sort_keys=True)


@st.composite
def small_site_sets(draw):
    # half-integers from a small range: some pairs share a coordinate, so
    # both the general-position and the sufficiently-generic path run, and
    # the precondition fails on some sets
    n = draw(st.integers(3, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(-8, 8), min_size=n - 1, max_size=n - 1).map(
                lambda r: tuple(Fraction(c, 2) for c in r)
            ),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    return SiteSet([HPoint(r + (-sum(r),)) for r in rows])


@given(small_site_sets())
@example(sites((0, 0, 0), (1, -1, 0), (0, 1, -1)))  # the field keeps a pair cell
@example(sites((3, -6, 3), (3, 4, -7), (5, -1, -4)))  # shares a coordinate, yet generic
@settings(max_examples=40, deadline=None)
def test_label_walk_matches_the_cell_walk(S):
    new, old = voronoi_diagram(S), cell_walk.voronoi_diagram(S)
    assert new.cells == old.cells  # labels, dimensions and pieces
    assert diagram_to_json(new) == diagram_to_json(old)

    scale = lcm(*(c.denominator for s in S for c in s.coords))
    lifts = [monomial_lift(s, scale) for s in S]
    ledgers = ThresholdLedger(), ThresholdLedger()
    posets = [
        power_diagram_to_json(walk(lifts, ledger))
        for walk, ledger in zip((power_diagram_poset, cell_walk.power_diagram_poset), ledgers)
    ]
    assert posets[0] == posets[1]
    assert (ledgers[0].bound, ledgers[0].queries) == (ledgers[1].bound, ledgers[1].queries)

    # hull complexes take integer sites, and only a non-generic set walks
    Z = SiteSet([HPoint([scale * c for c in s.coords]) for s in S])
    facets = delone.hull_complex(Z).facets
    with patch.object(delone, "_power_walk", cell_walk.power_walk):
        assert facets == delone.hull_complex(Z).facets


@given(small_site_sets(), st.none() | st.integers(0, 2**16))
@example(sites((3, -6, 3), (3, 4, -7), (5, -1, -4)), 5)  # shares a coordinate, yet generic
@example(sites((-5, -5, 10), (-5, 10, -5)), None)  # not sufficiently generic
@settings(max_examples=40, deadline=None)
def test_verify_lift_matches_the_sampling_checker(S, seed):
    assert _report_or_error(verify_lift, S, seed) == _report_or_error(
        pool_checker.verify_lift, S, seed
    )


@pytest.mark.parametrize("seed", [None, 3])
def test_forced_escapes_match_the_sampling_checker(monkeypatch, seed):
    # every sample and every ray escapes: the failure lists must agree in
    # order and repetition, one sample line per counted pool member
    # lift tests every image with _contains_extended alone
    monkeypatch.setattr(pool_checker, "region_contains", lambda r, pt: False)
    for module in (lift, pool_checker):
        monkeypatch.setattr(module, "_contains_extended", lambda h, vals: False)
    S = sites(*CERTIFIED_TRIOS[0][0])
    got = _report_or_error(verify_lift, S, seed)
    assert got == _report_or_error(pool_checker.verify_lift, S, seed)
    report = json.loads(got)
    assert report["containment_samples"] > 0
    assert any(f.startswith("sample of region") for f in report["failures"])


# ---------------------------------------------------------------------------
# field-side invariants

coeffs = st.lists(st.integers(-5, 5), min_size=1, max_size=3)


@st.composite
def ofvectors(draw, n=3):
    out = []
    for _ in range(n):
        num = draw(coeffs)
        den = draw(coeffs.filter(lambda c: any(x != 0 for x in c)))
        out.append(RatFun(num, den))
    return OFVector(out)


@given(ofvectors(), ofvectors(), ofvectors())
@settings(max_examples=60, deadline=None)
def test_weight_cancellation_identity(x, a, b):
    # ||x-a||^2 - ||a||^2 - (||x-b||^2 - ||b||^2) == 2 sum (b_i - a_i) x_i
    def sq(v):
        acc = RF_ZERO
        for c in v:
            acc = acc + c * c
        return acc

    xa = [xi - ai for xi, ai in zip(x.coords, a.coords)]
    xb = [xi - bi for xi, bi in zip(x.coords, b.coords)]
    lhs = sq(xa) - sq(a.coords) - (sq(xb) - sq(b.coords))
    rhs = RF_ZERO
    for xi, ai, bi in zip(x.coords, a.coords, b.coords):
        rhs = rhs + 2 * (bi - ai) * xi
    assert lhs == rhs


def test_tropicalization_soundness_on_samples():
    # one direction of the lift correspondence: lifted membership of a
    # positive vector implies tropical membership of its valuation image
    rng = random.Random(11)
    for _ in range(10):
        S = random_gp_sites(rng, 3, 2)
        hf = power_halfspace(monomial_lift(S[0], 2), monomial_lift(S[1], 2))
        ht = halfspace_from_pair(S[0], S[1])
        for _ in range(20):
            p = [rng.randint(-6, 6) for _ in range(2)]
            p.append(-sum(p))
            x = [tp(2 * c) for c in p]
            if _lifted_membership(hf, x):
                vals = [valstar(c, 2) for c in x]
                assert halfspace_contains(ht, normalize_to_H(vals))
