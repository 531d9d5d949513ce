"""Ordered-field arithmetic: examples with hand-computed values, then the
field axioms and valuation laws on random samples."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_ratfun import DenseRatFun, dense_sign_threshold, pdivmod, pfrom, pgcd, pmul, pscale
from tropvor.exactnum import (
    PoleError,
    clear_ratfun_row,
    RatFun,
    RF_ONE,
    RF_ZERO,
    SingularSystemError,
    of_compare,
    of_eval_at,
    of_solve_linear,
    rat_from_str,
    rat_to_str,
    ratfun_from_json,
    ratfun_to_json,
    sign_threshold,
    valstar,
)

T = RatFun.t_power(1)


def rf(num, den=(1,)) -> RatFun:
    return RatFun(num, den)


def test_compare_monomial_beats_constant():
    assert of_compare(T, RatFun.from_rat(1000)) == 1


def test_compare_positive_infinitesimal():
    assert of_compare(RatFun.t_power(-1), RF_ZERO) == 1


def test_compare_equal_after_reduction():
    # (t^2 - 1)/(t - 1) reduces to t + 1
    f = rf((-1, 0, 1), (-1, 1))
    g = rf((1, 1))
    assert of_compare(f, g) == 0
    assert f == g


def test_valstar_polynomial():
    assert valstar(rf((0, 3, 1))) == 2


def test_valstar_constant_is_zero():
    assert valstar(RF_ONE) == 0


def test_valstar_degree_difference():
    assert valstar(rf((1, 1), (0, 0, 0, 1))) == -2


def test_valstar_zero_is_minus_infinity():
    assert valstar(RF_ZERO) is None


def test_valstar_scale_divides():
    assert valstar(rf((0, 0, 0, 1)), scale=2) == Fraction(3, 2)


def test_eval_exact_value():
    f = rf((1, 0, 1), (0, 1))  # (t^2+1)/t
    value, tau = of_eval_at(f, Fraction(10))
    assert value == Fraction(101, 10)


def test_eval_sign_matches_field_sign_beyond_threshold():
    f = rf((-5, 1))  # t - 5
    tau = sign_threshold(f)
    assert tau >= 5  # threshold covers the root at 5
    value, reported = of_eval_at(f, tau + 1)
    assert value > 0 and f.sign() == 1
    assert reported == tau


def test_eval_at_pole_rejected():
    with pytest.raises(PoleError):
        of_eval_at(RatFun.t_power(-1), Fraction(0))


def test_solve_single_equation():
    assert of_solve_linear([[T]], [T * T]) == [T]


def test_solve_identity():
    sol = of_solve_linear([[RF_ONE, RF_ZERO], [RF_ZERO, RF_ONE]], [RF_ONE, T])
    assert sol == [RF_ONE, T]


def test_solve_singular_reports_rank():
    with pytest.raises(SingularSystemError) as err:
        of_solve_linear([[RF_ONE, RF_ONE], [RF_ONE, RF_ONE]], [RF_ZERO, RF_ONE])
    assert err.value.rank == 1


def test_rat_round_trip():
    assert rat_to_str(Fraction(-3, 7)) == "-3/7"
    assert rat_from_str("-3/7") == Fraction(-3, 7)
    assert rat_to_str(Fraction(5)) == "5"


def test_ratfun_json_round_trip():
    f = rf((1, Fraction(1, 2)), (0, 1))
    assert ratfun_from_json(ratfun_to_json(f)) == f


# ---------------------------------------------------------------------------
# property tests

coeffs = st.lists(st.integers(-9, 9), min_size=0, max_size=4)


@st.composite
def ratfuns(draw):
    num = draw(coeffs)
    den = draw(coeffs.filter(lambda c: any(x != 0 for x in c)))
    return RatFun(num, den)


@given(ratfuns(), ratfuns(), ratfuns())
@settings(max_examples=150, deadline=None)
def test_field_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f - f == RF_ZERO
    if not g.is_zero():
        assert (f / g) * g == f


@given(ratfuns(), ratfuns(), ratfuns())
@settings(max_examples=150, deadline=None)
def test_order_compatible_with_multiplication(f, g, h):
    if f > g and h > RF_ZERO:
        assert f * h > g * h


@given(ratfuns(), ratfuns())
@settings(max_examples=150, deadline=None)
def test_valstar_is_a_valuation(f, g):
    if f.is_zero() or g.is_zero():
        return
    assert valstar(f * g) == valstar(f) + valstar(g)
    s = f + g
    if not s.is_zero():
        assert valstar(s) <= max(valstar(f), valstar(g))
        if valstar(f) != valstar(g):
            assert valstar(s) == max(valstar(f), valstar(g))


@given(ratfuns(), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_sign_stable_beyond_threshold(f, bump):
    t0 = sign_threshold(f) + 1 + bump
    value, _ = of_eval_at(f, t0)
    assert (value > 0) == (f.sign() > 0)
    assert (value < 0) == (f.sign() < 0)


# ---------------------------------------------------------------------------
# monomial denominators, against the general reduction

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
monomial_dens = st.tuples(st.integers(0, 5), fracs.filter(lambda c: c != 0)).map(
    lambda kc: [0] * kc[0] + [kc[1]]
)


def reduce_by_gcd(num, den):
    """Reference normal form: divide by the Euclidean gcd, then make the
    denominator monic."""
    num, den = pfrom(num), pfrom(den)
    if not num:
        return (), (Fraction(1),)
    g = pgcd(num, den)
    num, den = pdivmod(num, g)[0], pdivmod(den, g)[0]
    return pscale(num, 1 / den[-1]), pscale(den, 1 / den[-1])


@given(st.lists(fracs, max_size=6), monomial_dens)
@settings(max_examples=300, deadline=None)
def test_monomial_denominator_matches_the_gcd_reduction(num, den):
    f = RatFun(num, den)
    assert (f.num, f.den) == reduce_by_gcd(num, den)


def clear_by_denominator_product(values):
    """Reference clearing: multiply every entry by the product of all the
    denominators, then by the lcm of the coefficient denominators."""
    full = (Fraction(1),)
    for v in values:
        full = pmul(full, v.den)
    cleared = []
    for v in values:
        q, r = pdivmod(pmul(v.num, full), v.den)
        assert r == ()
        cleared.append(q)
    m = lcm(*(co.denominator for c in cleared for co in c))
    return tuple({e: int(co * m) for e, co in enumerate(c) if co} for c in cleared)


general_dens = st.lists(fracs, min_size=1, max_size=4).filter(any)


@given(
    st.lists(
        st.tuples(st.lists(fracs, max_size=5), monomial_dens | general_dens),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=200, deadline=None)
def test_clear_monomial_row_matches_the_denominator_product(entries):
    # monomial denominators c t^k and general ones share one clearing path
    values = [RatFun(num, den) for num, den in entries]
    assert clear_ratfun_row(values) == clear_by_denominator_product(values)


# ---------------------------------------------------------------------------
# the integer-polynomial field against the dense Fraction reference

def dense_view(f):
    return (f.num, f.den, ratfun_to_json(f), f.sign(), sign_threshold(f))


def reference_view(r):
    return (r.num, r.den, ratfun_to_json(r), r.sign(), dense_sign_threshold(r))


@given(st.tuples(st.lists(fracs, max_size=5), general_dens), st.tuples(st.lists(fracs, max_size=5), general_dens))
@settings(max_examples=200, deadline=None)
def test_ratfun_matches_the_dense_fraction_reference(a, b):
    f, g = RatFun(*a), RatFun(*b)
    rf_, rg = DenseRatFun(*a), DenseRatFun(*b)
    assert dense_view(f) == reference_view(rf_)
    assert repr(f) == f"RatFun({list(rf_.num)!r}, {list(rf_.den)!r})"
    pairs = [(f + g, rf_ + rg), (f - g, rf_ - rg), (f * g, rf_ * rg)]
    if not g.is_zero():
        pairs.append((f / g, rf_ / rg))
    for got, want in pairs:
        assert dense_view(got) == reference_view(want)
    # the order, which sorting rays and points relies on, against the sign
    # of the reference difference; equal values must tie
    for x, y, rx, ry in ((f, g, rf_, rg), (g, f, rg, rf_), (f, f, rf_, rf_)):
        s = (rx - ry).sign()
        assert (x < y, x <= y, x > y, x >= y, of_compare(x, y)) == (s < 0, s <= 0, s > 0, s >= 0, s)
    # one canonical form: the same value by another route is equal and
    # hashes equal, so sets of rays and points deduplicate
    again = RatFun(list(f.num), list(f.den)) if g.is_zero() else (f * g) / g
    assert again == f and hash(again) == hash(f)
    assert len({f, again, f + g - g}) == 1
