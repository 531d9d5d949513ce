"""Kernel tests: fraction-free simplex and elimination over both coefficient rings."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropvor._lp import (
    INFEASIBLE,
    INT_RING,
    OPTIMAL,
    POLY_RING,
    UNBOUNDED,
    PolyRing,
    SingularSystemError,
    ThresholdLedger,
    lp_affine_dim,
    lp_cramer,
    lp_det,
    lp_feasible,
    lp_rank,
    lp_solve,
    lp_strictly_feasible,
    zp_add,
    zp_cauchy,
    zp_content,
    zp_eval,
    zp_exact_div,
    zp_from_int,
    zp_gcd,
    zp_mul,
    zp_neg,
    zp_sign,
    zp_sub,
)
from dense_ratfun import pgcd, pscale
from full_tableau_lp import lp_solve as full_tableau_lp_solve
from tropvor.exactnum import clear_rat_row

R = INT_RING


def frac(pair):
    num, den = pair
    return Fraction(num, den)


def test_single_bound():
    res = lp_solve(1, [], [([1], 1)], [1], R)
    assert res.status == OPTIMAL
    assert frac(res.value) == 1
    assert frac(res.solution[0]) == 1


def test_infeasible_interval():
    # x <= -1 and x >= 2
    res = lp_solve(1, [], [([1], -1), ([-1], -2)], [1], R)
    assert res.status == INFEASIBLE
    assert lp_feasible(1, [], [([1], -1), ([-1], -2)], R) is None


def test_unbounded_ray():
    res = lp_solve(1, [], [([-1], 0)], [1], R)
    assert res.status == UNBOUNDED


def test_equalities_pin_the_point():
    eqs = [([1, 1], 2), ([1, -1], 0)]
    res = lp_solve(2, eqs, [], [1, 0], R)
    assert res.status == OPTIMAL
    assert frac(res.solution[0]) == 1
    assert frac(res.solution[1]) == 1


def test_redundant_equality_row_is_dropped():
    eqs = [([1, 1], 2), ([1, 1], 2), ([2, 2], 4)]
    res = lp_solve(2, eqs, [], [1, -1], R)
    assert res.status == UNBOUNDED
    pt = lp_feasible(2, eqs, [], R)
    assert pt is not None
    assert frac(pt[0]) + frac(pt[1]) == 2


def test_box_objective():
    # max x + y over the triangle x <= 1, y <= 2, x + y <= 2
    les = [([1, 0], 1), ([0, 1], 2), ([1, 1], 2)]
    res = lp_solve(2, [], les, [1, 1], R)
    assert res.status == OPTIMAL
    assert frac(res.value) == 2


def test_negative_rhs_rows():
    # x >= 3 written as -x <= -3, maximize -x
    res = lp_solve(1, [], [([-1], -3)], [-1], R)
    assert res.status == OPTIMAL
    assert frac(res.value) == -3
    assert frac(res.solution[0]) == 3


def test_fractional_optimum():
    # max y with y <= 3x, y <= 3 - 3x: apex at x = 1/2, y = 3/2
    les = [([-3, 1], 0), ([3, 1], 3)]
    res = lp_solve(2, [], les, [0, 1], R)
    assert res.status == OPTIMAL
    assert frac(res.value) == Fraction(3, 2)
    assert frac(res.solution[0]) == Fraction(1, 2)


def test_rank():
    assert lp_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], R) == 3
    assert lp_rank([[1, 2, 3], [2, 4, 6], [-1, -2, -3]], R) == 1
    assert lp_rank([[0, 0], [0, 0]], R) == 0
    assert lp_rank([], R) == 0
    assert lp_rank([[1, 2], [3, 4], [5, 6]], R) == 2


def test_empty_square_systems():
    assert lp_det([], R) == 1
    assert lp_cramer([], R) == ([], 1)


def test_affine_dim_square():
    les = [([1, 0], 1), ([-1, 0], 0), ([0, 1], 1), ([0, -1], 0)]
    assert lp_affine_dim(2, [], les, R) == 2


def test_affine_dim_segment():
    eqs = [([1, -1], 0)]
    les = [([1, 0], 1), ([-1, 0], 0)]
    assert lp_affine_dim(2, eqs, les, R) == 1


def test_affine_dim_point_from_inequalities():
    # x <= 0, -x <= 0, y <= 0, -y <= 0: every row is an implicit equality
    les = [([1, 0], 0), ([-1, 0], 0), ([0, 1], 0), ([0, -1], 0)]
    assert lp_affine_dim(2, [], les, R) == 0


def test_affine_dim_implicit_facet():
    # x + y <= 1 and x + y >= 1 force the segment x + y = 1, 0 <= x <= 1
    les = [([1, 1], 1), ([-1, -1], -1), ([1, 0], 1), ([-1, 0], 0)]
    assert lp_affine_dim(2, [], les, R) == 1


def test_affine_dim_empty():
    les = [([1], -1), ([-1], -2)]
    assert lp_affine_dim(1, [], les, R) == -1


def test_strict_feasibility():
    assert lp_strictly_feasible(1, [], [([1], 1), ([-1], 0)], [], R)
    assert not lp_strictly_feasible(1, [], [([1], 0), ([-1], 0)], [], R)
    # weak rows pin x = 0, the strict row x < 1 still has room
    assert lp_strictly_feasible(1, [], [([1], 1)], [([1], 0), ([-1], 0)], R)
    assert not lp_strictly_feasible(1, [], [([1], 0)], [([-1], 0)], R)


coords = st.integers(min_value=-4, max_value=4)


@given(st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=5),
       st.tuples(coords, coords, coords))
@settings(max_examples=60, deadline=None)
def test_constructed_feasible_systems_are_found_feasible(rows, x0):
    les = []
    for a in rows:
        rhs = sum(c * v for c, v in zip(a, x0))
        les.append((list(a), rhs))
    pt = lp_feasible(3, [], les, R)
    assert pt is not None
    vals = [frac(p) for p in pt]
    for a, b in les:
        assert sum(c * v for c, v in zip(a, vals)) <= b


@given(st.tuples(coords, coords, coords))
@settings(max_examples=40, deadline=None)
def test_box_optimum_is_corner_sum(c):
    les = []
    for i in range(3):
        row = [0, 0, 0]
        row[i] = 1
        les.append((list(row), 3))
        row2 = [0, 0, 0]
        row2[i] = -1
        les.append((row2, 3))
    res = lp_solve(3, [], les, list(c), R)
    assert res.status == OPTIMAL
    assert frac(res.value) == 3 * sum(abs(v) for v in c)


# ---------------------------------------------------------------------------
# polynomial ring

def zp(*coeffs):
    """Polynomial from coefficients listed low to high."""
    return {e: c for e, c in enumerate(coeffs) if c}


def test_poly_lp_bound_is_t():
    ring = PolyRing()
    t = zp(0, 1)
    res = lp_solve(1, [], [([zp(1)], t)], [zp(1)], ring)
    assert res.status == OPTIMAL
    num, den = res.value
    assert not zp_sub(num, zp_mul(t, den))


def test_poly_lp_infinitesimal_feasibility():
    # 1/t-scale room: x <= 1, x >= 1 - (t - 1)/t has solutions for t large;
    # cleared of denominators: t*x >= t - (t - 1) = 1
    ring = PolyRing()
    t = zp(0, 1)
    les = [([zp(1)], zp(1)), ([zp_sub({}, t)], zp(-1))]
    assert lp_feasible(1, [], les, ring) is not None
    assert lp_strictly_feasible(1, [], les, [], ring)


def test_poly_lp_order_matters():
    # x <= t and x >= 1000: feasible over the field since t > 1000
    ring = PolyRing()
    les = [([zp(1)], zp(0, 1)), ([zp(-1)], zp(-1000))]
    assert lp_feasible(1, [], les, ring) is not None
    assert lp_strictly_feasible(1, [], les, [], ring)


def test_poly_affine_dim():
    ring = PolyRing()
    t = zp(0, 1)
    # 0 <= x <= t is a segment; x <= t and x >= t is a point
    assert lp_affine_dim(1, [], [([zp(1)], t), ([zp(-1)], zp(0))], ring) == 1
    assert lp_affine_dim(1, [], [([zp(1)], t), ([zp(-1)], zp_sub({}, t))], ring) == 0


zcoef = st.integers(min_value=-9, max_value=9)
zpolys = st.lists(zcoef, min_size=0, max_size=4).map(
    lambda cs: {e: c for e, c in enumerate(cs) if c}
)


@given(zpolys, zpolys)
@settings(max_examples=80, deadline=None)
def test_zp_exact_division_roundtrip(a, b):
    if not b:
        return
    assert zp_exact_div(zp_mul(a, b), b) == a


@given(zpolys)
@settings(max_examples=80, deadline=None)
def test_zp_sign_matches_evaluation_beyond_cauchy_bound(p):
    b = zp_cauchy(p)
    v = zp_eval(p, b + 1)
    assert zp_sign(p) == (v > 0) - (v < 0)


@given(zpolys, zpolys)
@settings(max_examples=150, deadline=None)
def test_zp_mul_by_a_one_term_operand_matches_the_general_product(a, b):
    # the one-term shortcut against the double loop it skips
    mono = {max(a): a[max(a)]} if a else {}
    general: dict = {}
    for ea, ca in mono.items():
        for eb, cb in b.items():
            general = zp_add(general, {ea + eb: ca * cb})
    assert zp_mul(mono, b) == general
    assert zp_mul(b, mono) == general


@given(st.lists(zpolys, max_size=8))
@settings(max_examples=150, deadline=None)
def test_ledger_bound_is_the_largest_cauchy_bound(polys):
    led = ThresholdLedger()
    for p in polys:
        led.observe(p)
    assert type(led.bound) is Fraction
    assert led.bound == max([Fraction(1)] + [zp_cauchy(p) for p in polys])
    assert led.queries == len(polys)


def test_zp_inexact_division_raises():
    import pytest

    with pytest.raises(ArithmeticError):
        zp_exact_div(zp(1, 1), zp(0, 2))
    with pytest.raises(ArithmeticError):
        zp_exact_div(zp(0, 1), zp(1, 1))


def test_zp_basics():
    assert zp_from_int(0) == {}
    assert zp_from_int(-3) == {0: -3}
    assert zp_sign({}) == 0
    assert zp_sign({2: -1, 0: 100}) == -1
    assert zp_cauchy({}) == 1
    assert zp_cauchy({0: 7}) == 1
    assert zp_cauchy({1: 2, 0: -10}) == 6
    assert zp_eval({2: 1, 0: -1}, Fraction(3, 2)) == Fraction(5, 4)


def test_zp_exact_division_by_one_is_a_copy():
    a = zp(3, 0, -2)
    q = zp_exact_div(a, zp(1))
    assert q == a
    assert q is not a


def monic_fraction_poly(p):
    """The dense Fraction polynomial of p, scaled to be monic."""
    dense = tuple(Fraction(p.get(e, 0)) for e in range(max(p) + 1))
    return pscale(dense, 1 / dense[-1])


@given(zpolys, zpolys, zpolys, st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_zp_gcd_matches_the_fraction_euclidean_gcd(a, b, c, k):
    # inputs share the factor c t^k; the primitive gcd divides both exactly
    # in Z[t] and is, up to a constant, the monic gcd over Q[t]
    if not a or not b or not c:
        return
    c = {e + k: v for e, v in c.items()}
    x, y = zp_mul(a, c), zp_mul(b, c)
    g = zp_gcd(x, y)
    assert zp_content(g) == 1
    assert zp_mul(zp_exact_div(x, g), g) == x
    assert zp_mul(zp_exact_div(y, g), g) == y
    assert monic_fraction_poly(g) == pgcd(monic_fraction_poly(x), monic_fraction_poly(y))


# ---------------------------------------------------------------------------
# the elimination kernel, against independent references

def cofactor_det(M, ring):
    """Reference determinant by cofactor expansion along the first row."""
    k = len(M)
    if k == 1:
        return M[0][0]
    acc = ring.zero
    for j in range(k):
        if ring.sign(M[0][j]) == 0:
            continue
        minor = [[row[c] for c in range(k) if c != j] for row in M[1:]]
        term = ring.mul(M[0][j], cofactor_det(minor, ring))
        acc = ring.add(acc, term) if j % 2 == 0 else ring.sub(acc, term)
    return acc


def fraction_rank(rows) -> int:
    """Reference rank by plain Gauss elimination over Fraction."""
    M = [list(r) for r in rows]
    rank = 0
    for col in range(len(M[0]) if M else 0):
        piv = next((r for r in range(rank, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for r in range(rank + 1, len(M)):
            f = M[r][col] / M[rank][col]
            M[r] = [x - f * y for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def cramer_kernel(rows, ring):
    """d_j = (-1)^j det(rows without column j) for an (n-1) x n system."""
    n = len(rows) + 1
    d = []
    for j in range(n):
        det = lp_det([[row[c] for c in range(n) if c != j] for row in rows], ring)
        d.append(ring.sub(ring.zero, det) if j % 2 else det)
    return d


def dot(row, x, ring):
    acc = ring.zero
    for a, v in zip(row, x):
        acc = ring.add(acc, ring.mul(a, v))
    return acc


def with_dependent_row(draw, M, ring):
    """Often replace the last row by a combination of the others, so that
    singular and rank-deficient systems come up regularly."""
    if len(M) > 1 and draw(st.booleans()):
        k = draw(st.integers(0, len(M) - 2))
        c = ring.from_int(draw(st.integers(-2, 2)))
        M[-1] = [ring.add(ring.mul(c, x), y) for x, y in zip(M[k], M[0])]
    return M


small = st.integers(min_value=-4, max_value=4)


@st.composite
def square_systems(draw, ring):
    """(ring, augmented rows of a square system) over IntRing or PolyRing."""
    n = draw(st.integers(1, 4))
    entry = small if ring is INT_RING else zpolys
    M = [[draw(entry) for _ in range(n + 1)] for _ in range(n)]
    return ring, with_dependent_row(draw, M, ring)


@st.composite
def kernel_systems(draw, ring):
    n = draw(st.integers(2, 4))
    entry = small if ring is INT_RING else zpolys
    M = [[draw(entry) for _ in range(n)] for _ in range(n - 1)]
    return ring, with_dependent_row(draw, M, ring)


both_rings = st.sampled_from([INT_RING, POLY_RING])


@given(both_rings.flatmap(square_systems))
@settings(max_examples=150, deadline=None)
def test_det_matches_cofactor_expansion(system):
    ring, rows = system
    A = [r[:-1] for r in rows]
    assert lp_det(A, ring) == cofactor_det(A, ring)


fractions = st.builds(Fraction, small, st.integers(1, 4))


@st.composite
def fraction_matrices(draw):
    ncols = draw(st.integers(1, 4))
    row = st.lists(fractions, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    if len(rows) > 1 and draw(st.booleans()):
        # a scaled copy of the first row keeps rank deficiency common
        c = draw(fractions)
        rows[-1] = [c * x for x in rows[0]]
    return rows


@given(fraction_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_of_cleared_rows_matches_fraction_gauss(rows):
    assert lp_rank([clear_rat_row(r) for r in rows], INT_RING) == fraction_rank(rows)


@given(both_rings.flatmap(square_systems))
@settings(max_examples=150, deadline=None)
def test_cramer_solves_or_reports_the_rank(system):
    ring, rows = system
    A = [r[:-1] for r in rows]
    try:
        nums, den = lp_cramer(rows, ring)
    except SingularSystemError as exc:
        assert exc.rank == lp_rank(A, ring) < len(A)
        assert ring.sign(cofactor_det(A, ring)) == 0
        return
    assert ring.sign(den) != 0
    assert lp_rank(A, ring) == len(A)
    # A (nums / den) = b, cleared of the denominator
    for row in rows:
        assert dot(row[:-1], nums, ring) == ring.mul(row[-1], den)


@given(both_rings.flatmap(kernel_systems))
@settings(max_examples=150, deadline=None)
def test_cramer_minors_span_the_kernel(system):
    ring, rows = system
    n = len(rows) + 1
    d = cramer_kernel(rows, ring)
    for row in rows:
        assert ring.sign(dot(row, d, ring)) == 0
    nonzero = any(ring.sign(x) != 0 for x in d)
    assert nonzero == (lp_rank(rows, ring) == n - 1)


# ---------------------------------------------------------------------------
# the half-width simplex against the full tableau it replaced

def nonnegative(p):
    """p, or -p when p is negative in the ordering at t -> +infinity."""
    return zp_neg(p) if zp_sign(p) < 0 else p


@st.composite
def lp_instances(draw, ring):
    """(nv, eqs, les, objective) over IntRing or PolyRing.

    Rows are built around a point x0 with coordinates of either sign, so
    feasible systems with negative optimal coordinates (a w column basic)
    are common.  Equality rows, a redundant scaled copy of one, rows whose
    rhs is negative, a box that keeps the optimum bounded, a random row that
    may cut x0 off, and a zero objective all come up.
    """
    nv = draw(st.integers(1, 3))
    if ring is INT_RING:
        entry, slack = small, st.integers(0, 4)
    else:
        entry, slack = zpolys, zpolys.map(nonnegative)
    x0 = [draw(entry) for _ in range(nv)]

    def row():
        return [draw(entry) for _ in range(nv)]

    def unit(k, c):
        return [ring.from_int(c if i == k else 0) for i in range(nv)]

    eqs = []
    for _ in range(draw(st.integers(0, 2))):
        a = row()
        eqs.append((a, dot(a, x0, ring)))
    if eqs and draw(st.booleans()):
        a, b = eqs[0]
        c = ring.from_int(draw(st.sampled_from([-2, -1, 2])))
        eqs.append(([ring.mul(c, x) for x in a], ring.mul(c, b)))
    les = []
    for _ in range(draw(st.integers(0, 4))):
        a = row()
        les.append((a, ring.add(dot(a, x0, ring), draw(slack))))
    if draw(st.booleans()):
        for k in range(nv):
            les.append((unit(k, 1), ring.add(x0[k], draw(slack))))
            les.append((unit(k, -1), ring.sub(draw(slack), x0[k])))
    if draw(st.booleans()):
        les.append((row(), draw(entry)))
    objective = row() if draw(st.booleans()) else [ring.zero] * nv
    return nv, eqs, les, objective


@given(lp_instances(INT_RING))
@settings(max_examples=300, deadline=None)
def test_half_width_simplex_matches_the_full_tableau_over_int(lp):
    nv, eqs, les, objective = lp
    res = lp_solve(nv, eqs, les, objective, INT_RING)
    ref = full_tableau_lp_solve(nv, eqs, les, objective, INT_RING)
    assert (res.status, res.value, res.solution) == (ref.status, ref.value, ref.solution)


@given(lp_instances(POLY_RING))
@settings(max_examples=300, deadline=None)
def test_half_width_simplex_matches_the_full_tableau_over_poly(lp):
    # the ledger sees the same sign queries, so bound and count agree too
    nv, eqs, les, objective = lp
    led, ref_led = ThresholdLedger(), ThresholdLedger()
    res = lp_solve(nv, eqs, les, objective, PolyRing(led))
    ref = full_tableau_lp_solve(nv, eqs, les, objective, PolyRing(ref_led))
    assert (res.status, res.value, res.solution) == (ref.status, ref.value, ref.solution)
    assert (led.bound, led.queries) == (ref_led.bound, ref_led.queries)


def at_t0(p, t0):
    v = zp_eval(p, t0)
    assert v.denominator == 1
    return int(v)


# max x + y subject to x <= t, y <= t^2 - 5t, x + y <= t^2 - 3
FIXED_PROGRAM = (
    2,
    [],
    [
        ([zp(1), zp(0)], zp(0, 1)),
        ([zp(0), zp(1)], zp(0, -5, 1)),
        ([zp(1), zp(1)], zp(-3, 0, 1)),
    ],
    [zp(1), zp(1)],
)


@given(lp_instances(POLY_RING))
@example(FIXED_PROGRAM)
@settings(max_examples=150, deadline=None)
def test_ledger_instantiation_reproduces_the_result(lp):
    # every sign the symbolic solve asked is the sign at t0, so the same
    # pivots run over the integers and give the symbolic answer at t0
    nv, eqs, les, objective = lp
    led = ThresholdLedger()
    res = lp_solve(nv, eqs, les, objective, PolyRing(led))
    t0 = led.t0()
    assert t0 > led.bound

    def inst(rows):
        return [([at_t0(c, t0) for c in a], at_t0(b, t0)) for a, b in rows]

    int_obj = [at_t0(c, t0) for c in objective]
    res0 = lp_solve(nv, inst(eqs), inst(les), int_obj, INT_RING)
    assert res0.status == res.status
    if res.status != OPTIMAL:
        return
    num, den = res.value
    assert Fraction(at_t0(num, t0), at_t0(den, t0)) == frac(res0.value)
    for (n, d), (n0, d0) in zip(res.solution, res0.solution, strict=True):
        assert Fraction(at_t0(n, t0), at_t0(d, t0)) == Fraction(n0, d0)
