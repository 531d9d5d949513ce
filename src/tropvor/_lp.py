"""Exact linear programming kernel, generic over a coefficient ring.

The same two-phase primal simplex runs over two rings:

  * IntRing: Python integers, for systems with rational data (rows are
    cleared of denominators by the caller).
  * PolyRing: sparse univariate integer polynomials ordered by behavior at
    t -> +infinity, for systems over the ordered field of rational functions.

Pivoting is fraction-free (integer-preserving): the tableau holds ring
elements and a running denominator d, the true tableau being T/d.  Each pivot
divides by the previous pivot, and that division is exact because every entry
is a minor of the original matrix.  Pivoting never computes a gcd.  The
same elimination (Bareiss) gives ranks, determinants and Cramer solves over
either ring; it is the package's only exact elimination routine.

Every comparison the solver makes is routed through ring.sign.  PolyRing can
carry a ThresholdLedger which records a Cauchy root bound for every nonzero
element whose sign is consulted; instantiating the data at any rational t0
above the accumulated bound therefore reproduces every decision, hence the
identical result, with IntRing arithmetic.

The simplex splits each free variable as x = u - w.  Its tableau stores only
the u columns, the slacks, the artificials and the right-hand side: every
pivot keeps w = -u, so a w entry is read as its negated u entry, and its sign
is still asked of the ring on the stored entry, which leaves the ledger's
queries exactly those of the full tableau (zp_cauchy(-p) == zp_cauchy(p)).
The artificial columns are dropped after phase 1, and a pivot leaves alone
the entries that are zero and stay zero.

Bland's rule everywhere: entering column of smallest logical index (u, w,
slacks, artificials), leaving row of smallest basis index among minimal
ratios.  Deterministic and terminating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

# ---------------------------------------------------------------------------
# sparse integer polynomials: dict {exponent: nonzero int coefficient}

ZPoly = dict


def zp_from_int(k: int) -> ZPoly:
    return {0: k} if k else {}


def zp_add(a: ZPoly, b: ZPoly) -> ZPoly:
    out = dict(a)
    for e, c in b.items():
        n = out.get(e, 0) + c
        if n:
            out[e] = n
        else:
            out.pop(e, None)
    return out


def zp_neg(a: ZPoly) -> ZPoly:
    return {e: -c for e, c in a.items()}


def zp_sub(a: ZPoly, b: ZPoly) -> ZPoly:
    out = dict(a)
    for e, c in b.items():
        n = out.get(e, 0) - c
        if n:
            out[e] = n
        else:
            out.pop(e, None)
    return out


def zp_mul(a: ZPoly, b: ZPoly) -> ZPoly:
    if not a or not b:
        return {}
    # a one-term operand shifts and scales the other; Z has no zero
    # divisors, so no term cancels
    if len(a) == 1:
        (ea, ca), = a.items()
        return {ea + eb: ca * cb for eb, cb in b.items()}
    if len(b) == 1:
        (eb, cb), = b.items()
        return {ea + eb: ca * cb for ea, ca in a.items()}
    out: ZPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            n = out.get(e, 0) + ca * cb
            if n:
                out[e] = n
            else:
                out.pop(e, None)
    return out


def zp_exact_div(a: ZPoly, b: ZPoly) -> ZPoly:
    """Exact polynomial division a/b in Z[t]; raises if not exact."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    if b == {0: 1}:
        # the first pivot of every fraction-free elimination divides by one
        return dict(a)
    q: ZPoly = {}
    r = dict(a)
    db = max(b)
    lb = b[db]
    while r:
        dr = max(r)
        if dr < db:
            raise ArithmeticError("inexact polynomial division")
        qc = r[dr] // lb
        if qc * lb != r[dr]:
            raise ArithmeticError("inexact polynomial division")
        e = dr - db
        q[e] = qc
        for eb, cb in b.items():
            ne = eb + e
            n = r.get(ne, 0) - qc * cb
            if n:
                r[ne] = n
            else:
                r.pop(ne, None)
    return q


def zp_content(p: ZPoly) -> int:
    """The gcd of the coefficients of p (0 for the zero polynomial)."""
    return gcd(*p.values())


def _zp_primitive_part(p: ZPoly) -> ZPoly:
    g = zp_content(p)
    return {e: c // g for e, c in p.items()}


def zp_gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """A gcd of two nonzero polynomials in Z[t], primitive, so that it
    divides both exactly in Z[t] (Gauss's lemma).

    The t-power part is min(ord a, ord b); the rest comes from a primitive
    pseudo-remainder sequence.  The sign of the result is unspecified.
    """
    oa, ob = min(a), min(b)
    shift = min(oa, ob)
    a = _zp_primitive_part({e - oa: c for e, c in a.items()})
    b = _zp_primitive_part({e - ob: c for e, c in b.items()})
    if max(a) < max(b):
        a, b = b, a
    while max(b) > 0:
        db = max(b)
        lb = b[db]
        while a and max(a) >= db:
            da = max(a)
            a = zp_sub(zp_mul(a, {0: lb}), zp_mul(b, {da - db: a[da]}))
        if not a:
            return {e + shift: c for e, c in b.items()}
        a, b = b, _zp_primitive_part(a)
    # a nonzero constant remainder: the gcd is a unit times t^shift
    return {shift: 1}


def zp_sign(p: ZPoly) -> int:
    if not p:
        return 0
    return 1 if p[max(p)] > 0 else -1


def _zp_cauchy_terms(p: ZPoly) -> tuple:
    """(lead + m, lead) for the Cauchy bound (lead + m) / lead of a nonzero
    p, where lead is its leading coefficient's and m the largest other
    coefficient's absolute value."""
    dmax = max(p)
    lead = abs(p[dmax])
    m = max((abs(c) for e, c in p.items() if e != dmax), default=0)
    return lead + m, lead


def zp_cauchy(p: ZPoly) -> Fraction:
    """Upper bound on the absolute value of every real root of p."""
    if not p:
        return Fraction(1)
    return Fraction(*_zp_cauchy_terms(p))


def zp_eval(p: ZPoly, t0: Fraction) -> Fraction:
    acc = Fraction(0)
    for e, c in p.items():
        acc += c * t0**e
    return acc


class ThresholdLedger:
    """Accumulates sign-stability thresholds over a symbolic computation."""

    def __init__(self) -> None:
        self.bound = Fraction(1)
        self.queries = 0

    def observe(self, p: ZPoly) -> None:
        self.queries += 1
        if not p:
            return  # zp_cauchy({}) is 1, never above the bound
        # compare zp_cauchy(p) with the bound by integer cross-multiplication
        num, den = _zp_cauchy_terms(p)
        bound = self.bound
        if num * bound.denominator > bound.numerator * den:
            self.bound = Fraction(num, den)

    def t0(self) -> Fraction:
        """A rational strictly above every recorded threshold."""
        return Fraction(int(self.bound) + 1)


# ---------------------------------------------------------------------------
# coefficient rings

class IntRing:
    zero = 0
    one = 1

    @staticmethod
    def from_int(k: int):
        return k

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def exact_div(a, b):
        q = a // b
        if q * b != a:
            raise ArithmeticError("inexact integer division")
        return q

    @staticmethod
    def sign(a) -> int:
        return (a > 0) - (a < 0)


class PolyRing:
    zero: ZPoly = {}
    one: ZPoly = {0: 1}

    def __init__(self, ledger: Optional[ThresholdLedger] = None):
        self.ledger = ledger

    @staticmethod
    def from_int(k: int):
        return zp_from_int(k)

    add = staticmethod(zp_add)
    sub = staticmethod(zp_sub)
    mul = staticmethod(zp_mul)
    exact_div = staticmethod(zp_exact_div)

    def sign(self, p: ZPoly) -> int:
        if p and self.ledger is not None:
            self.ledger.observe(p)
        return zp_sign(p)


INT_RING = IntRing()
POLY_RING = PolyRing()


# ---------------------------------------------------------------------------
# fraction-free elimination: the package's one exact elimination kernel

class SingularSystemError(ValueError):
    """Raised by a Cramer solve on a singular matrix; carries the rank found."""

    def __init__(self, rank: int):
        super().__init__(f"singular system (rank {rank})")
        self.rank = rank


def _eliminate(M: list, ncols: int, ring) -> tuple:
    """Bareiss forward elimination of M in place, pivoting in the first ncols
    columns and carrying any further columns along.

    Row k ends up holding the k-th pivot, and each entry is then a minor of
    the row-permuted input, so every division is exact.  Returns the pivot
    columns and the sign of the row permutation.
    """
    sign, mul, sub, div = ring.sign, ring.mul, ring.sub, ring.exact_div
    pivots: list = []
    parity = 1
    denom = ring.one
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(M)) if sign(M[r][col]) != 0), None)
        if piv is None:
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
            parity = -parity
        prow = M[rank]
        p = prow[col]
        for r in range(rank + 1, len(M)):
            row = M[r]
            f = row[col]
            for c in range(col, len(row)):
                # a zero entry stays zero when f or prow[c] is zero
                if row[c] or (f and prow[c]):
                    row[c] = div(sub(mul(row[c], p), mul(f, prow[c])), denom)
        denom = p
        pivots.append(col)
        if len(pivots) == len(M):
            break
    return pivots, parity


def lp_rank(rows: Sequence, ring) -> int:
    """Rank of a coefficient matrix, by fraction-free elimination."""
    M = [list(r) for r in rows]
    return len(_eliminate(M, len(M[0]), ring)[0]) if M else 0


def lp_det(rows: Sequence, ring):
    """Determinant of a square matrix, by fraction-free elimination."""
    M = [list(r) for r in rows]
    if not M:
        return ring.one
    pivots, parity = _eliminate(M, len(M), ring)
    if len(pivots) < len(M):
        return ring.zero
    d = M[-1][-1]
    return d if parity > 0 else ring.sub(ring.zero, d)


def lp_cramer(rows: Sequence, ring) -> tuple:
    """Solve the square system A x = b given by its augmented rows (A_i, b_i),
    by fraction-free elimination.

    Returns (numerators, denominator) with x_i = numerators[i] / denominator;
    the denominator is plus or minus det A, so the numerators are the Cramer
    minors up to that common sign.  Raises SingularSystemError with the rank
    of A when A is singular.
    """
    M = [list(r) for r in rows]
    n = len(M)
    pivots, _ = _eliminate(M, n, ring)
    if len(pivots) < n:
        raise SingularSystemError(len(pivots))
    # back substitution scaled by den: den * x_i lies in the ring
    den = M[-1][n - 1] if M else ring.one
    nums = [ring.zero] * n
    for i in reversed(range(n)):
        acc = ring.mul(den, M[i][n])
        for j in range(i + 1, n):
            acc = ring.sub(acc, ring.mul(M[i][j], nums[j]))
        nums[i] = ring.exact_div(acc, M[i][i])
    return nums, den


# ---------------------------------------------------------------------------
# the solver

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    # objective value and variable values as (numerator, denominator) ring
    # pairs; meaningful only when status == "optimal"
    value: Optional[tuple] = None
    solution: Optional[list] = None

    def value_sign(self, ring) -> int:
        num, den = self.value
        return ring.sign(num) * ring.sign(den)


def lp_solve(nv: int, eqs: Sequence, les: Sequence, objective, ring) -> LPResult:
    """Maximize objective . x subject to eq rows (a, b): a.x = b and le rows
    a.x <= b, all variables free.

    Rows are pairs (coeffs, rhs) of ring elements.

    Each free variable is split as x = u - w.  The logical columns are u, w,
    slacks and artificials, in that order, and Bland's rule runs on that
    logical index.  Every pivot combines whole rows with scalars shared by
    all columns, so the w_k column stays the negated u_k column: only u is
    stored, and a w entry is read as its negated u entry.  Its sign is still
    asked of the ring, on the stored entry, so a ledger sees the same queries
    as a full tableau would (zp_cauchy(-p) == zp_cauchy(p)).  The artificial
    columns are dropped once phase 1 and the drive-out are over; phase 2
    never reads them.
    """
    sign = ring.sign
    sub, mul, div = ring.sub, ring.mul, ring.exact_div
    zero, one = ring.zero, ring.one

    nslack = len(les)
    # logical columns: u_0..u_{nv-1}, w_0..w_{nv-1}, slacks, artificials
    base_cols = 2 * nv + nslack

    # first pass: rows normalized to nonnegative rhs, noting which need an
    # artificial.  An eq row always does; a le row does when the sign flip
    # turned its slack coefficient negative.
    raw: list[tuple[list, object, Optional[int], bool]] = []
    for coeffs, rhs in eqs:
        if sign(rhs) < 0:
            raw.append(([sub(zero, c) for c in coeffs], sub(zero, rhs), None, True))
        else:
            raw.append((list(coeffs), rhs, None, True))
    for i, (coeffs, rhs) in enumerate(les):
        if sign(rhs) < 0:
            raw.append(([sub(zero, c) for c in coeffs], sub(zero, rhs), i, True))
        else:
            raw.append((list(coeffs), rhs, i, False))

    nart = sum(1 for r in raw if r[3])
    total_cols = base_cols + nart
    # stored columns: u, slacks, artificials, then the rhs at index width;
    # where[j] is the (stored column, sign) pair of logical column j
    width = nv + nslack + nart
    where = [(k, 1) for k in range(nv)] + [(k, -1) for k in range(nv)]
    where += [(k, 1) for k in range(nv, width)]

    rows: list[list] = []
    basis: list[int] = []
    art_rows: list[int] = []
    next_art = base_cols
    for coeffs, rhs, slack_idx, needs_art in raw:
        row = [zero] * (width + 1)
        for k, c in enumerate(coeffs):
            if sign(c) == 0:
                continue
            row[k] = c
        if slack_idx is not None:
            row[nv + slack_idx] = sub(zero, one) if needs_art else one
        row[width] = rhs
        if needs_art:
            row[next_art - nv] = one
            basis.append(next_art)
            art_rows.append(len(rows))
            next_art += 1
        else:
            basis.append(2 * nv + slack_idx)
        rows.append(row)

    m = len(rows)

    # phase-1 objective row (z_j - c_j format, for maximizing minus the sum
    # of artificials), reduced against the initial basis: subtracting each
    # artificial row zeroes its artificial column
    z1 = [zero] * (width + 1)
    for i in art_rows:
        for j in (*range(nv + nslack), width):
            z1[j] = sub(z1[j], rows[i][j])

    # phase-2 objective row: -c; the initial basic columns all carry zero
    # objective coefficient, so no reduction is needed
    z2 = [zero] * (width + 1)
    for k, c in enumerate(objective):
        if sign(c) == 0:
            continue
        z2[k] = sub(zero, c)

    denom = one

    def pivot(r: int, c: int) -> None:
        # entries that are zero before the update and stay zero after it
        # are left alone; 0 and {} are both falsy
        nonlocal denom
        sc, cs = where[c]
        prow = rows[r]
        p = prow[sc] if cs > 0 else sub(zero, prow[sc])
        for row in rows + [z1, z2]:
            if row is prow:
                continue
            f = row[sc]
            if sign(f) == 0:
                for j, x in enumerate(row):
                    if x:
                        row[j] = div(mul(x, p), denom)
            else:
                # nf = -f serves a zero x; a w column stores -f itself
                if cs > 0:
                    nf = sub(zero, f)
                else:
                    f, nf = sub(zero, f), f
                for j, (x, y) in enumerate(zip(row, prow)):
                    if not y:
                        if x:
                            row[j] = div(mul(x, p), denom)
                    elif x:
                        row[j] = div(sub(mul(x, p), mul(f, y)), denom)
                    else:
                        row[j] = div(mul(nf, y), denom)
        denom = p
        basis[r] = c

    def run_phase(zrow, ncols: int) -> str:
        while True:
            dsign = sign(denom)
            enter = None
            for j in range(ncols):
                sc, cs = where[j]
                if sign(zrow[sc]) * cs * dsign < 0:
                    enter = j
                    break
            if enter is None:
                return OPTIMAL
            sc, cs = where[enter]
            leave = None
            for i in range(m):
                if sign(rows[i][sc]) * cs * dsign <= 0:
                    continue
                if leave is None:
                    leave = i
                    continue
                # rhs_i/col_i vs rhs_leave/col_leave by cross-multiplication;
                # both columns have positive true sign, so the ring-level
                # product test is direction-correct whatever the sign of d.
                # On stored u entries a w column's difference is negated.
                diff = sub(
                    mul(rows[i][-1], rows[leave][sc]),
                    mul(rows[leave][-1], rows[i][sc]),
                )
                s = sign(diff) * cs
                if s < 0 or (s == 0 and basis[i] < basis[leave]):
                    leave = i
            if leave is None:
                return UNBOUNDED
            pivot(leave, enter)

    run_phase(z1, total_cols)
    # phase 1 is never unbounded: its objective is bounded above by zero
    if sign(z1[-1]) != 0:
        return LPResult(INFEASIBLE)

    # drive surviving artificials out of the basis; rows that cannot be
    # pivoted on any structural column are redundant and get dropped
    drop: list[int] = []
    for i in range(m):
        if basis[i] < base_cols:
            continue
        col = next((j for j in range(base_cols) if sign(rows[i][where[j][0]]) != 0), None)
        if col is None:
            drop.append(i)
        else:
            pivot(i, col)
    for i in reversed(drop):
        del rows[i], basis[i]
        m -= 1

    # phase 2 reads no artificial column: drop them
    for row in rows + [z1, z2]:
        del row[nv + nslack:width]
    status = run_phase(z2, base_cols)
    if status != OPTIMAL:
        return LPResult(status)
    return LPResult(OPTIMAL, (z2[-1], denom), _extract(rows, basis, denom, nv, ring))


def _extract(rows, basis, denom, nv, ring):
    """Values of the original free variables as (num, den) ring pairs."""
    vals = {}
    for i, b in enumerate(basis):
        vals[b] = rows[i][-1]
    out = []
    for k in range(nv):
        num = ring.sub(vals.get(k, ring.zero), vals.get(nv + k, ring.zero))
        out.append((num, denom))
    return out


# ---------------------------------------------------------------------------
# helpers built on the solver

def lp_feasible(nv: int, eqs: Sequence, les: Sequence, ring) -> Optional[list]:
    """A feasible point as (num, den) pairs, or None: a zero objective stops
    phase 2 at once."""
    res = lp_solve(nv, eqs, les, [ring.zero] * nv, ring)
    return res.solution if res.status == OPTIMAL else None


def _max_slack(nv: int, eqs: Sequence, les: Sequence, slacked, ring) -> LPResult:
    """Maximize a slack t shared by the le rows whose indices are in slacked,
    capped at 1: the rows a.x + t <= b for those, a.x <= b for the rest, in
    their given order, then t <= 1."""
    zero, one = ring.zero, ring.one
    eqs2 = [(list(c) + [zero], b) for c, b in eqs]
    les2 = [(list(c) + [one if i in slacked else zero], b) for i, (c, b) in enumerate(les)]
    les2.append(([zero] * nv + [one], one))
    return lp_solve(nv + 1, eqs2, les2, [zero] * nv + [one], ring)


def lp_strictly_feasible(nv: int, eqs: Sequence, strict: Sequence, weak: Sequence, ring) -> bool:
    """Is there a point satisfying eqs, weak rows a.x <= b, and every strict
    row a.x < b?  Decided by maximizing a slack t common to all strict rows,
    capped at 1: strict feasibility is optimal value > 0."""
    les = list(weak) + list(strict)
    res = _max_slack(nv, eqs, les, range(len(weak), len(les)), ring)
    return res.status == OPTIMAL and res.value_sign(ring) > 0


def lp_affine_dim(nv: int, eqs: Sequence, les: Sequence, ring) -> int:
    """Affine dimension of {x : eqs, les}, or -1 if empty.

    Implicit equalities among the le rows are found exactly: first one LP
    checks whether all rows can be slack simultaneously; if not, each row
    still under suspicion gets its own max-slack LP (capped at 1), and rows
    that can never be slack join the equality system.  The dimension is nv
    minus the rank of the final equality system.
    """
    res = _max_slack(nv, eqs, les, range(len(les)), ring)
    if res.status != OPTIMAL:
        return -1
    vsign = res.value_sign(ring)
    if vsign < 0:
        # even with shared slack the rows cannot be met at t = 0
        return -1

    eq_rows = [list(c) for c, _ in eqs]
    if vsign > 0:
        return nv - lp_rank(eq_rows, ring) if eq_rows else nv

    # some rows are tight over the whole set; identify exactly which
    points = [res.solution[:nv]]
    implicit: list[int] = []
    for i, (coeffs, rhs) in enumerate(les):
        if any(_slack_sign(coeffs, rhs, pt, ring) > 0 for pt in points):
            continue
        r = _max_slack(nv, eqs, les, (i,), ring)
        # feasibility was established above, so r is optimal
        if r.value_sign(ring) > 0:
            points.append(r.solution[:nv])
        else:
            implicit.append(i)
    all_eq = eq_rows + [list(les[i][0]) for i in implicit]
    return nv - lp_rank(all_eq, ring) if all_eq else nv


def _slack_sign(coeffs, rhs, point, ring) -> int:
    """Sign of rhs - coeffs . point, for a point of (num, den) pairs sharing
    one denominator."""
    den = point[0][1] if point else ring.one
    acc = ring.mul(rhs, den)
    for c, (num, _) in zip(coeffs, point):
        acc = ring.sub(acc, ring.mul(c, num))
    return ring.sign(acc) * ring.sign(den)
