"""Exact rational scalars and the ordered field of rational functions in t.

Rationals are plain fractions.Fraction values: that type already stores every
value gcd-reduced with a positive denominator and its arithmetic is exact.

A RatFun is a quotient p/q of integer polynomials in t, in the sparse ZPoly
form of the LP kernel ({exponent: nonzero int}).  It is stored in a canonical
form: p and q are coprime, the integer content of p and q together is 1, and
q has a positive leading coefficient.  Every field element has exactly one
such pair, so equality and hashing compare p and q directly.  The field is
ordered by behavior as t -> +infinity: because q is eventually positive, the
sign of f equals the sign of the leading coefficient of p.  This makes RatFun
a computable stand-in for series fields ordered at infinity.

The num and den views give the same element as Fraction coefficient tuples,
lowest degree first, with a monic denominator; serialization and repr go
through them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Optional, Sequence, Union

# SingularSystemError is re-exported: of_solve_linear raises it
from ._lp import (
    POLY_RING,
    SingularSystemError,
    ZPoly,
    lp_cramer,
    zp_add,
    zp_cauchy,
    zp_eval,
    zp_exact_div,
    zp_gcd,
    zp_mul,
    zp_neg,
    zp_sign,
    zp_sub,
)

Rat = Fraction


class PoleError(ValueError):
    """Raised when a rational function is evaluated at a denominator root."""


def rat_to_str(x: Rat) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(x)


def rat_from_str(s: str) -> Rat:
    """A rational from a string or an int; floats and bools are not exact."""
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise TypeError(f"exact rational expected, got {s!r}")
    return Fraction(s)


def int_from_str(s: str) -> int:
    """An integer from a string or an int, read as exactly as a rational."""
    x = rat_from_str(s)
    if x.denominator != 1:
        raise ValueError(f"integer expected, got {s!r}")
    return x.numerator


# ---------------------------------------------------------------------------
# the ordered field

def _zpoly(obj) -> tuple:
    """(a, m) with obj = a/m, a a ZPoly and m a positive integer, for a ZPoly,
    a scalar, or a dense coefficient sequence (lowest degree first)."""
    if isinstance(obj, dict):
        return obj, 1
    if isinstance(obj, int):
        return ({0: obj} if obj else {}), 1
    cs = [Fraction(c) for c in ((obj,) if isinstance(obj, Fraction) else obj)]
    m = lcm(*(c.denominator for c in cs))
    return {e: c.numerator * (m // c.denominator) for e, c in enumerate(cs) if c}, m


class RatFun:
    """A rational function p/q in canonical form (see the module docstring).

    The constructor takes the numerator and the denominator as ZPolys,
    scalars or dense coefficient sequences, and reduces them.
    """

    __slots__ = ("p", "q")

    def __init__(self, num=1, den=1):
        p, mp = _zpoly(num)
        q, mq = _zpoly(den)
        if not q:
            raise ZeroDivisionError("zero denominator")
        if not p:
            q = {0: 1}
        else:
            if mp != mq:
                p = {e: c * mq for e, c in p.items()}
                q = {e: c * mp for e, c in q.items()}
            g = zp_gcd(p, q)
            if g != {0: 1}:
                p, q = zp_exact_div(p, g), zp_exact_div(q, g)
            c = gcd(*p.values(), *q.values())
            if q[max(q)] < 0:
                c = -c
            if c != 1:
                p = {e: v // c for e, v in p.items()}
                q = {e: v // c for e, v in q.items()}
        self.p: ZPoly = p
        self.q: ZPoly = q

    # --- constructors

    @staticmethod
    def from_rat(x: Union[int, Fraction]) -> "RatFun":
        return RatFun(x)

    @staticmethod
    def t_power(k: int) -> "RatFun":
        """The monomial t**k, for any integer k."""
        return RatFun({k: 1}) if k >= 0 else RatFun({0: 1}, {-k: 1})

    # --- dense views, with the denominator made monic

    def _dense(self, a: ZPoly) -> tuple:
        lc = self.q[max(self.q)]
        return tuple(Fraction(a.get(e, 0), lc) for e in range(max(a) + 1)) if a else ()

    @property
    def num(self) -> tuple:
        return self._dense(self.p)

    @property
    def den(self) -> tuple:
        return self._dense(self.q)

    # --- predicates and sign

    def is_zero(self) -> bool:
        return not self.p

    def sign(self) -> int:
        return zp_sign(self.p)

    # --- arithmetic (exact, always reduced)

    def __add__(self, other: "RatFun") -> "RatFun":
        other = _coerce(other)
        return RatFun(
            zp_add(zp_mul(self.p, other.q), zp_mul(other.p, self.q)),
            zp_mul(self.q, other.q),
        )

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(zp_neg(self.p), self.q)

    def __sub__(self, other: "RatFun") -> "RatFun":
        other = _coerce(other)
        return RatFun(
            zp_sub(zp_mul(self.p, other.q), zp_mul(other.p, self.q)),
            zp_mul(self.q, other.q),
        )

    def __rsub__(self, other) -> "RatFun":
        return _coerce(other) - self

    def __mul__(self, other: "RatFun") -> "RatFun":
        other = _coerce(other)
        return RatFun(zp_mul(self.p, other.p), zp_mul(self.q, other.q))

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFun") -> "RatFun":
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(zp_mul(self.p, other.q), zp_mul(self.q, other.p))

    def __rtruediv__(self, other) -> "RatFun":
        return _coerce(other) / self

    # --- equality on the canonical form

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return hash((frozenset(self.p.items()), frozenset(self.q.items())))

    # --- order (total, compatible with the field operations)

    def __lt__(self, other) -> bool:
        return of_compare(self, _coerce(other)) < 0

    def __le__(self, other) -> bool:
        return of_compare(self, _coerce(other)) <= 0

    def __gt__(self, other) -> bool:
        return of_compare(self, _coerce(other)) > 0

    def __ge__(self, other) -> bool:
        return of_compare(self, _coerce(other)) >= 0

    def __repr__(self) -> str:
        return f"RatFun({list(self.num)!r}, {list(self.den)!r})"


def _coerce(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFun.from_rat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to RatFun")


RF_ZERO = RatFun((), (1,))
RF_ONE = RatFun.from_rat(1)


def of_compare(f: RatFun, g: RatFun) -> int:
    """Order of f and g in the field: -1 (less), 0 (equal), or 1 (greater),
    the sign of p1 q2 - p2 q1, since q1 q2 has a positive leading coefficient."""
    return zp_sign(zp_sub(zp_mul(f.p, g.q), zp_mul(g.p, f.q)))


def valstar(f: RatFun, scale: int = 1) -> Optional[Rat]:
    """Dual valuation: the leading exponent of f, divided by the exponent
    scale factor recorded when the input data was pre-scaled.

    Returns None for f = 0 (standing for minus infinity).
    """
    if f.is_zero():
        return None
    return Fraction(max(f.p) - max(f.q), scale)


def sign_threshold(f: RatFun) -> Rat:
    """A rational tau with sign(f(t0)) = sign(f) for every rational t0 > tau.

    Cauchy root bounds of numerator and denominator: beyond both, each factor
    carries the sign of its leading coefficient.
    """
    return max(zp_cauchy(f.p), zp_cauchy(f.q))


def of_eval_at(f: RatFun, t0: Rat) -> tuple[Rat, Rat]:
    """Exact value f(t0) together with the stability threshold tau(f).

    For every rational t0 > tau(f), sign(f(t0)) = sign(f).
    """
    t0 = Fraction(t0)
    d = zp_eval(f.q, t0)
    if d == 0:
        raise PoleError(f"pole at t0 = {t0}")
    return zp_eval(f.p, t0) / d, sign_threshold(f)


def of_solve_linear(A: Sequence[Sequence[RatFun]], b: Sequence[RatFun]) -> list[RatFun]:
    """Solve A x = b exactly over the field; A must be square and nonsingular.

    Each equation is cleared to integer polynomials and the system is solved
    by the fraction-free kernel over PolyRing.  Raises SingularSystemError
    with the rank found otherwise.
    """
    m = len(A)
    if any(len(row) != m for row in A) or len(b) != m:
        raise ValueError("A must be square with matching b")
    rows = [clear_ratfun_row(list(row) + [rhs]) for row, rhs in zip(A, b)]
    nums, den = lp_cramer(rows, POLY_RING)
    return [RatFun(num, den) for num in nums]


# ---------------------------------------------------------------------------
# rows cleared to the integer rings of the LP kernel

def clear_rat_row(values: Sequence[Rat]) -> tuple:
    """Integer row proportional to a row of rationals, by the positive factor
    of the lcm of the denominators."""
    m = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (m // v.denominator) for v in values)


def clear_ratfun_row(values: Sequence[RatFun]) -> tuple:
    """Integer-polynomial row proportional to a row of rational functions.

    Entry i is p_i times every other denominator q_j, divided by gcd(L, G):
    L is the product of the leading coefficients of the q_j and G the gcd of
    every coefficient in the row.  That is the row times the product of the
    monic denominators, cleared by the lcm of its coefficient denominators.
    The factor is positive in the field, so every sign and every kernel is
    unchanged.
    """
    row = []
    for i, v in enumerate(values):
        acc = v.p
        for j, w in enumerate(values):
            if j != i and acc:
                acc = zp_mul(acc, w.q)
        row.append(acc)
    g = gcd(prod(v.q[max(v.q)] for v in values), *(c for a in row for c in a.values()))
    return tuple({e: c // g for e, c in a.items()} for a in row)


def ratfun_of_zpoly(p: ZPoly) -> RatFun:
    """The integer polynomial p as a rational function."""
    return RatFun(p)


# ---------------------------------------------------------------------------
# serialization

def ratfun_to_json(f: RatFun) -> dict:
    return {
        "num": [rat_to_str(c) for c in f.num],
        "den": [rat_to_str(c) for c in f.den],
    }


def ratfun_from_json(obj: dict) -> RatFun:
    return RatFun([Fraction(c) for c in obj["num"]], [Fraction(c) for c in obj["den"]])
