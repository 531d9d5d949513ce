"""Exact rational scalars and the ordered field of rational functions in t.

Rationals are plain fractions.Fraction values: that type already stores every
value gcd-reduced with a positive denominator and its arithmetic is exact.

A RatFun is a quotient num/den of univariate polynomials in t with Fraction
coefficients, stored reduced (no common factor) and with a monic denominator.
The field is ordered by behavior as t -> +infinity: because the denominator is
monic, hence eventually positive, the sign of f equals the sign of the leading
coefficient of the numerator.  This makes RatFun a computable stand-in for
series fields ordered at infinity.

Lifted data is made of monomials t^k, so most denominators are monomials
c t^k.  For those the gcd with the numerator is t^min(k, ord num): the
constructor reduces by a shift and clear_ratfun_row clears by shifts, and
neither runs the Euclidean gcd.

Polynomials are dense coefficient tuples, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

# SingularSystemError is re-exported: of_solve_linear raises it
from ._lp import POLY_RING, SingularSystemError, ZPoly, lp_cramer

Rat = Fraction

Poly = tuple  # tuple of Fraction, lowest degree first, no trailing zeros

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PoleError(ValueError):
    """Raised when a rational function is evaluated at a denominator root."""


def rat_to_str(x: Rat) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    return str(x)


def rat_from_str(s: str) -> Rat:
    return Fraction(s)


# ---------------------------------------------------------------------------
# polynomial helpers (internal)

def _pnorm(coeffs: Iterable[Fraction]) -> Poly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pdeg(p: Poly) -> int:
    # degree of the zero polynomial is -1 by convention here
    return len(p) - 1


def _padd(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return _pnorm(out)


def _pneg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def _psub(p: Poly, q: Poly) -> Poly:
    return _padd(p, _pneg(q))


def _pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _pnorm(out)


def _pscale(p: Poly, c: Fraction) -> Poly:
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def _pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    qd, qlc = _pdeg(q), q[-1]
    quo = [_ZERO] * max(len(p) - len(q) + 1, 0)
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + qd] / qlc
        if c == 0:
            continue
        quo[k] = c
        for j, b in enumerate(q):
            rem[k + j] -= c * b
    return _pnorm(quo), _pnorm(rem)


def _pgcd(p: Poly, q: Poly) -> Poly:
    # Euclidean algorithm; result is monic (or the zero polynomial).
    while q:
        p, q = q, _pdivmod(p, q)[1]
    if not p:
        return ()
    return _pscale(p, 1 / p[-1])


def _peval(p: Poly, t0: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(p):
        acc = acc * t0 + c
    return acc


def _pcauchy(p: Poly) -> Fraction:
    """Cauchy bound: every real root of p has absolute value below this."""
    if not p:
        return _ONE
    lead = abs(p[-1])
    m = _ZERO
    for c in p[:-1]:
        r = abs(c) / lead
        if r > m:
            m = r
    return _ONE + m


def _pfrom(obj: Union[int, Fraction, Sequence]) -> Poly:
    if isinstance(obj, (int, Fraction)):
        return _pnorm([Fraction(obj)])
    return _pnorm(Fraction(c) for c in obj)


# ---------------------------------------------------------------------------
# the ordered field

@dataclass(frozen=True)
class RatFun:
    """A reduced rational function num/den with monic denominator."""

    num: Poly
    den: Poly

    def __init__(self, num=(1,), den=(1,)):
        num = _pfrom(num)
        den = _pfrom(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = (_ONE,)
        else:
            if not any(den[:-1]):
                # den = c t^k: the gcd is t^min(k, ord num), so reducing
                # is a shift of both and needs no polynomial gcd
                k = min(_pdeg(den), next(i for i, c in enumerate(num) if c))
                num, den = num[k:], den[k:]
            else:
                g = _pgcd(num, den)
                if _pdeg(g) > 0:
                    num = _pdivmod(num, g)[0]
                    den = _pdivmod(den, g)[0]
            # monic denominator: sign inspection reduces to the numerator
            lc = den[-1]
            if lc != 1:
                num = _pscale(num, 1 / lc)
                den = _pscale(den, 1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # --- constructors

    @staticmethod
    def from_rat(x: Union[int, Fraction]) -> "RatFun":
        return RatFun((Fraction(x),), (_ONE,))

    @staticmethod
    def t_power(k: int) -> "RatFun":
        """The monomial t**k, for any integer k."""
        if k >= 0:
            return RatFun(tuple([_ZERO] * k + [_ONE]), (_ONE,))
        return RatFun((_ONE,), tuple([_ZERO] * (-k) + [_ONE]))

    # --- predicates and sign

    def is_zero(self) -> bool:
        return not self.num

    def sign(self) -> int:
        if not self.num:
            return 0
        return 1 if self.num[-1] > 0 else -1

    # --- arithmetic (exact, always reduced)

    def __add__(self, other: "RatFun") -> "RatFun":
        other = _coerce(other)
        return RatFun(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(_pneg(self.num), self.den)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "RatFun":
        return _coerce(other) + (-self)

    def __mul__(self, other: "RatFun") -> "RatFun":
        other = _coerce(other)
        return RatFun(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFun") -> "RatFun":
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other) -> "RatFun":
        return _coerce(other) / self

    # --- order (total, compatible with the field operations)

    def __lt__(self, other) -> bool:
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - _coerce(other)).sign() >= 0

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
    """Order of f and g in the field: -1 (less), 0 (equal), or 1 (greater)."""
    return (f - g).sign()


def valstar(f: RatFun, scale: int = 1) -> Optional[Rat]:
    """Dual valuation: the leading exponent of f, divided by the exponent
    scale factor recorded when the input data was pre-scaled.

    Returns None for f = 0 (standing for minus infinity).
    """
    if f.is_zero():
        return None
    return Fraction(_pdeg(f.num) - _pdeg(f.den), scale)


def sign_threshold(f: RatFun) -> Rat:
    """A rational tau with sign(f(t0)) = sign(f) for every rational t0 > tau.

    Cauchy root bounds of numerator and denominator: beyond both, each factor
    carries the sign of its leading coefficient.
    """
    return max(_pcauchy(f.num), _pcauchy(f.den))


def of_eval_at(f: RatFun, t0: Rat) -> tuple[Rat, Rat]:
    """Exact value f(t0) together with the stability threshold tau(f).

    For every rational t0 > tau(f), sign(f(t0)) = sign(f).
    """
    t0 = Fraction(t0)
    d = _peval(f.den, t0)
    if d == 0:
        raise PoleError(f"pole at t0 = {t0}")
    return _peval(f.num, t0) / d, sign_threshold(f)


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
    return [ratfun_of_zpoly(num) / ratfun_of_zpoly(den) for num in nums]


# ---------------------------------------------------------------------------
# rows cleared to the integer rings of the LP kernel

def clear_rat_row(values: Sequence[Rat]) -> tuple:
    """Integer row proportional to a row of rationals, by the positive factor
    of the lcm of the denominators."""
    m = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (m // v.denominator) for v in values)


def clear_ratfun_row(values: Sequence[RatFun]) -> tuple:
    """Integer-polynomial row proportional to a row of rational functions.

    The factor, the product of the (monic) denominators times the lcm of the
    coefficient denominators, is positive in the field, so every sign and
    every kernel is unchanged.  When every denominator is a monomial t^k_i,
    the product is t^K with K = sum(k_i), and the cleared entry is the
    numerator shifted by K - k_i.
    """
    if all(not any(v.den[:-1]) for v in values):
        ks = [_pdeg(v.den) for v in values]
        K = sum(ks)
        m = lcm(*(co.denominator for v in values for co in v.num))
        return tuple(
            {e + K - k: int(co * m) for e, co in enumerate(v.num) if co}
            for v, k in zip(values, ks)
        )
    full = RF_ONE
    for v in values:
        full = full * RatFun(v.den)
    cleared = [v * full for v in values]
    m = lcm(*(co.denominator for c in cleared for co in c.num))
    return tuple({e: int(co * m) for e, co in enumerate(c.num) if co} for c in cleared)


def ratfun_of_zpoly(p: ZPoly) -> RatFun:
    """The integer polynomial p as a rational function."""
    return RatFun([p.get(e, 0) for e in range(max(p) + 1)]) if p else RF_ZERO


# ---------------------------------------------------------------------------
# serialization

def ratfun_to_json(f: RatFun) -> dict:
    return {
        "num": [rat_to_str(c) for c in f.num],
        "den": [rat_to_str(c) for c in f.den],
    }


def ratfun_from_json(obj: dict) -> RatFun:
    return RatFun([Fraction(c) for c in obj["num"]], [Fraction(c) for c in obj["den"]])
