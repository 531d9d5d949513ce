"""Test-only reference: rational functions over dense Fraction polynomials.

This is the field arithmetic tropvor.exactnum used before RatFun moved to
integer polynomials: polynomials are Fraction tuples, lowest degree first,
with no trailing zeros, reduced by the Euclidean gcd over Q[t], and a
rational function is stored with a monic denominator.  The tests compare
the integer-polynomial RatFun, its gcd and its row clearing against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def pnorm(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pfrom(obj) -> tuple:
    if isinstance(obj, (int, Fraction)):
        return pnorm([Fraction(obj)])
    return pnorm(Fraction(c) for c in obj)


def padd(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return pnorm(out)


def pneg(p: tuple) -> tuple:
    return tuple(-c for c in p)


def pmul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return pnorm(out)


def pscale(p: tuple, c: Fraction) -> tuple:
    if c == 0:
        return ()
    return tuple(a * c for a in p)


def pdivmod(p: tuple, q: tuple) -> tuple:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    qd, qlc = len(q) - 1, q[-1]
    quo = [_ZERO] * max(len(p) - len(q) + 1, 0)
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + qd] / qlc
        if c == 0:
            continue
        quo[k] = c
        for j, b in enumerate(q):
            rem[k + j] -= c * b
    return pnorm(quo), pnorm(rem)


def pgcd(p: tuple, q: tuple) -> tuple:
    """Euclidean algorithm; the result is monic (or the zero polynomial)."""
    while q:
        p, q = q, pdivmod(p, q)[1]
    if not p:
        return ()
    return pscale(p, 1 / p[-1])


def pcauchy(p: tuple) -> Fraction:
    if not p:
        return _ONE
    lead = abs(p[-1])
    return _ONE + max((abs(c) / lead for c in p[:-1]), default=_ZERO)


@dataclass(frozen=True)
class DenseRatFun:
    """A reduced rational function num/den with monic denominator."""

    num: tuple
    den: tuple

    def __init__(self, num=(1,), den=(1,)):
        num, den = pfrom(num), pfrom(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = (_ONE,)
        else:
            g = pgcd(num, den)
            if len(g) > 1:
                num, den = pdivmod(num, g)[0], pdivmod(den, g)[0]
            lc = den[-1]
            num, den = pscale(num, 1 / lc), pscale(den, 1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def sign(self) -> int:
        if not self.num:
            return 0
        return 1 if self.num[-1] > 0 else -1

    def __add__(self, other):
        return DenseRatFun(padd(pmul(self.num, other.den), pmul(other.num, self.den)), pmul(self.den, other.den))

    def __neg__(self):
        return DenseRatFun(pneg(self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return DenseRatFun(pmul(self.num, other.num), pmul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return DenseRatFun(pmul(self.num, other.den), pmul(self.den, other.num))


def dense_sign_threshold(f: DenseRatFun) -> Fraction:
    return max(pcauchy(f.num), pcauchy(f.den))
