"""Tropical primitives on the sum-zero hyperplane.

Points live on H = {x : x_1 + ... + x_n = 0}, the canonical representatives
of tropical projective space under the all-ones translation.  The asymmetric
distance, its symmetric companion, two-site tropical halfspaces, hull
membership via the max-plus projection, and tropical sign genericity of
matrix pairs all operate on exact rational data.

Max convention throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Sequence

from .exactnum import Rat, rat_from_str, rat_to_str

_RatLike = (int, Fraction)


@dataclass(frozen=True)
class HPoint:
    """A point on H: exact rational coordinates summing to zero."""

    coords: tuple

    def __init__(self, coords: Sequence) -> None:
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) < 2:
            raise ValueError("need n >= 2")
        if sum(cs) != 0:
            raise ValueError("coordinates must sum to zero")
        object.__setattr__(self, "coords", cs)

    @property
    def n(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Rat:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def translate(self, v: "HPoint") -> "HPoint":
        return HPoint([a + b for a, b in zip(self.coords, v.coords)])

    def scale(self, lam) -> "HPoint":
        lam = Fraction(lam)
        return HPoint([lam * c for c in self.coords])


def normalize_to_H(v: Sequence) -> HPoint:
    """The representative of v + R*(1,...,1) with zero coordinate sum."""
    cs = [Fraction(c) for c in v]
    if len(cs) < 2:
        raise ValueError("need n >= 2")
    mean = sum(cs) / len(cs)
    return HPoint([c - mean for c in cs])


def asym_distance(a: HPoint, b: HPoint) -> Rat:
    """Asymmetric tropical distance from a to b."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    diffs = [bi - ai for ai, bi in zip(a.coords, b.coords)]
    return sum(diffs) - a.n * min(diffs)


def sym_distance(a: HPoint, b: HPoint) -> Rat:
    """Symmetric tropical distance: the range of the coordinate differences."""
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    diffs = [ai - bi for ai, bi in zip(a.coords, b.coords)]
    return max(diffs) - min(diffs)


@dataclass(frozen=True)
class TropicalHalfspace:
    """{x : max_{i in I}(c_i + x_i) <= max_{j in J}(d_j + x_j)}.

    I and J partition the coordinate set and are both nonempty; coefficients
    are aligned with the sorted index tuples.
    """

    I: tuple
    c: tuple
    J: tuple
    d: tuple

    def __init__(self, I: Sequence[int], c: Sequence, J: Sequence[int], d: Sequence) -> None:
        Is = tuple(sorted(int(i) for i in I))
        Js = tuple(sorted(int(j) for j in J))
        cs = tuple(Fraction(x) for _, x in sorted(zip(I, c)))
        ds = tuple(Fraction(x) for _, x in sorted(zip(J, d)))
        if not Is or not Js:
            raise ValueError("both index sets must be nonempty")
        if set(Is) & set(Js) or set(Is) | set(Js) != set(range(len(Is) + len(Js))):
            raise ValueError("index sets must partition the coordinates")
        if len(cs) != len(Is) or len(ds) != len(Js):
            raise ValueError("coefficient count mismatch")
        object.__setattr__(self, "I", Is)
        object.__setattr__(self, "c", cs)
        object.__setattr__(self, "J", Js)
        object.__setattr__(self, "d", ds)

    @property
    def n(self) -> int:
        return len(self.I) + len(self.J)


def halfspace_from_pair(a: HPoint, b: HPoint) -> TropicalHalfspace:
    """The halfspace of points at most as far from a as from b.

    Left side collects I = {i : a_i < b_i} with coefficients -a_i, right side
    the complement with -b_j; ties land on the right.
    """
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    if a.coords == b.coords:
        raise ValueError("coincident sites")
    I = [i for i in range(a.n) if a[i] < b[i]]
    J = [j for j in range(a.n) if a[j] >= b[j]]
    # distinct points on H differ in both directions
    assert I and J
    return TropicalHalfspace(I, [-a[i] for i in I], J, [-b[j] for j in J])


def halfspace_contains(h: TropicalHalfspace, x: HPoint) -> bool:
    if h.n != x.n:
        raise ValueError("dimension mismatch")
    left = max(ci + x[i] for i, ci in zip(h.I, h.c))
    right = max(dj + x[j] for j, dj in zip(h.J, h.d))
    return left <= right


def tconv_membership(x: HPoint, V: Sequence[HPoint]) -> bool:
    """Is x in the tropical convex hull of V?"""
    V = list(V)
    if not V:
        raise ValueError("empty V")
    for v in V:
        if v.n != x.n:
            raise ValueError("dimension mismatch")
    return _in_tconv(x.coords, [v.coords for v in V])


def _in_tconv(x: tuple, V: Sequence[tuple]) -> bool:
    """Hull membership on plain coordinate tuples of one length, V nonempty.

    Projects x onto the hull: P(x) = max over v of (lambda_v + v) with
    lambda_v = min_j(x_j - v_j).  The projection is the hull point closest to
    x, and membership is P(x) = x up to the all-ones translation.  P(x) <= x
    in every coordinate, so P(x) = x + c(1, ..., 1) forces c = 0 and P(x) is
    compared with x as it is, without normalising.  Adding a constant to any
    point, or scaling every point by the same positive number, keeps the
    answer, so the points need not lie on H and may be integers at a common
    scale.
    """
    lams = [min(xj - vj for xj, vj in zip(x, v)) for v in V]
    return all(max(lam + v[i] for lam, v in zip(lams, V)) == xi for i, xi in enumerate(x))


# ---------------------------------------------------------------------------
# tropical sign genericity

@dataclass(frozen=True)
class SignMatrixPair:
    """Matrices over Rat with None encoding minus infinity, equal shape."""

    Aminus: tuple
    Aplus: tuple

    def __init__(self, Aminus, Aplus) -> None:
        am = tuple(tuple(None if e is None else Fraction(e) for e in row) for row in Aminus)
        ap = tuple(tuple(None if e is None else Fraction(e) for e in row) for row in Aplus)
        if len(am) != len(ap) or any(len(r) != len(s) for r, s in zip(am, ap)):
            raise ValueError("shape mismatch")
        if not am or not am[0]:
            raise ValueError("empty matrix")
        if any(len(r) != len(am[0]) for r in am):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "Aminus", am)
        object.__setattr__(self, "Aplus", ap)

    @property
    def shape(self) -> tuple:
        return (len(self.Aminus), len(self.Aminus[0]))


def sign_matrix_pair(a: HPoint, others: Sequence[HPoint]) -> SignMatrixPair:
    """The matrix pair whose tropical polyhedron is the region of a.

    Row for each competing site b: -a_k on the left matrix where a_k < b_k,
    -b_k on the right matrix elsewhere, mirroring the two sides of the
    halfspace h(a,b); in general position ties never occur and the supports
    are complementary.
    """
    am, ap = [], []
    for b in others:
        if b.n != a.n:
            raise ValueError("dimension mismatch")
        am.append([-a[k] if a[k] < b[k] else None for k in range(a.n)])
        ap.append([-b[k] if a[k] >= b[k] else None for k in range(a.n)])
    return SignMatrixPair(am, ap)


def _tdet(M, rows, cols) -> Optional[Rat]:
    """Tropical determinant of a square submatrix; None is minus infinity."""
    best = None
    for perm in permutations(cols):
        total = Fraction(0)
        ok = True
        for r, c in zip(rows, perm):
            e = M[r][c]
            if e is None:
                ok = False
                break
            total += e
        if ok and (best is None or total > best):
            best = total
    return best


def sign_genericity(p: SignMatrixPair) -> bool:
    """True when no equal-size row and column subsets witness a three-way
    tropical determinant tie between the pair and its entrywise maximum."""
    m, n = p.shape
    if m > 8 or n > 8:
        raise ValueError("matrix too large")
    amax = tuple(
        tuple(
            e1 if e2 is None else e2 if e1 is None else max(e1, e2)
            for e1, e2 in zip(r1, r2)
        )
        for r1, r2 in zip(p.Aminus, p.Aplus)
    )
    for k in range(1, min(m, n) + 1):
        for B in combinations(range(m), k):
            for K in combinations(range(n), k):
                tm = _tdet(p.Aminus, B, K)
                if tm is None:
                    continue
                tp = _tdet(p.Aplus, B, K)
                if tp is None or tp != tm:
                    continue
                ta = _tdet(amax, B, K)
                if ta == tm:
                    return False
    return True


# ---------------------------------------------------------------------------
# serialization

def hpoint_to_json(p: HPoint) -> list:
    return [rat_to_str(c) for c in p.coords]


def hpoint_from_json(data: Sequence) -> HPoint:
    return HPoint([rat_from_str(s) for s in data])


def halfspace_to_json(h: TropicalHalfspace) -> dict:
    return {
        "I": list(h.I),
        "c": [rat_to_str(x) for x in h.c],
        "J": list(h.J),
        "d": [rat_to_str(x) for x in h.d],
    }


def halfspace_from_json(data: dict) -> TropicalHalfspace:
    return TropicalHalfspace(
        [int(i) for i in data["I"]],
        [rat_from_str(s) for s in data["c"]],
        [int(j) for j in data["J"]],
        [rat_from_str(s) for s in data["d"]],
    )
