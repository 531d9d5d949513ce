"""Site sets, general position, signature-cone reduction, lattice windows.

A site set is an ordered list of distinct points on H whose indices act as
stable identifiers for every downstream label.  The signature reduction
shrinks the competitor list of one site to the finitely many neighbors whose
halfspaces already cut out its region.  Lattice windows replace the infinite
lattices: a finite box of lattice points together with a certificate that
every signature cone around the origin is witnessed, which is exactly the
condition making the central region independent of any further window growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import lcm
from typing import Optional, Sequence

from ._lp import INT_RING, lp_cramer, lp_rank
from .exactnum import clear_rat_row, int_from_str
from .tropcore import HPoint, hpoint_from_json, hpoint_to_json

# Size caps of the exponential enumerations, set here for every module: sites
# per diagram, lifts per poset, dimension, and rows per lifted polyhedron.
SITE_CAP = 12
LIFT_CAP = 12
DIM_CAP = 5
GEN_CONSTRAINT_CAP = 20


@dataclass(frozen=True)
class SiteSet:
    sites: tuple
    n: int

    def __init__(self, sites: Sequence[HPoint]) -> None:
        pts = tuple(sites)
        if not pts:
            raise ValueError("need at least one site")
        n = pts[0].n
        if any(p.n != n for p in pts):
            raise ValueError("dimension mismatch")
        if len({p.coords for p in pts}) != len(pts):
            raise ValueError("sites must be distinct")
        object.__setattr__(self, "sites", pts)
        object.__setattr__(self, "n", n)

    @cached_property
    def scale(self) -> int:
        """L, the lcm of every coordinate denominator: every site times L is
        integral.  Derived on first use, not at construction."""
        return lcm(*(c.denominator for p in self.sites for c in p.coords))

    @cached_property
    def scaled(self) -> tuple:
        """Each site's coordinates times scale, as ints."""
        L = self.scale
        return tuple(
            tuple(c.numerator * (L // c.denominator) for c in p.coords) for p in self.sites
        )

    def __len__(self) -> int:
        return len(self.sites)

    def __getitem__(self, i: int) -> HPoint:
        return self.sites[i]

    def __iter__(self):
        return iter(self.sites)


def sites_to_json(S: SiteSet) -> dict:
    return {"n": S.n, "sites": [hpoint_to_json(p) for p in S.sites]}


def sites_from_json(data: dict) -> SiteSet:
    pts = [hpoint_from_json(row) for row in data["sites"]]
    S = SiteSet(pts)
    if S.n != int_from_str(data["n"]):
        raise ValueError("dimension mismatch")
    return S


def check_general_position(S: SiteSet):
    """All coordinates differ for every site pair.

    Returns (True, None) or (False, (a, b, coordinate)) with one witness.
    """
    for i in range(len(S)):
        for j in range(i + 1, len(S)):
            a, b = S[i], S[j]
            for k in range(S.n):
                if a[k] == b[k]:
                    return False, (a, b, k)
    return True, None


def nondominated(G: Sequence) -> list:
    """Componentwise-maximal vectors of G, first appearances only.

    A vector is kept when no vector of a different value dominates it weakly;
    duplicate values collapse to their first appearance.
    """
    vecs = [tuple(Fraction(c) for c in g) for g in G]
    if vecs and any(len(v) != len(vecs[0]) for v in vecs):
        raise ValueError("dimension mismatch")
    keep = _nondominated_indices(vecs)
    return [G[i] for i in keep]


def _nondominated_indices(vecs: list) -> list:
    seen = set()
    out = []
    for i, x in enumerate(vecs):
        if x in seen:
            continue
        seen.add(x)
        if any(y != x and all(a <= b for a, b in zip(x, y)) for y in vecs):
            continue
        out.append(i)
    return out


def signature_reduce(S: SiteSet, s: int) -> list:
    """Indices of the sites whose halfspaces suffice to cut out region s.

    After translating site s to the origin, the remaining sites fall into the
    2^n - 2 half-open signature cones (strictly positive on I, nonpositive on
    the complement J).  Within one cone all halfspaces share the left index
    set I, and h(s,a) is contained in h(s,b) exactly when the J-projection of
    b is dominated by that of a; so the cone contributes one site per maximal
    J-projection.  The kept indices satisfy
    intersection over T of h(s,t) = intersection over all b of h(s,b).
    The cones and dominances are read on the integer sites S.scaled: a
    positive scaling keeps every sign and every comparison.
    """
    if not 0 <= s < len(S):
        raise ValueError("site index out of range")
    rows = S.scaled
    origin = rows[s]
    cones: dict = {}
    for idx, row in enumerate(rows):
        if idx == s:
            continue
        v = tuple(b - a for a, b in zip(origin, row))
        I = tuple(i for i in range(S.n) if v[i] > 0)
        cones.setdefault(I, []).append((idx, v))
    kept: list = []
    for I, members in cones.items():
        J = [j for j in range(S.n) if j not in I]
        proj = [tuple(v[j] for j in J) for _, v in members]
        for local in _nondominated_indices(proj):
            kept.append(members[local][0])
    return sorted(kept)


# ---------------------------------------------------------------------------
# lattice windows

@dataclass(frozen=True)
class LatticeWindow:
    basis: tuple
    radius: int
    n: int
    scale: int

    def __init__(self, basis: Sequence[HPoint], radius: int, n: Optional[int] = None) -> None:
        bs = tuple(basis)
        if radius < 1:
            raise ValueError("radius must be positive")
        if bs:
            dim = bs[0].n
            if any(p.n != dim for p in bs):
                raise ValueError("invalid basis")
            if n is not None and n != dim:
                raise ValueError("invalid basis")
            if lp_rank([clear_rat_row(p.coords) for p in bs], INT_RING) != len(bs):
                raise ValueError("invalid basis")
            n = dim
        elif n is None:
            raise ValueError("need n for an empty basis")
        denoms = [c.denominator for p in bs for c in p.coords]
        object.__setattr__(self, "basis", bs)
        object.__setattr__(self, "radius", int(radius))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "scale", lcm(*denoms) if denoms else 1)


def lattice_to_json(L: LatticeWindow) -> dict:
    return {
        "n": L.n,
        "basis": [hpoint_to_json(p) for p in L.basis],
        "radius": L.radius,
    }


def lattice_from_json(data: dict) -> LatticeWindow:
    try:
        basis = [hpoint_from_json(row) for row in data["basis"]]
    except ValueError as exc:
        raise ValueError("invalid basis") from exc
    return LatticeWindow(basis, int_from_str(data["radius"]), n=int_from_str(data["n"]))


@dataclass(frozen=True)
class WindowReport:
    """Sufficiency certificate for a lattice window.

    sufficient is true when every signature cone around the origin contains a
    window point; empty_cones lists the positive-support sets I of the cones
    missed.  Once sufficient, growing the radius cannot change the region of
    the origin computed from the window.
    """

    sufficient: bool
    empty_cones: tuple


def lattice_points(L: LatticeWindow):
    """All lattice combinations with every coordinate in [-B, B].

    Returns (SiteSet, WindowReport); the origin is site 0, the rest is sorted
    by coordinates.  The search runs on the basis times L.scale, as ints,
    against the bound B * L.scale: a positive scaling keeps every comparison
    and the coordinate order, so only the kept points become Fractions.
    """
    scale = L.scale
    B = L.radius * scale
    points = {(0,) * L.n}
    if L.basis:
        m = len(L.basis)
        basis = [[c.numerator * (scale // c.denominator) for c in b] for b in L.basis]
        # coordinate j of the combination sum(k_i * b_i) as a function of k
        M = [[basis[i][j] for i in range(m)] for j in range(L.n)]
        # on the first m independent rows A of M (they exist, the basis is
        # independent) k = A^-1 y with every |y_j| <= B, so the exact bound
        # is |k_i| <= sum_j |A^-1[i][j]| * B; column j of A^-1 solves A x = e_j
        A: list = []
        for row in M:
            if lp_rank(A + [row], INT_RING) > len(A):
                A.append(row)
                if len(A) == m:
                    break
        bounds = [Fraction(0)] * m
        for j in range(m):
            nums, den = lp_cramer([r + [int(i == j)] for i, r in enumerate(A)], INT_RING)
            for i in range(m):
                bounds[i] += abs(Fraction(nums[i], den)) * B
        ranges = [range(-int(b), int(b) + 1) for b in bounds]
        for ks in product(*ranges):
            coords = tuple(sum(k * b[j] for k, b in zip(ks, basis)) for j in range(L.n))
            if all(-B <= c <= B for c in coords):
                points.add(coords)
    origin = (0,) * L.n
    ordered = [origin] + sorted(points - {origin})
    S = SiteSet([HPoint([Fraction(c, scale) for c in u]) for u in ordered])

    occupied = set()
    for c in ordered[1:]:
        occupied.add(tuple(i for i in range(L.n) if c[i] > 0))
    missing = []
    for size in range(1, L.n):
        for I in combinations(range(L.n), size):
            if I not in occupied:
                missing.append(I)
    return S, WindowReport(not missing, tuple(missing))

