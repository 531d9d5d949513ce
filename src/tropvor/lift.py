"""Monomial lifts and farthest power diagrams over the ordered field.

A site s on H lifts to the vector of monomials t^(-scale*s_i), a point with
positive coordinates whose product is 1.  With the squared-norm weight, the
farthest power comparison between two lifted sites collapses to one linear
inequality sum((a_i - b_i) x_i) <= 0, so every power region is a polyhedral
cone inside the nonnegative orthant, and the whole diagram is ordinary
polyhedral geometry over the field of rational functions ordered at
t -> +infinity.

The poset computation runs over the fraction-free LP kernel twice: with
polynomial entries for the symbolic answer, and after instantiating t at a
rational t0 with integer entries.  A ThresholdLedger threaded through the
symbolic run records a Cauchy root bound for every sign the solver consults;
any t0 above all recorded bounds makes every instantiated decision agree with
its symbolic counterpart, which reproduces the poset exactly.  That is the
certificate the acceptance checks rely on.

Per-coordinate leading exponents (valstar) translate field data back to the
tropical side: lifted sites map to their negated tropical sites, positive
points of a power region map into the matching Voronoi region.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from random import Random
from typing import Optional, Sequence, Union

from ._lp import (
    INT_RING,
    POLY_RING,
    PolyRing,
    ThresholdLedger,
    ZPoly,
    lp_affine_dim,
    lp_det,
    lp_strictly_feasible,
    zp_add,
    zp_content,
    zp_exact_div,
    zp_gcd,
    zp_mul,
    zp_neg,
    zp_sign,
)
from .exactnum import (
    RF_ZERO,
    Rat,
    RatFun,
    clear_rat_row,
    clear_ratfun_row,
    of_eval_at,
    ratfun_of_zpoly,
    valstar,
)
from .sites import DIM_CAP, GEN_CONSTRAINT_CAP, LIFT_CAP, SiteSet
from .tropcore import HPoint, TropicalHalfspace, halfspace_from_pair
from .voronoi import diagram_to_json, label_lattice, sufficiently_generic, voronoi_diagram


Scalar = Union[RatFun, Fraction]


# ---------------------------------------------------------------------------
# field-valued vectors and halfspaces

@dataclass(frozen=True)
class OFVector:
    """Vector over the field, with the exponent scale used by valstar."""

    coords: tuple
    scale: int = 1

    def __init__(self, coords: Sequence[Scalar], scale: int = 1) -> None:
        cs = tuple(coords)
        if not cs:
            raise ValueError("need at least one coordinate")
        if scale < 1:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "coords", cs)
        object.__setattr__(self, "scale", int(scale))

    @property
    def n(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class OFHalfspace:
    """The linear halfspace {x : sum(coefficients_i * x_i) <= 0}.

    Every power halfspace passes through the origin; offset is that constant
    zero, kept readable.
    """

    coefficients: OFVector
    offset = RF_ZERO


@dataclass(frozen=True)
class OFPolyhedron:
    """The cone cut out of the nonnegative orthant of the field by linear
    halfspaces; include_orthant is that constant True, kept readable."""

    n: int
    halfspaces: tuple
    include_orthant = True

    @property
    def scale(self) -> int:
        return self.halfspaces[0].coefficients.scale if self.halfspaces else 1


def monomial_lift(s: HPoint, scale: int = 1) -> OFVector:
    """Lift a site to per-coordinate monomials t^(-scale * s_i)."""
    coords = []
    for c in s.coords:
        e = -scale * c
        if e.denominator != 1:
            raise ValueError("non-integral after scaling")
        coords.append(RatFun.t_power(int(e)))
    return OFVector(coords, scale)


def lift_valstar(v: OFVector) -> tuple:
    """Leading exponents of the coordinates, None standing for zero."""
    return tuple(valstar(c, v.scale) for c in v.coords)


def power_halfspace(a_lift: OFVector, b_lift: OFVector) -> OFHalfspace:
    """The halfspace of points at least as far (in power) from a as from b."""
    if a_lift.n != b_lift.n:
        raise ValueError("dimension mismatch")
    if a_lift.scale != b_lift.scale:
        raise ValueError("mismatched exponent scales")
    if a_lift.coords == b_lift.coords:
        raise ValueError("coincident lifts")
    deltas = tuple(x - y for x, y in zip(a_lift.coords, b_lift.coords))
    return OFHalfspace(OFVector(deltas, a_lift.scale))


def power_region(lifts: Sequence[OFVector], a: int) -> OFPolyhedron:
    lifts = list(lifts)
    if len(set(v.coords for v in lifts)) != len(lifts):
        raise ValueError("coincident lifts")
    hs = [power_halfspace(lifts[a], b) for i, b in enumerate(lifts) if i != a]
    return OFPolyhedron(lifts[a].n, tuple(hs))


# ---------------------------------------------------------------------------
# generator enumeration over the field

def _as_ratfun(c: Scalar) -> RatFun:
    return c if isinstance(c, RatFun) else RatFun.from_rat(c)


def _zp_dot_sign(row, d) -> int:
    acc: ZPoly = {}
    for rc, dc in zip(row, d):
        if rc and dc:
            acc = zp_add(acc, zp_mul(rc, dc))
    return zp_sign(acc)


def _kernel_direction(rows, n) -> Optional[list]:
    """Kernel generator of an (n-1) x n integer-polynomial system, if any.

    Cramer minors: d_j = (-1)^j det(rows without column j).  The vector is
    nonzero exactly when the rank is n - 1, and then it spans the kernel.
    """
    d = []
    for j in range(n):
        det = lp_det([[row[c] for c in range(n) if c != j] for row in rows], POLY_RING)
        d.append(zp_neg(det) if j % 2 else det)
    return d if any(d) else None


def _primitive(d: Sequence[ZPoly]) -> tuple:
    """Canonical representative of the ray through the nonzero direction d.

    It is d/d_last with denominators cleared, d_last being the last nonzero
    coordinate: with g_j a gcd of d_j and d_last (j != last, d_j != 0), the
    product of the d_last/g_j clears every d_j/d_last.  Integer content is
    removed and the result is a positive multiple of d.
    """
    last = max(i for i, p in enumerate(d) if p)
    dl = d[last]
    parts = {}
    for j, p in enumerate(d):
        if p and j != last:
            g = zp_gcd(p, dl)
            parts[j] = (zp_exact_div(p, g), zp_exact_div(dl, g))
    out = []
    for i, p in enumerate(d):
        if not p:
            out.append({})
            continue
        acc = parts[i][0] if i != last else {0: 1}
        for j, (_, q) in parts.items():
            if j != i:
                acc = zp_mul(acc, q)
        out.append(acc)
    g = gcd(*(zp_content(p) for p in out))
    if zp_sign(out[last]) != zp_sign(dl):
        g = -g
    return tuple(ratfun_of_zpoly({e: c // g for e, c in p.items()}) for p in out)


def of_polyhedron_generators(P: OFPolyhedron):
    """The vertex and the extreme rays of a cone in the orthant.

    The orthant rows have rank n, so the origin is the one vertex.  A ray
    spans the kernel of n - 1 rows and keeps every row; its direction comes
    from Cramer minors over integer-polynomial rows, so the enumeration never
    divides in the function field.  No nonzero direction is orthogonal to
    every -e_i, so the cone is pointed.
    """
    n = P.n
    if len(P.halfspaces) + n > GEN_CONSTRAINT_CAP or n > DIM_CAP:
        raise ValueError("size cap exceeded")
    zrows = [
        clear_ratfun_row([_as_ratfun(c) for c in h.coefficients.coords]) for h in P.halfspaces
    ]
    # the orthant, -x_i <= 0
    zrows += [tuple({0: -1} if j == i else {} for j in range(n)) for i in range(n)]

    rays: list = []
    seen_rays = set()
    for sub in combinations(range(len(zrows)), n - 1):
        d = _kernel_direction([zrows[i] for i in sub], n)
        if d is None:
            continue
        dots = [_zp_dot_sign(row, d) for row in zrows]
        if all(s >= 0 for s in dots):
            d = [zp_neg(p) for p in d]
        elif not all(s <= 0 for s in dots):
            continue
        key = _primitive(d)
        if key not in seen_rays:
            seen_rays.add(key)
            rays.append(key)
    rays.sort()

    scale = P.scale
    return [OFVector([RF_ZERO] * n, scale)], [OFVector(r, scale) for r in rays]


# ---------------------------------------------------------------------------
# the lifted diagram poset

@dataclass(frozen=True)
class PowerCell:
    label: tuple
    dim: int


@dataclass(frozen=True)
class PowerDiagram:
    cells: tuple
    order: tuple  # (child, parent) index pairs, child strictly inside parent


power_diagram_to_json = diagram_to_json


def instantiate_lifts(lifts: Sequence[OFVector], t0: Rat) -> list:
    """Evaluate every coordinate at the rational t0."""
    out = []
    for v in lifts:
        coords = [of_eval_at(c, t0)[0] for c in v.coords]
        out.append(OFVector(coords, v.scale))
    return out


def _power_walk(lifts: Sequence[OFVector], ledger: Optional[ThresholdLedger] = None):
    """The label-lattice walk over the farthest power diagram of the lifts,
    probing strict feasibility only: (labels, order, affine_dim), the
    canonical labels, their inclusion order, and the dimension of a cell."""
    lifts = list(lifts)
    if len(lifts) > LIFT_CAP:
        raise ValueError("size cap exceeded")
    if not lifts:
        raise ValueError("need at least one lift")
    n = lifts[0].n
    if n > DIM_CAP:
        raise ValueError("size cap exceeded")
    if any(v.n != n for v in lifts):
        raise ValueError("dimension mismatch")
    if len(set(v.coords for v in lifts)) != len(lifts):
        raise ValueError("coincident lifts")

    symbolic = isinstance(lifts[0].coords[0], RatFun)
    ring = PolyRing(ledger) if symbolic else INT_RING
    convert = clear_ratfun_row if symbolic else clear_rat_row
    zero = ring.zero

    # the cleared row of every ordered pair; the walk probes every singleton
    # label, which reads them all
    prow = {
        (i, j): convert([x - y for x, y in zip(a.coords, b.coords)])
        for i, a in enumerate(lifts)
        for j, b in enumerate(lifts)
        if i != j
    }

    # all-coordinates-distinct test, through ring.sign so the decisions are
    # covered by the ledger certificate
    gp = True
    for i, j in combinations(range(len(lifts)), 2):
        if any(ring.sign(c) == 0 for c in prow[i, j]):
            gp = False
            break

    orthant = []
    for i in range(n):
        coeffs = [zero] * n
        coeffs[i] = ring.sub(zero, ring.one)
        orthant.append((tuple(coeffs), zero))

    def cell_rows(label):
        a0 = label[0]
        eqs = [(prow[a0, b], zero) for b in label[1:]]
        les = [(prow[a0, b], zero) for b in range(len(lifts)) if b not in label]
        return eqs, les

    def probe(label) -> bool:
        eqs, les = cell_rows(label)
        return lp_strictly_feasible(n, eqs, orthant, les, ring)

    def contains(label, b: int) -> bool:
        # the cell lies in the power region of b when no lift is strictly
        # farther than b anywhere on it; label[0] is farthest on the whole
        # cell, so it is strictly farther than b wherever any lift is
        eqs, les = cell_rows(label)
        return not lp_strictly_feasible(n, eqs, [(prow[label[0], b], zero)], les + orthant, ring)

    def affine_dim(label) -> int:
        eqs, les = cell_rows(label)
        return lp_affine_dim(n, eqs, les + orthant, ring)

    labels, order = label_lattice(len(lifts), gp, n, probe, contains)
    return [key for key, _ in labels], order, affine_dim


def power_diagram_poset(
    lifts: Sequence[OFVector], ledger: Optional[ThresholdLedger] = None
) -> PowerDiagram:
    """All cells of the farthest power diagram with canonical labels.

    A label is kept when its cone meets the open orthant, where the leading
    exponents define a genuine tropical point.  Labels are canonicalized the
    same way as on the tropical side: the label of a cell is every site whose
    power region contains it.  With pairwise distinct coordinates everywhere
    the enumerated label is already canonical and the size-n bound applies.
    """
    labels, order, affine_dim = _power_walk(lifts, ledger)
    return PowerDiagram(tuple(PowerCell(label, affine_dim(label)) for label in labels), order)


# ---------------------------------------------------------------------------
# the correspondence checker

def _contains_extended(h: TropicalHalfspace, vals: Sequence[Optional[Rat]]) -> bool:
    """Halfspace membership for points with possibly absent (minus-infinite)
    coordinates; shift invariance makes normalization unnecessary."""
    left = [c + vals[i] for i, c in zip(h.I, h.c) if vals[i] is not None]
    right = [d + vals[j] for j, d in zip(h.J, h.d) if vals[j] is not None]
    if not left:
        return True
    if not right:
        return False
    return max(left) <= max(right)


def verify_lift(
    S: SiteSet,
    ledger: Optional[ThresholdLedger] = None,
    rng: Optional[Random] = None,
) -> dict:
    """Cross-check the lifted power diagram against the tropical diagram.

    The verdict covers (i) label-wise poset equality, (ii) the valstar image
    of the positive points of each power region landing in the matching
    Voronoi region, and (iii) the same for its extreme rays, in the extended
    sense that tolerates minus-infinite coordinates.  The rays lie in the
    closed orthant, so no leading terms cancel in a positive combination of
    them: every positive point of the region has the same image, the
    componentwise maximum of the ray images, and such points exist exactly
    when that maximum has no absent coordinate.  That one image is checked
    once and counted for the sampling pool it stands for: the sum of the
    rays, that sum plus each ray again, and three random combinations when
    rng is given.  rng draws nothing; it only adds the three.  Images are
    tested against the halfspaces h(a, b) of every other site b, whose
    intersection is the Voronoi region of a by definition; membership is
    shift-invariant, so no image is normalised.
    """
    ok, _ = sufficiently_generic(S)
    if not ok:
        raise ValueError("precondition: genericity")

    lifts = [monomial_lift(s, S.scale) for s in S]

    trop = voronoi_diagram(S)
    lifted = power_diagram_poset(lifts, ledger=ledger)
    isomorphic = [c.label for c in trop.cells] == [
        c.label for c in lifted.cells
    ] and trop.order == lifted.order

    failures: list = []
    samples = 0
    for a in range(len(S)):
        P = power_region(lifts, a)
        _, rays = of_polyhedron_generators(P)
        if not rays:
            continue
        halfspaces = [halfspace_from_pair(S[a], S[b]) for b in range(len(S)) if b != a]
        images = [lift_valstar(r) for r in rays]
        top = tuple(
            max((v for v in col if v is not None), default=None) for col in zip(*images)
        )
        if None not in top:
            pool = 1 + len(rays) + (3 if rng is not None else 0)
            samples += pool
            if not all(_contains_extended(h, top) for h in halfspaces):
                failures += [f"sample of region {a}: valstar {list(map(str, top))} escapes"] * pool
        for vals in images:
            if not all(_contains_extended(h, vals) for h in halfspaces):
                failures.append(f"ray of region {a}: valstar {list(map(str, vals))} escapes")

    return {
        "isomorphic": isomorphic,
        "cells_tropical": len(trop.cells),
        "cells_lifted": len(lifted.cells),
        "containment_samples": samples,
        "failures": failures,
    }
