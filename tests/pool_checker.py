"""Test-only reference: the lift certificate's sampling checker.

This is how tropvor.lift.verify_lift checked containment before it read the
one image of each power region off its ray images.  It builds a pool of
positive ray combinations in RatFun arithmetic (the ray sum, the sum plus a
multiple of each ray, and three random combinations when rng is given), maps
each member through valstar and tests it against the matching Voronoi
region.  The tests compare verify_lift's reports against it byte for byte.
"""

from __future__ import annotations

from math import lcm
from random import Random
from typing import Optional

from tropvor._lp import ThresholdLedger
from tropvor.lift import (
    OFVector,
    _contains_extended,
    lift_valstar,
    monomial_lift,
    of_polyhedron_generators,
    power_diagram_poset,
    power_region,
)
from tropvor.sites import SiteSet, check_general_position
from tropvor.tropcore import normalize_to_H
from tropvor.voronoi import region, region_contains, sufficiently_generic, voronoi_diagram


def _scalar_mul(k: int, v: OFVector) -> OFVector:
    return OFVector([c * k for c in v.coords], v.scale)


def _vec_add(a: OFVector, b: OFVector) -> OFVector:
    return OFVector([x + y for x, y in zip(a.coords, b.coords)], a.scale)


def verify_lift(
    S: SiteSet,
    ledger: Optional[ThresholdLedger] = None,
    rng: Optional[Random] = None,
) -> dict:
    """Cross-check the lifted power diagram against the tropical diagram.

    The verdict covers (i) label-wise poset equality, (ii) valstar images of
    positive samples from each power region landing in the matching Voronoi
    region, and (iii) the same for the extreme rays, in the extended sense
    that tolerates minus-infinite coordinates.  The base sample pool is
    deterministic; rng widens it with random nonnegative ray combinations.
    """
    gp, _ = check_general_position(S)
    if not gp:
        ok, _ = sufficiently_generic(S)
        if not ok:
            raise ValueError("precondition: genericity")

    scale = lcm(*(c.denominator for s in S for c in s.coords))
    lifts = [monomial_lift(s, scale) for s in S]

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
        r_trop = region(S, a)
        if not rays:
            continue
        sigma = rays[0]
        for r in rays[1:]:
            sigma = _vec_add(sigma, r)
        pool = [sigma] + [_vec_add(sigma, _scalar_mul(k + 2, r)) for k, r in enumerate(rays)]
        if rng is not None:
            for _ in range(3):
                x = sigma
                for r in rays:
                    x = _vec_add(x, _scalar_mul(rng.randrange(5), r))
                pool.append(x)
        for x in pool:
            if any(c.sign() <= 0 for c in x.coords):
                continue
            samples += 1
            vals = lift_valstar(x)
            pt = normalize_to_H(vals)
            if not region_contains(r_trop, pt):
                failures.append(f"sample of region {a}: valstar {list(map(str, vals))} escapes")
        for r in rays:
            vals = lift_valstar(r)
            for h in r_trop.halfspaces:
                if not _contains_extended(h, vals):
                    failures.append(f"ray of region {a}: valstar {list(map(str, vals))} escapes")
                    break

    return {
        "isomorphic": isomorphic,
        "cells_tropical": len(trop.cells),
        "cells_lifted": len(lifted.cells),
        "containment_samples": samples,
        "failures": failures,
    }
