"""Test-only reference: the label-lattice walk over cell objects.

This is how tropvor ran its one label-lattice walk before the walk worked on
labels.  probe returned the cell of a label or None, contains took that
cell, and the walk returned the cells relabelled with dataclasses.replace;
in general position it returned the probed cells as they were, by a second
branch.  The lifted side wrapped each nonempty label in a placeholder cell,
_Walked, and read the cleared row of each ordered pair of lifts through a
lazy cache.  The tests compare both with the label walk: diagrams, their
JSON and pieces, power posets, hull complexes and the ledger.  Each cell was
searched from all of H over the choices of every site of its label, as
searched_cell does; the other references build their cells with it too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Optional, Sequence

from tropvor._lp import INT_RING, PolyRing, ThresholdLedger, lp_affine_dim, lp_strictly_feasible
from tropvor.exactnum import RatFun, clear_rat_row, clear_ratfun_row
from tropvor.lift import OFVector, PowerCell, PowerDiagram
from tropvor.sites import DIM_CAP, LIFT_CAP, SITE_CAP, SiteSet, check_general_position
from tropvor.voronoi import DiagramCell, VoronoiDiagram, _cell, _free, _inside, _site_table


def searched_cell(n: int, label, table: dict) -> tuple:
    """(cell, closure of each piece) of a sorted label, searched from all of
    H over the choices of every site of the label in a site table."""
    c, pieces, _ = _cell(n, label, [ch for s in label for ch in table[s]], [((), _free(n))])
    return c, [D for _, D in pieces]


def label_lattice(count: int, gp: bool, n: int, probe: Callable, contains: Callable):
    nonempty: dict = {}
    candidates = [(s,) for s in range(count)]
    for size in range(1, (min(count, n) if gp else count) + 1):
        frontier = []
        for label in candidates:
            c = probe(label)
            if c is not None:
                nonempty[label] = c
                frontier.append(label)
        grown = {
            tuple(sorted(label + (s,)))
            for label in frontier
            for s in range(count)
            if s not in label
        }
        candidates = [
            cand
            for cand in sorted(grown)
            if all(cand[:i] + cand[i + 1 :] in nonempty for i in range(size + 1))
        ]

    if gp:
        canonical = nonempty
    else:
        keys: dict = {}
        outside: set = set()
        for label in sorted(nonempty, key=len, reverse=True):
            key = set(label)
            for s in range(count):
                if s in label:
                    continue
                if (
                    tuple(sorted(label + (s,))) in nonempty
                    and not any((tuple(sorted(label + (x,))), s) in outside for x in range(count))
                    and contains(nonempty[label], s)
                ):
                    key.add(s)
                else:
                    outside.add((label, s))
            keys[label] = tuple(sorted(key))
        canonical = {}
        for label, c in sorted(nonempty.items()):
            if keys[label] not in canonical:
                canonical[keys[label]] = replace(c, label=keys[label])

    cells = tuple(canonical[key] for key in sorted(canonical, key=lambda k: (len(k), k)))
    index = {c.label: i for i, c in enumerate(cells)}
    order = []
    for a in cells:
        for b in cells:
            if a.label != b.label and set(a.label) > set(b.label):
                order.append((index[a.label], index[b.label]))
    return cells, tuple(sorted(order))


def voronoi_diagram(S: SiteSet) -> VoronoiDiagram:
    if len(S) > SITE_CAP:
        raise ValueError("instance too large")
    n = S.n
    gp, _ = check_general_position(S)
    _, choices = _site_table(S, range(len(S)))
    closures: dict = {}

    def probe(label) -> Optional[DiagramCell]:
        c, closures[label] = searched_cell(n, label, choices)
        return c if c.dim >= 0 else None

    def contains(c: DiagramCell, s: int) -> bool:
        return all(_inside(D, h) for D in closures[c.label] for h in choices[s])

    return VoronoiDiagram(*label_lattice(len(S), gp, n, probe, contains))


@dataclass(frozen=True)
class _Walked:
    label: tuple


def power_walk(lifts: Sequence[OFVector], ledger: Optional[ThresholdLedger] = None):
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

    cache: dict = {}

    def prow(i: int, j: int) -> tuple:
        key = (i, j)
        if key not in cache:
            deltas = [x - y for x, y in zip(lifts[i].coords, lifts[j].coords)]
            cache[key] = convert(deltas)
        return cache[key]

    gp = True
    for i, j in combinations(range(len(lifts)), 2):
        if any(ring.sign(c) == 0 for c in prow(i, j)):
            gp = False
            break

    orthant = []
    for i in range(n):
        coeffs = [zero] * n
        coeffs[i] = ring.sub(zero, ring.one)
        orthant.append((tuple(coeffs), zero))

    def cell_rows(label):
        a0 = label[0]
        eqs = [(prow(a0, b), zero) for b in label[1:]]
        les = [(prow(a0, b), zero) for b in range(len(lifts)) if b not in label]
        return eqs, les

    def probe(label) -> Optional[_Walked]:
        eqs, les = cell_rows(label)
        return _Walked(label) if lp_strictly_feasible(n, eqs, orthant, les, ring) else None

    def contains(c: _Walked, b: int) -> bool:
        eqs, les = cell_rows(c.label)
        return not lp_strictly_feasible(n, eqs, [(prow(c.label[0], b), zero)], les + orthant, ring)

    def affine_dim(label) -> int:
        eqs, les = cell_rows(label)
        return lp_affine_dim(n, eqs, les + orthant, ring)

    cells, order = label_lattice(len(lifts), gp, n, probe, contains)
    return [c.label for c in cells], order, affine_dim


def power_diagram_poset(
    lifts: Sequence[OFVector], ledger: Optional[ThresholdLedger] = None
) -> PowerDiagram:
    labels, order, affine_dim = power_walk(lifts, ledger)
    return PowerDiagram(tuple(PowerCell(label, affine_dim(label)) for label in labels), order)
