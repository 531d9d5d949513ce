"""Command-line front end: site and lattice JSON in, JSON or SVG out.

Subcommands dispatch to the compute modules one-to-one; `bisector` is sugar
for `diagram` on a two-site input.  Exit codes: 0 success, 2 malformed input
or an unwritable output, 3 violated precondition (genericity, caps, invalid
basis, rendering outside n = 3).  Every geometric decision is made in exact
arithmetic; floating point appears only when projecting onto the SVG canvas,
with a fixed output precision so repeated runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import atan2, sqrt
from random import Random
from typing import Optional, Sequence

from .delone import complex_to_json, delone_complex, hull_complex
from .exactnum import int_from_str
from .lift import verify_lift
from .sites import LatticeWindow, SiteSet, lattice_points, sites_from_json
from .tropcore import hpoint_from_json
from .voronoi import _piece_generators, diagram_to_json, region, region_to_json, voronoi_diagram

PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
)

_U1 = 1.0 / sqrt(2.0)
_U2 = 1.0 / sqrt(6.0)


class MalformedInput(Exception):
    """Input file failures mapped to exit code 2."""


def _fmt(v: float) -> str:
    s = f"{v:.4f}"
    return "0.0000" if s == "-0.0000" else s


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedInput(str(exc)) from exc
    if not isinstance(data, dict):
        raise MalformedInput("top-level JSON object expected")
    return data


def _parse_payload(data: dict):
    """Classify the input file by schema.

    Returns ("lattice", (basis, radius, n)), ("sites", SiteSet), or
    ("empty", n) for a site file with no sites.  Schema violations raise
    MalformedInput; lattice construction is deferred so that basis rank and
    radius problems surface as precondition failures instead.
    """
    try:
        if "basis" in data:
            basis = [hpoint_from_json(row) for row in data["basis"]]
            return "lattice", (basis, int_from_str(data["radius"]), int_from_str(data["n"]))
        if "sites" in data:
            n = int_from_str(data["n"])
            if not data["sites"]:
                return "empty", n
            return "sites", sites_from_json(data)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedInput(str(exc)) from exc
    raise MalformedInput("neither a site file nor a lattice file")


def _site_set(kind, payload, radius_override: Optional[int]) -> SiteSet:
    if kind == "lattice":
        basis, radius, n = payload
        L = LatticeWindow(basis, radius if radius_override is None else radius_override, n=n)
        S, _ = lattice_points(L)
        return S
    if kind == "empty":
        raise ValueError("need at least one site")
    return payload


# ---------------------------------------------------------------------------
# svg rendering, n = 3 only

def _project(p) -> tuple:
    x = (float(p[0]) - float(p[1])) * _U1
    y = (float(p[0]) + float(p[1]) - 2.0 * float(p[2])) * _U2
    return x, -y


def _angle_sorted(points: Sequence) -> list:
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: (atan2(p[1] - cy, p[0] - cx), p[0], p[1]))


class _Canvas:
    """Accumulates projected primitives, then emits deterministic SVG."""

    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.fills: list = []
        self.lines: list = []
        self.dots: list = []
        self.box_points: list = []

    def add_polygon(self, pts: Sequence, color: str) -> None:
        self.box_points.extend(pts)
        self.fills.append((pts, color))

    def add_polyline(self, pts: Sequence, anchors: Sequence) -> None:
        self.box_points.extend(anchors)
        self.lines.append(pts)

    def add_dot(self, pt, color: str) -> None:
        self.box_points.append(pt)
        self.dots.append((pt, color))

    def _viewbox(self) -> tuple:
        if not self.box_points:
            return 0.0, 0.0, float(self.width), float(self.height)
        xs = [p[0] for p in self.box_points]
        ys = [p[1] for p in self.box_points]
        dx = (max(xs) - min(xs)) or 1.0
        dy = (max(ys) - min(ys)) or 1.0
        mx, my = 0.05 * dx, 0.05 * dy
        return min(xs) - mx, min(ys) - my, dx + 2 * mx, dy + 2 * my

    def emit(self) -> str:
        x0, y0, w, h = self._viewbox()
        unit = 0.01 * sqrt(w * w + h * h)
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">'
        )
        body = []
        for pts, color in self.fills:
            coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            body.append(
                f'<polygon points="{coords}" fill="{color}" fill-opacity="0.45" '
                f'stroke="#222222" stroke-width="{_fmt(0.6 * unit)}"/>'
            )
        for pts in self.lines:
            coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
            body.append(
                f'<polyline points="{coords}" fill="none" stroke="#222222" '
                f'stroke-width="{_fmt(0.6 * unit)}"/>'
            )
        for (x, y), color in self.dots:
            body.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(1.5 * unit)}" '
                f'fill="{color}"/>'
            )
        return head + "".join(body) + "</svg>\n"


def _ray_end(v, d, reach: float) -> tuple:
    px, py = _project(v)
    qx, qy = _project([v[0] + d[0], v[1] + d[1], v[2] + d[2]])
    dx, dy = qx - px, qy - py
    norm = sqrt(dx * dx + dy * dy) or 1.0
    return px + dx / norm * reach, py + dy / norm * reach


def _render_pieces(canvas: _Canvas, pieces, dim: int, color: str, reach: float) -> None:
    for piece in pieces:
        verts, rays = _piece_generators(piece)
        if not verts:
            continue
        pv = [_project(v) for v in verts]
        if dim >= 2 and not rays:
            if len(pv) >= 3:
                canvas.add_polygon(_angle_sorted(pv), color)
            continue
        if dim == 1:
            if len(pv) >= 2:
                canvas.add_polyline(_angle_sorted(pv)[:2], pv)
            elif rays:
                # a piece of a one-dimensional cell with one vertex is a ray
                canvas.add_polyline([_ray_end(verts[0], rays[0], reach), pv[0]], pv)


def _render(kind, S: SiteSet, width: int, height: int) -> str:
    canvas = _Canvas(width, height)
    if S.n != 3:
        raise ValueError("rendering needs n = 3")
    site_pts = [_project(s) for s in S]
    xs = [p[0] for p in site_pts]
    ys = [p[1] for p in site_pts]
    reach = 2.0 * (sqrt((max(xs) - min(xs)) ** 2 + (max(ys) - min(ys)) ** 2) or 1.0)

    if kind == "lattice":
        r = region(S, 0)
        if r.bounded:
            pts = [_project(g) for g in r.generators]
            canvas.add_polygon(_angle_sorted(pts), PALETTE[0])
    else:
        d = voronoi_diagram(S)
        for c in d.cells:
            color = PALETTE[min(c.label) % len(PALETTE)]
            _render_pieces(canvas, c.pieces, c.dim, color, reach)
    for idx, pt in enumerate(site_pts):
        canvas.add_dot(pt, PALETTE[idx % len(PALETTE)])
    return canvas.emit()


# ---------------------------------------------------------------------------
# dispatch

def _build_parser() -> argparse.ArgumentParser:
    """One parser for every subcommand: they all take the same options, so
    the subcommand is a positional choice and options may come before it."""
    parser = argparse.ArgumentParser(
        prog="tropvor",
        description="Exact asymmetric tropical Voronoi diagrams and their lifts.",
    )
    parser.add_argument(
        "subcommand",
        choices=("region", "bisector", "diagram", "delone", "hull", "verify-lift", "render"),
    )
    parser.add_argument("--input", required=True)
    parser.add_argument("--output")
    parser.add_argument("--radius", type=int)
    parser.add_argument("--cap", type=int)
    parser.add_argument("--width", type=int, default=400)
    parser.add_argument("--height", type=int, default=400)
    return parser


def _dispatch(args, kind, payload) -> str:
    if args.subcommand == "render":
        if args.width <= 0 or args.height <= 0:
            raise ValueError("width and height must be positive")
        if kind == "empty":
            return _Canvas(args.width, args.height).emit()
    S = _site_set(kind, payload, args.radius)
    if args.cap is not None and len(S) > args.cap:
        raise ValueError("size cap exceeded")
    if args.subcommand == "render":
        return _render(kind, S, args.width, args.height)
    if args.subcommand == "region":
        out = region_to_json(region(S, 0))
    elif args.subcommand == "bisector":
        if len(S) != 2:
            raise ValueError("bisector needs exactly two sites")
        out = diagram_to_json(voronoi_diagram(S))
    elif args.subcommand == "diagram":
        out = diagram_to_json(voronoi_diagram(S))
    elif args.subcommand == "delone":
        out = complex_to_json(delone_complex(S))
    elif args.subcommand == "hull":
        out = complex_to_json(hull_complex(S))
    else:
        # verify_lift draws nothing from the rng; giving one only adds the
        # three random pool members to containment_samples
        out = verify_lift(S, rng=Random(0))
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        data = _load(args.input)
        kind, payload = _parse_payload(data)
        text = _dispatch(args, kind, payload)
    except MalformedInput as exc:
        print(f"tropvor: malformed input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"tropvor: {exc}", file=sys.stderr)
        return 3
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"tropvor: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
