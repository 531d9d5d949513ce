"""Command-line dispatch: schemas in, JSON/SVG bytes out, exit codes."""

from __future__ import annotations

import json
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cramer_pieces
from tropvor import cli
from tropvor.cli import main
from tropvor.sites import SiteSet, sites_from_json
from tropvor.tropcore import normalize_to_H
from tropvor.voronoi import _piece_generators, region_from_json, voronoi_diagram

L2_LATTICE = {"n": 3, "basis": [["2", "-2", "0"], ["-1", "2", "-1"]], "radius": 3}
GENERIC_PAIR = {"n": 3, "sites": [["-6", "-5", "11"], ["-5", "12", "-7"]]}
DEGENERATE_PAIR = {"n": 3, "sites": [["0", "0", "0"], ["1", "-1", "0"]]}
CYCLIC = {"n": 3, "sites": [["1", "-1", "0"], ["0", "1", "-1"], ["-1", "0", "1"]]}


def write(tmp_path, obj, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(tmp_path, subcommand, obj, *extra):
    src = write(tmp_path, obj)
    out = tmp_path / "out"
    code = main([subcommand, "--input", src, "--output", str(out)] + list(extra))
    return code, out.read_text() if out.exists() else None


def test_region_lists_the_six_lattice_generators(tmp_path):
    code, text = run(tmp_path, "region", L2_LATTICE)
    assert code == 0
    data = json.loads(text)
    assert data["generators"] == [
        ["-2", "1", "1"],
        ["-1", "1", "0"],
        ["0", "-1", "1"],
        ["0", "1", "-1"],
        ["1", "-1", "0"],
        ["1", "1", "-2"],
    ]
    assert len(data["halfspaces"]) == 8
    # emitted JSON re-parses under the module schema
    r = region_from_json(data)
    assert r.site == 0 and r.bounded


def test_diagram_on_two_sites(tmp_path):
    code, text = run(tmp_path, "diagram", GENERIC_PAIR)
    assert code == 0
    assert json.loads(text) == {
        "cells": [
            {"T": [0], "dim": 2},
            {"T": [1], "dim": 2},
            {"T": [0, 1], "dim": 1},
        ],
        "order": [[2, 0], [2, 1]],
    }


def test_bisector_is_two_site_diagram_sugar(tmp_path):
    code_b, text_b = run(tmp_path, "bisector", GENERIC_PAIR)
    code_d, text_d = run(tmp_path, "diagram", GENERIC_PAIR)
    assert code_b == code_d == 0
    assert text_b == text_d


def test_bisector_rejects_other_cardinalities(tmp_path):
    code, _ = run(tmp_path, "bisector", CYCLIC)
    assert code == 3


def test_delone_and_hull_subcommands(tmp_path):
    code, text = run(tmp_path, "delone", CYCLIC)
    assert code == 0
    assert json.loads(text)["facets"] == [[0, 1, 2]]
    code, text = run(tmp_path, "hull", CYCLIC)
    assert code == 0
    assert json.loads(text) == {"facets": [[0, 1, 2]], "provisional_vertices": []}


def test_verify_lift_surfaces_genericity_as_exit_3(tmp_path):
    code, text = run(tmp_path, "verify-lift", DEGENERATE_PAIR)
    assert code == 3
    assert text is None


def test_verify_lift_report(tmp_path):
    code, text = run(tmp_path, "verify-lift", GENERIC_PAIR)
    assert code == 0
    report = json.loads(text)
    assert report["isomorphic"] is True
    assert report["failures"] == []
    assert report["cells_tropical"] == report["cells_lifted"] == 3


def test_cap_option_bounds_instance_size(tmp_path):
    code, _ = run(tmp_path, "region", L2_LATTICE, "--cap", "5")
    assert code == 3


def test_delone_above_the_site_cap_exits_3(tmp_path, capsys):
    thirteen = {"n": 3, "sites": [[str(k), str(-k), "0"] for k in range(13)]}
    code, text = run(tmp_path, "delone", thirteen)
    assert code == 3
    assert text is None
    assert "instance too large" in capsys.readouterr().err


def test_radius_override(tmp_path):
    # radius 1 shrinks the window to {0, (1,0,-1), (-1,0,1)}
    code, text = run(tmp_path, "region", L2_LATTICE, "--radius", "1")
    assert code == 0
    assert len(json.loads(text)["halfspaces"]) == 2


def test_radius_override_zero_is_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, "region", L2_LATTICE, "--radius", "0")
    assert code == 3
    assert "radius must be positive" in capsys.readouterr().err


def test_rank_deficient_basis_is_a_precondition_failure(tmp_path):
    bad = {"n": 3, "basis": [["1", "-1", "0"], ["2", "-2", "0"]], "radius": 2}
    code, _ = run(tmp_path, "region", bad)
    assert code == 3


def test_malformed_inputs_exit_2(tmp_path):
    assert main(["region", "--input", str(tmp_path / "absent.json")]) == 2
    assert run(tmp_path, "region", {"n": 3})[0] == 2
    assert run(tmp_path, "region", {"n": 3, "sites": [["1", "oops", "-1"]]})[0] == 2
    assert run(tmp_path, "region", {"n": 3, "sites": [["1/0", "0", "0"]]})[0] == 2
    zero_den = {"n": 3, "basis": [["1/0", "-1", "0"], ["0", "1", "-1"]], "radius": 1}
    assert run(tmp_path, "region", zero_den)[0] == 2
    broken = tmp_path / "broken.json"
    broken.write_text("[1, 2")
    assert main(["region", "--input", str(broken)]) == 2
    # JSON floats and booleans are not exact data
    floats = {"n": 3, "sites": [[0.1, -0.1, 0], ["1", "-1", "0"]]}
    assert run(tmp_path, "region", floats)[0] == 2
    assert run(tmp_path, "region", {"n": 3, "sites": [[True, False, "-1"]]})[0] == 2
    assert run(tmp_path, "region", {**L2_LATTICE, "radius": 2.9})[0] == 2
    assert run(tmp_path, "region", {**L2_LATTICE, "radius": True})[0] == 2
    assert run(tmp_path, "region", {**L2_LATTICE, "radius": "5/2"})[0] == 2
    assert run(tmp_path, "region", {**GENERIC_PAIR, "n": 3.0})[0] == 2
    assert run(tmp_path, "region", {"n": True, "sites": []})[0] == 2
    # JSON integers and integer strings stay exact
    assert run(tmp_path, "region", {"n": 3, "sites": [[1, -1, 0], [0, 1, -1]]})[0] == 0
    assert run(tmp_path, "region", {**L2_LATTICE, "n": "3", "radius": "1"})[0] == 0


def test_render_non_positive_canvas_exits_3(tmp_path):
    assert run(tmp_path, "render", GENERIC_PAIR, "--width", "-5", "--height", "0") == (3, None)
    assert run(tmp_path, "render", GENERIC_PAIR, "--width", "160", "--height", "0") == (3, None)
    assert run(tmp_path, "render", {"n": 3, "sites": []}, "--width", "0")[0] == 3


def test_render_hexagon(tmp_path):
    code, svg = run(tmp_path, "render", L2_LATTICE)
    assert code == 0
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.count("<polygon") == 1
    poly = svg.split('points="')[1].split('"')[0]
    assert len(poly.split()) == 6
    assert svg.count("<circle") == 17


def test_render_bisector_polyline_through_tie_point(tmp_path):
    code, svg = run(tmp_path, "render", GENERIC_PAIR)
    assert code == 0
    # the tie point (0,1,-1) projects to (-1/sqrt(2), -3/sqrt(6))
    assert svg.count('-0.7071,-1.2247') == 2
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 2


def test_render_empty_canvas(tmp_path):
    code, svg = run(tmp_path, "render", {"n": 3, "sites": []}, "--width", "160", "--height", "90")
    assert code == 0
    assert svg == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="160" height="90" '
        'viewBox="0.0000 0.0000 160.0000 90.0000"></svg>\n'
    )


def test_render_requires_n_3(tmp_path):
    four = {"n": 4, "sites": [["1", "-1", "0", "0"], ["0", "0", "1", "-1"]]}
    code, _ = run(tmp_path, "render", four)
    assert code == 3


def test_render_deterministic_bytes(tmp_path):
    _, first = run(tmp_path, "render", L2_LATTICE)
    _, second = run(tmp_path, "render", L2_LATTICE)
    assert first == second


def test_stdout_when_no_output_path(tmp_path, capsys):
    src = write(tmp_path, CYCLIC)
    assert main(["delone", "--input", src]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["facets"] == [[0, 1, 2]]


def test_unwritable_output_exits_2(tmp_path, capsys):
    src = write(tmp_path, GENERIC_PAIR)
    out = tmp_path / "missing" / "out.json"
    assert main(["region", "--input", src, "--output", str(out)]) == 2
    assert not out.parent.exists()
    assert "tropvor: cannot write output:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# SVG pieces read off the closed matrix, against the pairwise Cramer search


@st.composite
def tied_site_sets(draw):
    """2-6 distinct sites in n = 3 with small, often shared, coordinates,
    some of them half-integers."""
    span = draw(st.integers(1, 12))
    coord = st.builds(Fraction, st.integers(-span, span), st.sampled_from((1, 1, 2)))
    point = st.lists(coord, min_size=3, max_size=3).map(normalize_to_H)
    return SiteSet(draw(st.lists(point, min_size=2, max_size=6, unique=True)))


@settings(max_examples=60, deadline=None)
@given(tied_site_sets())
def test_piece_generators_match_the_cramer_search(S):
    for c in voronoi_diagram(S).cells:
        for piece in c.pieces:
            verts, rays = _piece_generators(piece)
            old_verts, old_rays = cramer_pieces._piece_generators(piece)
            assert bool(rays) == bool(old_rays)
            if verts:
                assert [v.coords for v in verts] == old_verts
            else:
                # only the reference's fallback point, on a piece without a
                # vertex, and such pieces lie in two-dimensional cells
                assert old_rays and len(old_verts) == 1 and c.dim >= 2
            if c.dim <= 1:
                assert verts and rays == old_rays and len(rays) <= 1


@settings(max_examples=40, deadline=None)
@given(tied_site_sets())
@example(sites_from_json(GENERIC_PAIR))
@example(sites_from_json(DEGENERATE_PAIR))
@example(sites_from_json(CYCLIC))
def test_render_bytes_match_the_cramer_search(S):
    new = cli._render("sites", S, 400, 400)
    with patch.object(cli, "_piece_generators", cramer_pieces._piece_generators):
        assert cli._render("sites", S, 400, 400) == new


@pytest.mark.parametrize("argv", [[], ["triangulate", "--input", "in.json"], ["region"]])
def test_usage_errors_exit_2(argv, capsys):
    # no subcommand, an unknown one, or no --input: argparse exits with 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: tropvor" in capsys.readouterr().err


def test_options_may_come_before_the_subcommand(tmp_path, capsys):
    src = write(tmp_path, CYCLIC)
    assert main(["delone", "--input", src]) == 0
    after = capsys.readouterr().out
    assert main(["--input", src, "delone"]) == 0
    assert capsys.readouterr().out == after
