import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plucker import cli, formulas
from plucker.assumptions import full_assumption_report
from plucker.cli import (
    EXIT_DEGENERATE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    _COMMANDS,
    CliError,
    parse_polygon,
    run,
)
from plucker.formulas import plucker_report
from plucker.lattice import LatticePolygon, lattice_points
from plucker.oracle import OracleConfig, implicitize_dual
from plucker.render import _CELL, _PAD, svg_report

from conftest import implicitizable_classes, random_polygon

SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def polygon_file(tmp_path):
    def write(vertices):
        p = tmp_path / "polygon.json"
        p.write_text(json.dumps(vertices))
        return str(p)

    return write


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParsing:
    def test_hull_taken(self):
        P = parse_polygon("[[0,0],[2,0],[1,0],[0,2],[1,1]]")
        assert set(P.vertices) == {(0, 0), (2, 0), (0, 2)}

    def test_rejects_non_integer(self, polygon_file, capsys):
        path = polygon_file([[0, 0], [1.5, 0], [0, 1]])
        assert run(["report", "--polygon", path]) == EXIT_PARSE
        assert "error" in capsys.readouterr().out

    def test_rejects_garbage(self, polygon_file, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("nonsense")
        code, payload = run_json(
            capsys, ["report", "--polygon", str(p), "--format", "json"]
        )
        assert code == EXIT_PARSE
        assert "error" in payload

    def test_missing_file(self, capsys):
        assert run(["report", "--polygon", "/nonexistent.json"]) == EXIT_PARSE

    def test_rejects_boolean(self, polygon_file, capsys):
        path = polygon_file([[True, 0], [2, 0], [0, 2]])
        assert run(["report", "--polygon", path]) == EXIT_PARSE
        assert "bad vertex" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_a_long_bad_vertex_gets_a_short_message(self, fmt, tmp_path, capsys):
        p = tmp_path / "long.json"
        p.write_text("[[0,0],[" + ",".join(["0"] * 10**6) + "]]")
        assert run(["report", "--polygon", str(p), "--format", fmt]) == EXIT_PARSE
        out = capsys.readouterr().out
        message = json.loads(out)["error"] if fmt == "json" else out
        assert len(out) < 200
        assert "bad vertex 1 (list): expected [x, y] integers" in message

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_deep_nesting_is_not_valid_json(self, fmt, tmp_path, capsys):
        # the decoder recurses once per bracket
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000)
        assert run(["report", "--polygon", str(p), "--format", fmt]) == EXIT_PARSE
        out = capsys.readouterr().out
        message = json.loads(out)["error"] if fmt == "json" else out
        assert message.startswith("error: polygon is not valid JSON" if fmt == "text" else "polygon is not valid JSON")


class TestReport:
    def test_5delta_json(self, polygon_file, capsys):
        path = polygon_file([[0, 0], [5, 0], [0, 5]])
        code, payload = run_json(
            capsys, ["report", "--polygon", path, "--format", "json"]
        )
        assert code == EXIT_OK
        assert payload["inflections"] == 45
        assert payload["bitangents"] == 120
        assert payload["vol"] == "25/2"
        assert payload["genus"] == 6

    def test_round_trip(self, polygon_file, capsys, tmp_path):
        path = polygon_file([[0, 0], [3, 0], [3, 4], [0, 4]])
        code, payload = run_json(
            capsys, ["report", "--polygon", path, "--format", "json"]
        )
        assert code == EXIT_OK
        p2 = tmp_path / "again.json"
        p2.write_text(json.dumps(payload["polygon"]))
        code2, payload2 = run_json(
            capsys, ["report", "--polygon", str(p2), "--format", "json"]
        )
        assert code2 == EXIT_OK and payload2 == payload

    def test_degenerate_polygon_rejected(self, polygon_file, capsys):
        path = polygon_file([[0, 0], [1, 0]])
        assert run(["report", "--polygon", path]) == EXIT_PARSE

    @pytest.mark.parametrize("vertices", [[[0, 0], [3, 0], [0, 3]], [[0, 0], [1, 0]]])
    def test_unwritable_out(self, vertices, polygon_file, capsys, tmp_path):
        # the answer and the error path both fail to write: no traceback
        out = tmp_path / "missing" / "x.json"
        argv = ["report", "--polygon", polygon_file(vertices), "--out", str(out)]
        assert run(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: ")
        assert captured.out == ""
        assert not out.parent.exists()


class TestDual:
    def test_golden_fan(self, polygon_file, capsys):
        path = polygon_file([[0, 0], [0, 1], [1, 1]])
        code, payload = run_json(
            capsys, ["dual", "--polygon", path, "--format", "json"]
        )
        assert code == EXIT_OK
        assert payload["dual_fan"] == {"0,-1": 2, "1,1": 1, "-1,1": 1}


class TestAssumptions:
    def test_rectangle_verified(self, polygon_file, capsys):
        path = polygon_file([[0, 0], [3, 0], [3, 4], [0, 4]])
        code, payload = run_json(
            capsys, ["assumptions", "--polygon", path, "--format", "json"]
        )
        assert code == EXIT_OK
        assert payload["all_verified"] is True

    def test_thin_cubic_fails(self, polygon_file, capsys):
        path = polygon_file([[0, 3], [1, 0], [2, 0]])
        code, payload = run_json(
            capsys, ["assumptions", "--polygon", path, "--format", "json"]
        )
        assert code == EXIT_OK
        assert payload["a2"] == "FailsKnown"
        assert payload["thin_witness"]["k"] == 1

    def test_thin_cubic_text(self, polygon_file, capsys):
        path = polygon_file([[0, 3], [1, 0], [2, 0]])
        assert run(["assumptions", "--polygon", path]) == EXIT_OK
        assert capsys.readouterr().out == (
            "a1 Unknown\n"
            "a2 FailsKnown\n"
            "a3 Verified\n"
            "  [no-tritangents r^0] no Q6 subdiagram, no 5R\n"
            "  [no-inflected-bitangents r^0] no Q5 subdiagram\n"
            "  [no-higher-flexes r^0] no Q4 subdiagram\n"
            "  [no-boundary-bitangents r^0] no condition fired\n"
            "  [no-inflections-at-infinity r^0] thin triangle\n"
            "  [no-boundary-bitangents r^1] bottom face is a vertex\n"
            "  [no-inflections-at-infinity r^1] not a thin triangle\n"
            "  [no-boundary-bitangents r^2] bottom face is a vertex\n"
            "  [no-inflections-at-infinity r^2] not a thin triangle\n"
            "  [no-corner-bitangents r^0] 2-dimensional and not the unit triangle\n"
            "  [thin-classification r^0] thin triangle\n"
            "  [no-vertical-bitangents r^0] vertical degree at most 3\n"
            "  [no-vertical-inflections r^0] at least 3 ordinates\n"
            "  [no-tangent-asymptotes r^0] 3 ordinates or top face is a vertex\n"
            "  [no-vertical-bitangents r^1] vertical degree at most 3\n"
            "  [no-vertical-inflections r^1] at least 3 ordinates\n"
            "  [no-tangent-asymptotes r^1] 3 ordinates or top face is a vertex\n"
            "  [no-vertical-bitangents r^2] vertical degree at most 3\n"
            "  [no-vertical-inflections r^2] at least 3 ordinates\n"
            "  [no-tangent-asymptotes r^2] 3 ordinates or top face is a vertex\n"
            "  thin witness: k=1 translation=(0, 0) rotation=0\n"
        )

    @pytest.mark.parametrize("raw", ["-1", "ten"])
    def test_rejects_a_bad_budget(self, raw, polygon_file, capsys, monkeypatch):
        monkeypatch.setenv("PLUCKER_BUDGET", raw)
        path = polygon_file([[0, 0], [3, 0], [0, 3]])
        assert run(["assumptions", "--polygon", path]) == EXIT_PARSE
        out = capsys.readouterr().out
        assert f"PLUCKER_BUDGET must be a nonnegative integer, got {raw!r}" in out

    def test_zero_budget_is_accepted(self, polygon_file, capsys, monkeypatch):
        # the budget bounds the 5R search alone; the subdiagram searches
        # decide, and so does the 5R search on a box narrower than 5
        monkeypatch.setenv("PLUCKER_BUDGET", "0")
        path = polygon_file([[0, 0], [3, 0], [0, 3]])
        code, payload = run_json(capsys, ["assumptions", "--polygon", path, "--format", "json"])
        assert code == EXIT_OK
        assert payload["evidence"][:3] == [
            ["no-tritangents", 0, "no Q6 subdiagram, no 5R"],
            ["no-inflected-bitangents", 0, "no Q5 subdiagram"],
            ["no-higher-flexes", 0, "Q4 subdiagram found"],
        ]


class TestVerify:
    def test_golden_matches(self, polygon_file, capsys):
        path = polygon_file([[0, 0], [0, 1], [1, 1]])
        code, payload = run_json(
            capsys,
            [
                "verify",
                "--polygon",
                path,
                "--seed",
                "5",
                "--advisory",
                "--format",
                "json",
            ],
        )
        assert code == EXIT_OK
        assert payload["match"] is True
        assert payload["checks"]["inflections"]["formula"] == 0

    def test_degenerate_lists_every_attempt(self, polygon_file, capsys):
        # with coefficients +-1, each of the five samples drawn at seed 1 on
        # the unit square is a product of two lines, and a line shares a
        # factor with its Hessian curve in every chart
        path = polygon_file([[0, 0], [1, 0], [1, 1], [0, 1]])
        argv = ["verify", "--polygon", path, "--advisory", "--coeff-bound", "1", "--format", "json"]
        code, payload = run_json(capsys, argv)
        assert code == EXIT_DEGENERATE
        msg = payload["error"]
        assert msg.startswith("inflection oracle retries exhausted after 5 attempts: seed 1: chart (i, j): ")
        assert msg.count("identically-zero resultant (common factor)") == 15

    RECT = [[0, 0], [2, 0], [2, 3], [0, 3]]
    STRIDE = 0x9E3779B9

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_short_sample_is_redrawn(self, polygon_file, capsys, seed):
        # with coefficients +-1 the first sample counts 11 of 21 inflections
        # and 2 of 8 vertical tangents; a count is at most the generic one,
        # so the oracle redraws, and the second sample reaches both
        argv = ["verify", "--polygon", polygon_file(self.RECT), "--coeff-bound", "1", "--seed", str(seed)]
        code, payload = run_json(capsys, argv + ["--format", "json"])
        assert code == EXIT_OK and payload["match"] is True
        seeds = [seed, seed + self.STRIDE]
        for name, short, formula in (("inflections", 11, 21), ("vertical_tangents", 2, 8)):
            assert payload["checks"][name] == {
                "formula": formula,
                "oracle": formula,
                "match": True,
                "mismatch": None,
                "samples": [{"seed": s, "count": n} for s, n in zip(seeds, (short, formula))],
            }

    def test_a_short_first_sample_on_the_slab_is_redrawn(self, polygon_file, capsys):
        argv = ["verify", "--polygon", polygon_file([[0, 0], [3, 0], [3, 2]]), "--coeff-bound", "1", "--seed", "2"]
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out.endswith("PASS\n")

    def test_a_deficit_on_every_sample_is_a_mismatch(self, polygon_file, capsys):
        argv = ["verify", "--polygon", polygon_file(self.RECT), "--coeff-bound", "1", "--seed", "3"]
        code, payload = run_json(capsys, argv + ["--format", "json"])
        assert code == EXIT_MISMATCH and payload["match"] is False
        assert payload["checks"]["inflections"]["match"] is True
        row = payload["checks"]["vertical_tangents"]
        assert (row["formula"], row["oracle"], row["mismatch"]) == (8, 7, "deficit")
        assert row["samples"] == [{"seed": 3 + i * self.STRIDE, "count": n} for i, n in enumerate((7, 4, 6, 4, 4))]
        assert run(argv) == EXIT_MISMATCH
        assert "vertical_tangents  formula    8  oracle    7  MISMATCH (deficit)" in capsys.readouterr().out

    def test_a_surplus_is_a_mismatch_after_one_sample(self, polygon_file, capsys, monkeypatch):
        # a formula one below the truth is refuted by the first count
        def low(P):
            r = plucker_report(P)
            return dataclasses.replace(r, inflections=r.inflections - 1)

        monkeypatch.setattr(cli, "plucker_report", low)
        argv = ["verify", "--polygon", polygon_file([[0, 0], [3, 0], [3, 2]]), "--format", "json"]
        code, payload = run_json(capsys, argv)
        assert code == EXIT_MISMATCH
        row = payload["checks"]["inflections"]
        assert (row["formula"], row["oracle"], row["mismatch"]) == (9, 10, "surplus")
        assert row["samples"] == [{"seed": 1, "count": 10}]

    @pytest.mark.parametrize("command, bound", [("verify", 10), ("implicitize", 1000)])
    def test_coefficient_bound_defaults_per_command(self, polygon_file, monkeypatch, command, bound):
        seen = []
        for name in ("inflection_oracle", "vertical_tangent_oracle", "implicitize_dual"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda P, cfg, *a, real=real, **kw: seen.append(cfg) or real(P, cfg, *a, **kw))
        assert run([command, "--polygon", polygon_file([[0, 0], [3, 0], [3, 2]])]) == EXIT_OK
        assert seen and all(cfg.coeff_bound == bound for cfg in seen)

    @pytest.mark.parametrize("vertices", [[[0, 0], [3, 0], [0, 2]], [[0, 0], [4, 0], [1, 2]]])
    def test_second_chart_certifies(self, polygon_file, capsys, vertices):
        # the identity chart pairs two solutions over one x on every sample
        path = polygon_file(vertices)
        code, payload = run_json(capsys, ["verify", "--polygon", path, "--advisory", "--format", "json"])
        assert code == EXIT_OK
        assert payload["match"] is True

    def test_refuses_without_advisory(self, polygon_file, capsys):
        path = polygon_file([[0, 0], [0, 1], [1, 1]])
        assert run(["verify", "--polygon", path]) == EXIT_PARSE


class TestImplicitize:
    SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_coefficients_printed_exactly(self, polygon_file, capsys, fmt):
        bound = 10**400
        argv = ["implicitize", "--polygon", polygon_file(self.SQUARE), "--advisory"]
        assert run(argv + ["--coeff-bound", str(bound), "--format", fmt]) == EXIT_OK
        out = capsys.readouterr().out
        if fmt == "json":
            pairs = json.loads(out)["dual_coefficients"]
            assert all(im == 0 for _, im in pairs.values())
            printed = {k: re for k, (re, _) in pairs.items()}
        else:
            printed = {f"{m[2:]},{n[2:]}": int(c) for m, n, c in (line.split() for line in out.splitlines()[:-1])}
        G, _ = implicitize_dual(LatticePolygon.hull(self.SQUARE), OracleConfig(seed=1, coeff_bound=bound))
        assert printed == {f"{u},{v}": c for (u, v), c in G.items()}
        assert max(abs(c) for c in G.values()) > 10**700

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficients_past_the_digit_limit_exit_2(self, polygon_file, capsys, fmt):
        # the bound has 4,001 digits, under Python's 4,300-digit limit on
        # int <-> str conversion, and the dual equation's coefficients about
        # 8,000
        argv = ["implicitize", "--polygon", polygon_file(self.SQUARE), "--advisory"]
        assert run(argv + ["--coeff-bound", str(10**4000), "--format", fmt]) == EXIT_PARSE
        out = capsys.readouterr().out
        if fmt == "json":
            out = json.loads(out)["error"]
        else:
            assert out.startswith("error: ")
        assert "limit" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_bound_past_the_digit_limit_exits_2(self, polygon_file, capsys, fmt):
        argv = ["implicitize", "--polygon", polygon_file(self.SQUARE), "--advisory", "--format", fmt]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--coeff-bound", "1" + "0" * 5000])
        assert exc.value.code == EXIT_PARSE
        assert "error: argument --coeff-bound: invalid int value" in capsys.readouterr().err

    def test_one_report(self, polygon_file, monkeypatch):
        # the line check builds the report; the predicted dual polygon is
        # walked from the fan alone
        calls = []

        def counted(P):
            calls.append(P)
            return plucker_report(P)

        for module in (cli, formulas):
            monkeypatch.setattr(module, "plucker_report", counted)
        assert run(["implicitize", "--polygon", polygon_file([[0, 0], [3, 0], [3, 2]])]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command, battery_runs", [("implicitize", 1), ("implicitize --advisory", 0), ("verify --advisory", 1)]
    )
    def test_battery_runs_only_where_it_decides_or_prints(
        self, command, battery_runs, polygon_file, monkeypatch, capsys
    ):
        # implicitize --advisory neither gates on the battery nor prints it;
        # verify --advisory prints the assumptions
        calls = []

        def counted(P, *args, **kwargs):
            calls.append(P)
            return full_assumption_report(P, *args, **kwargs)

        monkeypatch.setattr(cli, "full_assumption_report", counted)
        assert run(command.split() + ["--polygon", polygon_file([[0, 0], [3, 0], [3, 2]])]) == EXIT_OK
        assert len(calls) == battery_runs

    def test_every_class_of_the_3_box(self, polygon_file, capsys):
        # each class of [0, 3]^2 that implicitize takes gets a certified
        # sample whose dual equation has dual's polygon as Newton polygon
        classes = implicitizable_classes(3)
        assert len(classes) == 324
        for P in classes:
            path = polygon_file(P.vertices)
            code, payload = run_json(capsys, ["implicitize", "--polygon", path, "--advisory", "--format", "json"])
            assert code == EXIT_OK, P.vertices
            _, dual = run_json(capsys, ["dual", "--polygon", path, "--format", "json"])
            observed = LatticePolygon.hull(map(tuple, payload["observed_polygon"]))
            predicted = LatticePolygon.hull(map(tuple, dual["dual_polygon"]))
            assert observed.canonical() == predicted.canonical(), P.vertices

    def test_advisory_still_rejects_a_bad_budget(self, polygon_file, capsys, monkeypatch):
        monkeypatch.setenv("PLUCKER_BUDGET", "x")
        argv = ["implicitize", "--polygon", polygon_file([[0, 0], [3, 0], [3, 2]]), "--advisory"]
        assert run(argv) == EXIT_PARSE
        assert "PLUCKER_BUDGET must be a nonnegative integer, got 'x'" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "implicitize"])
def test_each_polygon_listed_once(command, polygon_file, listed_once):
    # the gate lists P and reads r(P) and r^2(P) off its points, and every
    # oracle sample reuses them; implicitize counts the dual support
    # without listing it
    P = LatticePolygon.hull([(0, 0), (3, 0), (3, 2)])
    assert run([command, "--polygon", polygon_file(P.vertices), "--seed", "6"]) == EXIT_OK
    listed_once(P)


class TestRender:
    def test_svg_output(self, polygon_file, tmp_path, capsys):
        path = polygon_file([[0, 0], [2, 0], [0, 2]])
        out = tmp_path / "picture.svg"
        code = run(["render", "--polygon", path, "--out", str(out)])
        assert code == EXIT_OK
        svg = out.read_text()
        assert svg.startswith("<svg") and "</svg>" in svg

    def test_size_depends_on_vertex_counts(self, polygon_file, tmp_path):
        # 400*Delta's dual box holds about 2.5e10 lattice points; the grid
        # pattern draws them all in the markup of 2*Delta's
        roots = []
        for d in (2, 400):
            out = tmp_path / f"{d}.svg"
            assert run(["render", "--polygon", polygon_file([[0, 0], [d, 0], [0, d]]), "--out", str(out)]) == EXIT_OK
            roots.append(ET.parse(out).getroot())
        small, big = ([e.tag for e in root.iter()] for root in roots)
        assert small == big
        assert len([e for e in roots[1].iter(SVG + "circle") if e.get("r") == "4"]) == 6
        assert len((tmp_path / "400.svg").read_bytes()) < 4096

    def test_large_panels_scale_to_fit(self, polygon_file, capsys):
        # 400*Delta's polygon panels are 11,304 and 4,480,472 px wide at
        # 28 px per cell; each is scaled to 2,048 on its larger side and
        # declares its scaled sides, rounded up; 5*Delta's stay unscaled
        for d, scaled in ((5, False), (400, True)):
            assert run(["render", "--polygon", polygon_file([[0, 0], [d, 0], [0, d]])]) == EXIT_OK
            root = ET.fromstring(capsys.readouterr().out)
            x, heights, panels = 0, [], root.findall(SVG + "g")
            for g in panels:
                w, h = (int(g.find(SVG + "rect").get(a)) for a in ("width", "height"))
                side = max(w, h)
                if side > 2048:
                    assert g.get("transform") == f"translate({x},0) scale({2048 / side!r})"
                    w, h = math.ceil(Fraction(w * 2048, side)), math.ceil(Fraction(h * 2048, side))
                else:
                    assert g.get("transform") == f"translate({x},0)"
                x += w + 12
                heights.append(h)
            assert any("scale(" in g.get("transform") for g in panels) == scaled
            assert (int(root.get("width")), int(root.get("height"))) == (x - 12, max(heights))
            assert x - 12 <= 4400 and max(heights) <= 2100

    def test_one_pattern_per_document(self, polygon_file, capsys):
        assert run(["render", "--polygon", polygon_file([[0, 0], [3, 0], [3, 2]])]) == EXIT_OK
        root = ET.fromstring(capsys.readouterr().out)
        (pattern,) = root.iter(SVG + "pattern")
        fills = [e.get("fill") for e in root.iter(SVG + "rect")]
        assert fills.count(f"url(#{pattern.get('id')})") == 2

    def test_grid_tiles_meet_the_lattice(self):
        # in each polygon panel the tile corners inside the grid rect are
        # the lattice points of the box with its one-cell margin, the
        # vertex dots among them, and the rect reaches at most a dot's
        # radius past the outermost ones
        rng = random.Random(23)
        for _ in range(60):
            P = random_polygon(rng, box=rng.choice((3, 6, 12)))
            if not formulas.dual_fan(P):
                continue
            r = plucker_report(P)
            root = ET.fromstring(svg_report(P, r.dual_fan, r.dual_polygon))
            (pattern,) = root.iter(SVG + "pattern")
            assert pattern.get("patternUnits") == "userSpaceOnUse"
            px, py, cell = (int(pattern.get(a)) for a in ("x", "y", "width"))
            assert (px, py, cell, int(pattern.get("height"))) == (_PAD, _PAD, _CELL, _CELL)
            panels = root.findall(SVG + "g")
            for Q, g in ((P, panels[0]), (r.dual_polygon, panels[2])):
                (grid,) = [e for e in g.iter(SVG + "rect") if e.get("fill", "").startswith("url(")]
                x, y, w, h = (int(grid.get(a)) for a in ("x", "y", "width", "height"))
                xs = [c for c in range(px % cell, x + w + 1, cell) if c >= x]
                ys = [c for c in range(py % cell, y + h + 1, cell) if c >= y]
                (xl, yl), (xh, yh) = Q.bounding_box()
                assert (len(xs), len(ys)) == (xh - xl + 3, yh - yl + 3)
                assert xs[0] - x <= 2 and x + w - xs[-1] <= 2
                assert ys[0] - y <= 2 and y + h - ys[-1] <= 2
                dots = [(int(e.get("cx")), int(e.get("cy"))) for e in g.iter(SVG + "circle") if e.get("r") == "4"]
                assert all(cx % cell == cy % cell == _PAD for cx, cy in dots)
                assert dots == [(xs[0] + cell * (vx - xl + 1), ys[-1] - cell * (vy - yl + 1)) for vx, vy in Q.vertices]

    def test_svg_only_for_render(self, polygon_file, capsys):
        path = polygon_file([[0, 0], [2, 0], [0, 2]])
        assert run(["report", "--polygon", path, "--format", "svg"]) == EXIT_PARSE
        assert capsys.readouterr().out == "error: svg format is only available for render\n"


class TestExitCodes:
    def test_constants(self):
        assert (EXIT_OK, EXIT_PARSE, EXIT_MISMATCH, EXIT_DEGENERATE) == (0, 2, 3, 4)


class TestOneEdgeTable:
    @pytest.mark.parametrize("command", ["report", "dual", "render", "verify"])
    def test_one_edge_fan_call(self, command, polygon_file, edge_fan_calls, capsys):
        # 5*Delta takes the assumption gate's containment shortcut, so the
        # only edge table verify reads is the report's
        path = polygon_file([[0, 0], [5, 0], [0, 5]])
        assert run([command, "--polygon", path]) == EXIT_OK
        assert len(edge_fan_calls) == 1


class TestListingCap:
    @pytest.mark.parametrize("command", ["assumptions", "verify", "implicitize", "verify --advisory"])
    def test_huge_triangle_exits_2(self, command, polygon_file, capsys):
        path = polygon_file([[0, 0], [10**30, 0], [0, 3]])
        code, payload = run_json(capsys, command.split() + ["--polygon", path, "--format", "json"])
        assert code == EXIT_PARSE
        assert payload == {"error": "polygon has more than 2,097,152 lattice points to list"}


class TestUnitTriangle:
    @pytest.mark.parametrize(
        "command",
        ["report", "dual", "render", "verify", "verify --advisory", "implicitize", "implicitize --advisory"],
    )
    def test_dual_is_a_point(self, command, polygon_file, capsys):
        path = polygon_file([[4, -1], [5, -1], [4, 0]])
        assert run(command.split() + ["--polygon", path]) == EXIT_PARSE
        assert "dual is a point" in capsys.readouterr().out


def test_module_entry_point():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "plucker.cli", "report", "--polygon", "-"],
        input="[[0,0],[5,0],[0,5]]",
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert "inflections        45" in proc.stdout


_HEAVY_MODULES_SCRIPT = """
import contextlib, io, json, sys
at_start = set(sys.modules)
import plucker, plucker.cli as cli

loaded = {}
for command in ("report", "dual", "assumptions", "render", "verify", "implicitize"):
    sys.stdin = io.StringIO("[[0,0],[3,0],[3,2]]")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run([command, "--polygon", "-", "--format", "json", "--advisory"])
    loaded[command] = [code, sorted(m for m in ("sympy", "numpy", "mpmath") if m in sys.modules)]
tops = {name.partition(".")[0] for name in set(sys.modules) - at_start}
loaded["outside the standard library"] = sorted(tops - set(sys.stdlib_module_names) - {"plucker"})
print(json.dumps(loaded))
"""


def test_oracle_libraries_load_only_where_used():
    # no subcommand needs one of them: the combinatorial ones, the exact
    # count behind verify and the exact dual equation behind implicitize
    # load none.  Nor does any load a module outside the standard library;
    # what the interpreter loaded before plucker (say, from .pth files) is
    # not counted
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _HEAVY_MODULES_SCRIPT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    for command in ("report", "dual", "assumptions", "render"):
        assert loaded[command] == [EXIT_OK, []], command
    assert loaded["implicitize"] == [EXIT_OK, []]
    assert loaded["verify"] == [EXIT_OK, []]
    assert loaded["outside the standard library"] == []


_COMMAND_NAMES = ("report", "dual", "assumptions", "verify", "implicitize", "render")


@pytest.mark.parametrize("command", _COMMAND_NAMES)
def test_json_is_one_canonical_line(command, polygon_file, capsys):
    path = polygon_file([[0, 0], [3, 0], [3, 2]])
    assert run([command, "--polygon", path, "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


class TestFlatParser:
    TRIANGLE = [[0, 0], [2, 0], [0, 2]]

    def test_default_formats(self, polygon_file, capsys):
        path = polygon_file(self.TRIANGLE)
        assert run(["render", "--polygon", path]) == EXIT_OK
        assert capsys.readouterr().out.startswith("<svg")
        assert run(["report", "--polygon", path]) == EXIT_OK
        assert capsys.readouterr().out.startswith("polygon            [(0, 0), (2, 0), (0, 2)]\n")

    def test_unknown_command(self, polygon_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["reprot", "--polygon", polygon_file(self.TRIANGLE)])
        assert exc.value.code == EXIT_PARSE
        assert "invalid choice: 'reprot'" in capsys.readouterr().err

    def test_missing_polygon(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["report"])
        assert exc.value.code == EXIT_PARSE
        assert "the following arguments are required: --polygon" in capsys.readouterr().err

    def test_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == EXIT_OK
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert set(_COMMANDS) == set(_COMMAND_NAMES)
        for name, (_, doc) in _COMMANDS.items():
            words = [name, *doc.split()]
            assert any(line[-len(words):] == words for line in lines), name


_coordinate = st.integers(-6, 6)
_odd_value = st.one_of(
    st.floats(), st.booleans(), st.none(), st.just([]), st.text(max_size=3), _coordinate
)
# 1 to 8 vertices in [-6, 6]^2
_POLYGONS = st.lists(st.lists(_coordinate, min_size=2, max_size=2), min_size=1, max_size=8).map(json.dumps)
_MALFORMED = st.one_of(
    # floats (with Infinity and NaN), bools, null, strings and empty arrays
    st.lists(st.one_of(st.lists(_odd_value, max_size=3), _odd_value), max_size=4).map(json.dumps),
    st.sampled_from((
        "", "[]", "[[]]", "{}", "null", "inf", "[[inf, 0], [1, 0], [0, 1]]", "[[0, 0], [1, 0], [0, 1]",
        "[[1e400, 0], [1, 0], [0, 1]]", "[[0, 0], [1, 0], [0, 1.0]]", "[[true, 0], [1, 0], [0, 1]]",
    )),
    # deep nesting, closed or not
    st.builds(lambda n, closed: "[" * n + "]" * n * closed, st.integers(1, 100_000), st.booleans()),
    st.text(max_size=20),
)


def _exit_codes(text, fmt):
    """The exit code of each subcommand on ``text``.  The oracle behind
    verify and implicitize has no size cap yet, so they run, with and
    without --advisory, only on inputs of at most 10 lattice points or
    inputs that fail to parse."""
    try:
        oracle_ok = len(lattice_points(parse_polygon(text))) <= 10
    except (CliError, ValueError):
        oracle_ok = True
    codes = {}
    for command in _COMMAND_NAMES:
        oracle = command in ("verify", "implicitize")
        if oracle and not oracle_ok:
            continue
        for advisory in ([], ["--advisory"]) if oracle else ([],):
            argv = [command, "--polygon", "-", *advisory] + (["--format", fmt] if fmt else [])
            with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(io.StringIO()):
                codes[" ".join(argv)] = run(argv)
    return codes


class TestContract:
    """Every input gets an answer or a documented exit code (2 parse or
    usage, 3 mismatch, 4 oracle degeneracy), and no exception escapes."""

    DOCUMENTED = {EXIT_OK, EXIT_PARSE, EXIT_MISMATCH, EXIT_DEGENERATE}

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_POLYGONS, st.sampled_from((None, "text", "json")))
    def test_polygons(self, text, fmt):
        codes = _exit_codes(text, fmt)
        assert set(codes.values()) <= self.DOCUMENTED, (text, codes)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(_MALFORMED, st.sampled_from((None, "text", "json", "svg")))
    def test_malformed_texts(self, text, fmt):
        codes = _exit_codes(text, fmt)
        assert set(codes.values()) <= self.DOCUMENTED, (text, codes)
