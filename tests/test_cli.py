import json
import os
import subprocess
import sys

import pytest

from plucker.cli import (
    EXIT_DEGENERATE,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    parse_polygon,
    run,
)


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

    def test_refuses_without_advisory(self, polygon_file, capsys):
        path = polygon_file([[0, 0], [0, 1], [1, 1]])
        assert run(["verify", "--polygon", path]) == EXIT_PARSE


class TestRender:
    def test_svg_output(self, polygon_file, tmp_path, capsys):
        path = polygon_file([[0, 0], [2, 0], [0, 2]])
        out = tmp_path / "picture.svg"
        code = run(["render", "--polygon", path, "--out", str(out)])
        assert code == EXIT_OK
        svg = out.read_text()
        assert svg.startswith("<svg") and "</svg>" in svg

    def test_svg_only_for_render(self, polygon_file, capsys):
        path = polygon_file([[0, 0], [2, 0], [0, 2]])
        assert run(["report", "--polygon", path, "--format", "svg"]) == EXIT_PARSE


class TestExitCodes:
    def test_constants(self):
        assert (EXIT_OK, EXIT_PARSE, EXIT_MISMATCH, EXIT_DEGENERATE) == (0, 2, 3, 4)


class TestDualFanOnce:
    @pytest.mark.parametrize("command", ["dual", "render"])
    def test_one_dual_fan_call(self, command, polygon_file, dual_fan_calls, capsys):
        path = polygon_file([[0, 0], [3, 0], [3, 4], [0, 4]])
        assert run([command, "--polygon", path]) == EXIT_OK
        assert len(dual_fan_calls) == 1


class TestUnitTriangle:
    @pytest.mark.parametrize("command", ["report", "dual", "render"])
    def test_dual_is_a_point(self, command, polygon_file, capsys):
        path = polygon_file([[4, -1], [5, -1], [4, 0]])
        assert run([command, "--polygon", path]) == EXIT_PARSE
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
