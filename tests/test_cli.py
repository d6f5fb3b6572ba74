import json
from fractions import Fraction as F

import pytest

from gdofic.cli import main
from gdofic.region import AntennaProfile, ExponentProfile, region_of


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRegion:
    def test_json_round_trip(self, capsys):
        code, out, err = run(capsys, "region", "3", "3", "2", "2",
                             "--alpha", "1,2/3,2/3,1")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["antennas"] == [3, 3, 2, 2]
        assert payload["alpha"] == ["1", "2/3", "2/3", "1"]
        vertices = {(F(x), F(y)) for x, y in payload["vertices"]}
        r = region_of(AntennaProfile(3, 3, 2, 2),
                      ExponentProfile.symmetric(F(2, 3)))
        assert vertices == set(r.vertices)
        kinds = [b["kind"] for b in payload["bounds"]]
        assert kinds == ["D1", "D2", "D3", "D4", "D5", "D6", "D7"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "region", "1", "1", "1", "1",
                           "--alpha", "1,2/3,2/3,1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d1,d2"
        assert "2/3,2/3" in lines

    def test_svg_has_exact_vertices(self, capsys):
        code, out, _ = run(capsys, "region", "1", "1", "1", "1",
                           "--alpha", "1,2/3,2/3,1", "--format", "svg")
        assert code == 0
        assert "<svg" in out
        assert 'data-vertices="' in out
        assert "2/3" in out

    def test_reruns_byte_identical(self, capsys):
        argv = ("region", "2", "2", "1", "1", "--alpha", "1,1/3,1/2,3/4")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestSym:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "sym", "1", "1", "1", "1",
                           "--alpha", "1,1/2,1/2,1")
        assert code == 0
        assert json.loads(out)["d_sym"] == "1/2"


class TestSweep:
    def test_csv_header_and_breakpoints(self, capsys):
        code, out, _ = run(capsys, "sweep", "1", "1", "1", "1",
                           "--grid", "0:3:1/12")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,d_sym,active_bound_kind,is_breakpoint"
        flagged = {line.split(",")[0] for line in lines[1:]
                   if line.endswith("true")}
        assert {"1/2", "2/3", "1", "2"} <= flagged

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sweep", "1", "1", "2", "1",
                           "--grid", "0:3:1/6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["breakpoints"] == ["1", "2"]

    def test_svg(self, capsys):
        code, out, _ = run(capsys, "sweep", "1", "1", "1", "1",
                           "--grid", "0:3:1/6", "--format", "svg")
        assert code == 0
        assert "<svg" in out and 'data-points="' in out


class TestReciprocity:
    def test_equal(self, capsys):
        code, out, _ = run(capsys, "reciprocity", "3", "2", "1", "4",
                           "--alpha", "1,1/3,3/4,2/3")
        assert code == 0
        payload = json.loads(out)
        assert payload["equal"] is True
        assert payload["reciprocal_antennas"] == [2, 3, 4, 1]
        assert payload["reciprocal_alpha"] == ["1", "3/4", "1/3", "2/3"]


class TestSplit:
    def test_known_point(self, capsys):
        code, out, _ = run(capsys, "split", "3", "3", "2", "2",
                           "--alpha", "1,2/3,2/3,1", "--point", "1,2")
        assert code == 0
        assert json.loads(out)["split"] == {
            "d1c": "0", "d1p": "1", "d2c": "4/3", "d2p": "2/3",
        }

    def test_point_outside_region(self, capsys):
        code, out, err = run(capsys, "split", "1", "1", "1", "1",
                             "--alpha", "1,1/2,1/2,1", "--point", "2,2")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "point-outside-region"


class TestSimulate:
    def test_siso_tin(self, capsys):
        code, out, _ = run(capsys, "simulate", "1", "1", "1", "1",
                           "--alpha", "1,1/4,1/4,1", "--seed", "5",
                           "--draws", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["fundamental_symmetric_gdof"] == "3/4"
        for v in payload["tin_gdof_estimates"]:
            assert v == pytest.approx(0.75, abs=0.1)

    def test_bad_ladder(self, capsys):
        code, _, err = run(capsys, "simulate", "1", "1", "1", "1",
                           "--ladder", "1e8,1e9")
        assert code == 1
        assert json.loads(err)["error"] == "bad-ladder"

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_bad_draws(self, capsys, draws):
        code, out, err = run(capsys, "simulate", "1", "1", "1", "1",
                             "--alpha", "1,1/2,1/2,1", "--draws", draws)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "bad-draws"


class TestClassify:
    def test_regime(self, capsys):
        code, out, _ = run(capsys, "classify", "3", "2", "--alpha", "7/4")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "very_strong"
        assert payload["alpha_star"] == "3/2"

    def test_rejects_m_lt_n(self, capsys):
        code, _, err = run(capsys, "classify", "1", "2", "--alpha", "1/2")
        assert code == 1
        assert json.loads(err)["error"] == "bad-classify"


class TestErrorsAndOutput:
    @pytest.mark.parametrize("argv,code", [
        (("region", "1", "1", "1", "1", "--alpha", "1,2"), "bad-alpha"),
        (("region", "1", "1", "1", "1", "--alpha", "2,1,1,1"), "bad-alpha"),
        (("region", "0", "1", "1", "1"), "bad-antennas"),
        (("sweep", "1", "1", "1", "1", "--grid", "1:0:1"), "bad-grid"),
        (("split", "1", "1", "1", "1", "--point", "1"), "bad-point"),
    ])
    def test_error_codes(self, capsys, argv, code):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert json.loads(err)["error"] == code

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "r.json"
        code, out, _ = run(capsys, "sym", "1", "1", "1", "1",
                           "--alpha", "1,1/2,1/2,1", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["d_sym"] == "1/2"
        # no stray temp files from the atomic write
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GDOFIC_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "sym", "1", "1", "1", "1",
                         "--alpha", "1,1/2,1/2,1", "--output", "sym.json")
        assert code == 0
        assert (tmp_path / "sym.json").exists()

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run(capsys, "sym", "1", "1", "1", "1",
                           "--output", str(tmp_path / "no" / "such" / "x.json"))
        assert code == 1
        assert json.loads(err)["error"] == "unwritable-output"
