"""Command line behaviour: subcommands, exit codes, file flows, determinism."""

import json

import pytest

from ncmilnor.cli import main
from ncmilnor.blowup import point_center, save_center
from ncmilnor.milnor import naive_absolute_class
from ncmilnor.model import builtin_example, load_model, save_model, validate

BUILTINS = ("smooth", "xy", "cusp_resolved", "power_3", "xa_yb_2_3")


@pytest.fixture
def xy_path(tmp_path):
    path = tmp_path / "xy.json"
    path.write_text(save_model(builtin_example("xy")))
    return str(path)


@pytest.fixture
def origin_path(tmp_path):
    path = tmp_path / "origin.json"
    path.write_text(save_center(point_center(("x", "y"), codim=2)))
    return str(path)


XY_POINT = {"base": [[0, 0], [0, 0]],
            "polar": [{"i": 0, "r": 1.0, "theta": [1.0, 0.0]},
                      {"i": 1, "r": 1.0, "theta": [0.0, 1.0]}]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_model(self, capsys, xy_path):
        code, out, _ = run(capsys, "validate", xy_path)
        assert code == 0
        assert out.strip() == "ok"

    def test_broken_model(self, capsys, tmp_path):
        doc = json.loads(save_model(builtin_example("xy")))
        doc["components"][0]["multiplicity"] = 0
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 2
        assert "multiplicity" in out

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.json")
        assert code == 2
        assert "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "line" in err


class TestReports:
    def test_census(self, capsys, xy_path):
        code, out, _ = run(capsys, "census", xy_path, "--stratum", "x,y")
        assert code == 0
        assert "4 pieces, 2 mixed" in out
        assert "S^1 x S^1" in out and "C* x C*" in out

    def test_zeta_cusp(self, capsys, tmp_path):
        path = tmp_path / "cusp.json"
        path.write_text(save_model(builtin_example("cusp_resolved")))
        code, out, _ = run(capsys, "zeta", str(path))
        assert code == 0
        assert out.strip() == "(1-t^2)^1 (1-t^3)^1 (1-t^6)^-1"

    def test_euler(self, capsys, tmp_path):
        path = tmp_path / "cusp.json"
        path.write_text(save_model(builtin_example("cusp_resolved")))
        code, out, _ = run(capsys, "euler", str(path))
        assert code == 0
        assert out.strip() == "-1"

    def test_motivic(self, capsys, xy_path):
        code, out, _ = run(capsys, "motivic", xy_path)
        assert code == 0
        assert "keyed class" in out
        assert "absolute class: -1 + 2*L + -1*L^2" in out

    def test_json_mode_is_parseable(self, capsys, xy_path):
        code, out, _ = run(capsys, "--json", "motivic", xy_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["absolute"] == [-1, 2, -1]
        assert payload["keyed"] == {"1": [1, -1]}

    @pytest.mark.parametrize("name", BUILTINS)
    def test_motivic_absolute_matches_naive_class(self, capsys, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(save_model(builtin_example(name)))
        code, out, _ = run(capsys, "--json", "motivic", str(path))
        assert code == 0
        expected = naive_absolute_class(builtin_example(name))
        assert json.loads(out)["absolute"] == list(expected.coeffs)

    def test_determinism(self, capsys, xy_path):
        _, first, _ = run(capsys, "motivic", xy_path)
        _, second, _ = run(capsys, "motivic", xy_path)
        assert first == second


class TestBlowupFlow:
    def test_blowup_then_invariance(self, capsys, tmp_path, xy_path, origin_path):
        out_path = tmp_path / "blown.json"
        code, out, _ = run(capsys, "blowup", xy_path, "--center", origin_path,
                           "--out", str(out_path))
        assert code == 0
        blown = load_model(out_path.read_text())
        assert validate(blown) == []
        assert blown.multiplicity("E") == 2

        code, out, _ = run(capsys, "invariance", xy_path, "--center", origin_path)
        assert code == 0
        assert "all realizations equal" in out
        assert "keyed delta" in out
        assert "{1: 1 + -1*L, 2: -1 + 1*L}" in out

    def test_emitted_pair_matches_in_process_check(self, capsys, tmp_path,
                                                   xy_path, origin_path):
        # realizations computed from the written file agree with the report
        out_path = tmp_path / "blown.json"
        run(capsys, "blowup", xy_path, "--center", origin_path, "--out", str(out_path))
        _, report_out, _ = run(capsys, "--json", "invariance", xy_path,
                               "--center", origin_path)
        report = json.loads(report_out)
        for command, key in (("zeta", "zeta"), ("euler", "euler")):
            _, before, _ = run(capsys, command, xy_path)
            _, after, _ = run(capsys, command, str(out_path))
            assert before == after
            assert str(report[key]["after"]) == after.strip()

    def test_invariance_json(self, capsys, xy_path, origin_path):
        code, out, _ = run(capsys, "--json", "invariance", xy_path,
                           "--center", origin_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"] is True
        assert payload["keyed_delta"] == {"1": [1, -1], "2": [-1, 1]}

    def test_huge_multiplicity(self, capsys, tmp_path):
        model_path = tmp_path / "power.json"
        code, _, _ = run(capsys, "examples", "--name", f"power_{10**20}",
                         "--out", str(model_path))
        assert code == 0
        center_path = tmp_path / "point.json"
        center_path.write_text(save_center(point_center(["x"], codim=1)))
        code, out, _ = run(capsys, "invariance", str(model_path), "--center", str(center_path))
        assert code == 0
        assert "all realizations equal" in out

    def test_ambient_dim_over_limit_exits_2(self, capsys, tmp_path):
        # a point centre of codim ambient_dim would need a class with
        # ambient_dim coefficients; the model is rejected before that
        model_path = tmp_path / "huge.json"
        model_path.write_text(json.dumps({
            "ambient_dim": 10**6, "mode": "local",
            "components": [{"id": "x", "multiplicity": 1}],
            "strata": [{"components": ["x"], "class": [1]}]}))
        center_path = tmp_path / "point.json"
        center_path.write_text(save_center(point_center(["x"], codim=10**6)))
        code, out, err = run(capsys, "invariance", str(model_path),
                             "--center", str(center_path))
        assert code == 2
        assert "error: ambient_dim: must be at most 4096, got 1000000" in err
        assert "Traceback" not in err
        assert out == ""

    def test_center_outside_tracked_locus(self, capsys, tmp_path, xy_path):
        center_path = tmp_path / "offside.json"
        center_path.write_text(save_center(point_center(("x",), codim=2)))
        code, _, err = run(capsys, "invariance", xy_path, "--center", str(center_path))
        assert code == 2
        assert "tracked locus" in err


class TestNumericCommands:
    def test_recover(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(save_model(builtin_example("xa_yb_2_3")))
        code, out, _ = run(capsys, "recover", str(path), "--point", "[[0,0],[0,0]]")
        assert code == 0
        assert "winding 2" in out and "winding 3" in out
        assert "windings match" in out

    def test_monodromy_demo(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(save_model(builtin_example("power_2")))
        point = json.dumps({"base": [[0, 0]],
                            "polar": [{"i": 0, "r": 1.0, "theta": [1, 0]}]})
        code, out, _ = run(capsys, "monodromy-demo", str(path),
                           "--point", point, "--steps", "4")
        assert code == 0
        assert "max gap" in out
        last = [line for line in out.splitlines() if line.startswith("max gap")][0]
        assert float(last.split()[-1]) < 1e-9

    def test_recover_bad_point(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(save_model(builtin_example("xy")))
        code, _, err = run(capsys, "recover", str(path), "--point", "[[0,0]]")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["monodromy-demo", "--point", json.dumps(XY_POINT), "--steps", "0"],
        ["monodromy-demo", "--point", json.dumps(XY_POINT), "--steps", "-1"],
        ["recover", "--point", "[[0,0],[0,0]]", "--samples", "4"],
        ["monodromy-demo", "--point",
         json.dumps(XY_POINT).replace("[1.0, 0.0]", "[NaN, 0.0]", 1)],
        ["recover", "--point", "[[NaN,0],[0,0]]"],
    ], ids=["steps-0", "steps-negative", "samples-4", "nan-phase", "nan-base"])
    def test_out_of_range_input_exits_2(self, capsys, xy_path, argv):
        # exit 1 is reserved for a computed inequality
        try:
            code = main([argv[0], xy_path, *argv[1:]])
        except SystemExit as exc:  # argparse rejects bad flag values this way
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestExamples:
    def test_every_builtin_written_file_validates(self, capsys, tmp_path):
        for name in BUILTINS:
            out_path = tmp_path / f"{name}.json"
            code, _, _ = run(capsys, "examples", "--name", name, "--out", str(out_path))
            assert code == 0
            code, out, _ = run(capsys, "validate", str(out_path))
            assert code == 0 and out.strip() == "ok"

    def test_unknown_name(self, capsys, tmp_path):
        code, _, err = run(capsys, "examples", "--name", "nope",
                           "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "unknown example" in err
