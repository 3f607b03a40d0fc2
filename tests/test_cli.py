"""Command line behaviour: subcommands, exit codes, file flows, determinism."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import ncmilnor
from ncmilnor.cli import MAX_STEPS, main
from ncmilnor.blowup import CenterSpec, point_center, save_center
from ncmilnor.milnor import naive_absolute_class
from ncmilnor.model import (
    Component,
    NCModel,
    Stratum,
    builtin_example,
    load_model,
    save_model,
    validate,
)
from ncmilnor.ring import ONE, LefschetzPoly

BUILTINS = ("smooth", "xy", "cusp_resolved", "power_3", "xa_yb_2_3")
SRC = str(Path(ncmilnor.__file__).resolve().parent.parent)


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


class TestNonUtf8Input:
    """A model or centre file that is not UTF-8 is an input error naming the
    file, not a traceback."""

    @pytest.fixture
    def bad_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        return str(path)

    def assert_names_file(self, capsys, argv, path):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {path}: not UTF-8 text")
        assert out == ""

    @pytest.mark.parametrize("command", ["validate", "zeta", "motivic"])
    def test_model_file(self, capsys, bad_path, command):
        self.assert_names_file(capsys, [command, bad_path], bad_path)

    def test_blowup_center(self, capsys, tmp_path, xy_path, bad_path):
        out = str(tmp_path / "out.json")
        self.assert_names_file(capsys, ["blowup", xy_path, "--center", bad_path,
                                        "--out", out], bad_path)
        assert not Path(out).exists()

    def test_invariance_center(self, capsys, xy_path, bad_path):
        self.assert_names_file(capsys, ["invariance", xy_path, "--center", bad_path],
                               bad_path)


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

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_warning_is_a_stderr_line_under_an_error_filter(self, capsys, tmp_path, xy_path,
                                                            flags):
        # a corner centre of class 2 leaves the corner stratum class -1
        center_path = tmp_path / "corner2.json"
        center_path.write_text(save_center(
            CenterSpec(("x", "y"), (), 2, {frozenset(): LefschetzPoly((2,))}, "E")))
        argv = [*flags, "blowup", xy_path, "--center", str(center_path),
                "--out", str(tmp_path / "blown.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 0
        assert err == ("warning: stratum {x, y}: class minus centre class has negative "
                       "leading coefficient; check the centre data\n")
        assert (code, out, err) == run(capsys, *argv)

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


# single-field corruptions of the xy document (the path of keys and indexes
# to the field, its new value), and what validate prints
CORRUPTIONS = {
    "zero-multiplicity": ((("components", 0, "multiplicity"), 0), [
        "components[0] ('x'): multiplicity must be >= 1, got 0"]),
    "duplicate-id": ((("components", 1, "id"), "x"), [
        "components[1] ('x'): duplicate component id",
        "strata[0] ({x, y}): unknown component ids ['y']",
        "charts[0]: unknown component id 'y'"]),
    "unknown-member": ((("strata", 0, "components"), ["x", "ghost"]), [
        "strata[0] ({ghost, x}): unknown component ids ['ghost']"]),
    "zero-class": ((("strata", 0, "class"), [0]), [
        "strata[0] ({x, y}): empty stratum must be omitted, not stored with class 0"]),
    "degree-over-bound": ((("strata", 0, "class"), [0, 1]), [
        "strata[0] ({x, y}): class degree 1 exceeds dimension bound 0"]),
    "long-multiplicity": ((("components", 0, "multiplicity"), 10**1000), [
        "components[0] ('x'): multiplicity has more than 1000 digits"]),
}

# every subcommand that reads a model, with the arguments after the model;
# ORIGIN and OUT stand for a centre file and an output path
MODEL_COMMANDS = {
    "validate": [],
    "census": ["--stratum", "x,y"],
    "zeta": [],
    "euler": [],
    "motivic": [],
    "blowup": ["--center", "ORIGIN", "--out", "OUT"],
    "invariance": ["--center", "ORIGIN"],
    "recover": ["--point", "[[0,0],[0,0]]"],
    "monodromy-demo": ["--point", json.dumps(XY_POINT)],
}


class TestInvalidDocuments:
    """A document that breaks an invariant is an input error for every
    subcommand that reads it, never a traceback."""

    @pytest.fixture(params=CORRUPTIONS, ids=list(CORRUPTIONS))
    def corrupted(self, request, tmp_path):
        ((*keys, last), value), expected = CORRUPTIONS[request.param]
        doc = json.loads(save_model(builtin_example("xy")))
        field = doc
        for key in keys:
            field = field[key]
        field[last] = value
        model_path = tmp_path / "corrupt.json"
        model_path.write_text(json.dumps(doc))
        return str(model_path), expected

    @pytest.mark.parametrize("command", MODEL_COMMANDS)
    def test_exits_2(self, capsys, tmp_path, origin_path, corrupted, command):
        model_path, expected = corrupted
        out_path = tmp_path / "out.json"
        files = {"ORIGIN": origin_path, "OUT": str(out_path)}
        rest = [files.get(arg, arg) for arg in MODEL_COMMANDS[command]]
        code, out, err = run(capsys, command, model_path, *rest)
        assert code == 2
        assert "Traceback" not in err
        assert not out_path.exists()
        if command == "validate":
            assert out.splitlines() == expected and err == ""
        else:
            assert out == "" and err == f"error: {'; '.join(expected)}\n"

    def test_validate_json(self, capsys, corrupted):
        model_path, expected = corrupted
        code, out, _ = run(capsys, "--json", "validate", model_path)
        assert code == 2
        payload = json.loads(out)
        assert [f"{v['where']}: {v['problem']}" for v in payload["violations"]] == expected


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

    @pytest.mark.parametrize("argv", [
        ["recover", "--point", "[[0,0],[0,0]]"],
        ["monodromy-demo", "--point", json.dumps(XY_POINT)],
    ], ids=["recover", "monodromy-demo"])
    @pytest.mark.parametrize("chart", ["-1", "1"])
    def test_chart_out_of_range(self, capsys, xy_path, argv, chart):
        code, out, err = run(capsys, argv[0], xy_path, "--chart", chart, *argv[1:])
        assert code == 2
        assert err == f"error: model has no chart {chart}\n"
        assert out == ""

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
        # argparse rejects the count before a row is built
        ["monodromy-demo", "--point", json.dumps(XY_POINT), "--steps", str(MAX_STEPS + 1)],
        # a clock speed 1/r that overflows would send the point to the boundary
        ["monodromy-demo", "--steps", "2", "--point",
         json.dumps(XY_POINT).replace('"r": 1.0', '"r": 1e-320')],
        # speeds (1e300, 1e-300): the second radius scaled by their sum overflows
        ["monodromy-demo", "--steps", "2", "--point",
         json.dumps(XY_POINT).replace('"r": 1.0', '"r": 1e-300', 1)
         .replace('"r": 1.0', '"r": 1e300')],
    ], ids=["steps-0", "steps-negative", "samples-4", "nan-phase", "nan-base",
            "steps-too-many", "subnormal-radius", "rescaled-radius-overflow"])
    def test_out_of_range_input_exits_2(self, capsys, xy_path, argv):
        # exit 1 is reserved for a computed inequality
        try:
            code = main([argv[0], xy_path, *argv[1:]])
        except SystemExit as exc:  # argparse rejects bad flag values this way
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestParserLimits:
    """JSON the parser cannot take (nesting past its recursion limit, an
    integer longer than the interpreter converts) is an input error."""

    DEEP = "[" * 200_000
    LONG = "1" + "0" * 5000

    def assert_input_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_deeply_nested_document(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        self.assert_input_error(capsys, ["validate", str(path)])

    def test_long_integer_in_document(self, capsys, tmp_path):
        doc = json.loads(save_model(builtin_example("xy")))
        text = json.dumps(doc).replace('"multiplicity": 1', f'"multiplicity": {self.LONG}', 1)
        path = tmp_path / "long.json"
        path.write_text(text)
        self.assert_input_error(capsys, ["validate", str(path)])

    @pytest.mark.parametrize("command", ["recover", "monodromy-demo"])
    @pytest.mark.parametrize("point", [DEEP, f"[[{LONG}, 0], [0, 0]]"], ids=["deep", "long"])
    def test_point_argument(self, capsys, xy_path, command, point):
        self.assert_input_error(capsys, [command, xy_path, "--point", point])

    def test_console_entry_point(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(self.DEEP)
        proc = subprocess.run([sys.executable, "-m", "ncmilnor.cli", "validate", str(path)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def chart_unit_doc(**term):
    doc = json.loads(save_model(builtin_example("xy")))
    doc["charts"][0]["unit"][0].update(term)
    return doc


class TestChartUnits:
    """Malformed chart units are located input errors, never a traceback."""

    EXPONENTS = "'exponents' must be a list of integers >= 0"
    RATIONAL = "field 're' must be a string '<int>' or '<int>/<int>'"

    @pytest.mark.parametrize("command", ["validate", "recover"])
    @pytest.mark.parametrize("term, problem", [
        ({"exponents": ["a"]}, EXPONENTS),
        ({"exponents": [1.5]}, EXPONENTS),
        ({"exponents": [True]}, EXPONENTS),
        ({"re": [1]}, RATIONAL),
        ({"re": "1e999"}, RATIONAL),
        ({"re": 0.5}, RATIONAL),
        ({"re": "1" + "0" * 400}, "field 're' is too large for a float"),
    ], ids=["exponent-text", "exponent-float", "exponent-bool", "re-list", "re-1e999",
            "re-number", "re-overflow"])
    def test_exits_2_with_located_error(self, capsys, tmp_path, command, term, problem):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(chart_unit_doc(**term)))
        extra = ["--point", "[[0, 0], [0, 0]]"] if command == "recover" else []
        code, out, err = run(capsys, command, str(path), *extra)
        assert (code, out, err) == (2, "", f"error: charts[0].unit[0]: {problem}\n")

    def test_charts_must_be_a_list(self, capsys, tmp_path):
        doc = json.loads(save_model(builtin_example("xy")))
        doc["charts"] = {"a": 1}
        path = tmp_path / "charts.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (2, "", "error: document: field 'charts' must be a list\n")


class TestStrataBound:
    """A census or blow-up with more pieces than ``MAX_STRATA`` stops before
    building any of them."""

    N = 40

    @pytest.fixture
    def wide_paths(self, tmp_path):
        ids = [f"c{i:02d}" for i in range(self.N)]
        model = tmp_path / "wide.json"
        model.write_text(save_model(NCModel(
            self.N, "local", [Component(c, 1) for c in ids], [Stratum(ids, ONE)])))
        center = tmp_path / "point.json"
        center.write_text(save_center(point_center(ids, self.N)))
        return str(model), str(center), ",".join(ids)

    @pytest.mark.parametrize("command", ["invariance", "census"])
    def test_exits_2_at_once(self, capsys, wide_paths, command):
        # imported here, so that without the bound the test stops before 2^40 pieces
        from ncmilnor.model import MAX_STRATA

        model, center, ids = wide_paths
        argv = ([command, model, "--center", center] if command == "invariance"
                else [command, model, "--stratum", ids])
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        expected = {
            "invariance": f"center: blow-up would build up to 1 + 1 * 2^{self.N} strata",
            "census": f"census of {self.N} components has 2^{self.N} pieces",
        }[command]
        assert (code, out, err) == (2, "", f"error: {expected}, more than {MAX_STRATA}\n")


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

    def test_power_zero_names_the_exponent_rule(self, capsys, tmp_path):
        code, out, err = run(capsys, "examples", "--name", "power_0",
                             "--out", str(tmp_path / "p.json"))
        assert (code, out, err) == (2, "", "error: power exponent must be >= 1, got 0\n")
