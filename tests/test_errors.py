"""Every error path of the package, pinned by callable, exception type and
exact message.  Errors in model and centre documents are also run through
``cli.main``, where they must exit 2 with one ``error:`` line and no
traceback."""

import json
import math
from itertools import count

import pytest

from ncmilnor.blowup import CenterSpec, load_center, point_center, save_center, validate_center
from ncmilnor.cli import main
from ncmilnor.logspace import (
    ChartContext,
    CplPoint,
    LogspaceError,
    PolarCoord,
    TopPointError,
    UnitVanishingError,
    UnwrapError,
    chart_context,
    f_mot,
    in_simplex,
    monodromy,
    point_from_json,
    psi_map,
    pullback_motivic_value,
    recover_multiplicities,
    sigma_alog_chart,
    sign_oracle,
    simplex_representative,
    xi,
)
from ncmilnor.model import (
    MAX_STRATA,
    Chart,
    Component,
    InvalidModelError,
    ModelError,
    ModelParseError,
    NCModel,
    Stratum,
    UnitPoly,
    builtin_example,
    census,
    load_model,
    power_model,
    save_model,
    two_axes_model,
)
from ncmilnor.ring import ONE, KeyedClass, LefschetzPoly, UVPoly, ZetaFactorization, bezout_chain

XY = builtin_example("xy")
PC = PolarCoord(1.0, 1 + 0j)


def xy_ctx():
    return chart_context(XY)


def ctx(dim, coords, multiplicities, unit=UnitPoly.constant(1)):
    return ChartContext(Chart(dim, coords, unit), multiplicities)


def wide_model(n):
    """One stratum, a point, on n components."""
    ids = [f"c{i:02d}" for i in range(n)]
    return NCModel(n, "local", [Component(c, 1) for c in ids], [Stratum(ids, ONE)])


def stepping_oracle(turns_at):
    """A phase oracle that advances a quarter turn on each of its first
    ``turns_at`` calls after the first and then stands still."""
    calls = count()
    return lambda phases: 1j ** min(next(calls), turns_at)


def tiny_radius_point():
    """An algebraic point of ``xy`` whose radii are subnormal floats."""
    return CplPoint(xy_ctx(), (0j, 0j), {0: PolarCoord(1e-320, 1 + 0j), 1: PolarCoord(1e-320, 1j)})


def xayb_point(radius, radius_1=None):
    return CplPoint(chart_context(builtin_example("xa_yb_2_3")), (0j, 0j),
                    {0: PolarCoord(radius, 1 + 0j),
                     1: PolarCoord(radius if radius_1 is None else radius_1, 1j)})


TINY_RADIUS = "clock speed at coordinate 0 is not finite: radius 1e-320 is too small"
BEZOUT_RANGE = "Bezout splitting is zero or not finite at the point"

# (id, callable, exception type, exact message)
RAISES = [
    # ring
    ("bezout-empty", lambda: bezout_chain([]), ValueError,
     "bezout_chain needs at least one value"),
    ("bezout-nonpositive", lambda: bezout_chain([0, 2]), ValueError,
     "values must be positive, got [0, 2]"),
    ("poly-float-coefficient", lambda: LefschetzPoly([1.5]), TypeError,
     "coefficients must be exact integers, got 1.5"),
    ("uv-negative-exponent", lambda: UVPoly({(-1, 0): 1}), ValueError,
     "negative exponent in UVPoly term (-1,0)"),
    ("uv-float-coefficient", lambda: UVPoly({(0, 0): 1.5}), TypeError,
     "UVPoly coefficients must be integers"),
    ("keyed-entry-type", lambda: KeyedClass({1: 5}), TypeError,
     "entries must be LefschetzPoly values"),
    ("zeta-order", lambda: ZetaFactorization([(0, 1)]), ValueError,
     "orders must be positive integers, got 0"),
    ("zeta-exponent", lambda: ZetaFactorization([(1, 1.5)]), TypeError,
     "exponents must be integers"),
    # model
    ("unit-negative-exponent", lambda: UnitPoly({(-1,): (1, 0)}), ModelError,
     "negative exponent in unit term (-1,)"),
    ("unit-short-point", lambda: UnitPoly({(0, 1): (1, 0)})((0j,)), ModelError,
     "unit term (0, 1) needs 2 coordinates, got 1"),
    ("stratum-empty-subset",
     lambda: NCModel(1, "global", [Component("x", 1)], [Stratum((), ONE)]),
     InvalidModelError, "strata[0] ({}): stratum subset must be nonempty"),
    ("census-empty", lambda: census(XY, []), ModelError, "census subset must be nonempty"),
    ("census-too-many-pieces", lambda: census(wide_model(18), [f"c{i:02d}" for i in range(18)]),
     ModelError, f"census of 18 components has 2^18 pieces, more than {MAX_STRATA}"),
    ("power-zero", lambda: power_model(0), ModelError, "power exponent must be >= 1, got 0"),
    ("example-power-zero", lambda: builtin_example("power_0"), ModelError,
     "power exponent must be >= 1, got 0"),
    ("two-axes-zero", lambda: two_axes_model(0, 1), ModelError,
     "axis multiplicities must be >= 1, got (0, 1)"),
    ("example-two-axes-name", lambda: builtin_example("xa_yb_1"), ModelError,
     "bad two-axes example name 'xa_yb_1'"),
    # blowup
    ("center-duplicate-subset",
     lambda: CenterSpec({"x"}, {"y"}, 2, {("y",): ONE, frozenset({"y"}): ONE}, "E"),
     InvalidModelError, "center_strata: duplicate subset ['y']"),
    # logspace
    ("boundary-value", lambda: PolarCoord(math.inf, 1 + 0j).value(), TopPointError,
     "no complex value at the boundary circle"),
    ("context-coordinate-out-of-chart", lambda: ctx(1, {3: "x"}, {3: 1}), LogspaceError,
     "divisor coordinate 3 is outside the chart's 1 coordinates"),
    ("context-not-divisor", lambda: ctx(2, {0: "x"}, {0: 1, 1: 1}), LogspaceError,
     "coordinate 1 is not a divisor coordinate"),
    ("context-multiplicity", lambda: ctx(2, {0: "x"}, {0: 0}), LogspaceError,
     "multiplicity at coordinate 0 must be >= 1"),
    ("context-multiplicity-bound", lambda: ctx(1, {0: "x"}, {0: 10**12 + 1}), LogspaceError,
     "multiplicity at coordinate 0 exceeds 10**12 = 1/PHASE_TOL"),
    ("context-missing-multiplicity", lambda: ctx(2, {0: "x", 1: "y"}, {0: 1}), LogspaceError,
     "every divisor coordinate needs a multiplicity"),
    ("context-lookup", lambda: xy_ctx().multiplicity(5), LogspaceError,
     "coordinate 5 is not a divisor coordinate"),
    ("point-base-length", lambda: CplPoint(xy_ctx(), (0,), {0: PC}), LogspaceError,
     "base has 1 coordinates, chart dim is 2"),
    ("point-no-polar", lambda: CplPoint(xy_ctx(), (1, 1), {}), LogspaceError,
     "a log point must sit on at least one divisor coordinate"),
    ("point-polar-not-divisor", lambda: CplPoint(ctx(2, {0: "x"}, {0: 1}), (0, 0), {1: PC}),
     LogspaceError, "coordinate 1 is not a divisor coordinate"),
    ("f-mot-unit-vanishes",
     lambda: f_mot(CplPoint(ctx(2, {0: "x"}, {0: 1}, UnitPoly({})), (0, 1), {0: PC})),
     UnitVanishingError, "unit vanishes at the base point"),
    ("f-mot-unit-overflows",
     lambda: f_mot(CplPoint(ctx(2, {0: "x"}, {0: 1}, UnitPoly({(0, 100000): (1, 0)})),
                            (0, 2), {0: PC})),
     LogspaceError, "unit is not finite at the base point"),
    ("oracle-no-divisor", lambda: sign_oracle(xy_ctx(), [1, 1]), LogspaceError,
     "base point lies on no divisor coordinate"),
    ("blowup-no-centre-coordinate",
     lambda: sigma_alog_chart(2, {5: 1}, UnitPoly.constant(1), 0, (0j, 0j), {0: PC}),
     LogspaceError, "divisor coordinates must be centre coordinates"),
    ("blowup-codim-over-dim",
     lambda: sigma_alog_chart(3, {0: 1}, UnitPoly.constant(1), 0, (0j, 1j), {0: PC}),
     LogspaceError, "codim exceeds the chart dimension"),
    ("blowup-pivot",
     lambda: sigma_alog_chart(2, {0: 1}, UnitPoly.constant(1), 2, (0j, 1j), {0: PC}),
     LogspaceError, "pivot 2 is not a centre coordinate"),
    ("blowup-polar-not-divisor",
     lambda: sigma_alog_chart(2, {0: 1}, UnitPoly.constant(1), 0, (0j, 0j), {0: PC, 1: PC}),
     LogspaceError, "coordinate 1 is not a divisor coordinate"),
    ("blowup-strict-base",
     lambda: sigma_alog_chart(2, {0: 1, 1: 1}, UnitPoly.constant(1), 1, (0.5, 0j),
                              {1: PC, 0: PC}),
     LogspaceError, "base coordinate 0 must be exactly zero"),
    ("pullback-unit-vanishes",
     lambda: pullback_motivic_value(2, {0: 1}, UnitPoly({}), 0, (0j, 1 + 0j), {0: PC}),
     UnitVanishingError, "unit vanishes at the base point"),
    ("blowup-radius-underflow",
     lambda: sigma_alog_chart(2, {0: 1}, UnitPoly.constant(1), 1, (0j, 0j),
                              {1: PolarCoord(1e-200, 1 + 0j), 0: PolarCoord(1e-200, 1j)}),
     LogspaceError, "value at coordinate 0 is zero or not finite"),
    ("blowup-radius-overflow",
     lambda: sigma_alog_chart(2, {0: 1}, UnitPoly.constant(1), 1, (0j, 0j),
                              {1: PolarCoord(1e200, 1 + 0j), 0: PolarCoord(1e200, 1j)}),
     LogspaceError, "value at coordinate 0 is zero or not finite"),
    ("point-document", lambda: point_from_json(xy_ctx(), {}), LogspaceError,
     "bad point document: 'base'"),
    ("xi-subnormal-radius", lambda: xi(tiny_radius_point()), LogspaceError, TINY_RADIUS),
    ("simplex-subnormal-radius", lambda: simplex_representative(tiny_radius_point()),
     LogspaceError, TINY_RADIUS),
    ("in-simplex-subnormal-radius", lambda: in_simplex(tiny_radius_point()), LogspaceError,
     TINY_RADIUS),
    ("monodromy-subnormal-radius", lambda: monodromy(tiny_radius_point(), 0.5), LogspaceError,
     TINY_RADIUS),
    ("xi-huge-radius", lambda: xi(xayb_point(1e308)), LogspaceError,
     "clock speed at coordinate 0 underflows to zero: radius 1e+308 is too large"),
    ("simplex-rescaled-radius-overflow",
     lambda: simplex_representative(xayb_point(1e-300, 1e300)), LogspaceError,
     "rescaled radius at coordinate 1 overflows"),
    ("psi-map-overflow", lambda: psi_map(xayb_point(1e200)), LogspaceError, BEZOUT_RANGE),
    ("psi-map-underflow", lambda: psi_map(xayb_point(1e-200)), LogspaceError, BEZOUT_RANGE),
]


@pytest.mark.parametrize("thunk, exc_type, message",
                         [case[1:] for case in RAISES], ids=[case[0] for case in RAISES])
def test_raises(thunk, exc_type, message):
    with pytest.raises(exc_type) as info:
        thunk()
    assert str(info.value) == message


def test_unwrap_net_winding_not_integer():
    with pytest.raises(UnwrapError, match=r"^net winding 1\.25\d* is not an integer at slot 0$"):
        recover_multiplicities(stepping_oracle(5), 1, samples_per_loop=8)


def center(containing, transverse=(), codim=2, pieces=None, new_id="E"):
    return CenterSpec(containing, transverse, codim,
                      {(): ONE} if pieces is None else pieces, new_id)


NO_STRATUM = ("no such stratum in the model (in local mode this means the centre leaves "
              "the tracked locus)")

# (id, model, centre, exact violation list)
CENTER_VIOLATIONS = [
    ("containing-empty", XY, center((), codim=1),
     ["center.containing: must be nonempty", f"center_strata[{{}}]: {NO_STRATUM}"]),
    ("unknown-id", XY, center({"x", "z"}),
     ["center: unknown component id 'z'", f"center_strata[{{}}]: {NO_STRATUM}"]),
    ("codim-over-ambient", XY, center({"x", "y"}, codim=3),
     ["center.codim: exceeds ambient_dim 2",
      "center_strata[{}]: class degree 0 exceeds centre-piece dimension -1"]),
    ("new-id-in-use", XY, center({"x", "y"}, new_id="x"),
     ["center.new_component_id: 'x' already in use"]),
    ("too-many-strata", wide_model(17), center([f"c{i:02d}" for i in range(17)], codim=17),
     [f"center: blow-up would build up to 1 + 1 * 2^17 strata, more than {MAX_STRATA}"]),
    ("subset-not-transverse", XY, center({"x"}, pieces={("y",): ONE}),
     ["center_strata[{y}]: subset not contained in the transverse set"]),
]


@pytest.mark.parametrize("model, spec, expected", [case[1:] for case in CENTER_VIOLATIONS],
                         ids=[case[0] for case in CENTER_VIOLATIONS])
def test_center_violations(model, spec, expected):
    assert [str(v) for v in validate_center(model, spec)] == expected


# ---------------------------------------------------------------------------
# documents: load_model / load_center and the command line


def xy_doc():
    return json.loads(save_model(XY))


def edited(path, value):
    """The xy document with the item at ``path`` (keys and indices) set to
    ``value``."""
    doc = xy_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


UNIT = ("charts", 0, "unit")

# (id, document, exception type, exact message)
MODEL_DOCUMENTS = [
    ("mode-type", edited(("mode",), 1), ModelParseError,
     "document: field 'mode' must be a string"),
    ("components-type", edited(("components",), {}), ModelParseError,
     "document: field 'components' must be a list"),
    ("component-id-type", edited(("components", 0, "id"), 1), ModelParseError,
     "components[0]: field 'id' must be a string"),
    ("strata-type", edited(("strata",), {}), ModelParseError,
     "document: field 'strata' must be a list"),
    ("charts-type", edited(("charts",), {"a": 1}), ModelParseError,
     "document: field 'charts' must be a list"),
    ("divisor-coords-type", edited(("charts", 0, "divisor_coords"), []), ModelParseError,
     "charts[0]: 'divisor_coords' must be an object"),
    ("coordinate-index", edited(("charts", 0, "divisor_coords"), {"a": "x"}), ModelParseError,
     "charts[0]: bad coordinate index 'a'"),
    ("coordinate-id-type", edited(("charts", 0, "divisor_coords"), {"0": 1}), ModelParseError,
     "charts[0]: component ids must be strings"),
    ("unit-type", edited(UNIT, {}), ModelParseError,
     "charts[0]: field 'unit' must be a list of terms"),
    ("exponent-string", edited(UNIT + (0, "exponents"), ["a"]), ModelParseError,
     "charts[0].unit[0]: 'exponents' must be a list of integers >= 0"),
    ("exponent-float", edited(UNIT + (0, "exponents"), [1.5]), ModelParseError,
     "charts[0].unit[0]: 'exponents' must be a list of integers >= 0"),
    ("exponent-bool", edited(UNIT + (0, "exponents"), [True]), ModelParseError,
     "charts[0].unit[0]: 'exponents' must be a list of integers >= 0"),
    ("exponent-negative", edited(UNIT + (0, "exponents"), [-1]), ModelParseError,
     "charts[0].unit[0]: 'exponents' must be a list of integers >= 0"),
    ("exponents-type", edited(UNIT + (0, "exponents"), {}), ModelParseError,
     "charts[0].unit[0]: 'exponents' must be a list of integers >= 0"),
    ("exponents-duplicate",
     edited(UNIT, [{"re": "1", "im": "0", "exponents": [0, 1]},
                   {"re": "2", "im": "0", "exponents": [0, 1]}]), ModelParseError,
     "charts[0].unit[1]: duplicate exponent tuple (0, 1)"),
    ("re-list", edited(UNIT + (0, "re"), [1]), ModelParseError,
     "charts[0].unit[0]: field 're' must be a string '<int>' or '<int>/<int>'"),
    ("re-number", edited(UNIT + (0, "re"), 0.5), ModelParseError,
     "charts[0].unit[0]: field 're' must be a string '<int>' or '<int>/<int>'"),
    ("re-exponent-notation", edited(UNIT + (0, "re"), "1e999"), ModelParseError,
     "charts[0].unit[0]: field 're' must be a string '<int>' or '<int>/<int>'"),
    ("re-decimal", edited(UNIT + (0, "re"), "0.5"), ModelParseError,
     "charts[0].unit[0]: field 're' must be a string '<int>' or '<int>/<int>'"),
    ("im-three-parts", edited(UNIT + (0, "im"), "1/2/3"), ModelParseError,
     "charts[0].unit[0]: field 'im' must be a string '<int>' or '<int>/<int>'"),
    ("re-too-many-digits", edited(UNIT + (0, "re"), "1" * 1001), ModelParseError,
     "charts[0].unit[0]: field 're' has more than 1000 digits"),
    ("re-zero-denominator", edited(UNIT + (0, "re"), "1/0"), ModelParseError,
     "charts[0].unit[0]: field 're' has a zero denominator"),
    ("re-overflows-float", edited(UNIT + (0, "re"), "1" + "0" * 400), ModelParseError,
     "charts[0].unit[0]: field 're' is too large for a float"),
    ("empty-component-id",
     edited(("components",), xy_doc()["components"] + [{"id": "", "multiplicity": 1}]),
     InvalidModelError, "components[2] (''): empty component id"),
    ("chart-dim", edited(("charts", 0, "dim"), 0), InvalidModelError,
     "charts[0]: dim must be positive, got 0; charts[0]: divisor coordinate 0 out of range; "
     "charts[0]: divisor coordinate 1 out of range"),
    ("unit-too-many-variables", edited(UNIT + (0, "exponents"), [0, 0, 1]), InvalidModelError,
     "charts[0]: unit term (0, 0, 1) has too many variables"),
]


@pytest.mark.parametrize("doc, exc_type, message", [case[1:] for case in MODEL_DOCUMENTS],
                         ids=[case[0] for case in MODEL_DOCUMENTS])
def test_model_documents(doc, exc_type, message, tmp_path, capsys):
    text = json.dumps(doc)
    with pytest.raises(exc_type) as info:
        load_model(text)
    assert str(info.value) == message
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["zeta", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def origin_doc():
    return json.loads(save_center(point_center(("x", "y"), codim=2)))


def edited_center(key, value):
    doc = origin_doc()
    doc[key] = value
    return doc


CENTER_DOCUMENTS = [
    ("new-id-type", edited_center("new_component_id", 1), ModelParseError,
     "center: field 'new_component_id' must be a string"),
    ("pieces-type", edited_center("center_strata", {}), ModelParseError,
     "center: field 'center_strata' must be a list"),
    ("pieces-duplicate",
     edited_center("center_strata", [{"R": ["y"], "class": [1]}, {"R": ["y"], "class": [1]}]),
     ModelParseError, "center_strata[1]: duplicate subset ['y']"),
]


@pytest.mark.parametrize("doc, exc_type, message", [case[1:] for case in CENTER_DOCUMENTS],
                         ids=[case[0] for case in CENTER_DOCUMENTS])
def test_center_documents(doc, exc_type, message, tmp_path, capsys):
    text = json.dumps(doc)
    with pytest.raises(exc_type) as info:
        load_center(text)
    assert str(info.value) == message
    model_path, center_path = tmp_path / "xy.json", tmp_path / "center.json"
    model_path.write_text(save_model(XY))
    center_path.write_text(text)
    assert main(["invariance", str(model_path), "--center", str(center_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def xy_with_unit(terms):
    return edited(UNIT, [{"re": "1", "im": "0", "exponents": []}, *terms])


def numeric_point(theta=(1.0, 0.0), base=((0, 0), (2, 0))):
    return {"base": [list(z) for z in base],
            "polar": [{"i": 0, "r": 1.0, "theta": list(theta)}]}


HUGE_POWER = "power_1" + "0" * 400
BOUND = "multiplicity at coordinate 0 exceeds 10**12 = 1/PHASE_TOL"
NOT_FINITE = "unit is not finite at the base point"

# (id, builtin example name or model document, subcommand, --point value,
# exact message): numeric inputs that overflow a float somewhere in the
# chart layer
NUMERIC_COMMANDS = [
    ("recover-huge-multiplicity", HUGE_POWER, "recover", [[0, 0]], BOUND),
    ("monodromy-huge-multiplicity", HUGE_POWER, "monodromy-demo",
     numeric_point(base=((0, 0),)), BOUND),
    ("monodromy-near-unit-phase-huge-multiplicity", f"power_{10**20}", "monodromy-demo",
     numeric_point((1.0000000000005, 0.0), base=((0, 0),)), BOUND),
    ("recover-unit-exponent", xy_with_unit([{"re": "1", "im": "0", "exponents": [0, 100000]}]),
     "recover", [[0, 0], [2, 0]], NOT_FINITE),
    ("recover-unit-exponent-beyond-float",
     xy_with_unit([{"re": "1", "im": "0", "exponents": [0, 10**999]}]),
     "recover", [[0, 0], [2, 0]], NOT_FINITE),
    ("recover-unit-coefficient-to-inf",
     xy_with_unit([{"re": "1" + "0" * 308, "im": "0", "exponents": [0, 1]}]),
     "recover", [[0, 0], [2, 0]], NOT_FINITE),
    ("monodromy-unit-coefficient-to-inf",
     xy_with_unit([{"re": "1" + "0" * 308, "im": "0", "exponents": [0, 1]}]),
     "monodromy-demo", numeric_point(), NOT_FINITE),
]


@pytest.mark.parametrize("model, command, point, message",
                         [case[1:] for case in NUMERIC_COMMANDS],
                         ids=[case[0] for case in NUMERIC_COMMANDS])
def test_numeric_commands(model, command, point, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    if isinstance(model, str):
        assert main(["examples", "--name", model, "--out", str(path)]) == 0
    else:
        path.write_text(json.dumps(model))
    capsys.readouterr()
    assert main([command, str(path), "--point", json.dumps(point)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
