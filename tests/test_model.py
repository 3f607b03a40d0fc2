"""Model validation, census, closure poset, document round trips, builtins."""

import json

import pytest
from hypothesis import given, strategies as st

from ncmilnor.milnor import keyed_class, motivic_terms, naive_absolute_class
from ncmilnor.model import (
    MAX_AMBIENT_DIM,
    Chart,
    Component,
    InvalidModelError,
    ModelError,
    ModelParseError,
    NCModel,
    Stratum,
    UnitPoly,
    UnknownComponentError,
    builtin_example,
    census,
    closure_strata,
    load_model,
    save_model,
    validate,
)
from ncmilnor.ring import KeyedClass, LefschetzPoly, euler_realization

ONE = LefschetzPoly.one()
LM1 = LefschetzPoly((-1, 1))


def xy_model():
    return builtin_example("xy")


class TestValidate:
    def test_xy_clean(self):
        assert validate(xy_model()) == []

    def test_zero_multiplicity(self):
        m = NCModel(2, "local", [Component("x", 0)], [Stratum({"x"}, ONE)])
        problems = validate(m)
        assert len(problems) == 1
        assert "multiplicity" in problems[0].problem

    def test_dimension_bound(self):
        m = NCModel(2, "global", [Component("x", 1)], [Stratum({"x"}, LefschetzPoly.monomial(3))])
        problems = validate(m)
        assert len(problems) == 1
        assert "dimension bound" in problems[0].problem

    def test_duplicate_component(self):
        m = NCModel(2, "global", [Component("x", 1), Component("x", 2)],
                    [Stratum({"x"}, ONE)])
        assert any("duplicate component id" in v.problem for v in validate(m))

    def test_unknown_stratum_member(self):
        m = NCModel(2, "global", [Component("x", 1)], [Stratum({"x", "ghost"}, ONE)])
        assert any("unknown component" in v.problem for v in validate(m))

    def test_explicit_zero_class_rejected(self):
        m = NCModel(2, "global", [Component("x", 1)], [Stratum({"x"}, LefschetzPoly())])
        assert any("omitted" in v.problem for v in validate(m))

    def test_bad_mode_and_dim(self):
        m = NCModel(0, "sideways", [], [])
        problems = {v.where for v in validate(m)}
        assert problems == {"ambient_dim", "mode"}

    def test_oversized_subset(self):
        m = NCModel(1, "global", [Component("x", 1), Component("y", 1)],
                    [Stratum({"x", "y"}, ONE)])
        assert any("exceeds ambient_dim" in v.problem for v in validate(m))

    def test_ambient_dim_limit(self):
        assert MAX_AMBIENT_DIM == 4096
        at_limit = NCModel(4096, "global", [Component("x", 1)], [Stratum({"x"}, ONE)])
        assert validate(at_limit) == []
        over = NCModel(4097, "global", [Component("x", 1)], [Stratum({"x"}, ONE)])
        assert [str(v) for v in validate(over)] == [
            "ambient_dim: must be at most 4096, got 4097"]

    def test_several_problems_on_one_stratum_in_order(self):
        m = NCModel(1, "global", [Component("x", 1)], [
            Stratum({"x"}, ONE),
            Stratum({"x", "ghost"}, LefschetzPoly()),
            Stratum({"ghost", "x"}, LefschetzPoly()),
        ])
        assert [str(v) for v in validate(m)] == [
            "strata[1] ({ghost, x}): unknown component ids ['ghost']",
            "strata[1] ({ghost, x}): |J| = 2 exceeds ambient_dim 1",
            "strata[1] ({ghost, x}): empty stratum must be omitted, not stored with class 0",
            "strata[2] ({ghost, x}): duplicate stratum subset",
            "strata[2] ({ghost, x}): unknown component ids ['ghost']",
            "strata[2] ({ghost, x}): |J| = 2 exceeds ambient_dim 1",
            "strata[2] ({ghost, x}): empty stratum must be omitted, not stored with class 0",
        ]


class TestCensus:
    def test_xy_origin_matches_four_piece_decomposition(self):
        record = census(xy_model(), {"x", "y"})
        assert [(p.tag, p.shape) for p in record.pieces] == [
            ("top", "S^1 x S^1"),
            ("mot", "C* x C*"),
            ("mixed", "C* x S^1"),
            ("mixed", "S^1 x C*"),
        ]
        assert record.mixed_count == 2

    def test_single_component(self):
        record = census(builtin_example("smooth"), {"x"})
        assert [(p.tag, p.shape) for p in record.pieces] == [("top", "S^1"), ("mot", "C*")]
        assert record.mixed_count == 0

    def test_three_components(self):
        m = NCModel(3, "global",
                    [Component("a", 1), Component("b", 1), Component("c", 1)],
                    [Stratum({"a", "b", "c"}, ONE)])
        record = census(m, {"a", "b", "c"})
        assert len(record.pieces) == 8
        assert record.mixed_count == 6

    def test_unknown_id(self):
        with pytest.raises(UnknownComponentError):
            census(xy_model(), {"ghost"})

    @given(st.integers(min_value=1, max_value=5))
    def test_piece_counts(self, size):
        ids = [f"c{i}" for i in range(size)]
        m = NCModel(size, "global", [Component(i, 1) for i in ids],
                    [Stratum(ids, ONE)])
        record = census(m, ids)
        tags = [p.tag for p in record.pieces]
        assert len(record.pieces) == 2**size
        assert tags.count("top") == 1
        assert tags.count("mot") == 1
        assert tags.count("mixed") == 2**size - 2


class TestClosure:
    def test_xy_poset(self):
        m = NCModel(2, "global",
                    [Component("x", 1), Component("y", 1)],
                    [Stratum({"x"}, LefschetzPoly.monomial(1)),
                     Stratum({"y"}, LefschetzPoly.monomial(1)),
                     Stratum({"x", "y"}, ONE)])
        assert closure_strata(m, {"x"}) == {frozenset({"x"}), frozenset({"x", "y"})}

    def test_top_of_poset(self):
        m = xy_model()
        assert closure_strata(m, {"x", "y"}) == {frozenset({"x", "y"})}

    def test_absent_with_no_superset(self):
        m = NCModel(2, "global", [Component("x", 1), Component("y", 1)],
                    [Stratum({"x"}, ONE)])
        assert closure_strata(m, {"y"}) == set()

    def test_upward_closed(self):
        m = builtin_example("cusp_resolved")
        for s in m.strata:
            closure = closure_strata(m, s.components)
            assert s.components in closure
            for k in closure:
                assert closure_strata(m, k) <= closure


class TestDocuments:
    def test_round_trip_builtin(self):
        for name in ("smooth", "xy", "cusp_resolved", "power_3", "xa_yb_2_3"):
            m = builtin_example(name)
            assert load_model(save_model(m)) == m

    def test_round_trip_with_unit(self):
        unit = UnitPoly({(0, 0): (1, 0), (1, 2): (-3, "1/2")})
        m = NCModel(2, "global", [Component("x", 2)], [Stratum({"x"}, ONE)],
                    [Chart(2, {0: "x"}, unit)])
        again = load_model(save_model(m))
        assert again == m
        assert again.charts[0].unit((1 + 1j, 2)) == unit((1 + 1j, 2))

    def test_malformed_document(self):
        with pytest.raises(ModelParseError) as err:
            load_model("{not json")
        assert err.value.line == 1

    def test_unknown_field_rejected(self):
        doc = json.loads(save_model(xy_model()))
        doc["surprise"] = 1
        with pytest.raises(ModelParseError, match="unknown fields"):
            load_model(json.dumps(doc))

    def test_duplicate_component_id_reported_by_validation(self):
        doc = json.loads(save_model(xy_model()))
        doc["components"].append({"id": "x", "multiplicity": 1})
        with pytest.raises(InvalidModelError, match="duplicate"):
            load_model(json.dumps(doc))

    def test_check_false_defers_validation(self):
        doc = json.loads(save_model(xy_model()))
        doc["components"][0]["multiplicity"] = 0
        m = load_model(json.dumps(doc), check=False)
        assert len(validate(m)) == 1

    def test_type_errors(self):
        doc = json.loads(save_model(xy_model()))
        doc["ambient_dim"] = "2"
        with pytest.raises(ModelParseError, match="integer"):
            load_model(json.dumps(doc))

    def test_duplicate_chart_coordinate_key(self):
        doc = json.loads(save_model(xy_model()))
        doc["charts"][0]["divisor_coords"] = {"0": "x", "00": "y"}
        with pytest.raises(ModelParseError, match="duplicate coordinate"):
            load_model(json.dumps(doc))


@st.composite
def valid_models(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    ids = draw(st.lists(
        st.text("abcxyz", min_size=1, max_size=3), min_size=1, max_size=4,
        unique=True))
    components = [
        Component(cid, draw(st.integers(min_value=1, max_value=9)))
        for cid in ids
    ]
    strata = []
    seen = set()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        subset = frozenset(draw(st.lists(
            st.sampled_from(ids), min_size=1, max_size=min(n, len(ids)),
            unique=True)))
        if subset in seen:
            continue
        seen.add(subset)
        bound = n - len(subset)
        coeffs = draw(st.lists(
            st.integers(min_value=-5, max_value=5), max_size=bound))
        coeffs.append(draw(st.integers(min_value=1, max_value=5)))
        strata.append(Stratum(subset, LefschetzPoly(coeffs)))
    return NCModel(n, draw(st.sampled_from(("global", "local"))), components, strata)


class TestRandomRoundTrip:
    @given(valid_models())
    def test_random_models_round_trip(self, model):
        assert validate(model) == []
        assert load_model(save_model(model)) == model


def scan_class(model, subset):
    for stratum in model.strata:
        if stratum.components == frozenset(subset):
            return stratum.cls
    return LefschetzPoly.zero()


def scan_multiplicity(model, component_id):
    for comp in model.components:
        if comp.id == component_id:
            return comp.multiplicity
    return None


def grouped_term_sum(model):
    """sum of sign * [stratum] * (L-1)^torus_exponent per gcd_key, term by term."""
    entries = {}
    for term in motivic_terms(model):
        piece = term.sign * term.stratum_cls * LM1**term.torus_exponent
        entries[term.gcd_key] = entries.get(term.gcd_key, LefschetzPoly.zero()) + piece
    return KeyedClass(entries)


class TestIndexedLookups:
    @given(valid_models())
    def test_lookups_agree_with_linear_scan(self, model):
        ids = sorted(model.component_ids())
        for mask in range(1, 2 ** len(ids)):
            subset = {cid for i, cid in enumerate(ids) if mask >> i & 1}
            assert model.stratum_class(subset) == scan_class(model, subset)
        for cid in ids:
            assert model.multiplicity(cid) == scan_multiplicity(model, cid)
        with pytest.raises(UnknownComponentError):
            model.multiplicity("ghost")

    @given(valid_models())
    def test_absolute_class_is_the_direct_sum(self, model):
        # independent of the keyed route naive_absolute_class takes
        direct = LefschetzPoly.zero()
        for stratum in model.strata:
            size = len(stratum.components)
            direct = direct + (-1) ** (size + 1) * stratum.cls * LM1**size
        assert naive_absolute_class(model) == direct

    @given(valid_models())
    def test_keyed_class_is_the_grouped_term_sum(self, model):
        # one product per term, against keyed_class's one per (order, |J|)
        assert keyed_class(model) == grouped_term_sum(model)

    def test_first_duplicate_wins(self):
        m = NCModel(2, "global", [Component("x", 2), Component("x", 5)],
                    [Stratum({"x"}, ONE), Stratum({"x"}, LefschetzPoly((0, 1)))])
        assert m.multiplicity("x") == 2
        assert m.stratum_class({"x"}) == ONE


class TestBuiltins:
    def test_power(self):
        m = builtin_example("power_3")
        assert m.components == (Component("x", 3),)
        assert m.stratum_class({"x"}) == ONE
        assert m.ambient_dim == 1

    def test_xy(self):
        m = builtin_example("xy")
        assert [c.multiplicity for c in m.components] == [1, 1]
        assert m.stratum_class({"x", "y"}) == ONE
        assert m.stratum_class({"x"}).is_zero

    def test_cusp_euler_of_last_curve(self):
        m = builtin_example("cusp_resolved")
        assert euler_realization(m.stratum_class({"e6"})) == -1
        assert m.stratum_class({"e6"}) == LefschetzPoly((-2, 1))
        # the first two curves are affine lines over the origin
        assert m.stratum_class({"e2"}) == LefschetzPoly.monomial(1)
        assert m.stratum_class({"e3"}) == LefschetzPoly.monomial(1)
        assert m.stratum_class({"st"}).is_zero
        for corner in ({"e2", "e6"}, {"e3", "e6"}, {"st", "e6"}):
            assert m.stratum_class(corner) == ONE

    def test_all_builtins_validate(self):
        for name in ("smooth", "xy", "cusp_resolved", "power_1", "power_5",
                     "xa_yb_1_2", "xa_yb_2_3", "xa_yb_3_4"):
            assert validate(builtin_example(name)) == []

    def test_unknown_name(self):
        with pytest.raises(ModelError):
            builtin_example("quintic")
        with pytest.raises(ModelError):
            builtin_example("power_x")
