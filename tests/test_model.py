"""Model validation, census, closure poset, document round trips, builtins."""

import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from ncmilnor.blowup import CenterSpec, apply_blowup, point_center
from ncmilnor.milnor import keyed_class, motivic_terms, naive_absolute_class
from ncmilnor.model import (
    MAX_AMBIENT_DIM,
    MAX_INT_DIGITS,
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
    two_axes_model,
    validate,
)
from ncmilnor.ring import KeyedClass, LefschetzPoly, euler_realization

ONE = LefschetzPoly.one()
LM1 = LefschetzPoly((-1, 1))


def xy_model():
    return builtin_example("xy")


def violations(*args):
    """The violations, as text, with which building ``NCModel(*args)`` fails."""
    with pytest.raises(InvalidModelError) as exc:
        NCModel(*args)
    return [str(v) for v in exc.value.violations]


class TestValidate:
    def test_xy_clean(self):
        assert validate(xy_model()) == []

    def test_zero_multiplicity(self):
        assert violations(2, "local", [Component("x", 0)], [Stratum({"x"}, ONE)]) == [
            "components[0] ('x'): multiplicity must be >= 1, got 0"]

    def test_dimension_bound(self):
        assert violations(2, "global", [Component("x", 1)],
                          [Stratum({"x"}, LefschetzPoly.monomial(3))]) == [
            "strata[0] ({x}): class degree 3 exceeds dimension bound 1"]

    def test_duplicate_component(self):
        assert violations(2, "global", [Component("x", 1), Component("x", 2)],
                          [Stratum({"x"}, ONE)]) == [
            "components[1] ('x'): duplicate component id"]

    def test_unknown_stratum_member(self):
        assert violations(2, "global", [Component("x", 1)],
                          [Stratum({"x", "ghost"}, ONE)]) == [
            "strata[0] ({ghost, x}): unknown component ids ['ghost']"]

    def test_explicit_zero_class_rejected(self):
        assert violations(2, "global", [Component("x", 1)],
                          [Stratum({"x"}, LefschetzPoly())]) == [
            "strata[0] ({x}): empty stratum must be omitted, not stored with class 0"]

    def test_bad_mode_and_dim(self):
        assert violations(0, "sideways", [], []) == [
            "ambient_dim: must be positive, got 0",
            "mode: must be 'global' or 'local', got 'sideways'"]

    def test_oversized_subset(self):
        assert violations(1, "global", [Component("x", 1), Component("y", 1)],
                          [Stratum({"x", "y"}, ONE)]) == [
            "strata[0] ({x, y}): |J| = 2 exceeds ambient_dim 1",
            "strata[0] ({x, y}): class degree 0 exceeds dimension bound -1"]

    def test_ambient_dim_limit(self):
        assert MAX_AMBIENT_DIM == 4096
        at_limit = NCModel(4096, "global", [Component("x", 1)], [Stratum({"x"}, ONE)])
        assert validate(at_limit) == []
        assert violations(4097, "global", [Component("x", 1)], [Stratum({"x"}, ONE)]) == [
            "ambient_dim: must be at most 4096, got 4097"]

    def test_several_problems_on_one_stratum_in_order(self):
        assert violations(1, "global", [Component("x", 1)], [
            Stratum({"x"}, ONE),
            Stratum({"x", "ghost"}, LefschetzPoly()),
            Stratum({"ghost", "x"}, LefschetzPoly()),
        ]) == [
            "strata[1] ({ghost, x}): unknown component ids ['ghost']",
            "strata[1] ({ghost, x}): |J| = 2 exceeds ambient_dim 1",
            "strata[1] ({ghost, x}): empty stratum must be omitted, not stored with class 0",
            "strata[2] ({ghost, x}): duplicate stratum subset",
            "strata[2] ({ghost, x}): unknown component ids ['ghost']",
            "strata[2] ({ghost, x}): |J| = 2 exceeds ambient_dim 1",
            "strata[2] ({ghost, x}): empty stratum must be omitted, not stored with class 0",
        ]


BIG = 10**MAX_INT_DIGITS  # 1,001 digits, the least integer over the bound


class TestIntegerDigits:
    def test_bound(self):
        assert MAX_INT_DIGITS == 1000
        at_bound = BIG - 1
        model = NCModel(1, "local", [Component("x", at_bound)],
                        [Stratum({"x"}, LefschetzPoly((-at_bound,)))])
        assert validate(model) == []

    @pytest.mark.parametrize("value", [BIG, -BIG], ids=["positive", "negative"])
    def test_long_multiplicity(self, value):
        assert violations(1, "local", [Component("x", value)], [Stratum({"x"}, ONE)]) == [
            "components[0] ('x'): multiplicity has more than 1000 digits"]

    @pytest.mark.parametrize("value", [BIG, -BIG], ids=["positive", "negative"])
    def test_long_class_coefficient(self, value):
        assert violations(2, "global", [Component("x", 1), Component("y", 1)], [
            Stratum({"x"}, LefschetzPoly((1, value))),
            Stratum({"x", "y"}, ONE),
            Stratum({"y"}, LefschetzPoly((value, 1, 1))),
        ]) == [
            "strata[0] ({x}): class coefficient has more than 1000 digits",
            "strata[2] ({y}): class degree 2 exceeds dimension bound 1",
            "strata[2] ({y}): class coefficient has more than 1000 digits",
        ]

    def test_blowup_past_the_bound_names_the_new_component(self):
        half = BIG // 2 + 1
        model = two_axes_model(half, half)
        with pytest.raises(InvalidModelError) as exc:
            apply_blowup(model, point_center(["x", "y"], codim=2))
        assert [str(v) for v in exc.value.violations] == [
            "components[2] ('E'): multiplicity has more than 1000 digits"]


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


class TestUnitNormalForm:
    """Exponent tuples lose trailing zeros, terms landing on one tuple are
    added, and zero terms are dropped, so equal polynomials compare equal."""

    def test_trailing_zero_exponents(self):
        assert UnitPoly({(1, 0): (2, 0)}) == UnitPoly({(1,): (2, 0)})
        assert UnitPoly({(0, 0): (1, 0)}).terms == {(): (1, 0)}

    def test_colliding_terms_are_added(self):
        unit = UnitPoly({(1, 0): (1, 1), (1,): (2, "1/2")})
        assert unit.terms == {(1,): (Fraction(3), Fraction(3, 2))}

    def test_cancelling_terms_are_dropped(self):
        unit = UnitPoly({(0, 2, 0): (1, 0), (0, 2): (-1, 0), (): (5, 0)})
        assert unit.terms == {(): (5, 0)}

    def test_document_is_written_in_normal_form(self):
        doc = json.loads(save_model(xy_model()))
        doc["charts"][0]["unit"] = [{"re": "1/1", "im": "0/1", "exponents": [0, 0]},
                                    {"re": "2/1", "im": "0/1", "exponents": [1, 0]}]
        again = json.loads(save_model(load_model(json.dumps(doc))))
        assert again["charts"][0]["unit"] == [{"re": "1/1", "im": "0/1", "exponents": []},
                                              {"re": "2/1", "im": "0/1", "exponents": [1]}]

    def test_long_rational_text_is_rejected_by_its_length(self):
        doc = json.loads(save_model(xy_model()))
        doc["charts"][0]["unit"][0]["re"] = "1e10000000"
        start = time.perf_counter()
        with pytest.raises(ModelParseError, match=r"^charts\[0\]\.unit\[0\]: field 're'"):
            load_model(json.dumps(doc))
        assert time.perf_counter() - start < 0.1


class TestUnitPullback:
    """``UnitPoly.pullback`` is u composed with the blow-up chart
    x_pivot = y_pivot, x_k = y_pivot * y_k (other k < codim), x_j = y_j."""

    @staticmethod
    def sigma(y, codim, pivot):
        return [z if j == pivot or j >= codim else y[pivot] * z for j, z in enumerate(y)]

    def test_exact_terms(self):
        unit = UnitPoly({(1, 1): (1, 0), (0, 0, 1): ("1/2", 3), (2,): (0, -1)})
        assert unit.pullback(2, 0) == UnitPoly(
            {(2, 1): (1, 0), (0, 0, 1): ("1/2", 3), (2,): (0, -1)})
        assert unit.pullback(2, 1) == UnitPoly(
            {(1, 2): (1, 0), (0, 0, 1): ("1/2", 3), (2, 2): (0, -1)})
        assert unit.pullback(3, 2) == UnitPoly(
            {(1, 1, 2): (1, 0), (0, 0, 1): ("1/2", 3), (2, 0, 2): (0, -1)})

    def test_matches_composition_off_the_exceptional_divisor(self):
        rng = random.Random(17)
        for _ in range(200):
            dim = rng.randint(2, 4)
            codim = rng.randint(2, dim)
            pivot = rng.randrange(codim)
            unit = UnitPoly({
                tuple(rng.randint(0, 3) for _ in range(dim)):
                    (Fraction(rng.randint(-9, 9), rng.randint(1, 5)), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 6))})
            pulled = unit.pullback(codim, pivot)
            assert len(pulled.terms) == len(unit.terms)  # the exponent map is injective
            y = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(dim)]
            expected = unit(self.sigma(y, codim, pivot))
            assert abs(pulled(y) - expected) <= 1e-9 * max(1.0, abs(expected))


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


# ids exercise the string encoder: quotes, backslashes, control and
# non-ASCII characters (astral ones need surrogate-pair escapes)
ids_text = st.text(
    st.one_of(st.sampled_from('abcxyz"\\/\x00\x1f\x7f\u00e9\u2603\U0001d11e'),
              st.characters()),
    min_size=1, max_size=3)
fractions = st.fractions(max_denominator=12)


@st.composite
def charts(draw, dim_bound, ids):
    dim = draw(st.integers(min_value=1, max_value=dim_bound))
    coords = draw(st.dictionaries(
        st.integers(min_value=0, max_value=dim - 1), st.sampled_from(ids), max_size=dim))
    # empty unit lists and empty exponent tuples (constant terms) included
    unit = draw(st.dictionaries(
        st.lists(st.integers(min_value=0, max_value=3), max_size=dim).map(tuple),
        st.tuples(fractions, fractions), max_size=3))
    return Chart(dim, coords, UnitPoly(unit))


@st.composite
def valid_models(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    ids = draw(st.lists(ids_text, min_size=1, max_size=4, unique=True))
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
    chart_list = draw(st.lists(charts(n + 1, ids), max_size=2))
    return NCModel(n, draw(st.sampled_from(("global", "local"))), components, strata,
                   chart_list)


def fraction_text(x):
    return f"{x.numerator}/{x.denominator}"


def reference_doc(model):
    """The dict ``save_model`` once handed to ``json.dumps(indent=2)``."""
    doc = {
        "ambient_dim": model.ambient_dim,
        "mode": model.mode,
        "components": [{"id": c.id, "multiplicity": c.multiplicity} for c in model.components],
        "strata": [
            {"components": sorted(s.components), "class": list(s.cls.coeffs)}
            for s in model.strata
        ],
    }
    if model.charts:
        doc["charts"] = [
            {
                "dim": chart.dim,
                "divisor_coords": {str(k): v for k, v in chart.divisor_coords},
                "unit": [
                    {
                        "re": fraction_text(re),
                        "im": fraction_text(im),
                        "exponents": list(exponents),
                    }
                    for exponents, (re, im) in sorted(chart.unit.terms.items())
                ],
            }
            for chart in model.charts
        ]
    return doc


def assert_writes_json_dumps_bytes(model):
    assert save_model(model) == json.dumps(reference_doc(model), indent=2) + "\n"


def arrangement(n):
    """The n coordinate hyperplanes of C^n: the open stratum on J is a torus
    of dimension n - |J|."""
    ids = [f"x{i}" for i in range(n)]
    strata = [
        Stratum(subset, LM1 ** (n - size))
        for size in range(1, n + 1)
        for subset in itertools.combinations(ids, size)
    ]
    return NCModel(n, "global", [Component(cid, i + 1) for i, cid in enumerate(ids)], strata)


def blown_arrangements(seed):
    """H_3..H_6, each blown up at the origin and at a seeded coordinate
    subspace with one transverse piece per subset R of the rest."""
    rng = random.Random(seed)
    for n in range(3, 7):
        model = arrangement(n)
        ids = model.component_ids()
        yield apply_blowup(model, point_center(ids, codim=n))
        k_ids = rng.sample(ids, rng.randint(2, n - 1))
        rest = [cid for cid in ids if cid not in k_ids]
        pieces = {frozenset(r): LM1 ** (n - len(k_ids) - len(r))
                  for size in range(len(rest) + 1)
                  for r in itertools.combinations(rest, size)}
        yield apply_blowup(model, CenterSpec(k_ids, rest, len(k_ids), pieces, "E"))


def reference_strata_violations(ambient_dim, component_ids, strata):
    """The strata part of ``validate``, written stratum by stratum: each
    stratum's problems in check order, located by index and sorted ids."""
    out, seen = [], set()
    for idx, stratum in enumerate(strata):
        ids, coeffs = stratum.components, stratum.cls.coeffs
        problems = []
        if not ids:
            problems.append("stratum subset must be nonempty")
        if ids in seen:
            problems.append("duplicate stratum subset")
        seen.add(ids)
        unknown = sorted(ids - set(component_ids))
        if unknown:
            problems.append(f"unknown component ids {unknown}")
        if len(ids) > ambient_dim:
            problems.append(f"|J| = {len(ids)} exceeds ambient_dim {ambient_dim}")
        if not coeffs:
            problems.append("empty stratum must be omitted, not stored with class 0")
        else:
            bound = ambient_dim - len(ids)
            if len(coeffs) - 1 > bound:
                problems.append(f"class degree {len(coeffs) - 1} exceeds dimension bound {bound}")
            if any(abs(c) >= BIG for c in coeffs):
                problems.append("class coefficient has more than 1000 digits")
        where = f"strata[{idx}] ({{{', '.join(sorted(ids))}}})"
        out += [f"{where}: {problem}" for problem in problems]
    return out


DEFECTS = ("duplicate subset", "unknown id", "zero class", "degree over the bound",
           "|J| over ambient_dim", "empty subset", "over-long coefficient")


@st.composite
def fields_with_one_bad_stratum(draw):
    """The fields of a model from ``valid_models`` with one stratum that
    breaks one rule inserted at a drawn position.  A fresh subset replaces
    any stratum already on it, so the other strata stay valid."""
    model = draw(valid_models())
    n, ids = model.ambient_dim, model.component_ids()
    strata = list(model.strata)

    def subset(min_size, max_size):
        drawn = frozenset(draw(st.lists(st.sampled_from(ids), min_size=min_size,
                                        max_size=max_size, unique=True)))
        strata[:] = [s for s in strata if s.components != drawn]
        return drawn

    defect = draw(st.sampled_from(DEFECTS))
    fits = min(n, len(ids))  # the most ids a valid stratum can have
    if defect == "duplicate subset":
        if not strata:
            strata.append(Stratum(subset(1, fits), ONE))
        bad = Stratum(draw(st.sampled_from(strata)).components, ONE)
    elif defect == "unknown id":
        bad = Stratum(subset(0, fits - 1) | {"ghost"}, ONE)
    elif defect == "zero class":
        bad = Stratum(subset(1, fits), LefschetzPoly())
    elif defect == "degree over the bound":
        on = subset(1, fits)
        excess = draw(st.integers(min_value=1, max_value=3))
        bad = Stratum(on, LefschetzPoly.monomial(n - len(on) + excess))
    elif defect == "|J| over ambient_dim":
        assume(len(ids) > n)
        bad = Stratum(subset(n + 1, len(ids)), ONE)
    elif defect == "empty subset":
        bad = Stratum((), ONE)
    else:
        on = subset(1, fits)
        coeffs = [1] * draw(st.integers(min_value=1, max_value=n - len(on) + 1))
        coeffs[draw(st.integers(min_value=0, max_value=len(coeffs) - 1))] = draw(
            st.sampled_from((BIG, -BIG)))
        bad = Stratum(on, LefschetzPoly(coeffs))
    strata.insert(draw(st.integers(min_value=0, max_value=len(strata))), bad)
    return model.ambient_dim, model.mode, model.components, strata, model.charts


class TestValidateOracle:
    """``validate`` judges the strata in whole-tuple passes and lists their
    violations only when one pass fails; the list is that of a plain
    stratum-by-stratum check, whichever rule the bad stratum breaks."""

    @given(fields_with_one_bad_stratum())
    def test_one_bad_stratum(self, fields):
        ambient_dim, _, components, strata, _ = fields
        with pytest.raises(InvalidModelError) as exc:
            NCModel(*fields)
        # a model from valid_models has no component or chart violation
        assert [str(v) for v in exc.value.violations] == reference_strata_violations(
            ambient_dim, [c.id for c in components], strata)


class TestRandomRoundTrip:
    @given(valid_models())
    def test_random_models_round_trip(self, model):
        assert validate(model) == []
        assert load_model(save_model(model)) == model

    @given(valid_models())
    def test_unchecked_load_round_trip(self, model):
        # writing a loaded document gives back its bytes
        text = save_model(model)
        assert save_model(load_model(text)) == text


def reference_equal(a, b):
    """Model equality read off the maps {id: N} and {subset: class}, with
    the other fields, charts in order, compared as they are."""
    return ((a.ambient_dim, a.mode, a.charts) == (b.ambient_dim, b.mode, b.charts)
            and {c.id: c.multiplicity for c in a.components}
            == {c.id: c.multiplicity for c in b.components}
            and {s.components: s.cls for s in a.strata} == {s.components: s.cls for s in b.strata})


def with_fields(model, components=None, strata=None, charts=None):
    return NCModel(model.ambient_dim, model.mode,
                   model.components if components is None else components,
                   model.strata if strata is None else strata,
                   model.charts if charts is None else charts)


class TestOrderFreeEquality:
    """Equality and hash read the indexes, not the order of the lists; the
    saved bytes keep that order."""

    @given(valid_models(), st.data())
    def test_permuted_lists(self, model, data):
        components = data.draw(st.permutations(model.components))
        strata = data.draw(st.permutations(model.strata))
        permuted = with_fields(model, components, strata)
        assert reference_equal(permuted, model)
        assert permuted == model and hash(permuted) == hash(model)
        saved = load_model(save_model(permuted))
        assert saved.components == tuple(components) and saved.strata == tuple(strata)

    @given(valid_models(), st.data())
    def test_one_change(self, model, data):
        changed = []
        i = data.draw(st.integers(min_value=0, max_value=len(model.components) - 1))
        components = list(model.components)
        components[i] = Component(components[i].id, components[i].multiplicity + 1)
        changed.append(with_fields(model, components=components))
        if model.strata:
            j = data.draw(st.integers(min_value=0, max_value=len(model.strata) - 1))
            strata = list(model.strata)
            first, *rest = strata[j].cls.coeffs
            # a shift that keeps the class nonzero and its degree
            first += 1 if first != -1 else -1
            strata[j] = Stratum(strata[j].components, LefschetzPoly((first, *rest)))
            changed.append(with_fields(model, strata=strata))
        if len(model.charts) == 2 and model.charts[0] != model.charts[1]:
            changed.append(with_fields(model, charts=model.charts[::-1]))
        for other in changed:
            assert not reference_equal(other, model)
            assert other != model and not other == model

    def test_reversed_cusp(self):
        model = builtin_example("cusp_resolved")
        reversed_ = with_fields(model, model.components[::-1], model.strata[::-1])
        assert reversed_ == model and hash(reversed_) == hash(model)
        # equal models, and their saved bytes differ: save_model keeps the order
        assert save_model(reversed_) != save_model(model)
        assert load_model(save_model(reversed_)) == model


class TestWriterBytes:
    """``save_model`` writes the indent=2 layout itself; its bytes are those
    of ``json.dumps`` on the document dict."""

    @given(valid_models())
    def test_random_models(self, model):
        assert_writes_json_dumps_bytes(model)

    @pytest.mark.parametrize("name", ["smooth", "xy", "cusp_resolved", "power_3",
                                      "power_1000", "xa_yb_2_3"])
    def test_builtins(self, name):
        assert_writes_json_dumps_bytes(builtin_example(name))

    def test_blown_arrangements(self):
        for blown in blown_arrangements(99):
            assert validate(blown) == []
            assert_writes_json_dumps_bytes(blown)

    def test_empty_containers(self):
        # no components, no strata and an empty chart, written the way
        # json.dumps writes them
        model = NCModel(1, "local", [], [], [Chart(1, {}, UnitPoly({}))])
        assert_writes_json_dumps_bytes(model)
        assert '"components": [],' in save_model(model)
        assert '"strata": [],' in save_model(model)
        assert '"divisor_coords": {},' in save_model(model)

    def test_bool_integer_fields_round_trip(self):
        # the one intended difference from json.dumps, which writes `true`
        m = NCModel(1, "local", [Component("x", True)],
                    [Stratum({"x"}, LefschetzPoly((True,)))])
        assert validate(m) == []
        text = save_model(m)
        assert '"multiplicity": 1' in text and "true" not in text
        assert load_model(text) == m


def h3_document():
    return json.loads(save_model(arrangement(3)))


STRATUM_CORRUPTIONS = {
    "not-an-object": (lambda item: ["x0"], "expected an object, got list"),
    "missing-key": (lambda item: {"components": item["components"]},
                    "missing fields ['class']"),
    "extra-key": (lambda item: {**item, "extra": 1}, "unknown fields ['extra']"),
    "components-not-a-list": (lambda item: {**item, "components": "x0"},
                              "field 'components' must be a list of ids"),
    "non-string-id": (lambda item: {**item, "components": ["x0", 1]},
                      "field 'components' must be a list of ids"),
    "true-coefficient": (lambda item: {**item, "class": [1, True]},
                         "field 'class' must be a list of integers"),
    "float-coefficient": (lambda item: {**item, "class": [1.0]},
                          "field 'class' must be a list of integers"),
    "nested-list": (lambda item: {**item, "class": [[1]]},
                    "field 'class' must be a list of integers"),
}


class TestLoaderMessages:
    """Malformed strata get the message and locator of the per-field
    checkers, wherever they sit in the list."""

    @pytest.mark.parametrize("index", [0, -1])
    @pytest.mark.parametrize("kind", sorted(STRATUM_CORRUPTIONS))
    def test_single_corruption(self, kind, index):
        corrupt, message = STRATUM_CORRUPTIONS[kind]
        doc = h3_document()
        position = index % len(doc["strata"])
        doc["strata"][index] = corrupt(doc["strata"][index])
        with pytest.raises(ModelParseError) as err:
            load_model(json.dumps(doc, indent=2))
        assert str(err.value) == f"strata[{position}]: {message}"
        assert err.value.where == f"strata[{position}]"

    def test_first_bad_stratum_is_reported(self):
        doc = h3_document()
        doc["strata"][2]["class"] = [0.5]
        doc["strata"][5] = []
        with pytest.raises(ModelParseError) as err:
            load_model(json.dumps(doc))
        assert str(err.value) == "strata[2]: field 'class' must be a list of integers"

    def test_h3_document_loads(self):
        assert load_model(json.dumps(h3_document())) == arrangement(3)

    def test_stored_class_is_trimmed(self):
        doc = json.loads(save_model(xy_model()))
        doc["strata"][0]["class"] = [1, 0, 0]
        model = load_model(json.dumps(doc))
        assert model == xy_model()
        assert model.strata[0].cls.coeffs == (1,)

    def test_zero_class_is_still_rejected(self):
        doc = json.loads(save_model(xy_model()))
        doc["strata"][0]["class"] = [0]
        with pytest.raises(InvalidModelError) as exc:
            load_model(json.dumps(doc))
        assert [v.problem for v in exc.value.violations] == [
            "empty stratum must be omitted, not stored with class 0"]

    @pytest.mark.parametrize("text, message", [
        ("[" * 200_000, "nested too deeply"),
        ('{"ambient_dim": 1' + "0" * 5000 + "}", "Exceeds the limit"),
    ], ids=["deep-nesting", "long-integer"])
    def test_parser_limits_are_parse_errors(self, text, message):
        with pytest.raises(ModelParseError, match=message):
            load_model(text)


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


def term_by_term_keyed(model):
    """``keyed_class`` from its definition, one stratum at a time: J adds
    (-1)^(|J|+1) * [J] * (L-1)^(|J|-1) under the key gcd(N_i, i in J)."""
    multiplicity = {c.id: c.multiplicity for c in model.components}
    entries = {}
    for stratum in model.strata:
        size = len(stratum.components)
        key = gcd(*(multiplicity[cid] for cid in stratum.components))
        term = (-1) ** (size + 1) * stratum.cls * LM1 ** (size - 1)
        entries[key] = entries.get(key, LefschetzPoly.zero()) + term
    return KeyedClass(entries)


class TestKeyedClassOracle:
    @given(valid_models())
    def test_random_models(self, model):
        assert keyed_class(model) == term_by_term_keyed(model)

    def test_blown_arrangements(self):
        for blown in blown_arrangements(7):
            assert keyed_class(blown) == term_by_term_keyed(blown)

    def test_cancelling_bucket_drops_its_key(self):
        # {x} and {y} share the bucket (order 2, |J| = 1) and cancel
        components = [Component("x", 2), Component("y", 2), Component("z", 3)]
        strata = [Stratum({"x"}, ONE), Stratum({"y"}, -ONE), Stratum({"z"}, LM1 + ONE)]
        model = NCModel(2, "global", components, strata)
        assert keyed_class(model) == term_by_term_keyed(model)
        assert keyed_class(model).entries == {3: LefschetzPoly((0, 1))}
        # a stratum of another size keeps the key
        model = NCModel(2, "global", components, strata + [Stratum({"x", "y"}, ONE)])
        assert keyed_class(model) == term_by_term_keyed(model)
        assert keyed_class(model).entries == {2: LefschetzPoly((1, -1)),
                                              3: LefschetzPoly((0, 1))}


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
