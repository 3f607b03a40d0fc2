"""Blow-up transform, invariance of the realizations, telescoping identity."""

import copy
import itertools
import json
import pickle
import warnings
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ncmilnor import ring
from ncmilnor.blowup import (
    CenterSpec,
    apply_blowup,
    check_invariance,
    exceptional_fibre_strata,
    load_center,
    point_center,
    save_center,
    telescoping_check,
    validate_center,
)
from ncmilnor.milnor import (
    acampo_zeta,
    keyed_class,
    milnor_fibre_euler,
    motivic_terms,
    psi_data,
)
from ncmilnor.model import (
    Component,
    InvalidModelError,
    NCModel,
    Stratum,
    Violation,
    builtin_example,
    power_model,
    validate,
)
from ncmilnor.ring import KeyedClass, LefschetzPoly

ONE = LefschetzPoly.one()
L = LefschetzPoly.monomial(1)
LM1 = LefschetzPoly((-1, 1))


def count_projective_points(q, codim, contained, vanishing_set):
    """Brute-force oracle: number of points of the projective space of
    dimension codim-1 over the field with q elements whose first
    ``contained`` coordinates vanish exactly on ``vanishing_set``."""
    hits = 0
    for vector in itertools.product(range(q), repeat=codim):
        if all(v == 0 for v in vector):
            continue
        pattern_ok = all(
            (vector[i] == 0) == (i in vanishing_set) for i in range(contained)
        )
        if pattern_ok:
            hits += 1
    assert hits % (q - 1) == 0
    return hits // (q - 1)


class TestExceptionalFibreStrata:
    def test_point_center_on_two_components(self):
        assert exceptional_fibre_strata(2, 2, 0) == LM1
        assert exceptional_fibre_strata(2, 2, 1) == ONE
        assert exceptional_fibre_strata(2, 2, 2).is_zero
        weighted = (
            exceptional_fibre_strata(2, 2, 0)
            + 2 * exceptional_fibre_strata(2, 2, 1)
            + exceptional_fibre_strata(2, 2, 2)
        )
        assert weighted == L + ONE  # the projective line

    def test_point_center_on_one_component(self):
        assert exceptional_fibre_strata(2, 1, 0) == L
        assert exceptional_fibre_strata(2, 1, 1) == ONE

    def test_hyperplane_class(self):
        assert exceptional_fibre_strata(3, 1, 1) == L + ONE

    def test_against_finite_field_counts(self):
        for q in (2, 3, 5):
            for codim in (1, 2, 3, 4):
                for contained in range(1, codim + 1):
                    for vanishing in range(contained + 1):
                        cls = exceptional_fibre_strata(codim, contained, vanishing)
                        counted = count_projective_points(
                            q, codim, contained, set(range(vanishing)))
                        assert cls.evaluate(q) == counted, (q, codim, contained, vanishing)

    def test_partition_identity(self):
        for codim in range(1, 7):
            projective_space = LefschetzPoly((1,) * codim)
            for contained in range(1, codim + 1):
                total = LefschetzPoly.zero()
                for vanishing in range(contained + 1):
                    total = total + comb(contained, vanishing) * exceptional_fibre_strata(
                        codim, contained, vanishing)
                assert total == projective_space

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            exceptional_fibre_strata(2, 3, 0)
        with pytest.raises(ValueError):
            exceptional_fibre_strata(2, 0, 0)
        with pytest.raises(ValueError):
            exceptional_fibre_strata(3, 2, 3)


class TestExceptionalMultiplicity:
    def test_order_of_vanishing_oracle(self):
        # For f = x^a y^b pulled through the origin blow-up chart
        # x = t, y = t*s, the value scaled by t^(a+b) tends to a nonzero
        # constant as t -> 0, so the exceptional multiplicity is a + b.
        s0 = 0.7 + 0.3j
        for a, b in ((1, 1), (1, 2), (2, 3), (3, 4)):
            f = lambda x, y: x**a * y**b
            ratios = [abs(f(t, t * s0)) / t ** (a + b) for t in (1e-2, 1e-3, 1e-4)]
            assert all(abs(r - ratios[0]) < 1e-9 * ratios[0] for r in ratios)
            assert ratios[0] > 0
            under = [abs(f(t, t * s0)) / t ** (a + b - 1) for t in (1e-2, 1e-3, 1e-4)]
            assert under[2] < under[0] / 50
            model = builtin_example(f"xa_yb_{a}_{b}")
            blown = apply_blowup(model, point_center(("x", "y"), codim=2))
            assert blown.multiplicity("E") == a + b


class TestApplyBlowup:
    def test_xy_origin(self):
        blown = apply_blowup(builtin_example("xy"), point_center(("x", "y"), codim=2))
        assert [(c.id, c.multiplicity) for c in blown.components] == [
            ("x", 1), ("y", 1), ("E", 2)]
        classes = {tuple(sorted(s.components)): s.cls for s in blown.strata}
        assert classes == {
            ("E",): LM1,
            ("E", "x"): ONE,
            ("E", "y"): ONE,
        }
        assert validate(blown) == []

    def test_smooth_origin(self):
        blown = apply_blowup(builtin_example("smooth"), point_center(("x",), codim=2))
        classes = {tuple(sorted(s.components)): s.cls for s in blown.strata}
        assert classes == {("E",): L, ("E", "x"): ONE}
        assert blown.multiplicity("E") == 1

    def test_full_intersection_center_has_no_deepest_stratum(self):
        # blowing up the whole corner: no stratum on all of {E} + containing
        blown = apply_blowup(builtin_example("xy"), point_center(("x", "y"), codim=2))
        assert blown.stratum_class({"E", "x", "y"}).is_zero

    def test_line_center_with_transverse_component(self):
        # f = x^2 y on C^3, centre a line inside the first divisor meeting
        # the second transversally in a point
        model = NCModel(
            3, "global",
            [Component("x", 2), Component("y", 1)],
            [Stratum({"x"}, L * LM1), Stratum({"y"}, L * LM1), Stratum({"x", "y"}, L)],
        )
        center = CenterSpec(
            containing=("x",), transverse=("y",), codim=2,
            center_strata={frozenset(): LM1, frozenset({"y"}): ONE},
            new_component_id="E",
        )
        blown = apply_blowup(model, center)
        assert blown.multiplicity("E") == 2
        classes = {tuple(sorted(s.components)): s.cls for s in blown.strata}
        assert classes == {
            ("x",): LM1**2,
            ("y",): L * LM1,
            ("x", "y"): L - ONE,
            ("E",): L * LM1,
            ("E", "x"): LM1,
            ("E", "y"): L,
            ("E", "x", "y"): ONE,
        }
        assert check_invariance(model, center).all_invariant

    def test_strata_the_center_misses_are_kept(self):
        # the centre meets {x} only: {x, y} contains K = {x} but has no piece
        model = NCModel(
            3, "global",
            [Component("x", 2), Component("y", 1)],
            [Stratum({"x"}, L * LM1), Stratum({"y"}, L * LM1), Stratum({"x", "y"}, L)],
        )
        center = CenterSpec(("x",), ("y",), 2, {frozenset(): LM1}, "E")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blown = apply_blowup(model, center)
        assert blown.strata[0] == Stratum({"x"}, L * LM1 - LM1)
        assert blown.strata[1] is model.strata[1]
        assert blown.strata[2] is model.strata[2]
        assert check_invariance(model, center).all_invariant

    def test_local_center_outside_tracked_locus(self):
        # xy local has no single-component stratum over the origin
        center = point_center(("x",), codim=2)
        with pytest.raises(InvalidModelError, match="tracked locus"):
            apply_blowup(builtin_example("xy"), center)

    def test_center_validation(self):
        model = builtin_example("xy")
        assert validate_center(model, point_center(("x", "y"), codim=2)) == []
        bad = CenterSpec(("x", "y"), (), 1, {frozenset(): ONE}, "E")
        assert any("codim" in v.where for v in validate_center(model, bad))
        clash = CenterSpec(("x", "y"), (), 2, {frozenset(): ONE}, "x")
        assert any("already in use" in v.problem for v in validate_center(model, clash))
        overlap = CenterSpec(("x",), ("x",), 2, {frozenset(): ONE}, "E")
        assert any("overlap" in v.problem for v in validate_center(model, overlap))
        empty = CenterSpec(("x", "y"), (), 2, {}, "E")
        assert any("no nonzero" in v.problem for v in validate_center(model, empty))
        toobig = CenterSpec(("x", "y"), (), 2, {frozenset(): L}, "E")
        assert any("degree" in v.problem for v in validate_center(model, toobig))

    def test_negative_class_warning(self):
        model = builtin_example("smooth")
        center = CenterSpec(("x",), (), 2, {frozenset(): LefschetzPoly((2,))}, "E")
        with pytest.warns(UserWarning, match="negative leading coefficient"):
            blown = apply_blowup(model, center)
        assert blown.stratum_class({"x"}) == LefschetzPoly((-1,))


class TestCenterPieces:
    def test_stored_in_sorted_subset_order(self):
        pieces = {frozenset({"z"}): ONE, frozenset({"y", "z"}): ONE,
                  frozenset(): ONE, frozenset({"y"}): ONE}
        spec = CenterSpec(["x"], ["z", "y"], 2, pieces, "E")
        assert list(spec.center_strata) == [
            frozenset(), frozenset({"y"}), frozenset({"y", "z"}), frozenset({"z"})]
        assert spec.center_strata == pieces


def point_on(n):
    """A model with one stratum, a point, on n components, and the point
    centre on all of them."""
    ids = [f"c{i:02d}" for i in range(n)]
    model = NCModel(n, "local", [Component(c, 1) for c in ids], [Stratum(ids, ONE)])
    return model, point_center(ids, n)


class TestStrataBound:
    def test_counted_before_any_subset_is_built(self):
        # imported here, so that without the bound the test stops before 2^40 subsets
        from ncmilnor.model import MAX_STRATA

        model, center = point_on(40)
        assert validate_center(model, center) == [Violation(
            "center", f"blow-up would build up to 1 + 1 * 2^40 strata, more than {MAX_STRATA}")]
        with pytest.raises(InvalidModelError, match="2\\^40 strata"):
            check_invariance(model, center)

    def test_largest_accepted_centre(self):
        from ncmilnor.model import MAX_STRATA

        k = MAX_STRATA.bit_length() - 2  # 1 + 2^k <= MAX_STRATA < 1 + 2^(k+1)
        assert validate_center(*point_on(k)) == []
        assert len(validate_center(*point_on(k + 1))) == 1


class TestInvariance:
    def test_xy_origin_report(self):
        report = check_invariance(builtin_example("xy"), point_center(("x", "y"), codim=2))
        assert report.all_invariant
        assert report.euler_before == report.euler_after == 0
        assert report.absolute_before == report.absolute_after == -(LM1**2)
        assert not report.zeta_before
        assert report.keyed_delta == KeyedClass({1: -LM1, 2: LM1})

    def test_smooth_origin_report(self):
        report = check_invariance(builtin_example("smooth"), point_center(("x",), codim=2))
        assert report.all_invariant
        assert report.absolute_before == report.absolute_after == LM1
        assert report.euler_before == 1

    def test_huge_multiplicity(self):
        # 10**20 exceeds 2**63: the comparison must not depend on the size of N
        report = check_invariance(power_model(10**20), point_center(["x"], codim=1))
        assert report.all_invariant is True

    def test_cusp_free_points(self):
        cusp = builtin_example("cusp_resolved")
        for curve in ("e2", "e3", "e6"):
            report = check_invariance(cusp, point_center((curve,), codim=2))
            assert report.all_invariant, curve
            assert report.euler_after == -1

    def test_cusp_corner(self):
        report = check_invariance(
            builtin_example("cusp_resolved"), point_center(("e2", "e6"), codim=2))
        assert report.all_invariant
        assert report.absolute_after == LM1

    def test_iterated_blowups_stay_invariant(self):
        model = builtin_example("xa_yb_2_3")
        corners = [("x", "y"), ("E0", "x"), ("E1", "E0")]
        for step, corner in enumerate(corners):
            center = point_center(corner, codim=2, new_component_id=f"E{step}")
            report = check_invariance(model, center)
            assert report.all_invariant
            assert report.euler_after == 0
            model = apply_blowup(model, center)
        # the three blow-ups built the start of the x^2 y^3 resolution tree
        assert {c.id: c.multiplicity for c in model.components} == {
            "x": 2, "y": 3, "E0": 5, "E1": 7, "E2": 12}


class TestRandomCorpusInvariance:
    @pytest.mark.filterwarnings("ignore:stratum .*negative leading coefficient")
    def test_random_models_and_centers(self):
        # the realizations are invariant for every admissible centre, not
        # just geometric ones: the telescoping identity is algebraic in the
        # centre classes, so randomized data must pass too
        import random

        rng = random.Random(99)
        for trial in range(150):
            model, center = random_model_and_center(rng)
            report = check_invariance(model, center)
            assert report.all_invariant, (trial, model, center)
            blown = apply_blowup(model, center)
            assert validate(blown) == []
            # the report derives the absolute class from the keyed one
            assert report.absolute_before == direct_absolute_class(model), trial
            assert report.absolute_after == direct_absolute_class(blown), trial

    @pytest.mark.filterwarnings("ignore:stratum .*negative leading coefficient")
    def test_added_strata_and_keyed_class_term_by_term(self):
        # apply_blowup and keyed_class multiply once per bucket; the oracles
        # here multiply once per (R, Q) and once per stratum
        import random

        rng = random.Random(99)
        for trial in range(150):
            model, center = random_model_and_center(rng)
            blown = apply_blowup(model, center)
            k_ids = sorted(center.containing)
            expected = {}
            for rest, centre_cls in center.center_strata.items():
                for size in range(len(k_ids) + 1):
                    for q_subset in itertools.combinations(k_ids, size):
                        cls = centre_cls * exceptional_fibre_strata(
                            center.codim, len(k_ids), size)
                        if cls:
                            expected[frozenset({center.new_component_id, *q_subset}) | rest] = cls
            added = {s.components: s.cls for s in blown.strata
                     if center.new_component_id in s.components}
            assert added == expected, trial
            assert keyed_class(model) == grouped_term_sum(model), trial
            assert keyed_class(blown) == grouped_term_sum(blown), trial


def grouped_term_sum(model):
    """sum of sign * [stratum] * (L-1)^torus_exponent per gcd_key, term by term."""
    entries = {}
    for term in motivic_terms(model):
        piece = term.sign * term.stratum_cls * LM1**term.torus_exponent
        entries[term.gcd_key] = entries.get(term.gcd_key, LefschetzPoly.zero()) + piece
    return KeyedClass(entries)


def direct_absolute_class(model):
    """sum (-1)^(|J|+1) [stratum_J] (L-1)^|J|, term by term."""
    total = LefschetzPoly.zero()
    for stratum in model.strata:
        size = len(stratum.components)
        total = total + (-1) ** (size + 1) * stratum.cls * LM1**size
    return total


def arrangement(n):
    """The n coordinate hyperplanes of C^n with multiplicities 1..n: the
    open stratum on J is a torus of dimension n - |J|."""
    ids = [f"x{i}" for i in range(n)]
    strata = [
        Stratum(subset, LM1 ** (n - size))
        for size in range(1, n + 1)
        for subset in itertools.combinations(ids, size)
    ]
    return NCModel(n, "global", [Component(cid, i + 1) for i, cid in enumerate(ids)], strata)


class TestValidateOnce:
    """Models are checked when they are built, and only then."""

    @pytest.fixture
    def seen(self, monkeypatch):
        seen = []

        def counting(model):
            seen.append(model)
            return validate(model)

        # NCModel looks validate up in its module on every construction
        monkeypatch.setattr("ncmilnor.model.validate", counting)
        return seen

    def test_check_invariance_validates_each_model_once(self, seen):
        model = arrangement(4)
        assert seen == [model]
        report = check_invariance(model, point_center(["x0", "x1"], codim=4))
        assert report.all_invariant
        # the model when it was built, then the blown model
        assert len(seen) == 2
        assert seen[0] is model and seen[1] is not model
        assert "E" in seen[1].component_ids()

    def test_apply_blowup_after_check_invariance_builds_nothing(self, seen):
        model = arrangement(4)
        center = point_center(["x0", "x1"], codim=4)
        check_invariance(model, center)
        assert len(seen) == 2
        assert apply_blowup(model, center) is seen[1]
        assert len(seen) == 2

    def test_realizations_do_not_validate(self, seen):
        model = builtin_example("cusp_resolved")
        seen.clear()
        keyed_class(model)
        acampo_zeta(model)
        milnor_fibre_euler(model)
        motivic_terms(model)
        psi_data(model, {"e2", "e6"})
        assert seen == []


class TestOneBlowupPerCentre:
    """A centre keeps the last blow-up it gave without a warning, for the
    model object it was given."""

    def test_same_centre_and_model(self):
        model = arrangement(4)
        center = point_center(["x0", "x1"], codim=4)
        assert apply_blowup(model, center) is apply_blowup(model, center)

    def test_equal_centre_builds_again(self):
        model = arrangement(4)
        blown = apply_blowup(model, point_center(["x0", "x1"], codim=4))
        again = apply_blowup(model, point_center(["x0", "x1"], codim=4))
        assert again is not blown and again == blown

    def test_other_model_builds_again(self):
        center = point_center(["x0", "x1"], codim=4)
        blown = apply_blowup(arrangement(4), center)
        again = apply_blowup(arrangement(4), center)  # equal, not the same object
        assert again is not blown and again == blown
        other = apply_blowup(arrangement(5), center)
        assert len(other.components) == 6 and other != blown

    def test_warning_is_issued_on_every_call(self):
        model = builtin_example("smooth")
        center = CenterSpec(("x",), (), 2, {frozenset(): LefschetzPoly((2,))}, "E")
        for _ in range(2):
            with pytest.warns(UserWarning, match="negative leading coefficient"):
                apply_blowup(model, center)

    @pytest.mark.parametrize("case", ["bad centre", "blown model over the digit bound"])
    def test_error_is_raised_on_every_call(self, case):
        if case == "bad centre":
            model, center = arrangement(4), point_center(["x0", "ghost"], codim=4)
        else:
            half = 10**1000 // 2 + 1
            model = NCModel(2, "local", [Component("x", half), Component("y", half)],
                            [Stratum({"x", "y"}, ONE)])
            center = point_center(["x", "y"], codim=2)
        for _ in range(2):
            with pytest.raises(InvalidModelError):
                apply_blowup(model, center)

    def test_used_centre_is_a_plain_value(self):
        model = arrangement(4)
        used = point_center(["x0", "x1"], codim=4)
        blown = apply_blowup(model, used)
        fresh = point_center(["x0", "x1"], codim=4)
        assert used == fresh and repr(used) == repr(fresh)
        assert hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        for twin in (pickle.loads(pickle.dumps(used)), copy.copy(used), copy.deepcopy(used)):
            assert twin == fresh
            assert apply_blowup(model, twin) is not blown


def count_products(monkeypatch, fn, *args):
    """Call ``fn`` and count the coefficient-list products it makes."""
    calls = []
    real = ring._mul

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(ring, "_mul", counting)
    result = fn(*args)
    monkeypatch.undo()
    return result, len(calls)


class TestProductCounts:
    """Counts, not times: the per-stratum loops add, and ring products are
    made once per bucket."""

    def test_keyed_class_fewer_products_than_strata(self, monkeypatch):
        model = arrangement(8)
        keyed, products = count_products(monkeypatch, keyed_class, model)
        assert keyed == grouped_term_sum(model)
        assert products < len(model.strata) == 255

    def test_apply_blowup_fewer_products_than_added_strata(self, monkeypatch):
        # the coordinate 2-plane of H_8 cut out by |K| = 6 hyperplanes, with
        # one centre piece per transverse subset of {x6, x7}
        model = arrangement(8)
        pieces = {frozenset(r): LM1 ** (2 - len(r))
                  for r in ((), ("x6",), ("x7",), ("x6", "x7"))}
        center = CenterSpec([f"x{i}" for i in range(6)], ("x6", "x7"), 6, pieces, "E")
        blown, products = count_products(monkeypatch, apply_blowup, model, center)
        added = sum("E" in s.components for s in blown.strata)
        assert added == 4 * (2**6 - 1)
        assert products < added


def random_model_and_center(rng):
    n = rng.randint(2, 4)
    ids = [f"c{i}" for i in range(rng.randint(2, 4))]
    components = [Component(cid, rng.randint(1, 6)) for cid in ids]

    def random_class(max_deg):
        degree = rng.randint(0, max(0, max_deg))
        coeffs = [rng.randint(-3, 3) for _ in range(degree)] + [rng.randint(1, 3)]
        return LefschetzPoly(coeffs)

    subsets = []
    for mask in range(1, 2 ** len(ids)):
        subset = frozenset(cid for i, cid in enumerate(ids) if mask >> i & 1)
        if len(subset) <= n and rng.random() < 0.7:
            subsets.append(subset)
    if not subsets:
        subsets = [frozenset(ids[:1])]
    strata = [Stratum(s, random_class(n - len(s))) for s in subsets]
    mode = rng.choice(("global", "local"))
    model = NCModel(n, mode, components, strata)
    assert validate(model) == []

    host = rng.choice(subsets)
    k_size = rng.randint(1, len(host))
    containing = frozenset(rng.sample(sorted(host), k_size))
    rest = host - containing
    codim = rng.randint(len(containing), max(len(containing), n - len(rest)))
    pieces = {}
    for r_subset in (frozenset(), rest):
        if len(r_subset) > n - codim:
            continue
        ambient = model.stratum_class(containing | r_subset)
        if ambient.is_zero:
            continue
        max_deg = min(ambient.degree, n - codim - len(r_subset))
        if max_deg < 0:
            continue
        if rng.random() < 0.8 or not pieces:
            pieces[r_subset] = LefschetzPoly((1,) * (rng.randint(0, max_deg) + 1))
    center = CenterSpec(containing, rest, codim, pieces, "E")
    if validate_center(model, center):
        # fall back to the always-admissible point centre on the host stratum
        center = point_center(sorted(host), codim=len(host))
    return model, center


class TestTelescoping:
    def test_small_cases(self):
        assert telescoping_check(1)
        assert telescoping_check(2)
        assert telescoping_check(7)

    def test_range(self):
        assert all(telescoping_check(k) for k in range(1, 65))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            telescoping_check(0)


class TestCenterDocuments:
    def test_round_trip(self):
        center = CenterSpec(
            ("x",), ("y",), 2,
            {frozenset(): LM1, frozenset({"y"}): ONE}, "E")
        assert load_center(save_center(center)) == center

    def test_unknown_field(self):
        doc = json.loads(save_center(point_center(("x",), 2)))
        doc["extra"] = True
        from ncmilnor.model import ModelParseError
        with pytest.raises(ModelParseError, match="unknown fields"):
            load_center(json.dumps(doc))

    def test_file_shape(self):
        doc = json.loads(save_center(point_center(("x", "y"), 2)))
        assert set(doc) == {"K", "L", "codim", "new_component_id", "center_strata"}
        assert doc["K"] == ["x", "y"]
        assert doc["center_strata"] == [{"R": [], "class": [1]}]


# ---------------------------------------------------------------------------
# toric fan oracle.  Every model reached from H_n by blowing up orbit
# closures is toric: components are rays v in Z^n with N_v = <m, v> for
# f = x^m, strata are the nonempty cones J with class (L-1)^(n-|J|), and
# blowing up the orbit closure of a cone sigma is the stellar subdivision at
# the sum of its rays.  Nothing below shares code with apply_blowup.

def l_minus_one_pow(k):
    return LefschetzPoly([comb(k, i) * (-1) ** (k - i) for i in range(k + 1)])


def all_subsets(rays):
    ordered = sorted(rays)
    return [frozenset(c) for size in range(len(ordered) + 1)
            for c in itertools.combinations(ordered, size)]


class Fan:
    """A simplicial fan of rays in Z^n; a cone is a frozenset of ray ids."""

    def __init__(self, m):
        self.n = len(m)
        self.m = m
        self.rays = {f"x{i}": tuple(int(i == j) for j in range(self.n)) for i in range(self.n)}
        self.cones = set(all_subsets(self.rays)) - {frozenset()}

    def multiplicities(self):
        return {ray: sum(a * b for a, b in zip(self.m, v)) for ray, v in self.rays.items()}

    def classes(self):
        return {cone: l_minus_one_pow(self.n - len(cone)) for cone in self.cones}

    def model(self):
        return NCModel(self.n, "global",
                       [Component(ray, mult) for ray, mult in self.multiplicities().items()],
                       [Stratum(cone, cls) for cone, cls in self.classes().items()])

    def centre(self, sigma, new_id):
        """K = sigma, L = link(sigma), one piece (L-1)^(n-|sigma|-|R|) per
        cone sigma + R."""
        star = [cone for cone in self.cones if sigma <= cone]
        link = set().union(*star) - sigma
        pieces = {cone - sigma: l_minus_one_pow(self.n - len(cone)) for cone in star}
        return CenterSpec(sigma, link, len(sigma), pieces, new_id)

    def subdivide(self, sigma, new_id):
        """Stellar subdivision at v = sum of the rays of sigma: keep the
        cones not containing sigma, and add every face through v of
        {v} + (tau - {rho}) for tau containing sigma and rho in sigma."""
        self.rays[new_id] = tuple(map(sum, zip(*(self.rays[ray] for ray in sigma))))
        star = [cone for cone in self.cones if sigma <= cone]
        self.cones -= set(star)
        for tau in star:
            for rho in sigma:
                self.cones.update(face | {new_id} for face in all_subsets(tau - {rho}))


class TestFanOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_blowup_chains_are_stellar_subdivisions(self, data):
        n = data.draw(st.integers(min_value=2, max_value=5))
        fan = Fan(data.draw(st.lists(st.integers(min_value=1, max_value=50),
                                     min_size=n, max_size=n)))
        model = fan.model()
        for step in range(data.draw(st.integers(min_value=1, max_value=4))):
            sigma = data.draw(st.sampled_from(
                sorted((cone for cone in fan.cones if len(cone) >= 2), key=sorted)))
            model = apply_blowup(model, fan.centre(sigma, f"E{step}"))
            fan.subdivide(sigma, f"E{step}")
            assert model == fan.model()  # the fan lists its rays and cones in set order
