"""Motivic term sums and their realizations on the built-in models."""

import json

import pytest
from hypothesis import given, strategies as st

from ncmilnor.milnor import (
    acampo_zeta,
    keyed_class,
    milnor_fibre_euler,
    motivic_terms,
    naive_absolute_class,
    psi_data,
)
from ncmilnor.model import (
    Component,
    InvalidModelError,
    NCModel,
    Stratum,
    UnknownStratumError,
    builtin_example,
    load_model,
    save_model,
)
from ncmilnor.ring import (
    KeyedClass,
    LefschetzPoly,
    ZetaFactorization,
    bezout_chain,
    euler_realization,
)

ONE = LefschetzPoly.one()
LM1 = LefschetzPoly((-1, 1))


class TestMotivicTerms:
    def test_xy_single_corner_term(self):
        (term,) = motivic_terms(builtin_example("xy"))
        assert term.subset == ("x", "y")
        assert term.sign == -1
        assert term.gcd_key == 1
        assert term.stratum_cls == ONE
        assert term.torus_exponent == 1

    def test_power_single_term(self):
        (term,) = motivic_terms(builtin_example("power_3"))
        assert (term.subset, term.sign, term.gcd_key) == (("x",), 1, 3)
        assert term.torus_exponent == 0

    def test_cusp_six_terms(self):
        terms = motivic_terms(builtin_example("cusp_resolved"))
        assert len(terms) == 6
        assert sorted(t.subset for t in terms) == [t.subset for t in terms]
        assert {t.subset: t.gcd_key for t in terms} == {
            ("e2",): 2, ("e3",): 3, ("e6",): 6,
            ("e2", "e6"): 2, ("e3", "e6"): 3, ("e6", "st"): 1,
        }

    def test_invalid_model_rejected(self):
        # no invalid model reaches motivic_terms: building one fails
        with pytest.raises(InvalidModelError) as exc:
            NCModel(2, "local", [Component("x", 0)], [Stratum({"x"}, ONE)])
        assert [str(v) for v in exc.value.violations] == [
            "components[0] ('x'): multiplicity must be >= 1, got 0"]

    def test_sign_formula_consistency(self):
        for name in ("xy", "cusp_resolved", "power_2"):
            terms = motivic_terms(builtin_example(name))
            assert sum(t.sign * (-1) ** (len(t.subset) + 1) for t in terms) == len(terms)


class TestNaiveAbsoluteClass:
    def test_xy(self):
        assert naive_absolute_class(builtin_example("xy")) == -(LM1**2)

    def test_power_independent_of_exponent(self):
        for n in (1, 2, 7):
            assert naive_absolute_class(builtin_example(f"power_{n}")) == LM1

    def test_euler_realization_vanishes(self):
        # every term carries a factor (L - 1)
        for name in ("smooth", "xy", "cusp_resolved", "power_4", "xa_yb_3_4"):
            assert euler_realization(naive_absolute_class(builtin_example(name))) == 0

    def test_cusp_value(self):
        # 2*L*(L-1) + (L-2)(L-1) - 3(L-1)^2 telescopes to L-1
        assert naive_absolute_class(builtin_example("cusp_resolved")) == LM1


class TestKeyedClass:
    def test_xy(self):
        assert keyed_class(builtin_example("xy")) == KeyedClass({1: -LM1})

    def test_power4(self):
        assert keyed_class(builtin_example("power_4")) == KeyedClass({4: ONE})

    def test_aggregation_matches_naive(self):
        for name in ("xy", "cusp_resolved", "xa_yb_2_3", "power_6"):
            model = builtin_example(name)
            total = LefschetzPoly.zero()
            for _, entry in keyed_class(model):
                total = total + entry * LM1
            assert total == naive_absolute_class(model)


class TestInvalidModel:
    def test_duplicate_subset_rejected_on_every_call(self):
        doc = json.loads(save_model(builtin_example("xy")))
        doc["strata"].append({"components": ["x", "y"], "class": [1]})
        # the document never becomes a model, so no realization sees it
        with pytest.raises(InvalidModelError) as exc:
            load_model(json.dumps(doc))
        assert [str(v) for v in exc.value.violations] == [
            "strata[1] ({x, y}): duplicate stratum subset"]


class TestZetaAndEuler:
    def test_cusp(self):
        assert acampo_zeta(builtin_example("cusp_resolved")) == ZetaFactorization(
            [(2, 1), (3, 1), (6, -1)]
        )

    def test_xy_trivial(self):
        assert acampo_zeta(builtin_example("xy")) == ZetaFactorization()

    def test_power(self):
        for n in (1, 2, 5):
            assert acampo_zeta(builtin_example(f"power_{n}")) == ZetaFactorization([(n, 1)])

    def test_cusp_euler_is_one_minus_milnor_number(self):
        # mu(x^2 + y^3) = 2, computed as dim of C[[x,y]] / (x, y^2)
        assert milnor_fibre_euler(builtin_example("cusp_resolved")) == -1 == 1 - 2

    def test_power_euler_counts_roots(self):
        for n in (1, 3, 6):
            assert milnor_fibre_euler(builtin_example(f"power_{n}")) == n

    def test_xy_euler(self):
        assert milnor_fibre_euler(builtin_example("xy")) == 0

    def test_zeta_euler_link(self):
        # sum of N * chi over zeta factors plus zero-chi components
        for name in ("cusp_resolved", "xy", "power_5", "smooth"):
            model = builtin_example(name)
            total = sum(n * e for n, e in acampo_zeta(model))
            assert total == milnor_fibre_euler(model)


class TestPsiData:
    def test_coprime_pair(self):
        model = builtin_example("xa_yb_2_3")
        data = psi_data(model, {"x", "y"})
        assert data.order == 1
        assert data.bezout == (-1, 1)
        assert -1 * 2 + 1 * 3 == 1

    def test_common_factor(self):
        g, coeffs = bezout_chain([4, 6])
        assert g == 2
        assert coeffs[0] * 4 + coeffs[1] * 6 == 2

    def test_singleton(self):
        data = psi_data(builtin_example("power_5"), {"x"})
        assert data.order == 5
        assert data.bezout == (1,)

    def test_absent_stratum(self):
        with pytest.raises(UnknownStratumError):
            psi_data(builtin_example("xy"), {"x"})

    @given(st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=6))
    def test_bezout_identity_always_exact(self, values):
        from math import gcd
        g, coeffs = bezout_chain(values)
        assert g == gcd(*values)
        assert sum(c * v for c, v in zip(coeffs, values)) == g
