"""Behaviour of the immutable value classes: construction, equality, hash,
repr, immutability, and pickle/copy round trips."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ncmilnor
from ncmilnor.blowup import CenterSpec, InvarianceReport, point_center
from ncmilnor.logspace import (
    ChartContext,
    Classification,
    CplPoint,
    PolarCoord,
    PsiImage,
    chart_context,
)
from ncmilnor.milnor import MotivicTerm, PsiData
from ncmilnor.model import (
    CensusPiece,
    CensusRecord,
    Chart,
    Component,
    NCModel,
    Stratum,
    UnitPoly,
    Violation,
    builtin_example,
    validate,
)
from ncmilnor.ring import (
    ONE,
    ZERO,
    KeyedClass,
    LefschetzPoly,
    UVPoly,
    ZetaFactorization,
    value_class,
)

XY = builtin_example("xy")
XY_CHART = XY.charts[0]
XY_CTX = chart_context(XY)
XY_CHART_REPR = ("Chart(dim=2, divisor_coords=((0, 'x'), (1, 'y')), "
                 "unit=UnitPoly({(): (Fraction(1, 1), Fraction(0, 1))}))")
XY_CTX_REPR = f"ChartContext(chart={XY_CHART_REPR}, multiplicities=((0, 1), (1, 1)))"

# (class, field names, arguments, other arguments, exact repr of cls(*arguments))
CASES = [
    (Violation, ("where", "problem"), ("a", "b"), ("a", "c"),
     "Violation(where='a', problem='b')"),
    (Component, ("id", "multiplicity"), ("x", 2), ("x", 3),
     "Component(id='x', multiplicity=2)"),
    (Stratum, ("components", "cls"), (frozenset({"x"}), ONE), (frozenset({"y"}), ONE),
     "Stratum(components=frozenset({'x'}), cls=LefschetzPoly((1,)))"),
    (Chart, ("dim", "divisor_coords", "unit"), (2, ((0, "x"), (1, "y")), XY_CHART.unit),
     (2, ((0, "x"),), XY_CHART.unit), XY_CHART_REPR),
    (NCModel, ("ambient_dim", "mode", "components", "strata", "charts"),
     (1, "local", (Component("x", 1),), (Stratum({"x"}, ONE),), ()),
     (1, "global", (Component("x", 1),), (Stratum({"x"}, ONE),), ()),
     "NCModel(ambient_dim=1, mode='local', components=(Component(id='x', multiplicity=1),), "
     "strata=(Stratum(components=frozenset({'x'}), cls=LefschetzPoly((1,))),), charts=())"),
    (CensusPiece, ("finite", "shape", "tag"), (("x",), "C*", "mot"), ((), "S^1", "top"),
     "CensusPiece(finite=('x',), shape='C*', tag='mot')"),
    (CensusRecord, ("subset", "pieces"), (("x",), ()), (("y",), ()),
     "CensusRecord(subset=('x',), pieces=())"),
    (MotivicTerm, ("subset", "sign", "gcd_key", "stratum_cls", "torus_exponent"),
     (("x",), 1, 2, ONE, 0), (("x",), 1, 3, ONE, 0),
     "MotivicTerm(subset=('x',), sign=1, gcd_key=2, stratum_cls=LefschetzPoly((1,)), "
     "torus_exponent=0)"),
    (PsiData, ("subset", "order", "bezout"), (("x",), 1, (1,)), (("x",), 2, (1,)),
     "PsiData(subset=('x',), order=1, bezout=(1,))"),
    (InvarianceReport,
     ("zeta_before", "zeta_after", "euler_before", "euler_after",
      "absolute_before", "absolute_after", "keyed_before", "keyed_after"),
     (ZetaFactorization(), ZetaFactorization(), 0, 0, ZERO, ZERO, KeyedClass(), KeyedClass()),
     (ZetaFactorization(), ZetaFactorization(), 0, 1, ZERO, ZERO, KeyedClass(), KeyedClass()),
     "InvarianceReport(zeta_before=ZetaFactorization([]), zeta_after=ZetaFactorization([]), "
     "euler_before=0, euler_after=0, absolute_before=LefschetzPoly(()), "
     "absolute_after=LefschetzPoly(()), keyed_before=KeyedClass({}), "
     "keyed_after=KeyedClass({}))"),
    (PolarCoord, ("radius", "phase"), (1.0, 1j), (2.0, 1j),
     "PolarCoord(radius=1.0, phase=1j)"),
    (ChartContext, ("chart", "multiplicities"), (XY_CHART, ((0, 1), (1, 1))),
     (XY_CHART, ((0, 1), (1, 2))), XY_CTX_REPR),
    (CplPoint, ("chart", "base", "polar"),
     (XY_CTX, (0j, 0j), ((0, PolarCoord(1.0, 1 + 0j)), (1, PolarCoord(2.0, 1j)))),
     (XY_CTX, (0j, 0j), ((0, PolarCoord(1.0, 1 + 0j)), (1, PolarCoord(3.0, 1j)))),
     f"CplPoint(chart={XY_CTX_REPR}, base=(0j, 0j), polar=((0, PolarCoord(radius=1.0, "
     "phase=(1+0j))), (1, PolarCoord(radius=2.0, phase=1j))))"),
    (Classification, ("tag", "finite"), ("mot", frozenset({0})), ("top", frozenset()),
     "Classification(tag='mot', finite=frozenset({0}))"),
    (PsiImage, ("base", "scale", "residual", "order"), ((0j,), 1j, ((0, 1 + 0j),), 2),
     ((0j,), 1j, ((0, 1 + 0j),), 3),
     "PsiImage(base=(0j,), scale=1j, residual=((0, (1+0j)),), order=2)"),
]

IDS = [case[0].__name__ for case in CASES]

# what a value hashes other than its field tuple: a model hashes its indexes
# {id: N} and {subset: class} in place of its ordered components and strata
HASHED = {NCModel: (1, "local", frozenset({("x", 1)}), frozenset({(frozenset({"x"}), ONE)}), ())}


@pytest.mark.parametrize("cls, fields, args, other, text", CASES, ids=IDS)
class TestValueClass:
    def test_construction(self, cls, fields, args, other, text):
        obj = cls(*args)
        assert tuple(getattr(obj, name) for name in fields) == args
        assert cls(**dict(zip(fields, args))) == obj

    def test_equality(self, cls, fields, args, other, text):
        obj = cls(*args)
        assert obj == cls(*args)
        assert not obj != cls(*args)
        assert obj != cls(*other)
        assert not obj == cls(*other)
        # equal only to instances of the same class
        assert obj != args
        assert obj.__eq__(args) is NotImplemented
        assert obj != object()

    def test_hash(self, cls, fields, args, other, text):
        obj = cls(*args)
        assert hash(obj) == hash(cls(*args)) == hash(HASHED.get(cls, args))

    def test_repr(self, cls, fields, args, other, text):
        assert repr(cls(*args)) == text

    def test_immutable(self, cls, fields, args, other, text):
        obj = cls(*args)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert tuple(getattr(obj, name) for name in fields) == args

    def test_pickle_and_copy(self, cls, fields, args, other, text):
        obj = cls(*args)
        for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(again) is cls
            assert again == obj
            assert hash(again) == hash(obj)


class TestNCModel:
    def test_charts_default(self):
        model = NCModel(1, "local", [Component("x", 1)], [Stratum({"x"}, ONE)])
        assert model.charts == ()
        assert model == NCModel(1, "local", (Component("x", 1),), (Stratum({"x"}, ONE),), ())

    def test_equality_ignores_index_and_memo(self):
        model = NCModel(1, "local", [Component("x", 1)], [Stratum({"x"}, ONE)])
        fresh = NCModel(1, "local", [Component("x", 1)], [Stratum({"x"}, ONE)])
        assert model == fresh and hash(model) == hash(fresh)
        assert "_multiplicities" not in repr(model) and "_classes" not in repr(model)

    def test_copies_keep_lookups_and_validity(self):
        model = builtin_example("cusp_resolved")
        for again in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert again == model
            assert again.multiplicity("e6") == 6
            assert again.stratum_class({"e6"}) == LefschetzPoly((-2, 1))
            assert validate(again) == []


def test_value_class_keeps_the_methods_a_class_writes():
    @value_class
    class Mod3:
        __slots__ = ("n",)

        def __eq__(self, other):
            return other.__class__ is Mod3 and (self.n - other.n) % 3 == 0

        def __hash__(self):
            return hash(self.n % 3)

    assert Mod3(1) == Mod3(4) and hash(Mod3(1)) == hash(Mod3(4)) and Mod3(1) != Mod3(2)
    assert repr(Mod3(4)).endswith(".Mod3(4)")

    @value_class
    class EqualityOnly:  # Python leaves a class that writes __eq__ alone with no hash
        __slots__ = ("n",)

        def __eq__(self, other):
            return NotImplemented

    with pytest.raises(TypeError, match="unhashable"):
        hash(EqualityOnly(1))
    assert NCModel.__eq__.__code__ is not Violation.__eq__.__code__
    assert NCModel.__hash__.__code__ is not Violation.__hash__.__code__


# the value types that compute a normal form in their own __init__
OTHER_VALUES = [
    LefschetzPoly((1, 2)),
    LefschetzPoly(()),
    KeyedClass({1: ONE, 6: LefschetzPoly((-1, 1))}),
    ZetaFactorization([(2, 1), (3, 1), (6, -1)]),
    UVPoly({(1, 1): 2, (0, 0): -1}),
    XY_CHART.unit,
    point_center(("x", "y"), 2),
    CenterSpec(["x"], ["y"], 1, {frozenset(): ONE, frozenset({"y"}): ONE}, "E"),
]


# the value types whose single field is a term map, with items of equal values
TERM_MAPS = [
    (KeyedClass, [(6, LefschetzPoly((-1, 1))), (1, ONE)]),
    (UVPoly, [((1, 1), 2), ((0, 0), -1)]),
    (UnitPoly, [((1, 2), (3, 0)), ((), (1, 0))]),
]


@pytest.mark.parametrize("cls, items", TERM_MAPS, ids=[cls.__name__ for cls, _ in TERM_MAPS])
def test_term_map_hash_is_generated(cls, items):
    assert cls.__hash__.__code__ is Violation.__hash__.__code__  # value_class's own
    forward, backward = cls(dict(items)), cls(dict(reversed(items)))
    assert forward == backward
    assert hash(forward) == hash(backward)
    (field,) = cls.__slots__
    assert hash(forward) == hash(frozenset(getattr(forward, field).items()))


@pytest.mark.parametrize("value", OTHER_VALUES, ids=lambda v: type(v).__name__)
def test_value_type_pickle_and_copy(value):
    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(again) is type(value)
        assert again == value
        assert repr(again) == repr(value)
        # a dict field (a term map, a centre's pieces) hashes as its items
        assert hash(again) == hash(value)


@pytest.mark.parametrize("value", OTHER_VALUES, ids=lambda v: type(v).__name__)
def test_value_type_refuses_assignment_and_deletion(value):
    fresh = copy.deepcopy(value)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == fresh
    assert repr(value) == repr(fresh)


# reprs of values with frozenset fields, and of their deep copies
FROZENSET_REPRS = """
import copy
from ncmilnor.logspace import Classification
from ncmilnor.model import Component, NCModel, Stratum
from ncmilnor.ring import ONE
ids = ["p", "q", "r", "s", "t", "u"]
values = [Stratum(ids, ONE), Classification("mixed", frozenset(range(0, 60, 7))),
          NCModel(6, "global", [Component(i, 1) for i in ids], [Stratum(ids, ONE)])]
for value in values:
    print(repr(value))
    print(repr(copy.deepcopy(value)))
"""


def test_frozenset_fields_repr_sorted_under_any_hash_seed():
    src = str(Path(ncmilnor.__file__).resolve().parent.parent)
    outputs = set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run([sys.executable, "-c", FROZENSET_REPRS], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    (text,) = outputs
    lines = text.splitlines()
    assert lines[0] == lines[1] == (
        "Stratum(components=frozenset({'p', 'q', 'r', 's', 't', 'u'}), "
        "cls=LefschetzPoly((1,)))")
    assert lines[2] == lines[3] == (
        "Classification(tag='mixed', finite=frozenset({0, 7, 14, 21, 28, 35, 42, 49, 56}))")
    assert lines[4] == lines[5] and lines[0] in lines[4]
