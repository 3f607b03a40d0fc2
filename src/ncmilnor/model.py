"""Combinatorial model of a function with normal-crossing zero divisor.

An ``NCModel`` records the resolution-level data the rest of the package
consumes: divisor components with their multiplicities, the classes of the
open strata (points lying on exactly a given set of components) as
Lefschetz polynomials, and optionally numeric charts carrying the unit
factor of the function.

Two modes:

* ``global``: stratum classes are classes of the open strata themselves.
* ``local``: the function is the resolved pullback of a germ at a chosen
  point, and stratum classes are classes of the parts of the open strata
  sitting over that point.

Stratum classes are *inputs*: the engine is purely combinatorial, and the
geometry enters only through these classes.  A subset absent from the
stratum list is the empty stratum (class zero); explicit zero classes are
rejected so that presence always means nonempty.

An ``NCModel`` is valid by construction: building one runs ``validate`` and
raises ``InvalidModelError``, so the realizations never check a model again.
``validate`` decides whether the strata are clean in a few C-level passes
over the whole strata tuple (coefficient digits, duplicate subsets, empty
subsets, zero classes, the degree bound, unknown ids), and only a model that
fails one of them is checked stratum by stratum, so each violation keeps
its message, locator and order.

The on-disk form is a strict JSON document (unknown fields rejected), see
``load_model`` / ``save_model``.  Both run mostly at C speed on large
documents.  ``save_model`` writes the indent=2 layout itself, and its bytes
equal those of ``json.dumps(doc, indent=2)`` whenever every integer field is
an exact ``int``.  ``load_model`` checks all strata in a few C-level passes,
and only when one of them is malformed reruns the per-field checkers, so a
malformed stratum gets the same message and locator as a per-stratum check
would give it.  The checked class coefficients go to
``LefschetzPoly.from_checked``, which does not type-check them again.  Every
failure of the JSON parser, nesting too deep and over-long integers
included, is a ``ModelParseError``.

The value types (``Component``, ``Stratum``, ``UnitPoly``, ``NCModel`` and
the rest) are slotted classes completed by ``ring.value_class``
(``NCModel`` writes its own ``__eq__`` and ``__hash__``, on its indexes), and
``fractions`` is imported only when a chart unit is built or parsed, so
importing this module stays cheap.
"""

from __future__ import annotations

import json
from itertools import chain, combinations, repeat
from operator import add, attrgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .ring import ONE, ZERO, LefschetzPoly, value_class

if TYPE_CHECKING:
    from fractions import Fraction

GLOBAL = "global"
LOCAL = "local"

#: Largest accepted ``ambient_dim``.  Class degrees, stratum sizes and
#: blow-up codimensions are bounded by the ambient dimension, so this one
#: limit bounds every dense class the package builds from a document.
MAX_AMBIENT_DIM = 4096

#: Most strata or census pieces the package builds from one input.  A census
#: of J has 2^|J| pieces, and a blow-up along K adds up to 2^|K| strata per
#: centre piece, so both are counted before any piece is built: a document
#: of a few hundred bytes could otherwise ask for 2^40 of them.
MAX_STRATA = 2**17

#: Most decimal digits of a multiplicity or class coefficient.  Python
#: converts integers of at most 4,300 digits to and from text
#: (``sys.get_int_max_str_digits``), and this bound keeps every value the
#: package derives from a valid model below that:
#:
#: * the Euler number sum N_i * chi_i: chi_i sums at most 4,097 coefficients,
#:   so N_i * chi_i stays under 2,004 digits, and the sum over components
#:   under about 2,010;
#: * keyed and absolute class coefficients: each stratum class is multiplied
#:   by (L-1)^k with k < 4,096, whose binomial coefficients have at most 1,233
#:   digits, and the sum over strata stays under about 2,250 digits;
#: * the zeta factorization: its orders are multiplicities and its exponents
#:   Euler numbers of single classes.
#:
#: A blow-up adds a component of multiplicity N_E = sum of N_i over K, and
#: the blown model is checked like any other, so a chain whose N_E crosses the
#: bound stops with an ``InvalidModelError`` naming the new component.
MAX_INT_DIGITS = 1000
_INT_BOUND = 10**MAX_INT_DIGITS  # the least integer with too many digits


class ModelError(ValueError):
    """Base class for model construction and I/O errors."""


class ModelParseError(ModelError):
    """Malformed model document.  ``line``/``column`` are set when the
    failure happened at the JSON level, ``where`` when at the schema level."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None,
                 where: str = ""):
        self.line = line
        self.column = column
        self.where = where
        prefix = f"line {line}, column {column}: " if line is not None else ""
        prefix += f"{where}: " if where else ""
        super().__init__(prefix + message)


class InvalidModelError(ModelError):
    """A model (or blow-up centre) violating its invariants."""

    def __init__(self, violations: Sequence["Violation"]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class UnknownComponentError(ModelError):
    pass


class UnknownStratumError(ModelError):
    pass


@value_class
class Violation:
    """One invariant breach, with a locator into the offending datum."""

    __slots__ = ("where", "problem")

    def __str__(self) -> str:
        return f"{self.where}: {self.problem}"


@value_class
class Component:
    """A divisor component: an id token and the vanishing order of f along it."""

    __slots__ = ("id", "multiplicity")


@value_class
class Stratum:
    """An open stratum: the component subset and its class in Z[L]."""

    __slots__ = ("components", "cls")

    def __init__(self, components: Iterable[str], cls: LefschetzPoly):
        object.__setattr__(self, "components", frozenset(components))
        object.__setattr__(self, "cls", cls)


@value_class
class UnitPoly:
    """Multivariate polynomial with exact Gaussian-rational coefficients.

    Terms map an exponent tuple (entry k for chart coordinate k) to a
    coefficient (re, im) pair of Fractions.  In normal form an exponent
    tuple has no trailing zero, terms whose tuples agree after trimming are
    added, and zero terms are dropped; so ``==`` compares polynomials.
    Evaluation is done in complex double precision; the exact coefficients
    exist so that models serialize reproducibly and charts compare
    bit-exactly.  ``fractions`` is imported by the first unit built, not by
    importing this module.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], tuple[Fraction, Fraction]]):
        from fractions import Fraction

        merged: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
        for exponents, (re, im) in dict(terms).items():
            exponents = tuple(int(e) for e in exponents)
            if any(e < 0 for e in exponents):
                raise ModelError(f"negative exponent in unit term {exponents}")
            n = len(exponents)
            while n and not exponents[n - 1]:
                n -= 1
            key = exponents[:n]
            re, im = Fraction(re), Fraction(im)
            if key in merged:
                re, im = re + merged[key][0], im + merged[key][1]
            merged[key] = (re, im)
        object.__setattr__(self, "terms", {
            key: value for key, value in merged.items() if value[0] or value[1]})

    @staticmethod
    def constant(re, im=0) -> "UnitPoly":
        return UnitPoly({(): (re, im)})

    def __call__(self, point: Sequence[complex]) -> complex:
        total = 0j
        for exponents, (re, im) in self.terms.items():
            if len(exponents) > len(point):
                raise ModelError(
                    f"unit term {exponents} needs {len(exponents)} coordinates, "
                    f"got {len(point)}")
            mono = complex(re) + 1j * complex(im)
            for e, z in zip(exponents, point):
                if e:
                    mono *= z**e
            total += mono
        return total

    def pullback(self, codim: int, pivot: int) -> "UnitPoly":
        """The unit composed with the blow-up chart of the first ``codim``
        coordinates with unit entry at ``pivot``: x_pivot = y_pivot,
        x_k = y_pivot * y_k for the other k < codim, x_j = y_j otherwise.
        So x^e becomes y^e with pivot exponent sum(e[:codim]), an injective
        map on exponents, and the result is exact."""
        terms = {}
        for exponents, coeff in self.terms.items():
            e = list(exponents) + [0] * (pivot + 1 - len(exponents))
            e[pivot] = sum(exponents[:codim])
            terms[tuple(e)] = coeff
        return UnitPoly(terms)


@value_class
class Chart:
    """A numeric chart: which coordinates cut out which components, plus the
    unit factor of f in these coordinates.  ``divisor_coords`` maps a
    coordinate index (< dim) to a component id, stored as sorted pairs."""

    __slots__ = ("dim", "divisor_coords", "unit")

    def __init__(self, dim: int, divisor_coords: Mapping[int, str], unit: UnitPoly):
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "divisor_coords",
                           tuple(sorted((int(k), str(v)) for k, v in dict(divisor_coords).items())))
        object.__setattr__(self, "unit", unit)


@value_class
class NCModel:
    """Components, strata and charts of a normal-crossing model.

    An instance is valid by construction: ``__init__`` runs ``validate`` and
    raises ``InvalidModelError`` with the violations, so code that holds an
    ``NCModel`` need not check it again.  The instance is immutable, so its
    lookups are indexed once, at construction: ``multiplicity`` and
    ``stratum_class`` are dict lookups.

    The order in which a document lists components and strata is not part
    of the geometry, so the normal form compares the two indexes, {id: N}
    and {subset: class}, in place of the ``components`` and ``strata``
    tuples: equality is that of ``(ambient_dim, mode, {id: N},
    {subset: class}, charts)``, and the hash is over the same data.  Charts
    keep their order, since ``--chart`` indexes them.  ``components`` and
    ``strata`` keep document order, and ``save_model`` writes that order, so
    ``a == b`` does not imply ``save_model(a) == save_model(b)``.
    """

    __slots__ = ("ambient_dim", "mode", "components", "strata", "charts",
                 "_multiplicities", "_classes")

    def __init__(self, ambient_dim: int, mode: str, components: Iterable[Component],
                 strata: Iterable[Stratum], charts: Iterable[Chart] = ()):
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "mode", str(mode))
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "strata", tuple(strata))
        object.__setattr__(self, "charts", tuple(charts))
        object.__setattr__(self, "_multiplicities",
                           {c.id: c.multiplicity for c in self.components})
        object.__setattr__(self, "_classes", {s.components: s.cls for s in self.strata})
        violations = validate(self)
        if violations:
            raise InvalidModelError(violations)

    def __eq__(self, other):
        """Equal ``ambient_dim``, ``mode`` and charts, and equal indexes in
        any document order."""
        if other.__class__ is self.__class__:
            return _normal_form(self) == _normal_form(other)
        return NotImplemented

    def __hash__(self):
        """The hash of the same data, each index as the frozenset of its items."""
        dim, mode, multiplicities, classes, charts = _normal_form(self)
        return hash((dim, mode, frozenset(multiplicities.items()),
                     frozenset(classes.items()), charts))

    # -- lookups

    def component_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    def multiplicity(self, component_id: str) -> int:
        try:
            return self._multiplicities[component_id]
        except KeyError:
            raise UnknownComponentError(f"unknown component id {component_id!r}") from None

    def stratum_class(self, subset: Iterable[str]) -> LefschetzPoly:
        """Class of the stratum on exactly ``subset``; zero when absent."""
        return self._classes.get(frozenset(subset), ZERO)


# what an NCModel compares and hashes: its indexes stand for the ordered
# components and strata
_normal_form = attrgetter("ambient_dim", "mode", "_multiplicities", "_classes", "charts")


# ---------------------------------------------------------------------------
# validation

# slot getters, with which validate reads every stratum at C level
_stratum_ids, _stratum_cls = Stratum.components.__get__, Stratum.cls.__get__
_poly_coeffs = LefschetzPoly.coeffs.__get__


def validate(model: NCModel) -> list[Violation]:
    """Every invariant violation of the model's fields, in field order; the
    list is empty iff the fields make a valid model.  ``NCModel`` runs this
    on construction, so an existing instance always yields ``[]``.

    The strata are first judged clean or not in whole-tuple passes; only a
    model that fails one of them is checked stratum by stratum, and that
    check alone writes the strata violations."""
    out: list[Violation] = []
    if model.ambient_dim < 1:
        out.append(Violation("ambient_dim", f"must be positive, got {model.ambient_dim}"))
    elif model.ambient_dim > MAX_AMBIENT_DIM:
        out.append(Violation(
            "ambient_dim", f"must be at most {MAX_AMBIENT_DIM}, got {model.ambient_dim}"))
    if model.mode not in (GLOBAL, LOCAL):
        out.append(Violation("mode", f"must be 'global' or 'local', got {model.mode!r}"))

    seen_ids: set[str] = set()
    for idx, comp in enumerate(model.components):
        where = f"components[{idx}] ({comp.id!r})"
        if not comp.id:
            out.append(Violation(where, "empty component id"))
        if comp.id in seen_ids:
            out.append(Violation(where, "duplicate component id"))
        seen_ids.add(comp.id)
        # the digit test comes first: a too-long integer has no decimal text
        if abs(comp.multiplicity) >= _INT_BOUND:
            out.append(Violation(
                where, f"multiplicity has more than {MAX_INT_DIGITS} digits"))
        elif comp.multiplicity < 1:
            out.append(Violation(where, f"multiplicity must be >= 1, got {comp.multiplicity}"))

    # lists, as tuple(map(...)) shrinks a tuple of a guessed size (see the
    # note in milnor.keyed_class)
    id_sets = list(map(_stratum_ids, model.strata))
    coeffs = list(map(_poly_coeffs, map(_stratum_cls, model.strata)))
    sizes = list(map(len, id_sets))
    # a class of degree d on J needs d <= ambient_dim - |J|, that is
    # |J| + len(coeffs) <= ambient_dim + 1; with a nonzero class this also
    # bounds |J| by ambient_dim
    clean = (max(map(abs, chain.from_iterable(coeffs)), default=0) < _INT_BOUND
             and len(model._classes) == len(id_sets)
             and min(sizes, default=1) > 0
             and all(coeffs)
             and max(map(add, sizes, map(len, coeffs)), default=0) <= model.ambient_dim + 1
             and set().union(*id_sets) <= seen_ids)
    seen_subsets: set[frozenset[str]] = set()
    for idx, stratum in enumerate(() if clean else model.strata):
        ids = stratum.components
        problems: list[str] = []
        if not ids:
            problems.append("stratum subset must be nonempty")
        if ids in seen_subsets:
            problems.append("duplicate stratum subset")
        seen_subsets.add(ids)
        unknown = ids - seen_ids
        if unknown:
            problems.append(f"unknown component ids {sorted(unknown)}")
        if len(ids) > model.ambient_dim:
            problems.append(f"|J| = {len(ids)} exceeds ambient_dim {model.ambient_dim}")
        if stratum.cls.is_zero:
            problems.append("empty stratum must be omitted, not stored with class 0")
        else:
            bound = model.ambient_dim - len(ids)
            if stratum.cls.degree > bound:
                problems.append(
                    f"class degree {stratum.cls.degree} exceeds dimension bound {bound}")
            if max(map(abs, stratum.cls.coeffs)) >= _INT_BOUND:
                problems.append(f"class coefficient has more than {MAX_INT_DIGITS} digits")
        if problems:
            # the locator sorts the ids, so it is built for failing strata only
            where = f"strata[{idx}] ({{{', '.join(sorted(ids))}}})"
            out.extend(Violation(where, problem) for problem in problems)

    for idx, chart in enumerate(model.charts):
        where = f"charts[{idx}]"
        if chart.dim < 1:
            out.append(Violation(where, f"dim must be positive, got {chart.dim}"))
        for coord, comp_id in chart.divisor_coords:
            if not 0 <= coord < chart.dim:
                out.append(Violation(where, f"divisor coordinate {coord} out of range"))
            if comp_id not in seen_ids:
                out.append(Violation(where, f"unknown component id {comp_id!r}"))
        for exponents in chart.unit.terms:
            if len(exponents) > chart.dim:
                out.append(Violation(where, f"unit term {exponents} has too many variables"))
    return out


def _check_subset(model: NCModel, subset: Iterable[str]) -> frozenset[str]:
    key = frozenset(subset)
    unknown = [cid for cid in key if cid not in model._multiplicities]
    if unknown:
        raise UnknownComponentError(f"unknown component ids {sorted(unknown)}")
    return key


# ---------------------------------------------------------------------------
# census of the complete space over a stratum

TOP = "top"
MOT = "mot"
MIXED = "mixed"


@value_class
class CensusPiece:
    """One piece of the fibre decomposition over a stratum: the components
    held at finite radius, the resulting product shape, and its tag."""

    __slots__ = ("finite", "shape", "tag")


@value_class
class CensusRecord:
    """The sorted ids of a stratum and the pieces of the fibre over it."""

    __slots__ = ("subset", "pieces")

    @property
    def mixed_count(self) -> int:
        return sum(1 for p in self.pieces if p.tag == MIXED)


def census(model: NCModel, subset: Iterable[str]) -> CensusRecord:
    """Decompose the fibre of the complete space over the stratum on ``subset``.

    Each component direction contributes a factor ((0, +inf] x S^1); the
    2^|J| pieces are labelled by the set A of directions held at finite
    radius.  A = J is the algebraic piece (a torus, tagged "mot"), A = empty
    the boundary piece (tagged "top"), everything else is mixed.  Pieces
    come top, mot, then mixed by size and id order; more than
    ``MAX_STRATA`` of them is a ``ModelError``.
    """
    key = _check_subset(model, subset)
    if not key:
        raise ModelError("census subset must be nonempty")
    if 1 << len(key) > MAX_STRATA:
        raise ModelError(f"census of {len(key)} components has 2^{len(key)} pieces, "
                         f"more than {MAX_STRATA}")
    ordered = tuple(sorted(key))

    def piece(finite: tuple[str, ...], tag: str) -> CensusPiece:
        fin = set(finite)
        return CensusPiece(
            finite, " x ".join("C*" if cid in fin else "S^1" for cid in ordered), tag)

    mixed = chain.from_iterable(combinations(ordered, k) for k in range(1, len(ordered)))
    return CensusRecord(ordered, (piece((), TOP), piece(ordered, MOT),
                                  *(piece(finite, MIXED) for finite in mixed)))


def closure_strata(model: NCModel, subset: Iterable[str]) -> set[frozenset[str]]:
    """Supersets K of ``subset`` whose stratum is present (nonempty) in the
    model; these index the pieces of the closure of the stratum on ``subset``."""
    key = _check_subset(model, subset)
    return {s.components for s in model.strata if key <= s.components}


# ---------------------------------------------------------------------------
# JSON document form

_encode_str = json.encoder.encode_basestring_ascii  # the encoder json.dumps uses
_encode_int = int.__repr__  # as json.dumps does; repr(True) would be 'True'
_PAD = tuple("\n" + "  " * depth for depth in range(7))  # indent=2, depth 0..6
_SEP = tuple("," + pad for pad in _PAD)
# one item of the strata array, at depth 3; a valid model has no empty
# subset and no zero class, so neither inner array is ever written "[]"
_STRATUM = "".join(("{", _PAD[3], '"components": [', _PAD[4], "%s", _PAD[3], "],",
                    _PAD[3], '"class": [', _PAD[4], "%s", _PAD[3], "]", _PAD[2], "}"))

# the key set of a stratum item, comparable with the keys of any dict
_STRATUM_KEYS = dict.fromkeys(("components", "class")).keys()


def _fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _rational_field(term: dict, key: str, where: str) -> Fraction:
    """``term[key]``, a string ``<int>`` or ``<int>/<int>`` as ``save_model``
    writes it, with at most ``MAX_INT_DIGITS`` digits per part, a nonzero
    denominator and a value that converts to a finite float.  The digits
    are checked before any number is built, so a field costs time in its
    length only."""
    from fractions import Fraction

    text = term[key]
    parts = text.removeprefix("-").split("/") if isinstance(text, str) else []
    if not 1 <= len(parts) <= 2 or not all(p.isascii() and p.isdigit() for p in parts):
        problem = "must be a string '<int>' or '<int>/<int>'"
    elif max(map(len, parts)) > MAX_INT_DIGITS:
        problem = f"has more than {MAX_INT_DIGITS} digits"
    elif len(parts) == 2 and not int(parts[1]):
        problem = "has a zero denominator"
    else:
        value = Fraction(*map(int, text.split("/")))
        try:
            float(value)
            return value
        except OverflowError:
            problem = "is too large for a float"
    raise ModelParseError(f"field {key!r} {problem}", where=where)


def parse_json(text: str):
    """``json.loads``, with every failure raised as ``ModelParseError``.
    Decode errors carry the line and column.  Nesting too deep for the
    parser's recursion, and an integer with more digits than the
    interpreter converts from text (``sys.get_int_max_str_digits``), are
    reported without a position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ModelParseError("arrays or objects nested too deeply") from None
    except ValueError as exc:  # the integer digit limit; its advice part is dropped
        raise ModelParseError(str(exc).split(";")[0]) from None


def require_keys(obj: dict, required: Sequence[str], optional: Sequence[str], where: str):
    """Require ``obj`` to be an object holding every required key and no key
    outside ``required`` and ``optional``."""
    if not isinstance(obj, dict):
        raise ModelParseError(f"expected an object, got {type(obj).__name__}", where=where)
    missing = [k for k in required if k not in obj]
    if missing:
        raise ModelParseError(f"missing fields {missing}", where=where)
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise ModelParseError(f"unknown fields {unknown}", where=where)


def int_field(obj: dict, key: str, where: str) -> int:
    """The integer (not boolean) value of ``obj[key]``."""
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelParseError(f"field {key!r} must be an integer", where=where)
    return value


def id_list_field(obj: dict, key: str, where: str) -> list[str]:
    """The value of ``obj[key]``, which must be a list of component ids."""
    value = obj[key]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ModelParseError(f"field {key!r} must be a list of ids", where=where)
    return value


def class_field(value, where: str) -> LefschetzPoly:
    """A stratum class given as its list of integer coefficients."""
    if not isinstance(value, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in value
    ):
        raise ModelParseError("field 'class' must be a list of integers", where=where)
    return LefschetzPoly(value)


def _unit_from_json(value, where: str) -> UnitPoly:
    if not isinstance(value, list):
        raise ModelParseError("field 'unit' must be a list of terms", where=where)
    terms: dict[tuple[int, ...], tuple[Fraction, Fraction]] = {}
    for i, term in enumerate(value):
        twhere = f"{where}.unit[{i}]"
        require_keys(term, ("re", "im", "exponents"), (), twhere)
        exponents = term["exponents"]
        if not isinstance(exponents, list) or not all(
            type(e) is int and e >= 0 for e in exponents
        ):
            raise ModelParseError("'exponents' must be a list of integers >= 0", where=twhere)
        exponents = tuple(exponents)
        if exponents in terms:
            raise ModelParseError(f"duplicate exponent tuple {exponents}", where=twhere)
        terms[exponents] = (_rational_field(term, "re", twhere),
                            _rational_field(term, "im", twhere))
    return UnitPoly(terms)


def _strata_well_formed(items: list) -> bool:
    """Whether every stratum item passes ``require_keys``, ``id_list_field``
    and ``class_field``, decided in C-level passes over the whole list.

    Values from ``json.loads`` have exact types (a ``bool`` is never an
    ``int`` here), so this is true exactly when the per-field checks pass."""
    if not (set(map(type, items)) <= {dict}
            and all(map(_STRATUM_KEYS.__eq__, map(dict.keys, items)))):
        return False
    ids = list(map(dict.__getitem__, items, repeat("components")))
    classes = list(map(dict.__getitem__, items, repeat("class")))
    return (set(map(type, ids)) <= {list} and set(map(type, classes)) <= {list}
            and set(map(type, chain.from_iterable(ids))) <= {str}
            and set(map(type, chain.from_iterable(classes))) <= {int})


def load_model(text: str) -> NCModel:
    """Parse a model document.  Parse and schema problems raise
    ``ModelParseError``; a well-formed document that breaks an invariant
    raises ``InvalidModelError`` from the ``NCModel`` it builds."""
    doc = parse_json(text)
    require_keys(doc, ("ambient_dim", "mode", "components", "strata"), ("charts",), "document")
    if not isinstance(doc["mode"], str):
        raise ModelParseError("field 'mode' must be a string", where="document")

    components = []
    if not isinstance(doc["components"], list):
        raise ModelParseError("field 'components' must be a list", where="document")
    for i, item in enumerate(doc["components"]):
        where = f"components[{i}]"
        require_keys(item, ("id", "multiplicity"), (), where)
        if not isinstance(item["id"], str):
            raise ModelParseError("field 'id' must be a string", where=where)
        components.append(Component(item["id"], int_field(item, "multiplicity", where)))

    items = doc["strata"]
    if not isinstance(items, list):
        raise ModelParseError("field 'strata' must be a list", where="document")
    if not _strata_well_formed(items):
        # the per-field checkers raise at the first bad stratum, with its locator
        for i, item in enumerate(items):
            where = f"strata[{i}]"
            require_keys(item, ("components", "class"), (), where)
            id_list_field(item, "components", where)
            class_field(item["class"], where)
    strata = map(Stratum, map(dict.__getitem__, items, repeat("components")),
                 map(LefschetzPoly.from_checked, map(dict.__getitem__, items, repeat("class"))))

    chart_items = doc.get("charts", [])
    if not isinstance(chart_items, list):
        raise ModelParseError("field 'charts' must be a list", where="document")
    charts = []
    for i, item in enumerate(chart_items):
        where = f"charts[{i}]"
        require_keys(item, ("dim", "divisor_coords", "unit"), (), where)
        raw = item["divisor_coords"]
        if not isinstance(raw, dict):
            raise ModelParseError("'divisor_coords' must be an object", where=where)
        coords: dict[int, str] = {}
        for k, v in raw.items():
            try:
                idx = int(k)
            except ValueError:
                raise ModelParseError(f"bad coordinate index {k!r}", where=where) from None
            if not isinstance(v, str):
                raise ModelParseError("component ids must be strings", where=where)
            if idx in coords:
                raise ModelParseError(f"duplicate coordinate index {idx}", where=where)
            coords[idx] = v
        charts.append(Chart(int_field(item, "dim", where), coords,
                            _unit_from_json(item["unit"], where)))

    return NCModel(int_field(doc, "ambient_dim", "document"), doc["mode"],
                   components, strata, charts)


def _layout(encoded: Iterable[str], depth: int, brackets: str = "[]") -> str:
    """Already-encoded items (array values, or ``"key": value`` members) in
    the layout of ``json.dumps(indent=2)``, one per line, ``depth`` levels in."""
    body = _SEP[depth].join(encoded)
    if not body:  # no encoded item is the empty string
        return brackets
    return brackets[0] + _PAD[depth] + body + _PAD[depth - 1] + brackets[1]


def _chart_json(chart: Chart) -> str:
    coords = (f"{_encode_str(str(k))}: {_encode_str(v)}" for k, v in chart.divisor_coords)
    terms = (
        _layout((
            '"re": ' + _encode_str(_fraction_to_str(re)),
            '"im": ' + _encode_str(_fraction_to_str(im)),
            '"exponents": ' + _layout(map(_encode_int, exponents), 6),
        ), 5, "{}")
        for exponents, (re, im) in sorted(chart.unit.terms.items())
    )
    return _layout((
        '"dim": ' + _encode_int(chart.dim),
        '"divisor_coords": ' + _layout(coords, 4, "{}"),
        '"unit": ' + _layout(terms, 4),
    ), 3, "{}")


def save_model(model: NCModel) -> str:
    """Serialize to the JSON document form; load(save(m)) == m bit-exactly.

    The text is written directly in the layout of ``json.dumps(doc,
    indent=2)`` and equals it byte for byte whenever every integer field is
    an exact ``int``; a ``bool`` in an integer field is written as ``1`` or
    ``0``, so it reads back as the integer it stands for.  The keys are
    ASCII names, so they are written already encoded."""
    # each component id and each distinct class is encoded once (strata share
    # classes: every corner of a surface is a point, of class 1); the raw ids
    # are sorted, since an escape changes the order: U+00E9 sorts after "z",
    # but "\u00e9" before it
    encoded = {c.id: _encode_str(c.id) for c in model.components}.__getitem__
    join = _SEP[4].join
    coeffs = list(map(_poly_coeffs, map(_stratum_cls, model.strata)))
    class_text = {c: join(map(_encode_int, c)) for c in set(coeffs)}.__getitem__
    strata = [_STRATUM % (join(map(encoded, sorted(ids))), class_text(c))
              for ids, c in zip(map(_stratum_ids, model.strata), coeffs)]
    members = [
        '"ambient_dim": ' + _encode_int(model.ambient_dim),
        '"mode": ' + _encode_str(model.mode),
        '"components": ' + _layout((
            _layout(('"id": ' + _encode_str(c.id),
                     '"multiplicity": ' + _encode_int(c.multiplicity)), 3, "{}")
            for c in model.components), 2),
        '"strata": ' + _layout(strata, 2),
    ]
    if model.charts:
        members.append('"charts": ' + _layout(map(_chart_json, model.charts), 2))
    return _layout(members, 1, "{}") + "\n"


# ---------------------------------------------------------------------------
# built-in examples

def _monomial_chart(dim: int, coords: Mapping[int, str]) -> Chart:
    return Chart(dim, coords, UnitPoly.constant(1))


def smooth_model() -> NCModel:
    """f = x on C^2, tracked at the origin."""
    return NCModel(
        ambient_dim=2,
        mode=LOCAL,
        components=[Component("x", 1)],
        strata=[Stratum({"x"}, ONE)],
        charts=[_monomial_chart(2, {0: "x"})],
    )


def power_model(exponent: int) -> NCModel:
    """f = x^N on C, tracked at the origin."""
    if exponent < 1:
        raise ModelError(f"power exponent must be >= 1, got {exponent}")
    return NCModel(
        ambient_dim=1,
        mode=LOCAL,
        components=[Component("x", exponent)],
        strata=[Stratum({"x"}, ONE)],
        charts=[_monomial_chart(1, {0: "x"})],
    )


def two_axes_model(a: int, b: int) -> NCModel:
    """f = x^a y^b on C^2, tracked at the origin.

    Only the corner stratum meets the origin, so the single-component strata
    are absent in local mode.
    """
    if a < 1 or b < 1:
        raise ModelError(f"axis multiplicities must be >= 1, got ({a}, {b})")
    return NCModel(
        ambient_dim=2,
        mode=LOCAL,
        components=[Component("x", a), Component("y", b)],
        strata=[Stratum({"x", "y"}, ONE)],
        charts=[_monomial_chart(2, {0: "x", 1: "y"})],
    )


def cusp_resolved_model() -> NCModel:
    """The standard three-blow-up resolution of x^2 + y^3 at the origin.

    Multiplicities of the exceptional curves are 2, 3, 6 in order of
    appearance, and the strict transform has multiplicity 1.  The last
    curve meets each of the other three components once and those are the
    only intersections, so over the origin the open parts of the first two
    curves are affine lines (class L), the last curve minus three points has
    class L - 2, the strict transform contributes no open local stratum,
    and each corner is a point.
    """
    line = LefschetzPoly((0, 1))
    return NCModel(
        ambient_dim=2,
        mode=LOCAL,
        components=[
            Component("e2", 2),
            Component("e3", 3),
            Component("e6", 6),
            Component("st", 1),
        ],
        strata=[
            Stratum({"e2"}, line),
            Stratum({"e3"}, line),
            Stratum({"e6"}, LefschetzPoly((-2, 1))),
            Stratum({"e2", "e6"}, ONE),
            Stratum({"e3", "e6"}, ONE),
            Stratum({"st", "e6"}, ONE),
        ],
    )


def builtin_example(name: str) -> NCModel:
    """Return a built-in model by name.

    Names: ``smooth``, ``xy``, ``cusp_resolved``, ``power_<N>`` and
    ``xa_yb_<a>_<b>`` (for example ``power_3`` or ``xa_yb_2_3``).
    """
    if name == "smooth":
        model = smooth_model()
    elif name == "xy":
        model = two_axes_model(1, 1)
    elif name == "cusp_resolved":
        model = cusp_resolved_model()
    elif name.startswith("power_"):
        try:
            exponent = int(name[len("power_"):])
        except ValueError:
            raise ModelError(f"bad power example name {name!r}") from None
        model = power_model(exponent)
    elif name.startswith("xa_yb_"):
        try:
            a, b = (int(part) for part in name[len("xa_yb_"):].split("_"))
        except ValueError:
            raise ModelError(f"bad two-axes example name {name!r}") from None
        model = two_axes_model(a, b)
    else:
        raise ModelError(f"unknown example {name!r}")
    return model


BUILTIN_NAMES = ("smooth", "xy", "cusp_resolved", "power_<N>", "xa_yb_<a>_<b>")
