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

The on-disk form is a strict JSON document (unknown fields rejected), see
``load_model`` / ``save_model``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .ring import ZERO, LefschetzPoly

GLOBAL = "global"
LOCAL = "local"

#: Largest accepted ``ambient_dim``.  Class degrees, stratum sizes and
#: blow-up codimensions are bounded by the ambient dimension, so this one
#: limit bounds every dense class the package builds from a document.
MAX_AMBIENT_DIM = 4096


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


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with a locator into the offending datum."""

    where: str
    problem: str

    def __str__(self) -> str:
        return f"{self.where}: {self.problem}"


@dataclass(frozen=True)
class Component:
    """A divisor component: an id token and the vanishing order of f along it."""

    id: str
    multiplicity: int


@dataclass(frozen=True)
class Stratum:
    """An open stratum: the component subset and its class in Z[L]."""

    components: frozenset[str]
    cls: LefschetzPoly

    def __init__(self, components: Iterable[str], cls: LefschetzPoly):
        object.__setattr__(self, "components", frozenset(components))
        object.__setattr__(self, "cls", cls)


class UnitPoly:
    """Multivariate polynomial with exact Gaussian-rational coefficients.

    Terms map an exponent tuple (one entry per chart coordinate) to a
    coefficient (re, im) pair of Fractions.  Evaluation is done in complex
    double precision; the exact coefficients exist so that models serialize
    reproducibly and charts compare bit-exactly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], tuple[Fraction, Fraction]]):
        cleaned = {}
        for exponents, (re, im) in dict(terms).items():
            exponents = tuple(int(e) for e in exponents)
            if any(e < 0 for e in exponents):
                raise ModelError(f"negative exponent in unit term {exponents}")
            re, im = Fraction(re), Fraction(im)
            if re != 0 or im != 0:
                cleaned[exponents] = (re, im)
        object.__setattr__(self, "terms", dict(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("UnitPoly is immutable")

    @staticmethod
    def constant(re, im=0) -> "UnitPoly":
        return UnitPoly({(): (Fraction(re), Fraction(im))})

    @property
    def arity(self) -> int:
        return max((len(e) for e in self.terms), default=0)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, UnitPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(("UnitPoly", tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        return f"UnitPoly({self.terms!r})"


@dataclass(frozen=True)
class Chart:
    """A numeric chart: which coordinates cut out which components, plus the
    unit factor of f in these coordinates.  ``divisor_coords`` maps a
    coordinate index (< dim) to a component id."""

    dim: int
    divisor_coords: Mapping[int, str]
    unit: UnitPoly

    def __init__(self, dim: int, divisor_coords: Mapping[int, str], unit: UnitPoly):
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "divisor_coords",
                           tuple(sorted((int(k), str(v)) for k, v in dict(divisor_coords).items())))
        object.__setattr__(self, "unit", unit)

    def coords(self) -> dict[int, str]:
        return dict(self.divisor_coords)


@dataclass(frozen=True)
class NCModel:
    """Components, strata and charts of a normal-crossing model.

    The instance is immutable, so its lookups are indexed once, at
    construction: ``multiplicity`` and ``stratum_class`` are dict lookups.
    Where an invalid model repeats a component id or a stratum subset, the
    first entry wins.  Validity is memoised too: ``require_valid`` runs
    ``validate`` on the first call for an instance and reuses its verdict,
    failure included, on every later call.  Equality compares the five
    fields only.
    """

    ambient_dim: int
    mode: str
    components: tuple[Component, ...]
    strata: tuple[Stratum, ...]
    charts: tuple[Chart, ...] = ()

    def __init__(self, ambient_dim: int, mode: str, components: Iterable[Component],
                 strata: Iterable[Stratum], charts: Iterable[Chart] = ()):
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "mode", str(mode))
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "strata", tuple(strata))
        object.__setattr__(self, "charts", tuple(charts))
        multiplicities: dict[str, int] = {}
        for c in self.components:
            multiplicities.setdefault(c.id, c.multiplicity)
        classes: dict[frozenset[str], LefschetzPoly] = {}
        for s in self.strata:
            classes.setdefault(s.components, s.cls)
        object.__setattr__(self, "_multiplicities", multiplicities)
        object.__setattr__(self, "_classes", classes)
        # violations found by the first require_valid call; None until then
        object.__setattr__(self, "_violations", None)

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


# ---------------------------------------------------------------------------
# validation

def validate(model: NCModel) -> list[Violation]:
    """Check every invariant; the returned list is empty iff the model is valid."""
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
        if comp.multiplicity < 1:
            out.append(Violation(where, f"multiplicity must be >= 1, got {comp.multiplicity}"))

    seen_subsets: set[frozenset[str]] = set()
    for idx, stratum in enumerate(model.strata):
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


def require_valid(model: NCModel) -> NCModel:
    """Return ``model`` if it is valid, else raise ``InvalidModelError``.
    ``validate`` runs once per instance; later calls reuse its result."""
    violations = model._violations
    if violations is None:
        violations = tuple(validate(model))
        object.__setattr__(model, "_violations", violations)
    if violations:
        raise InvalidModelError(violations)
    return model


def _check_subset(model: NCModel, subset: Iterable[str]) -> frozenset[str]:
    key = frozenset(subset)
    known = set(model.component_ids())
    unknown = key - known
    if unknown:
        raise UnknownComponentError(f"unknown component ids {sorted(unknown)}")
    return key


# ---------------------------------------------------------------------------
# census of the complete space over a stratum

TOP = "top"
MOT = "mot"
MIXED = "mixed"


@dataclass(frozen=True)
class CensusPiece:
    """One piece of the fibre decomposition over a stratum: the components
    held at finite radius, the resulting product shape, and its tag."""

    finite: tuple[str, ...]
    shape: str
    tag: str


@dataclass(frozen=True)
class CensusRecord:
    subset: tuple[str, ...]
    pieces: tuple[CensusPiece, ...]

    @property
    def mixed_count(self) -> int:
        return sum(1 for p in self.pieces if p.tag == MIXED)


def census(model: NCModel, subset: Iterable[str]) -> CensusRecord:
    """Decompose the fibre of the complete space over the stratum on ``subset``.

    Each component direction contributes a factor ((0, +inf] x S^1); the
    2^|J| pieces are labelled by the set A of directions held at finite
    radius.  A = J is the algebraic piece (a torus, tagged "mot"), A = empty
    the boundary piece (tagged "top"), everything else is mixed.
    """
    key = _check_subset(model, subset)
    if not key:
        raise ModelError("census subset must be nonempty")
    ordered = tuple(sorted(key))
    pieces: list[CensusPiece] = []

    def piece(finite: tuple[str, ...]) -> CensusPiece:
        fin = set(finite)
        shape = " x ".join("C*" if cid in fin else "S^1" for cid in ordered)
        tag = MOT if len(fin) == len(ordered) else TOP if not fin else MIXED
        return CensusPiece(finite, shape, tag)

    pieces.append(piece(()))
    pieces.append(piece(ordered))
    for mask in range(1, 2 ** len(ordered) - 1):
        finite = tuple(cid for i, cid in enumerate(ordered) if mask >> i & 1)
        pieces.append(piece(finite))
    # deterministic order: top, mot, then mixed by size and id order
    head, tail = pieces[:2], sorted(pieces[2:], key=lambda p: (len(p.finite), p.finite))
    return CensusRecord(ordered, tuple(head + tail))


def closure_strata(model: NCModel, subset: Iterable[str]) -> set[frozenset[str]]:
    """Supersets K of ``subset`` whose stratum is present (nonempty) in the
    model; these index the pieces of the closure of the stratum on ``subset``."""
    key = _check_subset(model, subset)
    return {s.components for s in model.strata if key <= s.components}


# ---------------------------------------------------------------------------
# JSON document form

def _fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _fraction_from_str(text: str, where: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelParseError(f"bad rational {text!r}: {exc}", where=where) from None


def parse_json(text: str):
    """``json.loads``, with decode errors raised as ``ModelParseError``
    carrying the line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(exc.msg, line=exc.lineno, column=exc.colno) from None


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
        if not isinstance(term["exponents"], list):
            raise ModelParseError("'exponents' must be a list", where=twhere)
        exponents = tuple(term["exponents"])
        if exponents in terms:
            raise ModelParseError(f"duplicate exponent tuple {exponents}", where=twhere)
        terms[exponents] = (
            _fraction_from_str(term["re"], twhere),
            _fraction_from_str(term["im"], twhere),
        )
    try:
        return UnitPoly(terms)
    except ModelError as exc:
        raise ModelParseError(str(exc), where=where) from None


def load_model(text: str, check: bool = True) -> NCModel:
    """Parse a model document.  With ``check`` (the default), invariant
    violations raise ``InvalidModelError``; parse and schema problems raise
    ``ModelParseError`` regardless."""
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

    strata = []
    if not isinstance(doc["strata"], list):
        raise ModelParseError("field 'strata' must be a list", where="document")
    for i, item in enumerate(doc["strata"]):
        where = f"strata[{i}]"
        require_keys(item, ("components", "class"), (), where)
        strata.append(Stratum(id_list_field(item, "components", where),
                              class_field(item["class"], where)))

    charts = []
    for i, item in enumerate(doc.get("charts", [])):
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

    model = NCModel(int_field(doc, "ambient_dim", "document"), doc["mode"],
                    components, strata, charts)
    if check:
        require_valid(model)
    return model


def save_model(model: NCModel) -> str:
    """Serialize to the JSON document form; load(save(m)) == m bit-exactly."""
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
                        "re": _fraction_to_str(re),
                        "im": _fraction_to_str(im),
                        "exponents": list(exponents),
                    }
                    for exponents, (re, im) in sorted(chart.unit.terms.items())
                ],
            }
            for chart in model.charts
        ]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# built-in examples

def _one() -> LefschetzPoly:
    return LefschetzPoly.one()


def _monomial_chart(dim: int, coords: Mapping[int, str]) -> Chart:
    return Chart(dim, coords, UnitPoly.constant(1))


def smooth_model() -> NCModel:
    """f = x on C^2, tracked at the origin."""
    return NCModel(
        ambient_dim=2,
        mode=LOCAL,
        components=[Component("x", 1)],
        strata=[Stratum({"x"}, _one())],
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
        strata=[Stratum({"x"}, _one())],
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
        strata=[Stratum({"x", "y"}, _one())],
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
    one = _one()
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
            Stratum({"e2", "e6"}, one),
            Stratum({"e3", "e6"}, one),
            Stratum({"st", "e6"}, one),
        ],
    )


def builtin_example(name: str) -> NCModel:
    """Return a validated built-in model by name.

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
            model = power_model(int(name[len("power_"):]))
        except ValueError:
            raise ModelError(f"bad power example name {name!r}") from None
    elif name.startswith("xa_yb_"):
        try:
            a, b = (int(part) for part in name[len("xa_yb_"):].split("_"))
        except ValueError:
            raise ModelError(f"bad two-axes example name {name!r}") from None
        model = two_axes_model(a, b)
    else:
        raise ModelError(f"unknown example {name!r}")
    return require_valid(model)


BUILTIN_NAMES = ("smooth", "xy", "cusp_resolved", "power_<N>", "xa_yb_<a>_<b>")
