"""Blowing up a normal-crossing model along a combinatorial centre.

A centre is described by the components containing it (``containing``, all
of whose multiplicities it inherits), the components meeting it transversally
(``transverse``), its codimension, and the classes of its intersections with
the strata it touches.  ``apply_blowup`` produces the transformed model:

* a new component for the exceptional divisor, with multiplicity equal to
  the sum of the multiplicities of the containing components;

* for every touched stratum piece (indexed by a transverse subset R) and
  every subset Q of the containing set, a new stratum on
  {exceptional} + Q + R whose class is the centre-piece class times the
  class of the matching locus in the exceptional projective fibre
  (``exceptional_fibre_strata``);

* every old stratum loses the class of its intersection with the centre.

``check_invariance`` then compares the three realizations that must agree
before and after (zeta factorization, fibre Euler number, absolute class)
and also reports the keyed delta, which is generally nonzero.

``telescoping_check`` verifies the alternating-sum mechanism that makes the
invariance work, symbolically in a free abelian group on two generators.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping

from .milnor import absolute_from_keyed, acampo_zeta, keyed_class, milnor_fibre_euler
from .model import (
    Component,
    InvalidModelError,
    ModelParseError,
    NCModel,
    Stratum,
    Violation,
    class_field,
    id_list_field,
    int_field,
    parse_json,
    require_keys,
    require_valid,
)
from .ring import KeyedClass, LefschetzPoly, ZetaFactorization, zeta_equal


class CenterSpec:
    """Combinatorial data of a blow-up centre.

    ``center_strata`` maps each transverse subset R (a frozenset drawn from
    ``transverse``) to the class of the centre's intersection with the
    stratum on ``containing + R``.  Subsets with empty intersection are
    simply omitted.  In a local-mode model these classes are classes over
    the tracked point, so a centre outside the tracked locus has no legal
    description: every listed piece must hit a present stratum.
    """

    __slots__ = ("containing", "transverse", "codim", "center_strata", "new_component_id")

    def __init__(self, containing: Iterable[str], transverse: Iterable[str], codim: int,
                 center_strata: Mapping, new_component_id: str):
        object.__setattr__(self, "containing", frozenset(containing))
        object.__setattr__(self, "transverse", frozenset(transverse))
        object.__setattr__(self, "codim", int(codim))
        cleaned = {}
        for subset, cls in dict(center_strata).items():
            key = frozenset(subset)
            if key in cleaned:
                raise InvalidModelError(
                    [Violation("center_strata", f"duplicate subset {sorted(key)}")])
            if not cls.is_zero:
                cleaned[key] = cls
        object.__setattr__(self, "center_strata", cleaned)
        object.__setattr__(self, "new_component_id", str(new_component_id))

    def __setattr__(self, name, value):
        raise AttributeError("CenterSpec is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CenterSpec)
            and self.containing == other.containing
            and self.transverse == other.transverse
            and self.codim == other.codim
            and self.center_strata == other.center_strata
            and self.new_component_id == other.new_component_id
        )

    def __repr__(self) -> str:
        return (f"CenterSpec(containing={sorted(self.containing)}, "
                f"transverse={sorted(self.transverse)}, codim={self.codim}, "
                f"new_component_id={self.new_component_id!r})")


def point_center(model_component_ids: Iterable[str], codim: int,
                 new_component_id: str = "E") -> CenterSpec:
    """Centre consisting of one point on the stratum cut out by exactly the
    given components (a frequent test case)."""
    return CenterSpec(
        containing=model_component_ids,
        transverse=(),
        codim=codim,
        center_strata={frozenset(): LefschetzPoly.one()},
        new_component_id=new_component_id,
    )


def validate_center(model: NCModel, center: CenterSpec) -> list[Violation]:
    """Centre invariants relative to a model; empty list means admissible."""
    out: list[Violation] = []
    known = set(model.component_ids())
    k_size = len(center.containing)

    if not center.containing:
        out.append(Violation("center.containing", "must be nonempty"))
    for cid in sorted((center.containing | center.transverse) - known):
        out.append(Violation("center", f"unknown component id {cid!r}"))
    if center.containing & center.transverse:
        out.append(Violation(
            "center", f"containing and transverse overlap: "
                      f"{sorted(center.containing & center.transverse)}"))
    if center.codim < max(k_size, 1):
        out.append(Violation(
            "center.codim", f"must be >= |containing| = {k_size}, got {center.codim}"))
    if center.codim > model.ambient_dim:
        out.append(Violation(
            "center.codim", f"exceeds ambient_dim {model.ambient_dim}"))
    if center.new_component_id in known:
        out.append(Violation(
            "center.new_component_id", f"{center.new_component_id!r} already in use"))
    if not center.center_strata:
        out.append(Violation("center.center_strata", "centre has no nonzero stratum class"))

    center_dim = model.ambient_dim - center.codim
    for subset, cls in sorted(center.center_strata.items(), key=lambda kv: sorted(kv[0])):
        where = f"center_strata[{{{', '.join(sorted(subset))}}}]"
        if not subset <= center.transverse:
            out.append(Violation(where, "subset not contained in the transverse set"))
            continue
        ambient = model.stratum_class(center.containing | subset)
        if ambient.is_zero:
            out.append(Violation(
                where,
                "no such stratum in the model (in local mode this means the "
                "centre leaves the tracked locus)"))
            continue
        if cls.degree > ambient.degree:
            out.append(Violation(
                where, f"class degree {cls.degree} exceeds ambient stratum degree "
                       f"{ambient.degree}"))
        if cls.degree > center_dim - len(subset):
            out.append(Violation(
                where, f"class degree {cls.degree} exceeds centre-piece dimension "
                       f"{center_dim - len(subset)}"))
    return out


def exceptional_fibre_strata(codim: int, contained: int, vanishing: int) -> LefschetzPoly:
    """Class of one stratum piece of the exceptional projective fibre.

    In the projective space of dimension codim - 1 attached to a centre
    lying on ``contained`` divisor components, the piece where a chosen set
    of ``vanishing`` of those coordinates is zero and the remaining
    contained coordinates are nonzero has class

        L^m * (L-1)^(contained - vanishing - 1)      if vanishing < contained
        1 + L + ... + L^(m-1)                         if vanishing = contained

    with m = codim - contained free coordinates.  The second case is the
    projective space of the free coordinates, empty when m = 0 (blowing up
    the full intersection leaves no deepest exceptional stratum).
    """
    if not 1 <= contained <= codim:
        raise ValueError(f"need 1 <= contained <= codim, got {contained}, {codim}")
    if not 0 <= vanishing <= contained:
        raise ValueError(f"need 0 <= vanishing <= contained, got {vanishing}")
    m = codim - contained
    if vanishing < contained:
        return LefschetzPoly.monomial(m) * LefschetzPoly((-1, 1)) ** (contained - vanishing - 1)
    return LefschetzPoly((1,) * m)


def _subsets(items: Iterable[str]) -> list[frozenset[str]]:
    ordered = sorted(items)
    return [
        frozenset(x for i, x in enumerate(ordered) if mask >> i & 1)
        for mask in range(2 ** len(ordered))
    ]


def apply_blowup(model: NCModel, center: CenterSpec) -> NCModel:
    """Transform the model by blowing up the centre.  The result is validated.

    A warning is emitted when subtracting a centre class leaves a stratum
    class with negative leading coefficient, which no variety class has;
    that normally indicates inconsistent input data.
    """
    require_valid(model)
    problems = validate_center(model, center)
    if problems:
        raise InvalidModelError(problems)

    k_ids = center.containing
    exceptional_multiplicity = sum(model.multiplicity(cid) for cid in sorted(k_ids))
    components = model.components + (Component(center.new_component_id,
                                               exceptional_multiplicity),)

    strata: list[Stratum] = []
    for stratum in model.strata:
        rest = stratum.components - k_ids
        if k_ids <= stratum.components and rest <= center.transverse:
            removed = center.center_strata.get(rest, LefschetzPoly.zero())
            new_cls = stratum.cls - removed
            if not removed.is_zero and new_cls and new_cls.leading_coefficient() < 0:
                warnings.warn(
                    f"stratum {{{', '.join(sorted(stratum.components))}}}: class minus "
                    f"centre class has negative leading coefficient; "
                    f"check the centre data", stacklevel=2)
            if new_cls:
                strata.append(Stratum(stratum.components, new_cls))
        else:
            strata.append(stratum)

    q_subsets = _subsets(k_ids)
    # the fibre class depends on |Q| only
    fibres = [exceptional_fibre_strata(center.codim, len(k_ids), size)
              for size in range(len(k_ids) + 1)]
    for rest, centre_cls in sorted(center.center_strata.items(), key=lambda kv: sorted(kv[0])):
        # so is the exceptional class: one product per (R, |Q|)
        pieces = [centre_cls * fibre for fibre in fibres]
        for q_subset in q_subsets:
            cls = pieces[len(q_subset)]
            if cls:
                strata.append(Stratum(
                    {center.new_component_id} | q_subset | rest, cls))

    # chart data describes the old coordinates and does not transform
    return require_valid(NCModel(model.ambient_dim, model.mode, components, strata))


@dataclass(frozen=True)
class InvarianceReport:
    """Before/after comparison of the blow-up-invariant realizations, plus
    the keyed delta (after minus before), which may legitimately be nonzero."""

    zeta_before: ZetaFactorization
    zeta_after: ZetaFactorization
    euler_before: int
    euler_after: int
    absolute_before: LefschetzPoly
    absolute_after: LefschetzPoly
    keyed_before: KeyedClass
    keyed_after: KeyedClass

    @property
    def zeta_invariant(self) -> bool:
        return zeta_equal(self.zeta_before, self.zeta_after)

    @property
    def euler_invariant(self) -> bool:
        return self.euler_before == self.euler_after

    @property
    def absolute_invariant(self) -> bool:
        return self.absolute_before == self.absolute_after

    @property
    def all_invariant(self) -> bool:
        return self.zeta_invariant and self.euler_invariant and self.absolute_invariant

    @property
    def keyed_delta(self) -> KeyedClass:
        return self.keyed_after - self.keyed_before


def check_invariance(model: NCModel, center: CenterSpec) -> InvarianceReport:
    """Blow up and compare the realizations exactly."""
    transformed = apply_blowup(model, center)
    keyed_before = keyed_class(model)
    keyed_after = keyed_class(transformed)
    return InvarianceReport(
        zeta_before=acampo_zeta(model),
        zeta_after=acampo_zeta(transformed),
        euler_before=milnor_fibre_euler(model),
        euler_after=milnor_fibre_euler(transformed),
        absolute_before=absolute_from_keyed(keyed_before),
        absolute_after=absolute_from_keyed(keyed_after),
        keyed_before=keyed_before,
        keyed_after=keyed_after,
    )


def telescoping_check(k: int) -> bool:
    """Verify the alternating-sum collapse behind blow-up invariance.

    Work in the free abelian group on two symbols A and B, where A stands
    for the class of the torus bundle times the full normal space of the
    centre inside the deepest divisor intersection, and B for the torus
    bundle class alone.  Summing over the 2^k subsets Q of a k-element set
    with signs (-1)^(|Q|+1), where every proper subset contributes A and the
    full subset contributes A - B, must leave no A and exactly (-1)^k B.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    coeff_a = 0
    coeff_b = 0
    for q in range(k + 1):
        sign = (-1) ** (q + 1)
        count = comb(k, q)
        coeff_a += sign * count
        if q == k:
            coeff_b += -sign  # the full subset contributes A - B
    return coeff_a == 0 and coeff_b == (-1) ** k


# ---------------------------------------------------------------------------
# JSON document form for centres

def load_center(text: str) -> CenterSpec:
    """Parse a centre document: {"K": [...], "L": [...], "codim": n,
    "new_component_id": "...", "center_strata": [{"R": [...], "class": [...]}]}."""
    doc = parse_json(text)
    require_keys(doc, ("K", "L", "codim", "new_component_id", "center_strata"), (), "center")
    containing = id_list_field(doc, "K", "center")
    transverse = id_list_field(doc, "L", "center")
    codim = int_field(doc, "codim", "center")
    if not isinstance(doc["new_component_id"], str):
        raise ModelParseError("field 'new_component_id' must be a string", where="center")
    if not isinstance(doc["center_strata"], list):
        raise ModelParseError("field 'center_strata' must be a list", where="center")
    pieces = {}
    for i, item in enumerate(doc["center_strata"]):
        where = f"center_strata[{i}]"
        require_keys(item, ("R", "class"), (), where)
        key = frozenset(id_list_field(item, "R", where))
        cls = class_field(item["class"], where)
        if key in pieces:
            raise ModelParseError(f"duplicate subset {sorted(key)}", where=where)
        pieces[key] = cls
    return CenterSpec(containing, transverse, codim, pieces, doc["new_component_id"])


def save_center(center: CenterSpec) -> str:
    doc = {
        "K": sorted(center.containing),
        "L": sorted(center.transverse),
        "codim": center.codim,
        "new_component_id": center.new_component_id,
        "center_strata": [
            {"R": sorted(subset), "class": list(cls.coeffs)}
            for subset, cls in sorted(center.center_strata.items(),
                                      key=lambda kv: sorted(kv[0]))
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
