"""Milnor-fibre invariants of a normal-crossing model.

Over each nonempty stratum the punctured normal directions form a torus
bundle, and the signed sum of these bundles over all strata is the motivic
incarnation of the Milnor fibre.  This module computes that sum and the
realizations of it that the package can compare exactly:

* ``motivic_terms``: the raw term list, one per present stratum, carrying
  the sign (-1)^(|J|+1), the monodromy order gcd(N_i, i in J), the stratum
  class, and the torus exponent |J| - 1.

* ``naive_absolute_class``: the equivariance-forgetting realization
  sum (-1)^(|J|+1) * [stratum] * (L-1)^|J| in Z[L].  Blow-up invariant.

* ``keyed_class``: terms grouped by monodromy order, each contributing
  (-1)^(|J|+1) * [stratum] * (L-1)^(|J|-1).  NOT blow-up invariant: the
  key records covering data that a blow-up reshuffles, and only the ring
  relations (which this representation deliberately does not implement)
  would identify the results.  Treat it as a diagnostic.

  Sign and torus factor depend on |J| only, and the key on the
  multiplicities only, so by distributivity

      keyed[order] = sum over sizes s of
                     (-1)^(s+1) * (L-1)^(s-1) * sum of [stratum_J]
                     over J with |J| = s and gcd(N_i, i in J) = order.

  ``keyed_class`` adds the stratum classes of each (order, |J|) bucket
  first and multiplies once per bucket, so its per-stratum work is a gcd
  and an addition.  The sums are exact, so the result equals the
  term-by-term one.

  Each keyed piece is an absolute term divided by one factor of (L-1), so

      absolute = (L-1) * sum over keys of keyed[key]

  is a ring identity.  Z[L] normal forms are canonical, so
  ``absolute_from_keyed`` computes the absolute class from the keyed one
  with identical coefficients, and a caller that needs both makes one pass
  over the strata.

* ``acampo_zeta`` / ``milnor_fibre_euler``: the monodromy zeta factorization
  prod_i (1 - t^(N_i))^(chi_i) over components, with chi_i the Euler number
  of the open stratum of component i, and the matching Euler characteristic
  sum_i N_i * chi_i.  The exponent-sign convention (+chi_i) is fixed here
  once and used everywhere.

``psi_data`` provides the Bezout certificate behind the key: integers
alpha_i with sum alpha_i * N_i = gcd, chosen deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .model import NCModel, UnknownStratumError, require_valid
from .ring import ONE, ZERO, KeyedClass, LefschetzPoly, ZetaFactorization, euler_realization

_L_MINUS_ONE = LefschetzPoly((-1, 1))


@dataclass(frozen=True)
class MotivicTerm:
    """One stratum's contribution to the motivic Milnor fibre."""

    subset: tuple[str, ...]
    sign: int
    gcd_key: int
    stratum_cls: LefschetzPoly
    torus_exponent: int


@dataclass(frozen=True)
class PsiData:
    """Bezout data trivializing the torus bundle over a stratum:
    sum over i of bezout[i] * N_i equals the gcd ``order``."""

    subset: tuple[str, ...]
    order: int
    bezout: tuple[int, ...]


def motivic_terms(model: NCModel) -> list[MotivicTerm]:
    """One term per present stratum, in sorted subset order."""
    require_valid(model)
    terms = []
    for stratum in model.strata:
        subset = tuple(sorted(stratum.components))
        size = len(subset)
        terms.append(MotivicTerm(
            subset=subset,
            sign=-1 if size % 2 == 0 else 1,
            gcd_key=gcd(*(model.multiplicity(cid) for cid in subset)),
            stratum_cls=stratum.cls,
            torus_exponent=size - 1,
        ))
    terms.sort(key=lambda term: term.subset)
    return terms


def naive_absolute_class(model: NCModel) -> LefschetzPoly:
    """sum (-1)^(|J|+1) [stratum_J] (L-1)^|J|, the class of the motivic part
    with the torus action forgotten.  Invariant under valid blow-ups."""
    return absolute_from_keyed(keyed_class(model))


def absolute_from_keyed(keyed: KeyedClass) -> LefschetzPoly:
    """The absolute class (L-1) * sum of the keyed pieces; see the module note."""
    total = LefschetzPoly.zero()
    for _, piece in keyed:
        total = total + piece
    return _L_MINUS_ONE * total


def keyed_class(model: NCModel) -> KeyedClass:
    """Group terms by monodromy order; see the module note on non-invariance
    and on the (order, |J|) buckets."""
    require_valid(model)
    sums: dict[tuple[int, int], LefschetzPoly] = {}
    for stratum in model.strata:
        ids = stratum.components
        bucket = (gcd(*(model.multiplicity(cid) for cid in ids)), len(ids))
        sums[bucket] = sums.get(bucket, ZERO) + stratum.cls
    entries: dict[int, LefschetzPoly] = {}
    torus_powers = [ONE]  # (L-1)^k at index k
    for (order, size), total in sums.items():
        while len(torus_powers) < size:
            torus_powers.append(torus_powers[-1] * _L_MINUS_ONE)
        piece = total * torus_powers[size - 1]
        previous = entries.get(order, ZERO)
        # sign (-1)^(|J|+1)
        entries[order] = previous + piece if size % 2 else previous - piece
    return KeyedClass(entries)


def acampo_zeta(model: NCModel) -> ZetaFactorization:
    """Monodromy zeta factorization prod (1 - t^(N_i))^(chi_i) over components,
    chi_i the Euler number of the open stratum of component i.  Components
    whose open stratum has Euler number zero contribute no factor."""
    require_valid(model)
    return ZetaFactorization(
        (comp.multiplicity, euler_realization(model.stratum_class({comp.id})))
        for comp in model.components
    )


def milnor_fibre_euler(model: NCModel) -> int:
    """Euler characteristic of the Milnor fibre, sum_i N_i * chi_i.

    Matches the zeta convention above; meaningful for local-mode models,
    where the stratum classes sit over the tracked point.
    """
    require_valid(model)
    return sum(
        comp.multiplicity * euler_realization(model.stratum_class({comp.id}))
        for comp in model.components
    )


def bezout_chain(values: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """gcd of positive integers together with deterministic Bezout
    coefficients, folding extended Euclid left to right.

    Each two-term step uses the textbook extended Euclid output, whose
    coefficients are the smallest in absolute value, so the fold is a normal
    form for the input order.
    """
    if not values:
        raise ValueError("bezout_chain needs at least one value")
    if any(v < 1 for v in values):
        raise ValueError(f"values must be positive, got {list(values)}")
    g = values[0]
    coeffs = [1]
    for v in values[1:]:
        g, s, t = _extended_gcd(g, v)
        coeffs = [c * s for c in coeffs]
        coeffs.append(t)
    return g, tuple(coeffs)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def psi_data(model: NCModel, subset: Iterable[str]) -> PsiData:
    """Bezout trivialization data for a present stratum, in sorted id order."""
    require_valid(model)
    key = frozenset(subset)
    # a valid model stores no zero class, so zero means absent
    if model.stratum_class(key).is_zero:
        raise UnknownStratumError(
            f"no stratum on {{{', '.join(sorted(key))}}} in the model")
    ordered = tuple(sorted(key))
    order, coeffs = bezout_chain([model.multiplicity(cid) for cid in ordered])
    return PsiData(subset=ordered, order=order, bezout=coeffs)
