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

  ``keyed_class`` collects the coefficient tuples of each (order, |J|)
  bucket, so its per-stratum work is a gcd and an append.  Each bucket is
  then summed column by column in one C-level pass (``zip_longest`` and
  ``sum``) and multiplied once by its torus factor.  The sums are exact,
  so the result equals the term-by-term one, and a bucket whose classes
  cancel adds nothing, so its key is dropped unless another size keeps it.

  Each keyed piece is an absolute term divided by one factor of (L-1), so

      absolute = (L-1) * sum over keys of keyed[key]

  is a ring identity.  Z[L] normal forms are canonical, so
  ``absolute_from_keyed`` computes the absolute class from the keyed one
  with identical coefficients, and a caller that needs both makes one pass
  over the strata.

* ``acampo_zeta`` / ``milnor_fibre_euler``: the monodromy zeta factorization
  prod_i (1 - t^(N_i))^(chi_i) over components, with chi_i the Euler number
  of the open stratum of component i, and the matching Euler characteristic
  sum_i N_i * chi_i.  The exponent-sign convention (+chi_i) is fixed in
  ``acampo_zeta`` once, and the Euler number is the zeta's
  ``ZetaFactorization.degree``, the sum over factors of N * e (A'Campo
  1975).

``psi_data`` provides the Bezout certificate behind the key: integers
alpha_i with sum alpha_i * N_i = gcd, chosen deterministically by
``ring.bezout_chain``.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd
from typing import Iterable

from .model import NCModel, UnknownStratumError
from .ring import (
    ONE,
    ZERO,
    KeyedClass,
    LefschetzPoly,
    ZetaFactorization,
    bezout_chain,
    euler_realization,
    value_class,
)

_L_MINUS_ONE = LefschetzPoly((-1, 1))


@value_class
class MotivicTerm:
    """One stratum's contribution to the motivic Milnor fibre."""

    __slots__ = ("subset", "sign", "gcd_key", "stratum_cls", "torus_exponent")


@value_class
class PsiData:
    """Bezout data trivializing the torus bundle over a stratum:
    sum over i of bezout[i] * N_i equals the gcd ``order``."""

    __slots__ = ("subset", "order", "bezout")


def motivic_terms(model: NCModel) -> list[MotivicTerm]:
    """One term per present stratum, in sorted subset order."""
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
    total = ZERO
    for _, piece in keyed:
        total = total + piece
    return _L_MINUS_ONE * total


def keyed_class(model: NCModel) -> KeyedClass:
    """Group terms by monodromy order; see the module note on non-invariance
    and on the (order, |J|) buckets."""
    multiplicity = {c.id: c.multiplicity for c in model.components}.__getitem__
    buckets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for stratum in model.strata:
        ids = stratum.components
        # an exact-size argument tuple: for gcd(*map(...)) CPython builds one
        # of a guessed size and shrinks it, and the collector's allocation
        # count never sees that tuple freed, so it collects more often
        buckets.setdefault((gcd(*list(map(multiplicity, ids))), len(ids)), []).append(
            stratum.cls.coeffs)
    entries: dict[int, LefschetzPoly] = {}
    torus_powers = [ONE]  # (L-1)^k at index k
    for (order, size), coeffs in buckets.items():
        while len(torus_powers) < size:
            torus_powers.append(torus_powers[-1] * _L_MINUS_ONE)
        total = LefschetzPoly.from_checked(list(map(sum, zip_longest(*coeffs, fillvalue=0))))
        piece = total * torus_powers[size - 1]
        previous = entries.get(order, ZERO)
        # sign (-1)^(|J|+1)
        entries[order] = previous + piece if size % 2 else previous - piece
    return KeyedClass(entries)


def acampo_zeta(model: NCModel) -> ZetaFactorization:
    """Monodromy zeta factorization prod (1 - t^(N_i))^(chi_i) over components,
    chi_i the Euler number of the open stratum of component i.  Components
    whose open stratum has Euler number zero contribute no factor."""
    return ZetaFactorization(
        (comp.multiplicity, euler_realization(model.stratum_class({comp.id})))
        for comp in model.components
    )


def milnor_fibre_euler(model: NCModel) -> int:
    """Euler characteristic of the Milnor fibre, sum_i N_i * chi_i: the
    degree of the zeta factorization; see the module note.  Meaningful for
    local-mode models, where the stratum classes sit over the tracked point.
    """
    return acampo_zeta(model).degree


def psi_data(model: NCModel, subset: Iterable[str]) -> PsiData:
    """Bezout trivialization data for a present stratum, in sorted id order."""
    key = frozenset(subset)
    # a valid model stores no zero class, so zero means absent
    if model.stratum_class(key).is_zero:
        raise UnknownStratumError(
            f"no stratum on {{{', '.join(sorted(key))}}} in the model")
    ordered = tuple(sorted(key))
    order, coeffs = bezout_chain([model.multiplicity(cid) for cid in ordered])
    return PsiData(subset=ordered, order=order, bezout=coeffs)
