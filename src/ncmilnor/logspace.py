"""Numeric points of the complete log space of a chart, and the maps on them.

A point stores chart coordinates together with, for every divisor coordinate
where the base vanishes, a polar pair (radius, unit phase).  The radius lives
in (0, +inf]; ``math.inf`` is the explicit mark for the boundary circle, and
``math.isinf`` is the membership test, so the boundary is represented
exactly rather than by a large float.  Points with all radii finite form the
algebraic part (tag "mot"), points with all radii infinite the boundary part
(tag "top"), everything in between is mixed.

The maps implemented here:

* ``sign_f``: the phase of the function at the point, the product of the
  unit's phase with the divisor phases raised to their multiplicities.
* ``f_mot``: the actual complex value on the algebraic part.
* ``quotient_to_top``: push all radii to the boundary, phases untouched.
* ``xi`` / ``in_simplex`` / ``simplex_representative``: the clock speeds
  xi_i = 1/(r_i N_i) (zero at the boundary), the unit-sum locus, and the
  unique representative of a scaling orbit on that locus.
* ``monodromy``: the flow multiplying each phase by exp(2*pi*i*lam*xi_i/N_i),
  which on the unit-sum locus rotates sign_f by exactly exp(2*pi*i*lam).
  Note the division by N_i in the exponent: multiplying phase i by
  exp(2*pi*i*lam*xi_i) instead would rotate sign_f by the sum of 1/r_i,
  which is 1 only when every multiplicity is 1.
* ``recover_multiplicities``: read the multiplicities back off any phase
  oracle by winding-number counting, and the unit's phase as the value at
  the identity phases.
* ``psi_map`` / ``psi_inverse``: the Bezout change of coordinates isolating
  one copy of C* on which the function is a pure power.
* ``sigma_alog_chart`` / ``pullback_motivic_value``: the chart-level
  blow-up of a coordinate subspace.  The upstairs point is an ordinary
  ``CplPoint`` on the exceptional chart, where f o sigma is again a
  normal-crossing function: its unit is the exact pullback
  ``UnitPoly.pullback`` and the exceptional coordinate carries the sum of
  the centre's multiplicities (A'Campo 1975).  ``sigma_alog_chart`` maps
  an upstairs point of any tag to the point under it: downstairs centre
  coordinate k gets radius r_E * r'_k at a strict transform and
  r_E * |b_k| otherwise (inf * r = inf), phase theta_E * theta'_k or
  theta_E * b_k/|b_k|, and the pivot keeps (r_E, theta_E).  It keeps
  sign_f and commutes with ``quotient_to_top``.
  ``pullback_motivic_value`` is ``f_mot`` of the upstairs point.

Tolerances: unit modulus and unit-vanishing cutoffs are 1e-12; the phase
identities are certified to 1e-9 by the test suite.  A chart multiplicity
is at most 10**12 = 1/PHASE_TOL, so |theta^N| <= e for every accepted phase
theta; ``effective_unit`` turns an overflowing or non-finite unit into a
``LogspaceError``, and so does ``f_mot`` with its value.  A radius computed
from finite data that underflows to zero or overflows (``psi_inverse``,
``sigma_alog_chart``, ``simplex_representative``) is a ``LogspaceError``
naming the coordinate, and so is a radius whose clock speed is not finite or
zero (``xi``).  ``psi_map`` raises ``LogspaceError`` when its scale or a
residual underflows to zero or overflows.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Mapping, Sequence

from .model import MIXED, MOT, TOP, Chart, ModelError, NCModel, UnitPoly
from .ring import bezout_chain, value_class

PHASE_TOL = 1e-12
UNIT_CUTOFF = 1e-12
SIMPLEX_TOL = 1e-9


class LogspaceError(ModelError):
    """Numeric input a chart cannot take: a bad point, chart or sample count."""


class NonMotivicPointError(LogspaceError):
    pass


class TopPointError(LogspaceError):
    pass


class UnitVanishingError(LogspaceError):
    pass


class UnwrapError(LogspaceError):
    pass


@value_class
class PolarCoord:
    """Radius in (0, +inf] (math.inf marks the boundary) and a unit phase."""

    __slots__ = ("radius", "phase")

    @property
    def finite(self) -> bool:
        return not math.isinf(self.radius)

    def value(self) -> complex:
        if not self.finite:
            raise TopPointError("no complex value at the boundary circle")
        return self.radius * self.phase


def _polar(coord: int, value: complex) -> PolarCoord:
    """The polar pair of ``value`` at divisor coordinate ``coord``.  A value
    that is zero or not finite (an underflow or overflow upstream) has none,
    and raises ``LogspaceError`` naming the coordinate."""
    try:
        size = abs(value)
    except OverflowError:  # both parts finite, the modulus too large
        size = math.inf
    if not 0 < size < math.inf:  # NaN fails too
        raise LogspaceError(f"value at coordinate {coord} is zero or not finite")
    return PolarCoord(size, value / size)


@value_class
class ChartContext:
    """A chart bundled with the multiplicities of its divisor coordinates,
    stored as sorted (coordinate, multiplicity) pairs."""

    __slots__ = ("chart", "multiplicities")

    def __init__(self, chart: Chart, multiplicities: Mapping[int, int]):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "multiplicities",
                           tuple(sorted((int(k), int(v)) for k, v in dict(multiplicities).items())))
        coords = dict(chart.divisor_coords)
        for coord in coords:
            if not 0 <= coord < chart.dim:
                raise LogspaceError(
                    f"divisor coordinate {coord} is outside the chart's {chart.dim} coordinates")
        for coord, mult in self.multiplicities:
            if coord not in coords:
                raise LogspaceError(f"coordinate {coord} is not a divisor coordinate")
            if mult < 1:
                raise LogspaceError(f"multiplicity at coordinate {coord} must be >= 1")
            # compared as integers: mult * PHASE_TOL overflows for mult >= 2**1024
            if mult > 10**12:
                raise LogspaceError(
                    f"multiplicity at coordinate {coord} exceeds 10**12 = 1/PHASE_TOL")
        if set(coords) != {c for c, _ in self.multiplicities}:
            raise LogspaceError("every divisor coordinate needs a multiplicity")

    def multiplicity(self, coord: int) -> int:
        for c, m in self.multiplicities:
            if c == coord:
                return m
        raise LogspaceError(f"coordinate {coord} is not a divisor coordinate")

    def divisor_coords(self) -> dict[int, str]:
        return dict(self.chart.divisor_coords)


def chart_context(model: NCModel, chart_index: int = 0) -> ChartContext:
    """Bundle chart ``chart_index`` of a model with its multiplicities."""
    if not 0 <= chart_index < len(model.charts):
        raise LogspaceError(f"model has no chart {chart_index}")
    chart = model.charts[chart_index]
    return ChartContext(
        chart, {coord: model.multiplicity(cid) for coord, cid in chart.divisor_coords})


@value_class
class CplPoint:
    """A point of the complete log space of a chart.

    ``base`` gives the chart coordinates; it vanishes exactly on the divisor
    coordinates listed in ``polar``, each of which carries its polar pair.
    ``polar`` is stored as sorted (coordinate, PolarCoord) pairs.
    """

    __slots__ = ("chart", "base", "polar")

    def __init__(self, chart: ChartContext, base: Sequence[complex],
                 polar: Mapping[int, PolarCoord]):
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "base", tuple(complex(z) for z in base))
        object.__setattr__(self, "polar", tuple(
            (int(coord), item) for coord, item in sorted(dict(polar).items())))
        self._check()

    def _check(self) -> None:
        divisor = self.chart.divisor_coords()
        if len(self.base) != self.chart.chart.dim:
            raise LogspaceError(
                f"base has {len(self.base)} coordinates, chart dim is {self.chart.chart.dim}")
        if not self.polar:
            raise LogspaceError("a log point must sit on at least one divisor coordinate")
        for coord, z in enumerate(self.base):
            if not cmath.isfinite(z):
                raise LogspaceError(f"base coordinate {coord} is not finite")
        seen = set()
        for coord, pc in self.polar:
            if coord not in divisor:
                raise LogspaceError(f"coordinate {coord} is not a divisor coordinate")
            seen.add(coord)
            if self.base[coord] != 0:
                raise LogspaceError(f"base coordinate {coord} must be exactly zero")
            if not pc.radius > 0:
                raise LogspaceError(f"radius at coordinate {coord} must be positive")
            # written so that a NaN phase fails too
            if not abs(abs(pc.phase) - 1.0) <= PHASE_TOL:
                raise LogspaceError(f"phase at coordinate {coord} is not unit modulus")
        for coord in divisor:
            if coord not in seen and self.base[coord] == 0:
                raise LogspaceError(
                    f"divisor coordinate {coord} vanishes but has no polar data")

    def polar_map(self) -> dict[int, PolarCoord]:
        return dict(self.polar)

    def vanishing(self) -> tuple[int, ...]:
        return tuple(coord for coord, _ in self.polar)

    def replace_polar(self, polar: Mapping[int, PolarCoord]) -> "CplPoint":
        return CplPoint(self.chart, self.base, polar)


@value_class
class Classification:
    """The tag of a point ("mot", "top" or "mixed") and the coordinates it
    holds at finite radius."""

    __slots__ = ("tag", "finite")


def classify(p: CplPoint) -> Classification:
    """Tag by the set of coordinates held at finite radius."""
    finite = frozenset(coord for coord, pc in p.polar if pc.finite)
    tag = MOT if len(finite) == len(p.polar) else TOP if not finite else MIXED
    return Classification(tag, finite)


def effective_unit(p: CplPoint) -> complex:
    """The effective unit at the point: the chart unit times the nonvanishing
    divisor coordinates raised to their multiplicities.  Raises
    ``UnitVanishingError`` when it is within ``UNIT_CUTOFF`` of zero, and
    ``LogspaceError`` when it overflows or is not finite."""
    vanishing = set(p.vanishing())
    try:
        value = p.chart.chart.unit(p.base)
        for coord, multiplicity in p.chart.multiplicities:
            if coord not in vanishing:
                value *= p.base[coord] ** multiplicity
        size = abs(value)
    except OverflowError:
        size = math.inf
    if not math.isfinite(size):
        raise LogspaceError("unit is not finite at the base point")
    if size <= UNIT_CUTOFF:
        raise UnitVanishingError("unit vanishes at the base point")
    return value


def sign_f(p: CplPoint) -> complex:
    """Phase of the function at the point: sign of the effective unit times
    the product of divisor phases to their multiplicities.  Radii are never
    read, so the value is constant along scaling orbits."""
    unit = effective_unit(p)
    value = unit / abs(unit)
    for coord, pc in p.polar:
        value *= pc.phase ** p.chart.multiplicity(coord)
    return value


def f_mot(p: CplPoint) -> complex:
    """Value of the function on the algebraic part of the log space."""
    if classify(p).tag != MOT:
        raise NonMotivicPointError("point has a coordinate at the boundary circle")
    value = effective_unit(p)
    try:
        for coord, pc in p.polar:
            value *= pc.value() ** p.chart.multiplicity(coord)
    except OverflowError:  # a complex power raises where a product gives inf
        value = math.inf
    if not cmath.isfinite(value):
        raise LogspaceError("value of the function is not finite at the point")
    return value


def quotient_to_top(p: CplPoint) -> CplPoint:
    """Send every radius to the boundary; phases are untouched, so sign_f is
    preserved exactly."""
    return p.replace_polar(
        {coord: PolarCoord(math.inf, pc.phase) for coord, pc in p.polar})


def xi(p: CplPoint) -> dict[int, float]:
    """Clock speeds xi_i = 1/(r_i N_i), zero exactly at infinite radius.

    A finite radius so small (a subnormal float) that its speed is not
    finite raises ``LogspaceError`` naming the coordinate: an infinite
    speed would send the point to the boundary in
    ``simplex_representative``.  So does a finite radius so large that
    r_i N_i overflows, whose speed would read zero, as at the boundary."""
    out = {}
    for coord, pc in p.polar:
        scaled = pc.radius * p.chart.multiplicity(coord)
        if pc.finite and math.isinf(scaled):
            raise LogspaceError(f"clock speed at coordinate {coord} underflows to zero: "
                                f"radius {pc.radius!r} is too large")
        speed = 1.0 / scaled  # 0.0 at the boundary
        if math.isinf(speed):
            raise LogspaceError(f"clock speed at coordinate {coord} is not finite: "
                                f"radius {pc.radius!r} is too small")
        out[coord] = speed
    return out


def in_simplex(p: CplPoint) -> bool:
    """True when the clock speeds sum to 1 within ``SIMPLEX_TOL``."""
    return abs(sum(xi(p).values()) - 1.0) <= SIMPLEX_TOL


def simplex_representative(p: CplPoint) -> CplPoint:
    """The unique point of the scaling orbit with clock speeds summing to 1.

    Scaling every finite radius by t divides each finite clock speed by t,
    so the orbit of any point with a finite coordinate crosses the unit-sum
    locus once, at t = current sum.  Boundary points never reach it.  A
    finite radius that overflows when scaled raises ``LogspaceError`` naming
    the coordinate, so the representative keeps the point's tag.
    """
    total = sum(xi(p).values())
    if total == 0.0:
        raise TopPointError("a boundary point's orbit misses the unit-sum locus")
    polar = {}
    for coord, pc in p.polar:
        if pc.finite:
            pc = PolarCoord(total * pc.radius, pc.phase)
            if not pc.finite:
                raise LogspaceError(f"rescaled radius at coordinate {coord} overflows")
        polar[coord] = pc
    return p.replace_polar(polar)


def monodromy(p: CplPoint, lam: float) -> CplPoint:
    """Rotate each phase by exp(2*pi*i*lam*xi_i/N_i); radii unchanged.

    On the unit-sum locus the phase of the function then advances by
    exactly exp(2*pi*i*lam), because coordinate i contributes its phase to
    sign_f with exponent N_i and N_i * (xi_i / N_i) sums to 1.
    """
    speeds = xi(p)
    new_polar = {}
    for coord, pc in p.polar:
        factor = cmath.exp(2j * math.pi * lam * speeds[coord] / p.chart.multiplicity(coord))
        new_polar[coord] = PolarCoord(pc.radius, pc.phase * factor) if speeds[coord] else pc
    return p.replace_polar(new_polar)


# ---------------------------------------------------------------------------
# winding recovery

def recover_multiplicities(
    oracle: Callable[[Sequence[complex]], complex],
    arity: int,
    samples_per_loop: int = 16,
) -> tuple[tuple[int, ...], complex]:
    """Read exponents off a torus-to-circle map by winding numbers.

    For each slot, drive that slot once around the circle (others held at 1)
    and accumulate the unwrapped phase of the oracle output; each step must
    stay below pi or the sampling is too coarse to unwrap.  Returns the
    winding numbers and the oracle value at the identity phases, which for
    an oracle of the form sign(u) * prod theta_i^(N_i) are exactly the
    multiplicities and the unit's phase.
    """
    if samples_per_loop < 8:
        raise LogspaceError(f"samples_per_loop must be at least 8, got {samples_per_loop}")
    windings = []
    for slot in range(arity):
        total = 0.0
        previous = oracle(_phase_tuple(arity, slot, 0, samples_per_loop))
        for step in range(1, samples_per_loop + 1):
            current = oracle(_phase_tuple(arity, slot, step, samples_per_loop))
            delta = cmath.phase(current / previous)
            if abs(delta) >= math.pi - 1e-9:
                raise UnwrapError(
                    f"unwrapping step of {delta:.6f} rad at slot {slot}; "
                    f"raise samples_per_loop")
            total += delta
            previous = current
        turns = total / (2 * math.pi)
        if abs(turns - round(turns)) > 1e-6:
            raise UnwrapError(f"net winding {turns} is not an integer at slot {slot}")
        windings.append(round(turns))
    phase = oracle((1.0 + 0.0j,) * arity)
    return tuple(windings), phase


def _phase_tuple(arity: int, slot: int, step: int, per_loop: int) -> tuple[complex, ...]:
    phases = [1.0 + 0.0j] * arity
    phases[slot] = cmath.exp(2j * math.pi * step / per_loop)
    return tuple(phases)


def sign_oracle(ctx: ChartContext, base: Sequence[complex]) -> Callable[[Sequence[complex]], complex]:
    """The phase oracle of a chart at a base point: slot order is the sorted
    list of vanishing divisor coordinates."""
    if len(base) != ctx.chart.dim:
        raise LogspaceError(
            f"base has {len(base)} coordinates, chart dim is {ctx.chart.dim}")
    coords = [c for c in sorted(ctx.divisor_coords()) if complex(base[c]) == 0]
    if not coords:
        raise LogspaceError("base point lies on no divisor coordinate")

    def oracle(phases: Sequence[complex]) -> complex:
        polar = {c: PolarCoord(1.0, complex(t)) for c, t in zip(coords, phases)}
        return sign_f(CplPoint(ctx, base, polar))

    return oracle


# ---------------------------------------------------------------------------
# Bezout trivialization

@value_class
class PsiImage:
    """Image of a point under the Bezout change of coordinates: the base,
    the isolated scale r with f = unit * r^order, and the residual tuple w
    constrained by prod w_i^(N_i/order) = 1, as (coordinate, w_i) pairs."""

    __slots__ = ("base", "scale", "residual", "order")

    def residual_map(self) -> dict[int, complex]:
        return dict(self.residual)


def _bezout_for(ctx: ChartContext, coords: Sequence[int]) -> tuple[int, dict[int, int]]:
    order, coeffs = bezout_chain([ctx.multiplicity(c) for c in coords])
    return order, dict(zip(coords, coeffs))


def psi_map(p: CplPoint) -> PsiImage:
    """Split the torus of divisor values into a scale times a constrained
    residual torus, using Bezout coefficients for the multiplicities.  A
    scale or residual that underflows to zero or overflows raises
    ``LogspaceError``."""
    if classify(p).tag != MOT:
        raise NonMotivicPointError("the Bezout splitting lives on the algebraic part")
    coords = list(p.vanishing())
    order, alpha = _bezout_for(p.chart, coords)
    values = {coord: pc.value() for coord, pc in p.polar}
    scale = 1.0 + 0.0j
    try:
        for coord in coords:
            scale *= values[coord] ** (p.chart.multiplicity(coord) // order)
        residual = tuple(
            (coord, scale ** (-alpha[coord]) * values[coord]) for coord in coords)
    except (OverflowError, ZeroDivisionError):  # a power out of float range, or 0 ** -a
        scale, residual = math.inf, ()
    if not (scale and cmath.isfinite(scale) and all(w and cmath.isfinite(w) for _, w in residual)):
        raise LogspaceError("Bezout splitting is zero or not finite at the point")
    return PsiImage(p.base, scale, residual, order)


def psi_inverse(ctx: ChartContext, base: Sequence[complex], scale: complex,
                residual: Mapping[int, complex]) -> CplPoint:
    """Rebuild the point from its Bezout splitting: value_i = r^alpha_i w_i."""
    coords = sorted(residual)
    _, alpha = _bezout_for(ctx, coords)
    polar = {}
    for coord in coords:
        try:
            value = scale ** alpha[coord] * residual[coord]
        except (OverflowError, ZeroDivisionError):  # |scale|^alpha is not finite
            value = math.inf
        polar[coord] = _polar(coord, value)
    return CplPoint(ctx, base, polar)


# ---------------------------------------------------------------------------
# chart-level blow-up of a coordinate subspace

def _exceptional_point(codim: int, multiplicities: Mapping[int, int], unit: UnitPoly,
                       pivot: int, up_base: Sequence[complex],
                       up_polar: Mapping[int, PolarCoord]) -> CplPoint:
    """The upstairs point on the exceptional chart with unit entry at
    ``pivot``, where f o sigma has unit ``unit.pullback(codim, pivot)`` and
    the exceptional coordinate carries the sum of the multiplicities; the
    point itself checks the rest of its data."""
    if not multiplicities or not all(0 <= k < codim for k in multiplicities):
        raise LogspaceError("divisor coordinates must be centre coordinates")
    if codim > len(up_base):
        raise LogspaceError("codim exceeds the chart dimension")
    if not 0 <= pivot < codim:
        raise LogspaceError(f"pivot {pivot} is not a centre coordinate")
    if pivot not in up_polar:
        raise LogspaceError("pivot coordinate zero: the exceptional direction needs "
                            "a polar pair at the pivot")
    up_multiplicities = {**multiplicities, pivot: sum(multiplicities.values())}
    ids = {k: "E" if k == pivot else f"d{k}" for k in up_multiplicities}
    chart = Chart(len(up_base), ids, unit.pullback(codim, pivot))
    return CplPoint(ChartContext(chart, up_multiplicities), up_base, up_polar)


def sigma_alog_chart(codim: int, multiplicities: Mapping[int, int], unit: UnitPoly,
                     pivot: int, up_base: Sequence[complex],
                     up_polar: Mapping[int, PolarCoord]) -> CplPoint:
    """Push an upstairs log point of any tag through the blow-down map.

    The centre is the coordinate subspace spanned by the first ``codim``
    coordinates' vanishing; ``multiplicities`` names the divisor coordinates
    among them.  The upstairs point lives in the exceptional chart with unit
    entry at ``pivot``: its base has a zero pivot entry (it is on the
    exceptional divisor) and zeros at the strict-transform coordinates that
    carry polar data.  With (r_E, theta_E) the exceptional polar pair,
    downstairs divisor coordinate k receives

        (r_E, theta_E)                          for the pivot itself
        (r_E * r'_k, theta_E * theta'_k)        at a strict transform
        (r_E * |b_k|, theta_E * b_k / |b_k|)    otherwise, b = the base

    with inf * r = inf: the normal-vector description of the blow-down,
    extended to the boundary.  Phases never read radii, so the map commutes
    with ``quotient_to_top``; the exceptional multiplicity is the sum of the
    centre's, so it keeps sign_f.  Two finite radii whose product underflows
    to zero or overflows raise ``LogspaceError``.  The centre coordinates of
    the base are zero and the others are kept.
    """
    up = _exceptional_point(codim, multiplicities, unit, pivot, up_base, up_polar)
    upstairs = up.polar_map()
    exceptional = upstairs.pop(pivot)
    polar = {}
    for k in multiplicities:
        if k == pivot:
            polar[k] = exceptional
            continue
        pc = upstairs[k] if k in upstairs else _polar(k, up.base[k])
        radius = exceptional.radius * pc.radius
        if exceptional.finite and pc.finite and not 0 < radius < math.inf:
            raise LogspaceError(f"value at coordinate {k} is zero or not finite")
        phase = exceptional.phase * pc.phase  # within 2 * PHASE_TOL of the circle
        polar[k] = PolarCoord(radius, phase / abs(phase))
    down_chart = Chart(len(up.base), {k: f"d{k}" for k in multiplicities}, unit)
    return CplPoint(ChartContext(down_chart, multiplicities),
                    (0j,) * codim + up.base[codim:], polar)


def pullback_motivic_value(codim: int, multiplicities: Mapping[int, int], unit: UnitPoly,
                           pivot: int, up_base: Sequence[complex],
                           up_polar: Mapping[int, PolarCoord]) -> complex:
    """Value of the composed function at the upstairs point: ``f_mot`` on
    the exceptional chart.  Equality with ``f_mot`` of the
    ``sigma_alog_chart`` image is the commutativity of the blow-down
    diagram, and pins the exceptional multiplicity and the pulled-back unit.
    """
    return f_mot(_exceptional_point(codim, multiplicities, unit, pivot, up_base, up_polar))


# ---------------------------------------------------------------------------
# point (de)serialization, used by the command line front end

def point_to_json(p: CplPoint) -> dict:
    return {
        "base": [[z.real, z.imag] for z in p.base],
        "polar": [
            {"i": coord, "r": "inf" if not pc.finite else pc.radius,
             "theta": [pc.phase.real, pc.phase.imag]}
            for coord, pc in p.polar
        ],
    }


def point_from_json(ctx: ChartContext, doc: dict) -> CplPoint:
    try:
        base = [complex(re, im) for re, im in doc["base"]]
        polar = {}
        for item in doc["polar"]:
            radius = math.inf if item["r"] == "inf" else float(item["r"])
            theta = complex(item["theta"][0], item["theta"][1])
            polar[int(item["i"])] = PolarCoord(radius, theta)
    except (KeyError, TypeError, ValueError) as exc:
        raise LogspaceError(f"bad point document: {exc}") from None
    return CplPoint(ctx, base, polar)
