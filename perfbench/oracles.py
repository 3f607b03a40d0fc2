"""Closed forms the benchmark checks the program's outputs against.

Nothing here calls into ncmilnor.  Polynomials in L are coefficient tuples,
lowest power first; zeta factorizations are tuples of (order, exponent)
pairs in increasing order.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations

from gen import l_minus_one_pow

PHASE_TOL = 1e-9  # absolute, on unit-modulus values
VALUE_TOL = 1e-9  # relative, on complex values


def arrangement_absolute(n: int) -> tuple[int, ...]:
    """H_n: sum over nonempty J of (-1)^(|J|+1) (L-1)^(n-|J|) (L-1)^|J| = (L-1)^n."""
    return tuple(l_minus_one_pow(n))


# x^a y^b at the origin: one corner point, -(L-1)^2; every blow-up keeps it.
TWO_AXES_ABSOLUTE = (-1, 2, -1)
# every cusp_pq model: L(L-1) + L(L-1) + (L-2)(L-1) - 3(L-1)^2 = L - 1
CUSP_ABSOLUTE = (-1, 1)


def cusp_zeta(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """(1 - t^p)(1 - t^q)(1 - t^pq)^-1."""
    return ((p, 1), (q, 1), (p * q, -1))


def cusp_euler(p: int, q: int) -> int:
    """p + q - pq = 1 - mu with mu = (p-1)(q-1)."""
    return p + q - p * q


def power_zeta_text(n: int) -> str:
    return f"(1-t^{n})^1"


def cusp_zeta_text(p: int, q: int) -> str:
    return " ".join(f"(1-t^{order})^{exponent}" for order, exponent in cusp_zeta(p, q))


def census_stdout(subset: list[str]) -> str:
    """The whole ``ncmilnor census`` report: 2^|J| pieces, all but two
    mixed; the top piece, the mot piece, then the mixed ones by size and id
    order, one line each."""
    ordered = sorted(subset)
    pieces = 2 ** len(ordered)

    def shape(finite) -> str:
        return " x ".join("C*" if cid in finite else "S^1" for cid in ordered)

    lines = [f"stratum {{{', '.join(ordered)}}}: {pieces} pieces, {pieces - 2} mixed",
             f"  {'top':5s} {shape(())}",
             f"  {'mot':5s} {shape(ordered)}"]
    for size in range(1, len(ordered)):
        for finite in combinations(ordered, size):
            lines.append(f"  {'mixed':5s} {shape(finite)}")
    return "\n".join(lines) + "\n"


def close(a: complex, b: complex, scale: float = 1.0, tol: float = VALUE_TOL) -> bool:
    return abs(a - b) <= tol * max(scale, 1.0)


def unit_phase(z: complex) -> complex:
    return z / abs(z)


def rotation(lam: float) -> complex:
    return cmath.exp(2j * math.pi * lam)


def sign_from_phases(unit: complex, phases: list[complex], mults: list[int]) -> complex:
    """Phase of unit * prod (r_i theta_i)^N_i, which does not depend on the radii."""
    value = unit_phase(unit)
    for theta, n in zip(phases, mults):
        value *= theta**n
    return value


def value_from_polar(unit: complex, radii: list[float], phases: list[complex],
                     mults: list[int]) -> complex:
    value = unit
    for r, theta, n in zip(radii, phases, mults):
        value *= (r * theta) ** n
    return value
