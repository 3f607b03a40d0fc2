"""Seeded input generation for the benchmark.

Model and centre documents are built here as plain JSON, from closed forms,
without calling into ncmilnor, so that the documents themselves are an
independent statement of what the program is asked to read.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from math import comb, gcd


def l_minus_one_pow(k: int) -> list[int]:
    """Coefficients of (L - 1)^k, lowest power first."""
    return [comb(k, j) * (-1) ** (k - j) for j in range(k + 1)]


def dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# arrangement: H_n, the n coordinate hyperplanes of C^n, in global mode

def arrangement_doc(mults: list[int]) -> dict:
    """H_n with component h_i of multiplicity mults[i]; the open stratum on
    exactly J is a torus (C*)^(n-|J|), class (L-1)^(n-|J|)."""
    n = len(mults)
    ids = [f"h{i}" for i in range(n)]
    strata = [
        {"components": list(subset), "class": l_minus_one_pow(n - size)}
        for size in range(1, n + 1)
        for subset in combinations(ids, size)
    ]
    return {
        "ambient_dim": n,
        "mode": "global",
        "components": [{"id": cid, "multiplicity": m} for cid, m in zip(ids, mults)],
        "strata": strata,
    }


def arrangement_center(rng, n: int) -> dict:
    """A seeded admissible centre of H_n.

    Either the origin (a point on the deepest stratum), or the intersection
    of |K| >= 2 hyperplanes, a coordinate subspace of dimension n - |K| that
    meets each stratum on K + R in a torus, one transverse piece per R.
    Both kinds, with |K| in {n-2, n-1}, give blown models of about 2^(n+1)
    strata, so the cost of a case depends on n and hardly on the seed.
    """
    ids = [f"h{i}" for i in range(n)]
    if rng.random() < 0.5:
        return {"K": ids, "L": [], "codim": n, "new_component_id": "E",
                "center_strata": [{"R": [], "class": [1]}]}
    k = rng.choice((n - 2, n - 1))
    contained = sorted(rng.sample(ids, k), key=ids.index)
    transverse = [cid for cid in ids if cid not in contained]
    pieces = [
        {"R": list(rest), "class": l_minus_one_pow(n - k - size)}
        for size in range(len(transverse) + 1)
        for rest in combinations(transverse, size)
    ]
    return {"K": contained, "L": transverse, "codim": k, "new_component_id": "E",
            "center_strata": pieces}


def arrangement_blown_strata(n: int, center: dict) -> int:
    """Closed-form stratum count after blowing up ``center`` in H_n."""
    k = len(center["K"])
    if k == n:  # the origin: its stratum vanishes, 2^n - 1 exceptional strata
        return 2 ** (n + 1) - 3
    return 2 ** (n + 1) - 1 - 2 ** (n - k + 1)


# ---------------------------------------------------------------------------
# plane germs tracked at the origin

def constant_unit() -> list[dict]:
    """The unit 1, as a chart's list of unit terms."""
    return [{"re": "1/1", "im": "0/1", "exponents": []}]


def two_axes_doc(a: int, b: int) -> dict:
    """x^a y^b on C^2 at the origin: only the corner meets the origin."""
    return {
        "ambient_dim": 2,
        "mode": "local",
        "components": [{"id": "x", "multiplicity": a}, {"id": "y", "multiplicity": b}],
        "strata": [{"components": ["x", "y"], "class": [1]}],
        "charts": [{"dim": 2, "divisor_coords": {"0": "x", "1": "y"},
                    "unit": constant_unit()}],
    }


def power_doc(n: int) -> dict:
    return {
        "ambient_dim": 1,
        "mode": "local",
        "components": [{"id": "x", "multiplicity": n}],
        "strata": [{"components": ["x"], "class": [1]}],
        "charts": [{"dim": 1, "divisor_coords": {"0": "x"}, "unit": constant_unit()}],
    }


def cusp_doc(p: int, q: int) -> dict:
    """The shape of the cusp's three-blow-up resolution with (2, 3) replaced
    by (p, q): curves of multiplicity p, q, pq and the strict transform."""
    ep, eq, epq = f"e{p}", f"e{q}", f"e{p * q}"
    return {
        "ambient_dim": 2,
        "mode": "local",
        "components": [
            {"id": ep, "multiplicity": p},
            {"id": eq, "multiplicity": q},
            {"id": epq, "multiplicity": p * q},
            {"id": "st", "multiplicity": 1},
        ],
        "strata": [
            {"components": [ep], "class": [0, 1]},
            {"components": [eq], "class": [0, 1]},
            {"components": [epq], "class": [-2, 1]},
            {"components": [ep, epq], "class": [1]},
            {"components": [eq, epq], "class": [1]},
            {"components": ["st", epq], "class": [1]},
        ],
    }


def point_center_doc(contained: list[str], codim: int, new_id: str) -> dict:
    return {"K": list(contained), "L": [], "codim": codim, "new_component_id": new_id,
            "center_strata": [{"R": [], "class": [1]}]}


def coprime_pair(rng, target: int) -> tuple[int, int]:
    """Coprime p < q with p*q within a few percent of ``target``."""
    root = math.isqrt(target)
    low = max(2, root - root // 40)
    while True:
        p = rng.randint(low, low + max(1, root // 40))
        q = p + 1 + rng.randint(0, max(1, root // 20))
        if gcd(p, q) == 1:
            return p, q


# ---------------------------------------------------------------------------
# numeric charts and points

def random_phase(rng) -> complex:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(angle), math.sin(angle))


def chart_unit_terms(rng, dim: int, extra: list[int]) -> list[tuple[tuple[int, ...], complex]]:
    """A non-constant unit: 2 plus small terms in the non-divisor
    coordinates, so that |unit| >= 1 wherever those coordinates have
    modulus at most 1."""
    terms = [((0,) * dim, complex(2, 0))]
    for coord in extra:
        exponents = [0] * dim
        exponents[coord] = rng.randint(1, 2)
        coeff = complex(rng.choice((-1, 1)) * rng.randint(1, 4) / 16,
                        rng.choice((-1, 1)) * rng.randint(1, 4) / 16)
        terms.append((tuple(exponents), coeff))
    return terms


def eval_unit(terms, base) -> complex:
    total = 0j
    for exponents, coeff in terms:
        mono = coeff
        for e, z in zip(exponents, base):
            mono *= z**e
        total += mono
    return total
