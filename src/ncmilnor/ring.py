"""Exact arithmetic for Grothendieck-ring bookkeeping.

Three value types live here, all with exact integer coefficients:

* ``LefschetzPoly``, a polynomial in the Lefschetz class L (the class of the
  affine line).  Coefficients are arbitrary-precision integers indexed by the
  power of L, stored with no trailing zeros.  Only nonnegative powers exist:
  classes are kept in Z[L], never in a localisation, so inverting L is
  impossible by construction.

* ``KeyedClass``, a finite map from a positive integer key (a monodromy
  order, the gcd of the multiplicities along a stratum) to a LefschetzPoly.
  Equality is plain keywise equality.  This is a diagnostic representation:
  the underlying equivariant ring identifies some keyed elements that this
  type keeps distinct, and no decision procedure for that finer equality is
  known.  Zero entries are dropped.

* ``ZetaFactorization``, a finite product of factors (1 - t^N)^e with
  integer exponents, in normal form (orders strictly increasing, exponents
  nonzero).  The normal form is canonical, so equality of normal forms is
  equality of the rational functions they represent: 1 - t^N is, up to
  sign, the product of the cyclotomic polynomials Phi_d over the divisors d
  of N, and the map from the exponents e_N to the cyclotomic exponents
  sum_{d | N} e_N is unitriangular (A'Campo, La fonction zeta d'une
  monodromie, 1975).

Realizations of LefschetzPoly: ``euler_realization`` evaluates at L = 1
(compactly supported Euler characteristic) and ``e_polynomial`` substitutes
L -> u*v (the Hodge-Deligne E-polynomial of a mixed-Tate class), landing in
``UVPoly``, a small exact bivariate polynomial type.

``bezout_chain`` gives the gcd of positive integers with deterministic
Bezout coefficients; the Milnor layer's trivialization data and the numeric
layer's torus splitting both read it from here.

Everything is immutable and side-effect free.  Each of the four types
computes its normal form in its own ``__init__``, and equality of values is
equality of normal forms.  ``value_class`` completes them, and every other
immutable value type of the package, with equality, hashing, the repr,
immutability and pickling.  It has one hash rule (a ``dict`` field, a term
map or a centre's pieces, is hashed as the frozenset of its items) and one
override rule (a method the class writes itself is kept).  It lives here
because this module imports no other module of the package.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence, Tuple


def _field_repr(value) -> str:
    """``repr(value)``, except that a nonempty frozenset lists its elements
    sorted: its own order changes with the hash seed and with copying."""
    if value.__class__ is frozenset and value:
        return f"frozenset({{{', '.join(map(repr, sorted(value)))}}})"
    return repr(value)


def _hash_form(value):
    """A field value as the hash reads it: a ``dict`` as the frozenset of its
    items, since equal dicts hold equal items in any order."""
    return frozenset(value.items()) if value.__class__ is dict else value


def value_class(cls: type) -> type:
    """Complete a class that lists its fields in ``__slots__`` the way
    ``@dataclass(frozen=True)`` would, at a fraction of the import cost.

    The fields are the public names in ``__slots__``, in order; a slot whose
    name starts with an underscore holds derived state (an index, a memo)
    and takes no part in equality, hashing, the repr or pickling.  The class
    gets:

    * ``__init__(self, field, ...)``, positional or keyword (a class that
      writes its own sets each slot with ``object.__setattr__``);
    * ``==`` true only between instances of the same class with equal
      fields, and the matching ``hash``: of the tuple of field values, or of
      the bare value of a single field, with every ``dict`` value hashed as
      the frozenset of its items;
    * the dataclass repr ``Name(field=value!r, ...)``, and ``Name(value!r)``
      for a single field, in which a frozenset lists its elements sorted, so
      the text does not depend on the hash seed;
    * ``AttributeError`` on assignment and deletion;
    * ``__reduce__``, which rebuilds an instance by calling the class with
      its field values, so ``pickle``, ``copy`` and ``deepcopy`` work.

    Each of these methods that the class writes itself is kept.  So a class
    whose normal form is not its field tuple writes ``__eq__`` and
    ``__hash__`` together (Python leaves a class that writes ``__eq__``
    alone with no hash).
    """
    fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
    values = attrgetter(*fields)  # of a single name, the bare value
    args = values if len(fields) > 1 else lambda self: (values(self),)
    hash_form = (lambda row: tuple(map(_hash_form, row))) if len(fields) > 1 else _hash_form
    labels = [f"{name}=" for name in fields] if len(fields) > 1 else [""]
    own = set(cls.__dict__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(hash_form(values(self)))

    def __repr__(self):
        body = ", ".join(f"{label}{_field_repr(value)}"
                         for label, value in zip(labels, args(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, args(self)

    methods = [__eq__, __hash__, __repr__, __setattr__, __delattr__, __reduce__]
    if "__init__" not in own:  # exec costs import time, so only when it is used
        # a generated signature, as dataclasses writes one: positional and
        # keyword calls bind at C speed, and each slot is set through its
        # descriptor, past the __setattr__ that refuses assignment
        setters = {f"set_{name}": cls.__dict__[name].__set__ for name in fields}
        source = f"def __init__(self, {', '.join(fields)}):\n" + "".join(
            f"    set_{name}(self, {name})\n" for name in fields)
        exec(source, setters)
        methods.append(setters["__init__"])
    for method in methods:
        if method.__name__ not in own:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__match_args__ = fields
    return cls


# ---------------------------------------------------------------------------
# low-level coefficient-list arithmetic for LefschetzPoly.  Inputs are
# normal forms (no trailing zero); outputs may end in zeros, and
# ``LefschetzPoly.from_checked`` trims them once, where the result is wrapped.

def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _mul(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """The product; it has no trailing zero, since the leading coefficients
    of normal forms are nonzero."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _pow(a: Sequence[int], n: int) -> Sequence[int]:
    """a^n by binary powering in bit_length(n) + popcount(n) - 2 products
    (none for n <= 1): the result starts at the lowest set bit, and the
    base is not squared past the highest."""
    if n == 0:
        return (1,)
    base = a
    while not n & 1:
        base = _mul(base, base)
        n >>= 1
    result = base
    n >>= 1
    while n:
        base = _mul(base, base)
        if n & 1:
            result = _mul(result, base)
        n >>= 1
    return result


@value_class
class LefschetzPoly:
    """A polynomial in the Lefschetz class L, with exact integer coefficients.

    ``coeffs[k]`` is the coefficient of L^k.  The stored tuple never has a
    trailing zero; the zero polynomial stores the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        values = list(coeffs)
        for c in values:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be exact integers, got {c!r}")
        object.__setattr__(self, "coeffs", _trim(values))

    # -- constructors

    @staticmethod
    def from_checked(coeffs: Sequence[int]) -> "LefschetzPoly":
        """The polynomial with these coefficients, which the caller has
        already checked to be exact integers.  Trailing zeros are trimmed,
        so the result is in normal form."""
        p = LefschetzPoly.__new__(LefschetzPoly)
        object.__setattr__(p, "coeffs", _trim(coeffs))
        return p

    @staticmethod
    def zero() -> "LefschetzPoly":
        return LefschetzPoly()

    @staticmethod
    def one() -> "LefschetzPoly":
        return LefschetzPoly((1,))

    @staticmethod
    def monomial(power: int, coeff: int = 1) -> "LefschetzPoly":
        """coeff * L^power.  Negative powers are rejected: the ring is Z[L]."""
        if power < 0:
            raise ValueError(f"negative power of L rejected: {power}")
        return LefschetzPoly((0,) * power + (coeff,))

    # -- structure

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree in L; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    # -- ring operations

    def __add__(self, other: "LefschetzPoly") -> "LefschetzPoly":
        return LefschetzPoly.from_checked(_add(self.coeffs, other.coeffs))

    def __neg__(self) -> "LefschetzPoly":
        return LefschetzPoly.from_checked(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LefschetzPoly") -> "LefschetzPoly":
        return LefschetzPoly.from_checked(_add(self.coeffs, tuple(-c for c in other.coeffs)))

    def __mul__(self, other) -> "LefschetzPoly":
        if isinstance(other, int):
            return LefschetzPoly.from_checked([other * c for c in self.coeffs])
        return LefschetzPoly.from_checked(_mul(self.coeffs, other.coeffs))

    def __rmul__(self, other: int) -> "LefschetzPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "LefschetzPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[L]")
        return LefschetzPoly.from_checked(_pow(self.coeffs, n))

    def __bool__(self) -> bool:
        return not self.is_zero

    def evaluate(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    # -- textual form: `c0 + c1*L + c2*L^2 + ...`, zero terms skipped

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*L")
            else:
                parts.append(f"{c}*L^{k}")
        return " + ".join(parts)


#: The Lefschetz class itself.
L = LefschetzPoly.monomial(1)
ZERO = LefschetzPoly.zero()
ONE = LefschetzPoly.one()


def euler_realization(p: LefschetzPoly) -> int:
    """Evaluate at L = 1, the compactly supported Euler characteristic."""
    return p.evaluate(1)


@value_class
class UVPoly:
    """Exact bivariate integer polynomial in (u, v), as a term map."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Tuple[int, int], int] = ()):
        cleaned = {}
        for (i, j), c in dict(terms).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in UVPoly term ({i},{j})")
            if not isinstance(c, int):
                raise TypeError("UVPoly coefficients must be integers")
            if c != 0:
                cleaned[(i, j)] = c
        object.__setattr__(self, "terms", dict(cleaned))

    def __add__(self, other: "UVPoly") -> "UVPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return UVPoly(out)

    def __mul__(self, other: "UVPoly") -> "UVPoly":
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self.terms.items():
            for (k, l), d in other.terms.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + c * d
        return UVPoly(out)

    def evaluate(self, u: int, v: int) -> int:
        return sum(c * u**i * v**j for (i, j), c in self.terms.items())

    def is_symmetric(self) -> bool:
        return all(self.terms.get((j, i), 0) == c for (i, j), c in self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items()):
            mon = "".join(
                [f"u^{i}" if i > 1 else "u" if i == 1 else "",
                 f"v^{j}" if j > 1 else "v" if j == 1 else ""])
            parts.append(f"{c}*{mon}" if mon else str(c))
        return " + ".join(parts)


def e_polynomial(p: LefschetzPoly) -> UVPoly:
    """Substitute L -> u*v.  Symmetric in (u, v) by construction."""
    return UVPoly({(k, k): c for k, c in enumerate(p.coeffs) if c != 0})


@value_class
class KeyedClass:
    """A finite family of LefschetzPoly values indexed by monodromy order.

    Keys are positive integers; entries holding the zero polynomial are
    dropped on construction.  Addition, subtraction and equality are
    keywise, and entries that cancel to zero are dropped.  Note that this is
    a non-canonical diagnostic: keyed values that the equivariant ring
    identifies can compare unequal here, and in particular the keyed data of
    a model is NOT invariant under blow-ups (only its realizations are).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, LefschetzPoly] = ()):
        cleaned = {}
        for key, poly in dict(entries).items():
            if not isinstance(key, int) or key < 1:
                raise ValueError(f"keys must be positive integers, got {key!r}")
            if not isinstance(poly, LefschetzPoly):
                raise TypeError("entries must be LefschetzPoly values")
            if not poly.is_zero:
                cleaned[key] = poly
        object.__setattr__(self, "entries", dict(cleaned))

    def __add__(self, other: "KeyedClass") -> "KeyedClass":
        out = dict(self.entries)
        for key, poly in other.entries.items():
            out[key] = out.get(key, ZERO) + poly
        return KeyedClass(out)

    def __sub__(self, other: "KeyedClass") -> "KeyedClass":
        return self + KeyedClass({key: -poly for key, poly in other.entries.items()})

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __iter__(self) -> Iterator[tuple[int, LefschetzPoly]]:
        return iter(sorted(self.entries.items()))

    def __str__(self) -> str:
        if not self.entries:
            return "{}"
        inner = ", ".join(f"{k}: {p}" for k, p in self)
        return "{" + inner + "}"


@value_class
class ZetaFactorization:
    """A product of factors (1 - t^N)^e, kept in normal form.

    Orders N are positive integers, exponents e are nonzero integers, and
    factors are sorted by strictly increasing order.  Construction normalizes
    an arbitrary multiset of (order, exponent) pairs, so equality, which
    compares normal forms, coincides with rational-function equality.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[tuple[int, int]] = ()):
        merged: dict[int, int] = {}
        for order, exponent in factors:
            if not isinstance(order, int) or order < 1:
                raise ValueError(f"orders must be positive integers, got {order!r}")
            if not isinstance(exponent, int):
                raise TypeError("exponents must be integers")
            merged[order] = merged.get(order, 0) + exponent
        normal = tuple((n, e) for n, e in sorted(merged.items()) if e != 0)
        object.__setattr__(self, "factors", normal)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.factors)

    def __bool__(self) -> bool:
        return bool(self.factors)

    @property
    def degree(self) -> int:
        """Sum of N * e over the factors, the degree of the rational
        function; for A'Campo's zeta, the Euler number of the Milnor fibre."""
        return sum(order * exponent for order, exponent in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " ".join(f"(1-t^{n})^{e}" for n, e in self.factors)

    def __repr__(self) -> str:
        return f"ZetaFactorization({list(self.factors)!r})"


def zeta_equal(a: ZetaFactorization, b: ZetaFactorization) -> bool:
    """Exact equality of the rational functions prod (1 - t^N)^e.

    This is equality of normal forms.  Writing 1 - t^N = -prod_{d | N} Phi_d,
    a factorization with exponents e_N has cyclotomic exponents
    c_d = sum_{d | N} e_N.  That map is unitriangular for divisibility (c_d
    is e_d plus terms from multiples of d), hence injective, and the Phi_d
    are pairwise coprime irreducibles; so two normal forms give the same
    rational function exactly when they are equal.
    """
    return a == b


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
