"""Models, validation, and the stratified census of the complete log space.

A model lists divisor components with multiplicities and the classes of the
open strata.  Over a stratum on a subset J, the complete log space fibres as
a product of one (0, +inf] x S^1 factor per component; the census decomposes
that product into 2^|J| pieces by which factors sit at finite radius.
"""

from ncmilnor import (
    Component,
    InvalidModelError,
    NCModel,
    Stratum,
    builtin_example,
    census,
    closure_strata,
    load_model,
    save_model,
)
from ncmilnor.ring import L, ONE

print("== the two-axes model, tracked at the origin ==")
xy = builtin_example("xy")
print(save_model(xy))

print("== census over the corner stratum ==")
record = census(xy, ("x", "y"))
for piece in record.pieces:
    held = ", ".join(piece.finite) if piece.finite else "none"
    print(f"  {piece.tag:5s}  {piece.shape:12s} (finite radius on: {held})")
print(f"  mixed pieces: {record.mixed_count} of {len(record.pieces)}")

print()
print("== a model is checked when it is built ==")
try:
    NCModel(2, "global", [Component("x", 0)], [Stratum({"x"}, L**2)])
except InvalidModelError as exc:
    for violation in exc.violations:
        print(f"  {violation}")

print()
print("== closure poset on a global two-axes model ==")
global_xy = NCModel(
    2, "global",
    [Component("x", 1), Component("y", 1)],
    [Stratum({"x"}, L - ONE), Stratum({"y"}, L - ONE), Stratum({"x", "y"}, ONE)],
)
for subset in ({"x"}, {"y"}, {"x", "y"}):
    closure = closure_strata(global_xy, subset)
    pretty = sorted("{" + ", ".join(sorted(k)) + "}" for k in closure)
    print(f"  closure pieces over {{{', '.join(sorted(subset))}}}: {pretty}")

print()
print("== documents round-trip bit-exactly ==")
assert load_model(save_model(global_xy)) == global_xy
print("  load(save(model)) == model")
