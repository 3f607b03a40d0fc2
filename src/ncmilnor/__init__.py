"""Milnor-fibration invariants of functions with normal-crossing zero divisor.

The package takes combinatorial resolution data (divisor components with
multiplicities and stratum classes in the polynomial ring on the Lefschetz
class) and computes, exactly, the motivic Milnor-fibre term sum, its
realizations (Euler characteristic, monodromy zeta factorization, absolute
class), the stratified decomposition of the complete log space, and the
effect of further blow-ups, verifying that the realizations do not change.
A numeric layer evaluates points of the log spaces in charts: the phase map,
the monodromy flow on the simplex model, multiplicity recovery by winding
numbers, the Bezout torus splitting, and chart-level blow-downs.

``import ncmilnor`` loads this file only.  Each name in ``__all__`` is
imported from its submodule (``ring``, ``model``, ``milnor``, ``blowup``,
``logspace``) on first access (PEP 562), so a program that needs the exact
core never loads the numeric layer.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ring": (
        "L", "ONE", "ZERO", "KeyedClass", "LefschetzPoly", "UVPoly",
        "ZetaFactorization", "e_polynomial", "euler_realization", "zeta_equal",
    ),
    "model": (
        "Chart", "Component", "InvalidModelError", "ModelError", "ModelParseError",
        "NCModel", "Stratum", "UnitPoly", "UnknownComponentError", "UnknownStratumError",
        "Violation", "builtin_example", "census", "closure_strata", "load_model",
        "save_model", "validate",
    ),
    "milnor": (
        "MotivicTerm", "PsiData", "absolute_from_keyed", "acampo_zeta", "keyed_class",
        "milnor_fibre_euler", "motivic_terms", "naive_absolute_class", "psi_data",
    ),
    "blowup": (
        "CenterSpec", "InvarianceReport", "apply_blowup", "check_invariance",
        "exceptional_fibre_strata", "load_center", "point_center", "save_center",
        "telescoping_check", "validate_center",
    ),
    "logspace": (
        "ChartContext", "Classification", "CplPoint", "LogspaceError", "PolarCoord",
        "PsiImage", "chart_context", "classify", "effective_unit", "f_mot", "in_simplex",
        "monodromy", "psi_inverse", "psi_map", "pullback_motivic_value", "quotient_to_top",
        "recover_multiplicities", "sigma_alog_chart", "sign_f", "sign_oracle",
        "simplex_representative", "xi",
    ),
}

# name -> the submodule defining it; a submodule name maps to itself
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SOURCE.update((module, module) for module in _EXPORTS)

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
