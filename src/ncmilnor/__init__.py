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
"""

from .ring import (
    L,
    ONE,
    ZERO,
    KeyedClass,
    LefschetzPoly,
    UVPoly,
    ZetaFactorization,
    e_polynomial,
    euler_realization,
    zeta_equal,
)
from .model import (
    Chart,
    Component,
    InvalidModelError,
    ModelError,
    ModelParseError,
    NCModel,
    Stratum,
    UnitPoly,
    UnknownComponentError,
    UnknownStratumError,
    Violation,
    builtin_example,
    census,
    closure_strata,
    load_model,
    save_model,
    validate,
)
from .milnor import (
    MotivicTerm,
    PsiData,
    absolute_from_keyed,
    acampo_zeta,
    keyed_class,
    milnor_fibre_euler,
    motivic_terms,
    naive_absolute_class,
    psi_data,
)
from .blowup import (
    CenterSpec,
    InvarianceReport,
    apply_blowup,
    check_invariance,
    exceptional_fibre_strata,
    load_center,
    point_center,
    save_center,
    telescoping_check,
    validate_center,
)
from .logspace import (
    ChartContext,
    Classification,
    CplPoint,
    LogspaceError,
    PolarCoord,
    PsiImage,
    chart_context,
    classify,
    effective_unit,
    f_mot,
    in_simplex,
    monodromy,
    psi_inverse,
    psi_map,
    pullback_motivic_value,
    quotient_to_top,
    recover_multiplicities,
    sigma_alog_chart,
    sign_f,
    sign_oracle,
    simplex_representative,
    xi,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
