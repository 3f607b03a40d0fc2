"""The package surface: the names ``ncmilnor`` exports, and what importing
the package and the command line front end loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncmilnor

SRC = str(Path(ncmilnor.__file__).resolve().parent.parent)

ALL = [
    "CenterSpec", "Chart", "ChartContext", "Classification", "Component", "CplPoint",
    "InvalidModelError", "InvarianceReport", "KeyedClass", "L", "LefschetzPoly",
    "LogspaceError", "ModelError", "ModelParseError", "MotivicTerm", "NCModel", "ONE",
    "PolarCoord", "PsiData", "PsiImage", "Stratum", "UVPoly", "UnitPoly",
    "UnknownComponentError", "UnknownStratumError", "Violation", "ZERO",
    "ZetaFactorization", "absolute_from_keyed", "acampo_zeta", "apply_blowup", "blowup",
    "builtin_example", "census", "chart_context", "check_invariance", "classify",
    "closure_strata", "e_polynomial", "effective_unit", "euler_realization",
    "exceptional_fibre_strata", "f_mot", "in_simplex", "keyed_class", "load_center",
    "load_model", "logspace", "milnor", "milnor_fibre_euler", "model", "monodromy",
    "motivic_terms", "naive_absolute_class", "point_center", "psi_data", "psi_inverse",
    "psi_map", "pullback_motivic_value", "quotient_to_top", "recover_multiplicities",
    "ring", "save_center", "save_model", "sigma_alog_chart", "sign_f", "sign_oracle",
    "simplex_representative", "telescoping_check", "validate", "validate_center", "xi",
    "zeta_equal",
]
SUBMODULES = ("ring", "model", "milnor", "blowup", "logspace")


def test_all_is_pinned():
    assert ncmilnor.__all__ == ALL
    assert len(ALL) == 73


@pytest.mark.parametrize("name", [n for n in ALL if n not in SUBMODULES])
def test_name_is_the_submodule_object(name):
    value = getattr(ncmilnor, name)
    home = value.__module__  # for L, ONE and ZERO, that of their class
    assert home in [f"ncmilnor.{mod}" for mod in SUBMODULES]
    assert getattr(sys.modules[home], name) is value


def test_submodules():
    for mod in SUBMODULES:
        assert getattr(ncmilnor, mod) is sys.modules[f"ncmilnor.{mod}"]


def test_star_import_and_dir():
    namespace = {}
    exec("from ncmilnor import *", namespace)
    assert set(ALL) <= set(namespace)
    assert set(ALL) <= set(dir(ncmilnor))


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        ncmilnor.no_such_name


def loaded_after(statement: str) -> list[str]:
    """The modules in ``sys.modules`` after ``statement`` in a fresh
    interpreter that runs no ``site`` hooks (-S), so that only the package
    and the standard library decide what is loaded."""
    code = f"import json, sys; {statement}; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def test_cli_import_loads_only_the_front_end():
    loaded = set(loaded_after("import ncmilnor.cli"))
    unwanted = {"dataclasses", "inspect", "fractions", "decimal",
                "ncmilnor.milnor", "ncmilnor.blowup", "ncmilnor.logspace"}
    assert not unwanted & loaded


def test_ring_import_loads_no_other_module():
    loaded = [m for m in loaded_after("import ncmilnor.ring") if m.startswith("ncmilnor")]
    assert loaded == ["ncmilnor", "ncmilnor.ring"]


def test_logspace_import_loads_no_milnor_layer():
    loaded = [m for m in loaded_after("import ncmilnor.logspace") if m.startswith("ncmilnor")]
    assert loaded == ["ncmilnor", "ncmilnor.logspace", "ncmilnor.model", "ncmilnor.ring"]
