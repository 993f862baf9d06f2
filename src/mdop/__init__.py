"""Exact symbolic kernel for matrix differential operators on the circle.

The package computes in the Lie algebra spanned by words t^i D^j E[p,q]
(D = t d/dt, E[p,q] the N x N matrix units), in its universal central
extension, and in the intermediate-series module families, entirely over
arbitrary-precision rationals with one formal parameter.

Importing the package loads none of its submodules: each export, and each
submodule, is loaded on first use (PEP 562), so a CLI call pays only for
the layers its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names the package exports from it.
_EXPORTS = {
    "algebra": """AlgebraElement FallingElement Monomial bracket_falling_direct
        canonical_product central_bracket cocycle_psi degree embed_scalar
        from_falling homogeneous_components plain_bracket sigma to_falling""",
    "exact": "DimensionError Poly falling_to_power_coeffs gen_binomial",
    "expr": """ParseError element_to_json falling_element_to_json format_element
        format_falling_element format_module_vector format_poly module_vector_to_json
        parse_element parse_module_vector poly_to_json""",
    "reps": """Family ModuleParams ModuleVector WeightRecord act grade_index
        is_highest_weight_vector is_lowest_weight_vector pairing residue_slice
        slot_of_grade weight_of""",
    "verify": """CheckResult Report SuiteConfig available_checks run_suite sample_element
        sample_falling_element sample_module_vector sample_monomial""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset((*_EXPORTS, "cli"))

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
