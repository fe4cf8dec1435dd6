"""Exact bigraded cohomology of Stiefel varieties.

Rings H(W(n, m); R) with their graded-commutative products, the Tate
comparison target H(G_m x P^{n-1}), motivic Steenrod squares and odd
reduced powers, and the induced ring maps between them, all in exact
arithmetic.

The names below are imported from their submodules on first access
(PEP 562), so `import stiefel` loads no submodule until one is used.
"""

import importlib

# each exported name, under the submodule that defines it; the submodules
# themselves are exported too
_EXPORTS = {
    "algebra": ("Element", "Monomial", "StiefelPresentation", "all_monomials",
                "basis_element", "basis_in_bidegree", "monomial_bidegree",
                "poincare_polynomial", "random_element"),
    "coefficients": ("Bidegree", "CoeffRing", "FieldProfile", "MCoefficient", "binom_mod",
                     "is_prime"),
    "errors": ("ContextMismatch", "ElementParseError", "InadmissibleOperation",
               "InvalidGenerator", "InvalidPresentation", "SpanError", "StiefelError"),
    "linalg": (),
    "maps": ("RingMap", "SymmetryKind", "apply_map", "comparison_map", "compose",
             "immersion_pullback", "kernel_basis", "projection_pullback", "ring_map",
             "symmetry_pullback"),
    "operations": ("Operation", "OperationKind", "apply_operation", "bockstein", "power",
                   "power_on_generator", "sq_on_generator", "square"),
    "targets": ("PGmElement", "PGmPresentation", "sq_projective", "total_square_oracle"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
