"""The public surface of `import stiefel`: its names and where they live."""

import importlib

import pytest

import stiefel

# each exported name, under the submodule that defines it
HOMES = {
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
EXPORTS = [name for names in HOMES.values() for name in names]
PUBLIC = sorted(EXPORTS + list(HOMES))


def test_all_lists_the_exports_and_their_modules():
    assert len(EXPORTS) == 44
    assert sorted(stiefel.__all__) == PUBLIC
    assert len(PUBLIC) == 51


@pytest.mark.parametrize("home", sorted(HOMES))
def test_each_export_is_its_home_object(home):
    module = importlib.import_module(f"stiefel.{home}")
    assert getattr(stiefel, home) is module
    for name in HOMES[home]:
        assert getattr(stiefel, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stiefel import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(stiefel, name) for name in PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stiefel.no_such_name  # noqa: B018
    assert not hasattr(stiefel, "no_such_name")
