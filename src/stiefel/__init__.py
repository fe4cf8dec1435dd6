"""Exact bigraded cohomology of Stiefel varieties.

Rings H(W(n, m); R) with their graded-commutative products, the Tate
comparison target H(G_m x P^{n-1}), motivic Steenrod squares and odd
reduced powers, and the induced ring maps between them, all in exact
arithmetic.
"""

from .algebra import (Element, Monomial, StiefelPresentation, all_monomials,
                      basis_element, basis_in_bidegree, monomial_bidegree,
                      poincare_polynomial, random_element)
from .coefficients import (Bidegree, CoeffRing, FieldProfile, MCoefficient,
                           binom_mod, is_prime)
from .errors import (ContextMismatch, ElementParseError, InadmissibleOperation,
                     InvalidGenerator, InvalidPresentation, SpanError, StiefelError)
from .maps import (RingMap, SymmetryKind, apply_map, comparison_map, compose,
                   immersion_pullback, kernel_basis, projection_pullback,
                   ring_map, symmetry_pullback)
from .operations import (Operation, OperationKind, apply_operation, bockstein, power,
                         power_on_generator, sq_on_generator, square)
from .targets import (PGmElement, PGmPresentation, sq_projective,
                      total_square_oracle)

__all__ = [name for name in dir() if not name.startswith("_")]
