"""Exact total reduction of linear first-order operator systems.

A system A(x) = B x + phi over a rational matrix B is reduced to n
decoupled n-th order scalar operator equations sharing det(lambda*I - B)
as left-hand side.  Two independent routes (adjugate coefficients and
anchored principal-minor sums) must agree exactly; concrete shift,
derivative and zero operators let the result be verified end to end.

The top level holds the names of the README library example and `det`;
everything else is imported from its submodule.
"""

from .cauchy import reduce_checked
from .exactcore import Matrix, det
from .operators import ElementColumn, FiniteSequence, OperatorKind

__all__ = [
    "ElementColumn",
    "FiniteSequence",
    "Matrix",
    "OperatorKind",
    "det",
    "reduce_checked",
]
