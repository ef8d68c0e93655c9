"""Exact computation in the quantum algebra attached to the length-four
Weyl word over the Kronecker quiver: normal-form arithmetic, the dual
canonical basis, the classical q = 1 cluster algebra, and the quantum seed
structure, with machine verification of the defining identities."""

from .dcb import b_element, compute_layer, dual_pbw, expand_in_dual_pbw
from .pbw import PbwElement, generator, p0, p1
from .qarith import (
    LaurentQ,
    bar,
    quantum_binom,
    quantum_factorial,
    quantum_int,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentQ", "bar", "quantum_binom", "quantum_factorial", "quantum_int",
    "PbwElement", "generator", "p0", "p1",
    "b_element", "compute_layer", "dual_pbw", "expand_in_dual_pbw",
    "__version__",
]
