"""Sieved ultraspherical orthogonal polynomials.

Exact construction via block recurrences, rational-arithmetic proofs of the
Chebyshev and mapping identities, semiclassical structure relations and
ODEs, plus the electrostatic model whose equilibrium is the zero set of the
first-kind family.
"""

from .chebyshev import identity_residual, t_hat, u_hat
from .polycore import Poly, rat_from_str, rat_to_str
from .recurrence import SievedFamily, SievedKind, classical_sieved, sieved_monic

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "SievedFamily",
    "SievedKind",
    "classical_sieved",
    "identity_residual",
    "rat_from_str",
    "rat_to_str",
    "sieved_monic",
    "t_hat",
    "u_hat",
    "__version__",
]
