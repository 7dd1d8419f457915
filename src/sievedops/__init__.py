"""Sieved ultraspherical orthogonal polynomials.

Exact construction via block recurrences, rational-arithmetic proofs of the
Chebyshev and mapping identities, semiclassical structure relations and
ODEs, plus the electrostatic model whose equilibrium is the zero set of the
first-kind family.

The API lives in the modules (polycore, chebyshev, recurrence,
semiclassical, numerics, electrostatics, cli); import each name from its
module.
"""

__version__ = "0.1.0"
