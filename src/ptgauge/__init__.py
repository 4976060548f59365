"""Gauge factorizations and Krein-space metrics for PT-symmetric operators.

Modules
-------
linalg       staggered grid, CSR grid operators, eigensolvers, pairing
cliffords    generating involutions, Clifford relations, rotated involution
abelian      scalar gauge factorization U = U_u U_h and metric eta = J |eta|
cartan       gauge algebra g_Theta, Cartan split, closed-form exponentials
schrodinger  matrix Schrodinger operators with constant gauge potential
jaynes       truncated-Fock two-level (Jaynes-Cummings type) dual build
pointint     zero-range coupling T, Clifford angle phi, bound states
verification desk-scale acceptance suite behind `ptgauge verify-all`
reporting    check records, tables, JSON/CSV emission
cli          the `ptgauge` command line

Import each name from its module (`from ptgauge.linalg import eig`); the
package itself imports none of them, so `import ptgauge` loads no numpy.
"""

__version__ = "0.1.0"
