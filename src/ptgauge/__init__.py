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
"""

from .linalg import (
    Grid1D,
    eig,
    expm,
    grid_operator,
    indefinite_inner,
    match_spectra,
    operator_norm_estimate,
    pairing_check,
)
from .cliffords import (
    CliffordGenerators,
    rotated_involution,
    verify_clifford_relations,
)
from .abelian import (
    GaugeFactorization,
    ScalarPotentials,
    build_scalar_hamiltonian,
    gauge_factorization,
    verify_pseudo_hermiticity,
)
from .cartan import (
    GaugeAlgebraElement,
    ThetaSignature,
    cartan_split,
    exp_compact,
    exp_noncompact,
    group_polar,
    lts_check,
    make_element,
    parity_relations_check,
    random_element,
    random_elements,
    wick_check,
)
from .schrodinger import (
    ConstantGauge,
    MatrixPotential,
    build_and_regauge,
    sample_audited_potential,
    spectral_compare,
    symmetry_audit,
)
from .jaynes import (
    FockLadder,
    LevelEnergies,
    build_jc,
    jc_equivalence_check,
    jc_pt_check,
    nilpotent_split,
)
from .pointint import (
    BoundState,
    CouplingMatrixT,
    PiecewiseFunction,
    bound_states,
    boundary_maps,
    boundary_transform_check,
    clifford_angle,
    domain_check,
    p_phi_selfadjointness_check,
    pt_phase_sweep,
)
from .verification import VerifyConfig, run_verify_all

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
