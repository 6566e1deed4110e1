"""Second-quantized many-boson Hamiltonians with two-body composite modes.

The package builds the Fock space of atom and molecule (bound-pair) modes,
assembles the seven second-quantized Hamiltonian terms as sparse sector
blocks, and verifies every matrix-element formula against an independent
permutation-expansion oracle and small exact diagonalizations.
"""

from .algebra import (
    Atom,
    ElementEngine,
    FormalProduct,
    FormalState,
    OneBody,
    Pair,
    TwoBody,
    formal_inner_product,
    labeled_matrix_element,
    pair_interaction_ops,
)
from .fock import (
    OccupationState,
    SectorBasis,
    SqrtRational,
    apply_ladder,
    enumerate_sector,
    exact_commutator,
    exact_ladder_matrix,
    ladder_matrix,
    normalization_constant,
    sector_dimension,
    truncated_states,
)
from .hamiltonian import (
    SparseHamiltonian,
    TermId,
    assemble_hamiltonian,
    build_term,
    coefficient_tensors,
)
from .modespace import (
    BelowEdge,
    CompositeSpectrum,
    LowestK,
    ModeBasis,
    ModeSpace,
    OneBodyTensor,
    PairHamiltonian,
    TwoBodyTensor,
    build_pair_hamiltonian,
    continuum_edge,
    mode_space,
    solve_bound_states,
)
from .models import (
    ConfigError,
    ModelConfig,
    build_explicit_model,
    build_mode_space,
    build_ring_model,
    load_config,
    random_mode_space,
)
from .numerics import (
    NonSymmetricError,
    SparseMatrix,
    dense_symmetric_eigen,
    sparse_lowest_eigen,
)
from .oracle import (
    apply_projected_term,
    expand_basis_state,
    oracle_matrix_element,
    verify_sectors,
)

__version__ = "0.1.0"
