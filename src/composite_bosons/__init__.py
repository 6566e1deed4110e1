"""Second-quantized many-boson Hamiltonians with two-body composite modes.

The package builds the Fock space of atom and molecule (bound-pair) modes,
assembles the seven second-quantized Hamiltonian terms as sparse sector
blocks, and verifies every matrix-element formula against an independent
permutation-expansion oracle and small exact diagonalizations.
"""

from .fock import (
    SqrtRational,
    enumerate_sector,
    exact_commutator,
    exact_ladder_matrix,
    ladder_matrix,
    truncated_states,
)
from .hamiltonian import assemble_hamiltonian
from .modespace import BelowEdge, LowestK
from .models import (
    build_explicit_model,
    build_mode_space,
    build_ring_model,
    load_config,
    random_mode_space,
)
from .numerics import dense_symmetric_eigen
from .oracle import verify_sectors

__version__ = "0.1.0"
