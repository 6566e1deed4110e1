"""Every matrix-element formula, checked against a permutation expansion.

The seven second-quantized terms are built as ladder-matrix products with exact
few-particle bra-kets.  Independently, each occupation state is expanded
over all particle-label permutations and the first-quantized projected
terms are applied directly.  The two routes must agree entry by entry on
every sector they can both reach.  The sectors are assembled once, on their
union, and the oracle sweeps exactly those blocks.
"""

from composite_bosons import (
    LowestK,
    assemble_hamiltonian,
    enumerate_sector,
    random_mode_space,
    verify_sectors,
)
from composite_bosons.fock import SectorBasis
from composite_bosons.hamiltonian import split_sectors
from composite_bosons.oracle import sweep_columns

space = random_mode_space(3, seed=20240, attraction=(40.0, 55.0))
spectrum = space.solve_composites(LowestK(2))
print(f"random model: 3 modes, 2 composites at {spectrum.energies.round(4)}")
print("assembling sectors N = 0..4 and sweeping all seven terms over every bra/ket pair ...")

bases = [enumerate_sector(n, space.n_modes, spectrum.n_composites) for n in range(0, 5)]
hams = split_sectors(assemble_hamiltonian(SectorBasis.union(*bases), space, spectrum), bases)
summary = verify_sectors(space, spectrum, hams)
print(f"pairs checked       : {summary['pairs_checked']}")
print(f"max |sq - oracle|   : {summary['max_abs_diff']:.3e}")

# each column lists the rows where sq or oracle may be nonzero
nonzero = [
    (col.term, col.bras[row], col.ket, sq, value)
    for col in sweep_columns(space, spectrum, hams)
    for row, sq, value in zip(col.rows, col.sq, col.oracle)
    if abs(sq) > 1e-8
]
print(f"nonzero elements    : {len(nonzero)}")
print("a few samples:")
for term, bra, ket, sq, value in nonzero[:3] + nonzero[-3:]:
    print(f"  {term:>5}  <{bra}|H|{ket}> = {sq:+.6f}  (oracle {value:+.6f})")
