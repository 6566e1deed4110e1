"""Every matrix-element formula, checked against a permutation expansion.

The seven second-quantized terms are built as ladder-matrix products with exact
few-particle bra-kets.  Independently, each occupation state is expanded
over all particle-label permutations and the first-quantized projected
terms are applied directly.  The two routes must agree entry by entry on
every sector they can both reach.
"""

from composite_bosons import LowestK, random_mode_space, verify_sectors

space = random_mode_space(3, seed=20240, attraction=(40.0, 55.0))
spectrum = space.solve_composites(LowestK(2))
print(f"random model: 3 modes, 2 composites at {spectrum.energies.round(4)}")
print("sweeping all seven terms over every bra/ket pair in sectors N = 0..4 ...")

report = verify_sectors(space, spectrum, range(0, 5))
summary = report["summary"]
print(f"pairs checked       : {summary['pairs_checked']}")
print(f"max |sq - oracle|   : {summary['max_abs_diff']:.3e}")

nonzero = [r for r in report["checks"] if abs(r["sq_value"]) > 1e-8]
print(f"nonzero elements    : {len(nonzero)}")
print("a few samples:")
for row in nonzero[:3] + nonzero[-3:]:
    print(
        f"  {row['term']:>5}  <{row['bra']}|H|{row['ket']}> = "
        f"{row['sq_value']:+.6f}  (oracle {row['oracle_value']:+.6f})"
    )
