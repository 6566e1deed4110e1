"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines and the cross-check values.
"""

import math
import time

import numpy as np
import pytest

from composite_bosons import cli
from composite_bosons.fock import (
    OccupationState,
    SectorBasis,
    enumerate_sector,
    exact_commutator,
    exact_ladder_matrix,
    ladder_matrix,
    normalization_constant,
    truncated_states,
)
from composite_bosons.hamiltonian import TermId, assemble_hamiltonian, build_term
from composite_bosons.modespace import BelowEdge, LowestK
from composite_bosons.models import build_ring_model, random_mode_space
from composite_bosons.numerics import dense_symmetric_eigen
from composite_bosons.oracle import verify_sectors

VERIFY_SEED = 20240
LADDER_CAP = 6

# criterion 7 regression locks, computed once from the full pipeline after
# criteria 1-6 passed (ring of 6 sites, t=1, U=-20, N=2 sector)
RING6_GROUND_ENERGY = -40.79223005116186
RING6_MOLECULE_WEIGHT = 0.5000000000000003
REGRESSION_TOL = 1e-6


def _report(criterion: int, name: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion} ({name}): {status}")
    assert ok, f"criterion {criterion} ({name}) failed"


@pytest.fixture(scope="module")
def random_model():
    space = random_mode_space(3, seed=VERIFY_SEED, attraction=(40.0, 55.0))
    spectrum = space.solve_composites(LowestK(2))
    assert spectrum.n_composites == 2
    return space, spectrum


def test_criterion_1_ladder_algebra():
    start = time.perf_counter()
    ok = True

    # same-mode commutator on single-mode spaces with cap 6: exactly the
    # identity on every state below the cap (exact square-root arithmetic)
    for species in ("atom", "molecule"):
        m, a = (1, 0) if species == "atom" else (0, 1)
        states = truncated_states(m, a, LADDER_CAP)
        low = exact_ladder_matrix(states, species, 0, "annihilate")
        raise_ = exact_ladder_matrix(states, species, 0, "create")
        comm = exact_commutator(low, raise_)
        for j, s in enumerate(states):
            occ = s.atoms[0] if species == "atom" else s.molecules[0]
            if occ < LADDER_CAP:
                for i in range(len(states)):
                    ok = ok and comm[i][j].is_integer(1 if i == j else 0)

    # cross-mode and cross-species commutators vanish identically
    states = truncated_states(2, 2, 3)
    ops = {
        ("atom", 0, "annihilate"): ladder_matrix(states, "atom", 0, "annihilate"),
        ("atom", 1, "create"): ladder_matrix(states, "atom", 1, "create"),
        ("molecule", 0, "annihilate"): ladder_matrix(states, "molecule", 0, "annihilate"),
        ("molecule", 1, "create"): ladder_matrix(states, "molecule", 1, "create"),
        ("atom", 0, "create"): ladder_matrix(states, "atom", 0, "create"),
        ("molecule", 0, "create"): ladder_matrix(states, "molecule", 0, "create"),
    }
    pairs = [
        (("atom", 0, "annihilate"), ("atom", 1, "create")),
        (("atom", 0, "annihilate"), ("molecule", 0, "create")),
        (("molecule", 0, "annihilate"), ("molecule", 1, "create")),
        (("atom", 0, "annihilate"), ("molecule", 0, "annihilate")),
        (("atom", 0, "create"), ("molecule", 1, "create")),
    ]
    for left, right in pairs:
        x, y = ops[left], ops[right]
        ok = ok and np.array_equal(x @ y - y @ x, np.zeros_like(x))

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, "ladder algebra", ok)


def test_criterion_2_oracle_equivalence(random_model):
    start = time.perf_counter()
    space, spectrum = random_model
    summary = verify_sectors(space, spectrum, cli._sector_hamiltonians(space, spectrum, 4))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 2 detail: {summary['pairs_checked']} pairs, "
        f"max |sq - oracle| = {summary['max_abs_diff']:.3e}, {elapsed:.1f}s"
    )
    ok = summary["max_abs_diff"] <= 1e-10 and elapsed < 60.0
    _report(2, "oracle equivalence", ok)


def test_criterion_3_hermiticity_and_adjoint_pairing(random_model):
    start = time.perf_counter()
    space, spectrum = random_model
    ok = True
    for n in range(0, 5):
        basis = enumerate_sector(n, space.n_modes, spectrum.n_composites)
        ham = assemble_hamiltonian(basis, space, spectrum)
        total = ham.total.to_dense()
        ok = ok and np.max(np.abs(total - total.T)) <= 1e-12
        css = ham.terms[TermId.CSS].to_dense()
        ssc = ham.terms[TermId.SSC].to_dense()
        ok = ok and np.array_equal(css, ssc.T)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(3, "hermiticity and adjoint pairing", ok)


def test_criterion_4_constituent_number_conservation(random_model):
    start = time.perf_counter()
    space, spectrum = random_model
    ok = True
    for n_left, n_right in [(2, 3), (1, 4), (0, 2)]:
        left = enumerate_sector(n_left, space.n_modes, spectrum.n_composites)
        right = enumerate_sector(n_right, space.n_modes, spectrum.n_composites)
        union = SectorBasis.union(left, right)
        for term in TermId:
            block = build_term(term, union, space, spectrum).to_dense()
            ok = ok and np.all(block[: left.dim, left.dim :] == 0.0)
            ok = ok and np.all(block[left.dim :, : left.dim] == 0.0)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(4, "constituent-number conservation", ok)


def test_criterion_5_closed_form_bound_states():
    start = time.perf_counter()
    t = 1.0
    space = build_ring_model(2, t, -4.0)
    spectrum = space.solve_composites(BelowEdge())
    ok = abs(spectrum.energies[0] - (-(2.0 + 2.0 * math.sqrt(2.0)))) <= 1e-9

    u = -40.0
    space = build_ring_model(2, t, u)
    spectrum = space.solve_composites(BelowEdge())
    want = (u - math.sqrt(u * u + 16.0 * t * t)) / 2.0
    ok = ok and abs(spectrum.energies[0] - want) <= 1e-9
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(5, "closed-form bound states", ok)


def test_criterion_6_normalization_spot_checks():
    one_atom = OccupationState((1, 0), (0,))
    one_molecule = OccupationState((0, 0), (1,))
    double_atom = OccupationState((2, 0), (0,))
    ok = (
        normalization_constant(one_atom) == 1.0
        and normalization_constant(one_molecule) == 0.5
        and normalization_constant(double_atom) == 0.5
    )
    _report(6, "normalization spot checks", ok)


def test_criterion_7_physical_regression():
    start = time.perf_counter()
    space = build_ring_model(6, 1.0, -20.0)
    spectrum = space.solve_composites(BelowEdge())
    ok = spectrum.n_composites >= 1
    ok = ok and bool(np.all(spectrum.energies < spectrum.continuum_edge))

    basis = enumerate_sector(2, space.n_modes, spectrum.n_composites)
    ham = assemble_hamiltonian(basis, space, spectrum)
    values, vectors = dense_symmetric_eigen(ham.total.to_dense())
    ground_energy = float(values[0])
    ground = vectors[:, 0]
    molecule_rows = [i for i, s in enumerate(basis.states) if s.n_molecules > 0]
    weight = float(np.sum(ground[molecule_rows] ** 2))

    # cross-check, reported alongside: exact symmetric two-boson ground state
    exact_two_boson = float(dense_symmetric_eigen(space.pair_hamiltonian().mat)[0][0])
    print(
        f"criterion 7 detail: idealized N=2 ground {ground_energy!r} "
        f"(molecule weight {weight!r}); exact two-boson ground {exact_two_boson!r}; "
        f"continuum edge {spectrum.continuum_edge!r}"
    )

    ok = ok and abs(ground_energy - RING6_GROUND_ENERGY) <= REGRESSION_TOL
    ok = ok and abs(weight - RING6_MOLECULE_WEIGHT) <= REGRESSION_TOL
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(7, "physical regression", ok)
