import math

import numpy as np
import pytest

from composite_bosons.fock import (
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


def test_vacuum_sector():
    basis = enumerate_sector(0, 3, 2)
    assert basis.dim == 1
    assert basis.states[0] == OccupationState((0, 0, 0), (0, 0))


def test_small_sector_enumeration():
    basis = enumerate_sector(2, 2, 1)
    assert [(s.atoms, s.molecules) for s in basis.states] == [
        ((2, 0), (0,)),
        ((1, 1), (0,)),
        ((0, 2), (0,)),
        ((0, 0), (1,)),
    ]


def test_three_constituents_one_mode():
    basis = enumerate_sector(3, 1, 1)
    assert [(s.atoms, s.molecules) for s in basis.states] == [((3,), (0,)), ((1,), (1,))]


def test_sector_sizes_match_closed_form():
    for n in range(9):
        for m in range(1, 5):
            for a in range(0, 4):
                basis = enumerate_sector(n, m, a)
                assert basis.dim == sector_dimension(n, m, a), (n, m, a)
                assert all(s.constituents == n for s in basis.states)
                assert len(set(basis.states)) == basis.dim


def test_normalization_worked_values():
    one_atom = OccupationState((1, 0), (0,))
    assert normalization_constant(one_atom) == 1.0
    one_molecule = OccupationState((0, 0), (1,))
    assert normalization_constant(one_molecule) == 0.5
    double_atom = OccupationState((2, 0), (0,))
    assert normalization_constant(double_atom) == 0.5


def test_normalization_permutation_invariance():
    a = OccupationState((3, 1, 0), (2, 0))
    b = OccupationState((0, 3, 1), (0, 2))
    assert normalization_constant(a) == normalization_constant(b)


def test_ladder_examples():
    s = OccupationState((3,), (0,))
    coeff, down = apply_ladder(s, "atom", 0, "annihilate")
    assert coeff == pytest.approx(math.sqrt(3.0))
    assert down.atoms == (2,)

    empty = OccupationState((0,), (0,))
    coeff, none = apply_ladder(empty, "molecule", 0, "annihilate")
    assert coeff == 0.0 and none is None

    m = OccupationState((0,), (1,))
    coeff, up = apply_ladder(m, "molecule", 0, "create")
    assert coeff == pytest.approx(math.sqrt(2.0))
    assert up.molecules == (2,)


def test_ladder_index_out_of_range():
    s = OccupationState((1,), (0,))
    with pytest.raises(IndexError):
        apply_ladder(s, "atom", 1, "create")


def test_pretty_print():
    s = OccupationState((2, 0), (1,))
    assert str(s) == "|2,0 ; 1⟩"


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        OccupationState((-1,), ())


def test_constituent_guard():
    with pytest.raises(ValueError, match="exceeds"):
        OccupationState((65,), ())


def test_same_mode_commutator_is_identity_below_cap():
    cap = 6
    states = truncated_states(1, 0, cap)
    a = exact_ladder_matrix(states, "atom", 0, "annihilate")
    adag = exact_ladder_matrix(states, "atom", 0, "create")
    comm = exact_commutator(a, adag)
    for j, s in enumerate(states):
        if s.atoms[0] < cap:
            for i in range(len(states)):
                assert comm[i][j].is_integer(1 if i == j else 0)
    # the float representation agrees to a few ulps on the diagonal
    af = ladder_matrix(states, "atom", 0, "annihilate")
    cf = ladder_matrix(states, "atom", 0, "create")
    comm_f = af @ cf - cf @ af
    below = [j for j, s in enumerate(states) if s.atoms[0] < cap]
    sub = comm_f[np.ix_(below, below)] - np.eye(len(states))[np.ix_(below, below)]
    assert np.max(np.abs(sub)) <= 4e-15


def test_sqrt_rational_arithmetic():
    r2 = SqrtRational.sqrt_of(2)
    assert (r2 * r2).is_integer(2)
    r8 = SqrtRational.sqrt_of(8)
    assert r8.r == 2 and r8.s == 2
    assert (r8 - r2 - r2).is_integer(0)
    with pytest.raises(ValueError, match="cannot add"):
        SqrtRational.sqrt_of(2) + SqrtRational.sqrt_of(3)


def test_cross_mode_and_cross_species_commutators_vanish():
    states = truncated_states(1, 1, 4)
    a_atom = ladder_matrix(states, "atom", 0, "annihilate")
    c_atom = ladder_matrix(states, "atom", 0, "create")
    a_mol = ladder_matrix(states, "molecule", 0, "annihilate")
    c_mol = ladder_matrix(states, "molecule", 0, "create")
    assert np.array_equal(a_atom @ c_mol - c_mol @ a_atom, np.zeros_like(a_atom))
    assert np.array_equal(a_atom @ a_mol - a_mol @ a_atom, np.zeros_like(a_atom))
    assert np.array_equal(c_atom @ c_mol - c_mol @ c_atom, np.zeros_like(a_atom))

    two_atoms = truncated_states(2, 0, 4)
    a0 = ladder_matrix(two_atoms, "atom", 0, "annihilate")
    c1 = ladder_matrix(two_atoms, "atom", 1, "create")
    assert np.array_equal(a0 @ c1 - c1 @ a0, np.zeros_like(a0))


def test_union_basis():
    b2 = enumerate_sector(2, 2, 1)
    b3 = enumerate_sector(3, 2, 1)
    u = SectorBasis.union(b2, b3)
    assert u.constituents is None
    assert u.dim == b2.dim + b3.dim
    assert u.position(b3.states[0]) == b2.dim


def test_occupations_rows_are_states():
    for basis in (enumerate_sector(2, 2, 1), enumerate_sector(0, 3, 0)):
        occ = basis.occupations
        assert occ.dtype == np.int64
        assert occ.shape == (basis.dim, basis.n_atom_modes + basis.n_molecule_modes)
        want = [s.atoms + s.molecules for s in basis.states]
        assert [tuple(row) for row in occ.tolist()] == want


def test_duplicate_states_rejected():
    s = OccupationState((1,), (0,))
    with pytest.raises(ValueError, match="duplicate"):
        SectorBasis((s, s), 1, 1, None)
